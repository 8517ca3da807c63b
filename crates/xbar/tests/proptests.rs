//! Property-based tests for sliced arithmetic and ADCs.

use proptest::prelude::*;

use raella_xbar::adc::AdcSpec;
use raella_xbar::slicing::{crop_signed, Slicing};

/// An arbitrary valid slicing of 8 bits into ≤4b slices.
fn arb_slicing() -> impl Strategy<Value = Slicing> {
    let all = Slicing::enumerate(8, 4);
    (0..all.len()).prop_map(move |i| all[i].clone())
}

proptest! {
    /// `Σ 2^{lᵢ}·D(hᵢ, lᵢ, x) = x` for every slicing and 9b-signed value —
    /// the identity that makes shift+add reconstruction exact (Table 1).
    #[test]
    fn slicing_reconstruction_is_exact(slicing in arb_slicing(), x in -255i32..=255) {
        let values: Vec<i64> = slicing
            .slice_values(x)
            .iter()
            .map(|&v| i64::from(v))
            .collect();
        prop_assert_eq!(slicing.reconstruct(&values), i64::from(x));
    }

    /// Slice values never exceed their slice's magnitude capacity.
    #[test]
    fn slice_values_fit_their_width(slicing in arb_slicing(), x in -255i32..=255) {
        for (slice, v) in slicing.slices().iter().zip(slicing.slice_values(x)) {
            prop_assert!(v.abs() <= slice.max_magnitude());
        }
    }

    /// Exploding any slice to bits preserves its contribution exactly.
    #[test]
    fn explode_to_bits_preserves_value(
        slicing in arb_slicing(),
        idx in 0usize..8,
        x in -255i32..=255,
    ) {
        let idx = idx % slicing.num_slices();
        let coarse = slicing.slice_values(x)[idx];
        let slice = slicing.slices()[idx];
        let fine: i64 = slicing
            .explode_to_bits(idx)
            .iter()
            .map(|b| i64::from(b.crop(x)) << b.shift())
            .sum();
        prop_assert_eq!(fine, i64::from(coarse) << slice.shift());
    }

    /// The crop function preserves sign and is bounded by the slice width.
    #[test]
    fn crop_sign_and_bound(x in -100_000i32..=100_000, h in 0u32..16, w in 1u32..=4) {
        let l = h;
        let h = h + w - 1;
        let v = crop_signed(x, h, l);
        prop_assert!(v.abs() < (1 << w));
        if v != 0 {
            prop_assert_eq!(v.signum(), x.signum());
        }
    }

    /// ADC conversion is idempotent, monotone, and clamps to range.
    #[test]
    fn adc_convert_properties(bits in 2u8..=12, signed: bool, a in -100_000i64..=100_000, b in -100_000i64..=100_000) {
        let adc = AdcSpec::new(bits, signed);
        let ca = adc.convert(a);
        prop_assert_eq!(adc.convert(ca), ca, "idempotent");
        prop_assert!(ca >= adc.min() && ca <= adc.max(), "in range");
        if a <= b {
            prop_assert!(ca <= adc.convert(b), "monotone");
        }
        // Exact within range.
        if a >= adc.min() && a <= adc.max() {
            prop_assert_eq!(ca, a);
        }
    }
}
