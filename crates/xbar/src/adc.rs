//! Saturating column-sum ADCs (paper §3, §2.4).
//!
//! RAELLA's key ADC decision: capture the **seven least significant bits**
//! of the signed column sum with step size 1 — `clamp(sum, −64, 63)` — so
//! every in-range sum is read with *full* fidelity and only out-of-range
//! sums saturate. Saturation is detectable (the output sits at a rail),
//! which is what Dynamic Input Slicing's speculation check uses (§4.3).
//!
//! This contrasts with Sum-Fidelity-Limited designs that drop LSBs: those
//! never saturate but lose fidelity on *every* conversion (paper footnote 4).

use serde::{Deserialize, Serialize};

/// An ADC's numeric behaviour: resolution, signedness, and range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AdcSpec {
    /// Resolution in bits (1–16).
    pub bits: u8,
    /// Whether the ADC reads signed sums (RAELLA/2T2R) or unsigned
    /// (ISAAC-style crossbars).
    pub signed: bool,
}

impl AdcSpec {
    /// RAELLA's 7b signed LSB-capturing ADC: range `[−64, 64)`.
    pub fn raella_7b() -> Self {
        AdcSpec {
            bits: 7,
            signed: true,
        }
    }

    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 16.
    pub fn new(bits: u8, signed: bool) -> Self {
        assert!(
            (1..=16).contains(&bits),
            "ADC bits must be 1–16, got {bits}"
        );
        AdcSpec { bits, signed }
    }

    /// Smallest representable output.
    pub fn min(&self) -> i64 {
        if self.signed {
            -(1i64 << (self.bits - 1))
        } else {
            0
        }
    }

    /// Largest representable output.
    pub fn max(&self) -> i64 {
        if self.signed {
            (1i64 << (self.bits - 1)) - 1
        } else {
            (1i64 << self.bits) - 1
        }
    }

    /// Converts an analog column sum: full fidelity in range, saturation
    /// at the rails outside (step size 1 — the LSB-capture policy).
    pub fn convert(&self, sum: i64) -> i64 {
        sum.clamp(self.min(), self.max())
    }

    /// Whether a conversion saturated (output pinned at either rail).
    ///
    /// RAELLA treats rail-valued outputs as speculation failures, which
    /// conservatively also flags exact-rail in-range sums (§4.3: "If an ADC
    /// output equals either of these bounds, an error is detected").
    pub fn saturated(&self, output: i64) -> bool {
        output == self.min() || output == self.max()
    }

    /// Number of distinct output codes.
    pub fn codes(&self) -> u64 {
        1u64 << self.bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raella_7b_range_is_minus64_to_63() {
        let adc = AdcSpec::raella_7b();
        assert_eq!(adc.min(), -64);
        assert_eq!(adc.max(), 63);
        assert_eq!(adc.codes(), 128);
    }

    #[test]
    fn in_range_sums_convert_exactly() {
        let adc = AdcSpec::raella_7b();
        for s in -64..=63i64 {
            assert_eq!(adc.convert(s), s);
        }
    }

    #[test]
    fn out_of_range_sums_saturate_at_rails() {
        let adc = AdcSpec::raella_7b();
        assert_eq!(adc.convert(64), 63);
        assert_eq!(adc.convert(10_000), 63);
        assert_eq!(adc.convert(-65), -64);
        assert_eq!(adc.convert(-10_000), -64);
    }

    #[test]
    fn saturation_detection_flags_rails() {
        let adc = AdcSpec::raella_7b();
        assert!(adc.saturated(adc.convert(100)));
        assert!(adc.saturated(adc.convert(-100)));
        assert!(!adc.saturated(adc.convert(62)));
        // Conservative: an exact-rail in-range sum also flags.
        assert!(adc.saturated(adc.convert(63)));
    }

    #[test]
    fn unsigned_adc_clamps_below_zero() {
        let adc = AdcSpec::new(8, false);
        assert_eq!(adc.min(), 0);
        assert_eq!(adc.max(), 255);
        assert_eq!(adc.convert(-5), 0);
        assert_eq!(adc.convert(300), 255);
        assert_eq!(adc.convert(128), 128);
    }

    #[test]
    fn convert_is_idempotent() {
        let adc = AdcSpec::raella_7b();
        for s in [-1000i64, -64, 0, 63, 1000] {
            let once = adc.convert(s);
            assert_eq!(adc.convert(once), once);
        }
    }

    #[test]
    #[should_panic(expected = "1–16")]
    fn spec_rejects_zero_bits() {
        AdcSpec::new(0, true);
    }
}
