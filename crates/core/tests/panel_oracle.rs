//! Panel-kernel oracle: the cache-blocked column-panel kernel must be
//! bit-identical to the retained scalar kernel — accumulators *and* every
//! statistics counter — for any layer the compiler can produce.
//!
//! The property sweeps random layer shapes (rows crossing group
//! boundaries, filter counts crossing the 64-wide panel boundary, signed
//! and unsigned inputs) × weight slicings × ADC widths (including small
//! ones that force speculation recovery) × ideal/noisy × both input
//! modes, and runs both kernels on the same vectors with the same noise
//! substream keys. Any divergence in ADC conversion order, noise draw
//! order, device-charge pricing, or event counting fails here against the
//! original code path.
//!
//! The panel kernel accumulates products in 16-bit lanes over 64-row
//! blocks; the scalar kernel sums in `i32`/`i64`. The block properties
//! below run 512-row crossbars, so groups span several blocks and row
//! counts sit on either side of each block edge, and drive the lanes to
//! their proven bound: 5b cells holding ±31 levels under saturated
//! (all-255) inputs.
//!
//! The panel kernel also visits only a plane's nonzero rows, and derives
//! each recovered window's lowest bit from the window's sums instead of
//! re-reading it; the scalar kernel scans every row and re-reads every
//! bit. The sparse properties feed ReLU-like inputs (40–90% zero rows),
//! all-zero vectors, and vectors whose nonzero rows all sit in one row
//! group, with ADCs small enough that most windows recover.

use proptest::prelude::*;

use raella_core::compiler::CompiledLayer;
use raella_core::engine::{run_vector_groups_at_age, run_vector_groups_reference_at_age, RunStats};
use raella_core::scratch::VectorScratch;
use raella_core::{RaellaConfig, WeightEncoding};
use raella_nn::matrix::{Act, InputProfile, MatrixLayer};
use raella_nn::quant::OutputQuant;
use raella_nn::synth::SynthLayer;
use raella_xbar::adc::AdcSpec;
use raella_xbar::slicing::Slicing;

/// Runs both kernels on every vector of `inputs`, over the full group
/// range and a partial one, and asserts that accumulators, per-vector
/// statistics and merged statistics agree bit for bit.
fn assert_kernels_agree(compiled: &CompiledLayer, inputs: &[Act], seed: u64) {
    let full = 0..compiled.group_count();
    let partial = full.start..(full.end).min(1).max(full.end.saturating_sub(1));
    for groups in [full, partial] {
        assert_kernels_agree_on(compiled, inputs, seed, groups);
    }
}

/// [`assert_kernels_agree`] over one group range.
fn assert_kernels_agree_on(
    compiled: &CompiledLayer,
    inputs: &[Act],
    seed: u64,
    groups: std::ops::Range<usize>,
) {
    let mut total_panel = RunStats::default();
    let mut total_scalar = RunStats::default();
    for (v, input) in inputs.chunks(compiled.filter_len()).enumerate() {
        let mut panel_scratch = VectorScratch::for_layer(compiled);
        let mut scalar_scratch = VectorScratch::for_layer(compiled);
        let ps = run_vector_groups_at_age(
            compiled,
            input,
            groups.clone(),
            &mut panel_scratch,
            seed,
            v as u64,
            0,
        );
        let ss = run_vector_groups_reference_at_age(
            compiled,
            input,
            groups.clone(),
            &mut scalar_scratch,
            seed,
            v as u64,
            0,
        );
        prop_assert_eq!(
            panel_scratch.accumulators(),
            scalar_scratch.accumulators(),
            "accumulators diverged: groups {:?} vector {}",
            &groups,
            v
        );
        prop_assert_eq!(
            &ps,
            &ss,
            "per-vector stats diverged: groups {:?} vector {}",
            &groups,
            v
        );
        total_panel.merge(&ps);
        total_scalar.merge(&ss);
    }
    prop_assert_eq!(total_panel, total_scalar);
}

/// `inputs` followed by saturated vectors: every magnitude 255 — all
/// positive, and for signed layers also all negative and alternating.
fn with_saturated(mut inputs: Vec<Act>, rows: usize, signed: bool) -> Vec<Act> {
    inputs.extend(std::iter::repeat_n(255, rows));
    if signed {
        inputs.extend(std::iter::repeat_n(-255, rows));
        inputs.extend((0..rows).map(|r| if r.is_multiple_of(2) { 255 } else { -255 }));
    }
    inputs
}

/// The 16-bit bound's worst case: under Zero+Offset encoding, filters
/// alternate all-255 weights over zero point 0 (offset +255) and all-0
/// weights over zero point 255 (offset −255), so a 5b-3b slicing programs
/// every 5b cell at level +31 or −31.
fn extreme_layer(rows: usize, filters: usize, signed: bool) -> MatrixLayer {
    let high = |f: usize| f.is_multiple_of(2);
    let weights = (0..filters)
        .flat_map(|f| std::iter::repeat_n(if high(f) { 255 } else { 0 }, rows))
        .collect();
    let zero_points = (0..filters)
        .map(|f| if high(f) { 0 } else { 255 })
        .collect();
    let quant = OutputQuant::new(vec![1.0; filters], vec![0.0; filters], zero_points);
    let profile = if signed {
        InputProfile::signed_default()
    } else {
        InputProfile::relu_default()
    };
    MatrixLayer::new("extreme", filters, rows, weights, quant, profile).expect("consistent layer")
}

/// A 512×512-crossbar configuration with 5b cells.
fn block_cfg(adc_bits: u8, noisy: bool, bitserial: bool) -> RaellaConfig {
    let mut cfg = RaellaConfig {
        crossbar_rows: 512,
        crossbar_cols: 512,
        cell_bits: 5,
        ..RaellaConfig::default()
    };
    cfg.adc = AdcSpec::new(adc_bits, true);
    if noisy {
        cfg = cfg.with_noise(0.05);
    }
    if bitserial {
        cfg = cfg.without_speculation();
    }
    cfg
}

/// Every row count on either side of a 64-row block edge, at ±31 levels
/// and saturated inputs, ideal and noisy, speculative and bit-serial, with
/// a 7b ADC (saturated windows fail speculation and recover) and a 16b
/// one (exact window sums reach the conversion). Filter counts cover the 16-, 32-
/// and 64-lane panels and a ragged one.
#[test]
fn panel_kernel_is_exact_at_the_16_bit_bound_across_row_blocks() {
    let slicing = Slicing::new(&[5, 3], 8).expect("consistent slicing");
    let row_counts = [63, 64, 65, 127, 128, 129, 512];
    for (k, &rows) in row_counts.iter().enumerate() {
        let filters = [16, 32, 70][k % 3];
        for signed in [false, true] {
            let layer = extreme_layer(rows, filters, signed);
            let inputs = with_saturated(layer.sample_inputs(1, rows as u64), rows, signed);
            for (noisy, bitserial, adc_bits) in
                (0..8).map(|m| (m & 1 != 0, m & 2 != 0, [7, 16][m >> 2]))
            {
                let cfg = RaellaConfig {
                    encoding: WeightEncoding::ZeroOffset,
                    ..block_cfg(adc_bits, noisy, bitserial)
                };
                let compiled = CompiledLayer::with_slicing(&layer, slicing.clone(), &cfg)
                    .expect("consistent layer");
                let top = compiled.groups()[0][0].levels[0][0];
                assert_eq!(top.abs(), 31, "the 5b slice sits at its maximum level");
                assert_kernels_agree(&compiled, &inputs, rows as u64);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any compiled layer, any group subrange, ideal or noisy, either
    /// input mode: panel and scalar kernels agree bit-for-bit.
    #[test]
    fn panel_kernel_is_bit_identical_to_scalar_kernel(
        rows in 1usize..200,
        filters in 1usize..90,
        seed in 0u64..500,
        slicing_pick in 0usize..3,
        adc_bits in 4u8..10,
        signed in any::<bool>(),
        bitserial in any::<bool>(),
        noisy in any::<bool>(),
    ) {
        let mut builder = SynthLayer::linear(rows, filters, seed);
        if signed {
            builder = builder.signed_inputs();
        }
        let layer = builder.build();

        let slicing = match slicing_pick {
            0 => Slicing::raella_default_weights(),
            1 => Slicing::new(&[4, 4], 8).expect("consistent slicing"),
            _ => Slicing::uniform(1, 8),
        };
        let mut cfg = RaellaConfig {
            crossbar_rows: 64,
            crossbar_cols: 64,
            ..RaellaConfig::default()
        };
        cfg.adc = AdcSpec::new(adc_bits, true);
        if noisy {
            cfg = cfg.with_noise(0.05);
        }
        if bitserial {
            cfg = cfg.without_speculation();
        }
        let compiled = CompiledLayer::with_slicing(&layer, slicing, &cfg)
            .expect("consistent layer");

        let inputs = layer.sample_inputs(2, seed ^ 0x0DDC0FFE);
        assert_kernels_agree(&compiled, &inputs, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random synthetic layers up to 512 rows on 512-row crossbars (one
    /// group spanning up to eight 64-row blocks), 5b cells, saturated and
    /// sampled inputs: panel and scalar kernels agree bit-for-bit.
    #[test]
    fn panel_kernel_is_bit_identical_across_row_blocks(
        rows in 1usize..513,
        filters in 1usize..90,
        seed in 0u64..500,
        slicing_pick in 0usize..3,
        adc_bits in 4u8..17,
        signed in any::<bool>(),
        bitserial in any::<bool>(),
        noisy in any::<bool>(),
    ) {
        let mut builder = SynthLayer::linear(rows, filters, seed);
        if signed {
            builder = builder.signed_inputs();
        }
        let layer = builder.build();
        let slicing = match slicing_pick {
            0 => Slicing::new(&[5, 3], 8).expect("consistent slicing"),
            1 => Slicing::new(&[3, 5], 8).expect("consistent slicing"),
            _ => Slicing::raella_default_weights(),
        };
        let cfg = block_cfg(adc_bits, noisy, bitserial);
        let compiled = CompiledLayer::with_slicing(&layer, slicing, &cfg)
            .expect("consistent layer");
        let inputs = with_saturated(layer.sample_inputs(2, seed ^ 0x0DDC0FFE), rows, signed);
        assert_kernels_agree(&compiled, &inputs, seed);
    }
}

/// Zeroes about `zero_pct`% of `inputs`' rows (a fixed hash of `seed` and
/// the position), the way a ReLU leaves a layer's inputs.
fn sparsify(inputs: &mut [Act], zero_pct: u64, seed: u64) {
    for (i, x) in inputs.iter_mut().enumerate() {
        let mut h = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 31;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 29;
        if h % 100 < zero_pct {
            *x = 0;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// ReLU-like inputs with 40–90% zero rows, then an all-zero vector, on
    /// layers of up to four 64-row groups. 3–4b ADCs fail most windows, so
    /// most recoveries derive their lowest bit from the window sums; a 7b
    /// ADC is the paper's case. Ideal and noisy, signed and unsigned,
    /// speculative and bit-serial: panel and scalar kernels agree
    /// bit-for-bit.
    #[test]
    fn panel_kernel_is_bit_identical_on_sparse_inputs(
        rows in 1usize..257,
        filters in 1usize..90,
        seed in 0u64..500,
        zero_pct in 40u64..91,
        slicing_pick in 0usize..3,
        adc_pick in 0usize..3,
        signed in any::<bool>(),
        bitserial in any::<bool>(),
        noisy in any::<bool>(),
    ) {
        let mut builder = SynthLayer::linear(rows, filters, seed);
        if signed {
            builder = builder.signed_inputs();
        }
        let layer = builder.build();
        let slicing = match slicing_pick {
            0 => Slicing::raella_default_weights(),
            1 => Slicing::new(&[4, 4], 8).expect("consistent slicing"),
            _ => Slicing::new(&[2, 4, 2], 8).expect("consistent slicing"),
        };
        let mut cfg = RaellaConfig {
            crossbar_rows: 64,
            crossbar_cols: 64,
            ..RaellaConfig::default()
        };
        cfg.adc = AdcSpec::new([3, 4, 7][adc_pick], true);
        if noisy {
            cfg = cfg.with_noise(0.05);
        }
        if bitserial {
            cfg = cfg.without_speculation();
        }
        let compiled = CompiledLayer::with_slicing(&layer, slicing, &cfg)
            .expect("consistent layer");
        let mut inputs = layer.sample_inputs(3, seed ^ 0x5EED);
        sparsify(&mut inputs, zero_pct, seed);
        inputs.extend(std::iter::repeat_n(0, rows));
        assert_kernels_agree(&compiled, &inputs, seed);
    }
}

/// Every nonzero row inside one row group of a three-group layer, at 64-
/// and 512-row crossbars: the other groups' compacted subranges are empty
/// and the busy group's sits mid-plane. Every group range — each group
/// alone, pairs and the whole layer — with 3b and 7b ADCs, ideal and
/// noisy, signed and unsigned, speculative and bit-serial.
#[test]
fn panel_kernel_is_exact_when_one_group_holds_every_nonzero_row() {
    for crossbar_rows in [64, 512] {
        let rows = 2 * crossbar_rows + crossbar_rows / 2 + 3;
        for signed in [false, true] {
            let mut builder = SynthLayer::linear(rows, 20, crossbar_rows as u64);
            if signed {
                builder = builder.signed_inputs();
            }
            let layer = builder.build();
            let mut inputs = layer.sample_inputs(2, 77);
            for (r, x) in inputs.iter_mut().enumerate() {
                if !(crossbar_rows..2 * crossbar_rows).contains(&(r % rows)) {
                    *x = 0;
                }
            }
            for (noisy, bitserial, adc_bits) in
                (0..8).map(|m| (m & 1 != 0, m & 2 != 0, [3, 7][m >> 2]))
            {
                let mut cfg = RaellaConfig {
                    crossbar_rows,
                    crossbar_cols: crossbar_rows,
                    ..RaellaConfig::default()
                };
                cfg.adc = AdcSpec::new(adc_bits, true);
                if noisy {
                    cfg = cfg.with_noise(0.05);
                }
                if bitserial {
                    cfg = cfg.without_speculation();
                }
                let compiled =
                    CompiledLayer::with_slicing(&layer, Slicing::raella_default_weights(), &cfg)
                        .expect("consistent layer");
                assert_eq!(compiled.group_count(), 3);
                for groups in [0..1, 1..2, 2..3, 0..2, 1..3, 0..3] {
                    assert_kernels_agree_on(&compiled, &inputs, 5, groups);
                }
            }
        }
    }
}
