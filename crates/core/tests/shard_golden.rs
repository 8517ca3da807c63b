//! Golden row-group partial-sum merge: a hand-computed two-tile split of a
//! small Linear layer (the sharding analogue of `crates/nn/tests/
//! golden_ops.rs`), pinning the exact accumulator values each tile
//! produces, the DAC/ADC event counts at the slice boundaries, and the
//! digital merge.
//!
//! Layer: 2 filters × 6 weights on 4-row crossbars → row groups
//! `[0..4)` and `[4..6)`. Zero+Offset encoding with zero-point 0 makes the
//! programmed levels equal the raw weights, split into a low-4b and a
//! high-4b weight slice, so every partial sum is hand-checkable:
//!
//! ```text
//! filter 0 weights  [ 1,  2, 3, 4 | 5, 6 ]      input [3, 1, 2, 0 | 5, 7]
//! filter 1 weights  [16, 32, 8, 4 | 2, 1 ]
//! tile 0 (rows 0..4): acc = (11, 96)     tile 1 (rows 4..6): acc = (67, 17)
//! merge: (78, 113) → requantize (scale 1, bias 0) → outputs [78, 113]
//! ```

use raella_arch::tile::TileSpec;
use raella_core::compiler::{CompiledLayer, SharedCompileCache};
use raella_core::engine::{finalize_vector, run_batch_at_age, run_batch_groups_at_age, RunStats};
use raella_core::model::CompiledModel;
use raella_core::shard::{LayerPlacement, ShardPlan, ShardSlice};
use raella_core::RaellaConfig;
use raella_nn::graph::Graph;
use raella_nn::matrix::{Act, InputProfile, MatrixLayer};
use raella_nn::quant::OutputQuant;
use raella_nn::tensor::Tensor;
use raella_xbar::adc::AdcSpec;
use raella_xbar::slicing::Slicing;

const WEIGHTS_F0: [u8; 6] = [1, 2, 3, 4, 5, 6];
const WEIGHTS_F1: [u8; 6] = [16, 32, 8, 4, 2, 1];
const INPUT: [Act; 6] = [3, 1, 2, 0, 5, 7];

fn golden_layer() -> MatrixLayer {
    let weights: Vec<u8> = WEIGHTS_F0.iter().chain(&WEIGHTS_F1).copied().collect();
    MatrixLayer::new(
        "golden_linear",
        2,
        6,
        weights,
        // Identity requantizer with zero-point 0: outputs are the raw
        // dot products, clamped to u8.
        OutputQuant::new(vec![1.0, 1.0], vec![0.0, 0.0], vec![0, 0]),
        InputProfile::relu_default(),
    )
    .expect("consistent layer")
}

/// 4-row crossbars (two row groups for a 6-long filter), unbounded ADC so
/// no speculation failure perturbs the hand arithmetic, Zero+Offset so
/// programmed levels equal raw weights.
fn golden_cfg() -> RaellaConfig {
    let mut cfg = RaellaConfig {
        crossbar_rows: 4,
        crossbar_cols: 8,
        search_vectors: 2,
        fixed_weight_slicing: Some(Slicing::new(&[4, 4], 8).expect("4b+4b covers 8 bits")),
        ..RaellaConfig::default()
    }
    .zero_offset();
    cfg.adc = AdcSpec::new(16, true);
    cfg
}

fn compiled() -> CompiledLayer {
    CompiledLayer::compile(&golden_layer(), &golden_cfg()).expect("compiles")
}

#[test]
fn row_groups_and_levels_fall_on_slice_boundaries() {
    let layer = compiled();
    assert_eq!(layer.group_count(), 2);
    assert_eq!(layer.group_row_range(0), 0..4);
    assert_eq!(layer.group_row_range(1), 4..6);
    assert_eq!(layer.rows_for_groups(0..2), 6);
    // 2 filters × 2 weight slices per group.
    assert_eq!(layer.columns_per_filter(), 2);
    assert_eq!(layer.columns_for_groups(0..1), 4);
    assert_eq!(layer.total_columns(), 8);
    // Zero+Offset with zero-point 0: levels are the raw weights, split
    // at the 4b slice boundary (slice 0 = high 4 bits, slice 1 = low).
    for (f, weights) in [(0, &WEIGHTS_F0), (1, &WEIGHTS_F1)] {
        for (gi, range) in [(0, 0..4), (1, 4..6)] {
            let g = &layer.groups()[f][gi];
            assert_eq!(g.center, 0, "zero-point center");
            for (r, row) in range.clone().enumerate() {
                let w = i16::from(weights[row]);
                assert_eq!(g.levels[0][r], w >> 4, "filter {f} group {gi} row {r} high");
                assert_eq!(g.levels[1][r], w & 0xF, "filter {f} group {gi} row {r} low");
            }
        }
    }
}

#[test]
fn partial_sums_match_hand_computation_and_merge_exactly() {
    let layer = compiled();

    // Tile 0: rows 0..4.  f0: 3·1+1·2+2·3+0·4 = 11;  f1: 3·16+1·32+2·8 = 96.
    let mut stats0 = RunStats::default();
    let mut acc0 = vec![0i64; 2];
    run_batch_groups_at_age(&layer, &INPUT, 0..1, &mut stats0, 7, 0, 0, &mut acc0);
    assert_eq!(acc0, vec![11, 96], "tile 0 partial accumulators");

    // Tile 1: rows 4..6.  f0: 5·5+7·6 = 67;  f1: 5·2+7·1 = 17.
    let mut stats1 = RunStats::default();
    let mut acc1 = vec![0i64; 2];
    run_batch_groups_at_age(&layer, &INPUT, 1..2, &mut stats1, 7, 0, 0, &mut acc1);
    assert_eq!(acc1, vec![67, 17], "tile 1 partial accumulators");

    // The inter-tile accumulator reduction is exact integer addition.
    let reduced: Vec<i64> = acc0.iter().zip(&acc1).map(|(a, b)| a + b).collect();
    assert_eq!(reduced, vec![78, 113]);

    // Digital tail once per vector: requantize + per-vector counters.
    let mut out = [0u8; 2];
    let fin = finalize_vector(&layer, &INPUT, &reduced, &mut out);
    assert_eq!(
        out,
        [78, 113],
        "identity requantizer passes the sums through"
    );
    assert_eq!(fin.vectors, 1);
    assert_eq!(fin.events.macs, 12, "2 filters × 6 rows");
    assert_eq!(out.to_vec(), golden_layer().reference_outputs(&INPUT));

    // The monolithic engine is exactly the merge of the two tiles.
    let mut full_stats = RunStats::default();
    let full = run_batch_at_age(&layer, &INPUT, &mut full_stats, 7, 0, 0);
    assert_eq!(full, out.to_vec());
    let mut merged = RunStats::default();
    merged.merge(&stats0);
    merged.merge(&stats1);
    merged.merge(&fin);
    assert_eq!(
        merged, full_stats,
        "group stats + finalize = monolithic stats"
    );
}

#[test]
fn per_group_adc_and_dac_events_land_on_slice_boundaries() {
    let layer = compiled();
    let mut stats0 = RunStats::default();
    let mut acc = vec![0i64; 2];
    run_batch_groups_at_age(&layer, &INPUT, 0..1, &mut stats0, 7, 0, 0, &mut acc);
    let mut stats1 = RunStats::default();
    run_batch_groups_at_age(&layer, &INPUT, 1..2, &mut stats1, 7, 0, 0, &mut acc);

    for (tile, stats) in [(0, &stats0), (1, &stats1)] {
        // ADC boundary: 2 filters × 2 weight slices = 4 columns per
        // group; each converts the three speculative input windows
        // (4b-2b-2b). The unbounded ADC never saturates, so recovery
        // never converts.
        assert_eq!(
            stats.spec_attempts, 12,
            "tile {tile}: 4 columns × 3 windows"
        );
        assert_eq!(stats.events.adc_converts, 12, "tile {tile}");
        assert_eq!(stats.spec_failures, 0, "tile {tile}: unbounded ADC");
        assert_eq!(stats.recovery_converts, 0, "tile {tile}");
        // One 11-cycle psum set per group (4b-2b-2b speculation + 8
        // recovery cycles).
        assert_eq!(stats.events.cycles, 11, "tile {tile}");
        // Group-attributed work only: the per-vector counters belong to
        // the merge point.
        assert_eq!(stats.vectors, 0, "tile {tile}");
        assert_eq!(stats.events.macs, 0, "tile {tile}");
    }

    // DAC boundary: pulses = Σ over the group's rows of (4b-2b-2b slice
    // values + recovery bit mass), × 1 crossbar (8 columns fit).
    //   rows 0..4 (x = 3,1,2,0): spec 3+1+2+0 = 6, bits 2+1+1+0 = 4 → 10
    //   rows 4..6 (x = 5,7):     spec 2+4     = 6, bits 2+3     = 5 → 11
    assert_eq!(stats0.events.dac_pulses, 10, "tile 0 DAC pulses");
    assert_eq!(stats1.events.dac_pulses, 11, "tile 1 DAC pulses");
}

/// Freezes the complete per-tile event counters for the golden layer —
/// every field of `EventCounts`, not just the slice-boundary ADC/DAC
/// checks above. Any kernel restructuring that changes how shared
/// crossbar events or device charge are counted (rather than just what
/// the accumulators hold) fails here with the exact drifted field.
///
/// Hand derivation for the non-boundary fields, 1 crossbar per group:
///
/// * row activations = rows with a nonzero value, summed over the three
///   speculative windows (4b-2b-2b) and the 8 recovery bit planes.
///   Rows 0..4 (x = 3,1,2,0): windows activate 0+0+3 rows, bit planes
///   2+1+1+0 = 4 → 7. Rows 4..6 (x = 5,7): windows 0+2+2 = 4, bit
///   planes 2+3 = 5 → 9.
/// * device charge = Σ over rows and weight slices of
///   `mass(row) · |level|`, with mass = spec slice values + bit mass.
///   Rows 0..4 masses (3+2, 1+1, 2+1, 0+0) = (5,2,3,0):
///   filter 0 levels (0,0,0,0)+(1,2,3,4) → 5+4+9 = 18; filter 1 levels
///   (1,2,0,0)+(0,0,8,4) → 5+4+24 = 33; total 51.
///   Rows 4..6 masses (2+2, 4+3) = (4,7): filter 0 levels (0,0)+(5,6)
///   → 20+42 = 62; filter 1 levels (0,0)+(2,1) → 8+7 = 15; total 77.
#[test]
fn golden_event_counts_are_frozen_per_tile() {
    use raella_xbar::crossbar::EventCounts;

    let layer = compiled();
    let mut stats0 = RunStats::default();
    let mut acc = vec![0i64; 2];
    run_batch_groups_at_age(&layer, &INPUT, 0..1, &mut stats0, 7, 0, 0, &mut acc);
    let mut stats1 = RunStats::default();
    run_batch_groups_at_age(&layer, &INPUT, 1..2, &mut stats1, 7, 0, 0, &mut acc);

    assert_eq!(
        stats0.events,
        EventCounts {
            adc_converts: 12,
            dac_pulses: 10,
            row_activations: 7,
            device_charge: 51,
            cycles: 11,
            macs: 0,
        },
        "tile 0 (rows 0..4)"
    );
    assert_eq!(
        stats1.events,
        EventCounts {
            adc_converts: 12,
            dac_pulses: 11,
            row_activations: 9,
            device_charge: 77,
            cycles: 11,
            macs: 0,
        },
        "tile 1 (rows 4..6)"
    );
    for (tile, stats) in [(0, &stats0), (1, &stats1)] {
        assert_eq!(stats.spec_attempts, 12, "tile {tile}");
        assert_eq!(stats.spec_failures, 0, "tile {tile}");
        assert_eq!(stats.recovery_converts, 0, "tile {tile}");
        assert_eq!(stats.bitserial_converts, 0, "tile {tile}");
        assert_eq!(stats.bitserial_saturations, 0, "tile {tile}");
        assert_eq!(stats.vectors, 0, "tile {tile}");
    }
}

#[test]
fn two_tile_sharded_model_reproduces_the_golden_merge() {
    // The same layer behind the whole-model front end: input [6,1,1] →
    // global-avg-pool (identity at 1×1) → golden linear.
    let mut g = Graph::new();
    let input = g.input();
    let gap = g.global_avg_pool(input);
    let fc = g.linear(gap, golden_layer());
    g.set_output(fc);
    let model = CompiledModel::compile_with_cache(&g, &golden_cfg(), &SharedCompileCache::new())
        .expect("compiles");

    let image_data: Vec<u8> = INPUT.iter().map(|&x| x as u8).collect();
    let image = Tensor::from_vec(image_data, &[6, 1, 1]).expect("consistent image");
    let baseline = model.run_batch(std::slice::from_ref(&image)).expect("runs");
    assert_eq!(baseline.outputs()[0].as_slice(), &[78, 113]);

    let plan = ShardPlan::custom(
        &model,
        2,
        TileSpec::new(4, 8),
        vec![LayerPlacement::new(vec![
            ShardSlice {
                tile: 0,
                groups: 0..1,
            },
            ShardSlice {
                tile: 1,
                groups: 1..2,
            },
        ])],
    )
    .expect("two-tile split is valid");
    let result = plan
        .run_batch(&model, std::slice::from_ref(&image))
        .expect("runs");
    assert_eq!(result.outputs(), baseline.outputs());
    assert_eq!(result.stats(), baseline.stats());

    // Tile attribution: tile 0 is the home tile (digital tail), so it
    // owns the vector/mac counters; both tiles converted their own 12
    // columns-×-windows.
    let tiles = result.tile_stats();
    assert_eq!(tiles.len(), 2);
    assert_eq!(tiles[0].events.adc_converts, 12);
    assert_eq!(tiles[1].events.adc_converts, 12);
    assert_eq!(tiles[0].vectors, 1, "home tile finalizes the vector");
    assert_eq!(tiles[1].vectors, 0);
    assert_eq!(tiles[0].events.dac_pulses, 10);
    assert_eq!(tiles[1].events.dac_pulses, 11);
}
