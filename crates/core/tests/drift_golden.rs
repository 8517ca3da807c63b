//! Golden regression pin for one device-lifetime trajectory.
//!
//! Freezes a tiny hand-built model at a fixed seed and asserts the exact
//! output bytes at ages 0, K, and 2K (K = the configured drift interval),
//! plus the exact age at which `check_fidelity` first blows the error
//! budget — the crossing the serving watchdog acts on. Any change to the
//! noise substream derivation, the drift-epoch schedule, the programming
//! error draw, or the compounding math moves these values and must be an
//! intentional, reviewed break.
//!
//! The layer requantizes to mid-range on purpose: saturated outputs would
//! mask value-level divergence between ages.

use raella_core::model::CompiledModel;
use raella_core::{DeviceLifetime, RaellaConfig};
use raella_nn::graph::Graph;
use raella_nn::matrix::{InputProfile, MatrixLayer};
use raella_nn::quant::OutputQuant;
use raella_nn::tensor::Tensor;

const K: u64 = 16;
const FILTERS: usize = 4;
const ROWS: usize = 32;

/// Error budget the watchdog trajectory is pinned against. The fresh
/// generation-0 array (programming error included) sits below it; drift
/// alone pushes the layer across.
const BUDGET: f64 = 15.0;

fn golden_model() -> (Graph, CompiledModel, Tensor<u8>) {
    // Deterministic mid-magnitude weights; scale 0.004 maps the ~30k
    // accumulators into mid u8 range so drift shows up in the bytes.
    let weights: Vec<u8> = (0..FILTERS * ROWS)
        .map(|i| (i * 37 % 13 + 3) as u8)
        .collect();
    let layer = MatrixLayer::new(
        "golden_drift",
        FILTERS,
        ROWS,
        weights,
        OutputQuant::new(vec![0.004; FILTERS], vec![0.0; FILTERS], vec![0; FILTERS]),
        InputProfile::relu_default(),
    )
    .expect("consistent layer");
    let mut g = Graph::new();
    let input = g.input();
    let gap = g.global_avg_pool(input);
    let fc = g.linear(gap, layer);
    g.set_output(fc);
    let mut cfg = RaellaConfig {
        crossbar_rows: 32,
        crossbar_cols: 64,
        search_vectors: 2,
        seed: 11,
        ..RaellaConfig::default()
    }
    .with_noise(0.05)
    .with_lifetime(DeviceLifetime::new(0.4, 0.05, K));
    cfg.error_budget = BUDGET;
    let model = CompiledModel::compile(&g, &cfg).expect("golden model compiles");
    let data: Vec<u8> = (0..ROWS * 2 * 2).map(|i| (i * 7 % 251) as u8).collect();
    let image = Tensor::from_vec(data, &[ROWS, 2, 2]).expect("golden image");
    (g, model, image)
}

/// Exact output bytes at ages 0, K, 2K — three distinct drift epochs,
/// three distinct byte patterns.
#[test]
fn trajectory_outputs_are_frozen() {
    let (_g, model, image) = golden_model();
    let frozen: [(u64, [u8; 4], u64); 3] = [
        (0, [154, 180, 152, 117], 0),
        (K, [154, 180, 152, 116], 1),
        (2 * K, [154, 179, 152, 117], 2),
    ];
    for (age, want, epoch) in frozen {
        let (out, stats) = model.run_image_at_age(&image, age).expect("runs");
        assert_eq!(out.as_slice(), want, "output bytes at age {age}");
        assert_eq!(stats.drift_epoch, epoch, "drift epoch at age {age}");
    }
    // Re-running any age reproduces it bit-for-bit: age is the only clock.
    let (again, _) = model.run_image_at_age(&image, K).expect("runs");
    assert_eq!(again.as_slice(), [154, 180, 152, 116]);
}

/// Exact age at which the watchdog's fidelity sample first crosses the
/// budget, scanning epoch boundaries from a fresh array.
#[test]
fn fidelity_crossing_age_is_frozen() {
    const CROSSING_AGE: u64 = 5760;
    let (g, model, _image) = golden_model();
    let mat = g.matrix_layers()[0];
    let compiled = &model.compiled_layers()[0];
    let crossed = (0..2000)
        .map(|step| step * K)
        .find(|&age| {
            let report = compiled
                .check_fidelity_at_age(mat, 8, age)
                .expect("fidelity check runs");
            !report.within_budget(BUDGET)
        })
        .expect("drift crosses the budget inside the scan");
    assert_eq!(crossed, CROSSING_AGE, "first over-budget epoch boundary");
    let at_crossing = compiled
        .check_fidelity_at_age(mat, 8, CROSSING_AGE)
        .expect("fidelity check runs");
    assert_eq!(at_crossing.mean_abs_error, 17.9375, "error at the crossing");
    // One epoch earlier the same sample still passes: the crossing is a
    // boundary, not a plateau the scan happened to land on.
    let before = compiled
        .check_fidelity_at_age(mat, 8, CROSSING_AGE - K)
        .expect("fidelity check runs");
    assert!(
        before.within_budget(BUDGET),
        "age {} should still be within budget, got {}",
        CROSSING_AGE - K,
        before.mean_abs_error
    );
}
