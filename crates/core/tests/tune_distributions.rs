//! One-off calibration harness (run with `--ignored --nocapture`):
//! finds synthetic weight/input parameters that reproduce the paper's
//! speculation failure rate (~2%) and typical 3-slice adaptive choice.

use raella_core::adaptive::find_best_slicing;
use raella_core::compiler::CompiledLayer;
use raella_core::engine::{run_batch_at_age, RunStats};
use raella_core::RaellaConfig;
use raella_nn::matrix::InputProfile;
use raella_nn::synth::SynthLayer;

#[test]
#[ignore = "manual calibration harness"]
fn tune() {
    for (b_lo, b_hi) in [(3.0, 8.0), (5.0, 10.0), (8.0, 16.0)] {
        for (mean, sparsity) in [(10.0, 0.5), (14.0, 0.45), (20.0, 0.35)] {
            let profile = InputProfile {
                mean_magnitude: mean,
                sparsity,
                signed: false,
            };
            let layer = SynthLayer::linear(512, 16, 99)
                .spread_range(b_lo, b_hi)
                .input_profile(profile)
                .build();
            let cfg = RaellaConfig {
                search_vectors: 4,
                ..RaellaConfig::default()
            };
            let found = find_best_slicing(&layer, &cfg).unwrap();
            let compiled =
                CompiledLayer::with_slicing(&layer, found.slicing.clone(), &cfg).unwrap();
            let inputs = layer.sample_inputs(8, 1);
            let mut stats = RunStats::default();
            run_batch_at_age(&compiled, &inputs, &mut stats, 0, 0, 0);
            println!(
                "b=[{b_lo},{b_hi}] in=({mean},{sparsity}): slicing={} err={:.3} specfail={:.2}% recsat={:.3}% conv/col={:.2}",
                found.slicing,
                found.error,
                100.0 * stats.spec_failure_rate(),
                100.0 * stats.recovery_saturation_rate(),
                stats.converts_per_column(),
            );
        }
    }
}
