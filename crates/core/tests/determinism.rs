//! Thread-count invariance: `run_batch_parallel` must be bit-identical to
//! serial `run_batch` — outputs *and* merged statistics — at every worker
//! count, in ideal and noisy modes.
//!
//! Worker count is pinned through the `RAELLA_THREADS` environment
//! variable. This file keeps a single `#[test]` so the variable is never
//! mutated concurrently (integration-test binaries are separate
//! processes, so nothing outside this file observes it either).

use raella_core::compiler::CompiledLayer;
use raella_core::engine::{run_batch_at_age, run_batch_parallel_at_age, RunStats};
use raella_core::RaellaConfig;
use raella_nn::synth::SynthLayer;
use raella_xbar::slicing::Slicing;

#[test]
fn parallel_output_is_thread_count_invariant() {
    let layer = SynthLayer::conv(16, 6, 3, 47).build();
    let cfg = RaellaConfig {
        crossbar_rows: 128,
        crossbar_cols: 128,
        ..RaellaConfig::default()
    };
    for noise in [0.0, 0.08] {
        let cfg = cfg.clone().with_noise(noise);
        let compiled = CompiledLayer::with_slicing(&layer, Slicing::raella_default_weights(), &cfg)
            .expect("compiles");
        let inputs = layer.sample_inputs(11, 5); // odd count: ragged blocks
        let mut s_serial = RunStats::default();
        let baseline = run_batch_at_age(&compiled, &inputs, &mut s_serial, 42, 0, 0);

        for threads in ["1", "2", "3", "4", "7", "16"] {
            std::env::set_var("RAELLA_THREADS", threads);
            let mut s_par = RunStats::default();
            let parallel = run_batch_parallel_at_age(&compiled, &inputs, &mut s_par, 42, 0, 0);
            assert_eq!(
                baseline, parallel,
                "outputs diverged at noise {noise}, {threads} threads"
            );
            assert_eq!(
                s_serial, s_par,
                "stats diverged at noise {noise}, {threads} threads"
            );
        }
        std::env::remove_var("RAELLA_THREADS");
    }
}
