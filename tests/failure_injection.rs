//! Failure injection: the system must degrade gracefully — saturating
//! ADCs, extreme inputs, broken configurations, and heavy noise must
//! produce bounded errors or clean `Err`s, never panics or silent
//! corruption.

use raella::core::compiler::CompiledLayer;
use raella::core::engine::{run_batch_parallel_at_age, RunStats};
use raella::core::{CoreError, RaellaConfig};
use raella::nn::matrix::{Act, InputProfile, MatrixLayer};
use raella::nn::quant::OutputQuant;
use raella::nn::synth::SynthLayer;
use raella::xbar::adc::AdcSpec;
use raella::xbar::slicing::Slicing;

#[test]
fn tiny_adc_forces_recovery_but_not_collapse() {
    // A 4b ADC saturates constantly; recovery must keep outputs bounded.
    let layer = SynthLayer::conv(16, 8, 3, 0xFA11).build();
    let cfg = RaellaConfig {
        adc: AdcSpec::new(4, true),
        ..RaellaConfig::default()
    };
    let compiled =
        CompiledLayer::with_slicing(&layer, Slicing::uniform(1, 8), &cfg).expect("compiles");
    let inputs = layer.sample_inputs(3, 1);
    let mut stats = RunStats::default();
    let out = run_batch_parallel_at_age(&compiled, &inputs, &mut stats, 0, 0, 0);
    assert!(stats.spec_failures > 0, "4b ADC must fail speculation");
    let reference = layer.reference_outputs(&inputs);
    let mean = raella::nn::quant::mean_error_nonzero(&reference, &out);
    assert!(
        mean < 128.0,
        "even a 4b ADC must not produce garbage: {mean}"
    );
}

#[test]
fn saturating_inputs_stay_in_range() {
    // All-255 inputs: the worst-case charge the hardware can see.
    let layer = SynthLayer::linear(512, 4, 0xFA12).build();
    let cfg = RaellaConfig::default();
    let compiled = CompiledLayer::compile(&layer, &cfg).expect("compiles");
    let inputs = vec![255 as Act; 512 * 2];
    let mut stats = RunStats::default();
    let out = run_batch_parallel_at_age(&compiled, &inputs, &mut stats, 0, 0, 0);
    assert_eq!(out.len(), 8);
    // Outputs are u8 by construction; the engine must simply not panic
    // and the ADC must have been exercised at its rails.
    assert!(stats.spec_failure_rate() > 0.0, "max inputs must saturate");
}

#[test]
fn invalid_configs_error_cleanly() {
    let layer = SynthLayer::linear(32, 2, 0xFA13).build();

    let cfg = RaellaConfig {
        crossbar_rows: 0,
        ..RaellaConfig::default()
    };
    assert!(matches!(
        CompiledLayer::compile(&layer, &cfg),
        Err(CoreError::InvalidConfig(_))
    ));

    let cfg = RaellaConfig {
        error_budget: f64::INFINITY,
        ..RaellaConfig::default()
    };
    assert!(CompiledLayer::compile(&layer, &cfg).is_err());

    // A fixed slicing wider than the cells.
    let cfg = RaellaConfig {
        cell_bits: 2,
        fixed_weight_slicing: Some(Slicing::new(&[4, 4], 8).expect("valid")),
        ..RaellaConfig::default()
    };
    assert!(CompiledLayer::compile(&layer, &cfg).is_err());
}

#[test]
fn extreme_noise_degrades_but_never_panics() {
    let layer = SynthLayer::conv(8, 4, 3, 0xFA14).build();
    for level in [0.25, 0.5, 1.0] {
        let cfg = RaellaConfig {
            search_vectors: 2,
            ..RaellaConfig::default()
        }
        .with_noise(level);
        let compiled = CompiledLayer::compile(&layer, &cfg).expect("compiles");
        let report = compiled.check_fidelity_at_age(&layer, 2, 0).expect("runs");
        assert!(report.mean_abs_error.is_finite());
        // At absurd noise the search must have fallen back to narrow slices.
        assert!(
            compiled.weight_slicing().num_slices() >= 3,
            "at {level} noise got {}",
            compiled.weight_slicing()
        );
    }
}

#[test]
fn degenerate_filters_compile_and_run() {
    // All-equal weights (offsets are exactly zero everywhere).
    let quant = OutputQuant::new(vec![1.0; 2], vec![0.0; 2], vec![128; 2]);
    let layer = MatrixLayer::new(
        "constant",
        2,
        64,
        vec![128; 128],
        quant,
        InputProfile::relu_default(),
    )
    .expect("valid");
    let cfg = RaellaConfig {
        search_vectors: 2,
        ..RaellaConfig::default()
    };
    let compiled = CompiledLayer::compile(&layer, &cfg).expect("compiles");
    let report = compiled.check_fidelity_at_age(&layer, 3, 0).expect("runs");
    assert_eq!(report.mean_abs_error, 0.0, "zero offsets are exact");
}

#[test]
fn empty_and_mismatched_batches_are_rejected_loudly() {
    let layer = SynthLayer::linear(16, 2, 0xFA15).build();
    let cfg = RaellaConfig {
        search_vectors: 2,
        ..RaellaConfig::default()
    };
    let compiled = CompiledLayer::compile(&layer, &cfg).expect("compiles");
    let mut stats = RunStats::default();
    // Empty batch: zero vectors is fine (no outputs).
    let out = run_batch_parallel_at_age(&compiled, &[], &mut stats, 0, 0, 0);
    assert!(out.is_empty());
    // Mismatched batch: must panic with a clear message, not corrupt.
    let result = std::panic::catch_unwind(move || {
        let mut stats = RunStats::default();
        run_batch_parallel_at_age(&compiled, &[1, 2, 3], &mut stats, 0, 0, 0)
    });
    assert!(result.is_err(), "length mismatch must be rejected");
}
