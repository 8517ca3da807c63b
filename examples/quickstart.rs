//! Quickstart: compile one DNN layer for RAELLA and verify that a cheap
//! 7b ADC reads it with near-perfect fidelity.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use raella::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A synthetic conv layer with realistic weight/activation statistics:
    // 64 input channels, 32 filters, 3×3 kernels → 576-row dot products.
    let layer = SynthLayer::conv(64, 32, 3, 0xC0FFEE).build();
    println!(
        "layer: {} ({} filters × {} rows)",
        layer.name(),
        layer.filters(),
        layer.filter_len()
    );

    // The paper's standard configuration: 512×512 2T2R crossbar, 4b cells,
    // 7b signed ADC, Center+Offset, speculation, error budget 0.09.
    let cfg = RaellaConfig::default();

    // Algorithm 1: adaptive slicing search + Eq.(2) centers + programming.
    let compiled = CompiledLayer::compile(&layer, &cfg)?;
    println!(
        "compiled: weight slicing {} (search error {:.4})",
        compiled.weight_slicing(),
        compiled.search_error().unwrap_or(0.0)
    );

    // Run fresh inputs through the analog pipeline and compare against the
    // exact integer reference.
    let report = compiled.check_fidelity_at_age(&layer, 8, 0)?;
    println!(
        "fidelity: mean |error| {:.4} on {} outputs (budget {}), max error {}",
        report.mean_abs_error, report.outputs, cfg.error_budget, report.max_abs_error
    );
    println!(
        "dynamic input slicing: {:.1}% of speculations failed and were recovered; \
         {:.2}% of recovery reads still saturated (accepted)",
        100.0 * report.stats.spec_failure_rate(),
        100.0 * report.stats.recovery_saturation_rate(),
    );
    println!(
        "ADC conversions per column per psum set: {:.2} (bit-serial would be 8.00)",
        report.stats.converts_per_column()
    );
    assert!(report.within_budget(cfg.error_budget));
    println!("\nwithin the paper's 0.09 error budget — no retraining required");
    Ok(())
}
