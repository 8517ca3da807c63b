//! Analog noise tolerance: watch Adaptive Weight Slicing trade density for
//! correctness as crossbar noise rises (the paper's §7.2 observation that
//! the slicing search is naturally noise-aware).
//!
//! ```sh
//! cargo run --release --example noise_tolerance
//! ```

use raella::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let layer = SynthLayer::linear(512, 16, 0x0A15E).build();
    println!("layer: 512-row dot products, 16 filters\n");
    println!(
        "{:>6}  {:>12}  {:>10}  {:>12}  {:>10}",
        "noise", "slicing", "slices", "mean |err|", "spec fail"
    );
    for level in [0.0, 0.02, 0.04, 0.08, 0.12] {
        let cfg = RaellaConfig {
            search_vectors: 4,
            ..RaellaConfig::default()
        }
        .with_noise(level);
        let compiled = CompiledLayer::compile(&layer, &cfg)?;
        let report = compiled.check_fidelity_at_age(&layer, 6, 0)?;
        println!(
            "{:>5.0}%  {:>12}  {:>10}  {:>12.4}  {:>9.1}%",
            level * 100.0,
            compiled.weight_slicing().to_string(),
            compiled.weight_slicing().num_slices(),
            report.mean_abs_error,
            100.0 * report.stats.spec_failure_rate(),
        );
    }
    println!(
        "\nAs noise rises the search narrows slices (more columns, less charge\n\
         per column) to stay under the 0.09 error budget — density and energy\n\
         are traded for correctness, with no retraining anywhere."
    );
    Ok(())
}
