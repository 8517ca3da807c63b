//! Fig. 3: column-sum distribution as each RAELLA strategy is applied
//! (ResNet18-class layers).
//!
//! Paper series: baseline unsigned 4b/4b sums need up to 17b;
//! Center+Offset ≤7b 59.2% of the time; +Adaptive Weight Slicing 82.1%;
//! speculation cycles 98.0% and recovery cycles 99.9%; final ADC
//! saturation ~0.1%.

use raella_bench::{header, pct, table};
use raella_core::compiler::CompiledLayer;
use raella_core::engine::{run_batch_parallel_at_age, RunStats};
use raella_core::probe::{Probe, ProbeEncoding};
use raella_core::RaellaConfig;
use raella_nn::stats::{fraction_within_bits, max_resolution_bits, percentile};
use raella_nn::synth::SynthLayer;
use raella_xbar::slicing::Slicing;

fn main() {
    header(
        "Fig. 3: column-sum distribution per strategy (ResNet18-class layer)",
        "17b→7b; ≤7b rates: C+O 59.2%, +AWS 82.1%, spec 98.0%, recovery 99.9%; sat ~0.1%",
    );
    // A ResNet18-class long-filter layer: 512-row dot products.
    let layer = SynthLayer::linear(512, 16, 0x0318)
        .name("resnet18.layer3.conv")
        .build();
    let vectors = 8;

    let stages: Vec<(&str, Probe)> = vec![
        ("baseline: unsigned 4b w / 4b in", Probe::fig3_baseline()),
        (
            "1: +Center+Offset",
            Probe {
                encoding: ProbeEncoding::CenterOffset,
                ..Probe::fig3_baseline()
            },
        ),
        (
            "2: +Adaptive Weight Slicing",
            Probe {
                encoding: ProbeEncoding::CenterOffset,
                weight_slicing: Slicing::raella_default_weights(),
                input_slicing: Slicing::uniform(4, 2),
                rows: 512,
            },
        ),
        (
            "3: +Dynamic (speculation cycles)",
            Probe {
                encoding: ProbeEncoding::CenterOffset,
                weight_slicing: Slicing::raella_default_weights(),
                input_slicing: Slicing::raella_speculative(),
                rows: 512,
            },
        ),
        (
            "3: +Dynamic (recovery cycles)",
            Probe {
                encoding: ProbeEncoding::CenterOffset,
                weight_slicing: Slicing::raella_default_weights(),
                input_slicing: Slicing::uniform(1, 8),
                rows: 512,
            },
        ),
    ];

    let mut rows = Vec::new();
    let mut within7 = Vec::new();
    for (name, probe) in &stages {
        let sums = probe
            .column_sums(&layer, vectors, 0xF163)
            .expect("probe config is valid");
        let w7 = fraction_within_bits(&sums, 7);
        within7.push(w7);
        rows.push(vec![
            name.to_string(),
            format!("{}b", max_resolution_bits(&sums)),
            format!(
                "[{}, {}]",
                percentile(&sums, 0.5).unwrap_or(0),
                percentile(&sums, 99.5).unwrap_or(0)
            ),
            pct(w7),
        ]);
    }
    table(
        &[
            "stage",
            "max resolution",
            "p0.5–p99.5 range",
            "≤7b (ADC-exact)",
        ],
        &rows,
    );

    // Each strategy must tighten the distribution.
    assert!(
        within7.windows(2).all(|w| w[1] >= w[0] - 1e-9),
        "each stage must tighten: {within7:?}"
    );
    assert!(within7[0] < 0.5, "baseline must blow the 7b range");
    assert!(within7[4] > 0.97, "recovery cycles must be near-exact");

    // End-to-end saturation rate through the real engine (ADC in place).
    let cfg = RaellaConfig::default();
    let compiled = CompiledLayer::compile(&layer, &cfg).expect("compiles");
    let inputs = layer.sample_inputs(16, 0x000F_163E);
    let mut stats = RunStats::default();
    run_batch_parallel_at_age(&compiled, &inputs, &mut stats, 1, 0, 0);
    println!(
        "\n  engine: speculation failure rate {} (paper ~2%), residual recovery saturation {} (paper ~0.1%)",
        pct(stats.spec_failure_rate()),
        pct(stats.recovery_saturation_rate()),
    );
    assert!(stats.spec_failure_rate() < 0.25);
    assert!(stats.recovery_saturation_rate() < 0.02);
}
