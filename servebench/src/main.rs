//! End-to-end and per-layer benchmark of the served RAELLA model.
//!
//! ```sh
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
//!     --workload serve_resnet18 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one named workload against the public API, checks every output bit
//! for bit, and prints one JSON object as the last line of standard output:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` reports the per-layer metrics instead.
//! Any mismatch exits nonzero. See `README.md` beside this crate.

mod batch;
mod calibrate;
mod served;
mod stack;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: f64 = seconds.ok_or("missing --seconds")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Metric name → (value, unit), printed in name order.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }
}

/// Outcome accounting: requests or images attempted, and every failure
/// (error frames, missing responses, output or counter mismatches).
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one failed output and reports the first few.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        if self.failed < 10 {
            eprintln!("servebench: FAILED: {}", what());
        }
        self.failed += 1;
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` ascending (total order; inputs are finite).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: Vec<f64>) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// Peak resident set of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// The end-to-end metrics, reported with `--trace 0`.
const END_TO_END: [&str; 9] = [
    "setup_s",
    "images_per_s",
    "requests_per_s",
    "latency_p50_ms",
    "goodput_frac",
    "top1_agreement",
    "sim_pj_per_image",
    "sim_adc_converts_per_image",
    "peak_rss_mb",
];

/// Every per-layer metric, zeroed: each workload reports all of them and
/// fills in the layers it exercises, so a zero means "not on this
/// workload's path". The tail percentiles are here, not among the
/// end-to-end metrics: on a shared 2-core host they swing by more than any
/// usable bound from run to run, so `goodput_frac` (the share of requests
/// inside each workload's latency limit) guards the tail instead.
fn declare_per_layer(m: &mut Metrics) {
    trace::declare_layers(m, &stack::layer_names(&stack::resnet().graph));
    trace::declare_layers(m, &stack::layer_names(&stack::tiny_graph()));
    for (name, unit) in [
        ("latency_p90_ms", "ms"),
        ("latency_p99_ms", "ms"),
        ("engine.matrix_share", "ratio"),
        ("graph.digital_ns_per_image", "ns"),
        ("engine.adc_converts_per_vector", "count"),
        ("engine.spec_failure_rate", "ratio"),
        ("engine.recovery_converts_per_vector", "count"),
        ("engine.converts_per_column", "count"),
        ("compiler.compile_s", "s"),
        ("compiler.cache_misses", "count"),
        ("compiler.reprogram_ms", "ms"),
        ("energy.adc_fraction", "ratio"),
        ("energy.meter_ns_per_request", "ns"),
        ("server.queue_ms.p50", "ms"),
        ("server.queue_ms.p90", "ms"),
        ("server.compute_ms.p50", "ms"),
        ("server.compute_ms.p90", "ms"),
        ("server.worker_busy_frac", "ratio"),
        ("server.queue_depth_high_water", "count"),
        ("server.rejected", "count"),
        ("shard.tile_imbalance", "ratio"),
        ("shard.overhead_frac", "ratio"),
        ("policy.recalibrations", "count"),
        ("policy.recal_pause_ms.mean", "ms"),
        ("policy.requests_per_recal", "count"),
        ("gateway.wire_ms.p50", "ms"),
        ("gateway.wire_ms.p90", "ms"),
        ("gateway.encode_ns_per_request", "ns"),
        ("gateway.decode_ns_per_response", "ns"),
        ("gateway.bytes_per_request", "bytes"),
        ("gateway.error_frames", "count"),
        ("loadgen.lag_ms.p50", "ms"),
        ("loadgen.lag_ms.p99", "ms"),
        ("loadgen.backlog_end", "count"),
        ("trace.overhead_frac", "ratio"),
    ] {
        m.set(name, 0.0, unit);
    }
}

/// Keeps the end-to-end metrics (`--trace 0`) or the declared per-layer
/// ones (`--trace 1`); a per-layer name nobody declared is a bug.
fn select(metrics: Metrics, trace: bool, declared: usize) -> Result<Metrics, String> {
    let (e2e, per_layer): (BTreeMap<_, _>, BTreeMap<_, _>) = metrics
        .0
        .into_iter()
        .partition(|(name, _)| END_TO_END.contains(&name.as_str()));
    if !trace {
        if e2e.len() != END_TO_END.len() {
            return Err(format!("end-to-end metrics incomplete: {:?}", e2e.keys()));
        }
        return Ok(Metrics(e2e));
    }
    if per_layer.len() != declared {
        return Err(format!(
            "{} per-layer metrics reported, {declared} declared",
            per_layer.len()
        ));
    }
    Ok(Metrics(per_layer))
}

/// Writes the run's spans to `.bench_build/servebench-trace/`.
pub fn write_trace(tracer: &trace::Tracer, args: &Args) -> Result<(), String> {
    let path = std::path::PathBuf::from(format!(
        ".bench_build/servebench-trace/{}-seed{}.jsonl",
        args.workload, args.seed
    ));
    tracer
        .write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!(
        "servebench: {} spans written to {}",
        tracer.spans.len(),
        path.display()
    );
    Ok(())
}

fn json(tally: &Tally, metrics: &Metrics) -> Result<String, String> {
    let mut fields = Vec::with_capacity(metrics.0.len());
    for (name, (value, unit)) in &metrics.0 {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload <batch_resnet18|serve_resnet18|gateway_tiny> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    if args.trace {
        declare_per_layer(&mut metrics);
    }
    let declared = metrics.0.len();
    let result = match args.workload.as_str() {
        "batch_resnet18" => batch::run(&args, &mut tally, &mut metrics),
        "serve_resnet18" => served::run_resnet(&args, &mut tally, &mut metrics),
        "gateway_tiny" => served::run_tiny(&args, &mut tally, &mut metrics),
        other => Err(format!("unknown workload {other}")),
    };
    let line = result
        .and_then(|()| select(metrics, args.trace, declared))
        .and_then(|metrics| json(&tally, &metrics));
    match line {
        Ok(line) => {
            println!("{line}");
            if tally.failed == 0 && tally.attempted > 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "servebench: {} of {} outputs failed their check",
                    tally.failed, tally.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}
