//! Engine throughput baseline: vectors/second through the serial
//! `run_batch_at_age` and the default parallel `run_batch_parallel_at_age`
//! path (first vector 0, un-aged device), on the
//! paper's standard 512-row crossbar shape.
//!
//! Run with `cargo bench --bench engine_throughput`. Writes the measured
//! baseline to `BENCH_engine.json` at the repository root so CI and later
//! optimization PRs can diff against it. The parallel path must hold a
//! ≥2× speedup on a 4-core runner; the JSON records the observed ratio
//! and the thread count it was measured with.
//!
//! The JSON also records `single_thread_vectors_per_sec` — the ideal-mode
//! serial rate — as a first-class absolute gate: unlike the speedup
//! ratios it holds on any core count, so a single-thread kernel
//! regression can't hide behind a proportional parallel slowdown (see
//! `ci/bench_gate.sh engine_single_thread`).

use std::io::Write;

use criterion::Criterion;

use raella_core::compiler::CompiledLayer;
use raella_core::engine::{run_batch_at_age, run_batch_parallel_at_age, RunStats};
use raella_core::parallel::worker_count;
use raella_core::RaellaConfig;
use raella_nn::synth::SynthLayer;
use raella_xbar::slicing::Slicing;

/// Vectors per measured batch (amortizes thread spawn, fits in cache).
const BATCH_VECTORS: usize = 32;

struct Measured {
    name: &'static str,
    serial_vps: f64,
    parallel_vps: f64,
}

fn bench_one(c: &mut Criterion, name: &'static str, noise: f64) -> Measured {
    let layer = SynthLayer::linear(512, 32, 0xBE).build();
    let cfg = RaellaConfig::default().with_noise(noise);
    let compiled = CompiledLayer::with_slicing(&layer, Slicing::raella_default_weights(), &cfg)
        .expect("valid");
    let inputs = layer.sample_inputs(BATCH_VECTORS, 1);

    // Sanity: the two paths must agree bit-for-bit before we time them.
    let mut s1 = RunStats::default();
    let mut s2 = RunStats::default();
    assert_eq!(
        run_batch_at_age(&compiled, &inputs, &mut s1, 7, 0, 0),
        run_batch_parallel_at_age(&compiled, &inputs, &mut s2, 7, 0, 0),
        "parallel engine diverged from serial"
    );
    assert_eq!(s1, s2, "parallel stats diverged from serial");

    c.bench_function(&format!("engine_serial_{name}"), |b| {
        b.iter(|| {
            let mut stats = RunStats::default();
            run_batch_at_age(&compiled, &inputs, &mut stats, 7, 0, 0)
        })
    });
    let serial = c.last_estimate().expect("serial estimate");

    c.bench_function(&format!("engine_parallel_{name}"), |b| {
        b.iter(|| {
            let mut stats = RunStats::default();
            run_batch_parallel_at_age(&compiled, &inputs, &mut stats, 7, 0, 0)
        })
    });
    let parallel = c.last_estimate().expect("parallel estimate");

    Measured {
        name,
        serial_vps: serial.iters_per_sec * BATCH_VECTORS as f64,
        parallel_vps: parallel.iters_per_sec * BATCH_VECTORS as f64,
    }
}

fn main() {
    let mut c = Criterion::default().sample_size(10);
    let runs = [
        bench_one(&mut c, "ideal", 0.0),
        bench_one(&mut c, "noisy", 0.04),
    ];
    let threads = worker_count(BATCH_VECTORS);

    let mut json = String::from("{\n  \"bench\": \"engine_throughput\",\n");
    json.push_str(&format!(
        "  \"layer\": \"fc512x32\",\n  \"batch_vectors\": {BATCH_VECTORS},\n  \"threads\": {threads},\n"
    ));
    // Ideal-mode serial rate, gated as an absolute floor on any runner.
    json.push_str(&format!(
        "  \"single_thread_vectors_per_sec\": {:.1},\n",
        runs[0].serial_vps
    ));
    json.push_str("  \"modes\": {\n");
    for (i, m) in runs.iter().enumerate() {
        let speedup = m.parallel_vps / m.serial_vps;
        println!(
            "{}: serial {:.1} vec/s, parallel {:.1} vec/s, speedup x{speedup:.2} ({threads} threads)",
            m.name, m.serial_vps, m.parallel_vps
        );
        json.push_str(&format!(
            "    \"{}\": {{ \"serial_vectors_per_sec\": {:.1}, \"parallel_vectors_per_sec\": {:.1}, \"speedup\": {:.3} }}{}\n",
            m.name,
            m.serial_vps,
            m.parallel_vps,
            speedup,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    let mut f = std::fs::File::create(path).expect("create BENCH_engine.json");
    f.write_all(json.as_bytes()).expect("write baseline");
    println!("baseline written to BENCH_engine.json");
}
