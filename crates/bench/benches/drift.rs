//! Device-lifetime baseline: accuracy under conductance drift and the
//! serving cost of recalibration.
//!
//! Run with `cargo bench --bench drift` (or via the CI entry point,
//! `ci/bench_gate.sh drift BENCH_drift.json 250000`). Writes
//! `BENCH_drift.json` at the repository root with three records:
//!
//! * **curve** — worst-layer mean |error| (the watchdog's §4.2.1 fidelity
//!   metric) at each drift-epoch boundary from a fresh array to deep into
//!   its lifetime. CI checks the shape: a fresh device starts within the
//!   error budget and drift must eventually cross it.
//! * **recalibration** — p50/p99 wall time of a live plan-swap
//!   recalibration on a running sharded server (reprogram + rotate +
//!   install), the pause the serving path pays per watchdog trip. CI
//!   gates p99 under a ceiling on ≥4-core runners.
//! * **failure_drill** — tile mortality under load: each drill kills a
//!   tile of a fresh sharded server while racing submitters keep
//!   traffic flowing, and times the reroute (report → shrunk plan
//!   installed, contention retries included). CI checks every accepted
//!   request completed with zero rejections and at least one shrink per
//!   drill, and gates the p99 reroute pause under the same ceiling on
//!   ≥4-core runners.
//!
//! Before timing anything, aged execution is asserted bit-identical
//! between the unsharded engine and a sharded plan — the determinism
//! contract the drift tests pin, re-checked here on the bench model.

use std::io::Write;
use std::time::Instant;

use raella_arch::tile::TileSpec;
use raella_core::model::CompiledModel;
use raella_core::server::{Admission, RaellaServer};
use raella_core::{DeviceLifetime, RaellaConfig, ShardPlan, SharedCompileCache};
use raella_nn::graph::Graph;
use raella_nn::rng::SynthRng;
use raella_nn::synth::SynthLayer;
use raella_nn::tensor::Tensor;

/// Drift epochs swept for the accuracy curve (ages 0, K, … 32·K).
const CURVE_EPOCHS: u64 = 32;
/// Timed live recalibrations.
const RECALS: usize = 12;
/// Test vectors per layer for each fidelity sample.
const VECTORS: usize = 4;
/// Tile-mortality drills (each kills one tile of a fresh server).
const DRILLS: usize = 8;
/// Racing submitters per drill.
const DRILL_SUBMITTERS: usize = 2;
/// Blocking requests per submitter per drill.
const DRILL_ROUNDS: usize = 6;

fn percentile(sorted: &[u64], p: f64) -> u64 {
    let idx = ((sorted.len() as f64 - 1.0) * p / 100.0).round() as usize;
    sorted[idx]
}

fn main() {
    // The drift-test model: a row-split 150-long layer plus a small tail,
    // on a device that drifts fast enough to cross the budget inside the
    // swept window but starts (programming error included) within it.
    let mut graph = Graph::new();
    let input = graph.input();
    let gap = graph.global_avg_pool(input);
    let fc1 = graph.linear(gap, SynthLayer::linear(150, 8, 3).build());
    let fc2 = graph.linear(fc1, SynthLayer::linear(8, 4, 5).build());
    graph.set_output(fc2);
    let mut cfg = RaellaConfig {
        crossbar_rows: 64,
        crossbar_cols: 64,
        search_vectors: 2,
        ..RaellaConfig::default()
    }
    .with_noise(0.05)
    .with_lifetime(DeviceLifetime::new(0.15, 0.5, 2));
    cfg.error_budget = 20.0;
    let interval = cfg.lifetime.drift_interval;

    let cache = SharedCompileCache::new();
    let model =
        CompiledModel::compile_with_cache(&graph, &cfg, &cache).expect("bench model compiles");
    let mut rng = SynthRng::new(17);
    let data: Vec<u8> = (0..150 * 2 * 2)
        .map(|_| rng.exponential(30.0).min(255.0) as u8)
        .collect();
    let image = Tensor::from_vec(data, &[150, 2, 2]).expect("bench image");

    // Determinism sanity before timing: aged sharded execution must match
    // the aged unsharded engine bit-for-bit.
    let probe_age = 5 * interval;
    let (want, _) = model.run_image_at_age(&image, probe_age).expect("runs");
    let plan = ShardPlan::place(&model, 3, TileSpec::new(64, 64)).expect("plan fits");
    let mut arena = raella_nn::graph::ValueArena::new();
    let (sharded, _) = plan
        .run_image_in_at_age(&model, &image, &mut arena, false, probe_age)
        .expect("sharded runs");
    assert_eq!(sharded, want, "aged sharded execution diverged");

    // ---- accuracy-under-drift curve ----
    let budget = cfg.error_budget;
    let mut curve = Vec::new();
    for epoch in 0..=CURVE_EPOCHS {
        let age = epoch * interval;
        let worst = graph
            .matrix_layers()
            .into_iter()
            .zip(model.compiled_layers())
            .map(|(mat, compiled)| {
                compiled
                    .check_fidelity_at_age(mat, VECTORS, age)
                    .expect("fidelity check runs")
                    .mean_abs_error
            })
            .fold(0.0f64, f64::max);
        curve.push((age, worst, worst <= budget));
    }
    assert!(curve[0].2, "fresh device must start within budget");
    assert!(
        !curve.last().expect("curve is non-empty").2,
        "drift must cross the budget inside the swept window"
    );
    println!(
        "curve: {} epochs, fresh error {:.2}, final error {:.2} (budget {budget})",
        curve.len(),
        curve[0].1,
        curve.last().expect("curve is non-empty").1
    );

    // ---- recalibration pause on a live sharded server ----
    let server = RaellaServer::builder()
        .model(&graph, &cfg)
        .compile_cache(cache.clone())
        .workers(2)
        .max_batch(2)
        .latency_budget_ticks(0)
        .shards(3)
        .tile_spec(TileSpec::new(64, 64))
        .build()
        .expect("drift server builds");
    let mut pauses_us: Vec<u64> = Vec::new();
    for round in 0..RECALS {
        // Age the device a little between swaps so each recalibration is
        // a realistic mid-lifetime one, not a no-traffic degenerate.
        let resp = server
            .submit(0, image.clone(), Admission::Block)
            .expect("admits")
            .wait()
            .expect("request succeeds");
        assert_eq!(resp.generation(), round as u64, "one generation per swap");
        let t0 = Instant::now();
        let swapped = server.recalibrate(0).expect("recalibration succeeds");
        pauses_us.push(u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX));
        assert!(swapped, "uncontended recalibrate must swap");
    }
    assert_eq!(server.generation(0), RECALS as u64);
    let metrics = server.metrics();
    assert_eq!(metrics.recalibrations(), RECALS as u64);
    server.shutdown();
    pauses_us.sort_unstable();
    let (p50, p99) = (percentile(&pauses_us, 50.0), percentile(&pauses_us, 99.0));
    println!("recalibration pause: p50 {p50} µs, p99 {p99} µs over {RECALS} swaps");

    // ---- tile-mortality drill: reroute pause under racing load ----
    // Each drill builds a fresh sharded server (compiles are cached),
    // races blocking submitters against it, and kills tile 1 mid-stream.
    // The timed pause spans the first `fail_tile` attempt to the
    // installed shrunk plan — contention retries against a concurrent
    // swap are part of the reroute an operator waits out.
    let mut drill_pauses_us: Vec<u64> = Vec::new();
    let mut drill_completed: u64 = 0;
    let mut drill_rejected: u64 = 0;
    let mut drill_shrinks: u64 = 0;
    for _ in 0..DRILLS {
        let server = RaellaServer::builder()
            .model(&graph, &cfg)
            .compile_cache(cache.clone())
            .workers(2)
            .max_batch(2)
            .latency_budget_ticks(0)
            .shards(3)
            .tile_spec(TileSpec::new(64, 64))
            .build()
            .expect("drill server builds");
        std::thread::scope(|scope| {
            let mut workers = Vec::new();
            for _ in 0..DRILL_SUBMITTERS {
                let server = &server;
                let image = &image;
                workers.push(scope.spawn(move || {
                    for _ in 0..DRILL_ROUNDS {
                        server
                            .submit(0, image.clone(), Admission::Block)
                            .expect("unbounded submit admits")
                            .wait()
                            .expect("request completes across the reroute");
                    }
                }));
            }
            // Let traffic start, then kill the tile under it.
            server
                .submit(0, image.clone(), Admission::Block)
                .expect("admits")
                .wait()
                .expect("warm-up request completes");
            let t0 = Instant::now();
            loop {
                match server.fail_tile(0, 1) {
                    Ok(true) => break,
                    Ok(false) => std::thread::yield_now(),
                    Err(e) => panic!("fault injection failed: {e}"),
                }
            }
            drill_pauses_us.push(u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX));
            for worker in workers {
                worker.join().expect("submitter thread completes");
            }
        });
        server.shutdown();
        let metrics = server.metrics();
        assert_eq!(metrics.rejected(), 0, "the reroute rejected a request");
        assert!(metrics.shrink_recalibrations() >= 1, "no shrink happened");
        drill_completed += metrics.accepted();
        drill_rejected += metrics.rejected();
        drill_shrinks += metrics.shrink_recalibrations();
    }
    drill_pauses_us.sort_unstable();
    let (dp50, dp99) = (
        percentile(&drill_pauses_us, 50.0),
        percentile(&drill_pauses_us, 99.0),
    );
    println!(
        "failure drill: {drill_completed} completed, {drill_rejected} rejected, \
         {drill_shrinks} shrinks; reroute pause p50 {dp50} µs, p99 {dp99} µs over {DRILLS} drills"
    );

    let curve_json: Vec<String> = curve
        .iter()
        .map(|(age, err, ok)| {
            format!(
                "    {{ \"age\": {age}, \"worst_mean_abs_error\": {err:.4}, \"within_budget\": {ok} }}"
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"drift\",\n  \"error_budget\": {budget},\n  \"drift_interval\": {interval},\n  \"curve\": [\n{}\n  ],\n  \"recalibration\": {{ \"count\": {RECALS}, \"pause_us\": {{ \"p50\": {p50}, \"p99\": {p99} }} }},\n  \"failure_drill\": {{ \"drills\": {DRILLS}, \"completed\": {drill_completed}, \"rejected\": {drill_rejected}, \"shrinks\": {drill_shrinks}, \"reroute_pause_us\": {{ \"p50\": {dp50}, \"p99\": {dp99} }} }}\n}}\n",
        curve_json.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_drift.json");
    let mut f = std::fs::File::create(path).expect("create BENCH_drift.json");
    f.write_all(json.as_bytes()).expect("write baseline");
    println!("baseline written to BENCH_drift.json");
}
