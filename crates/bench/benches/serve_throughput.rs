//! Serving-surface throughput baseline: requests/second and queue-latency
//! percentiles through a `RaellaServer` at several batch budgets, on the
//! mini ResNet18 model.
//!
//! Run with `cargo bench --bench serve_throughput` (or via the CI entry
//! point, `ci/bench_gate.sh serve_throughput BENCH_serve.json 2.0`).
//! Writes the measured baseline to `BENCH_serve.json` at the repository
//! root — the third CI-gated perf vector alongside `BENCH_engine.json` /
//! `BENCH_graph.json`. *Every* worker-parallel configuration (including
//! the coalescing ones, max_batch > 1) must hold a ≥2× requests/sec
//! speedup over a fully serial server on a 4-core runner — the gated
//! `speedup` is the worst config's, so a regression in the coalescing
//! path can't hide behind the no-coalescing config. The JSON records
//! per-config ratios, the worker count, and p50/p99 queue latency per
//! batch budget, plus an **overload** record: two models behind a
//! depth-bounded queue under skewed traffic (hot model spamming
//! fail-fast `submit`s, trickle model blocking ones), reporting
//! completed requests/sec and the admission rejection rate.

use std::io::Write;
use std::time::Instant;

use raella_core::server::{Admission, RaellaServer};
use raella_core::{CoreError, RaellaConfig, SharedCompileCache};
use raella_nn::models::mini::mini_resnet18;
use raella_nn::tensor::Tensor;

/// Requests per measured burst (divides evenly across the 4 workers CI
/// pins, and gives every max_batch setting several batches to coalesce).
const REQUESTS: usize = 24;
/// Measurement repetitions per configuration (best-of to shed scheduler
/// noise).
const REPS: usize = 3;

/// Submits one burst and waits for every response; returns (elapsed
/// seconds, sorted queue latencies in ticks).
fn run_burst(server: &RaellaServer, images: &[Tensor<u8>]) -> (f64, Vec<u64>) {
    let t0 = Instant::now();
    let handles = server
        .submit_many(0, images.iter().cloned())
        .expect("unbounded burst admits");
    let responses = RaellaServer::wait_all(handles).expect("requests succeed");
    let elapsed = t0.elapsed().as_secs_f64();
    let mut queue: Vec<u64> = responses.iter().map(|r| r.queue_ticks()).collect();
    queue.sort_unstable();
    (elapsed, queue)
}

/// Index of the `p`-th percentile in a sorted sample of length `n`.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    let idx = ((sorted.len() as f64 - 1.0) * p / 100.0).round() as usize;
    sorted[idx]
}

fn main() {
    let mini = mini_resnet18(0xBE);
    let cfg = RaellaConfig {
        search_vectors: 3,
        ..RaellaConfig::default()
    };
    let images: Vec<Tensor<u8>> = (0..REQUESTS)
        .map(|i| mini.sample_image(1 + i as u64))
        .collect();
    // One shared cache for the whole bench: every server build after the
    // first pays zero compiles.
    let cache = SharedCompileCache::new();
    let build = |workers: usize, max_batch: usize, budget: u64| {
        RaellaServer::builder()
            .model(&mini.graph, &cfg)
            .compile_cache(cache.clone())
            .workers(workers)
            .max_batch(max_batch)
            .latency_budget_ticks(budget)
            .build()
            .expect("mini resnet server builds")
    };

    // Serial reference: one worker, engine threads pinned to 1.
    let ambient = std::env::var("RAELLA_THREADS").ok();
    std::env::set_var("RAELLA_THREADS", "1");
    let serial_server = build(1, 8, 200);
    let serial_responses: Vec<_> = {
        let handles = serial_server
            .submit_many(0, images.iter().cloned())
            .expect("unbounded burst admits");
        RaellaServer::wait_all(handles).expect("serial burst succeeds")
    };
    // Per-request energy is deterministic (priced integer event counts),
    // so one burst prices them all — identical at any worker count.
    let mut burst_energy = raella_core::EnergyBreakdown::default();
    for resp in &serial_responses {
        burst_energy = burst_energy.add(resp.energy());
    }
    let serial_outputs: Vec<_> = serial_responses
        .into_iter()
        .map(|r| r.into_output())
        .collect();
    let mut serial_rps = 0f64;
    for _ in 0..REPS {
        let (elapsed, _) = run_burst(&serial_server, &images);
        serial_rps = serial_rps.max(REQUESTS as f64 / elapsed);
    }
    serial_server.shutdown();
    match &ambient {
        Some(v) => std::env::set_var("RAELLA_THREADS", v),
        None => std::env::remove_var("RAELLA_THREADS"),
    }

    // Parallel servers at several batch budgets, ambient worker count.
    // The gated speedup is the WORST config's, so a regression in the
    // coalescing path (max_batch > 1) fails CI even while the
    // no-coalescing config still scales.
    let mut entries = Vec::new();
    let mut best_rps = 0f64;
    let mut worst_rps = f64::INFINITY;
    for &(max_batch, budget) in &[(1usize, 0u64), (4, 200), (8, 1_000)] {
        let server = build(0, max_batch, budget);
        let workers = server.worker_count();

        // Sanity: coalesced serving must agree with the serial server
        // bit-for-bit before we time it.
        let handles = server
            .submit_many(0, images.iter().cloned())
            .expect("unbounded burst admits");
        let parallel = RaellaServer::wait_all(handles).expect("burst succeeds");
        for (i, (resp, want)) in parallel.iter().zip(&serial_outputs).enumerate() {
            assert_eq!(
                resp.output(),
                want,
                "parallel serving diverged from serial at request {i}"
            );
        }

        let mut rps = 0f64;
        let mut queue: Vec<u64> = Vec::new();
        for _ in 0..REPS {
            let (elapsed, q) = run_burst(&server, &images);
            let burst_rps = REQUESTS as f64 / elapsed;
            if burst_rps > rps {
                rps = burst_rps;
                queue = q;
            }
        }
        server.shutdown();
        best_rps = best_rps.max(rps);
        worst_rps = worst_rps.min(rps);
        let (p50, p99) = (percentile(&queue, 50.0), percentile(&queue, 99.0));
        let config_speedup = rps / serial_rps;
        println!(
            "max_batch {max_batch} budget {budget} ticks: {rps:.1} req/s (x{config_speedup:.2}), queue p50 {p50} µs p99 {p99} µs ({workers} workers)"
        );
        entries.push(format!(
            "    {{ \"max_batch\": {max_batch}, \"latency_budget_ticks\": {budget}, \"requests_per_sec\": {rps:.1}, \"speedup\": {config_speedup:.3}, \"queue_ticks\": {{ \"p50\": {p50}, \"p99\": {p99} }} }}"
        ));
    }

    // ---- overload: two models, skewed traffic, bounded queue ----
    // The second model is the same graph — the shared cache absorbs its
    // whole compile, and model identity is all the fairness policy sees.
    // Two hot submitters spam `submit(0, .., Admission::Fail)` against a
    // depth-8 queue (rejections counted, not retried) while a trickle
    // submitter pushes `submit(1, .., Admission::Block)` traffic;
    // per-model round-robin keeps the trickle lane flowing. Records
    // completed req/s and the admission rejection rate; every delivered
    // response is still asserted bit-identical to the serial server
    // first.
    const HOT_ATTEMPTS: usize = 3 * REQUESTS;
    const TRICKLE: usize = 8;
    let overload_server = RaellaServer::builder()
        .model(&mini.graph, &cfg)
        .model(&mini.graph, &cfg)
        .compile_cache(cache.clone())
        .workers(0)
        .max_batch(4)
        .latency_budget_ticks(200)
        .queue_depth(8)
        .build()
        .expect("overload server builds");
    let t0 = Instant::now();
    let (completed, rejected) = std::thread::scope(|scope| {
        let mut hot = Vec::new();
        for submitter in 0..2usize {
            let overload_server = &overload_server;
            let images = &images;
            hot.push(scope.spawn(move || {
                let mut delivered = Vec::new();
                let mut rejected = 0u64;
                for k in 0..HOT_ATTEMPTS {
                    let idx = (submitter * HOT_ATTEMPTS + k) % REQUESTS;
                    match overload_server.submit(0, images[idx].clone(), Admission::Fail) {
                        Ok(handle) => delivered.push((idx, handle)),
                        Err(CoreError::QueueFull { .. }) => rejected += 1,
                        Err(other) => panic!("unexpected admission error: {other}"),
                    }
                }
                (delivered, rejected)
            }));
        }
        let trickle = scope.spawn(|| {
            let mut delivered = Vec::new();
            for k in 0..TRICKLE {
                let idx = k % REQUESTS;
                let handle = overload_server
                    .submit(1, images[idx].clone(), Admission::Block)
                    .expect("blocking trickle submit admits");
                delivered.push((idx, handle));
            }
            delivered
        });
        let mut completed = 0usize;
        let mut rejected = 0u64;
        for submitter in hot {
            let (delivered, r) = submitter.join().expect("hot submitter survives");
            rejected += r;
            for (idx, handle) in delivered {
                let resp = handle.wait().expect("accepted hot request completes");
                assert_eq!(resp.output(), &serial_outputs[idx], "overload hot bytes");
                completed += 1;
            }
        }
        for (idx, handle) in trickle.join().expect("trickle submitter survives") {
            let resp = handle.wait().expect("trickle request completes");
            assert_eq!(
                resp.output(),
                &serial_outputs[idx],
                "overload trickle bytes"
            );
            completed += 1;
        }
        (completed, rejected)
    });
    let overload_elapsed = t0.elapsed().as_secs_f64();
    let overload_metrics = overload_server.metrics();
    assert_eq!(
        overload_metrics.rejected(),
        rejected,
        "rejection metric must match the submitters' observed QueueFull errors"
    );
    overload_server.shutdown();
    let attempts = 2 * HOT_ATTEMPTS + TRICKLE;
    let overload_rps = completed as f64 / overload_elapsed;
    let rejection_rate = rejected as f64 / attempts as f64;
    println!(
        "overload (2 models, depth-8 queue, skewed traffic): {completed}/{attempts} requests completed, {rejected} rejected ({:.1}% rate), {overload_rps:.1} req/s, queue high water {}",
        rejection_rate * 100.0,
        overload_metrics.queue_depth_high_water(),
    );

    let workers = raella_core::parallel::worker_count_for(usize::MAX, 1);
    let speedup = worst_rps / serial_rps;
    println!(
        "serial {serial_rps:.1} req/s, parallel best {best_rps:.1} / worst {worst_rps:.1} req/s, gated (worst) speedup x{speedup:.2} ({workers} workers)"
    );

    // ---- energy: the paper's headline metric, per served request ----
    // Deterministic (integer event counts priced once), so the gate
    // validates invariants — ADC fraction in (0,1), components summing
    // to the total — not machine-dependent magnitudes.
    let total_pj = burst_energy.total_pj();
    let joules_per_request = total_pj * 1e-12 / REQUESTS as f64;
    let adc_fraction = burst_energy.adc_fraction();
    println!(
        "energy: {joules_per_request:.3e} J/request, ADC fraction {:.1}% ({REQUESTS} requests, {total_pj:.1} pJ burst total)",
        adc_fraction * 100.0
    );
    let components: Vec<String> = raella_core::EnergyBreakdown::LABELS
        .iter()
        .zip(burst_energy.values())
        .map(|(label, pj)| format!("\"{label}\": {pj:.6}"))
        .collect();
    let energy_record = format!(
        "\"energy\": {{ \"requests\": {REQUESTS}, \"joules_per_request\": {joules_per_request:.6e}, \"adc_fraction\": {adc_fraction:.6}, \"total_pj\": {total_pj:.6}, \"components_pj\": {{ {} }} }}",
        components.join(", ")
    );

    let mut json = format!(
        "{{\n  \"bench\": \"serve_throughput\",\n  \"model\": \"mini_resnet18\",\n  \"requests\": {REQUESTS},\n  \"workers\": {workers},\n  \"requests_per_sec\": {{ \"serial\": {serial_rps:.1}, \"parallel_best\": {best_rps:.1}, \"parallel_worst\": {worst_rps:.1}, \"speedup\": {speedup:.3} }},\n  \"budgets\": [\n{}\n  ],\n  {energy_record},\n  \"overload\": {{ \"models\": 2, \"queue_depth\": 8, \"max_batch\": 4, \"attempts\": {attempts}, \"completed\": {completed}, \"rejected\": {rejected}, \"rejection_rate\": {rejection_rate:.3}, \"requests_per_sec\": {overload_rps:.1} }}\n}}\n",
        entries.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    // The gateway load-gen example (`examples/gateway.rs`) owns the
    // single-line `"gateway"` record in this file; preserve it across
    // our rewrite so the two writers don't clobber each other.
    if let Ok(old) = std::fs::read_to_string(path) {
        if let Some(gateway) = old
            .lines()
            .find(|l| l.trim_start().starts_with("\"gateway\":"))
        {
            let body = json
                .trim_end()
                .strip_suffix('}')
                .expect("bench JSON ends with a brace")
                .trim_end()
                .to_string();
            json = format!("{body},\n  {}\n}}\n", gateway.trim().trim_end_matches(','));
        }
    }
    let mut f = std::fs::File::create(path).expect("create BENCH_serve.json");
    f.write_all(json.as_bytes()).expect("write baseline");
    println!("baseline written to BENCH_serve.json");
}
