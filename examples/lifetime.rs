//! Serving through a device lifetime: drift, the fidelity watchdog, and
//! live plan-swap recalibration.
//!
//! Compiles a small model onto a *drifting* device (`DeviceLifetime`:
//! programming error at write, conductance relaxation growing with served
//! vectors), shows fidelity decaying across drift epochs, then serves the
//! model through a sharded `RaellaServer` with the watchdog enabled and
//! watches it live-swap a reprogrammed generation onto rotated tiles —
//! without rejecting or stranding a single in-flight request. Every
//! response self-describes via `(generation, age)`, so responses replay
//! offline, bit-for-bit. The example closes with a mortality drill: a
//! tile is reported dead via `fail_tile`, the recalibration policy
//! shrinks the plan onto the survivors (zero drain, zero rejections),
//! and the post-failure response still replays exactly.
//!
//! ```sh
//! cargo run --release --example lifetime
//! ```

use raella::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 150-row layer (split across 64-row tiles) plus a small tail, on a
    // device that ages fast enough to watch: one drift epoch every 2
    // served vectors, programming error at every (re)write.
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

    let cache = SharedCompileCache::new();
    let model = CompiledModel::compile_with_cache(&graph, &cfg, &cache)?;

    // Fidelity decays as the array serves vectors: the watchdog's view.
    println!(
        "fidelity across drift epochs (error budget {}):",
        cfg.error_budget
    );
    let mats = graph.matrix_layers();
    for age in [0u64, 2, 6, 12, 24, 48] {
        let worst = mats
            .iter()
            .zip(model.compiled_layers())
            .map(|(mat, compiled)| {
                Ok::<f64, CoreError>(compiled.check_fidelity_at_age(mat, 4, age)?.mean_abs_error)
            })
            .try_fold(0.0f64, |acc, e| e.map(|v| acc.max(v)))?;
        println!(
            "  age {age:>2} (epoch {}): worst layer mean |error| {worst:>6.2} {}",
            cfg.lifetime.drift_epoch(age),
            if worst <= cfg.error_budget {
                "ok"
            } else {
                "OVER BUDGET"
            }
        );
    }

    // Serve through the lifetime: the watchdog samples fidelity every 3rd
    // completed request and live-swaps a freshly reprogrammed generation
    // onto rotated tiles when drift crosses the budget.
    let server = RaellaServer::builder()
        .model(&graph, &cfg)
        .compile_cache(cache.clone())
        .workers(2)
        .max_batch(2)
        .latency_budget_ticks(0)
        .shards(3)
        .tile_spec(TileSpec::new(64, 64))
        .watchdog_interval(3)
        .watchdog_vectors(4)
        .build()?;

    let mut rng = SynthRng::new(17);
    let data: Vec<u8> = (0..150 * 2 * 2)
        .map(|_| rng.exponential(30.0).min(255.0) as u8)
        .collect();
    let image = Tensor::from_vec(data, &[150, 2, 2])?;

    let mut responses = Vec::new();
    for i in 0..24usize {
        let resp = server.submit(0, image.clone(), Admission::Block)?.wait()?;
        if i % 6 == 0 || resp.generation() != responses.last().map_or(0, |(g, _)| *g) {
            println!(
                "  request {i:>2}: generation {} age {:>2} -> {:?}",
                resp.generation(),
                resp.age(),
                resp.output().as_slice()
            );
        }
        responses.push((resp.generation(), resp));
    }
    let metrics = server.metrics();
    println!(
        "served {} requests, {} rejected, {} recalibration(s), {} µs total swap pause",
        metrics.accepted(),
        metrics.rejected(),
        metrics.recalibrations(),
        metrics.recalibration_pause_ticks(),
    );

    // Responses are reproducible offline from their (generation, age)
    // stamp alone: reprogram to that generation, run at that age.
    let (gen, last) = responses.last().expect("served at least one request");
    let replay = model.reprogram(*gen)?;
    let (bytes, _) = replay.run_image_at_age(&image, last.age())?;
    assert_eq!(
        last.output(),
        &bytes,
        "offline replay must be bit-identical"
    );
    println!(
        "offline replay of the last response (generation {gen}, age {}) matches bit-for-bit",
        last.age()
    );

    // Tiles die. Report the failure and the recalibration policy shrinks
    // the plan onto the surviving tiles — no drain, no rejections, and
    // the shrunk placement is bit-identical to placing on the survivors
    // from scratch, so (generation, age) replay keeps working.
    let dead_tile = 1;
    while !server.fail_tile(0, dead_tile)? {
        std::thread::yield_now(); // a concurrent watchdog swap holds the guard
    }
    let resp = server.submit(0, image.clone(), Admission::Block)?.wait()?;
    let views = server
        .shard_plan(0)
        .expect("the server is sharded")
        .tile_views(&server.model(0));
    println!(
        "tile {dead_tile} died: plan shrunk onto survivors (generation {}), \
         dead tile holds {} cells, {} shrink recalibration(s), 0 rejections",
        resp.generation(),
        views[dead_tile].cells(),
        server.metrics().shrink_recalibrations(),
    );
    let replay = model.reprogram(resp.generation())?;
    let (bytes, _) = replay.run_image_at_age(&image, resp.age())?;
    assert_eq!(
        resp.output(),
        &bytes,
        "post-failure replay must be bit-identical"
    );
    println!(
        "per-tile programming wear after the drill: {:?}",
        server.tile_writes(0)
    );
    server.shutdown();
    Ok(())
}
