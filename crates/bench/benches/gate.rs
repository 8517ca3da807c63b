//! The simulator's perf gate: every timing bound CI holds, measured and
//! asserted in one binary. Each check prints one line with its
//! measurement beside its bound; a breach panics, so the bench exits
//! nonzero. Nothing is written to disk.
//!
//! ```sh
//! cargo bench -p raella-bench --bench gate
//! ```
//!
//! * **Compile ceiling** (any core count): median wall-clock compile of
//!   mini_resnet18 through a fresh compile cache — Eq. (2) centers and
//!   Algorithm 1's slicing search for every layer — `RAELLA_THREADS`
//!   unset so the host's own core count decides.
//! * **Single-thread ceiling** (any core count): median wall-clock
//!   ms/image of mini_resnet18 on an ideal device, one thread, no
//!   vector fan-out — the shape servebench's `batch_resnet18` serves.
//! * **Speedup floors** (enforced on ≥4 cores, printed everywhere): the
//!   worst configuration of each parallel path against its serial run —
//!   engine (fc512×32, ideal and noisy) ≥ 2×, graph (image fan-out) ≥ 2×,
//!   server (three batch budgets) ≥ 2×, sharding (2 and 4 tiles against
//!   one) ≥ 1.01×. Fewer cores oversubscribe the worker count, so the
//!   floors cannot be reached there.
//! * **Fan-out ceiling** (any core count): what a lone server worker's
//!   vector fan-out adds to the one-vector tiny model, as the ratio of
//!   median call times with and without it, `RAELLA_THREADS` unset.
//! * **Gateway ceiling** (any core count, unix): median wall-clock
//!   round trip of one tiny request through [`GatewayClient`] → one IO
//!   thread → a one-worker server and back, sequential and closed-loop,
//!   so it is all wake-up and delivery latency.
//! * **Pause ceiling** (any core count): the server's own
//!   [`ServerMetrics::recalibration_pause_ticks`], totalled over 12 live
//!   recalibrations and over the tile-kill drill, each ≤ 250 ms. A total
//!   under the bound holds every single pause under it.
//!
//! Output bytes, statistics and admission accounting are pinned by the
//! test suites (`determinism`, `model_determinism`, `shard_determinism`,
//! `server_stress`, …), not here.
//!
//! [`ServerMetrics::recalibration_pause_ticks`]: raella_core::ServerMetrics::recalibration_pause_ticks
//! [`GatewayClient`]: raella_core::GatewayClient

use std::hint::black_box;
use std::time::{Duration, Instant};

use raella_arch::tile::TileSpec;
use raella_core::engine::{run_batch_at_age, run_batch_parallel_at_age, RunStats};
use raella_core::model::CompiledModel;
use raella_core::server::{Admission, RaellaServer, ServerMetrics, TICK};
use raella_core::shard::ShardPlan;
use raella_core::{CompiledLayer, DeviceLifetime, RaellaConfig, SharedCompileCache};
use raella_nn::graph::{Graph, ValueArena};
use raella_nn::models::mini::mini_resnet18;
use raella_nn::rng::SynthRng;
use raella_nn::synth::SynthLayer;
use raella_nn::tensor::Tensor;
use raella_xbar::slicing::Slicing;

/// Compile ceiling: 3× the median of 25 runs of this measurement on a
/// shared 2-vCPU x86-64 host with AVX2. Solving Eq. (2) once per slicing with claimed fan-out
/// chunks read medians of 14.9–24.2 ms (median of the 25: 16.7 ms); 25
/// runs of a per-filter center scan over static blocks, interleaved with
/// those, read 33.3–61.6 ms (median 36.3 ms), two of them over 50 ms.
const COMPILE_CEILING: Duration = Duration::from_millis(50);
/// Fresh-cache compiles timed for the compile ceiling.
const COMPILES: usize = 25;
/// Single-thread mini_resnet18 ceiling per image: 3× the median of 25
/// gate runs on a shared 2-vCPU x86-64 host with AVX2, and never raised.
/// The lane-wide, AVX2-dispatched kernel's runs, spread over slow and
/// fast phases of the host, measured medians of 2.25–5.47 ms/image
/// (median of the 25: 3.14 ms), which set 9.4 ms. With ideal-device
/// recovery summed lane-wide from the compacted rows, 25 runs measured
/// 1.99–3.96 ms/image (median 3.18 ms) in a slower phase of the host,
/// where 25 interleaved runs of the previous kernel read a median of
/// 4.36 ms; 3× is 9.54 ms, so the ceiling stays at 9.4 ms.
const SINGLE_THREAD_CEILING: Duration = Duration::from_micros(9_400);
/// Images (and rounds over them) timed for the single-thread ceiling.
const SINGLE_THREAD_IMAGES: usize = 16;
const SINGLE_THREAD_ROUNDS: usize = 3;
/// Gateway round-trip ceiling: 3× the median of 25 gate runs on a
/// shared 2-vCPU x86-64 host, where IO threads waiting in `poll(2)`
/// measured medians of 33–89 µs (median of the 25: 68.3 µs). IO threads
/// that parked up to 500 µs between sweeps read 645–753 µs in 25 runs
/// interleaved with those, so the ceiling fails on them. With the core
/// count looked up once per process, 25 runs read 49.6–73.5 µs (median
/// 67.4 µs, 3× = 202 µs), against 80.6–117.4 µs (median 103.7 µs) for
/// a lookup on every layer call, interleaved.
const GATEWAY_CEILING: Duration = Duration::from_micros(202);
/// Untimed and timed sequential round trips for the gateway ceiling.
const GATEWAY_WARMUP: usize = 50;
const GATEWAY_ROUND_TRIPS: usize = 500;
/// Lone-worker fan-out ceiling on the tiny model: fanned ÷ serial
/// median call time. On a shared 2-vCPU x86-64 host, 25 gate runs read
/// x1.00–x1.03 (median x1.01, serial medians 1.3–2.7 µs); looking up
/// the core count on every layer call read x11.4–x13.2 in 25 runs
/// interleaved with those (28.9–29.9 µs fanned, interquartile), so the
/// ceiling fails on it.
const FAN_OUT_CEILING: f64 = 1.5;
/// Untimed and timed calls of each mode for the fan-out ceiling.
const FAN_OUT_WARMUP: usize = 200;
const FAN_OUT_CALLS: usize = 2_000;
/// Cores below which the speedup floors are printed but not enforced.
const SPEEDUP_CORES: usize = 4;
/// Ceiling on each total recalibration pause.
const PAUSE_CEILING: Duration = Duration::from_millis(250);
/// Live recalibrations totalled by the pause ceiling.
const RECALS: usize = 12;
/// Tile-kill drills (each kills one tile of a fresh server), racing
/// submitters per drill, and blocking requests per submitter.
const DRILLS: usize = 8;
const DRILL_SUBMITTERS: usize = 2;
const DRILL_ROUNDS: usize = 6;

/// Wall time of one call of `work`, in seconds.
fn secs(work: impl FnOnce()) -> f64 {
    let t = Instant::now();
    work();
    t.elapsed().as_secs_f64()
}

/// Shortest wall time of `reps` calls of `work`, in seconds.
fn best_secs(reps: usize, mut work: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| secs(&mut work))
        .fold(f64::INFINITY, f64::min)
}

/// Median of `times` (seconds), sorting them in place.
fn median(times: &mut [f64]) -> Duration {
    times.sort_by(f64::total_cmp);
    Duration::from_secs_f64(times[times.len() / 2])
}

/// Prints a speedup against its floor; asserts it on runners with at
/// least [`SPEEDUP_CORES`] cores.
fn speedup_floor(name: &str, speedup: f64, floor: f64) {
    let cores = raella_core::parallel::cores();
    let enforced = cores >= SPEEDUP_CORES;
    println!(
        "{name}: worst speedup x{speedup:.2} (floor x{floor:.2}, {cores} cores{})",
        if enforced { "" } else { ", not enforced" }
    );
    if enforced {
        assert!(
            speedup >= floor,
            "{name} speedup regressed: x{speedup:.2} < x{floor:.2}"
        );
    }
}

/// Prints a measurement against its ceiling and asserts it.
fn ceiling(name: &str, measured: Duration, bound: Duration) {
    println!("{name}: {measured:.2?} (ceiling {bound:.2?})");
    assert!(
        measured <= bound,
        "{name} regressed: {measured:.2?} > {bound:.2?}"
    );
}

/// Median wall-clock compile of `graph` under `cfg`, each through a fresh
/// [`SharedCompileCache`] so every layer is searched and solved.
fn compile_ceiling(graph: &Graph, cfg: &RaellaConfig) {
    let ambient = std::env::var("RAELLA_THREADS").ok();
    std::env::remove_var("RAELLA_THREADS");
    let mut times: Vec<f64> = (0..COMPILES)
        .map(|_| {
            let cache = SharedCompileCache::new();
            secs(|| {
                let model = CompiledModel::compile_with_cache(graph, cfg, &cache);
                black_box(model.expect("mini resnet compiles"));
            })
        })
        .collect();
    if let Some(v) = ambient {
        std::env::set_var("RAELLA_THREADS", v);
    }
    let name = format!("compile mini_resnet18, median of {COMPILES}");
    ceiling(&name, median(&mut times), COMPILE_CEILING);
}

/// Median single-image time of `model` on one thread, no vector fan-out.
fn single_thread_ceiling(model: &CompiledModel, images: &[Tensor<u8>]) {
    let mut arena = ValueArena::new();
    let mut run = |image: &Tensor<u8>| {
        let out = model.run_image_in(image, &mut arena, false);
        black_box(out.expect("image runs"));
    };
    run(&images[0]);
    let mut times: Vec<f64> = (0..SINGLE_THREAD_ROUNDS)
        .flat_map(|_| images)
        .map(|image| secs(|| run(image)))
        .collect();
    let name = format!("single-thread mini_resnet18, median of {}", times.len());
    ceiling(&name, median(&mut times), SINGLE_THREAD_CEILING);
}

/// Vector fan-out inside one layer: fc512×32, 32 vectors, ideal and
/// noisy device.
fn engine_floor() {
    let layer = SynthLayer::linear(512, 32, 0xBE).build();
    let inputs = layer.sample_inputs(32, 1);
    let worst = [0.0, 0.04]
        .into_iter()
        .map(|noise| {
            let cfg = RaellaConfig::default().with_noise(noise);
            let compiled =
                CompiledLayer::with_slicing(&layer, Slicing::raella_default_weights(), &cfg)
                    .expect("valid layer");
            let mut stats = RunStats::default();
            let serial = best_secs(50, || {
                black_box(run_batch_at_age(&compiled, &inputs, &mut stats, 7, 0, 0));
            });
            let parallel = best_secs(50, || {
                black_box(run_batch_parallel_at_age(
                    &compiled, &inputs, &mut stats, 7, 0, 0,
                ));
            });
            serial / parallel
        })
        .fold(f64::INFINITY, f64::min);
    speedup_floor("engine fc512x32", worst, 2.0);
}

/// Image fan-out through `model`: the serial walk against `run_batch`.
fn graph_floor(model: &CompiledModel, images: &[Tensor<u8>]) {
    let mut arena = ValueArena::new();
    let serial = best_secs(3, || {
        for image in images {
            black_box(model.run_image_in(image, &mut arena, false).expect("runs"));
        }
    });
    let parallel = best_secs(3, || {
        black_box(model.run_batch(images).expect("batch runs"));
    });
    speedup_floor("graph mini_resnet18", serial / parallel, 2.0);
}

/// Requests through a `RaellaServer`: a one-worker server against
/// ambient-worker servers at three batch budgets, every build served
/// from `cache`.
fn serve_floor(
    graph: &Graph,
    cfg: &RaellaConfig,
    cache: &SharedCompileCache,
    images: &[Tensor<u8>],
) {
    let burst_secs = |workers: usize, max_batch: usize, budget: u64| {
        let server = RaellaServer::builder()
            .model(graph, cfg)
            .compile_cache(cache.clone())
            .workers(workers)
            .max_batch(max_batch)
            .latency_budget_ticks(budget)
            .build()
            .expect("mini resnet server builds");
        let secs = best_secs(3, || {
            let handles = server
                .submit_many(0, images.iter().cloned())
                .expect("unbounded burst admits");
            RaellaServer::wait_all(handles).expect("burst succeeds");
        });
        server.shutdown();
        secs
    };
    // A lone busy worker fans vectors out across RAELLA_THREADS engine
    // threads, and the builder has no argument to stop it: the serial
    // server pins the variable for its own lifetime only.
    let ambient = std::env::var("RAELLA_THREADS").ok();
    std::env::set_var("RAELLA_THREADS", "1");
    let serial = burst_secs(1, 8, 200);
    match &ambient {
        Some(v) => std::env::set_var("RAELLA_THREADS", v),
        None => std::env::remove_var("RAELLA_THREADS"),
    }
    let worst = [(1usize, 0u64), (4, 200), (8, 1_000)]
        .into_iter()
        .map(|(max_batch, budget)| serial / burst_secs(0, max_batch, budget))
        .fold(f64::INFINITY, f64::min);
    speedup_floor("serve mini_resnet18", worst, 2.0);
}

/// Per-tile workers of a row-split conv: 2 and 4 tiles against one, one
/// image worker, so the tiles are the only parallelism (the one unsplit
/// layer sees a single vector per image, too few to fan out).
fn shard_floor() {
    const TILE_ROWS: usize = 144;
    // 64 in-channels × 3×3 = 576-long filters: exactly four 144-row
    // groups, one per slice, over 8×8 maps (64 vectors/image).
    let mut graph = Graph::new();
    let input = graph.input();
    let conv = graph
        .conv(
            input,
            SynthLayer::conv(64, 16, 3, 0xA7).build(),
            64,
            3,
            1,
            1,
        )
        .expect("consistent conv");
    let gap = graph.global_avg_pool(conv);
    let fc = graph.linear(gap, SynthLayer::linear(16, 8, 0xB3).build());
    graph.set_output(fc);
    let cfg = RaellaConfig {
        crossbar_rows: TILE_ROWS,
        crossbar_cols: 256,
        search_vectors: 2,
        ..RaellaConfig::default()
    };
    let mut rng = SynthRng::new(0x5AD);
    let images: Vec<Tensor<u8>> = (0..6)
        .map(|_| {
            let data = (0..64 * 8 * 8)
                .map(|_| rng.exponential(35.0).min(255.0) as u8)
                .collect();
            Tensor::from_vec(data, &[64, 8, 8]).expect("consistent image")
        })
        .collect();
    let model = CompiledModel::compile(&graph, &cfg).expect("compiles");
    let mut secs = Vec::new();
    for tiles in [1, 2, 4] {
        let plan =
            ShardPlan::place(&model, tiles, TileSpec::new(TILE_ROWS, 256)).expect("plan fits");
        secs.push(best_secs(3, || {
            black_box(
                plan.run_batch_threaded(&model, &images, 1)
                    .expect("sharded runs"),
            );
        }));
    }
    let worst = secs[1..]
        .iter()
        .map(|s| secs[0] / s)
        .fold(f64::INFINITY, f64::min);
    speedup_floor("shard 2/4 tiles", worst, 1.01);
}

/// The tiny served model, `gap → linear(2→3)`, its config and one
/// 2-input image.
fn tiny_model() -> (Graph, RaellaConfig, Tensor<u8>) {
    let mut graph = Graph::new();
    let input = graph.input();
    let gap = graph.global_avg_pool(input);
    let fc = graph.linear(gap, SynthLayer::linear(2, 3, 7).build());
    graph.set_output(fc);
    let cfg = RaellaConfig {
        crossbar_rows: 64,
        crossbar_cols: 64,
        search_vectors: 2,
        ..RaellaConfig::default()
    };
    let image = Tensor::from_vec(vec![9, 23], &[2, 1, 1]).expect("consistent image");
    (graph, cfg, image)
}

/// What a lone server worker adds to the tiny model by enabling vector
/// fan-out: the median of `run_image_in(.., true)` over the median of
/// `run_image_in(.., false)`, interleaved call by call, with
/// `RAELLA_THREADS` unset so the host's own core count decides.
fn fan_out_ceiling() {
    let (graph, cfg, image) = tiny_model();
    let model = CompiledModel::compile(&graph, &cfg).expect("tiny model compiles");
    let mut arena = ValueArena::new();
    let mut run = |parallel: bool| {
        secs(|| {
            black_box(
                model
                    .run_image_in(&image, &mut arena, parallel)
                    .expect("runs"),
            );
        })
    };
    let ambient = std::env::var("RAELLA_THREADS").ok();
    std::env::remove_var("RAELLA_THREADS");
    (0..FAN_OUT_WARMUP).for_each(|i| {
        run(i % 2 == 0);
    });
    let (mut fanned, mut serial): (Vec<f64>, Vec<f64>) =
        (0..FAN_OUT_CALLS).map(|_| (run(true), run(false))).unzip();
    if let Some(v) = ambient {
        std::env::set_var("RAELLA_THREADS", v);
    }
    let (fanned, serial) = (median(&mut fanned), median(&mut serial));
    let ratio = fanned.as_secs_f64() / serial.as_secs_f64();
    println!(
        "lone-worker fan-out, tiny model, median of {FAN_OUT_CALLS}: \
         {fanned:.2?} against {serial:.2?} serial, x{ratio:.2} (ceiling x{FAN_OUT_CEILING:.2})"
    );
    assert!(
        ratio <= FAN_OUT_CEILING,
        "lone-worker fan-out overhead regressed: x{ratio:.2} > x{FAN_OUT_CEILING:.2}"
    );
}

/// Sequential round trips of a 2-input, 1-layer model through the
/// gateway: one client, one IO thread, one worker, no batching wait.
#[cfg(unix)]
fn gateway_ceiling() {
    use raella_core::{Gateway, GatewayClient};
    use std::sync::Arc;

    let (graph, cfg, image) = tiny_model();
    let server = Arc::new(
        RaellaServer::builder()
            .model(&graph, &cfg)
            .workers(1)
            .latency_budget_ticks(0)
            .build()
            .expect("tiny server builds"),
    );
    let gateway = Gateway::builder(Arc::clone(&server))
        .io_threads(1)
        .bind("127.0.0.1:0")
        .expect("gateway binds");
    let mut client = GatewayClient::connect(gateway.local_addr()).expect("client connects");
    let mut round_trip = |tag: usize| {
        client.send(tag as u64, 0, &image).expect("request sends");
        let resp = client.recv().expect("response arrives");
        resp.result.expect("request served");
    };
    (0..GATEWAY_WARMUP).for_each(&mut round_trip);
    let mut times: Vec<f64> = (0..GATEWAY_ROUND_TRIPS)
        .map(|tag| secs(|| round_trip(tag)))
        .collect();
    gateway.shutdown();
    server.shutdown();
    let name = format!("gateway round trip, median of {}", times.len());
    ceiling(&name, median(&mut times), GATEWAY_CEILING);
}

/// Total recalibration pause the server itself metered.
fn pause(metrics: &ServerMetrics) -> Duration {
    TICK * u32::try_from(metrics.recalibration_pause_ticks()).unwrap_or(u32::MAX)
}

/// Live recalibrations and tile-kill drills on a drifting 3-tile server.
fn pause_ceiling() {
    // A row-split 150-long layer plus a small tail on a noisy, aging
    // device: every swap reprograms a realistic mid-lifetime array.
    let mut graph = Graph::new();
    let input = graph.input();
    let gap = graph.global_avg_pool(input);
    let fc1 = graph.linear(gap, SynthLayer::linear(150, 8, 3).build());
    let fc2 = graph.linear(fc1, SynthLayer::linear(8, 4, 5).build());
    graph.set_output(fc2);
    let cfg = RaellaConfig {
        crossbar_rows: 64,
        crossbar_cols: 64,
        search_vectors: 2,
        ..RaellaConfig::default()
    }
    .with_noise(0.05)
    .with_lifetime(DeviceLifetime::new(0.15, 0.5, 2));
    let mut rng = SynthRng::new(17);
    let data = (0..150 * 2 * 2)
        .map(|_| rng.exponential(30.0).min(255.0) as u8)
        .collect();
    let image = Tensor::from_vec(data, &[150, 2, 2]).expect("consistent image");
    let cache = SharedCompileCache::new();
    let server = || {
        RaellaServer::builder()
            .model(&graph, &cfg)
            .compile_cache(cache.clone())
            .workers(2)
            .max_batch(2)
            .latency_budget_ticks(0)
            .shards(3)
            .tile_spec(TileSpec::new(64, 64))
            .build()
            .expect("drift server builds")
    };
    let serve_one = |server: &RaellaServer| {
        server
            .submit(0, image.clone(), Admission::Block)
            .expect("unbounded submit admits")
            .wait()
            .expect("request completes");
    };

    let live = server();
    for _ in 0..RECALS {
        // Serve between swaps so each one reprograms an aged device.
        serve_one(&live);
        assert!(live.recalibrate(0).expect("recalibration succeeds"));
    }
    live.shutdown();
    ceiling(
        &format!("recalibration pause, {RECALS} swaps"),
        pause(&live.metrics()),
        PAUSE_CEILING,
    );

    let mut drill_pause = Duration::ZERO;
    for _ in 0..DRILLS {
        let drilled = server();
        std::thread::scope(|scope| {
            for _ in 0..DRILL_SUBMITTERS {
                scope.spawn(|| (0..DRILL_ROUNDS).for_each(|_| serve_one(&drilled)));
            }
            // Let traffic start, then kill tile 1 under it.
            serve_one(&drilled);
            while !drilled.fail_tile(0, 1).expect("fault injection succeeds") {
                std::thread::yield_now();
            }
        });
        drilled.shutdown();
        drill_pause += pause(&drilled.metrics());
    }
    ceiling(
        &format!("tile-kill reroute pause, {DRILLS} drills"),
        drill_pause,
        PAUSE_CEILING,
    );
}

fn main() {
    // The served model on an ideal device, compiled once: the server
    // builds below find every layer in the cache.
    let mini = mini_resnet18(0xBE);
    let cfg = RaellaConfig::default();
    let cache = SharedCompileCache::new();
    let model =
        CompiledModel::compile_with_cache(&mini.graph, &cfg, &cache).expect("mini resnet compiles");
    let images: Vec<Tensor<u8>> = (0..24).map(|i| mini.sample_image(1 + i)).collect();

    compile_ceiling(&mini.graph, &cfg);
    single_thread_ceiling(&model, &images[..SINGLE_THREAD_IMAGES]);
    engine_floor();
    graph_floor(&model, &images[..8]);
    serve_floor(&mini.graph, &cfg, &cache, &images);
    shard_floor();
    fan_out_ceiling();
    #[cfg(unix)]
    gateway_ceiling();
    pause_ceiling();
}
