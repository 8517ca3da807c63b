//! Sharded-server stress: interleaved racing submitters against a
//! two-model sharded `RaellaServer` must each see responses bit-identical
//! to submission-order `run_batch` — with and without queue bounds
//! (blocking admission under backpressure is pure scheduling) — and
//! `shutdown()` under load must drain every outstanding handle — no
//! stranded `wait()`. Fairness is pinned structurally: a saturating hot
//! model cannot starve a trickle model beyond the round-robin bound, and
//! `ServerMetrics` rejection counts match the submitters' observed
//! `QueueFull` errors exactly.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

use raella_arch::tile::TileSpec;
use raella_core::compiler::SharedCompileCache;
use raella_core::gateway::LocalPool;
use raella_core::model::CompiledModel;
use raella_core::server::{Admission, RaellaServer};
use raella_core::{CoreError, DeviceLifetime, RaellaConfig, RunStats};
use raella_nn::graph::Graph;
use raella_nn::rng::SynthRng;
use raella_nn::synth::SynthLayer;
use raella_nn::tensor::Tensor;

/// Model 0: a linear chain whose 150-long first layer row-splits across
/// 64-row tiles.
fn long_graph() -> Graph {
    let mut g = Graph::new();
    let input = g.input();
    let gap = g.global_avg_pool(input);
    let fc1 = g.linear(gap, SynthLayer::linear(150, 8, 3).build());
    let fc2 = g.linear(fc1, SynthLayer::linear(8, 4, 5).build());
    g.set_output(fc2);
    g
}

/// Model 1: a conv stem with a different input shape and output arity.
fn conv_graph() -> Graph {
    let mut g = Graph::new();
    let input = g.input();
    let c = g
        .conv(input, SynthLayer::conv(4, 6, 3, 11).build(), 4, 3, 1, 1)
        .expect("consistent conv");
    let gap = g.global_avg_pool(c);
    let fc = g.linear(gap, SynthLayer::linear(6, 5, 13).build());
    g.set_output(fc);
    g
}

fn cfg() -> RaellaConfig {
    RaellaConfig {
        crossbar_rows: 64,
        crossbar_cols: 64,
        search_vectors: 2,
        ..RaellaConfig::default()
    }
}

fn long_image(seed: u64) -> Tensor<u8> {
    let mut rng = SynthRng::new(seed);
    let data: Vec<u8> = (0..150 * 2 * 2)
        .map(|_| rng.exponential(30.0).min(255.0) as u8)
        .collect();
    Tensor::from_vec(data, &[150, 2, 2]).expect("consistent image")
}

fn conv_image(seed: u64) -> Tensor<u8> {
    let mut rng = SynthRng::new(seed ^ 0xC0C0);
    let data: Vec<u8> = (0..4 * 8 * 8)
        .map(|_| rng.exponential(35.0).min(255.0) as u8)
        .collect();
    Tensor::from_vec(data, &[4, 8, 8]).expect("consistent image")
}

fn build_sharded(
    workers: usize,
    max_batch: usize,
    budget: u64,
    queue_depth: usize,
    model_queue_depth: usize,
) -> RaellaServer {
    RaellaServer::builder()
        .model(&long_graph(), &cfg())
        .model(&conv_graph(), &cfg())
        .compile_cache(SharedCompileCache::new())
        .workers(workers)
        .max_batch(max_batch)
        .latency_budget_ticks(budget)
        .queue_depth(queue_depth)
        .model_queue_depth(model_queue_depth)
        .shards(3)
        .tile_spec(TileSpec::new(64, 64))
        .build()
        .expect("sharded two-model server builds")
}

/// Drives `server` with 4 racing submitters × 6 interleaved requests per
/// submitter (blocking admission), checking every response bit-for-bit
/// against the unsharded batch path, then verifies the server-wide
/// per-tile aggregate accounting.
fn race_and_verify(server: &RaellaServer) {
    assert!(server.shard_plan(0).expect("plan 0").split_layer_count() >= 1);

    // Per-(model, image) expectations straight from the unsharded batch
    // path of the very models the server compiled.
    const IMAGES: usize = 3;
    let long_images: Vec<Tensor<u8>> = (0..IMAGES as u64).map(long_image).collect();
    let conv_images: Vec<Tensor<u8>> = (0..IMAGES as u64).map(conv_image).collect();
    let expect_long = server.model(0).run_batch(&long_images).expect("runs");
    let expect_conv = server.model(1).run_batch(&conv_images).expect("runs");

    // Interleaved racing submitters: 4 threads × 6 requests alternating
    // models, every one checking its own response in-flight.
    std::thread::scope(|scope| {
        for submitter in 0..4usize {
            let server = &server;
            let long_images = &long_images;
            let conv_images = &conv_images;
            let expect_long = expect_long.outputs();
            let expect_conv = expect_conv.outputs();
            scope.spawn(move || {
                for round in 0..6usize {
                    let idx = (submitter + round) % IMAGES;
                    let model = (submitter + round) % 2;
                    let (image, want) = match model {
                        0 => (long_images[idx].clone(), &expect_long[idx]),
                        _ => (conv_images[idx].clone(), &expect_conv[idx]),
                    };
                    let resp = server
                        .submit(model, image, Admission::Block)
                        .expect("blocking submit admits")
                        .wait()
                        .expect("request succeeds");
                    assert_eq!(
                        resp.output(),
                        want,
                        "submitter {submitter} round {round} model {model}"
                    );
                    assert_eq!(resp.model_index(), model);
                    assert_eq!(resp.tile_stats().len(), 3, "sharded responses carry tiles");
                    let mut merged = RunStats::default();
                    for bucket in resp.tile_stats() {
                        merged.merge(bucket);
                    }
                    assert_eq!(&merged, resp.stats(), "tile buckets merge per response");
                }
            });
        }
    });

    // Aggregate accounting: each model served 12 requests of known
    // per-image stats, so the server-wide tile buckets must merge to
    // exactly 12/IMAGES × the batch totals (every image served 4 times).
    for (model, expected) in [(0, &expect_long), (1, &expect_conv)] {
        let mut want = RunStats::default();
        for _ in 0..4 {
            want.merge(expected.stats());
        }
        let buckets = server.tile_stats(model);
        assert_eq!(buckets.len(), 3);
        let mut got = RunStats::default();
        for bucket in &buckets {
            got.merge(bucket);
        }
        assert_eq!(got, want, "model {model} aggregate tile stats");
    }
}

#[test]
fn racing_submitters_get_run_batch_identical_responses() {
    let server = build_sharded(3, 2, 50, 0, 0);
    race_and_verify(&server);
    server.shutdown();
}

#[test]
fn bounded_queue_racing_blocking_submitters_stay_bit_identical() {
    // Tight global + per-model bounds: every submitter repeatedly blocks
    // for a slot, so admission control is exercised on every request —
    // and the bytes must not move. Blocking admission never rejects.
    let server = build_sharded(3, 2, 50, 3, 2);
    race_and_verify(&server);
    let metrics = server.metrics();
    assert_eq!(metrics.rejected(), 0, "blocking submits never reject");
    assert_eq!(metrics.accepted(), 24, "4 submitters × 6 requests");
    assert_eq!(metrics.served(), &[12, 12], "12 requests per model");
    assert!(
        metrics.queue_depth_high_water() <= 3,
        "global bound held: high water {}",
        metrics.queue_depth_high_water()
    );
    server.shutdown();
}

#[test]
fn hot_model_cannot_starve_trickle_model() {
    // One worker, one saturating hot model (lane capped at 4 pending),
    // one trickle model. Round-robin lane popping bounds how many hot
    // requests can execute between a trickle request's admission and its
    // completion: the in-flight batch plus at most one more popped batch
    // (the cursor visits the trickle lane in between) = 2 × max_batch —
    // asserted with one batch of snapshot slack. Rejection accounting is
    // exact: the `rejected` metric equals the QueueFull errors the hot
    // submitter observed, and every attempt either completes or is
    // rejected.
    const MAX_BATCH: usize = 2;
    const TRICKLE_ROUNDS: u64 = 5;
    let server = Arc::new(
        RaellaServer::builder()
            .model(&long_graph(), &cfg()) // model 0: hot
            .model(&conv_graph(), &cfg()) // model 1: trickle
            .compile_cache(SharedCompileCache::new())
            .workers(1)
            .max_batch(MAX_BATCH)
            .latency_budget_ticks(0)
            .model_queue_depth(4)
            .build()
            .expect("two-model server builds"),
    );
    let hot_image = long_image(0);
    let (hot_want, _) = server.model(0).run_image(&hot_image).expect("runs");
    let trickle_image = conv_image(0);
    let (trickle_want, _) = server.model(1).run_image(&trickle_image).expect("runs");

    let stop = AtomicBool::new(false);
    /// Stops the saturator however the main thread leaves the scope: a
    /// failed assertion must fail the test, not leave the scope waiting on
    /// a saturator that never stops.
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }
    std::thread::scope(|scope| {
        let saturator = scope.spawn(|| {
            let mut handles = Vec::new();
            let mut rejections = 0u64;
            let mut attempts = 0u64;
            while !stop.load(Ordering::SeqCst) {
                attempts += 1;
                match server.submit(0, hot_image.clone(), Admission::Fail) {
                    Ok(handle) => handles.push(handle),
                    Err(CoreError::QueueFull { .. }) => {
                        rejections += 1;
                        // Keep the lane full without starving the worker
                        // of the core it computes on.
                        std::thread::yield_now();
                    }
                    Err(other) => panic!("unexpected admission error: {other}"),
                }
            }
            (handles, rejections, attempts)
        });

        // Only start trickling once the hot lane has demonstrably filled,
        // so every trickle round contends with real saturation.
        while server.metrics().accepted() < 4 {
            std::thread::yield_now();
        }

        let stop_saturator = StopOnDrop(&stop);
        for round in 0..TRICKLE_ROUNDS {
            let handle = server
                .submit(1, trickle_image.clone(), Admission::Block)
                .expect("trickle blocking submit admits");
            let hot_before = server.metrics().served()[0];
            // Count hot completions when the trickle request completes,
            // on the worker's thread: counting after this thread wakes
            // would add hot requests served while it waited for a core.
            let (tx, rx) = mpsc::channel();
            let observer = Arc::clone(&server);
            handle.on_complete(move || {
                tx.send(observer.metrics().served()[0])
                    .expect("the test thread awaits the count");
            });
            // Read after admission, `hot_before` can only undercount (and
            // exceed the completion count if this thread was descheduled).
            let hot_during = rx
                .recv()
                .expect("completion fires once")
                .saturating_sub(hot_before);
            let resp = handle.wait().expect("trickle request completes");
            assert_eq!(resp.output(), &trickle_want, "round {round} bytes");
            assert!(
                hot_during <= 3 * MAX_BATCH as u64,
                "round {round}: {hot_during} hot requests served while one trickle \
                 request waited — round-robin starvation bound violated"
            );
        }

        drop(stop_saturator);
        let (hot_handles, rejections, hot_attempts) = saturator.join().expect("saturator survives");
        assert!(rejections > 0, "the hot lane must actually have overflowed");
        assert_eq!(
            server.metrics().rejected(),
            rejections,
            "rejection metric must match the submitter's observed QueueFull errors"
        );
        // Shutdown drains every accepted hot request; all of them carry
        // the same (deterministic) bytes.
        server.shutdown();
        let hot_completed = hot_handles.len() as u64;
        for (i, handle) in hot_handles.into_iter().enumerate() {
            let resp = handle.wait().expect("accepted hot request drains");
            assert_eq!(resp.output(), &hot_want, "hot request {i} bytes");
        }
        // Overload accounting balances: every hot attempt completed or
        // was rejected, and the server admitted exactly what completed.
        assert_eq!(
            hot_completed + rejections,
            hot_attempts,
            "every hot attempt completes or is rejected"
        );
        assert_eq!(
            server.metrics().accepted(),
            hot_completed + TRICKLE_ROUNDS,
            "accepted metric must match the completed hot and trickle requests"
        );
    });
}

#[test]
fn shutdown_under_load_drains_every_handle() {
    // A huge latency budget and oversized batches park everything; racing
    // waiters block on their handles while the main thread shuts down
    // mid-load. Every handle must resolve — no stranded wait().
    let server = build_sharded(2, 64, 5_000_000, 0, 0);
    let resolved = AtomicUsize::new(0);
    const PER_MODEL: usize = 6;

    let (out_long, _) = server.model(0).run_image(&long_image(0)).expect("runs");
    let (out_conv, _) = server.model(1).run_image(&conv_image(0)).expect("runs");

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for i in 0..PER_MODEL {
            handles.push((
                0usize,
                server
                    .submit(0, long_image(0), Admission::Block)
                    .expect("unbounded admits"),
                i,
            ));
            handles.push((
                1usize,
                server
                    .submit(1, conv_image(0), Admission::Block)
                    .expect("model 1 exists"),
                i,
            ));
        }
        // (No pending() assertion here: the model alternation makes
        // queue prefixes immediately poppable despite the huge budget,
        // so whether anything is still parked is a race. The contract
        // under test is drain-on-shutdown, not queue depth.)
        for (model, handle, i) in handles {
            let resolved = &resolved;
            let want = if model == 0 { &out_long } else { &out_conv };
            scope.spawn(move || {
                let resp = handle.wait().expect("drained request resolves");
                assert_eq!(resp.output(), want, "model {model} request {i}");
                resolved.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Shut down while the waiters are blocked and the queue is full.
        server.shutdown();
    });
    assert_eq!(
        resolved.load(Ordering::SeqCst),
        2 * PER_MODEL,
        "every handle must resolve after shutdown"
    );
}

#[test]
fn blocked_admissions_are_granted_in_arrival_order() {
    // PR 5's gap: blocked submitters used to re-race freed slots, so an
    // old blocked submitter could lose to a fresh one indefinitely. With
    // per-lane tickets, grants happen strictly in arrival order — which
    // this test observes through admission sequence numbers.
    //
    // Topology: queue_depth 4 < max_batch 8 and a 2 s latency budget
    // park the single worker (the lane can never fill a batch), so four
    // try_submit fillers pin the queue full. Four blocking submitters
    // are then staggered in — each launched only after the previous one
    // is observably blocked (the `blocked` metric increments under the
    // same lock that enqueues the ticket). The budget then expires, the
    // worker pops the four fillers, and the four freed slots must be
    // granted in ticket order: strictly increasing sequence numbers in
    // launch order.
    const FILLERS: usize = 4;
    const BLOCKERS: usize = 4;
    let server = RaellaServer::builder()
        .model(&conv_graph(), &cfg())
        .compile_cache(SharedCompileCache::new())
        .workers(1)
        .max_batch(8)
        .latency_budget_ticks(2_000_000)
        .queue_depth(FILLERS)
        .build()
        .expect("bounded server builds");
    let image = conv_image(0);
    let (want, _) = server.model(0).run_image(&image).expect("runs");

    let mut fillers = Vec::new();
    for _ in 0..FILLERS {
        fillers.push(
            server
                .submit(0, image.clone(), Admission::Fail)
                .expect("queue has room"),
        );
    }
    assert_eq!(server.pending(), FILLERS, "queue pinned full");

    let granted: Vec<(usize, raella_core::RequestHandle)> = std::thread::scope(|scope| {
        let mut blockers = Vec::new();
        for k in 0..BLOCKERS {
            let server = &server;
            let image = image.clone();
            blockers.push(scope.spawn(move || {
                let handle = server
                    .submit(0, image, Admission::Block)
                    .expect("blocked submit is granted");
                (k, handle)
            }));
            // Blocker k+1 may only enter admission once blocker k holds
            // its ticket — that makes "arrival order" well-defined.
            while server.metrics().blocked() < (k + 1) as u64 {
                std::thread::yield_now();
            }
        }
        blockers
            .into_iter()
            .map(|b| b.join().expect("blocker survives"))
            .collect()
    });

    for window in granted.windows(2) {
        let (ka, ref ha) = window[0];
        let (kb, ref hb) = window[1];
        assert!(
            ha.sequence() < hb.sequence(),
            "blocker {ka} (seq {}) arrived before blocker {kb} (seq {}) \
             but was granted after it — FIFO admission violated",
            ha.sequence(),
            hb.sequence()
        );
    }
    let metrics = server.metrics();
    assert_eq!(metrics.blocked(), BLOCKERS as u64);
    assert_eq!(metrics.rejected(), 0, "blocking submits never reject");

    // Drain everything; the bytes must not have moved.
    server.shutdown();
    for handle in fillers
        .into_iter()
        .chain(granted.into_iter().map(|(_, h)| h))
    {
        let resp = handle.wait().expect("accepted request drains");
        assert_eq!(resp.output(), &want);
    }
}

#[test]
fn cross_lane_blocked_admissions_grant_in_global_arrival_order() {
    // The cross-lane barging race: per-lane tickets alone order waiters
    // *within* a lane, but with a shared global bound a freed slot used
    // to go to whichever lane's front waiter won the wakeup race — a
    // later arrival in lane B could barge past an earlier arrival in
    // lane A. Grants must instead follow global arrival order across
    // lanes (tickets are minted from one server-wide counter), with a
    // waiter ceding its turn only when its own lane is full.
    //
    // Topology: two models, global bound 1, no per-model bound. One
    // filler pins the lone slot; four blocking submitters then arrive
    // strictly alternating lanes, each provably parked before the next
    // launches. As the worker drains one request per budget expiry, the
    // freed slot must be granted in exact arrival order — which crosses
    // lanes on every grant.
    const BLOCKERS: usize = 4;
    let server = RaellaServer::builder()
        .model(&long_graph(), &cfg())
        .model(&conv_graph(), &cfg())
        .compile_cache(SharedCompileCache::new())
        .workers(1)
        .max_batch(8)
        .latency_budget_ticks(2_000_000)
        .queue_depth(1)
        .build()
        .expect("two-lane bounded server builds");
    let images = [long_image(0), conv_image(0)];
    let (want_long, _) = server.model(0).run_image(&images[0]).expect("runs");
    let (want_conv, _) = server.model(1).run_image(&images[1]).expect("runs");

    let filler = server
        .submit(0, images[0].clone(), Admission::Fail)
        .expect("slot is free");
    assert_eq!(server.pending(), 1, "global bound pinned");

    let granted: Vec<(usize, usize, raella_core::RequestHandle)> = std::thread::scope(|scope| {
        let mut blockers = Vec::new();
        for k in 0..BLOCKERS {
            // Strict alternation: every consecutive pair of waiters is
            // in different lanes, so every grant decision crosses lanes.
            let model = (k + 1) % 2;
            let server = &server;
            let image = images[model].clone();
            blockers.push(scope.spawn(move || {
                let handle = server
                    .submit(model, image, Admission::Block)
                    .expect("blocked submit is granted");
                (k, model, handle)
            }));
            while server.metrics().blocked() < (k + 1) as u64 {
                std::thread::yield_now();
            }
        }
        blockers
            .into_iter()
            .map(|b| b.join().expect("blocker survives"))
            .collect()
    });

    for window in granted.windows(2) {
        let (ka, ma, ref ha) = window[0];
        let (kb, mb, ref hb) = window[1];
        assert!(
            ha.sequence() < hb.sequence(),
            "blocker {ka} (lane {ma}, seq {}) arrived before blocker {kb} \
             (lane {mb}, seq {}) but was granted after it — cross-lane FIFO \
             admission violated",
            ha.sequence(),
            hb.sequence()
        );
    }
    let metrics = server.metrics();
    assert_eq!(metrics.blocked(), BLOCKERS as u64);
    assert_eq!(metrics.rejected(), 0, "blocking submits never reject");
    assert!(
        metrics.queue_depth_high_water() <= 1,
        "global bound 1 held: high water {}",
        metrics.queue_depth_high_water()
    );

    server.shutdown();
    for (k, model, handle) in std::iter::once((usize::MAX, 0, filler)).chain(granted) {
        let resp = handle.wait().expect("accepted request drains");
        let want = if model == 0 { &want_long } else { &want_conv };
        assert_eq!(resp.output(), want, "blocker {k} bytes");
    }
}

#[test]
fn shutdown_under_load_wakes_every_pending_future() {
    // The async-racing variant of drain-on-shutdown: the same parked
    // topology, but the handles are driven as futures on a LocalPool
    // while another thread shuts the server down. Every pending future
    // must be woken exactly into a resolved state — a waker dropped by
    // shutdown would park the pool forever (the test would hang, not
    // silently pass).
    const PER_MODEL: usize = 8;
    let server = build_sharded(2, 64, 5_000_000, 0, 0);
    let (out_long, _) = server.model(0).run_image(&long_image(0)).expect("runs");
    let (out_conv, _) = server.model(1).run_image(&conv_image(0)).expect("runs");

    let mut handles = Vec::new();
    for _ in 0..PER_MODEL {
        handles.push((
            0usize,
            server
                .submit(0, long_image(0), Admission::Block)
                .expect("admits"),
        ));
        handles.push((
            1usize,
            server
                .submit(1, conv_image(0), Admission::Block)
                .expect("admits"),
        ));
    }

    let resolved = Rc::new(RefCell::new(Vec::new()));
    let mut pool = LocalPool::new();
    for (i, (model, handle)) in handles.into_iter().enumerate() {
        let resolved = Rc::clone(&resolved);
        pool.spawn(async move {
            let resp = handle.await.expect("drained request resolves");
            resolved.borrow_mut().push((i, model, resp));
        });
    }
    assert_eq!(pool.pending(), 2 * PER_MODEL);

    std::thread::scope(|scope| {
        scope.spawn(|| server.shutdown());
        pool.run();
    });

    let resolved = resolved.borrow();
    assert_eq!(
        resolved.len(),
        2 * PER_MODEL,
        "every future woke and resolved"
    );
    for (i, model, resp) in resolved.iter() {
        let want = if *model == 0 { &out_long } else { &out_conv };
        assert_eq!(resp.output(), want, "future {i} (model {model}) bytes");
    }
}

#[test]
fn watchdog_recalibrates_under_racing_load_without_stranding_requests() {
    // A fast-drifting device: the error budget is set above the fresh
    // model's fidelity error but well inside the first few drift epochs,
    // so the serving watchdog (sampling every 3rd completion) must trip
    // and live-swap a reprogrammed generation while submitters race.
    // Every response self-describes via (generation, age), so each one is
    // verified bit-for-bit against an offline replay of exactly the
    // device state that served it — no matter how the swap interleaved.
    let graph = long_graph();
    let mut drift_cfg = cfg()
        .with_noise(0.05)
        .with_lifetime(DeviceLifetime::new(0.15, 0.5, 2));
    drift_cfg.error_budget = 20.0;
    let cache = SharedCompileCache::new();
    let server = RaellaServer::builder()
        .model(&graph, &drift_cfg)
        .compile_cache(cache.clone())
        .workers(3)
        .max_batch(2)
        .latency_budget_ticks(0)
        .shards(3)
        .tile_spec(TileSpec::new(64, 64))
        .watchdog_interval(3)
        .watchdog_vectors(2)
        .build()
        .expect("drifting sharded server builds");
    // The same cache guarantees this baseline shares the server's compile
    // artifacts; reprogram() derives each later generation from it.
    let base =
        CompiledModel::compile_with_cache(&graph, &drift_cfg, &cache).expect("baseline compiles");

    const SUBMITTERS: usize = 4;
    const ROUNDS: usize = 8;
    const IMAGES: usize = 3;
    let pool: Vec<Tensor<u8>> = (0..IMAGES as u64).map(long_image).collect();

    // Race: collect (image index, response) — blocking waits mean a
    // stranded handle hangs the test rather than silently passing.
    let mut log: Vec<(usize, raella_core::Response)> = Vec::new();
    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for submitter in 0..SUBMITTERS {
            let server = &server;
            let pool = &pool;
            workers.push(scope.spawn(move || {
                let mut got = Vec::new();
                for round in 0..ROUNDS {
                    let idx = (submitter + round) % IMAGES;
                    let resp = server
                        .submit(0, pool[idx].clone(), Admission::Block)
                        .expect("unbounded submit admits")
                        .wait()
                        .expect("request succeeds");
                    got.push((idx, resp));
                }
                got
            }));
        }
        for worker in workers {
            log.extend(worker.join().expect("submitter thread completes"));
        }
    });
    assert_eq!(log.len(), SUBMITTERS * ROUNDS, "every handle resolved");

    // The first watchdog sample past age 2 is guaranteed to trip, but the
    // swap it starts runs on a worker thread and may still be
    // reprogramming when the (fast) submitters finish. No new requests →
    // no new checks, so the in-flight recalibration reaching the metrics
    // is a bounded wait, not a liveness assumption.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let m = server.metrics();
        if m.recalibrations() >= 1 && m.recalibration_pause_ticks() >= m.recalibrations() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "watchdog never finished a recalibration: {m:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    let metrics = server.metrics();
    assert_eq!(metrics.rejected(), 0, "no request was rejected by a swap");
    assert_eq!(metrics.accepted() as usize, SUBMITTERS * ROUNDS);
    assert!(
        metrics.recalibrations() >= 1,
        "the watchdog must have tripped at least once"
    );
    assert!(
        metrics.recalibration_pause_ticks() >= metrics.recalibrations(),
        "every swap pause is accounted (≥1 tick each)"
    );

    // Offline replay: generation g at age a is reprogram(g) run at age a.
    let mut generations: HashMap<u64, CompiledModel> = HashMap::new();
    for (i, (idx, resp)) in log.iter().enumerate() {
        let reference = match resp.generation() {
            0 => &base,
            g => generations
                .entry(g)
                .or_insert_with(|| base.reprogram(g).expect("reprograms")),
        };
        let (want, want_stats) = reference
            .run_image_at_age(&pool[*idx], resp.age())
            .expect("replay runs");
        assert_eq!(
            resp.output(),
            &want,
            "response {i} (generation {}, age {}) must replay bit-for-bit",
            resp.generation(),
            resp.age()
        );
        assert_eq!(resp.stats(), &want_stats, "response {i} stats");
    }
    server.shutdown();
}

#[test]
fn fault_drill_kills_a_tile_under_racing_load_with_zero_rejections() {
    // The tile-mortality drill: under 4 racing submitters, tile 1 of the
    // drifting 3-tile server is reported dead mid-serving. The default
    // policy must shrink the plan onto the survivors (a full reprogram,
    // so responses keep self-describing via (generation, age)), with
    // zero drain and zero rejections — every accepted request completes
    // and replays offline bit-for-bit.
    let graph = long_graph();
    let mut drift_cfg = cfg()
        .with_noise(0.05)
        .with_lifetime(DeviceLifetime::new(0.15, 0.5, 2));
    drift_cfg.error_budget = 20.0;
    let cache = SharedCompileCache::new();
    let server = RaellaServer::builder()
        .model(&graph, &drift_cfg)
        .compile_cache(cache.clone())
        .workers(3)
        .max_batch(2)
        .latency_budget_ticks(0)
        .shards(3)
        .tile_spec(TileSpec::new(64, 64))
        .watchdog_interval(3)
        .watchdog_vectors(2)
        .build()
        .expect("drifting sharded server builds");
    let base =
        CompiledModel::compile_with_cache(&graph, &drift_cfg, &cache).expect("baseline compiles");

    const SUBMITTERS: usize = 4;
    const ROUNDS: usize = 8;
    const IMAGES: usize = 3;
    const DEAD_TILE: usize = 1;
    let pool: Vec<Tensor<u8>> = (0..IMAGES as u64).map(long_image).collect();
    let initial_writes = server.tile_writes(0);
    assert_eq!(initial_writes.len(), 3, "one wear counter per tile");
    assert!(
        initial_writes.iter().all(|&w| w > 0),
        "build-time programming wears every tile: {initial_writes:?}"
    );

    let mut log: Vec<(usize, raella_core::Response)> = Vec::new();
    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for submitter in 0..SUBMITTERS {
            let server = &server;
            let pool = &pool;
            workers.push(scope.spawn(move || {
                let mut got = Vec::new();
                for round in 0..ROUNDS {
                    // Submitter 0 kills the tile midway through the race,
                    // retrying while a concurrent watchdog recalibration
                    // holds the guard (reporting is idempotent).
                    if submitter == 0 && round == ROUNDS / 2 {
                        loop {
                            match server.fail_tile(0, DEAD_TILE) {
                                Ok(true) => break,
                                Ok(false) => std::thread::yield_now(),
                                Err(e) => panic!("fault injection failed: {e}"),
                            }
                        }
                    }
                    let idx = (submitter + round) % IMAGES;
                    let resp = server
                        .submit(0, pool[idx].clone(), Admission::Block)
                        .expect("unbounded submit admits")
                        .wait()
                        .expect("request completes across the reroute");
                    got.push((idx, resp));
                }
                got
            }));
        }
        for worker in workers {
            log.extend(worker.join().expect("submitter thread completes"));
        }
    });
    assert_eq!(log.len(), SUBMITTERS * ROUNDS, "every handle resolved");
    server.shutdown(); // joins the workers: counters are quiescent below

    let metrics = server.metrics();
    assert_eq!(metrics.rejected(), 0, "the reroute rejected a request");
    assert_eq!(metrics.accepted() as usize, SUBMITTERS * ROUNDS);
    assert!(
        metrics.shrink_recalibrations() >= 1,
        "killing a tile must shrink the plan at least once: {metrics:?}"
    );
    assert!(metrics.recalibrations() >= metrics.shrink_recalibrations());
    assert_eq!(metrics.failed_tiles()[0], vec![DEAD_TILE]);
    assert_eq!(server.failed_tiles(0), vec![DEAD_TILE]);

    // The live plan routes around the dead tile, and the shrunk
    // placement is bit-identical to a from-scratch placement over the
    // survivors (renumbered), by `shrink_onto`'s contract.
    let live_model = server.model(0);
    let live_plan = server.shard_plan(0).expect("sharded");
    let views = live_plan.tile_views(&live_model);
    assert_eq!(views[DEAD_TILE].cells(), 0, "dead tile still holds cells");
    assert!(views[DEAD_TILE].resident_layers().is_empty());
    let scratch = raella_core::ShardPlan::place(&live_model, 2, TileSpec::new(64, 64))
        .expect("from-scratch survivor placement");
    let survivors = [0usize, 2];
    for (shrunk_pl, scratch_pl) in live_plan.placements().iter().zip(scratch.placements()) {
        for (s, f) in shrunk_pl.slices().iter().zip(scratch_pl.slices()) {
            assert_eq!(s.tile, survivors[f.tile]);
            assert_eq!(s.groups, f.groups);
        }
    }

    // Wear counters are observable via ServerMetrics and grew with the
    // recalibrations' reprogramming writes.
    let final_writes = &metrics.tile_writes()[0];
    assert_eq!(final_writes, &server.tile_writes(0));
    assert!(
        final_writes
            .iter()
            .zip(&initial_writes)
            .all(|(now, then)| now >= then),
        "wear only accumulates: {final_writes:?} vs {initial_writes:?}"
    );
    assert!(
        final_writes.iter().sum::<u64>() > initial_writes.iter().sum::<u64>(),
        "recalibrations must have written cells"
    );

    // Offline replay: every recalibration here reprograms fully, so
    // (generation, age) reconstructs each response's exact device state.
    let mut generations: HashMap<u64, CompiledModel> = HashMap::new();
    for (i, (idx, resp)) in log.iter().enumerate() {
        assert!(
            resp.layer_generations()
                .iter()
                .all(|&g| g == resp.generation()),
            "full reprograms keep layer generations uniform"
        );
        let reference = match resp.generation() {
            0 => &base,
            g => generations
                .entry(g)
                .or_insert_with(|| base.reprogram(g).expect("reprograms")),
        };
        let (want, want_stats) = reference
            .run_image_at_age(&pool[*idx], resp.age())
            .expect("replay runs");
        assert_eq!(
            resp.output(),
            &want,
            "response {i} (generation {}, age {}) must replay bit-for-bit",
            resp.generation(),
            resp.age()
        );
        assert_eq!(resp.stats(), &want_stats, "response {i} stats");
    }
}
