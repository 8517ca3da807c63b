//! The `RecalibrationPolicy` surface, end to end: custom policies drive
//! the server's recalibration machinery — targeted per-layer refreshes
//! replay offline through `reprogram_to(layer_generations)`, the
//! wear-aware policy's writes are accounted per tile, a declining policy
//! leaves the generation alone, and malformed actions (survivor lists
//! keeping a failed tile, empty or out-of-range layer lists) surface as
//! errors — returned to the caller, or counted in
//! `ServerMetrics::recalibration_errors` when the watchdog triggered
//! them — instead of corrupting the live plan.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use raella_arch::tile::TileSpec;
use raella_core::compiler::SharedCompileCache;
use raella_core::model::CompiledModel;
use raella_core::server::{energy_config_ladder, Admission, RaellaServer};
use raella_core::shard::ShardPlan;
use raella_core::{
    CoreError, DeviceLifetime, RaellaConfig, RecalContext, RecalTrigger, RecalibrationAction,
    RecalibrationPolicy, RotatePolicy, RunStats,
};
use raella_nn::graph::{Graph, ValueArena};
use raella_nn::rng::SynthRng;
use raella_nn::synth::SynthLayer;
use raella_nn::tensor::Tensor;
use raella_xbar::slicing::Slicing;

/// Two compiled layers; the 150-row first layer row-splits across
/// 64-row tiles so a 3-tile plan has real slice structure.
fn graph() -> Graph {
    let mut g = Graph::new();
    let input = g.input();
    let gap = g.global_avg_pool(input);
    let fc1 = g.linear(gap, SynthLayer::linear(150, 8, 3).build());
    let fc2 = g.linear(fc1, SynthLayer::linear(8, 4, 5).build());
    g.set_output(fc2);
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

fn image(seed: u64) -> Tensor<u8> {
    let mut rng = SynthRng::new(seed);
    let data: Vec<u8> = (0..150 * 2 * 2)
        .map(|_| rng.exponential(30.0).min(255.0) as u8)
        .collect();
    Tensor::from_vec(data, &[150, 2, 2]).expect("consistent image")
}

fn builder(cfg: &RaellaConfig, cache: &SharedCompileCache) -> raella_core::ServerBuilder {
    RaellaServer::builder()
        .model(&graph(), cfg)
        .compile_cache(cache.clone())
        .workers(2)
        .max_batch(2)
        .latency_budget_ticks(0)
        .shards(3)
        .tile_spec(TileSpec::new(64, 64))
}

/// Always refreshes exactly the layers it was built with.
#[derive(Debug)]
struct RefreshLayers(Vec<usize>);

impl RecalibrationPolicy for RefreshLayers {
    fn decide(&self, _ctx: &RecalContext<'_>) -> RecalibrationAction {
        RecalibrationAction::ReprogramLayers {
            layers: self.0.clone(),
        }
    }
}

/// What the [`Observer`] policy saw at one consultation.
#[derive(Debug)]
struct Consultation {
    trigger: RecalTrigger,
    layer_count: usize,
    tile_writes: Vec<u64>,
    tile_cells: Vec<u64>,
    survivors: Vec<usize>,
    has_plan: bool,
}

/// Records every consultation and declines to act.
#[derive(Debug, Default)]
struct Observer {
    seen: Mutex<Vec<Consultation>>,
}

impl RecalibrationPolicy for Observer {
    fn decide(&self, ctx: &RecalContext<'_>) -> RecalibrationAction {
        self.seen.lock().expect("observer lock").push(Consultation {
            trigger: ctx.trigger,
            layer_count: ctx.layer_count,
            tile_writes: ctx.tile_writes.to_vec(),
            tile_cells: ctx.tile_cells.to_vec(),
            survivors: ctx.survivors(),
            has_plan: ctx.plan.is_some(),
        });
        RecalibrationAction::None
    }
}

/// Insists on keeping every tile — including failed ones.
#[derive(Debug)]
struct KeepEverything;

impl RecalibrationPolicy for KeepEverything {
    fn decide(&self, ctx: &RecalContext<'_>) -> RecalibrationAction {
        RecalibrationAction::Shrink {
            survivors: (0..ctx.tile_writes.len()).collect(),
        }
    }
}

/// Remaps every tile one over, then refreshes layer 1 alone, then
/// behaves like the default policy.
#[derive(Debug, Default)]
struct Scripted {
    calls: Mutex<usize>,
}

impl RecalibrationPolicy for Scripted {
    fn decide(&self, ctx: &RecalContext<'_>) -> RecalibrationAction {
        let mut calls = self.calls.lock().expect("script lock");
        *calls += 1;
        match *calls {
            1 => RecalibrationAction::ReprogramAll {
                map: Some(vec![1, 2, 0]),
            },
            2 => RecalibrationAction::ReprogramLayers { layers: vec![1] },
            _ => RotatePolicy.decide(ctx),
        }
    }
}

#[test]
fn ladder_variants_follow_every_recalibration_and_replay_offline() {
    // A generous error budget keeps every ladder entry eligible, so an
    // unlimited energy budget always selects the cheapest one. Programming
    // error without drift makes every generation's bytes distinct while
    // the device age stays 0.
    let budget_cfg = RaellaConfig {
        error_budget: 10.0,
        ..cfg()
    }
    .with_fixed_slicing(Slicing::uniform(2, 4))
    .with_lifetime(DeviceLifetime::new(0.15, 0.0, 0));
    let cache = SharedCompileCache::new();
    let server = builder(&budget_cfg, &cache)
        .energy_budget_pj(0, f64::MAX)
        .recalibration_policy(Scripted::default())
        .build()
        .expect("server builds");
    let ladder = energy_config_ladder(&budget_cfg);
    let variant =
        CompiledModel::compile_with_cache(&graph(), &ladder[1], &cache).expect("variant compiles");

    // Serves one image and replays it offline on the variant: bytes and
    // stats from its generations, per-tile stats under `placement`.
    let serve = |step: &str, placement: &ShardPlan| {
        let img = image(7);
        let resp = server
            .submit(0, img.clone(), Admission::Block)
            .expect("admits")
            .wait()
            .expect("served");
        assert_eq!(resp.selected_config(), 1, "{step}");
        let replay = variant
            .reprogram_to(resp.layer_generations())
            .expect("replays");
        let (out, stats) = replay
            .run_image_at_age(&img, resp.age())
            .expect("replay runs");
        assert_eq!(&out, resp.output(), "{step}");
        assert_eq!(&stats, resp.stats(), "{step}");
        let (_, tiles) = placement
            .run_image_in_at_age(&replay, &img, &mut ValueArena::new(), false, resp.age())
            .expect("placed replay runs");
        assert_eq!(tiles, resp.tile_stats(), "{step}");
        resp
    };

    let placed = ShardPlan::place(&variant, 3, TileSpec::new(64, 64)).expect("fits");
    serve("before recalibration", &placed);
    assert!(server.recalibrate(0).expect("remap applies"));
    let remapped = placed
        .remap_tiles(&variant, &[1, 2, 0], 3)
        .expect("valid map");
    serve("after the remap", &remapped);
    assert!(server.recalibrate(0).expect("refresh applies"));
    let refreshed = serve("after the refresh", &remapped);
    assert_eq!(refreshed.layer_generations(), [1, 2]);
    assert!(server.fail_tile(0, 1).expect("shrink applies"));
    let shrunk = remapped.shrink_onto(&variant, &[0, 2]).expect("survivors");
    let resp = serve("after the shrink", &shrunk);
    assert_eq!(resp.tile_stats()[1], RunStats::default());
    assert_eq!(server.metrics().shrink_recalibrations(), 1);
    server.shutdown();
}

#[test]
fn targeted_refresh_swaps_one_layer_and_replays_via_layer_generations() {
    // Drifting device stuck in epoch 0 (enormous drift interval): ages
    // advance with traffic, the targeted refresh must NOT reset them.
    let drift_cfg = cfg()
        .with_noise(0.05)
        .with_lifetime(DeviceLifetime::new(0.3, 0.5, 1_000_000));
    let cache = SharedCompileCache::new();
    let server = builder(&drift_cfg, &cache)
        .recalibration_policy(RefreshLayers(vec![0]))
        .build()
        .expect("server builds");
    let base =
        CompiledModel::compile_with_cache(&graph(), &drift_cfg, &cache).expect("base compiles");

    let pool: Vec<Tensor<u8>> = (0..3u64).map(image).collect();
    let mut log = Vec::new();
    for (i, img) in pool.iter().enumerate() {
        let resp = server
            .submit(0, img.clone(), Admission::Block)
            .expect("admits")
            .wait()
            .expect("completes");
        assert_eq!(resp.generation(), 0);
        assert_eq!(resp.layer_generations(), &[0, 0]);
        log.push((i, resp));
    }

    let age_before = server.device_age(0);
    assert!(age_before > 0, "drifting traffic must age the device");
    let writes_before = server.tile_writes(0);
    assert!(
        server.recalibrate(0).expect("manual recalibration"),
        "the policy ordered a refresh"
    );
    assert_eq!(server.generation(0), 1);
    assert_eq!(
        server.device_age(0),
        age_before,
        "a targeted refresh leaves the un-refreshed layers' age alone"
    );

    // Wear accounting: only layer 0's cells were rewritten.
    let live_model = server.model(0);
    let live_plan = server.shard_plan(0).expect("sharded");
    let expected_delta = live_plan.tile_cells_for_layers(&live_model, &[0]);
    let writes_after = server.tile_writes(0);
    for (t, (after, before)) in writes_after.iter().zip(&writes_before).enumerate() {
        assert_eq!(
            after - before,
            expected_delta[t],
            "tile {t} wear must grow by exactly layer 0's resident cells"
        );
    }

    for (i, img) in pool.iter().enumerate() {
        let resp = server
            .submit(0, img.clone(), Admission::Block)
            .expect("admits")
            .wait()
            .expect("completes");
        assert_eq!(resp.generation(), 1);
        assert_eq!(
            resp.layer_generations(),
            &[1, 0],
            "only layer 0 moved to generation 1"
        );
        log.push((i, resp));
    }
    server.shutdown();

    // Offline replay: rebuild each response's exact per-layer programming
    // from its layer-generation vector, then rerun at its device age.
    for (i, (idx, resp)) in log.iter().enumerate() {
        let reference = base
            .reprogram_to(resp.layer_generations())
            .expect("per-layer replay model");
        let (want, want_stats) = reference
            .run_image_at_age(&pool[*idx], resp.age())
            .expect("replay runs");
        assert_eq!(resp.output(), &want, "response {i} must replay bit-for-bit");
        assert_eq!(resp.stats(), &want_stats, "response {i} stats");
    }
}

#[test]
fn wear_aware_policy_accounts_full_reprogram_writes_per_tile() {
    let cache = SharedCompileCache::new();
    let server = builder(&cfg(), &cache)
        .recalibration_policy(raella_core::WearAwarePolicy::new())
        .build()
        .expect("server builds");
    let base = CompiledModel::compile_with_cache(&graph(), &cfg(), &cache).expect("base compiles");

    let img = image(7);
    let before = server
        .submit(0, img.clone(), Admission::Block)
        .expect("admits")
        .wait()
        .expect("completes");
    assert_eq!(before.generation(), 0);

    let writes_before = server.tile_writes(0);
    assert!(server.recalibrate(0).expect("manual recalibration"));
    assert_eq!(server.generation(0), 1);

    // A full wear-aware reprogram rewrites every resident cell of the
    // (possibly remapped) plan; the per-tile counters say exactly that.
    let live_model = server.model(0);
    let live_plan = server.shard_plan(0).expect("sharded");
    let delta = live_plan.tile_cells(&live_model);
    let writes_after = server.tile_writes(0);
    for (t, (after, bef)) in writes_after.iter().zip(&writes_before).enumerate() {
        assert_eq!(after - bef, delta[t], "tile {t} wear delta");
    }
    assert_eq!(server.metrics().tile_writes()[0], writes_after);

    let after = server
        .submit(0, img.clone(), Admission::Block)
        .expect("admits")
        .wait()
        .expect("completes");
    assert_eq!(after.generation(), 1);
    server.shutdown();

    // Placement is pure scheduling: both generations replay against the
    // unsharded reference regardless of where the wear map put layers.
    for resp in [&before, &after] {
        let reference = base.reprogram(resp.generation()).expect("reprograms");
        let (want, want_stats) = reference
            .run_image_at_age(&img, resp.age())
            .expect("replay runs");
        assert_eq!(resp.output(), &want);
        assert_eq!(resp.stats(), &want_stats);
    }
}

#[test]
fn declining_policy_sees_full_context_and_changes_nothing() {
    let observer = Arc::new(Observer::default());
    let cache = SharedCompileCache::new();
    let server = builder(&cfg(), &cache)
        .recalibration_policy(Arc::clone(&observer))
        .build()
        .expect("server builds");

    assert!(
        !server.recalibrate(0).expect("consultation succeeds"),
        "a declining policy must not swap"
    );
    assert_eq!(server.generation(0), 0);
    assert_eq!(server.metrics().recalibrations(), 0);

    let seen = observer.seen.lock().expect("observer lock");
    assert_eq!(seen.len(), 1, "one consultation per trigger");
    let c = &seen[0];
    assert_eq!(c.trigger, RecalTrigger::Manual);
    assert_eq!(c.layer_count, 2);
    assert_eq!(c.tile_writes.len(), 3);
    assert!(
        c.tile_writes.iter().all(|&w| w > 0),
        "build-time programming seeds the wear counters: {:?}",
        c.tile_writes
    );
    assert_eq!(c.tile_cells.len(), 3);
    assert_eq!(
        c.tile_writes, c.tile_cells,
        "no recalibration has happened yet"
    );
    assert_eq!(c.survivors, &[0, 1, 2]);
    assert!(c.has_plan);
    drop(seen);
    server.shutdown();
}

#[test]
fn malformed_actions_error_without_corrupting_the_live_plan() {
    // A survivor list that keeps the failed tile is rejected…
    let cache = SharedCompileCache::new();
    let server = builder(&cfg(), &cache)
        .recalibration_policy(KeepEverything)
        .build()
        .expect("server builds");
    let err = server.fail_tile(0, 1).expect_err("kept a failed tile");
    assert!(
        err.to_string().contains("failed tile 1"),
        "error names the kept tile: {err}"
    );
    // …and the failure stays recorded for the next (sane) consultation,
    // while the live plan is untouched.
    assert_eq!(server.failed_tiles(0), vec![1]);
    assert_eq!(server.generation(0), 0);
    let plan = server.shard_plan(0).expect("sharded");
    assert!(plan.tile_views(&server.model(0))[1].cells() > 0);
    server.shutdown();

    // Empty and out-of-range layer lists are rejected too.
    for (layers, needle) in [(vec![], "named no layers"), (vec![9], "layer 9")] {
        let cache = SharedCompileCache::new();
        let server = builder(&cfg(), &cache)
            .recalibration_policy(RefreshLayers(layers))
            .build()
            .expect("server builds");
        let err = server.recalibrate(0).expect_err("malformed layer list");
        assert!(
            err.to_string().contains(needle),
            "error explains the malformed list: {err}"
        );
        assert_eq!(server.generation(0), 0);
        server.shutdown();
    }
}

#[test]
fn rejected_watchdog_recalibrations_are_counted_while_serving_continues() {
    // A drifting device with a zero error budget breaches at every
    // watchdog sample, and the policy names a layer the model lacks, so
    // every watchdog-triggered recalibration is rejected.
    let drift_cfg = RaellaConfig {
        error_budget: 0.0,
        ..cfg()
    }
    .with_noise(0.05)
    .with_lifetime(DeviceLifetime::new(0.3, 0.5, 1_000_000));
    let cache = SharedCompileCache::new();
    // One worker runs every check in turn: a second worker's check would
    // skip while the first holds the model's recalibration guard.
    let server = builder(&drift_cfg, &cache)
        .workers(1)
        .recalibration_policy(RefreshLayers(vec![9]))
        .watchdog_interval(1)
        .build()
        .expect("server builds");

    const REQUESTS: u64 = 4;
    for seed in 0..REQUESTS {
        let resp = server
            .submit(0, image(seed), Admission::Block)
            .expect("admits")
            .wait()
            .expect("requests keep completing after rejected recalibrations");
        assert_eq!(resp.generation(), 0);
    }
    // Joining the workers lets the last completion's watchdog check land.
    server.shutdown();
    let metrics = server.metrics();
    assert_eq!(metrics.served(), &[REQUESTS]);
    assert_eq!(
        metrics.recalibration_errors(),
        REQUESTS,
        "every watchdog check's rejected action is counted"
    );
    assert_eq!(metrics.recalibrations(), 0);
    assert_eq!(server.generation(0), 0);
}

#[test]
fn fail_tile_validates_model_plan_and_tile() {
    // Unsharded servers have no tiles to fail.
    let cache = SharedCompileCache::new();
    let server = RaellaServer::builder()
        .model(&graph(), &cfg())
        .compile_cache(cache.clone())
        .workers(1)
        .build()
        .expect("unsharded server builds");
    assert!(server.fail_tile(0, 0).is_err(), "unsharded has no tiles");
    server.shutdown();

    // Out-of-range tiles are named; losing every tile is refused (the
    // last failure cannot shrink onto an empty survivor set).
    let cache = SharedCompileCache::new();
    let server = builder(&cfg(), &cache).build().expect("server builds");
    assert!(server.fail_tile(0, 99).is_err(), "tile 99 does not exist");
    assert!(server.fail_tile(0, 0).expect("first failure shrinks"));
    assert!(server.fail_tile(0, 2).expect("second failure shrinks"));
    assert_eq!(server.failed_tiles(0), vec![0, 2]);
    let views = server
        .shard_plan(0)
        .expect("sharded")
        .tile_views(&server.model(0));
    assert_eq!(views[0].cells(), 0);
    assert_eq!(views[2].cells(), 0);
    assert!(
        views[1].cells() > 0,
        "everything lives on the last survivor"
    );
    assert!(
        server.fail_tile(0, 1).is_err(),
        "no tiles left to shrink onto"
    );
    assert_eq!(server.metrics().shrink_recalibrations(), 2);
    server.shutdown();
}

/// Records each consultation's `(trigger, generation, age, breaches)`,
/// then acts like the default policy.
#[derive(Debug, Default)]
struct Recorder {
    seen: Mutex<Vec<(RecalTrigger, u64, u64, usize)>>,
}

impl RecalibrationPolicy for Recorder {
    fn decide(&self, ctx: &RecalContext<'_>) -> RecalibrationAction {
        self.seen.lock().expect("recorder lock").push((
            ctx.trigger,
            ctx.generation,
            ctx.age,
            ctx.breaches.len(),
        ));
        RotatePolicy.decide(ctx)
    }
}

#[test]
fn watchdog_decides_from_the_snapshot_it_sampled() {
    // One 64x32x32 image is 1,025 vectors (1,024 conv windows plus the
    // head), and the drift interval ends epoch 0 exactly there: after one
    // image every layer breaches, while a freshly programmed device holds
    // the budget.
    let mut g = Graph::new();
    let input = g.input();
    let conv = g
        .conv(input, SynthLayer::conv(64, 64, 3, 11).build(), 64, 3, 1, 1)
        .expect("conv wires");
    let gap = g.global_avg_pool(conv);
    let fc = g.linear(gap, SynthLayer::linear(64, 4, 13).build());
    g.set_output(fc);
    let cfg = RaellaConfig {
        search_vectors: 4,
        error_budget: 0.5,
        ..RaellaConfig::default()
    }
    .with_lifetime(DeviceLifetime::new(0.0, 2.0, 1025));
    let cache = SharedCompileCache::new();
    let model = CompiledModel::compile_with_cache(&g, &cfg, &cache).expect("compiles");
    for (mat, layer) in g.matrix_layers().into_iter().zip(model.compiled_layers()) {
        let fresh = layer.check_fidelity_at_age(mat, 1000, 0).expect("samples");
        assert!(fresh.within_budget(cfg.error_budget), "{fresh:?}");
        let aged = layer
            .check_fidelity_at_age(mat, 1000, 1025)
            .expect("samples");
        assert!(!aged.within_budget(cfg.error_budget), "{aged:?}");
    }

    let recorder = Arc::new(Recorder::default());
    let server = RaellaServer::builder()
        .model(&g, &cfg)
        .compile_cache(cache.clone())
        .workers(1)
        .watchdog_interval(1)
        .watchdog_vectors(1000)
        .recalibration_policy(Arc::clone(&recorder))
        .build()
        .expect("server builds");
    let mut rng = SynthRng::new(3);
    let data: Vec<u8> = (0..64 * 32 * 32)
        .map(|_| rng.exponential(30.0).min(255.0) as u8)
        .collect();
    let img = Tensor::from_vec(data, &[64, 32, 32]).expect("consistent image");
    server
        .submit(0, img, Admission::Block)
        .expect("admits")
        .wait()
        .expect("completes");
    // The manual swap races the watchdog check the completion started.
    while !server.recalibrate(0).expect("manual recalibration") {
        std::thread::yield_now();
    }
    server.shutdown();

    let seen = recorder.seen.lock().expect("recorder lock");
    assert!(seen.iter().any(|c| c.0 == RecalTrigger::Manual), "{seen:?}");
    for c in seen.iter().filter(|c| c.0 == RecalTrigger::Watchdog) {
        assert!(
            c.2 > 0 || c.3 == 0,
            "the watchdog decided at age 0 on breaches sampled before the swap: {seen:?}"
        );
    }
}

/// Panics on every odd-numbered consultation and reprograms everything
/// on every even-numbered one.
#[derive(Debug, Default)]
struct PanicsEveryOtherCall {
    calls: AtomicUsize,
}

impl RecalibrationPolicy for PanicsEveryOtherCall {
    fn decide(&self, _ctx: &RecalContext<'_>) -> RecalibrationAction {
        if self.calls.fetch_add(1, Ordering::SeqCst).is_multiple_of(2) {
            panic!("policy failure injected by the test");
        }
        RecalibrationAction::ReprogramAll { map: None }
    }
}

#[test]
fn a_panicking_policy_neither_wedges_the_model_nor_kills_the_worker() {
    // Same breach-at-every-sample device as above, so every watchdog
    // check consults the policy.
    let drift_cfg = RaellaConfig {
        error_budget: 0.0,
        ..cfg()
    }
    .with_noise(0.05)
    .with_lifetime(DeviceLifetime::new(0.3, 0.5, 1_000_000));
    let cache = SharedCompileCache::new();
    let server = builder(&drift_cfg, &cache)
        .workers(1)
        .recalibration_policy(PanicsEveryOtherCall::default())
        .watchdog_interval(1)
        .build()
        .expect("server builds");

    // Manual trigger: the panic is an error, and it releases the guard,
    // so the next call (which the policy answers) swaps.
    match server.recalibrate(0) {
        Err(CoreError::Server(msg)) => assert!(msg.contains("panicked"), "{msg}"),
        other => panic!("a policy panic must surface as a server error: {other:?}"),
    }
    assert_eq!(server.generation(0), 0);
    assert!(server.recalibrate(0).expect("second manual recalibration"));
    assert_eq!(server.generation(0), 1);

    // Watchdog trigger: the first completion's check panics in the one
    // worker, which must keep serving.
    for seed in 0..2 {
        let resp = server
            .submit(0, image(seed), Admission::Block)
            .expect("admits")
            .wait_timeout(Duration::from_secs(30))
            .expect("the worker survives a panicking watchdog check")
            .expect("request succeeds");
        assert_eq!(resp.sequence(), seed);
    }
    // Joining the workers lets the last completion's check land.
    server.shutdown();
    let metrics = server.metrics();
    assert_eq!(metrics.served(), &[2]);
    assert_eq!(
        metrics.recalibration_errors(),
        1,
        "the panicking watchdog check is counted"
    );
    assert_eq!(server.generation(0), 2, "the answered watchdog check swaps");
}
