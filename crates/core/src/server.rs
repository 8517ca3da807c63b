//! The serving front door: [`RaellaServer`], a coalescing request queue
//! over one or more [`CompiledModel`]s.
//!
//! The paper evaluates whole DNNs served end-to-end on the accelerator —
//! "hand me images, get predictions" — not hand-fed static batches. This
//! module is that contract: a [`ServerBuilder`] compiles the model(s)
//! through the process-wide [`SharedCompileCache`] and spawns a pool of
//! worker threads fed by a multi-producer submission queue;
//! [`RaellaServer::submit`] enqueues one image and returns a typed
//! [`RequestHandle`] for the [`Response`] (output tensor, predicted
//! class, per-request [`RunStats`], queue/compute timing).
//!
//! # Completion delivery
//!
//! Each request's result travels through a notification cell, not a
//! parked thread: the worker completes the cell once, firing whatever
//! waker the handle registered. On top of that one primitive the handle
//! offers blocking ([`RequestHandle::wait`] /
//! [`RequestHandle::wait_timeout`]), polling
//! ([`RequestHandle::try_wait`]), a `Wake`-style callback
//! ([`RequestHandle::on_complete`]), and a runtime-agnostic
//! [`std::future::Future`] impl — `handle.await` works on any executor
//! (see [`crate::gateway`] for a dependency-free one and a socket front
//! end multiplexing thousands of in-flight handles from a few OS
//! threads). Holding 10k requests in flight costs 10k cells, zero
//! threads.
//!
//! # Coalescing
//!
//! Pending requests are coalesced into batches before execution: a worker
//! takes up to [`ServerBuilder::max_batch`] consecutive requests from one
//! model's lane, but only once the batch is *ready* — it is full, the
//! oldest request has waited its latency budget
//! ([`ServerBuilder::latency_budget_ticks`], one tick = 1 µs), another
//! model also has pending work (take what is there and move on), or the
//! server is shutting down. Small budgets favor latency; large budgets let
//! sparse traffic accumulate into bigger batches.
//!
//! # Backpressure and fairness
//!
//! The queue is optionally depth-bounded, server-wide
//! ([`ServerBuilder::queue_depth`]) and per model
//! ([`ServerBuilder::model_queue_depth`]); both default to unbounded.
//! [`RaellaServer::submit`] then takes one of three [`Admission`] modes,
//! all drain-safe under [`RaellaServer::shutdown`]:
//!
//! * [`Admission::Block`] **blocks** until a slot frees (it errors
//!   instead of enqueueing if shutdown begins while it waits);
//! * [`Admission::Fail`] **fails fast** with [`CoreError::QueueFull`];
//! * [`Admission::Deadline`] blocks up to a deadline, then fails with
//!   [`CoreError::QueueFull`].
//!
//! A rejected submission is never enqueued — there is no handle to leak
//! and nothing for shutdown to drain. [`RaellaServer::submit_many`] is
//! all-or-nothing: it reserves every slot under one lock acquisition and
//! enqueues the whole stream contiguously, or rejects the entire call
//! without enqueueing anything.
//!
//! Fairness: each model has its own FIFO lane and workers pop lanes
//! **round-robin** (a shared cursor advances past a model each time a
//! batch is taken from it), so a hot model can saturate its lane without
//! starving the others — between any two batches of the hot model, every
//! other model with pending work gets a turn, bounding its wait to one
//! in-flight batch plus one `max_batch` batch per competing model.
//! [`RaellaServer::metrics`] snapshots the queue and admission counters
//! ([`ServerMetrics`]) so the policy is observable and testable.
//!
//! # Determinism contract
//!
//! Coalescing, bounding, and fairness never change results. Every image
//! executes against its own noise-stream state, derived from the model's
//! configuration alone (see [`crate::model`]) — never from the request's
//! queue position, the batch it was coalesced into, or the worker that ran
//! it. Consequently a response's output tensor and [`RunStats`] are
//! bit-identical to [`CompiledModel::run_batch`] over the same images in
//! submission order (and to per-image [`CompiledModel::run_image`]), at
//! any worker count, `max_batch`, latency budget, queue bound, and
//! submission interleaving — pinned by
//! `crates/core/tests/model_determinism.rs`. Timing fields are measured
//! wall clock and are the only non-deterministic part of a [`Response`].
//!
//! # Device lifetime
//!
//! When a model's [`RaellaConfig::lifetime`] drifts, the server tracks a
//! per-model **device age** — served vectors since the crossbars were
//! last programmed. Each request is stamped with the age at admission
//! (in lane order, so ages are deterministic for a given submission
//! order) and executes at that age; its [`Response`] reports the age and
//! the programming **generation** of the model snapshot that served it,
//! making every response reproducible offline as "generation `g` at age
//! `a`".
//!
//! A **fidelity watchdog** ([`ServerBuilder::watchdog_interval`])
//! samples [`crate::compiler::CompiledLayer::check_fidelity_at_age`]
//! every N served requests; when drift pushes a layer past the config's
//! error budget the server **recalibrates**: it reprograms the model
//! (fresh programming-error draw, next generation), rotates the shard
//! plan one tile over (layers land on spare/fresh crossbars — the same
//! entry point reroutes around a failed tile), installs both atomically
//! between batches, and resets the model's age to zero. In-flight and
//! queued requests are never dropped or rejected by a swap — requests
//! admitted before it simply run against the snapshot their batch
//! observes, self-described by the response's `(generation, age)`.
//! [`RaellaServer::recalibrate`] triggers the same swap manually;
//! [`ServerMetrics::recalibrations`] and
//! [`ServerMetrics::recalibration_pause_ticks`] make the policy
//! observable.
//!
//! Recalibration itself lives in the crate-private `recal` module
//! (`crates/core/src/recal.rs`), beside [`crate::policy`]: one path for
//! every trigger that, under the model's recalibration guard, reads the
//! live snapshot, failed tiles, wear counters and age once, samples
//! fidelity from that snapshot (watchdog only), then asks the policy,
//! validates its action and installs the result. This module only
//! decides *when* to call it (every N-th completion, a
//! [`RaellaServer::recalibrate`] or [`RaellaServer::fail_tile`] call) and
//! reports its counters.
//!
//! # Energy metering
//!
//! Every [`Response`] carries the request's priced [`EnergyBreakdown`]
//! (and per-tile breakdowns on a sharded server), metered from the same
//! event counters the response already reports — see [`crate::energy`].
//! [`RaellaServer::metrics`] aggregates joules per model and the
//! server-wide ADC energy fraction. With
//! [`ServerBuilder::energy_budget_pj`] configured, the paper's adaptive
//! slicing moves from compile time to admission time: the builder
//! precompiles a ladder of slicing variants ([`energy_config_ladder`])
//! through the shared compile cache, and each admission picks the
//! cheapest variant whose calibration-estimated fidelity at the current
//! device age still holds the config's error budget (memoized per
//! `(generation, drift epoch)`). Selection changes energy and latency
//! only — the chosen variant's output is bit-identical to running that
//! variant's config offline, and [`Response::selected_config`] records
//! the choice so every result replays bit-for-bit.
//!
//! # Shutdown
//!
//! [`RaellaServer::shutdown`] (and `Drop`) stops accepting work, wakes
//! and rejects every submitter still blocked in admission, drains every
//! request already accepted, joins the workers, and only then returns —
//! no accepted request is ever dropped, and no rejected request ever held
//! a handle. Draining completes every accepted request's cell, so every
//! registered waker — callback or polled future — fires exactly once:
//! shutdown under load strands no future, no callback, no blocked
//! `wait`.

use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::task::{Context, Poll};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use raella_arch::tile::TileSpec;
use raella_energy::EnergyBreakdown;
use raella_nn::graph::{argmax, Graph, ValueArena};
use raella_nn::tensor::Tensor;
use raella_xbar::slicing::Slicing;

use crate::compiler::SharedCompileCache;
use crate::config::RaellaConfig;
use crate::engine::RunStats;
use crate::error::CoreError;
use crate::model::CompiledModel;
use crate::parallel::worker_count_for;
use crate::policy::{RecalTrigger, RecalibrationPolicy, RotatePolicy};
use crate::recal::{layer_breaches, LiveModel, Recalibrator, ServedModel, Variant};
use crate::shard::{run_image_placed, ShardPlan};

/// One scheduler tick — the granularity of the coalescing latency budget.
pub const TICK: Duration = Duration::from_micros(1);

/// Overall deadline [`RaellaServer::wait_all`] applies across its whole
/// handle set, so a wedged request errors out instead of hanging the
/// caller forever. Callers with a longer (or tighter) tolerance use
/// [`RaellaServer::wait_all_within`] explicitly.
pub const WAIT_ALL_TIMEOUT: Duration = Duration::from_secs(300);

/// Builds a [`RaellaServer`]: models, worker budget, batch coalescing
/// policy, queue bounds, and the compile cache to dedupe through.
///
/// ```
/// use raella_core::server::{Admission, RaellaServer};
/// use raella_core::RaellaConfig;
/// use raella_nn::graph::Graph;
/// use raella_nn::synth::SynthLayer;
/// use raella_nn::Tensor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = Graph::new();
/// let input = g.input();
/// let c = g.conv(input, SynthLayer::conv(2, 4, 3, 1).build(), 2, 3, 1, 1)?;
/// let gap = g.global_avg_pool(c);
/// g.set_output(gap);
///
/// let cfg = RaellaConfig { search_vectors: 2, ..RaellaConfig::default() };
/// let server = RaellaServer::builder()
///     .model(&g, &cfg)
///     .workers(2)
///     .max_batch(4)
///     .latency_budget_ticks(100)
///     .queue_depth(64)
///     .build()?;
/// let response = server
///     .submit(0, Tensor::zeros(&[2, 6, 6]), Admission::Block)?
///     .wait()?;
/// assert_eq!(response.output().shape(), &[4]);
/// server.shutdown();
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct ServerBuilder {
    models: Vec<(Graph, RaellaConfig)>,
    workers: usize,
    max_batch: Option<usize>,
    latency_budget_ticks: Option<u64>,
    cache: Option<SharedCompileCache>,
    shards: usize,
    tile: Option<TileSpec>,
    queue_depth: usize,
    model_queue_depth: usize,
    watchdog_interval: u64,
    watchdog_vectors: usize,
    energy_budgets: Vec<(usize, f64)>,
    policy: Option<Arc<dyn RecalibrationPolicy>>,
}

impl ServerBuilder {
    /// Creates a builder with no models, automatic worker count, a
    /// `max_batch` of 8, a latency budget of 200 ticks (200 µs), and an
    /// unbounded queue.
    pub fn new() -> Self {
        ServerBuilder::default()
    }

    /// Adds a model to serve. [`RaellaServer::submit`] addresses models
    /// by index in the order they were added (0 is the first).
    #[must_use]
    pub fn model(mut self, graph: &Graph, cfg: &RaellaConfig) -> Self {
        self.models.push((graph.clone(), cfg.clone()));
        self
    }

    /// Worker-thread budget. `0` (the default) resolves to
    /// `RAELLA_THREADS` or the machine's available parallelism. A worker
    /// that is the only busy one switches to vector-level parallelism
    /// inside each layer, so sparse traffic (and a lone coalesced batch)
    /// still uses the whole machine — either way results are
    /// bit-identical.
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Maximum requests coalesced into one executed batch (≥ 1;
    /// default 8).
    #[must_use]
    pub fn max_batch(mut self, n: usize) -> Self {
        self.max_batch = Some(n);
        self
    }

    /// How long the oldest pending request may wait for the batch to fill
    /// before the batch executes anyway, in [`TICK`]s (default 200). A
    /// budget of 0 flushes every poll — maximum parallelism, no
    /// coalescing of sparse traffic.
    #[must_use]
    pub fn latency_budget_ticks(mut self, ticks: u64) -> Self {
        self.latency_budget_ticks = Some(ticks);
        self
    }

    /// Bounds the number of requests queued server-wide (all models
    /// together, excluding requests already executing). `0` — the
    /// default — is unbounded. With a bound in place,
    /// [`RaellaServer::submit`] blocks for space ([`Admission::Block`]),
    /// fails fast ([`Admission::Fail`]), or waits up to a deadline
    /// ([`Admission::Deadline`]); see the [module docs](crate::server).
    /// Bounding is pure admission control: accepted requests produce
    /// bit-identical results at any bound.
    ///
    /// Blocked admissions are FIFO: each blocking submitter takes a
    /// server-wide ticket, and freed slots are granted strictly in
    /// ticket (= arrival) order — within a lane *and across lanes under
    /// the shared global bound*. A waiter whose own lane is full cedes
    /// its global turn (it could not use the slot anyway), so one
    /// bounded-out lane never wedges the other lanes' admissions. While
    /// ticketed waiters exist anywhere that a freed slot belongs to,
    /// fresh submissions — blocking, fail-fast, or
    /// [`RaellaServer::submit_many`] — queue behind them (or reject)
    /// rather than barging past. Pair with
    /// [`ServerBuilder::model_queue_depth`] when hot-model traffic must
    /// not consume every slot at the door — lane round-robin fairness
    /// applies only *after* admission.
    #[must_use]
    pub fn queue_depth(mut self, n: usize) -> Self {
        self.queue_depth = n;
        self
    }

    /// Bounds the number of requests queued per model lane (`0`, the
    /// default, is unbounded). Combines with
    /// [`ServerBuilder::queue_depth`]: admission needs space under both
    /// bounds. A per-model bound keeps one hot model from consuming the
    /// whole global budget, so blocking submits to quiet models never
    /// wait on the hot model's backlog.
    #[must_use]
    pub fn model_queue_depth(mut self, n: usize) -> Self {
        self.model_queue_depth = n;
        self
    }

    /// Compile through an explicit cache handle instead of the
    /// process-wide [`SharedCompileCache::global`] default.
    #[must_use]
    pub fn compile_cache(mut self, cache: SharedCompileCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Shards every model across `n` simulated accelerator tiles (0, the
    /// default, serves monolithically). Layers round-robin across tiles;
    /// layers longer than the tile's row budget split into row groups
    /// merged by the accumulator reduction (see [`crate::shard`]).
    /// Sharding is pure scheduling: responses stay bit-identical to the
    /// unsharded server, and each [`Response`] additionally carries
    /// per-tile [`RunStats`] ([`Response::tile_stats`]), aggregated
    /// server-wide by [`RaellaServer::tile_stats`].
    #[must_use]
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// The tile geometry used by [`ServerBuilder::shards`] (default: the
    /// paper's 512×512 [`TileSpec::raella`]).
    #[must_use]
    pub fn tile_spec(mut self, tile: TileSpec) -> Self {
        self.tile = Some(tile);
        self
    }

    /// Runs the fidelity watchdog every `n` served requests per model
    /// (`0`, the default, disables it). After every `n`-th response the
    /// serving worker samples the live model's fidelity at its current
    /// device age and triggers a recalibration plan swap when any layer
    /// exceeds the config's error budget (see the [module
    /// docs](crate::server)).
    #[must_use]
    pub fn watchdog_interval(mut self, n: u64) -> Self {
        self.watchdog_interval = n;
        self
    }

    /// Test vectors per layer for each watchdog fidelity sample
    /// (default 8; more vectors = steadier estimate, longer pause).
    #[must_use]
    pub fn watchdog_vectors(mut self, n: usize) -> Self {
        self.watchdog_vectors = n.max(1);
        self
    }

    /// Registers an energy budget, in picojoules per input vector, for
    /// the model at `model` (builder insertion order) — the SLO knob
    /// that moves the paper's adaptive slicing from compile time to
    /// admission time. [`ServerBuilder::build`] precompiles the model's
    /// slicing ladder ([`energy_config_ladder`]) through the compile
    /// cache; each admission then selects the cheapest variant whose
    /// [`CompiledModel::estimated_vector_pj`] fits the budget *and*
    /// whose calibration-estimated fidelity at the current device age
    /// still holds the config's error budget, falling back to the base
    /// config when nothing qualifies. The selection is recorded in
    /// [`Response::selected_config`], so every response replays offline
    /// bit-for-bit against its ladder entry.
    ///
    /// A non-finite or non-positive budget is rejected at
    /// [`ServerBuilder::build`].
    #[must_use]
    pub fn energy_budget_pj(mut self, model: usize, budget: f64) -> Self {
        self.energy_budgets.push((model, budget));
        self
    }

    /// Installs the [`RecalibrationPolicy`] consulted by every
    /// recalibration trigger — the fidelity watchdog, manual
    /// [`RaellaServer::recalibrate`] calls, and tile failures injected
    /// via [`RaellaServer::fail_tile`]. The default
    /// [`crate::policy::RotatePolicy`] reproduces the classic behavior
    /// bit-identically: reprogram everything, rotate the shard plan by
    /// one tile, shrink onto the survivors when tiles have failed. One
    /// policy serves every model on the server.
    #[must_use]
    pub fn recalibration_policy(mut self, policy: impl RecalibrationPolicy + 'static) -> Self {
        self.policy = Some(Arc::new(policy));
        self
    }

    /// Compiles every model and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Server`] if no model was added or an
    /// [`ServerBuilder::energy_budget_pj`] registration is invalid
    /// (unknown model index, non-finite or non-positive budget), and
    /// propagates [`CompiledModel::compile`] errors.
    pub fn build(self) -> Result<RaellaServer, CoreError> {
        if self.models.is_empty() {
            return Err(CoreError::Server(
                "a server needs at least one model".into(),
            ));
        }
        let cache = self.cache.unwrap_or_else(SharedCompileCache::global);
        let tile = self.tile.unwrap_or_default();
        let mut budgets: Vec<Option<f64>> = vec![None; self.models.len()];
        for (model, budget) in &self.energy_budgets {
            if *model >= self.models.len() {
                return Err(CoreError::Server(format!(
                    "energy budget for unknown model {model} (builder holds {})",
                    self.models.len()
                )));
            }
            if !budget.is_finite() || *budget <= 0.0 {
                return Err(CoreError::Server(format!(
                    "energy budget for model {model} must be finite and positive, got {budget}"
                )));
            }
            budgets[*model] = Some(*budget);
        }
        let mut models = Vec::with_capacity(self.models.len());
        let mut tile_totals = Vec::with_capacity(self.models.len());
        for ((graph, cfg), budget) in self.models.into_iter().zip(budgets) {
            // One variant per ladder entry; without a budget the ladder is
            // just the base config.
            let ladder = match budget {
                Some(_) => energy_config_ladder(&cfg),
                None => vec![cfg],
            };
            let variants = ladder
                .iter()
                .map(|cfg| {
                    let model = CompiledModel::compile_with_cache(&graph, cfg, &cache)?;
                    Ok(Variant {
                        est_pj_per_vector: model.estimated_vector_pj(),
                        model: Arc::new(model),
                    })
                })
                .collect::<Result<Vec<_>, CoreError>>()?;
            // One placement of the base model serves every rung.
            let plan = match self.shards {
                0 => None,
                n => Some(Arc::new(ShardPlan::place(&variants[0].model, n, tile)?)),
            };
            let live = LiveModel::new(variants, plan, budget)?;
            // Recalibration only remaps tiles (a shrink keeps dead tiles
            // addressable), never changes the tile count, so sizing the
            // lifetime buckets once is safe.
            tile_totals.push(vec![
                RunStats::default();
                live.plan.as_deref().map_or(0, ShardPlan::tiles)
            ]);
            models.push(ServedModel::new(live));
        }
        let model_count = models.len();
        let workers = if self.workers == 0 {
            // `usize::MAX` items: resolve to the full hardware /
            // RAELLA_THREADS budget.
            worker_count_for(usize::MAX, 1)
        } else {
            self.workers
        };
        let max_batch = self.max_batch.unwrap_or(8).max(1);
        let budget_ticks = self.latency_budget_ticks.unwrap_or(200);
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                lanes: (0..model_count).map(|_| VecDeque::new()).collect(),
                total: 0,
                high_water: 0,
                next_lane: 0,
                next_seq: 0,
                lane_waiters: (0..model_count).map(|_| VecDeque::new()).collect(),
                next_ticket: 0,
                shutdown: false,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
            models,
            max_batch,
            budget: Duration::from_micros(budget_ticks),
            queue_depth: self.queue_depth,
            model_queue_depth: self.model_queue_depth,
            busy: AtomicUsize::new(0),
            rejected: AtomicU64::new(0),
            blocked: AtomicU64::new(0),
            served: (0..model_count).map(|_| AtomicU64::new(0)).collect(),
            busy_ticks: AtomicU64::new(0),
            watchdog_interval: self.watchdog_interval,
            recal: Recalibrator::new(
                self.policy.unwrap_or_else(|| Arc::new(RotatePolicy)),
                if self.watchdog_vectors == 0 {
                    8
                } else {
                    self.watchdog_vectors
                },
            ),
            cache,
            tile_totals: Mutex::new(tile_totals),
            energy_totals: Mutex::new(vec![EnergyBreakdown::default(); model_count]),
        });
        let threads = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(RaellaServer {
            shared,
            workers: Mutex::new(threads),
            worker_count: workers,
        })
    }
}

/// The slicing ladder [`ServerBuilder::energy_budget_pj`] precompiles:
/// the base configuration first (index 0 — always the fallback), then
/// progressively cheaper fixed slicings — full-width cells (fewest
/// columns, least ADC work) and all-1b slices (most columns, highest
/// fidelity headroom under drift). Entries whose compile-cache
/// fingerprint duplicates an earlier entry are dropped, so every index
/// names a distinct compiled artifact. Offline replay of a
/// [`Response::selected_config`] compiles `ladder[config]` and runs the
/// image at the response's age — bit-identical by the model determinism
/// contract.
pub fn energy_config_ladder(cfg: &RaellaConfig) -> Vec<RaellaConfig> {
    let mut ladder = vec![cfg.clone()];
    let width = u32::from(cfg.cell_bits).min(8);
    if width > 0 && 8 % width == 0 {
        ladder.push(
            cfg.clone()
                .with_fixed_slicing(Slicing::uniform(width, 8 / width)),
        );
    }
    if let Ok(ones) = Slicing::new(&[1; 8], 8) {
        ladder.push(cfg.clone().with_fixed_slicing(ones));
    }
    // The config's Debug form is its compile-cache fingerprint: distinct
    // forms compile (and cache) separately, duplicates collapse.
    let mut seen: Vec<String> = Vec::new();
    ladder.retain(|c| {
        let fp = format!("{c:?}");
        if seen.contains(&fp) {
            false
        } else {
            seen.push(fp);
            true
        }
    });
    ladder
}

/// The result of one served request.
///
/// Output tensor, prediction, and statistics are deterministic (see the
/// [module docs](crate::server)); the timing fields are measured wall
/// clock.
#[derive(Debug, Clone)]
pub struct Response {
    output: Tensor<u8>,
    predicted: usize,
    stats: RunStats,
    tile_stats: Vec<RunStats>,
    energy: EnergyBreakdown,
    tile_energy: Vec<EnergyBreakdown>,
    config: usize,
    seq: u64,
    model: usize,
    age: u64,
    generation: u64,
    layer_gens: Arc<Vec<u64>>,
    queue_ticks: u64,
    compute_ticks: u64,
    batch_size: usize,
}

impl Response {
    /// The model's output tensor for this request's image.
    pub fn output(&self) -> &Tensor<u8> {
        &self.output
    }

    /// Top-1 prediction (argmax of the output).
    pub fn predicted(&self) -> usize {
        self.predicted
    }

    /// Per-request execution statistics (this image only). On a sharded
    /// server this is the merge of [`Response::tile_stats`] — always
    /// bit-identical to the unsharded stats.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Per-tile execution statistics for this request (index = tile),
    /// empty when the server is not sharded
    /// ([`ServerBuilder::shards`]).
    pub fn tile_stats(&self) -> &[RunStats] {
        &self.tile_stats
    }

    /// Priced energy breakdown for this request. Deterministic like the
    /// stats it is derived from, and exactly additive: on a sharded
    /// server the per-tile parts in [`Response::tile_energy`] sum
    /// bit-for-bit to this value, because the meter merges integer event
    /// counts first and prices the merged counters once.
    pub fn energy(&self) -> &EnergyBreakdown {
        &self.energy
    }

    /// Per-tile energy breakdowns (index = tile), empty when the server
    /// is not sharded. Their sum is bit-identical to
    /// [`Response::energy`].
    pub fn tile_energy(&self) -> &[EnergyBreakdown] {
        &self.tile_energy
    }

    /// Index into [`energy_config_ladder`] of the slicing variant that
    /// served this request (0 = the base config; always 0 unless
    /// [`ServerBuilder::energy_budget_pj`] registered a budget for this
    /// model). Together with [`Response::generation`] and
    /// [`Response::age`] this makes the served bytes reproducible
    /// offline: compile the ladder entry, reprogram to the generation,
    /// run the image at the age.
    pub fn selected_config(&self) -> usize {
        self.config
    }

    /// The request's admission sequence number (server-wide order of
    /// accepted requests; rejected submissions consume no number).
    pub fn sequence(&self) -> u64 {
        self.seq
    }

    /// Index of the model that served the request.
    pub fn model_index(&self) -> usize {
        self.model
    }

    /// Device age (served vectors since the crossbars were last
    /// programmed) this request's first vector ran at — 0 unless the
    /// model's [`RaellaConfig::lifetime`] drifts. Assigned in admission
    /// order, reset by recalibration.
    pub fn age(&self) -> u64 {
        self.age
    }

    /// Programming generation of the model snapshot that served this
    /// request (increments on every recalibration plan swap). Together
    /// with [`Response::age`] this makes the output reproducible
    /// offline: reprogram the model to this generation and run the image
    /// at this age.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Per-layer programming generations of the snapshot that served
    /// this request, in execution order. All equal to
    /// [`Response::generation`] unless a targeted recalibration
    /// ([`crate::policy::RecalibrationAction::ReprogramLayers`])
    /// refreshed a subset — then the output replays offline via
    /// [`CompiledModel::reprogram_to`] with this vector, run at
    /// [`Response::age`].
    pub fn layer_generations(&self) -> &[u64] {
        &self.layer_gens
    }

    /// Time the request spent queued before its batch started, in
    /// [`TICK`]s.
    pub fn queue_ticks(&self) -> u64 {
        self.queue_ticks
    }

    /// Time spent executing this request's image, in [`TICK`]s.
    pub fn compute_ticks(&self) -> u64 {
        self.compute_ticks
    }

    /// Number of requests coalesced into the batch that served this one.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }
}

/// The completion callback a [`RequestHandle`] can register: fired
/// exactly once, when the request's result becomes available.
type WakeFn = Box<dyn FnOnce() + Send + 'static>;

/// The state of one request's result slot.
enum CellState {
    /// The request is queued or executing. Holds the registered
    /// completion callback, if any (last registration wins).
    Pending(Option<WakeFn>),
    /// The result arrived and has not been consumed yet. Boxed so the
    /// common `Pending` state stays small.
    Ready(Box<Result<Response, CoreError>>),
    /// The result was consumed ([`RequestHandle::wait`] /
    /// [`RequestHandle::try_wait`] / a ready `poll`).
    Taken,
}

impl fmt::Debug for CellState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellState::Pending(waker) => f
                .debug_tuple("Pending")
                .field(&waker.as_ref().map(|_| "waker"))
                .finish(),
            CellState::Ready(result) => f.debug_tuple("Ready").field(result).finish(),
            CellState::Taken => f.write_str("Taken"),
        }
    }
}

/// The notification cell one request's result travels through: the
/// serving worker completes it once, the [`RequestHandle`] consumes it
/// once, and an arbitrary `Wake`-style callback
/// ([`RequestHandle::on_complete`]) — or a [`std::task::Waker`] via the
/// handle's [`Future`] impl — is fired exactly once at the transition.
/// Blocking ([`RequestHandle::wait`]) and polling
/// ([`RequestHandle::try_wait`]) are both layered on this same cell, so
/// every delivery path observes identical bytes; no thread is parked
/// anywhere unless the caller chooses to block.
#[derive(Debug)]
struct CompletionCell {
    state: Mutex<CellState>,
    /// Signaled on completion — wakes blocking `wait`/`wait_timeout`.
    ready: Condvar,
}

impl CompletionCell {
    fn new() -> Arc<Self> {
        Arc::new(CompletionCell {
            state: Mutex::new(CellState::Pending(None)),
            ready: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, CellState> {
        lock(&self.state)
    }

    /// Stores the result and fires the registered callback, if any. The
    /// callback runs *after* the lock is released, so it may re-enter the
    /// handle (poll, try_wait) without deadlocking. Idempotence guard:
    /// a second completion is ignored (cannot happen through
    /// [`Completer`], which consumes itself).
    fn complete(&self, result: Result<Response, CoreError>) {
        let waker = {
            let mut state = self.lock();
            match &mut *state {
                CellState::Pending(waker) => {
                    let waker = waker.take();
                    *state = CellState::Ready(Box::new(result));
                    waker
                }
                CellState::Ready(_) | CellState::Taken => None,
            }
        };
        self.ready.notify_all();
        if let Some(wake) = waker {
            wake();
        }
    }
}

/// The server-side half of a [`CompletionCell`]: completes it exactly
/// once. Dropping a completer that never completed (worker died without
/// responding) delivers a [`CoreError::Server`] "dropped" error instead —
/// a registered waker is still fired, so no future or callback is ever
/// stranded.
#[derive(Debug)]
struct Completer {
    cell: Arc<CompletionCell>,
    seq: u64,
    sent: bool,
}

impl Completer {
    fn complete(mut self, result: Result<Response, CoreError>) {
        self.sent = true;
        self.cell.complete(result);
    }
}

impl Drop for Completer {
    fn drop(&mut self) {
        if !self.sent {
            self.cell.complete(Err(CoreError::Server(format!(
                "request {} was dropped before completion",
                self.seq
            ))));
        }
    }
}

/// A typed handle to one submitted request, generic over how the caller
/// wants the result delivered:
///
/// * **block** — [`RequestHandle::wait`] / [`RequestHandle::wait_timeout`]
///   park the calling thread;
/// * **poll** — [`RequestHandle::try_wait`] never parks;
/// * **callback** — [`RequestHandle::on_complete`] registers a
///   `Wake`-style closure fired exactly once at completion;
/// * **await** — the handle implements
///   [`Future`]`<Output = Result<Response, CoreError>>` using only
///   [`std::task`], so it runs on any executor (tokio, async-std, or the
///   dependency-free [`crate::gateway::LocalPool`] /
///   [`crate::gateway::block_on`]) with zero extra threads.
///
/// All four are views of one notification cell; whichever consumes the
/// result first spends the handle.
#[derive(Debug)]
pub struct RequestHandle {
    seq: u64,
    model: usize,
    cell: Arc<CompletionCell>,
}

impl RequestHandle {
    /// Blocks until the request completes.
    ///
    /// # Errors
    ///
    /// Propagates execution errors (e.g. a mis-shaped image), or
    /// [`CoreError::Server`] if the serving worker disappeared without
    /// responding or the result was already taken by
    /// [`RequestHandle::try_wait`] / a ready poll.
    pub fn wait(self) -> Result<Response, CoreError> {
        let mut state = self.cell.lock();
        loop {
            match std::mem::replace(&mut *state, CellState::Taken) {
                CellState::Ready(result) => return *result,
                CellState::Taken => {
                    return Err(CoreError::Server(format!(
                        "request {}'s result was already taken by try_wait",
                        self.seq
                    )));
                }
                pending => {
                    *state = pending;
                    state = self
                        .cell
                        .ready
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// Blocks until the request completes or `timeout` elapses. Returns
    /// `None` on timeout — the handle is untouched and still usable
    /// (wait again, poll, or `.await`). Once this returns `Some`, the
    /// handle is spent exactly as with [`RequestHandle::try_wait`].
    ///
    /// # Errors
    ///
    /// Same as [`RequestHandle::wait`], surfaced inside the `Some`.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Option<Result<Response, CoreError>> {
        let deadline = Instant::now() + timeout;
        let mut state = self.cell.lock();
        loop {
            match std::mem::replace(&mut *state, CellState::Taken) {
                CellState::Ready(result) => return Some(*result),
                CellState::Taken => return None,
                pending => {
                    *state = pending;
                    let now = Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    let (next, _) = self
                        .cell
                        .ready
                        .wait_timeout(state, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner);
                    state = next;
                }
            }
        }
    }

    /// Returns the response if the request has already completed, without
    /// blocking; `None` while it is still queued or executing. Once this
    /// returns `Some`, the handle is spent: later `try_wait` calls return
    /// `None` and [`RequestHandle::wait`] errors.
    ///
    /// # Errors
    ///
    /// Same as [`RequestHandle::wait`], surfaced once the request
    /// finishes.
    pub fn try_wait(&mut self) -> Option<Result<Response, CoreError>> {
        let mut state = self.cell.lock();
        match std::mem::replace(&mut *state, CellState::Taken) {
            CellState::Ready(result) => Some(*result),
            CellState::Taken => None,
            pending => {
                *state = pending;
                None
            }
        }
    }

    /// Registers a completion callback, fired **exactly once**: when the
    /// request completes — from the serving worker's thread — or
    /// immediately on the caller's thread if the result is already in
    /// (or was already consumed). Re-registering replaces the previous
    /// callback; the replaced one never fires. The callback only
    /// signals availability — consume the result afterwards with
    /// [`RequestHandle::try_wait`] (or `wait`, which then returns
    /// without blocking).
    ///
    /// This is the waker primitive everything async here is built from:
    /// the handle's [`Future`] impl registers `waker.wake()` through the
    /// same slot, and [`crate::gateway::Gateway`] registers its
    /// IO-thread wakeup — neither costs a parked thread per request.
    pub fn on_complete(&self, callback: impl FnOnce() + Send + 'static) {
        {
            let mut state = self.cell.lock();
            if let CellState::Pending(waker) = &mut *state {
                *waker = Some(Box::new(callback));
                return;
            }
        }
        // Already Ready or Taken: completion has happened — fire now,
        // outside the lock.
        callback();
    }

    /// The request's admission sequence number.
    pub fn sequence(&self) -> u64 {
        self.seq
    }

    /// Index of the model the request targets.
    pub fn model_index(&self) -> usize {
        self.model
    }
}

/// `RequestHandle` is a runtime-agnostic future: it resolves to the
/// request's result using only [`std::task`] plumbing — no executor
/// dependency, no helper threads. Pending polls (re)register the task's
/// waker; completion wakes it exactly once. Polling after the result was
/// delivered (or taken by [`RequestHandle::try_wait`]) resolves to a
/// [`CoreError::Server`] "already taken" error rather than panicking, so
/// a double-polled future stays deterministic.
impl Future for RequestHandle {
    type Output = Result<Response, CoreError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut state = self.cell.lock();
        match std::mem::replace(&mut *state, CellState::Taken) {
            CellState::Ready(result) => Poll::Ready(*result),
            CellState::Taken => Poll::Ready(Err(CoreError::Server(format!(
                "request {}'s result was already taken",
                self.seq
            )))),
            CellState::Pending(_) => {
                let waker = cx.waker().clone();
                *state = CellState::Pending(Some(Box::new(move || waker.wake())));
                Poll::Pending
            }
        }
    }
}

/// One queued request.
#[derive(Debug)]
struct Request {
    model: usize,
    seq: u64,
    /// Device age stamped at admission (lane order): the model's served
    /// vector count when this request was accepted.
    age: u64,
    /// Ladder index selected at admission ([`Shared::select_config`];
    /// always 0 without an energy budget).
    config: usize,
    image: Tensor<u8>,
    submitted: Instant,
    completer: Completer,
}

/// The lock-protected queue: one FIFO lane per model plus the fairness
/// cursor and admission bookkeeping.
#[derive(Debug)]
struct QueueState {
    /// Pending requests, one FIFO lane per model (index = model index).
    lanes: Vec<VecDeque<Request>>,
    /// Total requests across all lanes (kept in sync with the lanes so
    /// global-bound admission is O(1)).
    total: usize,
    /// Largest `total` ever observed — the queue-depth high-water mark.
    high_water: usize,
    /// Round-robin cursor: the lane workers prefer for their next pop.
    /// Advanced past a model each time a batch is taken from it, so a
    /// saturated lane yields to the others between its batches.
    next_lane: usize,
    /// Next admission sequence number. Assigned under the lock at
    /// enqueue time, so numbers are dense over *accepted* requests and
    /// follow global admission order; rejected submissions consume none.
    next_seq: u64,
    /// Blocked admissions waiting for queue space: one FIFO of ticket
    /// numbers per lane. Freed slots are granted strictly in ticket
    /// (= arrival) order — a woken submitter whose ticket is not at the
    /// front goes back to waiting, so an old blocked `submit` can never
    /// lose a freed slot to a fresher one. Under a shared *global* bound
    /// the same tickets also order grants **across** lanes
    /// ([`QueueState::global_turn`]): the earliest lane-front waiter
    /// that could actually use a freed global slot gets it, so cross-lane
    /// barging is impossible too. An abandoned wait (timeout, shutdown)
    /// removes its ticket wherever it sits, so the queue never stalls on
    /// a ghost.
    lane_waiters: Vec<VecDeque<u64>>,
    /// Next admission ticket (server-wide and monotonic — the relative
    /// order matters both within a lane and across lanes under the
    /// global bound).
    next_ticket: u64,
    shutdown: bool,
}

impl QueueState {
    /// Whether `n` more requests for `model` fit under both bounds
    /// (0 = unbounded).
    fn has_room(&self, model: usize, n: usize, shared: &Shared) -> bool {
        (shared.queue_depth == 0 || self.total + n <= shared.queue_depth)
            && (shared.model_queue_depth == 0
                || self.lanes[model].len() + n <= shared.model_queue_depth)
    }

    /// Whether `n` more requests fit under `model`'s per-lane bound
    /// alone (0 = unbounded) — the global bound is deliberately ignored:
    /// [`QueueState::global_turn`] uses this to decide whether another
    /// lane's front waiter could actually use a freed *global* slot.
    fn lane_has_room(&self, model: usize, n: usize, shared: &Shared) -> bool {
        shared.model_queue_depth == 0 || self.lanes[model].len() + n <= shared.model_queue_depth
    }

    /// Whether `ticket` (waiting on `model`'s lane) holds the next claim
    /// on a *global* queue slot: no other lane's front waiter both
    /// arrived earlier and could use the slot (a waiter blocked by its
    /// own full lane cedes its global turn — it could not enqueue
    /// anyway, and honoring its ticket would wedge every other lane on
    /// it). Tickets are server-wide and monotonic, so comparing lane
    /// fronts totally orders the contenders.
    fn global_turn(&self, model: usize, ticket: u64, shared: &Shared) -> bool {
        shared.queue_depth == 0
            || self
                .lane_waiters
                .iter()
                .enumerate()
                .all(|(lane, waiters)| match waiters.front() {
                    Some(&front) if lane != model => {
                        front > ticket || !self.lane_has_room(lane, 1, shared)
                    }
                    _ => true,
                })
    }

    /// Whether a *new* admission to `model` may take a slot right now:
    /// there is room, no earlier blocked submitter is waiting on this
    /// lane, and — under a global bound — no other lane's waiter is
    /// entitled to the next global slot (freed slots belong to the
    /// ticket FIFOs first; fail-fast and fresh blocking submitters do
    /// not barge past them, same-lane or cross-lane).
    fn admissible(&self, model: usize, n: usize, shared: &Shared) -> bool {
        self.lane_waiters[model].is_empty()
            && self.has_room(model, n, shared)
            && (shared.queue_depth == 0
                || self.lane_waiters.iter().enumerate().all(|(lane, waiters)| {
                    lane == model || waiters.is_empty() || !self.lane_has_room(lane, 1, shared)
                }))
    }

    /// Drops `ticket` from `model`'s waiter FIFO (abandoned wait).
    fn abandon_ticket(&mut self, model: usize, ticket: u64) {
        self.lane_waiters[model].retain(|&t| t != ticket);
    }
}

#[derive(Debug)]
struct Shared {
    state: Mutex<QueueState>,
    /// Signaled when queued work may be ready for a worker.
    ready: Condvar,
    /// Signaled when queue slots free up (a batch was popped) or shutdown
    /// begins — wakes submitters blocked in bounded admission.
    space: Condvar,
    models: Vec<ServedModel>,
    max_batch: usize,
    budget: Duration,
    /// Server-wide queued-request bound (0 = unbounded).
    queue_depth: usize,
    /// Per-model-lane queued-request bound (0 = unbounded).
    model_queue_depth: usize,
    /// Workers currently executing a batch. When a worker is the *only*
    /// busy one, it enables vector-level parallelism inside each layer
    /// (sparse traffic gets `run_image`-class latency, and a lone
    /// coalesced batch doesn't serialize the machine; it claims chunks of
    /// each layer's vectors alongside the threads it spawns, and runs a
    /// layer that fits one worker inline); when siblings are busy,
    /// image/request-level parallelism already covers the cores.
    /// Both execution modes produce identical bytes, so this is purely a
    /// scheduling choice.
    busy: AtomicUsize,
    /// Admission attempts that returned [`CoreError::QueueFull`] (one per
    /// failed call — an all-or-nothing `submit_many` counts once).
    rejected: AtomicU64,
    /// Admission calls that had to wait for space at least once
    /// (blocking and timed submits; a timed-out submit counts in both
    /// `blocked` and `rejected`).
    blocked: AtomicU64,
    /// Requests completed per model (responses sent, success or error).
    served: Vec<AtomicU64>,
    /// Total worker time spent executing batches, in [`TICK`]s.
    busy_ticks: AtomicU64,
    /// Fidelity-watchdog period in served requests per model (0 = off).
    watchdog_interval: u64,
    /// The recalibration policy ([`ServerBuilder::recalibration_policy`];
    /// defaults to [`RotatePolicy`]), the fidelity sample size, and the
    /// recalibration counters.
    recal: Recalibrator,
    cache: SharedCompileCache,
    /// Server-lifetime per-tile statistics, one bucket vector per model
    /// (empty for unsharded models). Workers merge each sharded
    /// request's per-tile deltas here; read via
    /// [`RaellaServer::tile_stats`].
    tile_totals: Mutex<Vec<Vec<RunStats>>>,
    /// Server-lifetime energy per model: workers add each successful
    /// response's breakdown. Read via [`ServerMetrics::model_energy`].
    energy_totals: Mutex<Vec<EnergyBreakdown>>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        lock(&self.state)
    }

    /// How many vectors serving `image` ages `model`'s device by: the
    /// model's matrix-layer vector count for this image shape, memoized
    /// per shape; 0 for a non-drifting lifetime (ages then never move and
    /// every request runs at age 0, bit-identical to the static model).
    /// Called *before* the queue lock — it takes the live read lock and
    /// the memo lock, never both at once with the queue's.
    fn age_advance(&self, model: usize, image: &Tensor<u8>) -> u64 {
        let served = &self.models[model];
        let live_model = {
            let live = served.live.read().unwrap_or_else(PoisonError::into_inner);
            if !live.base().model.config().lifetime.is_drifting() {
                return 0;
            }
            Arc::clone(&live.base().model)
        };
        let key = image.shape().to_vec();
        let mut counts = lock(&served.vector_counts);
        if let Some(&n) = counts.get(&key) {
            return n;
        }
        // A mis-shaped image errors at execution; it ages nothing.
        let n = live_model.vectors_per_image(image).unwrap_or(0);
        counts.insert(key, n);
        n
    }

    /// Admission-time slicing selection for `model` at its current
    /// device age: returns the [`energy_config_ladder`] index whose
    /// variant serves the request. Candidates (base included) are ranked
    /// by their geometry estimate ascending; the cheapest whose estimate
    /// fits the registered budget *and* whose calibration-estimated
    /// fidelity at that age holds the config's error budget wins. The
    /// base config (index 0) is the fallback when nothing qualifies —
    /// correctness over economy. Memoized per `(generation, drift
    /// epoch)`; called *before* the queue lock (fidelity sampling is real
    /// work), and fast-exits without touching the queue lock when no
    /// budget is registered (the overwhelmingly common case). The age
    /// read races concurrent admissions harmlessly: selection is
    /// epoch-granular, and the chosen index rides in the [`Response`] so
    /// offline replay is exact either way.
    fn select_config(&self, model: usize) -> usize {
        let served = &self.models[model];
        let (live, budget) = {
            let live = served.live.read().unwrap_or_else(PoisonError::into_inner);
            match live.budget_pj {
                Some(budget) if live.variants.len() > 1 => (live.clone(), budget),
                _ => return 0,
            }
        };
        let age = served.age.load(Ordering::SeqCst);
        let epoch = live.base().model.config().lifetime.drift_epoch(age);
        let key = (live.generation, epoch);
        if let Some(&selected) = lock(&served.selection_cache).get(&key) {
            return selected;
        }
        let mut candidates: Vec<(usize, f64)> = live
            .variants
            .iter()
            .map(|v| v.est_pj_per_vector)
            .enumerate()
            .collect();
        candidates.sort_by(|a, b| a.1.total_cmp(&b.1));
        // A sampling error counts as a failed check: the variant is
        // skipped, never served blind.
        let selected = candidates
            .into_iter()
            .filter(|&(_, est)| est <= budget)
            .find(|&(idx, _)| {
                layer_breaches(&live.variants[idx].model, self.recal.vectors, age)
                    .is_ok_and(|breaches| breaches.is_empty())
            })
            .map_or(0, |(idx, _)| idx);
        lock(&served.selection_cache).insert(key, selected);
        selected
    }
}

/// What a worker should do with the queue.
enum Readiness {
    /// Pop this many requests from this model's lane and execute them as
    /// one batch.
    Take { model: usize, count: usize },
    /// Some lane needs more time to fill; wait at most this long.
    After(Duration),
    /// Nothing queued.
    Idle,
}

/// Evaluates the coalescing policy round-robin from the fairness cursor:
/// the first lane (in cursor order) holding a ready batch wins. A lane's
/// batch is ready when it is full (`max_batch`), its oldest request has
/// waited the latency budget out, another model also has pending work
/// (work-conserving: take what is there rather than idling on a partial
/// batch), or the server is draining for shutdown.
fn readiness(state: &QueueState, shared: &Shared, now: Instant) -> Readiness {
    if state.total == 0 {
        return Readiness::Idle;
    }
    let lanes = state.lanes.len();
    let mut min_wait: Option<Duration> = None;
    for offset in 0..lanes {
        let model = (state.next_lane + offset) % lanes;
        let lane = &state.lanes[model];
        let Some(front) = lane.front() else { continue };
        let count = lane.len().min(shared.max_batch);
        let others_pending = state.total > lane.len();
        if lane.len() >= shared.max_batch || others_pending || state.shutdown {
            return Readiness::Take { model, count };
        }
        let waited = now.saturating_duration_since(front.submitted);
        if waited >= shared.budget {
            return Readiness::Take { model, count };
        }
        let remaining = shared.budget - waited;
        min_wait = Some(min_wait.map_or(remaining, |w| w.min(remaining)));
    }
    match min_wait {
        Some(wait) => Readiness::After(wait),
        // Unreachable while `total` is kept in sync with the lanes, but
        // degrade to Idle rather than panicking a worker.
        None => Readiness::Idle,
    }
}

/// Worker thread body: pop ready batches, run each request against the
/// worker's pooled arena, respond. The arena lives for the worker's whole
/// lifetime, so per-image steady-state allocation is zero (ROADMAP "arena
/// reuse across batches").
///
/// A panic inside one request's execution is caught and answered as a
/// [`CoreError::Server`] response — the worker survives and later
/// requests (queued or future) are still served, so no submitted request
/// is ever stranded. (`run_planned` resets the arena up front, so a
/// half-executed image cannot poison the next one.)
fn worker_loop(shared: &Shared) {
    let mut arena = ValueArena::new();
    loop {
        let batch: Vec<Request> = {
            let mut state = shared.lock();
            loop {
                match readiness(&state, shared, Instant::now()) {
                    Readiness::Take { model, count } => {
                        let batch = state.lanes[model].drain(..count).collect();
                        state.total -= count;
                        // Fairness: the popped lane goes to the back of
                        // the round-robin order.
                        state.next_lane = (model + 1) % state.lanes.len();
                        break batch;
                    }
                    Readiness::After(wait) => {
                        let (next, _) = shared
                            .ready
                            .wait_timeout(state, wait)
                            .unwrap_or_else(PoisonError::into_inner);
                        state = next;
                    }
                    Readiness::Idle => {
                        if state.shutdown {
                            return;
                        }
                        state = shared
                            .ready
                            .wait(state)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
        };
        // The pop freed queue slots: wake submitters blocked in bounded
        // admission, and a sibling worker for any other lane's batch that
        // is still ready.
        shared.space.notify_all();
        shared.ready.notify_one();
        shared.busy.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let batch_size = batch.len();
        // One live snapshot per batch (all requests came from one lane):
        // a recalibration swap installs between batches, never inside one,
        // so a batch is internally consistent and in-flight handles are
        // untouched by a swap.
        let live = shared.models[batch[0].model].snapshot();
        for req in batch {
            let compute_start = Instant::now();
            // Re-checked per image: siblings may pick up or finish work
            // mid-batch.
            let alone = shared.busy.load(Ordering::Relaxed) == 1;
            // Sharded models fan a split layer across one worker per
            // involved tile when this worker is the only busy one —
            // "each tile gets its own worker"; otherwise request-level
            // parallelism already covers the cores. Either way the bytes
            // and (merged) stats are identical to the unsharded model.
            // Admission-selected slicing variant (index 0 = the base
            // model). Resolved per request: a selection-epoch boundary
            // can land mid-batch.
            let variant = live.variant(req.config);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_image_placed(
                    &variant.model,
                    live.plan.as_deref(),
                    &req.image,
                    &mut arena,
                    alone,
                    req.age,
                    None,
                )
            }))
            .unwrap_or_else(|_| {
                Err(CoreError::Server(format!(
                    "execution panicked serving request {}",
                    req.seq
                )))
            })
            .map(|(output, tile_stats)| {
                let mut stats = RunStats::default();
                for bucket in &tile_stats {
                    stats.merge(bucket);
                }
                // An unplaced run's one bucket is the whole request:
                // per-tile stats are reported only on a sharded server.
                let tile_stats = if live.plan.is_some() {
                    tile_stats
                } else {
                    Vec::new()
                };
                if !tile_stats.is_empty() {
                    let mut totals = lock(&shared.tile_totals);
                    for (bucket, local) in totals[req.model].iter_mut().zip(&tile_stats) {
                        bucket.merge(local);
                    }
                }
                // Integer event counts priced once: the per-tile
                // breakdowns below sum bit-exactly to `energy` because
                // the meter prices the merged counters, never sums
                // priced floats.
                let meter = variant.model.energy_meter();
                let energy = meter.breakdown(&stats.meter_events());
                let tile_energy: Vec<EnergyBreakdown> = tile_stats
                    .iter()
                    .map(|s| meter.breakdown(&s.meter_events()))
                    .collect();
                {
                    let mut totals = lock(&shared.energy_totals);
                    totals[req.model] = totals[req.model].add(&energy);
                }
                Response {
                    predicted: argmax(output.as_slice()),
                    output,
                    stats,
                    tile_stats,
                    energy,
                    tile_energy,
                    config: req.config,
                    seq: req.seq,
                    model: req.model,
                    age: req.age,
                    generation: live.generation,
                    layer_gens: Arc::clone(&live.layer_gens),
                    queue_ticks: ticks(started.saturating_duration_since(req.submitted)),
                    compute_ticks: ticks(compute_start.elapsed()),
                    batch_size,
                }
            });
            let completed = shared.served[req.model].fetch_add(1, Ordering::SeqCst) + 1;
            // Completion stores the result in the handle's cell and fires
            // its registered waker (if any) exactly once. A handle the
            // requester already dropped is fine — the cell just holds the
            // unread result until its last Arc goes away.
            req.completer.complete(result);
            // Every `watchdog_interval`-th completion samples the live
            // model's fidelity at its current age; past-budget drift
            // triggers the recalibration plan swap. The handle was
            // already answered, so the pause never blocks a response
            // delivered this iteration.
            if shared.watchdog_interval > 0 && completed.is_multiple_of(shared.watchdog_interval) {
                shared.recal.watchdog(&shared.models[req.model], req.model);
            }
        }
        shared
            .busy_ticks
            .fetch_add(ticks(started.elapsed()), Ordering::Relaxed);
        shared.busy.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Joins `handle`, re-raising the thread's panic unless this thread is
/// already unwinding (a shutdown run from `Drop` during a panic).
pub(crate) fn join_or_resume(handle: JoinHandle<()>) {
    if let Err(panic) = handle.join() {
        if !std::thread::panicking() {
            std::panic::resume_unwind(panic);
        }
    }
}

/// Duration → whole [`TICK`]s.
pub(crate) fn ticks(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Locks `m`, recovering the guard if a holder panicked: a panicking
/// request never wedges the queue or a model's state.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How [`RaellaServer::submit`] waits for queue space at a bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Block until space frees or shutdown begins.
    Block,
    /// Fail fast with [`CoreError::QueueFull`].
    Fail,
    /// Block until this deadline, then fail with
    /// [`CoreError::QueueFull`].
    Deadline(Instant),
}

/// A point-in-time snapshot of a server's queue and admission counters,
/// read via [`RaellaServer::metrics`].
///
/// Counter fields are cumulative over the server's lifetime; depth fields
/// describe the instant of the snapshot. All of it is observability-only —
/// none of these values feed back into scheduling, so reading them is
/// side-effect free.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerMetrics {
    queue_depth: usize,
    queue_depth_high_water: usize,
    accepted: u64,
    rejected: u64,
    blocked: u64,
    served: Vec<u64>,
    queued: Vec<usize>,
    worker_busy_ticks: u64,
    recalibrations: u64,
    shrink_recalibrations: u64,
    recalibration_errors: u64,
    recalibration_pause_ticks: u64,
    model_energy: Vec<EnergyBreakdown>,
    tile_writes: Vec<Vec<u64>>,
    failed_tiles: Vec<Vec<usize>>,
}

impl ServerMetrics {
    /// Requests currently queued server-wide (excludes requests already
    /// executing).
    pub fn queue_depth(&self) -> usize {
        self.queue_depth
    }

    /// The largest server-wide queue depth ever observed.
    pub fn queue_depth_high_water(&self) -> usize {
        self.queue_depth_high_water
    }

    /// Requests accepted into the queue so far (equals the next admission
    /// sequence number — rejected submissions consume none).
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Admission calls rejected with [`CoreError::QueueFull`] — one per
    /// failed call, so this matches the number of `QueueFull` errors
    /// submitters observed exactly (an all-or-nothing
    /// [`RaellaServer::submit_many`] counts once however many images it
    /// carried).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Admission calls that had to wait for queue space at least once
    /// before resolving (a timed-out submit counts here *and* in
    /// [`ServerMetrics::rejected`]).
    pub fn blocked(&self) -> u64 {
        self.blocked
    }

    /// Requests completed per model (responses delivered, success or
    /// error), indexed by model.
    pub fn served(&self) -> &[u64] {
        &self.served
    }

    /// Requests currently queued per model lane, indexed by model.
    pub fn queued(&self) -> &[usize] {
        &self.queued
    }

    /// Total worker time spent executing batches, in [`TICK`]s, across
    /// all workers.
    pub fn worker_busy_ticks(&self) -> u64 {
        self.worker_busy_ticks
    }

    /// Completed recalibration plan swaps (watchdog-triggered, manual,
    /// and fault-triggered), across all models.
    pub fn recalibrations(&self) -> u64 {
        self.recalibrations
    }

    /// The subset of [`ServerMetrics::recalibrations`] that shrank a
    /// plan onto surviving tiles
    /// ([`crate::policy::RecalibrationAction::Shrink`] — the tile-failure
    /// reroute), across all models.
    pub fn shrink_recalibrations(&self) -> u64 {
        self.shrink_recalibrations
    }

    /// Watchdog-triggered recalibration attempts that failed (a fidelity
    /// sample or the policy's action was rejected, or the policy
    /// panicked), across all models.
    /// Manual and fault-triggered attempts return their error to the
    /// caller instead. The server keeps serving on the unchanged plan.
    pub fn recalibration_errors(&self) -> u64 {
        self.recalibration_errors
    }

    /// Cumulative programmed cells per tile, indexed by model then tile
    /// (empty inner vectors for unsharded models): build-time placement
    /// plus every recalibration's writes — the wear signal recalibration
    /// policies level against.
    pub fn tile_writes(&self) -> &[Vec<u64>] {
        &self.tile_writes
    }

    /// Tiles reported dead via [`RaellaServer::fail_tile`], indexed by
    /// model, each ascending.
    pub fn failed_tiles(&self) -> &[Vec<usize>] {
        &self.failed_tiles
    }

    /// Total time spent deciding and installing recalibrations, in
    /// [`TICK`]s — the cumulative serving pause the swaps cost (each
    /// policy consultation counts at least one tick; the watchdog's
    /// fidelity sampling before it is not counted).
    pub fn recalibration_pause_ticks(&self) -> u64 {
        self.recalibration_pause_ticks
    }

    /// Cumulative energy breakdown per model, indexed by model: the sum
    /// of every successful response's [`Response::energy`] since the
    /// server started.
    pub fn model_energy(&self) -> &[EnergyBreakdown] {
        &self.model_energy
    }

    /// Cumulative energy per model in joules (breakdown totals are
    /// picojoules), indexed by model.
    pub fn joules_per_model(&self) -> Vec<f64> {
        self.model_energy
            .iter()
            .map(|e| e.total_pj() * 1e-12)
            .collect()
    }

    /// Server-wide ADC share of total energy across all models, in
    /// `[0, 1]` (0.0 before any request completes). The paper's headline
    /// metric: RAELLA's slicing strategies exist to push this down.
    pub fn adc_fraction(&self) -> f64 {
        let mut total = EnergyBreakdown::default();
        for e in &self.model_energy {
            total = total.add(e);
        }
        total.adc_fraction()
    }
}

/// A running RAELLA serving instance: compiled models, a coalescing
/// submission queue with optional depth bounds, and a pool of worker
/// threads popping per-model lanes round-robin.
///
/// Submission is `&self` and thread-safe — share the server by reference
/// (or `Arc`) across submitter threads. See the [module
/// docs](crate::server) for the admission, fairness, and determinism
/// contracts.
///
/// ```
/// use raella_core::server::RaellaServer;
/// use raella_core::RaellaConfig;
/// use raella_nn::graph::Graph;
/// use raella_nn::synth::SynthLayer;
/// use raella_nn::Tensor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = Graph::new();
/// let input = g.input();
/// let c = g.conv(input, SynthLayer::conv(2, 4, 3, 1).build(), 2, 3, 1, 1)?;
/// let gap = g.global_avg_pool(c);
/// g.set_output(gap);
/// let cfg = RaellaConfig { search_vectors: 2, ..RaellaConfig::default() };
///
/// let server = RaellaServer::builder().model(&g, &cfg).build()?;
/// let handles = server.submit_many(0, (0..3).map(|_| Tensor::zeros(&[2, 6, 6])))?;
/// let responses = RaellaServer::wait_all(handles)?;
/// assert_eq!(responses.len(), 3);
/// assert_eq!(responses[0].output(), responses[2].output());
/// assert_eq!(server.metrics().accepted(), 3);
/// server.shutdown(); // drains in-flight work, joins the workers
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct RaellaServer {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    worker_count: usize,
}

impl RaellaServer {
    /// Starts building a server.
    pub fn builder() -> ServerBuilder {
        ServerBuilder::new()
    }

    /// Submits one image to the model at `model` (builder insertion
    /// order; 0 is the first) and returns as soon as the request is
    /// queued; block on the handle for the response.
    ///
    /// `admission` says how the call waits while the queue is at a
    /// configured bound ([`ServerBuilder::queue_depth`] /
    /// [`ServerBuilder::model_queue_depth`]; an unbounded server never
    /// waits): [`Admission::Block`] until a slot frees,
    /// [`Admission::Fail`] not at all, or [`Admission::Deadline`] until
    /// the deadline. Shutdown always wins over newly freed space, so a
    /// request is never accepted into a draining server.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::QueueFull`] when [`Admission::Fail`] finds no
    /// free slot or an [`Admission::Deadline`] passes first, and
    /// [`CoreError::Server`] for an out-of-range model index or a
    /// shutdown. In every error case the request was not enqueued and
    /// holds no sequence number.
    pub fn submit(
        &self,
        model: usize,
        image: Tensor<u8>,
        admission: Admission,
    ) -> Result<RequestHandle, CoreError> {
        if model >= self.shared.models.len() {
            return Err(CoreError::Server(format!(
                "no model {model} (server holds {})",
                self.shared.models.len()
            )));
        }
        // Computed outside the queue lock (it takes the live read lock).
        let advance = self.shared.age_advance(model, &image);
        let config = self.shared.select_config(model);
        let mut state = self.shared.lock();
        if state.shutdown {
            return Err(CoreError::Server(format!(
                "server is shutting down; request for model {model} rejected"
            )));
        }
        // Fast path: room under both bounds and no earlier blocked
        // submitter waiting on this lane (freed slots are granted to the
        // lane's ticket FIFO first — nobody barges past it).
        if state.admissible(model, 1, &self.shared) {
            let handle = enqueue(
                &mut state,
                &self.shared.models[model],
                model,
                image,
                advance,
                config,
            );
            drop(state);
            self.shared.ready.notify_one();
            return Ok(handle);
        }
        let deadline = match admission {
            Admission::Fail => {
                self.shared.rejected.fetch_add(1, Ordering::SeqCst);
                return Err(CoreError::QueueFull {
                    model,
                    pending: state.total,
                });
            }
            Admission::Block => None,
            Admission::Deadline(deadline) => Some(deadline),
        };
        // Blocked admission: take a ticket and join the lane's waiter
        // FIFO. Grants happen strictly in ticket order — a woken
        // submitter whose ticket is not at the front goes back to
        // sleep, so arrival order is preserved no matter how the
        // condvar wakes threads.
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.lane_waiters[model].push_back(ticket);
        self.shared.blocked.fetch_add(1, Ordering::SeqCst);
        loop {
            if state.shutdown {
                state.abandon_ticket(model, ticket);
                return Err(CoreError::Server(format!(
                    "server is shutting down; request for model {model} rejected"
                )));
            }
            if state.lane_waiters[model].front() == Some(&ticket)
                && state.has_room(model, 1, &self.shared)
                && state.global_turn(model, ticket, &self.shared)
            {
                state.lane_waiters[model].pop_front();
                let handle = enqueue(
                    &mut state,
                    &self.shared.models[model],
                    model,
                    image,
                    advance,
                    config,
                );
                drop(state);
                // Cascade: room may remain for the next ticket.
                self.shared.space.notify_all();
                self.shared.ready.notify_one();
                return Ok(handle);
            }
            match deadline {
                None => {
                    state = self
                        .shared
                        .space
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        state.abandon_ticket(model, ticket);
                        let pending = state.total;
                        self.shared.rejected.fetch_add(1, Ordering::SeqCst);
                        drop(state);
                        // Our abandoned ticket may have been blocking the
                        // next waiter's grant.
                        self.shared.space.notify_all();
                        return Err(CoreError::QueueFull { model, pending });
                    }
                    let (next, _) = self
                        .shared
                        .space
                        .wait_timeout(state, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner);
                    state = next;
                }
            }
        }
    }

    /// Submits a stream of images to the model at `model`
    /// **all-or-nothing** with [`Admission::Fail`] semantics: every slot is
    /// reserved under one lock acquisition and the images enqueue as one
    /// contiguous run of the model's lane — so the handles come back in
    /// submission order with consecutive sequence numbers, and no
    /// interleaved submitter can land between them.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::QueueFull`] if the stream does not fit under
    /// the queue bounds in its entirety — in that case *nothing* was
    /// enqueued (counted as one rejection in [`ServerMetrics::rejected`])
    /// — or [`CoreError::Server`] for an out-of-range model index or a
    /// shutdown.
    pub fn submit_many(
        &self,
        model: usize,
        images: impl IntoIterator<Item = Tensor<u8>>,
    ) -> Result<Vec<RequestHandle>, CoreError> {
        if model >= self.shared.models.len() {
            return Err(CoreError::Server(format!(
                "no model {model} (server holds {})",
                self.shared.models.len()
            )));
        }
        let images: Vec<Tensor<u8>> = images.into_iter().collect();
        if images.is_empty() {
            return Ok(Vec::new());
        }
        // Computed outside the queue lock (it takes the live read lock).
        let advances: Vec<u64> = images
            .iter()
            .map(|image| self.shared.age_advance(model, image))
            .collect();
        let config = self.shared.select_config(model);
        let mut state = self.shared.lock();
        if state.shutdown {
            return Err(CoreError::Server(format!(
                "server is shutting down; request for model {model} rejected"
            )));
        }
        if !state.admissible(model, images.len(), &self.shared) {
            self.shared.rejected.fetch_add(1, Ordering::SeqCst);
            return Err(CoreError::QueueFull {
                model,
                pending: state.total,
            });
        }
        let handles = images
            .into_iter()
            .zip(advances)
            .map(|(image, advance)| {
                enqueue(
                    &mut state,
                    &self.shared.models[model],
                    model,
                    image,
                    advance,
                    config,
                )
            })
            .collect();
        drop(state);
        // Several batches may now be ready at once.
        self.shared.ready.notify_all();
        Ok(handles)
    }

    /// Waits on many handles, returning responses in handle order
    /// (= submission order for [`RaellaServer::submit_many`]). Routed
    /// through [`RaellaServer::wait_all_within`] with a
    /// [`WAIT_ALL_TIMEOUT`] overall deadline, so a wedged request
    /// surfaces as an error instead of hanging the caller forever.
    ///
    /// # Errors
    ///
    /// Returns the first failure ([`RequestHandle::wait`] semantics), or
    /// [`CoreError::Server`] if the whole set has not completed within
    /// [`WAIT_ALL_TIMEOUT`].
    pub fn wait_all(
        handles: impl IntoIterator<Item = RequestHandle>,
    ) -> Result<Vec<Response>, CoreError> {
        Self::wait_all_within(handles, WAIT_ALL_TIMEOUT)
    }

    /// [`RaellaServer::wait_all`] with an explicit overall deadline:
    /// every handle must resolve within `timeout` of the call, together.
    ///
    /// # Errors
    ///
    /// As [`RaellaServer::wait_all`]; [`CoreError::Server`] names the
    /// first sequence number still pending when the deadline passes.
    pub fn wait_all_within(
        handles: impl IntoIterator<Item = RequestHandle>,
        timeout: Duration,
    ) -> Result<Vec<Response>, CoreError> {
        let deadline = Instant::now() + timeout;
        handles
            .into_iter()
            .map(|mut handle| {
                let remaining = deadline.saturating_duration_since(Instant::now());
                match handle.wait_timeout(remaining) {
                    Some(result) => result,
                    None => Err(CoreError::Server(format!(
                        "request {} did not complete within the wait_all deadline ({:?})",
                        handle.sequence(),
                        timeout
                    ))),
                }
            })
            .collect()
    }

    /// Snapshots the queue and admission counters — depth and high-water
    /// mark, accepted/rejected/blocked admission counts, per-model
    /// served/queued, and worker busy time. See [`ServerMetrics`].
    pub fn metrics(&self) -> ServerMetrics {
        let state = self.shared.lock();
        ServerMetrics {
            queue_depth: state.total,
            queue_depth_high_water: state.high_water,
            accepted: state.next_seq,
            rejected: self.shared.rejected.load(Ordering::SeqCst),
            blocked: self.shared.blocked.load(Ordering::SeqCst),
            served: self
                .shared
                .served
                .iter()
                .map(|c| c.load(Ordering::SeqCst))
                .collect(),
            queued: state.lanes.iter().map(VecDeque::len).collect(),
            worker_busy_ticks: self.shared.busy_ticks.load(Ordering::Relaxed),
            recalibrations: self.shared.recal.recalibrations.load(Ordering::SeqCst),
            shrink_recalibrations: self.shared.recal.shrinks.load(Ordering::SeqCst),
            recalibration_errors: self.shared.recal.errors.load(Ordering::SeqCst),
            recalibration_pause_ticks: self.shared.recal.pause_ticks.load(Ordering::SeqCst),
            model_energy: lock(&self.shared.energy_totals).clone(),
            tile_writes: self
                .shared
                .models
                .iter()
                .map(|m| lock(&m.tile_writes).clone())
                .collect(),
            failed_tiles: self
                .shared
                .models
                .iter()
                .map(|m| lock(&m.failed_tiles).clone())
                .collect(),
        }
    }

    /// The live compiled model at `index` — a snapshot handle: a
    /// recalibration swap replaces the server's copy but never mutates
    /// the one returned here.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range (see
    /// [`RaellaServer::model_count`]).
    pub fn model(&self, index: usize) -> Arc<CompiledModel> {
        Arc::clone(&self.shared.models[index].snapshot().base().model)
    }

    /// The live tile placement of the model at `index`, if the server is
    /// sharded ([`ServerBuilder::shards`]) — a snapshot handle, like
    /// [`RaellaServer::model`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn shard_plan(&self, index: usize) -> Option<Arc<ShardPlan>> {
        self.shared.models[index].snapshot().plan
    }

    /// Programming generation of the live model at `index` (increments
    /// on every recalibration).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn generation(&self, index: usize) -> u64 {
        self.shared.models[index].snapshot().generation
    }

    /// Device age of the model at `index`: served vectors admitted since
    /// it was last (re)programmed.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn device_age(&self, index: usize) -> u64 {
        self.shared.models[index].age.load(Ordering::SeqCst)
    }

    /// Manually triggers a recalibration of the model at `index` — the
    /// same policy consultation the fidelity watchdog runs, with
    /// [`RecalTrigger::Manual`] and no sampled breaches. Under the
    /// default [`crate::policy::RotatePolicy`] this is the classic swap:
    /// reprogram to the next generation, rotate the shard plan onto
    /// fresh tiles, install atomically between batches, zero the device
    /// age. Returns `Ok(false)` if another recalibration of this model
    /// was already in flight or the policy declined.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Server`] for an out-of-range index, an
    /// action the live state cannot honor or a panicking policy, and
    /// propagates reprogramming errors (the old snapshot stays live
    /// either way).
    pub fn recalibrate(&self, index: usize) -> Result<bool, CoreError> {
        let served = self.served(index)?;
        self.shared
            .recal
            .recalibrate(served, index, RecalTrigger::Manual)
    }

    /// Reports tile `tile` of the model at `index` dead — the
    /// fault-injection hook. The failure is recorded permanently and the
    /// recalibration policy is consulted immediately with
    /// [`RecalTrigger::Fault`]; under the default policy the plan
    /// shrinks onto the surviving tiles ([`ShardPlan::shrink_onto`]) and
    /// the model reprograms, installed atomically between batches — zero
    /// drain, zero rejected requests, every queued and in-flight request
    /// completes, and every response still replays offline via
    /// `(generation, age)`.
    ///
    /// Returns whether a swap happened. `Ok(false)` means another
    /// recalibration was in flight (or the policy declined); the failure
    /// stays recorded and the watchdog retries the reroute at its next
    /// interval for as long as the live plan touches a failed tile.
    /// Reporting an already-failed tile is idempotent and re-runs the
    /// consultation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Server`] for an out-of-range model index, an
    /// unsharded model, a tile the plan does not have or a panicking
    /// policy — and when every tile has failed (the server refuses to
    /// shrink onto nothing; the stale plan stays live).
    pub fn fail_tile(&self, index: usize, tile: usize) -> Result<bool, CoreError> {
        let served = self.served(index)?;
        served.fail_tile(index, tile)?;
        self.shared
            .recal
            .recalibrate(served, index, RecalTrigger::Fault)
    }

    /// The served model at `index`, or [`CoreError::Server`] naming the
    /// server's model count.
    fn served(&self, index: usize) -> Result<&ServedModel, CoreError> {
        self.shared.models.get(index).ok_or_else(|| {
            CoreError::Server(format!(
                "no model {index} (server holds {})",
                self.shared.models.len()
            ))
        })
    }

    /// Tiles of the model at `index` reported dead via
    /// [`RaellaServer::fail_tile`] so far, ascending (empty for an
    /// unsharded model or while everything is healthy).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn failed_tiles(&self, index: usize) -> Vec<usize> {
        lock(&self.shared.models[index].failed_tiles).clone()
    }

    /// Cumulative programmed cells per tile for the model at `index`
    /// (index = tile; empty for an unsharded model): the build-time
    /// placement plus every recalibration's writes under the live plan —
    /// the wear signal [`crate::policy::WearAwarePolicy`] levels
    /// against. Also surfaced by [`ServerMetrics::tile_writes`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn tile_writes(&self, index: usize) -> Vec<u64> {
        lock(&self.shared.models[index].tile_writes).clone()
    }

    /// Per-tile statistics aggregated over every request the model at
    /// `index` has served so far (empty for an unsharded server). The
    /// buckets merge to the sum of all served requests' stats.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn tile_stats(&self, index: usize) -> Vec<RunStats> {
        lock(&self.shared.tile_totals)[index].clone()
    }

    /// Number of models served.
    pub fn model_count(&self) -> usize {
        self.shared.models.len()
    }

    /// Number of worker threads the server was built with.
    pub fn worker_count(&self) -> usize {
        self.worker_count
    }

    /// Requests currently queued (excludes requests already executing).
    pub fn pending(&self) -> usize {
        self.shared.lock().total
    }

    /// The compile cache this server's models were compiled through.
    pub fn compile_cache(&self) -> &SharedCompileCache {
        &self.shared.cache
    }

    /// Graceful shutdown: stops accepting work, wakes and rejects every
    /// submitter blocked in admission, drains every already accepted
    /// request, and joins the workers. Takes `&self` so it can race
    /// in-flight submitters (a blocked [`RaellaServer::submit`] returns
    /// [`CoreError::Server`] rather than enqueueing into a draining
    /// server); idempotent, and also runs on `Drop`.
    pub fn shutdown(&self) {
        {
            let mut state = self.shared.lock();
            state.shutdown = true;
        }
        self.shared.ready.notify_all();
        self.shared.space.notify_all();
        let mut workers = lock(&self.workers);
        for handle in workers.drain(..) {
            join_or_resume(handle);
        }
    }
}

/// Enqueues one accepted request (the caller has already checked bounds
/// and shutdown) and returns its handle. Keeps `total`, the high-water
/// mark, the dense admission sequence, and the model's device age in
/// sync under the caller's lock — the request is stamped with the age
/// *before* its own vectors, then ages the device by `advance`.
fn enqueue(
    state: &mut QueueState,
    served: &ServedModel,
    model: usize,
    image: Tensor<u8>,
    advance: u64,
    config: usize,
) -> RequestHandle {
    let seq = state.next_seq;
    state.next_seq += 1;
    // Only admissions (under the caller's queue lock) advance the age, so
    // the stamp follows lane order; a recalibration's reset is the one
    // concurrent write, and the read-modify-write cannot lose it.
    let age = served
        .age
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |a| {
            Some(a.saturating_add(advance))
        })
        .unwrap_or_else(|a| a);
    let cell = CompletionCell::new();
    state.lanes[model].push_back(Request {
        model,
        seq,
        age,
        config,
        image,
        submitted: Instant::now(),
        completer: Completer {
            cell: Arc::clone(&cell),
            seq,
            sent: false,
        },
    });
    state.total += 1;
    state.high_water = state.high_water.max(state.total);
    RequestHandle { seq, model, cell }
}

impl Drop for RaellaServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raella_nn::synth::SynthLayer;

    fn tiny_graph() -> Graph {
        let mut g = Graph::new();
        let input = g.input();
        let c = g
            .conv(input, SynthLayer::conv(2, 4, 3, 1).build(), 2, 3, 1, 1)
            .unwrap();
        let gap = g.global_avg_pool(c);
        let fc = g.linear(gap, SynthLayer::linear(4, 6, 3).build());
        g.set_output(fc);
        g
    }

    fn tiny_cfg() -> RaellaConfig {
        RaellaConfig {
            crossbar_rows: 64,
            crossbar_cols: 64,
            search_vectors: 2,
            ..RaellaConfig::default()
        }
    }

    fn sample_image(seed: u64) -> Tensor<u8> {
        use raella_nn::rng::SynthRng;
        let mut rng = SynthRng::new(seed);
        let data: Vec<u8> = (0..2 * 8 * 8)
            .map(|_| rng.exponential(30.0).min(255.0) as u8)
            .collect();
        Tensor::from_vec(data, &[2, 8, 8]).unwrap()
    }

    fn build_tiny(workers: usize, max_batch: usize, budget: u64) -> RaellaServer {
        RaellaServer::builder()
            .model(&tiny_graph(), &tiny_cfg())
            .compile_cache(SharedCompileCache::new())
            .workers(workers)
            .max_batch(max_batch)
            .latency_budget_ticks(budget)
            .build()
            .expect("tiny server builds")
    }

    /// A single-model server whose lone worker parks: the batch can't
    /// fill (`max_batch` 64) and the budget is effectively infinite, so
    /// everything submitted stays queued until shutdown drains it —
    /// deterministic ground for admission-edge tests.
    fn build_parked(queue_depth: usize, model_queue_depth: usize) -> RaellaServer {
        RaellaServer::builder()
            .model(&tiny_graph(), &tiny_cfg())
            .compile_cache(SharedCompileCache::new())
            .workers(1)
            .max_batch(64)
            .latency_budget_ticks(5_000_000)
            .queue_depth(queue_depth)
            .model_queue_depth(model_queue_depth)
            .build()
            .expect("parked server builds")
    }

    #[test]
    fn builder_rejects_zero_models() {
        let err = RaellaServer::builder().build().unwrap_err();
        assert!(matches!(err, CoreError::Server(_)), "{err}");
    }

    #[test]
    fn responses_match_run_batch_in_submission_order() {
        let server = build_tiny(2, 2, 100);
        let images: Vec<Tensor<u8>> = (0..5).map(sample_image).collect();
        let expected = server.model(0).run_batch(&images).unwrap();
        let handles = server.submit_many(0, images).unwrap();
        let responses = RaellaServer::wait_all(handles).unwrap();
        for (i, (resp, want)) in responses.iter().zip(expected.outputs()).enumerate() {
            assert_eq!(resp.output(), want, "request {i}");
            assert_eq!(resp.predicted(), argmax(want.as_slice()));
            assert_eq!(resp.sequence(), i as u64);
            assert!(resp.batch_size() >= 1 && resp.batch_size() <= 2);
        }
        let mut merged = RunStats::default();
        for resp in &responses {
            merged.merge(resp.stats());
        }
        assert_eq!(&merged, expected.stats());
        // Unbounded server: nothing blocked, nothing rejected.
        let metrics = server.metrics();
        assert_eq!(metrics.accepted(), 5);
        assert_eq!(metrics.rejected(), 0);
        assert_eq!(metrics.blocked(), 0);
        assert_eq!(metrics.served(), &[5]);
        assert!(metrics.queue_depth_high_water() >= 1);
        assert!(metrics.worker_busy_ticks() > 0);
        server.shutdown();
    }

    #[test]
    fn misshaped_image_fails_only_its_request() {
        let server = build_tiny(1, 4, 0);
        let good = server.submit(0, sample_image(1), Admission::Block).unwrap();
        let bad = server
            .submit(0, Tensor::zeros(&[7, 8, 8]), Admission::Block)
            .unwrap();
        assert!(good.wait().is_ok());
        assert!(bad.wait().is_err());
        // Failed executions still count as served (a response was
        // delivered).
        assert_eq!(server.metrics().served(), &[2]);
        server.shutdown();
    }

    #[test]
    fn submit_to_unknown_model_errors() {
        let server = build_tiny(1, 1, 0);
        assert!(server.submit(1, sample_image(0), Admission::Block).is_err());
        assert!(server.submit(1, sample_image(0), Admission::Fail).is_err());
        assert!(server
            .submit(
                1,
                sample_image(0),
                Admission::Deadline(Instant::now() + Duration::from_millis(1))
            )
            .is_err());
        assert!(server.submit_many(1, [sample_image(0)]).is_err());
        // Unknown-model errors are not queue rejections.
        assert_eq!(server.metrics().rejected(), 0);
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_pending_requests() {
        // A long budget and large batch leave requests parked in the
        // queue; shutdown must still flush them.
        let server = build_tiny(1, 64, 5_000_000);
        let handles = server.submit_many(0, (0..3).map(sample_image)).unwrap();
        let (out0, _) = server.model(0).run_image(&sample_image(0)).unwrap();
        server.shutdown();
        let responses = RaellaServer::wait_all(handles).unwrap();
        assert_eq!(responses.len(), 3);
        assert_eq!(responses[0].output(), &out0);
    }

    #[test]
    fn try_submit_fails_fast_at_both_bounds_and_counts_rejections() {
        // Global bound.
        let server = build_parked(1, 0);
        let held = server.submit(0, sample_image(0), Admission::Fail).unwrap();
        let err = server
            .submit(0, sample_image(1), Admission::Fail)
            .unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::QueueFull {
                    model: 0,
                    pending: 1
                }
            ),
            "{err}"
        );
        let metrics = server.metrics();
        assert_eq!(metrics.rejected(), 1);
        assert_eq!(metrics.accepted(), 1);
        assert_eq!(metrics.queue_depth(), 1);
        assert_eq!(metrics.queue_depth_high_water(), 1);
        server.shutdown();
        assert!(held.wait().is_ok(), "accepted request drains on shutdown");

        // Per-model bound with a roomy global bound.
        let server = build_parked(8, 1);
        let held = server.submit(0, sample_image(0), Admission::Fail).unwrap();
        let err = server
            .submit(0, sample_image(1), Admission::Fail)
            .unwrap_err();
        assert!(matches!(err, CoreError::QueueFull { .. }), "{err}");
        assert_eq!(server.metrics().rejected(), 1);
        server.shutdown();
        assert!(held.wait().is_ok());
    }

    #[test]
    fn submit_timeout_expires_while_worker_is_parked() {
        let server = build_parked(1, 0);
        let held = server.submit(0, sample_image(0), Admission::Fail).unwrap();
        let t0 = Instant::now();
        let err = server
            .submit(
                0,
                sample_image(1),
                Admission::Deadline(Instant::now() + Duration::from_millis(20)),
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::QueueFull { .. }), "{err}");
        assert!(
            t0.elapsed() >= Duration::from_millis(20),
            "timed submit must actually wait the timeout out"
        );
        let metrics = server.metrics();
        // The expiry counts as both a blocked wait and a rejection.
        assert_eq!(metrics.rejected(), 1);
        assert_eq!(metrics.blocked(), 1);
        server.shutdown();
        assert!(held.wait().is_ok());
    }

    #[test]
    fn blocked_submit_is_woken_and_rejected_by_shutdown() {
        let server = build_parked(1, 0);
        let held = server.submit(0, sample_image(0), Admission::Fail).unwrap();
        std::thread::scope(|scope| {
            let blocked = scope.spawn(|| server.submit(0, sample_image(1), Admission::Block));
            // Wait until the submitter is provably parked in admission,
            // then shut down underneath it.
            while server.metrics().blocked() < 1 {
                std::thread::yield_now();
            }
            server.shutdown();
            let err = blocked.join().expect("submitter survives").unwrap_err();
            assert!(
                matches!(&err, CoreError::Server(msg) if msg.contains("shutting down")),
                "woken submit must reject, not enqueue into a draining server: {err}"
            );
        });
        // The accepted request was drained, the rejected one never
        // existed: no stranded handles, no accepted-then-dropped work.
        assert!(held.wait().is_ok());
        let metrics = server.metrics();
        assert_eq!(metrics.accepted(), 1);
        assert_eq!(metrics.blocked(), 1);
        assert_eq!(metrics.queue_depth(), 0);
    }

    #[test]
    fn submit_many_is_all_or_nothing_under_bounds() {
        let server = build_parked(3, 0);
        let first = server
            .submit_many(0, (0..2).map(sample_image))
            .expect("2 of 3 slots fit");
        assert_eq!(first.len(), 2);
        // 2 queued + 2 more > depth 3: the whole call must reject without
        // enqueueing anything.
        let err = server.submit_many(0, (2..4).map(sample_image)).unwrap_err();
        assert!(matches!(err, CoreError::QueueFull { .. }), "{err}");
        let metrics = server.metrics();
        assert_eq!(metrics.queued(), &[2], "partial enqueue leaked");
        assert_eq!(metrics.accepted(), 2);
        assert_eq!(metrics.rejected(), 1, "all-or-nothing counts one call");
        // The last free slot still admits a fitting stream, contiguously
        // numbered after the first.
        let third = server
            .submit_many(0, [sample_image(4)])
            .expect("1 slot left");
        assert_eq!(third[0].sequence(), 2);
        server.shutdown();
        for handle in first.into_iter().chain(third) {
            assert!(handle.wait().is_ok(), "accepted requests drain");
        }
    }

    #[test]
    fn wait_all_over_mixed_delivered_and_rejected_submissions() {
        let server = build_parked(2, 0);
        let expected: Vec<Tensor<u8>> = (0..2)
            .map(|i| server.model(0).run_image(&sample_image(i)).unwrap().0)
            .collect();
        let (mut delivered, mut rejections) = (Vec::new(), 0u64);
        for i in 0..5 {
            match server.submit(0, sample_image(i % 2), Admission::Fail) {
                Ok(handle) => delivered.push(((i % 2) as usize, handle)),
                Err(CoreError::QueueFull { .. }) => rejections += 1,
                Err(other) => panic!("unexpected admission error: {other}"),
            }
        }
        assert_eq!(delivered.len(), 2, "depth-2 queue admits exactly 2");
        assert_eq!(rejections, 3);
        assert_eq!(server.metrics().rejected(), rejections);
        server.shutdown();
        let (wants, handles): (Vec<usize>, Vec<RequestHandle>) = delivered.into_iter().unzip();
        let responses = RaellaServer::wait_all(handles).unwrap();
        for (resp, want) in responses.iter().zip(wants) {
            assert_eq!(resp.output(), &expected[want], "delivered bytes");
        }
    }

    /// A graph whose first linear layer spans three 64-row groups, so a
    /// sharded server actually row-splits it.
    fn long_graph() -> Graph {
        let mut g = Graph::new();
        let input = g.input();
        let gap = g.global_avg_pool(input);
        let fc1 = g.linear(gap, SynthLayer::linear(150, 8, 3).build());
        let fc2 = g.linear(fc1, SynthLayer::linear(8, 4, 5).build());
        g.set_output(fc2);
        g
    }

    fn long_image(seed: u64) -> Tensor<u8> {
        use raella_nn::rng::SynthRng;
        let mut rng = SynthRng::new(seed);
        let data: Vec<u8> = (0..150 * 2 * 2)
            .map(|_| rng.exponential(30.0).min(255.0) as u8)
            .collect();
        Tensor::from_vec(data, &[150, 2, 2]).unwrap()
    }

    #[test]
    fn sharded_server_matches_unsharded_and_aggregates_tiles() {
        use raella_arch::tile::TileSpec;
        let images: Vec<Tensor<u8>> = (0..4).map(long_image).collect();
        let sharded = RaellaServer::builder()
            .model(&long_graph(), &tiny_cfg())
            .compile_cache(SharedCompileCache::new())
            .workers(2)
            .max_batch(2)
            .latency_budget_ticks(50)
            .shards(3)
            .tile_spec(TileSpec::new(64, 64))
            .build()
            .unwrap();
        let plan = sharded.shard_plan(0).expect("sharded server has a plan");
        assert_eq!(plan.tiles(), 3);
        assert!(plan.split_layer_count() >= 1, "fc1 must row-split");
        let baseline = sharded.model(0).run_batch(&images).unwrap();

        let handles = sharded.submit_many(0, images.iter().cloned()).unwrap();
        let responses = RaellaServer::wait_all(handles).unwrap();
        let mut merged = RunStats::default();
        for (i, (resp, want)) in responses.iter().zip(baseline.outputs()).enumerate() {
            assert_eq!(resp.output(), want, "request {i}");
            assert_eq!(resp.tile_stats().len(), 3, "request {i}");
            // The per-request stats are the merge of the tile buckets.
            let mut tiles = RunStats::default();
            for bucket in resp.tile_stats() {
                tiles.merge(bucket);
            }
            assert_eq!(&tiles, resp.stats(), "request {i}");
            merged.merge(resp.stats());
        }
        assert_eq!(&merged, baseline.stats(), "sharding changed the stats");

        // Server-wide aggregation: tile buckets merge to everything served.
        let totals = sharded.tile_stats(0);
        assert_eq!(totals.len(), 3);
        let mut total = RunStats::default();
        for bucket in &totals {
            total.merge(bucket);
        }
        assert_eq!(&total, baseline.stats());
        // Unsharded servers expose no per-tile data.
        let plain = build_tiny(1, 1, 0);
        assert!(plain.shard_plan(0).is_none());
        assert!(plain.tile_stats(0).is_empty());
        let resp = plain
            .submit(0, sample_image(1), Admission::Block)
            .unwrap()
            .wait()
            .unwrap();
        assert!(resp.tile_stats().is_empty());
        plain.shutdown();
        sharded.shutdown();
    }

    #[test]
    fn responses_carry_additive_energy_and_metrics_aggregate_it() {
        use raella_arch::tile::TileSpec;
        use raella_energy::meter::MeterEvents;
        let images: Vec<Tensor<u8>> = (0..3).map(long_image).collect();
        let server = RaellaServer::builder()
            .model(&long_graph(), &tiny_cfg())
            .compile_cache(SharedCompileCache::new())
            .workers(2)
            .max_batch(2)
            .latency_budget_ticks(50)
            .shards(3)
            .tile_spec(TileSpec::new(64, 64))
            .build()
            .unwrap();
        let handles = server.submit_many(0, images.iter().cloned()).unwrap();
        let responses = RaellaServer::wait_all(handles).unwrap();
        for (i, resp) in responses.iter().enumerate() {
            assert!(resp.energy().total_pj() > 0.0, "request {i}");
            let frac = resp.energy().adc_fraction();
            assert!(frac > 0.0 && frac < 1.0, "request {i}: {frac}");
            // Per-tile parts sum bit-exactly to the whole: the meter
            // prices merged integer counters, so this is == not ≈.
            assert_eq!(resp.tile_energy().len(), 3, "request {i}");
            let tiles = resp
                .tile_stats()
                .iter()
                .fold(MeterEvents::default(), |acc, s| acc.add(&s.meter_events()));
            assert_eq!(tiles, resp.stats().meter_events(), "request {i}");
            // Pricing the merged counters reproduces the response's
            // breakdown bit-for-bit.
            let events: Vec<MeterEvents> =
                resp.tile_stats().iter().map(|s| s.meter_events()).collect();
            let merged = server.model(0).energy_meter().merged_breakdown(&events);
            assert_eq!(&merged, resp.energy(), "request {i}");
            // And the offline breakdown of the merged stats agrees.
            assert_eq!(
                &server.model(0).energy_breakdown(resp.stats()),
                resp.energy(),
                "request {i}"
            );
        }
        // Server metrics accumulate the responses' breakdowns.
        let metrics = server.metrics();
        assert_eq!(metrics.model_energy().len(), 1);
        assert!(metrics.model_energy()[0].total_pj() > 0.0);
        assert_eq!(
            metrics.joules_per_model()[0],
            metrics.model_energy()[0].total_pj() * 1e-12
        );
        let frac = metrics.adc_fraction();
        assert!(frac > 0.0 && frac < 1.0, "{frac}");
        server.shutdown();
    }

    #[test]
    fn energy_budget_selects_a_variant_and_replays_offline() {
        let cfg = tiny_cfg();
        let ladder = energy_config_ladder(&cfg);
        assert!(ladder.len() > 1, "tiny config must offer alternatives");

        // A generous budget admits the cheapest fidelity-holding
        // variant; a sub-picojoule budget admits nothing and falls back
        // to the base config.
        for (budget, expect_base) in [(f64::MAX, false), (1e-9, true)] {
            let server = RaellaServer::builder()
                .model(&tiny_graph(), &cfg)
                .compile_cache(SharedCompileCache::new())
                .workers(1)
                .max_batch(2)
                .latency_budget_ticks(0)
                .energy_budget_pj(0, budget)
                .build()
                .unwrap();
            let image = sample_image(7);
            let resp = server
                .submit(0, image.clone(), Admission::Block)
                .unwrap()
                .wait()
                .unwrap();
            let sel = resp.selected_config();
            assert!(sel < ladder.len());
            if expect_base {
                assert_eq!(sel, 0, "nothing fits a {budget} pJ budget");
            }
            // Bit-exact offline replay from the recorded selection: the
            // ladder entry, compiled fresh, reproduces output, stats,
            // and energy.
            let offline = CompiledModel::compile(&tiny_graph(), &ladder[sel]).unwrap();
            let (out, stats) = offline.run_image_at_age(&image, resp.age()).unwrap();
            assert_eq!(&out, resp.output());
            assert_eq!(&stats, resp.stats());
            assert_eq!(&offline.energy_breakdown(&stats), resp.energy());
            // Selection is admission-state only: a second identical
            // request picks the same config (memoized per epoch).
            let again = server
                .submit(0, image.clone(), Admission::Block)
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(again.selected_config(), sel);
            assert_eq!(again.output(), resp.output());
            server.shutdown();
        }

        // Budget validation: unknown model index and degenerate budgets
        // fail the build.
        for bad in [f64::NAN, 0.0, -1.0] {
            let err = RaellaServer::builder()
                .model(&tiny_graph(), &cfg)
                .energy_budget_pj(0, bad)
                .build()
                .unwrap_err();
            assert!(matches!(err, CoreError::Server(_)), "{err}");
        }
        let err = RaellaServer::builder()
            .model(&tiny_graph(), &cfg)
            .energy_budget_pj(5, 1.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, CoreError::Server(_)), "{err}");
    }

    #[test]
    fn manual_recalibration_swaps_generation_and_resets_age() {
        use raella_xbar::lifetime::DeviceLifetime;
        let cfg = RaellaConfig {
            lifetime: DeviceLifetime::new(0.4, 0.05, 8),
            noise: raella_xbar::noise::NoiseModel::new(0.05),
            ..tiny_cfg()
        };
        let server = RaellaServer::builder()
            .model(&long_graph(), &cfg)
            .compile_cache(SharedCompileCache::new())
            .workers(1)
            .max_batch(4)
            .latency_budget_ticks(0)
            .shards(3)
            .tile_spec(TileSpec::new(64, 64))
            .build()
            .unwrap();
        assert_eq!(server.generation(0), 0);
        assert_eq!(server.device_age(0), 0);

        let img = long_image(3);
        let before = server
            .submit(0, img.clone(), Admission::Block)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(before.generation(), 0);
        assert_eq!(before.age(), 0);
        // Admission aged the device by the image's vector count.
        let per_image = server.model(0).vectors_per_image(&img).unwrap();
        assert!(per_image > 0);
        assert_eq!(server.device_age(0), per_image);

        let gen0 = server.model(0);
        assert!(server.recalibrate(0).unwrap());
        assert_eq!(server.generation(0), 1);
        assert_eq!(server.device_age(0), 0, "swap zeroes the age");
        // The pre-swap snapshot handle is untouched; the live model is a
        // different, freshly programmed object.
        assert!(!Arc::ptr_eq(&gen0, &server.model(0)));

        let after = server
            .submit(0, img.clone(), Admission::Block)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(after.generation(), 1);
        assert_eq!(after.age(), 0);
        // Each response reproduces offline from its (generation, age).
        let (want_before, _) = gen0.run_image(&img).unwrap();
        assert_eq!(before.output(), &want_before);
        let (want_after, _) = server.model(0).run_image(&img).unwrap();
        assert_eq!(after.output(), &want_after);

        let metrics = server.metrics();
        assert_eq!(metrics.recalibrations(), 1);
        assert!(metrics.recalibration_pause_ticks() >= 1);

        // An out-of-range index is a server error, not a swap.
        assert!(server.recalibrate(7).is_err());
        server.shutdown();
    }

    #[test]
    fn try_wait_polls_none_until_ready_then_spends_the_handle() {
        // A huge latency budget and an undersized batch park the request:
        // try_wait must observe the pending state.
        let server = build_tiny(1, 64, 5_000_000);
        let mut handle = server.submit(0, sample_image(1), Admission::Block).unwrap();
        assert!(handle.try_wait().is_none(), "queued request must poll None");
        // Shutdown drains the parked request; the buffered response
        // survives the workers.
        server.shutdown();
        let resp = handle
            .try_wait()
            .expect("drained request has a buffered response")
            .expect("request succeeds");
        assert_eq!(resp.sequence(), 0);
        // The handle is now spent: polls return None, wait errors.
        assert!(handle.try_wait().is_none());
        let err = handle.wait().unwrap_err();
        assert!(
            matches!(&err, CoreError::Server(msg) if msg.contains("already taken")),
            "{err}"
        );
    }

    /// A pending handle/completer pair outside any server — the unit
    /// surface for delivery-semantics tests.
    fn bare_pair(seq: u64) -> (RequestHandle, Completer) {
        let cell = CompletionCell::new();
        (
            RequestHandle {
                seq,
                model: 0,
                cell: Arc::clone(&cell),
            },
            Completer {
                cell,
                seq,
                sent: false,
            },
        )
    }

    #[test]
    fn dropped_server_surfaces_as_error_not_hang() {
        // A handle whose completer vanished without responding (the
        // dropped-server path) must error on both wait flavors.
        let (mut polled, completer) = bare_pair(9);
        drop(completer);
        match polled.try_wait() {
            Some(Err(CoreError::Server(msg))) => assert!(msg.contains("dropped"), "{msg}"),
            other => panic!("expected dropped-server error, got {other:?}"),
        }
        assert!(
            polled.try_wait().is_none(),
            "error delivery spends the handle"
        );

        let (waited, completer) = bare_pair(10);
        drop(completer);
        let err = waited.wait().unwrap_err();
        assert!(
            matches!(&err, CoreError::Server(msg) if msg.contains("dropped")),
            "{err}"
        );
    }

    /// Polls a future once against a counting waker; returns the poll
    /// result and the waker's cumulative wake count handle.
    fn poll_once<F: Future + Unpin>(fut: &mut F, wakes: &Arc<AtomicU64>) -> Poll<F::Output> {
        struct CountWaker(Arc<AtomicU64>);
        impl std::task::Wake for CountWaker {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let waker = std::task::Waker::from(Arc::new(CountWaker(Arc::clone(wakes))));
        let mut cx = Context::from_waker(&waker);
        Pin::new(fut).poll(&mut cx)
    }

    fn ok_response(seq: u64) -> Response {
        Response {
            output: Tensor::zeros(&[1]),
            predicted: 0,
            stats: RunStats::default(),
            tile_stats: Vec::new(),
            energy: EnergyBreakdown::default(),
            tile_energy: Vec::new(),
            config: 0,
            seq,
            model: 0,
            age: 0,
            generation: 0,
            layer_gens: Arc::new(Vec::new()),
            queue_ticks: 0,
            compute_ticks: 0,
            batch_size: 1,
        }
    }

    #[test]
    fn waker_register_then_complete_fires_exactly_once() {
        let (handle, completer) = bare_pair(0);
        let fired = Arc::new(AtomicU64::new(0));
        let observer = Arc::clone(&fired);
        handle.on_complete(move || {
            observer.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(fired.load(Ordering::SeqCst), 0, "nothing completed yet");
        completer.complete(Ok(ok_response(0)));
        assert_eq!(
            fired.load(Ordering::SeqCst),
            1,
            "completion fires the waker"
        );
        // The callback only signals; the result is still consumable.
        assert!(handle.wait().is_ok());
    }

    #[test]
    fn waker_complete_then_register_fires_immediately() {
        let (handle, completer) = bare_pair(1);
        completer.complete(Ok(ok_response(1)));
        let fired = Arc::new(AtomicU64::new(0));
        let observer = Arc::clone(&fired);
        handle.on_complete(move || {
            observer.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(
            fired.load(Ordering::SeqCst),
            1,
            "late registration must fire on the spot, not never"
        );
        // Re-registration after completion fires again immediately (the
        // completion already happened; the callback can't be stored).
        let observer = Arc::clone(&fired);
        handle.on_complete(move || {
            observer.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(fired.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn reregistration_replaces_the_pending_waker() {
        let (handle, completer) = bare_pair(2);
        let (first, second) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let observer = Arc::clone(&first);
        handle.on_complete(move || {
            observer.fetch_add(1, Ordering::SeqCst);
        });
        let observer = Arc::clone(&second);
        handle.on_complete(move || {
            observer.fetch_add(1, Ordering::SeqCst);
        });
        completer.complete(Ok(ok_response(2)));
        assert_eq!(
            first.load(Ordering::SeqCst),
            0,
            "replaced waker never fires"
        );
        assert_eq!(second.load(Ordering::SeqCst), 1, "last registration wins");
    }

    #[test]
    fn handle_dropped_while_pending_never_fires_into_freed_state() {
        // The waker lives in the Arc'd cell, not the handle: dropping the
        // handle (and its registered waker's captures) while the request
        // is pending must leave completion safe — the callback fires into
        // captures it owns, never into freed handle state.
        let (handle, completer) = bare_pair(3);
        let fired = Arc::new(AtomicU64::new(0));
        let observer = Arc::clone(&fired);
        handle.on_complete(move || {
            observer.fetch_add(1, Ordering::SeqCst);
        });
        drop(handle);
        completer.complete(Ok(ok_response(3)));
        assert_eq!(
            fired.load(Ordering::SeqCst),
            1,
            "completion after handle drop still fires the registered waker"
        );
    }

    #[test]
    fn future_poll_pending_then_wake_then_ready_then_double_poll() {
        let (mut handle, completer) = bare_pair(4);
        let wakes = Arc::new(AtomicU64::new(0));
        assert!(poll_once(&mut handle, &wakes).is_pending());
        assert_eq!(wakes.load(Ordering::SeqCst), 0);
        completer.complete(Ok(ok_response(4)));
        assert_eq!(wakes.load(Ordering::SeqCst), 1, "completion wakes the task");
        match poll_once(&mut handle, &wakes) {
            Poll::Ready(Ok(resp)) => assert_eq!(resp.sequence(), 4),
            other => panic!("woken future must be ready: {other:?}"),
        }
        // Double-poll after ready: deterministic error, not a panic or a
        // forever-pending future.
        match poll_once(&mut handle, &wakes) {
            Poll::Ready(Err(CoreError::Server(msg))) => {
                assert!(msg.contains("already taken"), "{msg}")
            }
            other => panic!("double poll must resolve to an error: {other:?}"),
        }
        assert_eq!(wakes.load(Ordering::SeqCst), 1, "no spurious extra wakes");
    }

    #[test]
    fn wait_timeout_times_out_then_still_delivers() {
        let (mut handle, completer) = bare_pair(5);
        let t0 = Instant::now();
        assert!(
            handle.wait_timeout(Duration::from_millis(15)).is_none(),
            "pending request must time out"
        );
        assert!(t0.elapsed() >= Duration::from_millis(15));
        // The timeout consumed nothing: the handle still works.
        completer.complete(Ok(ok_response(5)));
        match handle.wait_timeout(Duration::from_secs(5)) {
            Some(Ok(resp)) => assert_eq!(resp.sequence(), 5),
            other => panic!("completed request must deliver: {other:?}"),
        }
        // Delivered once: the handle is spent.
        assert!(handle.wait_timeout(Duration::ZERO).is_none());
        assert!(handle.try_wait().is_none());
    }

    #[test]
    fn wait_all_surfaces_a_wedged_request_instead_of_hanging() {
        let (done, done_completer) = bare_pair(6);
        let (wedged, _held_completer) = bare_pair(7);
        done_completer.complete(Ok(ok_response(6)));
        let err =
            RaellaServer::wait_all_within([done, wedged], Duration::from_millis(20)).unwrap_err();
        assert!(
            matches!(&err, CoreError::Server(msg) if msg.contains("request 7") && msg.contains("deadline")),
            "{err}"
        );
    }

    #[test]
    fn handle_resolves_on_a_plain_executor_end_to_end() {
        // The facade works from any executor: drive a real served
        // request with the gateway's dependency-free block_on.
        let server = build_tiny(1, 4, 0);
        let image = sample_image(2);
        let (want, _) = server.model(0).run_image(&image).unwrap();
        let handle = server.submit(0, image, Admission::Block).unwrap();
        let resp = crate::gateway::block_on(handle).expect("served future resolves");
        assert_eq!(resp.output(), &want);
        server.shutdown();
    }

    #[test]
    fn two_models_route_by_index() {
        let mut g2 = Graph::new();
        let input = g2.input();
        let c = g2
            .conv(input, SynthLayer::conv(2, 3, 3, 5).build(), 2, 3, 1, 1)
            .unwrap();
        let gap = g2.global_avg_pool(c);
        g2.set_output(gap);
        let server = RaellaServer::builder()
            .model(&tiny_graph(), &tiny_cfg())
            .model(&g2, &tiny_cfg())
            .compile_cache(SharedCompileCache::new())
            .workers(2)
            .max_batch(2)
            .latency_budget_ticks(50)
            .build()
            .unwrap();
        assert_eq!(server.model_count(), 2);
        let a = server.submit(0, sample_image(3), Admission::Block).unwrap();
        let b = server.submit(1, sample_image(3), Admission::Block).unwrap();
        let (ra, rb) = (a.wait().unwrap(), b.wait().unwrap());
        assert_eq!(ra.model_index(), 0);
        assert_eq!(rb.model_index(), 1);
        assert_eq!(ra.output().shape(), &[6]);
        assert_eq!(rb.output().shape(), &[3]);
        let metrics = server.metrics();
        assert_eq!(metrics.served(), &[1, 1], "per-model served counts");
        assert_eq!(metrics.queued(), &[0, 0]);
        server.shutdown();
    }
}
