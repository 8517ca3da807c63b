//! The recalibration control loop: the per-model state a recalibration
//! swaps ([`ServedModel`]) and the one path every trigger takes through
//! it ([`Recalibrator::recalibrate`]).
//!
//! Every trigger — the fidelity watchdog, a manual
//! `RaellaServer::recalibrate`, a `RaellaServer::fail_tile` report — runs
//! the same steps under the model's recalibration guard: read the live
//! snapshot, the failed tiles, the wear counters and the device age once;
//! on a watchdog trigger, sample fidelity from that same snapshot at that
//! same age; then ask the [`RecalibrationPolicy`], validate its answer and
//! install the result. Evidence and decision come from one read, so a
//! swap landing between a watchdog sample and its decision cannot make
//! the policy act on the previous generation's breaches.
//!
//! The loop sees only what it needs: the model's [`ServedModel`] (live
//! snapshot, device age, failure and wear records) and the server's
//! [`Recalibrator`] (policy, sample size, counters) — never the queue.

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::Instant;

use crate::compiler::CompiledLayer;
use crate::error::CoreError;
use crate::model::CompiledModel;
use crate::policy::{
    LayerBreach, RecalContext, RecalTrigger, RecalibrationAction, RecalibrationPolicy,
};
use crate::server::{lock, ticks};
use crate::shard::ShardPlan;

/// One compiled rung of a served model's [`crate::server::energy_config_ladder`]
/// with its admission-time ranking estimate. Every rung shares the
/// model's one placement ([`LiveModel::plan`]).
#[derive(Debug, Clone)]
pub(crate) struct Variant {
    pub(crate) model: Arc<CompiledModel>,
    /// [`CompiledModel::estimated_vector_pj`], computed once at build —
    /// geometry-only, so reprogramming never changes it.
    pub(crate) est_pj_per_vector: f64,
}

/// The swappable part of a served model: every compiled rung, the one
/// tile placement they share, and the programming generation they were
/// built for. Recalibration replaces the whole struct atomically under
/// the write lock; workers clone the `Arc`s once per batch under the read
/// lock, so a swap never touches a batch already executing.
#[derive(Debug, Clone)]
pub(crate) struct LiveModel {
    /// Rungs by ladder index: 0 is the base config, `1..` the slicing
    /// variants (present only when an energy budget is registered).
    pub(crate) variants: Vec<Variant>,
    /// The placement every rung runs under, when sharded. Rungs differ
    /// only in weight slicing, and a placement reads only the graph
    /// fingerprint and the row-group counts, so one plan fits them all.
    pub(crate) plan: Option<Arc<ShardPlan>>,
    pub(crate) generation: u64,
    /// Per-layer programming generations of the base model
    /// ([`CompiledModel::layer_generations`]), shared into every
    /// response — all equal to `generation` after full reprograms, mixed
    /// after targeted ones. Every rung is reprogrammed alike.
    pub(crate) layer_gens: Arc<Vec<u64>>,
    /// The per-vector energy budget selection works against, if any.
    pub(crate) budget_pj: Option<f64>,
}

impl LiveModel {
    /// The build-time snapshot: `plan` must fit every rung.
    ///
    /// # Errors
    ///
    /// Propagates [`ShardPlan::check_model`] for the first rung the
    /// shared plan does not fit.
    pub(crate) fn new(
        variants: Vec<Variant>,
        plan: Option<Arc<ShardPlan>>,
        budget_pj: Option<f64>,
    ) -> Result<Self, CoreError> {
        if let Some(plan) = plan.as_deref() {
            for variant in &variants {
                plan.check_model(&variant.model)?;
            }
        }
        let base = &variants[0].model;
        Ok(LiveModel {
            generation: base.config().lifetime.generation,
            layer_gens: Arc::new(base.layer_generations()),
            variants,
            plan,
            budget_pj,
        })
    }

    /// The base rung (ladder index 0): the model that age, wear, and
    /// recalibration decisions are read from.
    pub(crate) fn base(&self) -> &Variant {
        &self.variants[0]
    }

    /// Resolves a recorded ladder index to its rung. An out-of-range
    /// index (cannot happen through admission — the ladder length is
    /// fixed for the server's lifetime) degrades to the base.
    pub(crate) fn variant(&self, config: usize) -> &Variant {
        self.variants.get(config).unwrap_or(self.base())
    }

    /// This snapshot after a validated recalibration `action`: every rung
    /// reprogrammed at the next generation (only the named layers for a
    /// targeted refresh), and the shared plan remapped or shrunk once,
    /// onto the fresh base. Otherwise the placement carries over — its
    /// fingerprint is structural, so the existing `Arc` still matches.
    fn recalibrated(&self, action: &RecalibrationAction) -> Result<LiveModel, CoreError> {
        let generation = self.generation + 1;
        let variants = self
            .variants
            .iter()
            .map(|v| {
                let model = match action {
                    RecalibrationAction::ReprogramLayers { layers } => {
                        v.model.reprogram_layers(generation, layers)?
                    }
                    _ => v.model.reprogram(generation)?,
                };
                Ok(Variant {
                    model: Arc::new(model),
                    est_pj_per_vector: v.est_pj_per_vector,
                })
            })
            .collect::<Result<Vec<_>, CoreError>>()?;
        let base = &variants[0].model;
        let plan = match (self.plan.as_deref(), action) {
            (Some(p), RecalibrationAction::ReprogramAll { map: Some(m) }) => {
                Some(Arc::new(p.remap_tiles(base, m, p.tiles())?))
            }
            (Some(p), RecalibrationAction::Shrink { survivors }) => {
                Some(Arc::new(p.shrink_onto(base, survivors)?))
            }
            _ => self.plan.clone(),
        };
        Ok(LiveModel {
            layer_gens: Arc::new(base.layer_generations()),
            variants,
            plan,
            generation,
            budget_pj: self.budget_pj,
        })
    }
}

/// One served model: the live (swappable) snapshot, its device age, and
/// the recalibration and admission bookkeeping around it.
#[derive(Debug)]
pub(crate) struct ServedModel {
    pub(crate) live: RwLock<LiveModel>,
    /// Guards against concurrent recalibrations of the same model (the
    /// second caller observes `true` and backs off).
    recalibrating: AtomicBool,
    /// Device age: served vectors accumulated since the model was last
    /// (re)programmed. Advanced at admission under the queue lock (so
    /// ages follow lane order deterministically), zeroed by a full
    /// recalibration.
    pub(crate) age: AtomicU64,
    /// Memoized vectors-per-image by image shape — admission stamps ages
    /// without re-walking the graph for every request.
    pub(crate) vector_counts: Mutex<HashMap<Vec<usize>, u64>>,
    /// Memoized ladder selection by `(generation, drift epoch)` —
    /// fidelity under drift depends on age only through the quantized
    /// epoch, so one calibration check covers every admission in the
    /// epoch. Recalibration bumps the generation, naturally invalidating
    /// stale entries.
    pub(crate) selection_cache: Mutex<HashMap<(u64, u64), usize>>,
    /// Tiles reported dead, ascending. Failure is permanent for the
    /// server's lifetime: every subsequent recalibration decision sees
    /// the full set.
    pub(crate) failed_tiles: Mutex<Vec<usize>>,
    /// Cumulative programmed cells per tile (index = tile; empty when
    /// unsharded): build-time placement plus every recalibration's
    /// writes under the live plan — the wear signal policies level
    /// against.
    pub(crate) tile_writes: Mutex<Vec<u64>>,
}

impl ServedModel {
    /// A model at age zero whose wear counters start at the build-time
    /// programming: placing the base model onto the array writes each
    /// tile's resident cells once.
    pub(crate) fn new(live: LiveModel) -> Self {
        let tile_writes = live
            .plan
            .as_deref()
            .map_or_else(Vec::new, |p| p.tile_cells(&live.base().model));
        ServedModel {
            live: RwLock::new(live),
            recalibrating: AtomicBool::new(false),
            age: AtomicU64::new(0),
            vector_counts: Mutex::new(HashMap::new()),
            selection_cache: Mutex::new(HashMap::new()),
            failed_tiles: Mutex::new(Vec::new()),
            tile_writes: Mutex::new(tile_writes),
        }
    }

    /// Clones the live snapshot's handles under the read lock.
    pub(crate) fn snapshot(&self) -> LiveModel {
        self.live
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Records `tile` of model `index` as permanently failed (idempotent).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Server`] for an unsharded model or a tile the
    /// live plan does not have.
    pub(crate) fn fail_tile(&self, index: usize, tile: usize) -> Result<(), CoreError> {
        let Some(tiles) = self.snapshot().plan.as_deref().map(ShardPlan::tiles) else {
            return Err(CoreError::Server(format!(
                "model {index} is unsharded: no tile to fail"
            )));
        };
        if tile >= tiles {
            return Err(CoreError::Server(format!(
                "no tile {tile} to fail (model {index} has {tiles})"
            )));
        }
        let mut failed = lock(&self.failed_tiles);
        if !failed.contains(&tile) {
            failed.push(tile);
            failed.sort_unstable();
        }
        Ok(())
    }
}

/// The server-wide half of recalibration: the policy every trigger
/// consults, the fidelity sample size, and the counters
/// [`crate::server::ServerMetrics`] reports.
#[derive(Debug)]
pub(crate) struct Recalibrator {
    policy: Arc<dyn RecalibrationPolicy>,
    /// Test vectors per layer for each fidelity sample (the watchdog's
    /// and admission-time selection's).
    pub(crate) vectors: usize,
    /// Completed swaps (watchdog-triggered, manual, and fault-triggered).
    pub(crate) recalibrations: AtomicU64,
    /// The subset of `recalibrations` that shrank the plan onto
    /// surviving tiles ([`RecalibrationAction::Shrink`]).
    pub(crate) shrinks: AtomicU64,
    /// Watchdog-triggered recalibration attempts that failed.
    pub(crate) errors: AtomicU64,
    /// Total time spent deciding and installing, in server ticks — the
    /// serving pause the swaps cost (each consultation counts at least
    /// one tick; fidelity sampling is not included).
    pub(crate) pause_ticks: AtomicU64,
}

impl Recalibrator {
    pub(crate) fn new(policy: Arc<dyn RecalibrationPolicy>, vectors: usize) -> Self {
        Recalibrator {
            policy,
            vectors,
            recalibrations: AtomicU64::new(0),
            shrinks: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            pause_ticks: AtomicU64::new(0),
        }
    }

    /// The fidelity watchdog's check of model `model`. No caller awaits
    /// it, so a failure is counted in `errors`, never swallowed.
    pub(crate) fn watchdog(&self, served: &ServedModel, model: usize) {
        if self
            .recalibrate(served, model, RecalTrigger::Watchdog)
            .is_err()
        {
            self.errors.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// The one recalibration path. Under the per-model guard it reads the
    /// evidence once, samples fidelity from that snapshot at that age
    /// (watchdog trigger only; the watchdog proceeds only on a breach or
    /// while the live plan still touches a failed tile), asks the policy,
    /// validates the answer and installs the result atomically for future
    /// batches. Queued and in-flight requests are never dropped: batches
    /// popped before the install run against the old snapshot, batches
    /// popped after it against the new one, each self-described by its
    /// responses' `(generation, age)`.
    ///
    /// Returns `Ok(false)` without swapping when another recalibration of
    /// the same model is in flight, when the watchdog found nothing to
    /// do, or when the policy returned [`RecalibrationAction::None`]. A
    /// panic on this path (a custom policy's, say) comes back as
    /// [`CoreError::Server`]; the guard is released however the call
    /// ends, so the next call recalibrates normally.
    pub(crate) fn recalibrate(
        &self,
        served: &ServedModel,
        model: usize,
        trigger: RecalTrigger,
    ) -> Result<bool, CoreError> {
        if served.recalibrating.swap(true, Ordering::SeqCst) {
            return Ok(false);
        }
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            self.recalibrate_guarded(served, model, trigger)
        }))
        .unwrap_or_else(|_| {
            Err(CoreError::Server(format!(
                "recalibration of model {model} ({trigger:?}) panicked"
            )))
        });
        served.recalibrating.store(false, Ordering::SeqCst);
        result
    }

    fn recalibrate_guarded(
        &self,
        served: &ServedModel,
        model: usize,
        trigger: RecalTrigger,
    ) -> Result<bool, CoreError> {
        let live = served.snapshot();
        let failed = lock(&served.failed_tiles).clone();
        let tile_writes = lock(&served.tile_writes).clone();
        let age = served.age.load(Ordering::SeqCst);
        let base = &live.base().model;
        let watchdog = trigger == RecalTrigger::Watchdog;
        let breaches = if watchdog && base.config().lifetime.is_drifting() {
            layer_breaches(base, self.vectors, age)?
        } else {
            Vec::new()
        };
        if watchdog && breaches.is_empty() && !plan_touches(live.plan.as_deref(), &failed) {
            return Ok(false);
        }
        let start = Instant::now();
        let tile_cells = live
            .plan
            .as_deref()
            .map_or_else(Vec::new, |p| p.tile_cells(base));
        let action = self.policy.decide(&RecalContext {
            model,
            generation: live.generation,
            age,
            drift_epoch: base.config().lifetime.drift_epoch(age),
            trigger,
            breaches: &breaches,
            layer_count: base.compiled_layers().len(),
            tile_writes: &tile_writes,
            tile_cells: &tile_cells,
            failed_tiles: &failed,
            plan: live.plan.as_deref(),
        });
        let result = self.install(served, &live, &failed, &action);
        self.pause_ticks
            .fetch_add(ticks(start.elapsed()).max(1), Ordering::SeqCst);
        result
    }

    /// Validates `action` once against the live plan and the failure set
    /// (every rung shares the plan and the layer count), builds the
    /// recalibrated snapshot, and installs it under the write lock. Wear
    /// is charged from the base rung under the new plan.
    fn install(
        &self,
        served: &ServedModel,
        live: &LiveModel,
        failed: &[usize],
        action: &RecalibrationAction,
    ) -> Result<bool, CoreError> {
        let sharded = live.plan.is_some();
        match action {
            RecalibrationAction::None => return Ok(false),
            RecalibrationAction::ReprogramAll { map: None } => {}
            RecalibrationAction::ReprogramAll { map: Some(m) } => {
                if !sharded {
                    return Err(CoreError::Server(
                        "recalibration policy returned a tile map for an unsharded model".into(),
                    ));
                }
                if let Some((src, dst)) = m.iter().enumerate().find(|(_, dst)| failed.contains(dst))
                {
                    return Err(CoreError::Server(format!(
                        "recalibration policy mapped tile {src} onto failed tile {dst}"
                    )));
                }
            }
            RecalibrationAction::ReprogramLayers { layers } => {
                let count = live.base().model.compiled_layers().len();
                if layers.is_empty() {
                    return Err(CoreError::Server(
                        "recalibration policy named no layers to reprogram".into(),
                    ));
                }
                if let Some(bad) = layers.iter().find(|&&l| l >= count) {
                    return Err(CoreError::Server(format!(
                        "recalibration policy named layer {bad}, model has {count}"
                    )));
                }
            }
            RecalibrationAction::Shrink { survivors } => {
                if !sharded {
                    return Err(CoreError::Server(
                        "cannot shrink an unsharded model onto surviving tiles".into(),
                    ));
                }
                if let Some(bad) = survivors.iter().find(|t| failed.contains(t)) {
                    return Err(CoreError::Server(format!(
                        "recalibration policy kept failed tile {bad} in the survivor list"
                    )));
                }
            }
        }
        let fresh = live.recalibrated(action)?;
        let base = &fresh.base().model;
        let written = match (fresh.plan.as_deref(), action) {
            (None, _) => Vec::new(),
            (Some(p), RecalibrationAction::ReprogramLayers { layers }) => {
                p.tile_cells_for_layers(base, layers)
            }
            (Some(p), _) => p.tile_cells(base),
        };
        *served.live.write().unwrap_or_else(PoisonError::into_inner) = fresh;
        // Relaxation is drift since the last programming: a fresh
        // generation starts at age 0 (epoch 0 replays the static noise
        // streams bit-for-bit). A targeted refresh keeps the age — its
        // unnamed layers are still relaxing.
        if !matches!(action, RecalibrationAction::ReprogramLayers { .. }) {
            served.age.store(0, Ordering::SeqCst);
        }
        for (bucket, cells) in lock(&served.tile_writes).iter_mut().zip(&written) {
            *bucket += cells;
        }
        self.recalibrations.fetch_add(1, Ordering::SeqCst);
        if matches!(action, RecalibrationAction::Shrink { .. }) {
            self.shrinks.fetch_add(1, Ordering::SeqCst);
        }
        Ok(true)
    }
}

/// Samples `model`'s fidelity at device age `age` and returns every
/// layer over the config's error budget — each unique compiled layer
/// sampled once ([`CompiledLayer::check_fidelity_at_age`] over `vectors`
/// test vectors), every index sharing a breaching artifact reported, so a
/// targeted reprogram covers them all. The fidelity watchdog feeds the
/// result to the recalibration policy; admission-time selection serves a
/// rung only when it is empty.
pub(crate) fn layer_breaches(
    model: &CompiledModel,
    vectors: usize,
    age: u64,
) -> Result<Vec<LayerBreach>, CoreError> {
    let budget = model.config().error_budget;
    let mut sampled: Vec<(*const CompiledLayer, Option<f64>)> = Vec::new();
    let mut breaches = Vec::new();
    for (i, (mat, compiled)) in model
        .graph()
        .matrix_layers()
        .into_iter()
        .zip(model.compiled_layers())
        .enumerate()
    {
        let ptr = Arc::as_ptr(compiled);
        let over = match sampled.iter().find(|(p, _)| *p == ptr) {
            Some((_, over)) => *over,
            None => {
                let report = compiled.check_fidelity_at_age(mat, vectors, age)?;
                let over = (!report.within_budget(budget)).then_some(report.mean_abs_error);
                sampled.push((ptr, over));
                over
            }
        };
        if let Some(mean_abs_error) = over {
            breaches.push(LayerBreach {
                layer: i,
                name: compiled.name().to_string(),
                mean_abs_error,
                budget,
            });
        }
    }
    Ok(breaches)
}

/// Whether the live plan still places anything on a failed tile — true
/// only in the window between a failure report and the shrink that
/// reroutes around it (or when that shrink was contended and must be
/// retried).
fn plan_touches(plan: Option<&ShardPlan>, failed: &[usize]) -> bool {
    plan.is_some_and(|p| {
        p.placements()
            .iter()
            .any(|pl| pl.slices().iter().any(|s| failed.contains(&s.tile)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RaellaConfig;
    use raella_arch::tile::TileSpec;
    use raella_nn::graph::Graph;
    use raella_nn::synth::SynthLayer;

    /// One 150-row layer at the given crossbar height: 3 row groups at
    /// 64 rows, 2 at 128.
    fn rung(crossbar_rows: usize) -> Variant {
        let mut g = Graph::new();
        let input = g.input();
        let gap = g.global_avg_pool(input);
        let fc = g.linear(gap, SynthLayer::linear(150, 8, 3).build());
        g.set_output(fc);
        let cfg = RaellaConfig {
            crossbar_rows,
            crossbar_cols: 64,
            search_vectors: 2,
            ..RaellaConfig::default()
        };
        let model = CompiledModel::compile(&g, &cfg).expect("compiles");
        Variant {
            est_pj_per_vector: model.estimated_vector_pj(),
            model: Arc::new(model),
        }
    }

    #[test]
    fn shared_plan_must_fit_every_rung() {
        let (fits, foreign) = (rung(64), rung(128));
        let plan =
            Arc::new(ShardPlan::place(&fits.model, 3, TileSpec::new(128, 64)).expect("places"));
        let live = LiveModel::new(
            vec![fits.clone(), fits.clone()],
            Some(Arc::clone(&plan)),
            None,
        )
        .expect("the plan fits both rungs");
        assert_eq!(live.plan.as_deref(), Some(&*plan));
        let err = LiveModel::new(vec![fits, foreign], Some(plan), None)
            .expect_err("rung 1 has other row groups");
        assert!(
            err.to_string()
                .contains("layer 0 covers groups 0..3, layer has 2"),
            "{err}"
        );
    }
}
