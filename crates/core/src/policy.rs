//! Pluggable recalibration policy: *what* a recalibration does, decided
//! separately from *when* one runs.
//!
//! The serving stack (see [`crate::server`]) detects degradation — the
//! fidelity watchdog sampling the live model at its current device age, a
//! manual [`crate::server::RaellaServer::recalibrate`] call, or a tile
//! failure injected through
//! [`crate::server::RaellaServer::fail_tile`] — and then asks a
//! [`RecalibrationPolicy`] what to do about it. The policy sees the
//! evidence ([`RecalContext`]: per-layer budget breaches, per-tile write
//! counts, failed tiles, the live [`ShardPlan`]) and answers with a
//! [`RecalibrationAction`]:
//!
//! * [`RecalibrationAction::ReprogramAll`] — the classic full swap:
//!   reprogram every layer at the next generation (fresh programming
//!   draws from pristine weights), optionally remap the plan, reset the
//!   device age.
//! * [`RecalibrationAction::ReprogramLayers`] — targeted: refresh only
//!   the named layers' cells, keep everything else (plan *and* device
//!   age) untouched. Cheap in write wear, but relaxation keeps accruing —
//!   it cures programming error, not drift.
//! * [`RecalibrationAction::Shrink`] — the tile-failure move: re-place
//!   the whole model onto the surviving tiles
//!   ([`ShardPlan::shrink_onto`]) and reprogram fully.
//! * [`RecalibrationAction::None`] — explicitly decline (the live
//!   snapshot stays, nothing is counted).
//!
//! Whatever the action, the server installs the result atomically between
//! batches: queued and in-flight requests are never dropped, and every
//! response still replays offline bit-for-bit — via `(generation, age)`
//! after full swaps, via
//! [`crate::server::Response::layer_generations`] +
//! [`crate::model::CompiledModel::reprogram_to`] after targeted ones.
//!
//! [`RotatePolicy`] is the default and reproduces the pre-policy serving
//! results bit-identically: reprogram everything, rotate the plan by one
//! tile, shrink only when tiles have failed.

use std::fmt;
use std::sync::Arc;

use crate::shard::ShardPlan;

/// What prompted the policy consultation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RecalTrigger {
    /// The fidelity watchdog found at least one layer past its error
    /// budget (or standing tile failures at its sampling interval).
    Watchdog,
    /// An explicit [`crate::server::RaellaServer::recalibrate`] call.
    /// The default policy always swaps on this trigger, breaches or not.
    Manual,
    /// A tile was just reported dead via
    /// [`crate::server::RaellaServer::fail_tile`].
    Fault,
}

/// One layer's failed fidelity sample: evidence for targeted
/// recalibration. When several layer indices share one compiled artifact
/// the sample runs once but every index is reported, so a targeted
/// reprogram covers all of them.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct LayerBreach {
    /// Index into the model's matrix layers (execution order).
    pub layer: usize,
    /// The layer's name, for logging and policy heuristics.
    pub name: String,
    /// The sample's mean absolute column-sum error.
    pub mean_abs_error: f64,
    /// The error budget the sample exceeded.
    pub budget: f64,
}

/// Everything a [`RecalibrationPolicy`] may consult. Borrowed views into
/// the server's state at decision time; constructed by the server
/// (`#[non_exhaustive]` — fields may grow).
#[derive(Debug)]
#[non_exhaustive]
pub struct RecalContext<'a> {
    /// Server index of the model under consideration.
    pub model: usize,
    /// The live snapshot's programming generation.
    pub generation: u64,
    /// Device age (served vectors since last programming) at decision
    /// time.
    pub age: u64,
    /// The age quantized into the lifetime's relaxation epoch (0 = the
    /// device still replays its as-programmed noise; > 0 = drift has
    /// moved it). Targeted reprogramming cannot cure a nonzero epoch —
    /// it refreshes draws without resetting the age.
    pub drift_epoch: u64,
    /// What prompted this consultation.
    pub trigger: RecalTrigger,
    /// Layers whose fidelity sample exceeded the error budget (empty on
    /// [`RecalTrigger::Fault`] — the fault path does not stop to
    /// sample).
    pub breaches: &'a [LayerBreach],
    /// Total matrix layers in the model.
    pub layer_count: usize,
    /// Cumulative programmed cells per tile over the server's lifetime
    /// (index = tile; empty when unsharded) — the wear signal.
    pub tile_writes: &'a [u64],
    /// Programmed cells per tile under the *live* plan (what one full
    /// reprogram writes where; empty when unsharded).
    pub tile_cells: &'a [u64],
    /// Tiles reported dead so far, ascending. Any surviving plan must
    /// avoid these; the server rejects actions that touch them.
    pub failed_tiles: &'a [usize],
    /// The live tile placement, when the server is sharded.
    pub plan: Option<&'a ShardPlan>,
}

impl RecalContext<'_> {
    /// The tiles still alive under the live plan, ascending — the
    /// survivor list a [`RecalibrationAction::Shrink`] would target.
    /// Empty when the server is unsharded.
    pub fn survivors(&self) -> Vec<usize> {
        let tiles = self.plan.map_or(0, ShardPlan::tiles);
        (0..tiles)
            .filter(|t| !self.failed_tiles.contains(t))
            .collect()
    }
}

/// What a recalibration should do, decided by a
/// [`RecalibrationPolicy`]. The server validates the action against the
/// live state (map lengths, survivor ranges, failed tiles) and installs
/// the result atomically between batches.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RecalibrationAction {
    /// Do nothing: the live snapshot stays, no generation is consumed,
    /// nothing is counted.
    None,
    /// Reprogram every layer at the next generation and reset the device
    /// age. `map` optionally renumbers the plan's tiles
    /// ([`ShardPlan::remap_tiles`]; `None` keeps the placement — it must
    /// be `None` on an unsharded server). Responses served by the result
    /// replay via `(generation, age)` exactly as before.
    ReprogramAll {
        /// Tile renumbering to apply (`new_tile = map[old_tile]`), or
        /// `None` to keep the current placement.
        map: Option<Vec<usize>>,
    },
    /// Reprogram only the named layers
    /// ([`crate::model::CompiledModel::reprogram_layers`]) at the next
    /// generation; plan and device age are untouched. The mixed
    /// programming state replays offline via
    /// [`crate::server::Response::layer_generations`] and
    /// [`crate::model::CompiledModel::reprogram_to`].
    ReprogramLayers {
        /// Matrix-layer indices to refresh (must be in range and
        /// non-empty).
        layers: Vec<usize>,
    },
    /// Shrink the placement onto `survivors`
    /// ([`ShardPlan::shrink_onto`]) and reprogram every layer at the
    /// next generation, resetting the device age. Survivors must avoid
    /// every failed tile. Errors on an unsharded server.
    Shrink {
        /// The tiles the shrunk plan may use, each in range, no repeats.
        survivors: Vec<usize>,
    },
}

/// Decides what a recalibration does. Implementations must be cheap and
/// deterministic — the decision runs inside the serving path's
/// recalibration guard (the swap pause
/// [`crate::ServerMetrics::recalibration_pause_ticks`] meters), and
/// serving results must stay reproducible.
pub trait RecalibrationPolicy: Send + Sync + fmt::Debug {
    /// Maps the observed degradation to the action to take. Returning
    /// [`RecalibrationAction::None`] declines the recalibration.
    fn decide(&self, ctx: &RecalContext<'_>) -> RecalibrationAction;
}

/// Policies delegate through shared handles, so callers can keep a
/// reference to an installed policy (e.g. to read counters it records).
impl<T: RecalibrationPolicy + ?Sized> RecalibrationPolicy for Arc<T> {
    fn decide(&self, ctx: &RecalContext<'_>) -> RecalibrationAction {
        (**self).decide(ctx)
    }
}

/// The default policy — bit-identical to the pre-policy server: every
/// consultation reprograms the whole model and rotates the shard plan by
/// one tile (the map `t -> (t + 1) % tiles` through
/// [`ShardPlan::remap_tiles`]), so each layer lands on freshly
/// programmed crossbars. When tiles have failed it shrinks onto the
/// survivors instead (a re-placement, so repeated consultations with the
/// same failure set are stable). Manual triggers always swap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RotatePolicy;

impl RecalibrationPolicy for RotatePolicy {
    fn decide(&self, ctx: &RecalContext<'_>) -> RecalibrationAction {
        if !ctx.failed_tiles.is_empty() {
            return RecalibrationAction::Shrink {
                survivors: ctx.survivors(),
            };
        }
        RecalibrationAction::ReprogramAll {
            map: ctx.plan.map(|p| {
                let tiles = p.tiles();
                (0..tiles).map(|t| (t + 1) % tiles).collect()
            }),
        }
    }
}

/// A wear-aware policy: full reprograms renumber the plan so the tiles
/// carrying the most cells land on the tiles with the *least* cumulative
/// writes ([`RecalContext::tile_writes`]), spreading programming wear
/// across the array. Ties break by tile index, so the map is
/// deterministic. Failed tiles shrink the plan onto the survivors, like
/// [`RotatePolicy`].
///
/// With [`WearAwarePolicy::targeted`] enabled, a watchdog breach that
/// names a strict subset of the layers *while the device is still in
/// relaxation epoch 0* refreshes only those layers
/// ([`RecalibrationAction::ReprogramLayers`]) — programming error is
/// cured at a fraction of the write cost. Past epoch 0 the policy
/// escalates to a full reprogram: a targeted refresh does not reset the
/// device age, so it cannot cure drift and would thrash.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WearAwarePolicy {
    targeted: bool,
}

impl WearAwarePolicy {
    /// Wear-aware remapping with targeted reprogramming disabled.
    pub fn new() -> Self {
        WearAwarePolicy::default()
    }

    /// Enables or disables targeted (per-layer) reprogramming for
    /// epoch-0 breaches.
    #[must_use]
    pub fn targeted(mut self, enabled: bool) -> Self {
        self.targeted = enabled;
        self
    }
}

impl RecalibrationPolicy for WearAwarePolicy {
    fn decide(&self, ctx: &RecalContext<'_>) -> RecalibrationAction {
        if !ctx.failed_tiles.is_empty() {
            return RecalibrationAction::Shrink {
                survivors: ctx.survivors(),
            };
        }
        if self.targeted
            && ctx.drift_epoch == 0
            && !ctx.breaches.is_empty()
            && ctx.breaches.len() < ctx.layer_count
        {
            return RecalibrationAction::ReprogramLayers {
                layers: ctx.breaches.iter().map(|b| b.layer).collect(),
            };
        }
        RecalibrationAction::ReprogramAll {
            map: ctx.plan.map(|_| wear_map(ctx.tile_cells, ctx.tile_writes)),
        }
    }
}

/// The wear-leveling permutation: pair the heaviest source tiles (most
/// cells to reprogram under the live plan) with the least-written
/// destination tiles. Both rankings break ties by tile index, so the map
/// is a deterministic permutation of `0..tiles`.
fn wear_map(tile_cells: &[u64], tile_writes: &[u64]) -> Vec<usize> {
    let tiles = tile_cells.len();
    let mut sources: Vec<usize> = (0..tiles).collect();
    sources.sort_by_key(|&t| (std::cmp::Reverse(tile_cells[t]), t));
    let mut dests: Vec<usize> = (0..tiles).collect();
    dests.sort_by_key(|&t| (tile_writes.get(t).copied().unwrap_or(0), t));
    let mut map = vec![0usize; tiles];
    for (&src, &dst) in sources.iter().zip(&dests) {
        map[src] = dst;
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::SharedCompileCache;
    use crate::config::RaellaConfig;
    use crate::model::CompiledModel;
    use raella_arch::tile::TileSpec;
    use raella_nn::graph::Graph;
    use raella_nn::synth::SynthLayer;

    fn plan_over(tiles: usize) -> (CompiledModel, ShardPlan) {
        let mut g = Graph::new();
        let input = g.input();
        let gap = g.global_avg_pool(input);
        let fc1 = g.linear(gap, SynthLayer::linear(150, 8, 3).build());
        let fc2 = g.linear(fc1, SynthLayer::linear(8, 4, 5).build());
        g.set_output(fc2);
        let cfg = RaellaConfig {
            crossbar_rows: 64,
            crossbar_cols: 64,
            search_vectors: 2,
            ..RaellaConfig::default()
        };
        let model =
            CompiledModel::compile_with_cache(&g, &cfg, &SharedCompileCache::new()).unwrap();
        let plan = ShardPlan::place(&model, tiles, TileSpec::new(64, 64)).unwrap();
        (model, plan)
    }

    fn ctx<'a>(
        trigger: RecalTrigger,
        breaches: &'a [LayerBreach],
        drift_epoch: u64,
        tile_writes: &'a [u64],
        tile_cells: &'a [u64],
        failed: &'a [usize],
        plan: Option<&'a ShardPlan>,
    ) -> RecalContext<'a> {
        RecalContext {
            model: 0,
            generation: 3,
            age: 100,
            drift_epoch,
            trigger,
            breaches,
            layer_count: 2,
            tile_writes,
            tile_cells,
            failed_tiles: failed,
            plan,
        }
    }

    fn breach(layer: usize) -> LayerBreach {
        LayerBreach {
            layer,
            name: format!("l{layer}"),
            mean_abs_error: 9.0,
            budget: 1.0,
        }
    }

    #[test]
    fn rotate_policy_rotates_by_one_and_shrinks_on_failure() {
        let (_, plan) = plan_over(3);
        let c = ctx(RecalTrigger::Manual, &[], 0, &[], &[], &[], Some(&plan));
        assert_eq!(
            RotatePolicy.decide(&c),
            RecalibrationAction::ReprogramAll {
                map: Some(vec![1, 2, 0])
            }
        );
        // Unsharded: no map.
        let c = ctx(RecalTrigger::Watchdog, &[], 1, &[], &[], &[], None);
        assert_eq!(
            RotatePolicy.decide(&c),
            RecalibrationAction::ReprogramAll { map: None }
        );
        // A failed tile turns every consultation into a shrink.
        let c = ctx(RecalTrigger::Fault, &[], 0, &[], &[], &[1], Some(&plan));
        assert_eq!(
            RotatePolicy.decide(&c),
            RecalibrationAction::Shrink {
                survivors: vec![0, 2]
            }
        );
        assert_eq!(c.survivors(), vec![0, 2]);
    }

    #[test]
    fn wear_policy_maps_heavy_tiles_onto_least_written() {
        let (_, plan) = plan_over(3);
        // Tile 1 carries the most cells; tile 2 is the least written.
        let cells = [10u64, 50, 20];
        let writes = [300u64, 200, 100];
        let c = ctx(
            RecalTrigger::Watchdog,
            &[],
            2,
            &writes,
            &cells,
            &[],
            Some(&plan),
        );
        // sources by cells desc: 1, 2, 0; dests by writes asc: 2, 1, 0.
        assert_eq!(
            WearAwarePolicy::new().decide(&c),
            RecalibrationAction::ReprogramAll {
                map: Some(vec![0, 2, 1])
            }
        );
        // Ties break by tile index: identical wear degrades to identity
        // ordering on the destination side.
        let even = [7u64, 7, 7];
        let c = ctx(
            RecalTrigger::Watchdog,
            &[],
            2,
            &even,
            &even,
            &[],
            Some(&plan),
        );
        assert_eq!(
            WearAwarePolicy::new().decide(&c),
            RecalibrationAction::ReprogramAll {
                map: Some(vec![0, 1, 2])
            }
        );
    }

    #[test]
    fn targeted_mode_refreshes_breached_layers_only_in_epoch_zero() {
        let (_, plan) = plan_over(3);
        let breaches = [breach(1)];
        let policy = WearAwarePolicy::new().targeted(true);
        // Epoch 0 + strict subset → targeted refresh.
        let c = ctx(
            RecalTrigger::Watchdog,
            &breaches,
            0,
            &[1, 1, 1],
            &[1, 1, 1],
            &[],
            Some(&plan),
        );
        assert_eq!(
            policy.decide(&c),
            RecalibrationAction::ReprogramLayers { layers: vec![1] }
        );
        // Drifted past epoch 0: escalate to a full reprogram (a targeted
        // refresh cannot reset the age).
        let c = ctx(
            RecalTrigger::Watchdog,
            &breaches,
            1,
            &[1, 1, 1],
            &[1, 1, 1],
            &[],
            Some(&plan),
        );
        assert!(matches!(
            policy.decide(&c),
            RecalibrationAction::ReprogramAll { .. }
        ));
        // Every layer breached: nothing to save, reprogram fully.
        let all = [breach(0), breach(1)];
        let c = ctx(
            RecalTrigger::Watchdog,
            &all,
            0,
            &[1, 1, 1],
            &[1, 1, 1],
            &[],
            Some(&plan),
        );
        assert!(matches!(
            policy.decide(&c),
            RecalibrationAction::ReprogramAll { .. }
        ));
        // Failure still dominates.
        let c = ctx(
            RecalTrigger::Fault,
            &breaches,
            0,
            &[1, 1, 1],
            &[1, 1, 1],
            &[2],
            Some(&plan),
        );
        assert_eq!(
            policy.decide(&c),
            RecalibrationAction::Shrink {
                survivors: vec![0, 1]
            }
        );
    }
}
