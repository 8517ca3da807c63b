//! Tile-sharded execution: place layers and row groups across simulated
//! accelerator tiles — with results provably identical to the monolithic
//! engine.
//!
//! The paper's accelerator is an array of tiles of 512×512 crossbars
//! (§IV); a real deployment never runs a DNN on one monolithic device.
//! This module is the placement layer: a [`ShardPlan`] partitions a
//! [`CompiledModel`] across `N` simulated tiles described by a
//! [`TileSpec`] —
//!
//! * **whole layers to tiles** (pipeline placement): each matrix layer's
//!   crossbar program lives on one tile, layers round-robin across the
//!   array;
//! * **row-group splits** for layers whose filters are longer than a
//!   tile's row budget: each tile computes the partial sums of its row
//!   groups ([`crate::engine::run_batch_groups_at_age`] — the cache-blocked
//!   panel kernel; tiles inherit its speed and its bit-exactness
//!   guarantee unchanged) and the partials merge by an exact elementwise
//!   `i64` accumulator reduction before the digital requantization
//!   ([`crate::engine::finalize_vector`]) — the paper's inter-tile psum
//!   accumulation.
//!
//! A plan never owns its model: every run takes the `(model, plan)` pair
//! — [`ShardPlan::run_batch`] for image batches,
//! [`ShardPlan::run_image_in_at_age`] for one image on a pooled arena —
//! and the serving path ([`crate::server::RaellaServer`]) keeps one such
//! pair per slicing variant, swapping both together on recalibration.
//!
//! # Determinism contract
//!
//! **Placement is pure scheduling.** Any shard count, any row budget, any
//! slice-to-tile assignment, any worker/thread count produces output
//! bytes and (merged) statistics bit-identical to the unsharded
//! [`CompiledModel::run_batch`], in ideal and noisy modes, because
//!
//! * every image keeps its own noise-stream state derived from the
//!   configuration alone (see [`crate::model`]),
//! * within an image, every `(vector, row-group)` pair draws noise from
//!   its own counter-derived substream keyed by the group's stable index
//!   — never by read order — so disjoint row ranges can run anywhere, and
//! * partial-sum reduction is exact integer addition and
//!   [`RunStats::merge`] is associative and commutative.
//!
//! `crates/core/tests/shard_determinism.rs` sweeps random placements ×
//! shard counts × row budgets × `RAELLA_THREADS` against the single-tile
//! engine; `crates/core/tests/shard_golden.rs` pins a hand-computed
//! two-tile partial-sum merge.

use std::ops::Range;
use std::sync::Arc;

use raella_arch::tile::TileSpec;
use raella_nn::graph::ValueArena;
use raella_nn::layers::MatVecEngine;
use raella_nn::matrix::{Act, MatrixLayer};
use raella_nn::tensor::Tensor;

use crate::compiler::CompiledLayer;
use crate::engine::{
    finalize_vector, run_batch_at_age, run_batch_groups_at_age, run_batch_parallel_at_age, RunStats,
};
use crate::error::CoreError;
use crate::model::{BatchResult, CompiledModel};
use crate::parallel::{run_chunks, worker_count_for};

/// One contiguous row-group range of one layer, placed on one tile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSlice {
    /// The tile hosting these row groups.
    pub tile: usize,
    /// Row-group indices (see [`CompiledLayer::group_count`]) this tile
    /// computes partial sums for.
    pub groups: Range<usize>,
}

/// Where one matrix layer lives: a single slice (the whole layer on one
/// tile) or several row-group slices whose partial sums are reduced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerPlacement {
    slices: Vec<ShardSlice>,
}

impl LayerPlacement {
    /// A placement from explicit slices (validated when the plan is built
    /// against a model via [`ShardPlan::custom`]).
    pub fn new(slices: Vec<ShardSlice>) -> Self {
        LayerPlacement { slices }
    }

    /// The slices, in row-group order.
    pub fn slices(&self) -> &[ShardSlice] {
        &self.slices
    }

    /// Whether this layer is row-split across more than one slice.
    pub fn is_split(&self) -> bool {
        self.slices.len() > 1
    }

    /// The tile that performs this layer's digital tail (accumulator
    /// reduction + requantization): the tile holding the first row group.
    pub fn home_tile(&self) -> usize {
        self.slices[0].tile
    }
}

/// A placement of a whole [`CompiledModel`] across `N` simulated tiles.
///
/// Built by [`ShardPlan::place`] (round-robin pipeline placement with
/// row-group splits where a layer exceeds the tile's row budget) or
/// [`ShardPlan::custom`] (any placement — the proptest surface). Both
/// validate against the model: one placement per matrix layer, each an
/// ascending contiguous partition of that layer's row groups, every tile
/// index in range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    tile: TileSpec,
    tiles: usize,
    placements: Vec<LayerPlacement>,
    /// Structural fingerprint of the graph the plan was built for
    /// ([`raella_nn::graph::Graph::fingerprint`] — weights excluded, so a
    /// reprogrammed generation of the same model still matches).
    model_fp: u64,
}

impl ShardPlan {
    /// Places `model` across `tiles` tiles of geometry `tile`.
    ///
    /// Layers round-robin across tiles in execution order (pipeline
    /// placement). A layer whose filters span more row groups than the
    /// tile's row budget (`tile.rows / crossbar_rows` groups) is split
    /// into budget-sized row-group slices on consecutive tiles, merged at
    /// run time by the accumulator reduction.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shard`] for zero tiles or a tile whose rows
    /// are smaller than the model's configured crossbar rows.
    pub fn place(model: &CompiledModel, tiles: usize, tile: TileSpec) -> Result<Self, CoreError> {
        if tiles == 0 {
            return Err(CoreError::Shard("a plan needs at least one tile".into()));
        }
        let crossbar_rows = model.config().crossbar_rows;
        let budget = tile.rows / crossbar_rows;
        if budget == 0 {
            return Err(CoreError::Shard(format!(
                "tile rows {} cannot hold one {}-row crossbar group",
                tile.rows, crossbar_rows
            )));
        }
        let mut cursor = 0usize;
        let mut placements = Vec::with_capacity(model.compiled_layers().len());
        for layer in model.compiled_layers() {
            let n_groups = layer.group_count();
            let mut slices = Vec::new();
            let mut start = 0;
            while start < n_groups {
                let end = (start + budget).min(n_groups);
                slices.push(ShardSlice {
                    tile: cursor % tiles,
                    groups: start..end,
                });
                cursor += 1;
                start = end;
            }
            placements.push(LayerPlacement { slices });
        }
        Ok(ShardPlan {
            tile,
            tiles,
            placements,
            model_fp: model.graph().fingerprint(),
        })
    }

    /// Builds a plan from explicit per-layer placements — the escape
    /// hatch for placement sweeps and tests.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shard`] when the placements do not match the
    /// model: wrong layer count, a tile index `>= tiles`, or slices that
    /// are not an ascending contiguous partition of a layer's row groups.
    pub fn custom(
        model: &CompiledModel,
        tiles: usize,
        tile: TileSpec,
        placements: Vec<LayerPlacement>,
    ) -> Result<Self, CoreError> {
        if tiles == 0 {
            return Err(CoreError::Shard("a plan needs at least one tile".into()));
        }
        let plan = ShardPlan {
            tile,
            tiles,
            placements,
            model_fp: model.graph().fingerprint(),
        };
        plan.check_model(model)?;
        Ok(plan)
    }

    /// Validates this plan against `model` (graph fingerprint, layer
    /// count, tile ranges, row-group coverage).
    ///
    /// The fingerprint is structural — weights are excluded — so a
    /// reprogrammed generation of the same model passes, while a plan
    /// built for a different graph is rejected even when the compiled
    /// geometries coincide.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::PlanMismatch`] carrying both fingerprints when
    /// the plan was built for a different graph, and [`CoreError::Shard`]
    /// describing the first structural mismatch otherwise.
    pub fn check_model(&self, model: &CompiledModel) -> Result<(), CoreError> {
        let fp = model.graph().fingerprint();
        if self.model_fp != fp {
            return Err(CoreError::PlanMismatch {
                expected: self.model_fp,
                found: fp,
            });
        }
        self.check_coverage(model)?;
        for (i, placement) in self.placements.iter().enumerate() {
            let mut next = 0usize;
            for slice in &placement.slices {
                if slice.tile >= self.tiles {
                    return Err(CoreError::Shard(format!(
                        "layer {i} names tile {} of {}",
                        slice.tile, self.tiles
                    )));
                }
                if slice.groups.start != next || slice.groups.is_empty() {
                    return Err(CoreError::Shard(format!(
                        "layer {i} slices are not an ascending contiguous partition \
                         (expected a slice starting at group {next}, got {:?})",
                        slice.groups
                    )));
                }
                next = slice.groups.end;
            }
        }
        Ok(())
    }

    /// The O(layers) guard every placed run takes before touching the
    /// crossbars: one placement per matrix layer, each ending at its
    /// layer's last row group. It catches a plan built for a model with a
    /// different row-group count per layer, which the structural
    /// fingerprint cannot tell apart (crossbar geometry is configuration,
    /// not graph structure).
    fn check_coverage(&self, model: &CompiledModel) -> Result<(), CoreError> {
        let layers = model.compiled_layers();
        if self.placements.len() != layers.len() {
            return Err(CoreError::Shard(format!(
                "plan covers {} layers, model has {}",
                self.placements.len(),
                layers.len()
            )));
        }
        for (i, (placement, layer)) in self.placements.iter().zip(layers).enumerate() {
            let Some(last) = placement.slices.last() else {
                return Err(CoreError::Shard(format!("layer {i} has no slices")));
            };
            if last.groups.end != layer.group_count() {
                return Err(CoreError::Shard(format!(
                    "layer {i} covers groups 0..{}, layer has {}",
                    last.groups.end,
                    layer.group_count()
                )));
            }
        }
        Ok(())
    }

    /// This plan with every slice's tile renumbered through `map`
    /// (`new_tile = map[old_tile]`) on an array of `tiles` tiles —
    /// the recalibration move: evacuate degraded tiles onto spares
    /// without re-deciding the row-group partition.
    ///
    /// An identity map (`map[t] == t` for every tile) is a documented
    /// no-op: the remapped plan compares equal to `self`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shard`] when `map` does not have exactly one
    /// entry per current tile, when a mapped tile is out of range, or
    /// when the remapped plan fails [`ShardPlan::check_model`]
    /// ([`CoreError::PlanMismatch`] for a foreign model).
    pub fn remap_tiles(
        &self,
        model: &CompiledModel,
        map: &[usize],
        tiles: usize,
    ) -> Result<ShardPlan, CoreError> {
        if map.len() != self.tiles {
            return Err(CoreError::Shard(format!(
                "tile map has {} entries, plan has {} tiles",
                map.len(),
                self.tiles
            )));
        }
        let placements = self
            .placements
            .iter()
            .map(|p| {
                LayerPlacement::new(
                    p.slices
                        .iter()
                        .map(|s| ShardSlice {
                            tile: map[s.tile],
                            groups: s.groups.clone(),
                        })
                        .collect(),
                )
            })
            .collect();
        ShardPlan::custom(model, tiles, self.tile, placements)
    }

    /// Shrinks the placement onto `survivors` — the tile-failure move:
    /// re-place the whole model across only the surviving tiles, keeping
    /// the plan's tile *count* (dead tiles stay addressable, they just
    /// hold nothing), so server-side per-tile accounting never resizes.
    ///
    /// The row-group partition depends only on the tile geometry's row
    /// budget, never on how many tiles exist, so the shrunk placement is
    /// bit-identical to a from-scratch [`ShardPlan::place`] over
    /// `survivors.len()` tiles with tile `j` renumbered to
    /// `survivors[j]` — and the exact `i64` partial-sum reduction (and
    /// therefore every served byte) is unchanged by construction.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shard`] naming the offending entry when
    /// `survivors` is empty, repeats a tile, or names a tile the plan
    /// does not have, and [`CoreError::PlanMismatch`] for a foreign
    /// model.
    pub fn shrink_onto(
        &self,
        model: &CompiledModel,
        survivors: &[usize],
    ) -> Result<ShardPlan, CoreError> {
        self.check_model(model)?;
        if survivors.is_empty() {
            return Err(CoreError::Shard(
                "a shrunk plan needs at least one surviving tile".into(),
            ));
        }
        for (i, &t) in survivors.iter().enumerate() {
            if t >= self.tiles {
                return Err(CoreError::Shard(format!(
                    "survivor entry {i} names missing tile {t} (plan has {} tiles)",
                    self.tiles
                )));
            }
            if survivors[..i].contains(&t) {
                return Err(CoreError::Shard(format!(
                    "survivor entry {i} repeats tile {t}"
                )));
            }
        }
        // From-scratch placement over the survivors, renumbered into the
        // original tile namespace: fresh tile j lives on survivors[j].
        ShardPlan::place(model, survivors.len(), self.tile)?
            .remap_tiles(model, survivors, self.tiles)
    }

    /// Number of tiles in the placement.
    pub fn tiles(&self) -> usize {
        self.tiles
    }

    /// Structural fingerprint of the graph this plan was built for.
    pub fn model_fingerprint(&self) -> u64 {
        self.model_fp
    }

    /// The tile geometry the plan was built for.
    pub fn tile_spec(&self) -> &TileSpec {
        &self.tile
    }

    /// Per-layer placements, in execution order.
    pub fn placements(&self) -> &[LayerPlacement] {
        &self.placements
    }

    /// Layers split across more than one tile (row-group sharding).
    pub fn split_layer_count(&self) -> usize {
        self.placements.iter().filter(|p| p.is_split()).count()
    }

    /// Each tile's view of the compiled model: which layers (shared
    /// `Arc`s out of the compile cache) are resident, and the crossbar
    /// occupancy of its row groups.
    pub fn tile_views(&self, model: &CompiledModel) -> Vec<TileView> {
        let layers = model.compiled_layers();
        let mut views: Vec<TileView> = (0..self.tiles)
            .map(|tile| TileView {
                tile,
                resident: Vec::new(),
                layer_indices: Vec::new(),
                row_groups: 0,
                columns: 0,
                crossbars: 0,
                cells: 0,
            })
            .collect();
        // Groups stack vertically within one crossbar up to the tile's
        // row budget (the same packing `ShardPlan::place` splits by), so
        // a slice of G groups needs ceil(G / budget) vertical bands of
        // crossbars, each wide enough for the layer's columns.
        let stack = (self.tile.rows / model.config().crossbar_rows).max(1);
        for (i, placement) in self.placements.iter().enumerate() {
            for slice in &placement.slices {
                let layer = &layers[i];
                let view = &mut views[slice.tile];
                if view.layer_indices.last() != Some(&i) {
                    view.layer_indices.push(i);
                    view.resident.push(Arc::clone(layer));
                }
                let columns_per_group = layer.filters() * layer.columns_per_filter();
                view.row_groups += slice.groups.len();
                view.columns += layer.columns_for_groups(slice.groups.clone());
                view.crossbars += slice.groups.len().div_ceil(stack)
                    * self.tile.crossbars_for_columns(columns_per_group);
                view.cells +=
                    layer.rows_for_groups(slice.groups.clone()) as u64 * columns_per_group as u64;
            }
        }
        views
    }

    /// Programmed cells per tile under this placement — the write cost of
    /// programming the whole model onto the array (index = tile; dead or
    /// empty tiles report 0). Equals the `cells` field of
    /// [`ShardPlan::tile_views`], without materializing the views; the
    /// server's per-tile wear counters advance by these amounts on every
    /// (re)programming event.
    pub fn tile_cells(&self, model: &CompiledModel) -> Vec<u64> {
        let all: Vec<usize> = (0..self.placements.len()).collect();
        self.tile_cells_for_layers(model, &all)
    }

    /// Programmed cells per tile counting only the named layers — the
    /// write cost of a *partial* reprogram
    /// ([`CompiledModel::reprogram_layers`]) that refreshes just those
    /// layers in place. Layer indices out of range are ignored.
    pub fn tile_cells_for_layers(&self, model: &CompiledModel, layers: &[usize]) -> Vec<u64> {
        let compiled = model.compiled_layers();
        let mut cells = vec![0u64; self.tiles];
        for &i in layers {
            let (Some(placement), Some(layer)) = (self.placements.get(i), compiled.get(i)) else {
                continue;
            };
            let columns_per_group = (layer.filters() * layer.columns_per_filter()) as u64;
            for slice in &placement.slices {
                cells[slice.tile] +=
                    layer.rows_for_groups(slice.groups.clone()) as u64 * columns_per_group;
            }
        }
        cells
    }

    /// Runs one image through `model` under this placement on a device
    /// aged `base_age` served vectors since its crossbars were last
    /// programmed, returning the output tensor and one [`RunStats`] bucket
    /// per tile (merging every bucket reproduces the unsharded stats
    /// exactly).
    ///
    /// `parallel_tiles` fans a split layer's row ranges across one worker
    /// thread per involved tile (pass `false` when the caller already
    /// provides image- or request-level parallelism); both settings
    /// produce identical bytes.
    ///
    /// Vector `i` of the image runs at age `base_age + i`; its drift epoch
    /// follows `model.config().lifetime`. Age 0 (or a non-drifting
    /// lifetime) is bit-identical to an un-aged device, and at any age
    /// every placement/thread configuration still produces identical
    /// bytes — age is part of the noise-substream key, not of the
    /// schedule.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shard`] before any crossbar work when the plan
    /// does not cover `model` (a different matrix-layer count, or a layer
    /// whose row groups the placement does not end on — e.g. a plan built
    /// for the same graph compiled at another crossbar height), and
    /// propagates operator shape errors for a mis-shaped image.
    pub fn run_image_in_at_age(
        &self,
        model: &CompiledModel,
        image: &Tensor<u8>,
        arena: &mut ValueArena,
        parallel_tiles: bool,
        base_age: u64,
    ) -> Result<(Tensor<u8>, Vec<RunStats>), CoreError> {
        run_image_placed(
            model,
            Some(self),
            image,
            arena,
            parallel_tiles,
            base_age,
            None,
        )
    }

    /// Runs a batch of images through `model` under this placement,
    /// fanning whole images across worker threads (`RAELLA_THREADS` or the
    /// available parallelism).
    ///
    /// Outputs and merged stats are bit-identical to
    /// [`CompiledModel::run_batch`]; [`BatchResult::tile_stats`] holds one
    /// bucket per tile, merged across the batch.
    ///
    /// ```
    /// use raella_arch::tile::TileSpec;
    /// use raella_core::model::CompiledModel;
    /// use raella_core::shard::ShardPlan;
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
    /// let cfg = RaellaConfig {
    ///     crossbar_rows: 8, // tiny crossbars force row-group splits
    ///     crossbar_cols: 64,
    ///     search_vectors: 2,
    ///     ..RaellaConfig::default()
    /// };
    ///
    /// let model = CompiledModel::compile(&g, &cfg)?;
    /// let images = vec![Tensor::zeros(&[2, 6, 6]); 2];
    /// let unsharded = model.run_batch(&images)?;
    ///
    /// let plan = ShardPlan::place(&model, 3, TileSpec::new(8, 64))?;
    /// let result = plan.run_batch(&model, &images)?;
    /// assert_eq!(result.outputs(), unsharded.outputs()); // placement is scheduling
    /// assert_eq!(result.stats(), unsharded.stats());
    /// assert_eq!(result.tile_stats().len(), 3);
    /// assert!(plan.split_layer_count() >= 1);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::PlanMismatch`] or [`CoreError::Shard`] before
    /// any crossbar work when the plan does not match `model` (see
    /// [`ShardPlan::check_model`]), and propagates operator shape errors
    /// (the batch fails as a whole).
    pub fn run_batch(
        &self,
        model: &CompiledModel,
        images: &[Tensor<u8>],
    ) -> Result<BatchResult, CoreError> {
        self.run_batch_threaded(model, images, worker_count_for(images.len(), 1))
    }

    /// [`ShardPlan::run_batch`] with an explicit image-level worker count
    /// (results are bit-identical at any count). With a single image
    /// worker, split layers fan across per-tile workers instead.
    ///
    /// # Errors
    ///
    /// Same as [`ShardPlan::run_batch`].
    pub fn run_batch_threaded(
        &self,
        model: &CompiledModel,
        images: &[Tensor<u8>],
        threads: usize,
    ) -> Result<BatchResult, CoreError> {
        self.check_model(model)?;
        run_batch_placed(model, Some(self), images, threads)
    }
}

/// One tile's slice of the compiled model: the resident compiled layers
/// (shared with the compile cache — placement copies nothing) and the
/// crossbar occupancy of the row groups placed there.
#[derive(Debug, Clone)]
pub struct TileView {
    tile: usize,
    resident: Vec<Arc<CompiledLayer>>,
    layer_indices: Vec<usize>,
    row_groups: usize,
    columns: usize,
    crossbars: usize,
    cells: u64,
}

impl TileView {
    /// The tile index.
    pub fn tile(&self) -> usize {
        self.tile
    }

    /// Compiled layers resident on this tile — `Arc` clones out of the
    /// model's compile-cache view, never copies.
    pub fn resident_layers(&self) -> &[Arc<CompiledLayer>] {
        &self.resident
    }

    /// Indices (execution order) of the matrix layers with at least one
    /// row group here.
    pub fn layer_indices(&self) -> &[usize] {
        &self.layer_indices
    }

    /// Row groups resident on this tile.
    pub fn row_groups(&self) -> usize {
        self.row_groups
    }

    /// Crossbar columns occupied across all resident row groups.
    pub fn columns(&self) -> usize {
        self.columns
    }

    /// Crossbars the placement needs on this tile.
    pub fn crossbars(&self) -> usize {
        self.crossbars
    }

    /// ReRAM cells programmed on this tile.
    pub fn cells(&self) -> u64 {
        self.cells
    }

    /// Fraction of the allocated crossbars' cells actually programmed.
    pub fn utilization(&self, spec: &TileSpec) -> f64 {
        if self.crossbars == 0 {
            0.0
        } else {
            self.cells as f64 / (self.crossbars as u64 * spec.cells_per_crossbar()) as f64
        }
    }
}

/// The image fan-out behind every batch front end: whole images across
/// `threads` workers (clamped to one per image), each worker reusing one
/// arena, outputs in input order and per-tile statistics merged across the
/// batch. With a single image worker there is no image-level fan-out, so
/// each image fans out inside its layers instead; both paths produce
/// identical bytes, so this is purely a scheduling choice.
pub(crate) fn run_batch_placed(
    model: &CompiledModel,
    plan: Option<&ShardPlan>,
    images: &[Tensor<u8>],
    threads: usize,
) -> Result<BatchResult, CoreError> {
    let threads = threads.clamp(1, images.len().max(1));
    let inner_parallel = threads <= 1;
    let blocks = run_chunks(images.len(), threads, |first, n| {
        let mut arena = ValueArena::new();
        images[first..first + n]
            .iter()
            .map(|img| run_image_placed(model, plan, img, &mut arena, inner_parallel, 0, None))
            .collect::<Vec<_>>()
    });
    let mut outputs = Vec::with_capacity(images.len());
    let mut tile_stats = vec![RunStats::default(); plan.map_or(1, ShardPlan::tiles)];
    for result in blocks.into_iter().flatten() {
        let (out, per_tile) = result?;
        for (bucket, local) in tile_stats.iter_mut().zip(&per_tile) {
            bucket.merge(local);
        }
        outputs.push(out);
    }
    Ok(BatchResult::from_tiles(outputs, tile_stats))
}

/// The one per-image execution path, sharded or not: walks `model`'s plan
/// with every matrix layer served under `plan`'s placement — or, with no
/// plan, whole on tile 0 of a one-tile array — and returns the output and
/// one [`RunStats`] bucket per tile. With `layer_stats` (one entry per
/// matrix layer) each layer's statistics are also attributed to it; the
/// attribution only adds exact merges, so bytes and buckets are identical
/// either way.
///
/// A plan is checked against the model (O(layers), see
/// [`ShardPlan::check_coverage`]) before any crossbar work.
pub(crate) fn run_image_placed(
    model: &CompiledModel,
    plan: Option<&ShardPlan>,
    image: &Tensor<u8>,
    arena: &mut ValueArena,
    parallel: bool,
    base_age: u64,
    layer_stats: Option<&mut [RunStats]>,
) -> Result<(Tensor<u8>, Vec<RunStats>), CoreError> {
    if let Some(plan) = plan {
        plan.check_coverage(model)?;
    }
    let mut engine = PlacedEngine {
        layers: model.compiled_layers(),
        placements: plan.map(ShardPlan::placements),
        cursor: 0,
        tile_stats: vec![RunStats::default(); plan.map_or(1, ShardPlan::tiles)],
        layer_stats,
        next_vector: 0,
        noise_seed: model.noise_seed(),
        parallel,
        base_age,
    };
    let out = model
        .graph()
        .run_planned(model.exec_plan(), image, &mut engine, arena)?;
    Ok((out, engine.tile_stats))
}

/// Per-image engine adapter: serves the graph's matrix-layer calls from
/// the compiled list under their placements. Calls arrive in execution
/// order — the same order [`raella_nn::graph::Graph::matrix_layers`]
/// reports (property-tested in `crates/nn/tests/graph_proptests.rs`) — so
/// a cursor suffices. Every image starts a fresh noise-stream state: the
/// model's seed, vector counter at zero.
struct PlacedEngine<'m> {
    layers: &'m [Arc<CompiledLayer>],
    /// Per-layer placements; `None` runs every layer whole on tile 0.
    placements: Option<&'m [LayerPlacement]>,
    cursor: usize,
    tile_stats: Vec<RunStats>,
    layer_stats: Option<&'m mut [RunStats]>,
    next_vector: u64,
    noise_seed: u64,
    parallel: bool,
    /// Device age (served vectors since last programming) at which this
    /// image starts; vector `i` of the image runs at `base_age + i`.
    base_age: u64,
}

impl MatVecEngine for PlacedEngine<'_> {
    fn layer_outputs(&mut self, layer: &MatrixLayer, inputs: &[Act]) -> Vec<u8> {
        let node = self.cursor;
        self.cursor += 1;
        let compiled = &self.layers[node];
        debug_assert_eq!(compiled.name(), layer.name(), "layer order drifted");
        let tile_stats = &mut self.tile_stats;
        let mut layer_stats = self.layer_stats.as_deref_mut().map(|s| &mut s[node]);
        let out = run_layer_placed(
            compiled,
            self.placements.map(|p| &p[node]),
            inputs,
            self.noise_seed,
            self.next_vector,
            self.base_age,
            self.parallel,
            &mut |tile, stats| {
                tile_stats[tile].merge(stats);
                if let Some(node_stats) = layer_stats.as_deref_mut() {
                    node_stats.merge(stats);
                }
            },
        );
        self.next_vector += (inputs.len() / layer.filter_len()) as u64;
        out
    }
}

/// Partial accumulators and statistics of one slice's row groups over a
/// whole layer batch.
struct SliceResult {
    acc: Vec<i64>,
    stats: RunStats,
}

#[allow(clippy::too_many_arguments)]
fn run_slice(
    layer: &CompiledLayer,
    inputs: &[Act],
    groups: Range<usize>,
    noise_seed: u64,
    first_vector: u64,
    base_age: u64,
    n_vectors: usize,
) -> SliceResult {
    let mut acc = vec![0i64; n_vectors * layer.filters()];
    let mut stats = RunStats::default();
    run_batch_groups_at_age(
        layer,
        inputs,
        groups,
        &mut stats,
        noise_seed,
        first_vector,
        base_age,
        &mut acc,
    );
    SliceResult { acc, stats }
}

/// Executes one layer's batch under its placement, handing each piece of
/// statistics to `charge` with the tile that did the work.
///
/// An unplaced or single-slice layer runs the whole-layer batch kernel on
/// its tile (vector-parallel when `parallel`). A split layer runs each
/// tile's row-group slices (with `parallel`, one worker thread per
/// involved tile — "each tile gets its own worker"), reduces the partial
/// accumulators elementwise, and finalizes each vector on the placement's
/// home tile. Both paths are bit-identical to the unsharded kernels
/// because noise substreams are keyed per `(vector, row group)`.
#[allow(clippy::too_many_arguments)]
fn run_layer_placed(
    layer: &CompiledLayer,
    placement: Option<&LayerPlacement>,
    inputs: &[Act],
    noise_seed: u64,
    first_vector: u64,
    base_age: u64,
    parallel: bool,
    charge: &mut dyn FnMut(usize, &RunStats),
) -> Vec<u8> {
    let Some(placement) = placement.filter(|p| p.is_split()) else {
        let mut local = RunStats::default();
        let run = if parallel {
            run_batch_parallel_at_age
        } else {
            run_batch_at_age
        };
        let out = run(
            layer,
            inputs,
            &mut local,
            noise_seed,
            first_vector,
            base_age,
        );
        charge(placement.map_or(0, LayerPlacement::home_tile), &local);
        return out;
    };

    let filters = layer.filters();
    let filter_len = layer.filter_len();
    let n_vectors = inputs.len() / filter_len;

    // Group this layer's slices by tile, preserving slice order: each
    // involved tile's worker computes its row-group partials.
    let mut by_tile: Vec<(usize, Vec<Range<usize>>)> = Vec::new();
    for slice in &placement.slices {
        match by_tile.iter_mut().find(|(t, _)| *t == slice.tile) {
            Some((_, ranges)) => ranges.push(slice.groups.clone()),
            None => by_tile.push((slice.tile, vec![slice.groups.clone()])),
        }
    }

    // One tile's work, identical on the threaded and serial paths.
    let run_tile = |ranges: &[Range<usize>]| {
        ranges
            .iter()
            .map(|r| {
                run_slice(
                    layer,
                    inputs,
                    r.clone(),
                    noise_seed,
                    first_vector,
                    base_age,
                    n_vectors,
                )
            })
            .collect::<Vec<SliceResult>>()
    };
    // With `parallel`, every tile is a chunk and a worker of its own.
    let threads = if parallel { by_tile.len() } else { 1 };
    let results = run_chunks(by_tile.len(), threads, |first, n| {
        let tiles = &by_tile[first..first + n];
        tiles.iter().map(|(_, r)| run_tile(r)).collect::<Vec<_>>()
    });

    // Inter-tile accumulator reduction: exact elementwise i64 addition,
    // so any merge order gives the same sums.
    let mut total = vec![0i64; n_vectors * filters];
    for ((tile, _), slices) in by_tile.iter().zip(results.iter().flatten()) {
        for sr in slices {
            for (t, &p) in total.iter_mut().zip(&sr.acc) {
                *t += p;
            }
            charge(*tile, &sr.stats);
        }
    }

    // Digital tail on the home tile: requantize each vector once.
    let home = placement.home_tile();
    let mut out = vec![0u8; n_vectors * filters];
    for ((vec, acc), out_chunk) in inputs
        .chunks_exact(filter_len)
        .zip(total.chunks_exact(filters))
        .zip(out.chunks_exact_mut(filters))
    {
        charge(home, &finalize_vector(layer, vec, acc, out_chunk));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RaellaConfig;
    use raella_nn::graph::Graph;
    use raella_nn::synth::SynthLayer;

    fn long_filter_graph() -> Graph {
        let mut g = Graph::new();
        let input = g.input();
        // filter_len 150 over 64-row crossbars → 3 row groups.
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
        use raella_nn::rng::SynthRng;
        let mut rng = SynthRng::new(seed);
        let data: Vec<u8> = (0..150 * 2 * 2)
            .map(|_| rng.exponential(30.0).min(255.0) as u8)
            .collect();
        Tensor::from_vec(data, &[150, 2, 2]).unwrap()
    }

    fn compile() -> CompiledModel {
        CompiledModel::compile_with_cache(
            &long_filter_graph(),
            &cfg(),
            &crate::compiler::SharedCompileCache::new(),
        )
        .unwrap()
    }

    /// Same matrix layers as [`long_filter_graph`] plus one extra digital
    /// op: identical compiled geometry, different structural fingerprint.
    fn long_filter_graph_variant() -> Graph {
        let mut g = Graph::new();
        let input = g.input();
        let gap = g.global_avg_pool(input);
        let fc1 = g.linear(gap, SynthLayer::linear(150, 8, 3).build());
        let fc2 = g.linear(fc1, SynthLayer::linear(8, 4, 5).build());
        let res = g.add(fc2, fc2);
        g.set_output(res);
        g
    }

    #[test]
    fn place_splits_long_layers_and_round_robins() {
        let model = compile();
        let plan = ShardPlan::place(&model, 2, TileSpec::new(64, 64)).unwrap();
        assert_eq!(plan.tiles(), 2);
        assert_eq!(plan.placements().len(), 2);
        // fc1: 3 groups over 1-group budget → 3 slices.
        assert!(plan.placements()[0].is_split());
        assert_eq!(plan.placements()[0].slices().len(), 3);
        assert_eq!(plan.split_layer_count(), 1);
        // Slices partition 0..3 contiguously.
        let gs: Vec<_> = plan.placements()[0]
            .slices()
            .iter()
            .map(|s| s.groups.clone())
            .collect();
        assert_eq!(gs, vec![0..1, 1..2, 2..3]);
        plan.check_model(&model).unwrap();
    }

    #[test]
    fn place_rejects_degenerate_geometry() {
        let model = compile();
        assert!(matches!(
            ShardPlan::place(&model, 0, TileSpec::new(64, 64)),
            Err(CoreError::Shard(_))
        ));
        assert!(matches!(
            ShardPlan::place(&model, 2, TileSpec::new(32, 64)),
            Err(CoreError::Shard(_))
        ));
    }

    #[test]
    fn custom_validates_coverage_and_tiles() {
        let model = compile();
        let tile = TileSpec::new(64, 64);
        // Gap in coverage.
        let bad = ShardPlan::custom(
            &model,
            2,
            tile,
            vec![
                LayerPlacement::new(vec![
                    ShardSlice {
                        tile: 0,
                        groups: 0..1,
                    },
                    ShardSlice {
                        tile: 1,
                        groups: 2..3,
                    },
                ]),
                LayerPlacement::new(vec![ShardSlice {
                    tile: 0,
                    groups: 0..1,
                }]),
            ],
        );
        assert!(matches!(bad, Err(CoreError::Shard(_))));
        // Out-of-range tile.
        let bad = ShardPlan::custom(
            &model,
            2,
            tile,
            vec![
                LayerPlacement::new(vec![ShardSlice {
                    tile: 5,
                    groups: 0..3,
                }]),
                LayerPlacement::new(vec![ShardSlice {
                    tile: 0,
                    groups: 0..1,
                }]),
            ],
        );
        assert!(matches!(bad, Err(CoreError::Shard(_))));
        // Wrong layer count.
        let bad = ShardPlan::custom(&model, 2, tile, vec![]);
        assert!(matches!(bad, Err(CoreError::Shard(_))));
    }

    /// The same graph compiled at another crossbar height has the same
    /// fingerprint and layer count but more row groups per layer: a run
    /// under the other model's plan must refuse it, not silently skip the
    /// row groups the plan does not name.
    #[test]
    fn run_rejects_plan_placed_for_another_crossbar_height() {
        let a = compile();
        let b = CompiledModel::compile_with_cache(
            &long_filter_graph(),
            &RaellaConfig {
                crossbar_rows: 32,
                ..cfg()
            },
            &crate::compiler::SharedCompileCache::new(),
        )
        .unwrap();
        let groups = |m: &CompiledModel| -> Vec<usize> {
            m.compiled_layers()
                .iter()
                .map(|l| l.group_count())
                .collect()
        };
        assert_eq!(groups(&a), [3, 1]);
        assert_eq!(groups(&b), [5, 1]);
        let plan = ShardPlan::place(&a, 3, TileSpec::new(64, 64)).unwrap();
        let expected = "layer 0 covers groups 0..3, layer has 5";
        match plan.check_model(&b) {
            Err(CoreError::Shard(msg)) => assert_eq!(msg, expected),
            other => panic!("expected Shard error, got {other:?}"),
        }
        let run = plan.run_image_in_at_age(&b, &image(1), &mut ValueArena::new(), false, 0);
        match run {
            Err(CoreError::Shard(msg)) => assert_eq!(msg, expected),
            other => panic!("expected Shard error, got {:?}", other.map(|(out, _)| out)),
        }
    }

    #[test]
    fn sharded_run_matches_unsharded_bit_for_bit() {
        let model = compile();
        let images: Vec<Tensor<u8>> = (0..3).map(image).collect();
        let baseline = model.run_batch(&images).unwrap();
        assert_eq!(baseline.tile_stats(), [*baseline.stats()]);
        for tiles in [1, 2, 3, 5] {
            let plan = ShardPlan::place(&model, tiles, TileSpec::new(64, 64)).unwrap();
            let result = plan.run_batch(&model, &images).unwrap();
            assert_eq!(result.outputs(), baseline.outputs(), "{tiles} tiles");
            assert_eq!(result.stats(), baseline.stats(), "{tiles} tiles");
            // Per-tile buckets merge to the whole.
            let mut merged = RunStats::default();
            for bucket in result.tile_stats() {
                merged.merge(bucket);
            }
            assert_eq!(&merged, baseline.stats(), "{tiles} tiles");
            assert_eq!(result.tile_stats().len(), tiles);
        }
    }

    #[test]
    fn install_plan_rejects_foreign_model_but_accepts_reprogrammed() {
        let tile = TileSpec::new(64, 64);
        let model_b = CompiledModel::compile_with_cache(
            &long_filter_graph_variant(),
            &cfg(),
            &crate::compiler::SharedCompileCache::new(),
        )
        .unwrap();
        // Same compiled layer geometry, so only the fingerprint can tell
        // the models apart.
        let plan_b = ShardPlan::place(&model_b, 2, tile).unwrap();
        assert_eq!(plan_b.placements().len(), compile().compiled_layers().len());

        let model = compile();
        let images = [image(1)];
        let expected_fp = plan_b.model_fingerprint();
        let found_fp = model.graph().fingerprint();
        let err = plan_b.run_batch(&model, &images).unwrap_err();
        match err {
            CoreError::PlanMismatch { expected, found } => {
                assert_eq!(expected, expected_fp);
                assert_eq!(found, found_fp);
                assert_ne!(expected, found);
                let msg = err.to_string();
                assert!(msg.contains("different model"), "unhelpful error: {msg}");
            }
            other => panic!("expected PlanMismatch error, got {other:?}"),
        }

        // A reprogrammed generation shares the structural fingerprint:
        // a plan placed for it runs the original model, and vice versa.
        let regen = model.reprogram(1).unwrap();
        let plan_regen = ShardPlan::place(&regen, 2, tile).unwrap();
        plan_regen.run_batch(&model, &images).unwrap();
        ShardPlan::place(&model, 3, tile)
            .unwrap()
            .run_batch(&regen, &images)
            .unwrap();
    }

    #[test]
    fn remap_validates_and_rotation_is_pure_scheduling_at_any_age() {
        use raella_xbar::lifetime::DeviceLifetime;
        let cfg = cfg()
            .with_noise(0.05)
            .with_lifetime(DeviceLifetime::new(0.0, 0.04, 8));
        let model = CompiledModel::compile_with_cache(
            &long_filter_graph(),
            &cfg,
            &crate::compiler::SharedCompileCache::new(),
        )
        .unwrap();
        let tile = TileSpec::new(64, 64);
        let plan = ShardPlan::place(&model, 3, tile).unwrap();

        // Bad maps are rejected.
        assert!(matches!(
            plan.remap_tiles(&model, &[0, 1], 3),
            Err(CoreError::Shard(_))
        ));
        assert!(matches!(
            plan.remap_tiles(&model, &[0, 1, 7], 3),
            Err(CoreError::Shard(_))
        ));

        // The rotation map: every tile one over.
        let rotated = plan.remap_tiles(&model, &[1, 2, 0], 3).unwrap();
        assert_eq!(rotated.tiles(), 3);
        assert_eq!(rotated.model_fingerprint(), plan.model_fingerprint());

        let img = image(11);
        let mut arena = ValueArena::new();
        for age in [0u64, 100] {
            let (base_out, base_stats) = plan
                .run_image_in_at_age(&model, &img, &mut arena, false, age)
                .unwrap();
            let (rot_out, rot_stats) = rotated
                .run_image_in_at_age(&model, &img, &mut arena, true, age)
                .unwrap();
            // Remapping moves work, never changes it.
            assert_eq!(base_out, rot_out, "age {age}");
            for t in 0..3 {
                assert_eq!(rot_stats[(t + 1) % 3], base_stats[t], "age {age} tile {t}");
            }
            // A separately compiled copy of the model agrees.
            let copy = CompiledModel::compile_with_cache(
                &long_filter_graph(),
                &cfg,
                &crate::compiler::SharedCompileCache::new(),
            )
            .unwrap();
            let (front_out, _) = plan
                .run_image_in_at_age(&copy, &img, &mut ValueArena::new(), true, age)
                .unwrap();
            assert_eq!(front_out, base_out, "age {age}");
        }
        // Aged runs report their drift epoch through the tile stats
        // (value-level divergence is pinned by the engine tests — this
        // model's tiny final layer saturates either way).
        let (_, fresh_stats) = plan
            .run_image_in_at_age(&model, &img, &mut arena, false, 0)
            .unwrap();
        let (_, aged_stats) = plan
            .run_image_in_at_age(&model, &img, &mut arena, false, 100)
            .unwrap();
        let epoch = |buckets: &[RunStats]| {
            let mut merged = RunStats::default();
            for b in buckets {
                merged.merge(b);
            }
            merged.drift_epoch
        };
        assert_eq!(epoch(&fresh_stats), 0);
        assert!(epoch(&aged_stats) > 0, "age 100 must advance the epoch");
    }

    #[test]
    fn rotation_wraps_and_identity_remap_is_a_no_op() {
        let model = compile();
        let plan = ShardPlan::place(&model, 3, TileSpec::new(64, 64)).unwrap();
        // Rotating by one tile as many times as there are tiles wraps to
        // the identity; a rotation by two is two rotations by one.
        let rotate = [1, 2, 0];
        let once = plan.remap_tiles(&model, &rotate, 3).unwrap();
        let twice = once.remap_tiles(&model, &rotate, 3).unwrap();
        assert_ne!(once, plan);
        assert_eq!(twice, plan.remap_tiles(&model, &[2, 0, 1], 3).unwrap());
        assert_eq!(twice.remap_tiles(&model, &rotate, 3).unwrap(), plan);
        // An identity map is a documented no-op.
        assert_eq!(plan.remap_tiles(&model, &[0, 1, 2], 3).unwrap(), plan);
    }

    #[test]
    fn shrink_onto_matches_from_scratch_placement_and_bytes() {
        let model = compile();
        let tile = TileSpec::new(64, 64);
        let plan = ShardPlan::place(&model, 3, tile).unwrap();
        let survivors = [0usize, 2];
        let shrunk = plan.shrink_onto(&model, &survivors).unwrap();

        // Tile namespace is preserved: the dead tile stays addressable.
        assert_eq!(shrunk.tiles(), 3);
        // ... but holds nothing.
        let views = shrunk.tile_views(&model);
        assert_eq!(views[1].cells(), 0);
        assert!(views[1].resident_layers().is_empty());

        // Bit-identical to a from-scratch placement over the survivors,
        // renumbered through the survivor list.
        let scratch = ShardPlan::place(&model, survivors.len(), tile).unwrap();
        for (s_placed, f_placed) in shrunk.placements().iter().zip(scratch.placements()) {
            for (s, f) in s_placed.slices().iter().zip(f_placed.slices()) {
                assert_eq!(s.tile, survivors[f.tile]);
                assert_eq!(s.groups, f.groups);
            }
        }

        // The reduction (and the served bytes) are unchanged.
        let img = image(7);
        let mut arena = ValueArena::new();
        let (base_out, base_stats) = plan
            .run_image_in_at_age(&model, &img, &mut arena, false, 0)
            .unwrap();
        let (shrunk_out, shrunk_stats) = shrunk
            .run_image_in_at_age(&model, &img, &mut arena, false, 0)
            .unwrap();
        assert_eq!(base_out, shrunk_out);
        assert_eq!(shrunk_stats.len(), 3);
        assert_eq!(shrunk_stats[1], RunStats::default(), "dead tile ran work");
        let merge = |buckets: &[RunStats]| {
            let mut m = RunStats::default();
            for b in buckets {
                m.merge(b);
            }
            m
        };
        assert_eq!(merge(&base_stats), merge(&shrunk_stats));
    }

    #[test]
    fn shrink_onto_names_the_offending_survivor_entry() {
        let model = compile();
        let plan = ShardPlan::place(&model, 3, TileSpec::new(64, 64)).unwrap();
        match plan.shrink_onto(&model, &[]) {
            Err(CoreError::Shard(msg)) => assert!(msg.contains("at least one"), "{msg}"),
            other => panic!("expected Shard error, got {other:?}"),
        }
        // A survivor naming a missing tile is called out by entry index.
        match plan.shrink_onto(&model, &[0, 7]) {
            Err(CoreError::Shard(msg)) => {
                assert!(msg.contains("entry 1"), "{msg}");
                assert!(msg.contains("missing tile 7"), "{msg}");
            }
            other => panic!("expected Shard error, got {other:?}"),
        }
        match plan.shrink_onto(&model, &[2, 0, 2]) {
            Err(CoreError::Shard(msg)) => {
                assert!(msg.contains("entry 2"), "{msg}");
                assert!(msg.contains("repeats tile 2"), "{msg}");
            }
            other => panic!("expected Shard error, got {other:?}"),
        }
        // A foreign model is a fingerprint mismatch, not a survivor error.
        let model_b = CompiledModel::compile_with_cache(
            &long_filter_graph_variant(),
            &cfg(),
            &crate::compiler::SharedCompileCache::new(),
        )
        .unwrap();
        assert!(matches!(
            plan.shrink_onto(&model_b, &[0, 1]),
            Err(CoreError::PlanMismatch { .. })
        ));
    }

    #[test]
    fn tile_cells_agree_with_tile_views() {
        let model = compile();
        let plan = ShardPlan::place(&model, 3, TileSpec::new(64, 64)).unwrap();
        let views = plan.tile_views(&model);
        let cells = plan.tile_cells(&model);
        assert_eq!(cells.len(), 3);
        for (view, &c) in views.iter().zip(&cells) {
            assert_eq!(view.cells(), c, "tile {}", view.tile());
        }
        assert!(cells.iter().sum::<u64>() > 0);
        // Per-layer restriction partitions the total.
        let fc1 = plan.tile_cells_for_layers(&model, &[0]);
        let fc2 = plan.tile_cells_for_layers(&model, &[1]);
        for t in 0..3 {
            assert_eq!(fc1[t] + fc2[t], cells[t], "tile {t}");
        }
        // Out-of-range layer indices are ignored.
        assert_eq!(plan.tile_cells_for_layers(&model, &[9]), vec![0, 0, 0]);
    }

    #[test]
    fn tile_views_stack_groups_up_to_the_row_budget() {
        let model = compile();
        // 128-row tiles over 64-row groups: two groups stack vertically
        // per crossbar, the same packing `place` splits by.
        let plan = ShardPlan::place(&model, 1, TileSpec::new(128, 64)).unwrap();
        let views = plan.tile_views(&model);
        // fc1 (3 groups) → slices [0..2] (one stacked crossbar) + [2..3]
        // (one); fc2 (1 group) → one. Charging per group would say 4.
        assert_eq!(views[0].crossbars(), 3);
        assert_eq!(views[0].row_groups(), 4);
    }

    #[test]
    fn tile_views_report_residency_and_occupancy() {
        let model = compile();
        let plan = ShardPlan::place(&model, 2, TileSpec::new(64, 64)).unwrap();
        let views = plan.tile_views(&model);
        assert_eq!(views.len(), 2);
        let total_groups: usize = views.iter().map(|v| v.row_groups()).sum();
        // fc1 has 3 groups, fc2 has 1.
        assert_eq!(total_groups, 4);
        let total_cells: u64 = views.iter().map(|v| v.cells()).sum();
        // Programmed cells = Σ rows × columns over all layers.
        let expected: u64 = model
            .compiled_layers()
            .iter()
            .map(|l| {
                l.rows_for_groups(0..l.group_count()) as u64
                    * (l.filters() * l.columns_per_filter()) as u64
            })
            .sum();
        assert_eq!(total_cells, expected);
        for v in &views {
            if v.crossbars() > 0 {
                let u = v.utilization(plan.tile_spec());
                assert!(u > 0.0 && u <= 1.0, "utilization {u}");
            }
            assert_eq!(v.resident_layers().len(), v.layer_indices().len());
        }
    }
}
