//! Whole-model compilation and deterministic image-level batching.
//!
//! [`CompiledModel`] is the compile-once / run-batch split simulator stacks
//! converge on: every `Conv`/`Linear` layer of a [`Graph`] goes through
//! Algorithm 1 exactly once up front (deduplicated by a
//! [`SharedCompileCache`]),
//! and then images stream through [`CompiledModel::run_batch`], which fans
//! whole images across `std::thread::scope` workers. Per-vector work runs
//! the cache-blocked panel kernel
//! ([`run_vector_groups_at_age`](crate::engine::run_vector_groups_at_age)),
//! so single-image latency tracks the CI-gated single-thread engine rate
//! rather than depending on worker count.
//!
//! # Determinism contract
//!
//! Each image executes against its own noise-stream state: the stream seed
//! is [`RaellaConfig::noise_seed`], derived from the configuration alone,
//! and the image's vectors are numbered from zero across its layers in
//! execution order. Consequently:
//!
//! * an image's result equals walking the graph with each layer compiled
//!   on its own and run through
//!   [`run_batch_at_age`](crate::engine::run_batch_at_age) under that seed
//!   and a vector counter that starts at zero for the image,
//! * an image's result does not depend on its batch position, the batch
//!   size, or the surrounding images, and
//! * results are bit-identical at any worker count (`RAELLA_THREADS` pins
//!   it), noisy or not, because image work items are fully independent and
//!   [`RunStats::merge`] is associative and commutative.

use std::sync::Arc;

use raella_nn::graph::{argmax, ExecPlan, Graph, ValueArena};
use raella_nn::layers::MatVecEngine;
use raella_nn::matrix::{Act, MatrixLayer};
use raella_nn::tensor::Tensor;

use crate::compiler::{CompiledLayer, SharedCompileCache};
use crate::config::RaellaConfig;
use crate::engine::RunStats;
use crate::error::CoreError;
use crate::parallel::worker_count_for;
use crate::shard::{run_batch_placed, run_image_placed};

/// Outputs and statistics of one batch run — [`CompiledModel::run_batch`]
/// or, under a tile placement, [`crate::shard::ShardPlan::run_batch`].
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResult {
    outputs: Vec<Tensor<u8>>,
    stats: RunStats,
    tile_stats: Vec<RunStats>,
}

impl BatchResult {
    /// Assembles a result from the outputs and per-tile buckets; the
    /// merged statistics are the buckets' exact merge.
    pub(crate) fn from_tiles(outputs: Vec<Tensor<u8>>, tile_stats: Vec<RunStats>) -> Self {
        let mut stats = RunStats::default();
        for bucket in &tile_stats {
            stats.merge(bucket);
        }
        BatchResult {
            outputs,
            stats,
            tile_stats,
        }
    }

    /// One output tensor per input image, in input order.
    pub fn outputs(&self) -> &[Tensor<u8>] {
        &self.outputs
    }

    /// Statistics merged across all images of the batch (and all tiles).
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Per-tile statistics (index = tile), merged across the batch. An
    /// unplaced [`CompiledModel`] run reports one bucket; the buckets
    /// always merge to [`BatchResult::stats`].
    pub fn tile_stats(&self) -> &[RunStats] {
        &self.tile_stats
    }

    /// Number of images in the batch.
    pub fn len(&self) -> usize {
        self.outputs.len()
    }

    /// Whether the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.outputs.is_empty()
    }

    /// Top-1 prediction (argmax) per image, in input order.
    pub fn predictions(&self) -> Vec<usize> {
        self.outputs
            .iter()
            .map(|out| argmax(out.as_slice()))
            .collect()
    }
}

/// A whole DNN graph compiled for RAELLA: every matrix layer's crossbar
/// program plus the execution plan, ready to serve image batches.
///
/// ```
/// use raella_core::model::CompiledModel;
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
/// let cfg = RaellaConfig {
///     search_vectors: 2,
///     ..RaellaConfig::default()
/// };
/// let model = CompiledModel::compile(&g, &cfg)?;
/// let images = vec![Tensor::zeros(&[2, 6, 6]), Tensor::zeros(&[2, 6, 6])];
/// let batch = model.run_batch(&images)?;
/// assert_eq!(batch.len(), 2);
/// assert_eq!(batch.outputs()[0], batch.outputs()[1]); // identical images
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CompiledModel {
    graph: Graph,
    plan: ExecPlan,
    /// Compiled matrix layers in execution order (one entry per matrix
    /// node; repeated layers share an [`Arc`]).
    layers: Vec<Arc<CompiledLayer>>,
    cfg: RaellaConfig,
}

impl CompiledModel {
    /// Compiles every matrix layer of `graph` under `cfg` through the
    /// process-wide [`SharedCompileCache::global`] cache.
    ///
    /// Layers are deduplicated by identity, so a layer appearing several
    /// times in the graph, shared between branches, or already compiled by
    /// *any other model in the process* under the same configuration runs
    /// the Algorithm 1 search once.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an invalid configuration,
    /// [`CoreError::Nn`] for a structurally invalid graph, and propagates
    /// per-layer compilation errors.
    pub fn compile(graph: &Graph, cfg: &RaellaConfig) -> Result<Self, CoreError> {
        Self::compile_with_cache(graph, cfg, &SharedCompileCache::global())
    }

    /// [`CompiledModel::compile`] through an explicit cache handle — use a
    /// fresh [`SharedCompileCache::new`] to isolate compiles (tests,
    /// configuration sweeps that should not populate the global cache).
    ///
    /// # Errors
    ///
    /// Same as [`CompiledModel::compile`].
    pub fn compile_with_cache(
        graph: &Graph,
        cfg: &RaellaConfig,
        cache: &SharedCompileCache,
    ) -> Result<Self, CoreError> {
        cfg.validate()?;
        let plan = graph.plan()?;
        let mut layers: Vec<Arc<CompiledLayer>> = Vec::new();
        for layer in graph.matrix_layers() {
            layers.push(cache.get_or_compile(layer, cfg)?);
        }
        Ok(CompiledModel {
            graph: graph.clone(),
            plan,
            layers,
            cfg: cfg.clone(),
        })
    }

    /// The configuration the model was compiled for.
    pub fn config(&self) -> &RaellaConfig {
        &self.cfg
    }

    /// The compiled graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Matrix-layer nodes in the graph (PIM-mapped workload size).
    pub fn matrix_layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Distinct compiled layers (after cache deduplication) — counted
    /// within this model, whatever else the cache holds, and recounted
    /// after a reprogram splits a shared layer.
    pub fn unique_layer_count(&self) -> usize {
        let mut seen: Vec<*const CompiledLayer> = self.layers.iter().map(Arc::as_ptr).collect();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    /// The compiled matrix layers in execution order — the model's view of
    /// the compile cache (repeated layers share an [`Arc`]). Tile shard
    /// planning reads this to size placements; a
    /// [`crate::shard::TileView`] holds the per-tile subset.
    pub fn compiled_layers(&self) -> &[Arc<CompiledLayer>] {
        &self.layers
    }

    /// The noise-stream seed this model derives for every image (see the
    /// module docs) — sharded execution reuses it so placement never
    /// changes the draw.
    pub(crate) fn noise_seed(&self) -> u64 {
        self.cfg.noise_seed()
    }

    /// The validated execution plan — sharded execution walks the same
    /// plan through the same graph, only the matrix-layer engine differs.
    pub(crate) fn exec_plan(&self) -> &ExecPlan {
        &self.plan
    }

    /// Total crossbar columns the model occupies across all layers.
    pub fn total_columns(&self) -> usize {
        self.layers.iter().map(|l| l.total_columns()).sum()
    }

    /// Runs one image, using vector-level parallelism inside each layer.
    ///
    /// Bit-identical to the same image inside any [`run_batch`] call.
    ///
    /// # Errors
    ///
    /// Propagates operator shape errors for a mis-shaped image.
    ///
    /// [`run_batch`]: CompiledModel::run_batch
    pub fn run_image(&self, image: &Tensor<u8>) -> Result<(Tensor<u8>, RunStats), CoreError> {
        let mut arena = ValueArena::new();
        self.run_image_in(image, &mut arena, true)
    }

    /// Runs one image on a device aged `age` served vectors since its
    /// last programming. Age 0 is bit-identical to
    /// [`CompiledModel::run_image`]; under a drifting
    /// [`raella_xbar::lifetime::DeviceLifetime`] the image's vectors run
    /// at ages `age..age + vectors_per_image`, so a serving layer that
    /// advances its age counter by [`CompiledModel::vectors_per_image`]
    /// per request reproduces one continuous device history.
    ///
    /// # Errors
    ///
    /// Propagates operator shape errors for a mis-shaped image.
    pub fn run_image_at_age(
        &self,
        image: &Tensor<u8>,
        age: u64,
    ) -> Result<(Tensor<u8>, RunStats), CoreError> {
        let mut arena = ValueArena::new();
        self.run_image_in_at_age(image, &mut arena, true, age)
    }

    /// Runs a batch of images, fanning whole images across worker threads
    /// (`RAELLA_THREADS` or the available parallelism, capped at one
    /// worker per image).
    ///
    /// Outputs come back in input order; statistics are merged across the
    /// batch. See the module docs for the determinism contract.
    ///
    /// # Errors
    ///
    /// Propagates operator shape errors for mis-shaped images (the batch
    /// fails as a whole).
    pub fn run_batch(&self, images: &[Tensor<u8>]) -> Result<BatchResult, CoreError> {
        self.run_batch_threaded(images, worker_count_for(images.len(), 1))
    }

    /// [`run_batch`] with an explicit image-level worker count — the
    /// benchmarking entry point (results are bit-identical at any count).
    ///
    /// # Errors
    ///
    /// Same as [`run_batch`].
    ///
    /// [`run_batch`]: CompiledModel::run_batch
    pub fn run_batch_threaded(
        &self,
        images: &[Tensor<u8>],
        threads: usize,
    ) -> Result<BatchResult, CoreError> {
        run_batch_placed(self, None, images, threads)
    }

    /// Runs one image against a caller-pooled arena — the serving hot
    /// path: a long-lived worker (e.g. a [`crate::server::RaellaServer`]
    /// worker thread) keeps one [`ValueArena`] for its lifetime, so
    /// steady-state execution allocates nothing per image beyond the
    /// output tensors. `parallel_vectors` selects vector-level fan-out
    /// inside each layer (pass `false` when the caller already provides
    /// image- or request-level parallelism); both settings produce
    /// identical bytes. Every image gets a fresh noise-stream state (seed
    /// from the configuration, vector counter at zero), which is the
    /// whole determinism story.
    ///
    /// # Errors
    ///
    /// Propagates operator shape errors for a mis-shaped image.
    pub fn run_image_in(
        &self,
        image: &Tensor<u8>,
        arena: &mut ValueArena,
        parallel_vectors: bool,
    ) -> Result<(Tensor<u8>, RunStats), CoreError> {
        self.run_image_in_at_age(image, arena, parallel_vectors, 0)
    }

    /// [`CompiledModel::run_image_in`] on a device aged `age` served
    /// vectors — the serving hot path at any point in the device's
    /// lifetime. Age 0 is bit-identical to [`CompiledModel::run_image_in`].
    /// The model runs as a one-tile placement through the same per-image
    /// walk as [`crate::shard::ShardPlan::run_image_in_at_age`].
    ///
    /// # Errors
    ///
    /// Propagates operator shape errors for a mis-shaped image.
    pub fn run_image_in_at_age(
        &self,
        image: &Tensor<u8>,
        arena: &mut ValueArena,
        parallel_vectors: bool,
        age: u64,
    ) -> Result<(Tensor<u8>, RunStats), CoreError> {
        let (out, tiles) = run_image_placed(self, None, image, arena, parallel_vectors, age, None)?;
        Ok((out, tiles[0]))
    }

    /// Input vectors one `image` pushes through the model's matrix layers
    /// — the amount one request ages the device. Computed by a dry graph
    /// walk that runs the digital operators but skips all crossbar work,
    /// so it is cheap enough to call at admission time (serving layers
    /// should still memoize it per input shape).
    ///
    /// # Errors
    ///
    /// Propagates operator shape errors for a mis-shaped image.
    pub fn vectors_per_image(&self, image: &Tensor<u8>) -> Result<u64, CoreError> {
        struct CountingEngine<'m> {
            layers: &'m [Arc<CompiledLayer>],
            cursor: usize,
            vectors: u64,
        }
        impl MatVecEngine for CountingEngine<'_> {
            fn layer_outputs(&mut self, layer: &MatrixLayer, inputs: &[Act]) -> Vec<u8> {
                let compiled = &self.layers[self.cursor];
                self.cursor += 1;
                debug_assert_eq!(compiled.name(), layer.name(), "layer order drifted");
                let n = inputs.len() / layer.filter_len();
                self.vectors += n as u64;
                // Shapes downstream depend only on dimensions, never on
                // values, so zero outputs walk the rest of the graph.
                vec![0u8; n * layer.filters()]
            }
        }
        let mut engine = CountingEngine {
            layers: &self.layers,
            cursor: 0,
            vectors: 0,
        };
        let mut arena = ValueArena::new();
        self.graph
            .run_planned(&self.plan, image, &mut engine, &mut arena)?;
        Ok(engine.vectors)
    }

    /// Re-programs every matrix layer at `generation`: fresh
    /// programming-error draws from pristine weights, same slicings, same
    /// noise-stream seed (see [`CompiledLayer::reprogram`]) —
    /// [`CompiledModel::reprogram_to`] with every target at `generation`.
    /// Layer sharing is preserved — a layer compiled once and used twice
    /// is re-programmed once. This is the server's recalibration
    /// primitive: swapping the result in for the old model restores
    /// programming fidelity, and resetting the age counter restarts
    /// relaxation.
    ///
    /// # Errors
    ///
    /// Propagates per-layer compile errors (cannot happen for models built
    /// through [`CompiledModel::compile`]).
    pub fn reprogram(&self, generation: u64) -> Result<Self, CoreError> {
        let mut fresh = self.reprogram_to(&vec![generation; self.layers.len()])?;
        fresh.cfg.lifetime.generation = generation;
        Ok(fresh)
    }

    /// Re-programs only the matrix layers named in `layers` (indices into
    /// [`CompiledModel::compiled_layers`]) at `generation`, keeping every
    /// other layer's existing programming — the targeted recalibration
    /// primitive: refresh the over-budget layers' cells without paying the
    /// write wear of a full-array reprogram. Each layer *index* is its own
    /// physical array: unnamed indices keep their existing programming
    /// even when they share a compiled `Arc` with a named one (the shared
    /// artifact splits, exactly as distinct crossbar arrays would).
    /// Out-of-range indices are ignored.
    ///
    /// Programming draws are keyed by `(seed, generation, filter, group)`
    /// — never by which layers rode along — so a partial reprogram is
    /// replayed exactly by [`CompiledModel::reprogram_to`] with the
    /// resulting [`CompiledModel::layer_generations`]. The model-level
    /// generation ([`RaellaConfig::lifetime`]) advances to `generation`.
    ///
    /// # Errors
    ///
    /// Propagates per-layer compile errors (cannot happen for models built
    /// through [`CompiledModel::compile`]).
    pub fn reprogram_layers(&self, generation: u64, layers: &[usize]) -> Result<Self, CoreError> {
        let targets: Vec<u64> = self
            .layers
            .iter()
            .enumerate()
            .map(|(i, layer)| {
                if layers.contains(&i) {
                    generation
                } else {
                    layer.config().lifetime.generation
                }
            })
            .collect();
        let mut fresh = self.reprogram_to(&targets)?;
        fresh.cfg.lifetime.generation = generation;
        Ok(fresh)
    }

    /// The programming generation of each matrix layer, in execution
    /// order. All equal after [`CompiledModel::compile`] or a full
    /// [`CompiledModel::reprogram`]; a partial
    /// [`CompiledModel::reprogram_layers`] leaves them mixed. Feed the
    /// vector to [`CompiledModel::reprogram_to`] to rebuild the exact
    /// same programming state offline.
    pub fn layer_generations(&self) -> Vec<u64> {
        self.layers
            .iter()
            .map(|layer| layer.config().lifetime.generation)
            .collect()
    }

    /// Re-programs each matrix layer to its own target generation — the
    /// offline replay primitive for partially recalibrated models: compile
    /// the base model, then `reprogram_to(&response.layer_generations())`
    /// and run the image at the response's age. A layer already at its
    /// target keeps its `Arc` untouched; layers sharing an `Arc` whose
    /// targets diverge stop sharing (their draws were identical only
    /// while their generations agreed). The model-level generation
    /// becomes the maximum target.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] unless `generations` has
    /// exactly one entry per matrix layer, and propagates per-layer
    /// compile errors.
    pub fn reprogram_to(&self, generations: &[u64]) -> Result<Self, CoreError> {
        if generations.len() != self.layers.len() {
            return Err(CoreError::InvalidConfig(format!(
                "generation vector has {} entries, model has {} matrix layers",
                generations.len(),
                self.layers.len()
            )));
        }
        let mut cfg = self.cfg.clone();
        cfg.lifetime.generation = generations
            .iter()
            .copied()
            .max()
            .unwrap_or(cfg.lifetime.generation);
        let mut remapped: Vec<((*const CompiledLayer, u64), Arc<CompiledLayer>)> = Vec::new();
        let mut layers = Vec::with_capacity(self.layers.len());
        for ((mat, old), &target) in self
            .graph
            .matrix_layers()
            .into_iter()
            .zip(&self.layers)
            .zip(generations)
        {
            if old.config().lifetime.generation == target {
                layers.push(Arc::clone(old));
                continue;
            }
            let key = (Arc::as_ptr(old), target);
            let fresh = match remapped.iter().find(|(k, _)| *k == key) {
                Some((_, a)) => Arc::clone(a),
                None => {
                    let built = Arc::new(old.reprogram(mat, target)?);
                    remapped.push((key, Arc::clone(&built)));
                    built
                }
            };
            layers.push(fresh);
        }
        Ok(CompiledModel {
            graph: self.graph.clone(),
            plan: self.graph.plan()?,
            layers,
            cfg,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raella_nn::synth::SynthLayer;

    fn tiny_graph() -> Graph {
        let mut g = Graph::new();
        let input = g.input();
        let c1 = g
            .conv(input, SynthLayer::conv(2, 4, 3, 1).build(), 2, 3, 1, 1)
            .unwrap();
        let p = g.max_pool(c1, 2, 2);
        let gap = g.global_avg_pool(p);
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

    #[test]
    fn compile_counts_layers() {
        let model = CompiledModel::compile(&tiny_graph(), &tiny_cfg()).unwrap();
        assert_eq!(model.matrix_layer_count(), 2);
        assert_eq!(model.unique_layer_count(), 2);
        assert!(model.total_columns() > 0);
    }

    #[test]
    fn repeated_layers_compile_once() {
        // The same MatrixLayer object used twice must share one compile.
        let shared = SynthLayer::conv(2, 2, 3, 5).build();
        let mut g = Graph::new();
        let input = g.input();
        let a = g.conv(input, shared.clone(), 2, 3, 1, 1).unwrap();
        let b = g.conv(a, shared, 2, 3, 1, 1).unwrap();
        g.set_output(b);
        let model = CompiledModel::compile(&g, &tiny_cfg()).unwrap();
        assert_eq!(model.matrix_layer_count(), 2);
        assert_eq!(model.unique_layer_count(), 1);
        assert!(Arc::ptr_eq(&model.layers[0], &model.layers[1]));
    }

    #[test]
    fn batch_outputs_match_single_runs() {
        let model = CompiledModel::compile(&tiny_graph(), &tiny_cfg()).unwrap();
        let images: Vec<Tensor<u8>> = (0..3).map(sample_image).collect();
        let batch = model.run_batch(&images).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.predictions().len(), 3);
        let mut merged = RunStats::default();
        for (img, expected) in images.iter().zip(batch.outputs()) {
            let (single, stats) = model.run_image(img).unwrap();
            assert_eq!(&single, expected);
            merged.merge(&stats);
        }
        assert_eq!(&merged, batch.stats());
    }

    #[test]
    fn misshaped_image_fails_the_batch() {
        let model = CompiledModel::compile(&tiny_graph(), &tiny_cfg()).unwrap();
        let bad = Tensor::zeros(&[5, 8, 8]);
        assert!(model.run_batch(&[bad]).is_err());
    }

    #[test]
    fn vectors_per_image_matches_executed_count() {
        let model = CompiledModel::compile(&tiny_graph(), &tiny_cfg()).unwrap();
        let image = sample_image(3);
        let counted = model.vectors_per_image(&image).unwrap();
        let (_, stats) = model.run_image(&image).unwrap();
        assert_eq!(counted, stats.vectors);
        assert!(counted > 0);
    }

    #[test]
    fn aged_image_run_is_age_zero_compatible_and_reprogram_preserves_sharing() {
        use raella_xbar::lifetime::DeviceLifetime;
        let cfg = tiny_cfg().with_lifetime(DeviceLifetime::new(0.4, 0.05, 8));
        let shared = SynthLayer::conv(2, 2, 3, 5).build();
        let mut g = Graph::new();
        let input = g.input();
        let a = g.conv(input, shared.clone(), 2, 3, 1, 1).unwrap();
        let b = g.conv(a, shared, 2, 3, 1, 1).unwrap();
        g.set_output(b);
        let model =
            CompiledModel::compile_with_cache(&g, &cfg, &SharedCompileCache::new()).unwrap();
        let image = sample_image(9);
        let (at0, s0) = model.run_image_at_age(&image, 0).unwrap();
        let (plain, sp) = model.run_image(&image).unwrap();
        assert_eq!(at0, plain);
        assert_eq!(s0, sp);

        let (aged, sa) = model.run_image_at_age(&image, 1000).unwrap();
        assert!(sa.drift_epoch > 0);
        assert_ne!(aged, plain, "drift must perturb this noisy-free config");

        let re = model.reprogram(1).unwrap();
        assert_eq!(re.unique_layer_count(), 1);
        // A partial reprogram splits the shared layer into two arrays.
        assert_eq!(
            model
                .reprogram_layers(1, &[0])
                .unwrap()
                .unique_layer_count(),
            2
        );
        assert!(Arc::ptr_eq(&re.layers[0], &re.layers[1]));
        assert_eq!(re.config().lifetime.generation, 1);
        // Same generation reproduces the exact same array and outputs.
        let re0 = model.reprogram(0).unwrap();
        let (back, _) = re0.run_image_at_age(&image, 1000).unwrap();
        assert_eq!(back, aged);
        // A fresh generation changes programming, hence outputs.
        let (g1, _) = re.run_image_at_age(&image, 1000).unwrap();
        assert_ne!(g1, aged, "fresh programming draw must differ");
    }

    #[test]
    fn partial_reprogram_tracks_per_layer_generations_and_replays() {
        use raella_xbar::lifetime::DeviceLifetime;
        let cfg = tiny_cfg()
            .with_noise(0.05)
            .with_lifetime(DeviceLifetime::new(0.3, 0.0, 0));
        let model = CompiledModel::compile(&tiny_graph(), &cfg).unwrap();
        assert_eq!(model.layer_generations(), vec![0, 0]);
        let image = sample_image(3);
        let (base_out, _) = model.run_image(&image).unwrap();

        // Refresh only layer 1: layer 0 keeps its Arc and generation.
        let partial = model.reprogram_layers(4, &[1]).unwrap();
        assert_eq!(partial.layer_generations(), vec![0, 4]);
        assert_eq!(partial.config().lifetime.generation, 4);
        assert!(Arc::ptr_eq(&partial.layers[0], &model.layers[0]));
        assert!(!Arc::ptr_eq(&partial.layers[1], &model.layers[1]));
        let (partial_out, _) = partial.run_image(&image).unwrap();
        assert_ne!(partial_out, base_out, "fresh draw must perturb layer 1");

        // reprogram_to rebuilds the exact mixed-generation state offline.
        let replayed = model.reprogram_to(&partial.layer_generations()).unwrap();
        let (replay_out, _) = replayed.run_image(&image).unwrap();
        assert_eq!(replay_out, partial_out);
        // Already-at-target layers keep their Arcs untouched.
        assert!(Arc::ptr_eq(&replayed.layers[0], &model.layers[0]));

        // Out-of-range names are ignored; a wrong-length vector errors.
        let noop = model.reprogram_layers(9, &[7]).unwrap();
        let (noop_out, _) = noop.run_image(&image).unwrap();
        assert_eq!(noop_out, base_out);
        assert!(matches!(
            model.reprogram_to(&[1]),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn invalid_graph_is_rejected_at_compile_time() {
        let mut g = Graph::new();
        let _input = g.input();
        g.set_output(99); // not a node
        let err = CompiledModel::compile(&g, &tiny_cfg()).unwrap_err();
        assert!(matches!(err, CoreError::Nn(_)), "{err}");
    }
}
