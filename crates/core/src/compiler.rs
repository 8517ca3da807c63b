//! The RAELLA layer compiler: Algorithm 1's `SliceEncodeWeights`.
//!
//! Compiling a layer is one-time preprocessing (§4.2.2): pick the weight
//! slicing (Adaptive Weight Slicing, or a pinned slicing for ablations),
//! solve per-filter centers (Eq. (2)), split weights into signed offset
//! slices, and lay the slices out as crossbar columns. Filters longer than
//! the crossbar are partitioned over row groups, each with its own center —
//! the paper's footnote 5 definition of "filter".

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use serde::{Deserialize, Serialize};

use raella_nn::matrix::MatrixLayer;
use raella_nn::quant::OutputQuant;
use raella_xbar::noise::NoiseRng;
use raella_xbar::slicing::{Slice, Slicing};

use crate::accuracy::FidelityReport;
use crate::adaptive;
use crate::center::{offsets, CenterSolver};
use crate::config::{RaellaConfig, WeightEncoding};
use crate::engine::{run_batch_parallel_at_age, RunStats};
use crate::error::CoreError;

/// Filters per cache-blocked column panel in the packed level layout
/// ([`LevelPanels`]). 64 `i16` lanes are two cache lines per packed row —
/// wide enough for the autovectorizer, small enough that a panel's `i32`
/// window accumulators stay resident in L1 across a row sweep.
pub const PANEL_WIDTH: usize = 64;

/// One row group's slice levels re-packed for the cache-blocked panel
/// kernel (`crates/core/src/engine.rs`).
///
/// [`FilterGroup::levels`] stores one column (filter × slice) contiguously
/// — the right shape for programming crossbars and for the scalar
/// reference kernel, but a kernel walking rows touches every column's
/// vector at once. `LevelPanels` stores the transposed, blocked form: per
/// weight slice, blocks of [`PANEL_WIDTH`] filters laid out row-major with
/// the block's filters contiguous per row, so one pass over an input
/// plane's nonzero rows feeds `PANEL_WIDTH` column accumulators, each row
/// read from sequential memory.
///
/// Derived from the groups at compile time (redundant but deterministic
/// data, serialized with the layer like everything else).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LevelPanels {
    /// `data[s]`: slice `s` levels, `[block][local row][lane]`. Block `p`
    /// holds filters `p·PANEL_WIDTH ..` and starts at flat offset
    /// `p·PANEL_WIDTH·rows` (every preceding block is full-width).
    data: Vec<Vec<i16>>,
    /// Per-filter Center+Offset centers for this group, packed for the
    /// kernel's filter-major conversion pass.
    centers: Vec<i32>,
    /// Rows this group covers (the packed rows per block).
    rows: usize,
    /// Per local row: `Σ_{filter, slice} |level|`, the device charge one
    /// unit of input mass on that row drives through every column.
    abs_rows: Vec<u64>,
}

impl LevelPanels {
    /// The packed levels of block `p` for weight slice `s`: `width × rows`
    /// values, row-major (`row·width + lane`).
    pub(crate) fn block(&self, s: usize, p: usize, width: usize) -> &[i16] {
        let start = p * PANEL_WIDTH * self.rows;
        &self.data[s][start..start + width * self.rows]
    }

    /// Per-filter centers for this group.
    pub(crate) fn centers(&self) -> &[i32] {
        &self.centers
    }

    /// Per local row: the summed level magnitude of every column, so a
    /// row driven with charge mass `m` charges the device `m·abs_rows[r]`.
    pub(crate) fn abs_rows(&self) -> &[u64] {
        &self.abs_rows
    }
}

/// Stream tag separating programming-error draws from every read-noise
/// stream (which key off the run seed XOR `0xE61E` / fidelity constants).
const PROGRAM_STREAM: u64 = 0x9B06;

/// Perturbs the compiled slice levels with the lifetime model's
/// programming error: each cell lands within a Gaussian of
/// `programming_sigma` levels around its target, clamped to the slice's
/// representable magnitude.
///
/// The draw is a pure function of `(seed, generation, filter, group)` —
/// one substream per filter-group, consumed in fixed `(slice, row)` order
/// — so re-compiling at the same generation reproduces the exact same
/// array, and bumping the generation (re-programming) takes a fresh,
/// equally deterministic draw. Input-independent: programming error is
/// frozen at write time, unlike read noise.
fn apply_programming_error(groups: &mut [Vec<FilterGroup>], slices: &[Slice], cfg: &RaellaConfig) {
    let sigma = cfg.lifetime.programming_sigma;
    let generation = cfg.lifetime.generation;
    let groups_per_filter = groups[0].len() as u64;
    for (f, fgs) in groups.iter_mut().enumerate() {
        for (gi, g) in fgs.iter_mut().enumerate() {
            let lane = f as u64 * groups_per_filter + gi as u64;
            let mut rng = NoiseRng::for_substream(cfg.seed ^ PROGRAM_STREAM, generation, lane);
            for (s, slice) in slices.iter().enumerate() {
                let cap = slice.max_magnitude();
                for level in &mut g.levels[s] {
                    let delta = (sigma * rng.standard_normal()).round() as i32;
                    *level = (i32::from(*level) + delta).clamp(-cap, cap) as i16;
                }
            }
        }
    }
}

/// Packs `groups` (column-major levels) into the panel-blocked layout,
/// one [`LevelPanels`] per row group.
fn build_level_panels(groups: &[Vec<FilterGroup>], num_slices: usize) -> Vec<LevelPanels> {
    let filters = groups.len();
    let group_count = groups[0].len();
    let mut panels = Vec::with_capacity(group_count);
    for gi in 0..group_count {
        let rows = groups[0][gi].rows;
        let mut data = vec![vec![0i16; filters * rows]; num_slices];
        let mut centers = Vec::with_capacity(filters);
        let mut abs_rows = vec![0u64; rows];
        for (f, fgs) in groups.iter().enumerate() {
            let g = &fgs[gi];
            debug_assert_eq!(g.rows, rows, "group geometry is uniform by construction");
            centers.push(g.center);
            let p = f / PANEL_WIDTH;
            let lane = f - p * PANEL_WIDTH;
            let width = (filters - p * PANEL_WIDTH).min(PANEL_WIDTH);
            let base = p * PANEL_WIDTH * rows;
            for (s, d) in data.iter_mut().enumerate() {
                for (r, &level) in g.levels[s].iter().enumerate() {
                    d[base + r * width + lane] = level;
                    abs_rows[r] += u64::from(level.unsigned_abs());
                }
            }
        }
        panels.push(LevelPanels {
            data,
            centers,
            rows,
            abs_rows,
        });
    }
    panels
}

/// One filter's slice columns within one crossbar row-group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FilterGroup {
    /// The Center+Offset center φ for this group's weights.
    pub center: i32,
    /// First layer-row this group covers.
    pub row_start: usize,
    /// Rows covered (≤ crossbar rows).
    pub rows: usize,
    /// Signed slice levels: `levels[s][r]` for weight slice `s`, local row
    /// `r`. Magnitudes fit the cell rating; sign selects the 2T2R cell.
    pub levels: Vec<Vec<i16>>,
}

/// A DNN layer compiled for RAELLA: programmed crossbar columns plus the
/// digital-side metadata (centers, requantizer).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledLayer {
    name: String,
    filters: usize,
    filter_len: usize,
    weight_slicing: Slicing,
    /// `groups[f]` = row groups of filter `f`.
    groups: Vec<Vec<FilterGroup>>,
    /// `panels[gi]` = the panel-blocked packing of every filter's group
    /// `gi` levels (the execution kernel's layout; derived from `groups`).
    panels: Vec<LevelPanels>,
    /// The weight slices' reassembly shifts, hoisted from the slicing so
    /// the kernel never rebuilds slice ranges per vector.
    slice_shifts: Vec<u32>,
    quant: OutputQuant,
    signed_inputs: bool,
    cfg: RaellaConfig,
    search_error: Option<f64>,
}

impl CompiledLayer {
    /// Compiles a layer: full Algorithm 1 (slicing search + centers +
    /// offset encoding + column layout).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for invalid configurations.
    pub fn compile(layer: &MatrixLayer, cfg: &RaellaConfig) -> Result<Self, CoreError> {
        cfg.validate()?;
        let (slicing, search_error) = if let Some(s) = &cfg.fixed_weight_slicing {
            (s.clone(), None)
        } else if cfg.last_layer {
            (Slicing::uniform(1, 8), None)
        } else {
            // Table 4 methodology: the search may assume a different
            // encoding than the runtime one (see `search_encoding`).
            let mut search_cfg = cfg.clone();
            if let Some(enc) = cfg.search_encoding {
                search_cfg.encoding = enc;
            }
            let found = adaptive::find_best_slicing(layer, &search_cfg)?;
            (found.slicing, Some(found.error))
        };
        let mut compiled = Self::with_slicing(layer, slicing, cfg)?;
        compiled.search_error = search_error;
        Ok(compiled)
    }

    /// Compiles with a given weight slicing (no search) — used by the
    /// adaptive search itself and by ablation setups.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the slicing does not cover
    /// 8 bits or exceeds the cell rating.
    pub fn with_slicing(
        layer: &MatrixLayer,
        slicing: Slicing,
        cfg: &RaellaConfig,
    ) -> Result<Self, CoreError> {
        let mut solver = None; // built once `encode` has validated the slicing
        Self::encode(layer, slicing, cfg, |f, _, weights, slicing| {
            match cfg.encoding {
                WeightEncoding::CenterOffset => solver
                    .get_or_insert_with(|| CenterSolver::new(slicing))
                    .solve(weights),
                WeightEncoding::ZeroOffset => i32::from(layer.quant().weight_zero_points[f]),
            }
        })
    }

    /// [`CompiledLayer::with_slicing`] with each filter group's center
    /// supplied by `center(filter, group index, group weights, slicing)`.
    fn encode(
        layer: &MatrixLayer,
        slicing: Slicing,
        cfg: &RaellaConfig,
        mut center: impl FnMut(usize, usize, &[u8], &Slicing) -> i32,
    ) -> Result<Self, CoreError> {
        cfg.validate()?;
        if slicing.total_bits() != 8 {
            return Err(CoreError::InvalidConfig(format!(
                "weight slicing {slicing} must cover 8 bits"
            )));
        }
        if slicing.max_width() > u32::from(cfg.cell_bits) {
            return Err(CoreError::InvalidConfig(format!(
                "weight slicing {slicing} exceeds {}b cells",
                cfg.cell_bits
            )));
        }
        let slices = slicing.slices();
        let mut groups = Vec::with_capacity(layer.filters());
        for f in 0..layer.filters() {
            let weights = layer.filter_weights(f);
            let mut filter_groups = Vec::new();
            let mut row_start = 0;
            while row_start < weights.len() {
                let rows = (weights.len() - row_start).min(cfg.crossbar_rows);
                let group_weights = &weights[row_start..row_start + rows];
                let center = center(f, filter_groups.len(), group_weights, &slicing);
                let mut levels = vec![vec![0i16; rows]; slices.len()];
                for (r, &w) in group_weights.iter().enumerate() {
                    let (pos, neg) = offsets(w, center);
                    let signed_offset = i32::from(pos) - i32::from(neg);
                    for (s, slice) in slices.iter().enumerate() {
                        levels[s][r] = slice.crop(signed_offset) as i16;
                    }
                }
                filter_groups.push(FilterGroup {
                    center,
                    row_start,
                    rows,
                    levels,
                });
                row_start += rows;
            }
            groups.push(filter_groups);
        }
        if cfg.lifetime.programming_sigma > 0.0 {
            apply_programming_error(&mut groups, &slices, cfg);
        }
        let panels = build_level_panels(&groups, slices.len());
        let slice_shifts = slicing.shifts();
        Ok(CompiledLayer {
            name: layer.name().to_string(),
            filters: layer.filters(),
            filter_len: layer.filter_len(),
            weight_slicing: slicing,
            groups,
            panels,
            slice_shifts,
            quant: layer.quant().clone(),
            signed_inputs: layer.signed_inputs(),
            cfg: cfg.clone(),
            search_error: None,
        })
    }

    /// Layer name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of filters (dot products).
    pub fn filters(&self) -> usize {
        self.filters
    }

    /// Dot-product length.
    pub fn filter_len(&self) -> usize {
        self.filter_len
    }

    /// The weight slicing in use.
    pub fn weight_slicing(&self) -> &Slicing {
        &self.weight_slicing
    }

    /// Per-filter row groups (crossbar layout).
    pub fn groups(&self) -> &[Vec<FilterGroup>] {
        &self.groups
    }

    /// Panel-blocked level packing per row group (the kernel layout).
    pub(crate) fn panels(&self) -> &[LevelPanels] {
        &self.panels
    }

    /// The weight slices' reassembly shifts, MSB slice first.
    pub(crate) fn slice_shifts(&self) -> &[u32] {
        &self.slice_shifts
    }

    /// Test-only mutable access to the group layout, for constructing
    /// geometry-violating layers in engine unit tests (the event-counting
    /// path debug-asserts that every filter's group `gi` shares
    /// `row_start`/`rows`).
    #[cfg(all(test, debug_assertions))]
    pub(crate) fn groups_mut(&mut self) -> &mut Vec<Vec<FilterGroup>> {
        &mut self.groups
    }

    /// Crossbar row groups per filter. Group boundaries depend only on
    /// `filter_len` and the configured crossbar rows, so every filter has
    /// the same count — this is the granularity tile sharding splits at.
    pub fn group_count(&self) -> usize {
        self.groups[0].len()
    }

    /// The layer-row range `[row_start, row_start + rows)` group `gi`
    /// covers (identical for every filter).
    ///
    /// # Panics
    ///
    /// Panics if `gi >= self.group_count()`.
    pub fn group_row_range(&self, gi: usize) -> std::ops::Range<usize> {
        let g = &self.groups[0][gi];
        g.row_start..g.row_start + g.rows
    }

    /// Rows one filter occupies across the row groups in `range` — the
    /// row footprint a tile hosting that range must provide.
    ///
    /// # Panics
    ///
    /// Panics if `range` exceeds [`CompiledLayer::group_count`].
    pub fn rows_for_groups(&self, range: std::ops::Range<usize>) -> usize {
        self.groups[0][range].iter().map(|g| g.rows).sum()
    }

    /// Crossbar columns the row groups in `range` occupy (every filter ×
    /// every weight slice, per group) — the per-tile slice of
    /// [`CompiledLayer::total_columns`].
    pub fn columns_for_groups(&self, range: std::ops::Range<usize>) -> usize {
        self.filters * self.columns_per_filter() * range.len()
    }

    /// The output requantizer.
    pub fn quant(&self) -> &OutputQuant {
        &self.quant
    }

    /// Whether inputs are signed (processed as two planes).
    pub fn signed_inputs(&self) -> bool {
        self.signed_inputs
    }

    /// The configuration this layer was compiled for.
    pub fn config(&self) -> &RaellaConfig {
        &self.cfg
    }

    /// Mean error measured by the slicing search, if a search ran.
    pub fn search_error(&self) -> Option<f64> {
        self.search_error
    }

    /// Crossbar columns per filter (= number of weight slices).
    pub fn columns_per_filter(&self) -> usize {
        self.weight_slicing.num_slices()
    }

    /// Total crossbar columns the layer occupies (all filters × slices ×
    /// row-group partitions).
    pub fn total_columns(&self) -> usize {
        self.groups
            .iter()
            .map(|gs| gs.len() * self.columns_per_filter())
            .sum()
    }

    /// Compares analog outputs against the integer reference on `vectors`
    /// fresh synthetic input vectors and reports fidelity (§4.2.1 metric),
    /// on a device aged `age` served vectors since its last programming
    /// (0 = freshly programmed) — how the server's watchdog samples
    /// degradation mid-lifetime. The reference stays the pristine integer
    /// model, so both programming error and accumulated relaxation show
    /// up as real fidelity loss.
    ///
    /// # Errors
    ///
    /// Currently infallible but returns `Result` to keep room for
    /// configuration-dependent failure reporting.
    pub fn check_fidelity_at_age(
        &self,
        layer: &MatrixLayer,
        vectors: usize,
        age: u64,
    ) -> Result<FidelityReport, CoreError> {
        let inputs = layer.sample_inputs(vectors, self.cfg.seed ^ 0xF1DE);
        let reference = layer.reference_outputs(&inputs);
        let mut stats = RunStats::default();
        let observed =
            run_batch_parallel_at_age(self, &inputs, &mut stats, self.cfg.seed ^ 0x0153, 0, age);
        Ok(FidelityReport::compare(&reference, &observed, &stats))
    }

    /// Re-programs the layer at `generation`: rebuilds every cell from the
    /// pristine weights with a **fresh** programming-error draw (the
    /// lifetime model's per-generation substream), keeping the slicing,
    /// centers, search error, and every other compile decision unchanged.
    /// `layer` must be the layer this one was compiled from: centers are a
    /// pure function of (weights, slicing, encoding), so they are reused
    /// rather than re-solved, and the result equals
    /// [`CompiledLayer::with_slicing`] at `generation`.
    ///
    /// Clamped programming error is not invertible, so this always
    /// recompiles from `layer`'s true weights — never perturbs the already
    /// perturbed levels — which is what makes re-programming restore, not
    /// compound, fidelity. Read-noise streams do not depend on the
    /// generation: a swapped-in generation-`g` layer at age `a` reads
    /// exactly like a generation-`g` layer built from scratch and aged to
    /// `a`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the stored configuration no
    /// longer validates (cannot happen for layers built through
    /// [`CompiledLayer::compile`]).
    ///
    /// # Panics
    ///
    /// Panics if `layer`'s shape differs from this layer's.
    pub fn reprogram(&self, layer: &MatrixLayer, generation: u64) -> Result<Self, CoreError> {
        assert_eq!(
            (layer.filters(), layer.filter_len()),
            (self.filters, self.filter_len),
            "reprogram needs the layer {} was compiled from",
            self.name
        );
        let mut cfg = self.cfg.clone();
        cfg.lifetime.generation = generation;
        let mut fresh = Self::encode(layer, self.weight_slicing.clone(), &cfg, |f, gi, _, _| {
            self.groups[f][gi].center
        })?;
        fresh.search_error = self.search_error;
        Ok(fresh)
    }
}

/// FNV-1a over a layer's weights: distinct layers that happen to share a
/// name and shape must not collide in the compile cache.
fn weight_fingerprint(layer: &MatrixLayer) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in 0..layer.filters() {
        for &w in layer.filter_weights(f) {
            h ^= u64::from(w);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// FNV-1a over a string (used to fingerprint the configuration).
fn str_fingerprint(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Fingerprint of the layer's digital-side state: requantizer, input
/// profile, and input signedness. Calibration mutates these without
/// touching weights, and compilation reads all of them (zero points for
/// Zero+Offset centers, the profile for search-input sampling, the quant
/// cloned into the compiled layer) — so they are part of layer identity.
fn calibration_fingerprint(layer: &MatrixLayer) -> u64 {
    str_fingerprint(&format!(
        "{:?}/{:?}/{}",
        layer.quant(),
        layer.input_profile(),
        layer.signed_inputs()
    ))
}

/// Cache key for one (layer, configuration) compilation: layer identity
/// (name, shape, weight + calibration fingerprints) plus a fingerprint of
/// every compile-relevant configuration field (`RaellaConfig`'s `Debug`
/// output covers all of them, including slicing overrides, encoding, and
/// seed).
fn layer_cache_key(layer: &MatrixLayer, cfg: &RaellaConfig) -> String {
    format!(
        "{}/{}x{}/{:016x}/{:016x}/{:016x}",
        layer.name(),
        layer.filters(),
        layer.filter_len(),
        weight_fingerprint(layer),
        calibration_fingerprint(layer),
        str_fingerprint(&format!("{cfg:?}"))
    )
}

/// The state behind a [`SharedCompileCache`]: compiled layers by key and
/// hit/miss counters.
#[derive(Debug, Default)]
struct CacheState {
    entries: HashMap<String, Arc<CompiledLayer>>,
    hits: u64,
    misses: u64,
}

/// A thread-safe, shareable compilation cache: each distinct (layer
/// identity, configuration) pair compiles exactly once; later requests
/// share the same [`Arc<CompiledLayer>`].
///
/// Cloning shares the underlying cache (`Arc<Mutex<_>>`), so every
/// [`crate::model::CompiledModel`] / [`crate::server::RaellaServer`] built
/// on the same handle deduplicates compiles: a layer reused across a
/// network, a model recompiled under the same configuration, and layers
/// shared by *different* models never pay the Algorithm 1 search twice.
/// Every lookup, hit or miss, rebuilds the key: it fingerprints the
/// layer's weights and calibration and formats the configuration. That
/// is why models look their layers up once, at compile time, and never
/// per image.
/// [`SharedCompileCache::global`] returns the process-wide instance that
/// [`crate::model::CompiledModel::compile`] uses by default.
///
/// The mutex is held for the duration of a compilation, so two threads
/// racing on the same layer identity compile it exactly once (the loser
/// gets a cache hit); threads compiling disjoint layers serialize, which
/// is acceptable because compilation is one-time preprocessing.
///
/// ```
/// use raella_core::compiler::SharedCompileCache;
/// use raella_core::RaellaConfig;
/// use raella_nn::synth::SynthLayer;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cache = SharedCompileCache::new();
/// let layer = SynthLayer::conv(4, 3, 3, 9).build();
/// let cfg = RaellaConfig { search_vectors: 2, ..RaellaConfig::default() };
/// let a = cache.get_or_compile(&layer, &cfg)?;
/// let b = cache.get_or_compile(&layer, &cfg)?; // served from cache
/// assert!(std::sync::Arc::ptr_eq(&a, &b));
/// assert_eq!((cache.misses(), cache.hits()), (1, 1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct SharedCompileCache {
    inner: Arc<Mutex<CacheState>>,
}

/// The process-wide compile cache singleton.
static GLOBAL_CACHE: OnceLock<SharedCompileCache> = OnceLock::new();

impl SharedCompileCache {
    /// Creates a fresh, empty shared cache (independent of the global one).
    pub fn new() -> Self {
        SharedCompileCache::default()
    }

    /// The process-wide cache: every call returns a handle to the same
    /// underlying cache, so all default-compiled models in the process
    /// dedupe shared layers. Entries are keyed on layer identity *and*
    /// configuration fingerprint, so distinct configurations never
    /// collide; entries are never evicted.
    pub fn global() -> SharedCompileCache {
        GLOBAL_CACHE.get_or_init(SharedCompileCache::new).clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheState> {
        // A panic mid-compile leaves no partial entry (insertion happens
        // after a successful compile), so a poisoned lock is recoverable.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Returns the compiled form of `layer` under `cfg`, compiling at most
    /// once per identity across all threads sharing this handle.
    ///
    /// # Errors
    ///
    /// Propagates [`CompiledLayer::compile`] errors (the failed key is not
    /// cached, so a later request retries).
    pub fn get_or_compile(
        &self,
        layer: &MatrixLayer,
        cfg: &RaellaConfig,
    ) -> Result<Arc<CompiledLayer>, CoreError> {
        let key = layer_cache_key(layer, cfg);
        let mut state = self.lock();
        if let Some(hit) = state.entries.get(&key) {
            let hit = Arc::clone(hit);
            state.hits += 1;
            return Ok(hit);
        }
        let compiled = Arc::new(CompiledLayer::compile(layer, cfg)?);
        state.misses += 1;
        state.entries.insert(key, Arc::clone(&compiled));
        Ok(compiled)
    }

    /// Number of distinct compiled layers held.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the cache holds no compiled layers.
    pub fn is_empty(&self) -> bool {
        self.lock().entries.is_empty()
    }

    /// Number of requests served from the cache (no compilation).
    pub fn hits(&self) -> u64 {
        self.lock().hits
    }

    /// Number of requests that ran a compilation (cache misses).
    pub fn misses(&self) -> u64 {
        self.lock().misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raella_nn::synth::SynthLayer;

    fn small_cfg() -> RaellaConfig {
        RaellaConfig {
            crossbar_rows: 64,
            crossbar_cols: 64,
            ..RaellaConfig::default()
        }
    }

    #[test]
    fn with_slicing_builds_expected_layout() {
        let layer = SynthLayer::conv(4, 3, 3, 1).build(); // filter_len 36
        let cfg = small_cfg();
        let c =
            CompiledLayer::with_slicing(&layer, Slicing::raella_default_weights(), &cfg).unwrap();
        assert_eq!(c.filters(), 3);
        assert_eq!(c.columns_per_filter(), 3);
        assert_eq!(c.groups().len(), 3);
        assert_eq!(c.groups()[0].len(), 1, "36 rows fit one 64-row group");
        assert_eq!(c.groups()[0][0].levels.len(), 3);
        assert_eq!(c.groups()[0][0].levels[0].len(), 36);
        assert_eq!(c.total_columns(), 9);
    }

    #[test]
    fn level_panels_pack_group_levels_blockwise() {
        // 70 filters exercise one full 64-lane block plus a ragged 6-lane
        // tail; 150 rows over 64-row crossbars exercise multiple groups.
        // Each group's per-row magnitude sums cover every filter and slice.
        let layer = SynthLayer::linear(150, 70, 8).build();
        let cfg = small_cfg();
        let c =
            CompiledLayer::with_slicing(&layer, Slicing::raella_default_weights(), &cfg).unwrap();
        assert_eq!(c.panels().len(), c.group_count());
        for gi in 0..c.group_count() {
            let panel = &c.panels()[gi];
            let rows = c.group_row_range(gi).len();
            let abs_rows: Vec<u64> = (0..rows)
                .map(|r| {
                    c.groups()
                        .iter()
                        .flat_map(|gs| &gs[gi].levels)
                        .map(|levels| u64::from(levels[r].unsigned_abs()))
                        .sum()
                })
                .collect();
            assert_eq!(panel.abs_rows(), abs_rows, "abs_rows gi={gi}");
            for (f, gs) in c.groups().iter().enumerate() {
                let g = &gs[gi];
                assert_eq!(panel.centers()[f], g.center, "center f={f} gi={gi}");
                let p = f / PANEL_WIDTH;
                let lane = f % PANEL_WIDTH;
                let width = (c.filters() - p * PANEL_WIDTH).min(PANEL_WIDTH);
                for s in 0..c.columns_per_filter() {
                    let block = panel.block(s, p, width);
                    assert_eq!(block.len(), width * rows);
                    for r in 0..rows {
                        assert_eq!(
                            block[r * width + lane],
                            g.levels[s][r],
                            "f={f} gi={gi} s={s} r={r}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn long_filters_partition_into_row_groups() {
        let layer = SynthLayer::linear(150, 2, 2).build();
        let cfg = small_cfg();
        let c =
            CompiledLayer::with_slicing(&layer, Slicing::raella_default_weights(), &cfg).unwrap();
        let gs = &c.groups()[0];
        assert_eq!(gs.len(), 3, "150 rows over 64-row crossbars");
        assert_eq!(gs[0].rows, 64);
        assert_eq!(gs[1].rows, 64);
        assert_eq!(gs[2].rows, 22);
        assert_eq!(gs[2].row_start, 128);
        // Each group solves its own center.
        assert!(gs.iter().all(|g| (1..=255).contains(&g.center)));
    }

    #[test]
    fn levels_reconstruct_signed_offsets() {
        let layer = SynthLayer::conv(4, 2, 3, 3).build();
        let cfg = small_cfg();
        let slicing = Slicing::raella_default_weights();
        let c = CompiledLayer::with_slicing(&layer, slicing.clone(), &cfg).unwrap();
        for (f, gs) in c.groups().iter().enumerate() {
            let ws = layer.filter_weights(f);
            for g in gs {
                for r in 0..g.rows {
                    let values: Vec<i64> = (0..slicing.num_slices())
                        .map(|s| i64::from(g.levels[s][r]))
                        .collect();
                    let rebuilt = slicing.reconstruct(&values);
                    let expected = i64::from(ws[g.row_start + r]) - i64::from(g.center);
                    assert_eq!(rebuilt, expected, "filter {f} row {r}");
                }
            }
        }
    }

    #[test]
    fn zero_offset_uses_quant_zero_point() {
        let layer = SynthLayer::conv(4, 2, 3, 4).build();
        let cfg = small_cfg().zero_offset();
        let c =
            CompiledLayer::with_slicing(&layer, Slicing::raella_default_weights(), &cfg).unwrap();
        for (f, gs) in c.groups().iter().enumerate() {
            let zp = i32::from(layer.quant().weight_zero_points[f]);
            assert!(gs.iter().all(|g| g.center == zp));
        }
    }

    #[test]
    fn level_magnitudes_respect_cell_rating() {
        let layer = SynthLayer::conv(8, 4, 3, 5).build();
        let cfg = small_cfg();
        for slicing in [
            Slicing::raella_default_weights(),
            Slicing::uniform(1, 8),
            Slicing::new(&[4, 4], 8).unwrap(),
        ] {
            let c = CompiledLayer::with_slicing(&layer, slicing.clone(), &cfg).unwrap();
            let max_level = (1i16 << slicing.max_width()) - 1;
            for gs in c.groups() {
                for g in gs {
                    for levels in &g.levels {
                        assert!(levels.iter().all(|&l| l.abs() <= max_level));
                    }
                }
            }
        }
    }

    #[test]
    fn with_slicing_rejects_bad_slicings() {
        let layer = SynthLayer::conv(4, 2, 3, 6).build();
        let cfg = small_cfg();
        // 4b slices on 2b cells.
        let mut narrow = cfg.clone();
        narrow.cell_bits = 2;
        assert!(
            CompiledLayer::with_slicing(&layer, Slicing::new(&[4, 4], 8).unwrap(), &narrow)
                .is_err()
        );
    }

    #[test]
    fn compile_cache_compiles_each_identity_once() {
        let layer = SynthLayer::conv(4, 3, 3, 9).build();
        let cfg = small_cfg();
        let cache = SharedCompileCache::new();
        let a = cache.get_or_compile(&layer, &cfg).unwrap();
        let b = cache.get_or_compile(&layer, &cfg).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hits(), 1);
        assert!(Arc::ptr_eq(&a, &b), "repeat compile must share the Arc");
    }

    #[test]
    fn compile_cache_distinguishes_weights_and_config() {
        // Same name and shape, different weights: distinct entries.
        let l1 = SynthLayer::conv(4, 3, 3, 9).name("same").build();
        let l2 = SynthLayer::conv(4, 3, 3, 10).name("same").build();
        let cfg = small_cfg();
        let cache = SharedCompileCache::new();
        cache.get_or_compile(&l1, &cfg).unwrap();
        cache.get_or_compile(&l2, &cfg).unwrap();
        assert_eq!(cache.len(), 2);
        // Same layer, different config: a third entry.
        cache
            .get_or_compile(&l1, &cfg.clone().without_speculation())
            .unwrap();
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn compile_cache_distinguishes_calibration_state() {
        // Same name, shape, and weights — but recalibrated: graph-level
        // calibration gives each position its own requantizer, and the
        // cache must not serve one position's compile to the other.
        let base = SynthLayer::conv(4, 3, 3, 9).name("same").build();
        let mut recal = base.clone();
        let mut quant = base.quant().clone();
        quant.scales[0] *= 2.0;
        recal.set_quant(quant).expect("filter count unchanged");
        let cfg = small_cfg();
        let cache = SharedCompileCache::new();
        let a = cache.get_or_compile(&base, &cfg).unwrap();
        let b = cache.get_or_compile(&recal, &cfg).unwrap();
        assert_eq!(cache.len(), 2, "calibration state must split entries");
        assert!(!Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn last_layer_config_forces_bit_serial_weights() {
        let layer = SynthLayer::linear(32, 4, 7).build();
        let cfg = small_cfg().as_last_layer();
        let c = CompiledLayer::compile(&layer, &cfg).unwrap();
        assert_eq!(c.weight_slicing().num_slices(), 8);
        assert_eq!(c.weight_slicing().max_width(), 1);
        assert!(c.search_error().is_none());
    }

    /// Programming error: deterministic per generation, fresh per
    /// re-program, always within the slice's representable magnitudes,
    /// and rebuilt from pristine weights (same generation → identical
    /// array, even after many reprogram hops).
    #[test]
    fn programming_error_is_per_generation_and_clamped() {
        use raella_xbar::lifetime::DeviceLifetime;
        let layer = SynthLayer::conv(8, 6, 3, 61).build();
        let slicing = Slicing::raella_default_weights();
        let cfg = small_cfg().with_lifetime(DeviceLifetime::new(0.8, 0.0, 0));
        let pristine = CompiledLayer::with_slicing(&layer, slicing.clone(), &small_cfg()).unwrap();
        let a = CompiledLayer::with_slicing(&layer, slicing.clone(), &cfg).unwrap();
        let b = CompiledLayer::with_slicing(&layer, slicing.clone(), &cfg).unwrap();
        assert_eq!(a, b, "same generation must program identically");
        assert_ne!(
            a.groups(),
            pristine.groups(),
            "σ = 0.8 levels must move some cells"
        );
        let slices = slicing.slices();
        for fgs in a.groups() {
            for g in fgs {
                for (s, slice) in slices.iter().enumerate() {
                    let cap = slice.max_magnitude() as i16;
                    assert!(g.levels[s].iter().all(|&l| (-cap..=cap).contains(&l)));
                }
            }
        }
        let gen1 = a.reprogram(&layer, 1).unwrap();
        assert_ne!(
            gen1.groups(),
            a.groups(),
            "a re-program must take a fresh draw"
        );
        // Reprogramming back to generation 0 — even from the perturbed
        // gen-1 array — reproduces generation 0 exactly: the rebuild
        // starts from pristine weights, never from perturbed levels.
        let back = gen1.reprogram(&layer, 0).unwrap();
        assert_eq!(back, a);
        assert_eq!(gen1.config().lifetime.generation, 1);
    }

    /// Reprogramming reuses the compiled centers instead of re-solving
    /// them, and still lands exactly where a fresh compile at that
    /// generation does — levels, centers and panels — under either weight
    /// encoding, across multiple row groups.
    #[test]
    fn reprogram_equals_a_fresh_compile_at_the_generation() {
        use raella_xbar::lifetime::DeviceLifetime;
        let layer = SynthLayer::linear(150, 70, 62).build();
        let slicing = Slicing::raella_default_weights();
        for encoding in [WeightEncoding::CenterOffset, WeightEncoding::ZeroOffset] {
            let cfg = RaellaConfig {
                encoding,
                ..small_cfg().with_lifetime(DeviceLifetime::new(0.8, 0.0, 0))
            };
            let compiled = CompiledLayer::with_slicing(&layer, slicing.clone(), &cfg).unwrap();
            assert!(compiled.group_count() > 1);
            for generation in [1, 2, 7] {
                let reprogrammed = compiled.reprogram(&layer, generation).unwrap();
                let mut at_gen = cfg.clone();
                at_gen.lifetime.generation = generation;
                let fresh = CompiledLayer::with_slicing(&layer, slicing.clone(), &at_gen).unwrap();
                assert_eq!(
                    reprogrammed.groups(),
                    fresh.groups(),
                    "{encoding:?} gen {generation}"
                );
                assert_eq!(
                    reprogrammed.panels(),
                    fresh.panels(),
                    "{encoding:?} gen {generation}"
                );
                assert_eq!(reprogrammed, fresh, "{encoding:?} gen {generation}");
            }
        }
    }
}
