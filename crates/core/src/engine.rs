//! The RAELLA execution engine: Dynamic Input Slicing (§4.3) over compiled
//! crossbar columns.
//!
//! Per input vector and crossbar row-group, the engine runs the paper's
//! Fig. 9 schedule:
//!
//! 1. **Speculation**: input slices 4b-2b-2b (three cycles). Every column's
//!    analog sum is converted; an output pinned at an ADC rail (−64 or 63)
//!    marks that column's speculation as failed.
//! 2. **Recovery**: each speculative slice is re-run as 1b slices (eight
//!    cycles total). The crossbar computes all columns (energy is counted
//!    accordingly), but ADCs convert *only* failed columns. A saturation in
//!    recovery is accepted and propagated (§3.4's bounded fidelity loss).
//!
//! The digital side adds the per-group center term `φ·ΣI` and requantizes.
//! Signed inputs (BERT) are processed as positive/negative planes in
//! separate passes, doubling cycle counts (§5.1).
//!
//! # Execution model
//!
//! The unit of work is one input vector. [`run_vector`] is a pure kernel:
//! it reads the compiled layer and one vector, scribbles only in a
//! caller-owned [`VectorScratch`] (no per-vector allocation), writes the
//! vector's outputs into a caller-provided slice, and returns a local
//! [`RunStats`] delta. Nothing is shared between vectors, so
//! [`run_batch_parallel`] fans vectors across threads and merges the
//! deltas — producing output bytes and statistics bit-identical to serial
//! [`run_batch`] at any thread count, noisy or not.
//!
//! # Row-range execution (tile sharding)
//!
//! A vector's work further decomposes along the layer's crossbar row
//! groups. [`run_vector_groups`] computes the partial accumulators of any
//! contiguous group range (the work one simulated tile owns), and
//! [`finalize_vector`] turns fully reduced accumulators into requantized
//! outputs. Noise is drawn from per-`(vector, row-group)` counter-derived
//! substreams ([`NoiseRng::for_substream`]`(seed, vector_index, group)`) —
//! keyed by the crossbar region's stable coordinates, never by read order
//! — so *any* partition of row groups across tiles, run in any order on
//! any threads, draws exactly the noise the monolithic engine draws.
//! Partial accumulators merge by elementwise `i64` addition (exact,
//! associative, commutative) and statistics by [`RunStats::merge`], which
//! is what makes tile placement pure scheduling
//! (`crates/core/tests/shard_determinism.rs`).
//!
//! # Kernel structure (cache-blocked column panels)
//!
//! The hot kernel does not walk columns one at a time. Per row group, the
//! compiled layer provides its levels re-packed into cache-blocked panels
//! ([`crate::compiler::LevelPanels`]: [`PANEL_WIDTH`] filters per block,
//! row-major), and the kernel runs in two phases per block:
//!
//! 1. **Accumulation** — one sweep over each sliced input plane feeds the
//!    whole panel's window sums from sequential memory. RAELLA's analog
//!    operands are small (windows ≤ 15, charge mass ≤ 29, levels ≤ 31), so
//!    products accumulate in 16-bit lanes over 64-row blocks — exact by a
//!    `const` bound — and widen to `i32` (`u64` for device charge) once
//!    per block. Device charge folds in from per-row mass sums.
//! 2. **Conversion** — ADC converts, speculation checks, recovery, and
//!    noise draws replay *filter-major, column by column*, in exactly the
//!    order of the scalar reference kernel.
//!
//! The phase split is safe because analog sums are pure integer
//! reductions (commutative even under wraparound) and noise enters only
//! at conversion; [`run_vector_groups_reference`] retains the pre-panel
//! scalar kernel, and `crates/core/tests/panel_oracle.rs` pins the two
//! against each other — outputs, statistics, and noise-stream consumption
//! bit for bit.

use serde::{Deserialize, Serialize};

use raella_nn::layers::MatVecEngine;
use raella_nn::matrix::{Act, MatrixLayer};
use raella_xbar::crossbar::EventCounts;
use raella_xbar::noise::{NoiseModel, NoiseRng};
use raella_xbar::slicing::Slice;

use crate::compiler::{CompiledLayer, SharedCompileCache, PANEL_WIDTH};
use crate::config::{InputMode, RaellaConfig, MAX_CELL_BITS};
use crate::parallel::{run_blocks, worker_count};
use crate::scratch::{SlicedView, Split, VectorScratch, INPUT_BITS};

/// Statistics accumulated while running layers on RAELLA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RunStats {
    /// Hardware event counters (ADC converts, DAC pulses, charge, cycles).
    pub events: EventCounts,
    /// Speculative conversions attempted (columns × speculative slices).
    pub spec_attempts: u64,
    /// Speculative conversions that saturated (failed speculation).
    pub spec_failures: u64,
    /// Recovery conversions performed (failed columns × their 1b slices).
    pub recovery_converts: u64,
    /// Recovery conversions that still saturated (accepted fidelity loss).
    pub recovery_saturations: u64,
    /// Bit-serial conversions (no-speculation mode).
    pub bitserial_converts: u64,
    /// Bit-serial conversions that saturated.
    pub bitserial_saturations: u64,
    /// Input vectors processed.
    pub vectors: u64,
    /// Highest drift epoch any processed vector ran at (0 unless the
    /// configuration's [`raella_xbar::lifetime::DeviceLifetime`] drifts).
    pub drift_epoch: u64,
}

impl RunStats {
    /// Fraction of speculative conversions that failed (~2% in the paper).
    pub fn spec_failure_rate(&self) -> f64 {
        if self.spec_attempts == 0 {
            0.0
        } else {
            self.spec_failures as f64 / self.spec_attempts as f64
        }
    }

    /// Fraction of recovery conversions that still saturated (~0.1%).
    pub fn recovery_saturation_rate(&self) -> f64 {
        if self.recovery_converts == 0 {
            0.0
        } else {
            self.recovery_saturations as f64 / self.recovery_converts as f64
        }
    }

    /// ADC conversions per column per psum set (paper: ~3.3 with
    /// speculation vs 8 bit-serial).
    pub fn converts_per_column(&self) -> f64 {
        let columns = self.spec_attempts / 3 + self.bitserial_converts / 8;
        if columns == 0 {
            0.0
        } else {
            self.events.adc_converts as f64 / columns as f64
        }
    }

    /// Merges another stats block into this one.
    ///
    /// Every field combines associatively and commutatively — additive
    /// counters sum, `drift_epoch` takes the max — so parallel workers may
    /// merge their local deltas in any grouping and reach the same totals
    /// (property-tested in `tests/proptests.rs`).
    pub fn merge(&mut self, other: &RunStats) {
        self.events.merge(&other.events);
        self.spec_attempts += other.spec_attempts;
        self.spec_failures += other.spec_failures;
        self.recovery_converts += other.recovery_converts;
        self.recovery_saturations += other.recovery_saturations;
        self.bitserial_converts += other.bitserial_converts;
        self.bitserial_saturations += other.bitserial_saturations;
        self.vectors += other.vectors;
        self.drift_epoch = self.drift_epoch.max(other.drift_epoch);
    }
}

/// Ideal signed dot product `Σ xs·level` (i32 is safe: ≤ 512·15·255).
fn dot(xs: &[u16], levels: &[i16]) -> i64 {
    let mut sum = 0i32;
    for (&x, &l) in xs.iter().zip(levels) {
        sum += i32::from(x) * i32::from(l);
    }
    i64::from(sum)
}

/// Positive/negative charge split for the noise model.
fn dot_charge(xs: &[u16], levels: &[i16]) -> (i64, i64) {
    let mut pos = 0i64;
    let mut neg = 0i64;
    for (&x, &l) in xs.iter().zip(levels) {
        let p = i64::from(x) * i64::from(l);
        if p >= 0 {
            pos += p;
        } else {
            neg -= p;
        }
    }
    (pos, neg)
}

/// Rows per 16-bit accumulation block. The hot kernel sums a block's
/// products in `u16` lanes and widens once per block; the bounds below
/// keep every block sum in range, so the wrapping lane arithmetic is
/// exact and the results equal the scalar kernel's `i32`/`i64` sums.
const ROW_BLOCK: usize = 64;
/// Largest input-window value a row drives: the 4b speculative slice
/// (§4.3; bit-serial windows are 1b). Inputs are 8b magnitudes.
const MAX_WINDOW: usize = 15;
/// Largest per-row device-charge mass: 4b-2b-2b slice values (15 + 3 + 3)
/// plus the recovery popcount (8).
const MAX_MASS: usize = 21 + 8;
/// Largest programmed level magnitude: slices are at most `cell_bits`
/// wide and programming error clamps to the slice's maximum.
const MAX_LEVEL: usize = (1 << MAX_CELL_BITS) - 1;
const _: () = assert!(ROW_BLOCK * MAX_WINDOW * MAX_LEVEL <= i16::MAX as usize);
const _: () = assert!(ROW_BLOCK * MAX_MASS * MAX_LEVEL <= u16::MAX as usize);

/// Adds `Σ_r xs[r] · lv(data[r·bw + lane])` into `dst[lane]` for one
/// packed panel block (`bw = dst.len()` lanes, row-major), accumulating
/// each [`ROW_BLOCK`] of rows in `u16` lanes before widening it. Common
/// panel widths get a compile-time lane count, which keeps the block
/// accumulator in registers.
#[inline(always)]
fn sweep<T: std::ops::AddAssign>(
    dst: &mut [T],
    xs: &[u16],
    data: &[i16],
    lv: impl Fn(i16) -> u16,
    widen: impl Fn(u16) -> T,
) {
    match dst.len() {
        16 => sweep_lanes::<16, T>(dst, xs, data, lv, widen),
        32 => sweep_lanes::<32, T>(dst, xs, data, lv, widen),
        PANEL_WIDTH => sweep_lanes::<PANEL_WIDTH, T>(dst, xs, data, lv, widen),
        _ => sweep_lanes::<0, T>(dst, xs, data, lv, widen),
    }
}

/// [`sweep`] over `LANES` lanes (`0`: `dst.len()`, known only at run time).
#[inline(always)]
fn sweep_lanes<const LANES: usize, T: std::ops::AddAssign>(
    dst: &mut [T],
    xs: &[u16],
    data: &[i16],
    lv: impl Fn(i16) -> u16,
    widen: impl Fn(u16) -> T,
) {
    let bw = if LANES == 0 { dst.len() } else { LANES };
    let mut block = [0u16; PANEL_WIDTH];
    let block = &mut block[..bw];
    for (xb, db) in xs.chunks(ROW_BLOCK).zip(data.chunks(ROW_BLOCK * bw)) {
        block.fill(0);
        for (&x, row) in xb.iter().zip(db.chunks_exact(bw)) {
            if x == 0 {
                continue;
            }
            for (a, &l) in block.iter_mut().zip(row) {
                *a = a.wrapping_add(x.wrapping_mul(lv(l)));
            }
        }
        for (d, &b) in dst[..bw].iter_mut().zip(block.iter()) {
            *d += widen(b);
        }
    }
}

/// One column's `Σ xs[r] · lv(levels[r])` in the same exact 16-bit row
/// blocks as [`sweep`], widened by `widen`.
fn block_dot(
    xs: &[u16],
    levels: &[i16],
    lv: impl Fn(i16) -> u16,
    widen: impl Fn(u16) -> i64,
) -> i64 {
    xs.chunks(ROW_BLOCK)
        .zip(levels.chunks(ROW_BLOCK))
        .map(|(xb, lb)| {
            widen(
                xb.iter()
                    .zip(lb)
                    .fold(0u16, |a, (&x, &l)| a.wrapping_add(x.wrapping_mul(lv(l)))),
            )
        })
        .sum()
}

/// The analog read of a column with signed sum `w = Σxl` and total charge
/// `a = Σx|l|`: `w` itself when ideal, else a noise draw over the charge
/// split — positive-level products are N⁺, so N⁺ = (a + w)/2 and
/// N⁻ = (a − w)/2 exactly (both sums have equal parity).
fn analog_read(noise: &NoiseModel, w: i64, a: i64, rng: &mut NoiseRng) -> i64 {
    if noise.is_ideal() {
        w
    } else {
        noise.sample((a + w) / 2, (a - w) / 2, rng)
    }
}

/// The panel path's single-column read (speculation recovery), summed in
/// 16-bit row blocks.
fn column_read(xs: &[u16], levels: &[i16], noise: &NoiseModel, rng: &mut NoiseRng) -> i64 {
    let w = block_dot(xs, levels, |l| l as u16, |b| i64::from(b as i16));
    let a = if noise.is_ideal() {
        0
    } else {
        block_dot(xs, levels, i16::unsigned_abs, i64::from)
    };
    analog_read(noise, w, a, rng)
}

/// One analog column read: ideal or noisy sum — the scalar oracle's
/// `i32`/`i64` arithmetic, independent of the blocked hot path.
fn column_sum(xs: &[u16], levels: &[i16], noise: &NoiseModel, rng: &mut NoiseRng) -> i64 {
    if noise.is_ideal() {
        dot(xs, levels)
    } else {
        let (pos, neg) = dot_charge(xs, levels);
        noise.sample(pos, neg, rng)
    }
}

/// Crossbar charge of one column-cycle set: `Σ mass·|level|` over the rows
/// a column holds. All cycles drive all columns — including recovery
/// cycles for columns whose speculation succeeded (§4.3.1) — so the same
/// fold prices speculation, recovery, and bit-serial passes.
fn device_charge(mass: &[u16], levels: &[i16]) -> u64 {
    mass.iter()
        .zip(levels)
        .map(|(&m, &l)| u64::from(m) * u64::from(l.unsigned_abs()))
        .sum()
}

/// Runs a batch of input vectors through a compiled layer, serially.
///
/// Input layout matches [`MatrixLayer::reference_outputs`]; the output has
/// `filters` values per vector. Per-vector noise streams are derived from
/// `noise_seed` and the vector's index, so the result is bit-identical to
/// [`run_batch_parallel`] with the same arguments.
///
/// # Panics
///
/// Panics if `inputs.len()` is not a multiple of the layer's `filter_len`.
pub fn run_batch(
    layer: &CompiledLayer,
    inputs: &[Act],
    stats: &mut RunStats,
    noise_seed: u64,
) -> Vec<u8> {
    run_batch_at(layer, inputs, stats, noise_seed, 0)
}

/// [`run_batch`] with the batch's first global vector index, for engines
/// that stream multiple batches and want fresh noise per batch.
pub fn run_batch_at(
    layer: &CompiledLayer,
    inputs: &[Act],
    stats: &mut RunStats,
    noise_seed: u64,
    first_vector: u64,
) -> Vec<u8> {
    run_batch_at_age(layer, inputs, stats, noise_seed, first_vector, 0)
}

/// [`run_batch_at`] on a device aged `base_age` served vectors since its
/// last programming. Age 0 is bit-identical to [`run_batch_at`]; each
/// vector `i` runs at device age `base_age + first_vector + i`, so a batch
/// split at any point and resumed with the same indices reproduces the
/// whole batch exactly.
pub fn run_batch_at_age(
    layer: &CompiledLayer,
    inputs: &[Act],
    stats: &mut RunStats,
    noise_seed: u64,
    first_vector: u64,
    base_age: u64,
) -> Vec<u8> {
    let n_vectors = batch_vectors(layer, inputs);
    let mut out = vec![0u8; n_vectors * layer.filters()];
    let mut scratch = VectorScratch::for_layer(layer);
    for (i, (vec, out_chunk)) in inputs
        .chunks_exact(layer.filter_len())
        .zip(out.chunks_exact_mut(layer.filters()))
        .enumerate()
    {
        let local = run_vector_at_age(
            layer,
            vec,
            &mut scratch,
            noise_seed,
            first_vector + i as u64,
            base_age,
            out_chunk,
        );
        stats.merge(&local);
    }
    out
}

/// Row-range batch entry point for tile-sharded execution: accumulates the
/// partial sums of the row groups in `groups` for every vector of `inputs`
/// into `acc` (`n_vectors × filters` signed accumulators, zeroed here),
/// merging the range's crossbar statistics into `stats`.
///
/// Summing every range of a partition's `acc` buffers elementwise (the
/// inter-tile accumulator reduction — exact `i64` addition) and calling
/// [`finalize_vector`] per vector reproduces [`run_batch_at`] bit for bit,
/// outputs and merged statistics alike, for *any* partition of
/// `0..group_count` — noise substreams are keyed per `(vector, group)`,
/// never by read order.
///
/// # Panics
///
/// Panics if `inputs.len()` is not a multiple of the layer's `filter_len`,
/// if `acc.len()` is not `n_vectors × filters`, or if `groups` is out of
/// bounds.
pub fn run_batch_groups_at(
    layer: &CompiledLayer,
    inputs: &[Act],
    groups: std::ops::Range<usize>,
    stats: &mut RunStats,
    noise_seed: u64,
    first_vector: u64,
    acc: &mut [i64],
) {
    run_batch_groups_at_age(
        layer,
        inputs,
        groups,
        stats,
        noise_seed,
        first_vector,
        0,
        acc,
    );
}

/// [`run_batch_groups_at`] on a device aged `base_age` served vectors —
/// the sharded row-range path at any point in the device's lifetime. Age 0
/// is bit-identical to [`run_batch_groups_at`].
#[allow(clippy::too_many_arguments)]
pub fn run_batch_groups_at_age(
    layer: &CompiledLayer,
    inputs: &[Act],
    groups: std::ops::Range<usize>,
    stats: &mut RunStats,
    noise_seed: u64,
    first_vector: u64,
    base_age: u64,
    acc: &mut [i64],
) {
    let n_vectors = batch_vectors(layer, inputs);
    assert_eq!(
        acc.len(),
        n_vectors * layer.filters(),
        "accumulator size mismatch"
    );
    let mut scratch = VectorScratch::for_layer(layer);
    for (i, (vec, acc_chunk)) in inputs
        .chunks_exact(layer.filter_len())
        .zip(acc.chunks_exact_mut(layer.filters()))
        .enumerate()
    {
        scratch.acc.fill(0);
        let local = run_vector_groups_at_age(
            layer,
            vec,
            groups.clone(),
            &mut scratch,
            noise_seed,
            first_vector + i as u64,
            base_age,
        );
        stats.merge(&local);
        acc_chunk.copy_from_slice(&scratch.acc);
    }
}

/// Runs a batch of input vectors through a compiled layer, fanning vectors
/// across worker threads.
///
/// Bit-identical to [`run_batch`] — outputs *and* statistics — at any
/// thread count (set `RAELLA_THREADS` to pin it), including under a noisy
/// [`NoiseModel`], because each vector's noise stream depends only on
/// `(noise_seed, vector index)` and [`RunStats::merge`] is commutative.
/// This is the default path used by [`CompiledLayer::check_fidelity`] and
/// [`RaellaEngine`].
///
/// # Panics
///
/// Panics if `inputs.len()` is not a multiple of the layer's `filter_len`.
pub fn run_batch_parallel(
    layer: &CompiledLayer,
    inputs: &[Act],
    stats: &mut RunStats,
    noise_seed: u64,
) -> Vec<u8> {
    run_batch_parallel_at(layer, inputs, stats, noise_seed, 0)
}

/// [`run_batch_parallel`] with the batch's first global vector index.
pub fn run_batch_parallel_at(
    layer: &CompiledLayer,
    inputs: &[Act],
    stats: &mut RunStats,
    noise_seed: u64,
    first_vector: u64,
) -> Vec<u8> {
    run_batch_parallel_at_age(layer, inputs, stats, noise_seed, first_vector, 0)
}

/// [`run_batch_parallel_at`] on a device aged `base_age` served vectors.
/// Bit-identical to [`run_batch_at_age`] at any thread count: a vector's
/// drift epoch depends only on `base_age + vector index`, never on which
/// worker runs it.
pub fn run_batch_parallel_at_age(
    layer: &CompiledLayer,
    inputs: &[Act],
    stats: &mut RunStats,
    noise_seed: u64,
    first_vector: u64,
    base_age: u64,
) -> Vec<u8> {
    let n_vectors = batch_vectors(layer, inputs);
    let threads = worker_count(n_vectors);
    if threads <= 1 {
        return run_batch_at_age(layer, inputs, stats, noise_seed, first_vector, base_age);
    }
    let filters = layer.filters();
    let filter_len = layer.filter_len();
    let mut out = vec![0u8; n_vectors * filters];
    let locals = run_blocks(&mut out, n_vectors, filters, threads, |first, n, block| {
        let mut scratch = VectorScratch::for_layer(layer);
        let mut local = RunStats::default();
        let in_block = &inputs[first * filter_len..(first + n) * filter_len];
        for (k, (vec, out_chunk)) in in_block
            .chunks_exact(filter_len)
            .zip(block.chunks_exact_mut(filters))
            .enumerate()
        {
            let index = first_vector + (first + k) as u64;
            local.merge(&run_vector_at_age(
                layer,
                vec,
                &mut scratch,
                noise_seed,
                index,
                base_age,
                out_chunk,
            ));
        }
        local
    });
    for local in &locals {
        stats.merge(local);
    }
    out
}

/// Validates the batch shape and returns the vector count.
fn batch_vectors(layer: &CompiledLayer, inputs: &[Act]) -> usize {
    assert_eq!(
        inputs.len() % layer.filter_len(),
        0,
        "input batch must be a multiple of filter_len"
    );
    inputs.len() / layer.filter_len()
}

/// The pure per-vector kernel: runs one input vector through the layer's
/// crossbar schedule, writing `layer.filters()` outputs into `out` and
/// returning this vector's statistics delta.
///
/// All working memory lives in `scratch` (reused across calls); the only
/// other state read is the compiled layer and the `(noise_seed,
/// vector_index)`-derived noise substreams, so calls are independent and
/// may run on any thread in any order. Implemented as
/// [`run_vector_groups`] over the full group range followed by
/// [`finalize_vector`] — the sharded row-range path is the same code.
///
/// # Panics
///
/// Panics if `input.len() != layer.filter_len()` or
/// `out.len() != layer.filters()`.
pub fn run_vector(
    layer: &CompiledLayer,
    input: &[Act],
    scratch: &mut VectorScratch,
    noise_seed: u64,
    vector_index: u64,
    out: &mut [u8],
) -> RunStats {
    run_vector_at_age(layer, input, scratch, noise_seed, vector_index, 0, out)
}

/// [`run_vector`] on a device aged `base_age` served vectors since its
/// last programming: the vector runs at device age
/// `base_age + vector_index`. Age 0 is bit-identical to [`run_vector`].
pub fn run_vector_at_age(
    layer: &CompiledLayer,
    input: &[Act],
    scratch: &mut VectorScratch,
    noise_seed: u64,
    vector_index: u64,
    base_age: u64,
    out: &mut [u8],
) -> RunStats {
    scratch.resize_for(layer);
    scratch.acc.fill(0);
    let mut stats = run_vector_groups_at_age(
        layer,
        input,
        0..layer.group_count(),
        scratch,
        noise_seed,
        vector_index,
        base_age,
    );
    let finalized = finalize_vector(layer, input, &scratch.acc, out);
    stats.merge(&finalized);
    stats
}

/// The row-range kernel behind [`run_vector`] and tile-sharded execution:
/// accumulates the partial sums of the crossbar row groups in `groups`
/// into `scratch.acc` (`+=` per filter — the caller zeroes the
/// accumulators) and returns the range's statistics delta (crossbar
/// cycles, DAC pulses, ADC converts, speculation outcomes, device charge
/// — everything attributable to these row groups).
///
/// Per-vector bookkeeping (requantization, the `vectors`/`macs` counters)
/// lives in [`finalize_vector`], which runs once per vector after every
/// range's accumulators are reduced. Each row group draws noise from its
/// own `(noise_seed, vector_index, group)` substream, so disjoint ranges
/// may run on different threads (or simulated tiles) in any order and
/// still reproduce the monolithic run bit for bit.
///
/// # Panics
///
/// Panics if `input.len() != layer.filter_len()` or `groups` exceeds
/// [`CompiledLayer::group_count`].
pub fn run_vector_groups(
    layer: &CompiledLayer,
    input: &[Act],
    groups: std::ops::Range<usize>,
    scratch: &mut VectorScratch,
    noise_seed: u64,
    vector_index: u64,
) -> RunStats {
    run_vector_groups_at_age(layer, input, groups, scratch, noise_seed, vector_index, 0)
}

/// [`run_vector_groups`] on a device aged `base_age` served vectors: the
/// drift epoch is `lifetime.drift_epoch(base_age + vector_index)`, the
/// effective noise level compounds the static model with the epoch's
/// relaxation sigma, and every group substream is re-keyed by the epoch
/// ([`NoiseRng::for_substream_aged`]). Epoch 0 — in particular any age
/// under a non-drifting lifetime — is bit-identical to
/// [`run_vector_groups`]. Results stay a pure function of
/// `(seed, vector index, group, age)`, so sharding and threading remain
/// pure scheduling at every age.
#[allow(clippy::too_many_arguments)]
pub fn run_vector_groups_at_age(
    layer: &CompiledLayer,
    input: &[Act],
    groups: std::ops::Range<usize>,
    scratch: &mut VectorScratch,
    noise_seed: u64,
    vector_index: u64,
    base_age: u64,
) -> RunStats {
    assert_eq!(input.len(), layer.filter_len(), "input length mismatch");
    assert!(
        groups.end <= layer.group_count(),
        "group range {groups:?} exceeds {} groups",
        layer.group_count()
    );
    scratch.resize_for(layer);

    let cfg = layer.config();
    let mut stats = RunStats::default();

    // Device age of this read: vectors served before it. The epoch picks
    // both the relaxation level and the noise stream keying.
    let epoch = cfg
        .lifetime
        .drift_epoch(base_age.saturating_add(vector_index));
    let noise = cfg.noise.compounded(cfg.lifetime.relaxation_sigma(epoch));
    stats.drift_epoch = epoch;

    // One noise stream per row group, keyed by the group's stable index
    // and persisting across the sign passes. The buffer's capacity is
    // reused across vectors.
    scratch.rngs.clear();
    scratch.rngs.extend(
        groups
            .clone()
            .map(|gi| NoiseRng::for_substream_aged(noise_seed, vector_index, gi as u64, epoch)),
    );

    // Signed inputs are processed as positive/negative planes (§5.1).
    let signs: &[i64] = if layer.signed_inputs() {
        &[1, -1]
    } else {
        &[1]
    };

    let filters = layer.filters();
    let columns_needed = filters * layer.columns_per_filter();
    let crossbars_per_group = columns_needed.div_ceil(cfg.crossbar_cols) as u64;
    // Per-slice shifts and the speculative windows were resolved at
    // compile / scratch-construction time — nothing is re-derived per
    // vector.
    let shifts = layer.slice_shifts();
    let num_slices = shifts.len();
    let noisy = !noise.is_ideal();
    let windows = match cfg.input_mode {
        InputMode::Speculative => scratch.spec_slices.len(),
        InputMode::BitSerial => INPUT_BITS,
    };

    for gi in groups.clone() {
        debug_assert_uniform_geometry(layer, gi);
    }

    for &sign in signs {
        scratch.load_plane(input, sign);
        scratch.slice_plane();
        let Split {
            plane,
            sliced,
            spec_slices,
            acc,
            rngs,
            wsum,
            asum,
            dc,
        } = scratch.split();
        // Cycle/DAC/row event counting is per crossbar (shared across the
        // columns it holds), not per column — O(1) per group from the
        // plane's prefix sums.
        for gi in groups.clone() {
            let range = layer.group_row_range(gi);
            count_crossbar_events(cfg, &sliced, range, crossbars_per_group, &mut stats);
        }
        for (k, gi) in groups.clone().enumerate() {
            let rng = &mut rngs[k];
            let panel = &layer.panels()[gi];
            let range = layer.group_row_range(gi);
            let gplane = &plane[range.clone()];
            let gsum: i64 = gplane.iter().map(|&x| i64::from(x)).sum();
            // Mass the device-charge fold drives against every column:
            // speculation + recovery cycles in speculative mode (§4.3.1),
            // bit cycles only in bit-serial mode.
            let gmass = match cfg.input_mode {
                InputMode::Speculative => &sliced.mass[range.clone()],
                InputMode::BitSerial => &sliced.bit_mass[range.clone()],
            };
            for p in 0..filters.div_ceil(PANEL_WIDTH) {
                let f0 = p * PANEL_WIDTH;
                let bw = (filters - f0).min(PANEL_WIDTH);

                // Phase 1 — accumulation: per (slice, window), one sweep
                // over the rows feeds the whole panel's window sums from
                // sequential packed levels, in exact 16-bit row blocks.
                let used = num_slices * windows * PANEL_WIDTH;
                wsum[..used].fill(0);
                if noisy {
                    asum[..used].fill(0);
                }
                dc[..num_slices * PANEL_WIDTH].fill(0);
                for s in 0..num_slices {
                    let data = panel.block(s, p, bw);
                    for w in 0..windows {
                        let wplane: &[u16] = match cfg.input_mode {
                            InputMode::Speculative => &sliced.spec_plane(w)[range.clone()],
                            InputMode::BitSerial => &sliced.bit_plane(7 - w as u32)[range.clone()],
                        };
                        let at = (s * windows + w) * PANEL_WIDTH;
                        let signed = |b: u16| i32::from(b as i16);
                        sweep(&mut wsum[at..][..bw], wplane, data, |l| l as u16, signed);
                        if noisy {
                            sweep(
                                &mut asum[at..][..bw],
                                wplane,
                                data,
                                i16::unsigned_abs,
                                i32::from,
                            );
                        }
                    }
                    // Device charge: all cycles drive all columns,
                    // including recovery cycles for columns whose
                    // speculation succeeded (§4.3.1) — one sweep prices
                    // the panel's whole slice.
                    let dcs = &mut dc[s * PANEL_WIDTH..][..bw];
                    sweep(dcs, gmass, data, i16::unsigned_abs, u64::from);
                }

                // Phase 2 — conversion: filter-major over the panel,
                // replaying the scalar kernel's per-column ADC order so
                // noise draws (and recovery re-reads) consume the group's
                // substream in exactly the reference sequence.
                for i in 0..bw {
                    let f = f0 + i;
                    let mut total = i64::from(panel.centers()[f]) * gsum;
                    for (s, &w_shift) in shifts.iter().enumerate() {
                        match cfg.input_mode {
                            InputMode::Speculative => {
                                for (j, spec_slice) in spec_slices.iter().enumerate() {
                                    let idx = (s * windows + j) * PANEL_WIDTH + i;
                                    let (w, a) = (wsum[idx].into(), asum[idx].into());
                                    let sum = analog_read(&noise, w, a, rng);
                                    let out = cfg.adc.convert(sum);
                                    stats.events.adc_converts += 1;
                                    stats.spec_attempts += 1;
                                    if cfg.adc.saturated(out) {
                                        // Speculation failed: recover with
                                        // 1b slices of this window (rare,
                                        // so the re-read is per column).
                                        stats.spec_failures += 1;
                                        total += recover_window(
                                            column_read,
                                            cfg,
                                            &noise,
                                            &sliced,
                                            range.clone(),
                                            &layer.groups()[f][gi].levels[s],
                                            w_shift,
                                            *spec_slice,
                                            &mut stats,
                                            rng,
                                        );
                                    } else {
                                        total += out << (w_shift + spec_slice.shift());
                                    }
                                }
                            }
                            InputMode::BitSerial => {
                                for b in (0..INPUT_BITS as u32).rev() {
                                    let idx = (s * windows + (7 - b) as usize) * PANEL_WIDTH + i;
                                    let (w, a) = (wsum[idx].into(), asum[idx].into());
                                    let sum = analog_read(&noise, w, a, rng);
                                    let out = cfg.adc.convert(sum);
                                    stats.events.adc_converts += 1;
                                    stats.bitserial_converts += 1;
                                    if cfg.adc.saturated(out) {
                                        stats.bitserial_saturations += 1;
                                    }
                                    total += out << (w_shift + b);
                                }
                            }
                        }
                        stats.events.device_charge += dc[s * PANEL_WIDTH + i];
                    }
                    acc[f] += sign * total;
                }
            }
        }
    }
    stats
}

/// The pre-panel scalar kernel, retained verbatim as the bit-exactness
/// oracle for [`run_vector_groups`].
///
/// Processes one column (filter × weight slice) at a time, re-scanning the
/// sliced planes per column, exactly as the engine did before panel
/// blocking. `crates/core/tests/panel_oracle.rs` pins the panel kernel
/// against this function — outputs *and* full statistics, ideal and
/// noisy, both input modes — so any panel miscount or reordered noise
/// draw is caught against the original code path. Not used on the hot
/// path.
///
/// # Panics
///
/// Panics under the same conditions as [`run_vector_groups`].
pub fn run_vector_groups_reference(
    layer: &CompiledLayer,
    input: &[Act],
    groups: std::ops::Range<usize>,
    scratch: &mut VectorScratch,
    noise_seed: u64,
    vector_index: u64,
) -> RunStats {
    run_vector_groups_reference_at_age(layer, input, groups, scratch, noise_seed, vector_index, 0)
}

/// [`run_vector_groups_reference`] at device age `base_age + vector_index`
/// — the scalar oracle for [`run_vector_groups_at_age`], applying the
/// identical epoch/noise/stream derivation column by column.
#[allow(clippy::too_many_arguments)]
pub fn run_vector_groups_reference_at_age(
    layer: &CompiledLayer,
    input: &[Act],
    groups: std::ops::Range<usize>,
    scratch: &mut VectorScratch,
    noise_seed: u64,
    vector_index: u64,
    base_age: u64,
) -> RunStats {
    assert_eq!(input.len(), layer.filter_len(), "input length mismatch");
    assert!(
        groups.end <= layer.group_count(),
        "group range {groups:?} exceeds {} groups",
        layer.group_count()
    );
    scratch.resize_for(layer);

    let cfg = layer.config();
    let mut stats = RunStats::default();

    let epoch = cfg
        .lifetime
        .drift_epoch(base_age.saturating_add(vector_index));
    let noise = cfg.noise.compounded(cfg.lifetime.relaxation_sigma(epoch));
    stats.drift_epoch = epoch;

    scratch.rngs.clear();
    scratch.rngs.extend(
        groups
            .clone()
            .map(|gi| NoiseRng::for_substream_aged(noise_seed, vector_index, gi as u64, epoch)),
    );

    let signs: &[i64] = if layer.signed_inputs() {
        &[1, -1]
    } else {
        &[1]
    };

    let columns_needed = layer.filters() * layer.columns_per_filter();
    let crossbars_per_group = columns_needed.div_ceil(cfg.crossbar_cols) as u64;
    let weight_slices = layer.weight_slicing().slices();

    for gi in groups.clone() {
        debug_assert_uniform_geometry(layer, gi);
    }

    for &sign in signs {
        scratch.load_plane(input, sign);
        scratch.slice_plane();
        let Split {
            plane,
            sliced,
            spec_slices,
            acc,
            rngs,
            ..
        } = scratch.split();
        for gi in groups.clone() {
            let range = layer.group_row_range(gi);
            count_crossbar_events_scanning(cfg, &sliced, range, crossbars_per_group, &mut stats);
        }
        for (f, acc_f) in acc.iter_mut().enumerate() {
            for (k, g) in layer.groups()[f][groups.clone()].iter().enumerate() {
                let rng = &mut rngs[k];
                let range = g.row_start..g.row_start + g.rows;
                let gsum: i64 = plane[range.clone()].iter().map(|&x| i64::from(x)).sum();
                let mut total = i64::from(g.center) * gsum;
                for (s, slice) in weight_slices.iter().enumerate() {
                    let levels = &g.levels[s];
                    total += match cfg.input_mode {
                        InputMode::Speculative => run_column_speculative(
                            cfg,
                            &noise,
                            spec_slices,
                            &sliced,
                            range.clone(),
                            levels,
                            slice.shift(),
                            &mut stats,
                            rng,
                        ),
                        InputMode::BitSerial => run_column_bitserial(
                            cfg,
                            &noise,
                            &sliced,
                            range.clone(),
                            levels,
                            slice.shift(),
                            &mut stats,
                            rng,
                        ),
                    };
                    stats.events.device_charge += match cfg.input_mode {
                        InputMode::Speculative => {
                            device_charge(&sliced.spec_mass[range.clone()], levels)
                                + device_charge(&sliced.bit_mass[range.clone()], levels)
                        }
                        InputMode::BitSerial => {
                            device_charge(&sliced.bit_mass[range.clone()], levels)
                        }
                    };
                }
                *acc_f += sign * total;
            }
        }
    }
    stats
}

/// Debug-asserts that every filter's group `gi` covers the same row range
/// — the invariant per-crossbar event counting and panel packing rely on.
/// Compiled layers satisfy it by construction (group boundaries derive
/// from `filter_len` and the crossbar rows alone); a hand-mutated layout
/// must fail loudly instead of silently miscounting shared events.
fn debug_assert_uniform_geometry(layer: &CompiledLayer, gi: usize) {
    if cfg!(debug_assertions) {
        let g0 = &layer.groups()[0][gi];
        for (f, gs) in layer.groups().iter().enumerate() {
            let g = &gs[gi];
            assert!(
                g.row_start == g0.row_start && g.rows == g0.rows,
                "filter {f} group {gi} covers rows {}..{} but filter 0 covers {}..{}: \
                 per-crossbar event counting requires uniform group geometry",
                g.row_start,
                g.row_start + g.rows,
                g0.row_start,
                g0.row_start + g0.rows,
            );
        }
    }
}

/// The digital tail of one vector: requantizes fully reduced accumulators
/// into 8b outputs and returns the per-vector bookkeeping delta (the
/// `vectors` and `macs` counters). In a sharded run this is the merge
/// point's job — it must run exactly once per vector, after every row
/// range's partial accumulators have been summed.
///
/// # Panics
///
/// Panics if `input.len() != layer.filter_len()`, or if `acc` / `out` are
/// not `layer.filters()` long.
pub fn finalize_vector(
    layer: &CompiledLayer,
    input: &[Act],
    acc: &[i64],
    out: &mut [u8],
) -> RunStats {
    assert_eq!(input.len(), layer.filter_len(), "input length mismatch");
    assert_eq!(acc.len(), layer.filters(), "accumulator length mismatch");
    assert_eq!(out.len(), layer.filters(), "output length mismatch");
    let input_sum: i64 = input.iter().map(|&x| i64::from(x)).sum();
    layer.quant().requantize_into(acc, input_sum, out);
    RunStats {
        vectors: 1,
        events: EventCounts {
            macs: layer.filters() as u64 * layer.filter_len() as u64,
            ..EventCounts::default()
        },
        ..RunStats::default()
    }
}

/// Counts cycles, DAC pulses and row activations for one crossbar
/// row-group processing one input plane — O(1) per group, from the prefix
/// sums [`VectorScratch::slice_plane`] builds alongside the planes.
///
/// The equivalences with the definitional rescans (checked by
/// `count_crossbar_events_scanning` and the scratch prefix tests):
/// DAC pulses per row are the slice-value masses; bit-plane row
/// activations equal the bit mass (each plane entry is 0 or 1, so the
/// popcount *is* the activation count); speculative-plane activations are
/// tallied per row while slicing.
fn count_crossbar_events(
    cfg: &RaellaConfig,
    sliced: &SlicedView<'_>,
    range: std::ops::Range<usize>,
    crossbars: u64,
    stats: &mut RunStats,
) {
    let bit_pulses = sliced.bit_mass_pre[range.end] - sliced.bit_mass_pre[range.start];
    match cfg.input_mode {
        InputMode::Speculative => {
            stats.events.cycles += cfg.cycles_per_psum_set();
            // Speculation pulses: slice values; recovery pulses: 1-bit.
            let spec_pulses = sliced.spec_mass_pre[range.end] - sliced.spec_mass_pre[range.start];
            stats.events.dac_pulses += (spec_pulses + bit_pulses) * crossbars;
            let active =
                sliced.spec_act_pre[range.end] - sliced.spec_act_pre[range.start] + bit_pulses;
            stats.events.row_activations += active * crossbars;
        }
        InputMode::BitSerial => {
            stats.events.cycles += 8;
            stats.events.dac_pulses += bit_pulses * crossbars;
            stats.events.row_activations += bit_pulses * crossbars;
        }
    }
}

/// The pre-panel event counter, rescanning the sliced planes per group —
/// kept as the definitional oracle behind [`count_crossbar_events`], used
/// only by [`run_vector_groups_reference`].
fn count_crossbar_events_scanning(
    cfg: &RaellaConfig,
    sliced: &SlicedView<'_>,
    range: std::ops::Range<usize>,
    crossbars: u64,
    stats: &mut RunStats,
) {
    match cfg.input_mode {
        InputMode::Speculative => {
            stats.events.cycles += cfg.cycles_per_psum_set();
            // Speculation pulses: slice values; recovery pulses: 1-bit.
            let spec_pulses: u64 = sliced.spec_mass[range.clone()]
                .iter()
                .map(|&m| u64::from(m))
                .sum();
            let rec_pulses: u64 = sliced.bit_mass[range.clone()]
                .iter()
                .map(|&m| u64::from(m))
                .sum();
            stats.events.dac_pulses += (spec_pulses + rec_pulses) * crossbars;
            let active: u64 = sliced
                .spec_planes()
                .map(|xs| xs[range.clone()].iter().filter(|&&x| x > 0).count() as u64)
                .sum::<u64>()
                + sliced
                    .bit_planes()
                    .map(|xb| xb[range.clone()].iter().filter(|&&x| x > 0).count() as u64)
                    .sum::<u64>();
            stats.events.row_activations += active * crossbars;
        }
        InputMode::BitSerial => {
            stats.events.cycles += 8;
            let pulses: u64 = sliced.bit_mass[range.clone()]
                .iter()
                .map(|&m| u64::from(m))
                .sum();
            stats.events.dac_pulses += pulses * crossbars;
            let active: u64 = sliced
                .bit_planes()
                .map(|xb| xb[range.clone()].iter().filter(|&&x| x > 0).count() as u64)
                .sum();
            stats.events.row_activations += active * crossbars;
        }
    }
}

/// Speculation + recovery for one column (one weight slice of one filter
/// group). Returns the column's shifted psum contribution.
#[allow(clippy::too_many_arguments)]
fn run_column_speculative(
    cfg: &RaellaConfig,
    noise: &NoiseModel,
    spec_slices: &[Slice],
    sliced: &SlicedView<'_>,
    range: std::ops::Range<usize>,
    levels: &[i16],
    w_shift: u32,
    stats: &mut RunStats,
    rng: &mut NoiseRng,
) -> i64 {
    let mut total = 0i64;
    for (j, spec_slice) in spec_slices.iter().enumerate() {
        let xs = &sliced.spec_plane(j)[range.clone()];
        let sum = column_sum(xs, levels, noise, rng);
        let out = cfg.adc.convert(sum);
        stats.events.adc_converts += 1;
        stats.spec_attempts += 1;
        if cfg.adc.saturated(out) {
            // Speculation failed: recover with 1b slices of this window.
            stats.spec_failures += 1;
            total += recover_window(
                column_sum,
                cfg,
                noise,
                sliced,
                range.clone(),
                levels,
                w_shift,
                *spec_slice,
                stats,
                rng,
            );
        } else {
            total += out << (w_shift + spec_slice.shift());
        }
    }
    total
}

/// One analog column read: [`column_read`] on the panel path,
/// [`column_sum`] in the scalar oracle.
type ColumnRead = fn(&[u16], &[i16], &NoiseModel, &mut NoiseRng) -> i64;

/// Recovery: re-run one speculative window bit-serially, converting this
/// (failed) column on every bit cycle through `read`.
#[allow(clippy::too_many_arguments)]
fn recover_window(
    read: ColumnRead,
    cfg: &RaellaConfig,
    noise: &NoiseModel,
    sliced: &SlicedView<'_>,
    range: std::ops::Range<usize>,
    levels: &[i16],
    w_shift: u32,
    window: Slice,
    stats: &mut RunStats,
    rng: &mut NoiseRng,
) -> i64 {
    let mut total = 0i64;
    for b in (window.l..=window.h).rev() {
        let xb = &sliced.bit_plane(b)[range.clone()];
        let sum = read(xb, levels, noise, rng);
        let out = cfg.adc.convert(sum);
        stats.events.adc_converts += 1;
        stats.recovery_converts += 1;
        if cfg.adc.saturated(out) {
            // Rare (§3.4): accept the clamped value and move on.
            stats.recovery_saturations += 1;
        }
        total += out << (w_shift + b);
    }
    total
}

/// Bit-serial processing for one column: eight 1b input slices, every one
/// converted (the no-speculation baseline, §4.3.2).
#[allow(clippy::too_many_arguments)]
fn run_column_bitserial(
    cfg: &RaellaConfig,
    noise: &NoiseModel,
    sliced: &SlicedView<'_>,
    range: std::ops::Range<usize>,
    levels: &[i16],
    w_shift: u32,
    stats: &mut RunStats,
    rng: &mut NoiseRng,
) -> i64 {
    let mut total = 0i64;
    for b in (0..8).rev() {
        let xb = &sliced.bit_plane(b)[range.clone()];
        let sum = column_sum(xb, levels, noise, rng);
        let out = cfg.adc.convert(sum);
        stats.events.adc_converts += 1;
        stats.bitserial_converts += 1;
        if cfg.adc.saturated(out) {
            stats.bitserial_saturations += 1;
        }
        total += out << (w_shift + b);
    }
    total
}

/// A [`MatVecEngine`] that runs every layer through RAELLA, compiling and
/// caching layers on first use. Drop-in replacement for the integer
/// reference engine in graph execution — the accuracy experiments' engine.
///
/// Batches execute through [`run_batch_parallel`]. Results are
/// deterministic for a given construction seed and call sequence: the
/// engine assigns every processed vector a global index, and each vector's
/// noise stream is derived from `(seed, index)` alone.
#[derive(Debug)]
pub struct RaellaEngine {
    cfg: RaellaConfig,
    cache: SharedCompileCache,
    stats: RunStats,
    noise_seed: u64,
    next_vector: u64,
}

impl RaellaEngine {
    /// Creates an engine with the given configuration and a private
    /// compile cache.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration (see
    /// [`RaellaEngine::with_cache`]).
    pub fn new(cfg: RaellaConfig) -> Self {
        Self::with_cache(cfg, SharedCompileCache::new())
    }

    /// Creates an engine that compiles through `cache` — pass
    /// [`SharedCompileCache::global`] (or any shared handle) to dedupe
    /// compiles with other engines and [`crate::model::CompiledModel`]s in
    /// the process.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration — the streaming
    /// [`MatVecEngine`] interface has no per-call error channel, so the
    /// configuration is checked here, at construction, where the mistake
    /// is local and the message is clear.
    pub fn with_cache(cfg: RaellaConfig, cache: SharedCompileCache) -> Self {
        cfg.validate()
            .expect("RaellaEngine requires a valid configuration");
        let noise_seed = noise_seed_for(&cfg);
        RaellaEngine {
            cfg,
            cache,
            stats: RunStats::default(),
            noise_seed,
            next_vector: 0,
        }
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Resets accumulated statistics (keeps compiled layers and the noise
    /// stream position).
    pub fn reset_stats(&mut self) {
        self.stats = RunStats::default();
    }

    /// The engine's configuration.
    pub fn config(&self) -> &RaellaConfig {
        &self.cfg
    }

    /// Number of layers compiled and cached.
    pub fn compiled_layers(&self) -> usize {
        self.cache.len()
    }
}

/// The noise-stream seed every execution front end derives from a
/// configuration. [`RaellaEngine`] and [`crate::model::CompiledModel`]
/// share it, which is what makes whole-model batched runs bit-identical to
/// per-image engine runs.
pub(crate) fn noise_seed_for(cfg: &RaellaConfig) -> u64 {
    cfg.seed ^ 0xE61E
}

impl MatVecEngine for RaellaEngine {
    fn layer_outputs(&mut self, layer: &MatrixLayer, inputs: &[Act]) -> Vec<u8> {
        let compiled = self
            .cache
            .get_or_compile(layer, &self.cfg)
            .expect("engine configuration was validated at construction");
        let out = run_batch_parallel_at(
            &compiled,
            inputs,
            &mut self.stats,
            self.noise_seed,
            self.next_vector,
        );
        self.next_vector += (inputs.len() / layer.filter_len()) as u64;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raella_nn::synth::SynthLayer;
    use raella_xbar::adc::AdcSpec;
    use raella_xbar::slicing::Slicing;

    fn cfg_small() -> RaellaConfig {
        RaellaConfig {
            crossbar_rows: 128,
            crossbar_cols: 128,
            ..RaellaConfig::default()
        }
    }

    /// With an unbounded ADC and no noise, the analog pipeline must equal
    /// the integer reference bit-for-bit.
    #[test]
    fn unbounded_adc_reproduces_reference_exactly() {
        let layer = SynthLayer::conv(8, 6, 3, 11).build();
        let mut cfg = cfg_small();
        cfg.adc = AdcSpec::new(16, true);
        let compiled =
            CompiledLayer::with_slicing(&layer, Slicing::raella_default_weights(), &cfg).unwrap();
        let inputs = layer.sample_inputs(6, 3);
        let mut stats = RunStats::default();
        let analog = run_batch(&compiled, &inputs, &mut stats, 0);
        assert_eq!(analog, layer.reference_outputs(&inputs));
    }

    #[test]
    fn bitserial_and_speculative_agree_with_unbounded_adc() {
        let layer = SynthLayer::conv(8, 4, 3, 13).build();
        let mut cfg = cfg_small();
        cfg.adc = AdcSpec::new(16, true);
        let spec =
            CompiledLayer::with_slicing(&layer, Slicing::raella_default_weights(), &cfg).unwrap();
        let bs_cfg = cfg.without_speculation();
        let bs = CompiledLayer::with_slicing(&layer, Slicing::raella_default_weights(), &bs_cfg)
            .unwrap();
        let inputs = layer.sample_inputs(4, 9);
        let mut s1 = RunStats::default();
        let mut s2 = RunStats::default();
        assert_eq!(
            run_batch(&spec, &inputs, &mut s1, 0),
            run_batch(&bs, &inputs, &mut s2, 0)
        );
    }

    #[test]
    fn speculation_reduces_adc_converts() {
        let layer = SynthLayer::conv(32, 8, 3, 17).build();
        let cfg = RaellaConfig::default();
        let spec = CompiledLayer::compile(&layer, &cfg).unwrap();
        let bs = CompiledLayer::with_slicing(
            &layer,
            spec.weight_slicing().clone(),
            &cfg.clone().without_speculation(),
        )
        .unwrap();
        let inputs = layer.sample_inputs(4, 5);
        let mut s_spec = RunStats::default();
        let mut s_bs = RunStats::default();
        run_batch(&spec, &inputs, &mut s_spec, 0);
        run_batch(&bs, &inputs, &mut s_bs, 0);
        // Paper §4.3.2: speculation cuts ADC converts by ~60% vs
        // recovery-only; synthetic distributions land in the same regime.
        assert!(
            (s_spec.events.adc_converts as f64) < 0.65 * s_bs.events.adc_converts as f64,
            "spec {} vs bit-serial {}",
            s_spec.events.adc_converts,
            s_bs.events.adc_converts
        );
        // ~3 + small recovery tail per column per psum set (paper: ~3.3).
        let per_col = s_spec.converts_per_column();
        assert!((3.0..5.0).contains(&per_col), "converts/column {per_col}");
    }

    #[test]
    fn speculation_failures_are_recovered_not_lost() {
        // Force failures with a tiny 3b ADC: outputs must still be close to
        // the reference because failed windows are re-read bit-serially.
        let layer = SynthLayer::conv(16, 8, 3, 23).build();
        let mut cfg = cfg_small();
        cfg.adc = AdcSpec::new(5, true);
        let compiled = CompiledLayer::with_slicing(&layer, Slicing::uniform(1, 8), &cfg).unwrap();
        let inputs = layer.sample_inputs(3, 7);
        let mut stats = RunStats::default();
        run_batch(&compiled, &inputs, &mut stats, 0);
        assert!(stats.spec_failures > 0, "tiny ADC must fail speculation");
        assert!(stats.recovery_converts > 0);
    }

    #[test]
    fn signed_inputs_double_cycles() {
        let unsigned = SynthLayer::linear(64, 4, 31).build();
        let signed = SynthLayer::linear(64, 4, 31).signed_inputs().build();
        let cfg = cfg_small();
        let cu = CompiledLayer::with_slicing(&unsigned, Slicing::raella_default_weights(), &cfg)
            .unwrap();
        let cs =
            CompiledLayer::with_slicing(&signed, Slicing::raella_default_weights(), &cfg).unwrap();
        let mut su = RunStats::default();
        let mut ss = RunStats::default();
        run_batch(&cu, &unsigned.sample_inputs(2, 1), &mut su, 0);
        run_batch(&cs, &signed.sample_inputs(2, 1), &mut ss, 0);
        assert_eq!(ss.events.cycles, 2 * su.events.cycles);
    }

    #[test]
    fn signed_inputs_still_match_reference_with_unbounded_adc() {
        let layer = SynthLayer::linear(32, 6, 37).signed_inputs().build();
        let mut cfg = cfg_small();
        cfg.adc = AdcSpec::new(16, true);
        let compiled =
            CompiledLayer::with_slicing(&layer, Slicing::raella_default_weights(), &cfg).unwrap();
        let inputs = layer.sample_inputs(5, 2);
        let mut stats = RunStats::default();
        let analog = run_batch(&compiled, &inputs, &mut stats, 0);
        assert_eq!(analog, layer.reference_outputs(&inputs));
    }

    #[test]
    fn noise_perturbs_outputs_but_stays_bounded() {
        let layer = SynthLayer::conv(16, 8, 3, 41).build();
        let cfg = RaellaConfig::default().with_noise(0.08);
        let compiled = CompiledLayer::compile(&layer, &cfg).unwrap();
        let inputs = layer.sample_inputs(3, 3);
        let reference = layer.reference_outputs(&inputs);
        let mut stats = RunStats::default();
        let noisy = run_batch(&compiled, &inputs, &mut stats, 5);
        assert_ne!(noisy, reference, "8% noise should perturb something");
        let max_err = reference
            .iter()
            .zip(&noisy)
            .map(|(&a, &b)| a.abs_diff(b))
            .max()
            .unwrap();
        assert!(max_err < 80, "errors should stay moderate, max {max_err}");
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        // Noisy mode is the hard case: every ADC read consumes noise
        // samples, so any stream-sharing across vectors would diverge.
        let layer = SynthLayer::conv(16, 6, 3, 47).build();
        let cfg = cfg_small().with_noise(0.06);
        let compiled = CompiledLayer::compile(&layer, &cfg).unwrap();
        let inputs = layer.sample_inputs(12, 21);
        let mut s_serial = RunStats::default();
        let mut s_par = RunStats::default();
        let serial = run_batch(&compiled, &inputs, &mut s_serial, 3);
        let parallel = run_batch_parallel(&compiled, &inputs, &mut s_par, 3);
        assert_eq!(serial, parallel);
        assert_eq!(s_serial, s_par);
    }

    #[test]
    fn batch_offset_shifts_noise_streams() {
        // The conv layer's calibrated outputs are well away from the u8
        // clamp rails, so noise differences survive requantization.
        let layer = SynthLayer::conv(16, 8, 3, 41).build();
        let cfg = cfg_small().with_noise(0.10);
        let compiled = CompiledLayer::compile(&layer, &cfg).unwrap();
        let inputs = layer.sample_inputs(4, 2);
        let mut s0 = RunStats::default();
        let mut s1 = RunStats::default();
        let at0 = run_batch_at(&compiled, &inputs, &mut s0, 7, 0);
        let at4 = run_batch_at(&compiled, &inputs, &mut s1, 7, 4);
        assert_ne!(at0, at4, "different stream offsets must differ under noise");
        // And the split [0..2)+[2..4) equals the whole [0..4).
        let mut sa = RunStats::default();
        let half = inputs.len() / 2;
        let mut first = run_batch_at(&compiled, &inputs[..half], &mut sa, 7, 0);
        first.extend(run_batch_at(&compiled, &inputs[half..], &mut sa, 7, 2));
        assert_eq!(first, at0);
        assert_eq!(sa, s0);
    }

    #[test]
    fn engine_caches_compiled_layers() {
        let layer = SynthLayer::conv(8, 4, 3, 43).build();
        let mut engine = RaellaEngine::new(cfg_small());
        let inputs = layer.sample_inputs(2, 1);
        let _ = engine.layer_outputs(&layer, &inputs);
        assert_eq!(engine.compiled_layers(), 1);
        let _ = engine.layer_outputs(&layer, &inputs);
        assert_eq!(engine.compiled_layers(), 1);
        assert_eq!(engine.stats().vectors, 4);
        engine.reset_stats();
        assert_eq!(engine.stats().vectors, 0);
        assert_eq!(engine.compiled_layers(), 1);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = RunStats {
            spec_attempts: 10,
            spec_failures: 1,
            ..RunStats::default()
        };
        let b = RunStats {
            spec_attempts: 30,
            spec_failures: 0,
            ..RunStats::default()
        };
        a.merge(&b);
        assert_eq!(a.spec_attempts, 40);
        assert!((a.spec_failure_rate() - 0.025).abs() < 1e-12);
    }

    /// The panel kernel and the retained scalar kernel must agree on
    /// accumulators *and* full statistics — ideal and noisy, both input
    /// modes, full and partial group ranges. A 70-filter layer exercises
    /// a full 64-wide panel plus a ragged 6-wide tail.
    #[test]
    fn panel_kernel_matches_reference_kernel() {
        let layer = SynthLayer::linear(150, 70, 51).build();
        let base = RaellaConfig {
            crossbar_rows: 64,
            crossbar_cols: 64,
            ..RaellaConfig::default()
        };
        for noise in [0.0, 0.07] {
            for bitserial in [false, true] {
                let mut cfg = base.clone().with_noise(noise);
                if bitserial {
                    cfg = cfg.without_speculation();
                }
                let compiled =
                    CompiledLayer::with_slicing(&layer, Slicing::raella_default_weights(), &cfg)
                        .unwrap();
                let inputs = layer.sample_inputs(2, 19);
                let ranges = [0..compiled.group_count(), 1..2];
                for range in ranges {
                    for (v, input) in inputs.chunks(compiled.filter_len()).enumerate() {
                        let mut panel_scratch = VectorScratch::for_layer(&compiled);
                        let mut ref_scratch = VectorScratch::for_layer(&compiled);
                        let ps = run_vector_groups(
                            &compiled,
                            input,
                            range.clone(),
                            &mut panel_scratch,
                            9,
                            v as u64,
                        );
                        let rs = run_vector_groups_reference(
                            &compiled,
                            input,
                            range.clone(),
                            &mut ref_scratch,
                            9,
                            v as u64,
                        );
                        assert_eq!(
                            panel_scratch.acc, ref_scratch.acc,
                            "noise {noise} bitserial {bitserial} range {range:?} vector {v}"
                        );
                        assert_eq!(
                            ps, rs,
                            "noise {noise} bitserial {bitserial} range {range:?} vector {v}"
                        );
                    }
                }
            }
        }
    }

    /// Aged execution: epoch 0 replays the static engine bit for bit, a
    /// later age re-keys the streams and raises the noise level, the
    /// panel and reference kernels agree at every age, and the parallel
    /// path stays bit-identical to serial.
    #[test]
    fn aged_execution_is_epoch_keyed_and_kernel_consistent() {
        use raella_xbar::lifetime::DeviceLifetime;
        let layer = SynthLayer::linear(100, 12, 53).build();
        let base = RaellaConfig {
            crossbar_rows: 64,
            crossbar_cols: 64,
            ..RaellaConfig::default()
        }
        .with_noise(0.05);
        let drifting = base
            .clone()
            .with_lifetime(DeviceLifetime::new(0.0, 0.04, 4));
        let slicing = Slicing::raella_default_weights();
        let stat = CompiledLayer::with_slicing(&layer, slicing.clone(), &base).unwrap();
        let aged = CompiledLayer::with_slicing(&layer, slicing, &drifting).unwrap();
        let inputs = layer.sample_inputs(3, 11);

        // Ages 0..2 stay in epoch 0 (interval 4): bit-identical to the
        // static model, stats included.
        let mut s_static = RunStats::default();
        let mut s_fresh = RunStats::default();
        let out_static = run_batch(&stat, &inputs, &mut s_static, 9);
        let out_fresh = run_batch_at_age(&aged, &inputs, &mut s_fresh, 9, 0, 0);
        assert_eq!(
            out_static, out_fresh,
            "epoch 0 must replay the static engine"
        );
        assert_eq!(s_static, s_fresh);
        assert_eq!(s_fresh.drift_epoch, 0);

        // Age 8 puts every vector in epoch ≥ 2: streams re-key.
        let mut s_old = RunStats::default();
        let out_old = run_batch_at_age(&aged, &inputs, &mut s_old, 9, 0, 8);
        assert_ne!(out_old, out_fresh, "drift must perturb outputs");
        assert_eq!(s_old.drift_epoch, 2, "ages 8..10 all sit in epoch 2");

        // Parallel equals serial at age, outputs and stats.
        let mut s_par = RunStats::default();
        let many = layer.sample_inputs(12, 11);
        let mut s_ser = RunStats::default();
        assert_eq!(
            run_batch_parallel_at_age(&aged, &many, &mut s_par, 9, 0, 8),
            run_batch_at_age(&aged, &many, &mut s_ser, 9, 0, 8)
        );
        assert_eq!(s_par, s_ser);

        // Panel kernel vs scalar reference at an aged epoch.
        for (v, input) in inputs.chunks(aged.filter_len()).enumerate() {
            let mut a = VectorScratch::for_layer(&aged);
            let mut b = VectorScratch::for_layer(&aged);
            let sa = run_vector_groups_at_age(
                &aged,
                input,
                0..aged.group_count(),
                &mut a,
                9,
                v as u64,
                8,
            );
            let sb = run_vector_groups_reference_at_age(
                &aged,
                input,
                0..aged.group_count(),
                &mut b,
                9,
                v as u64,
                8,
            );
            assert_eq!(a.acc, b.acc, "vector {v}");
            assert_eq!(sa, sb, "vector {v}");
        }
    }

    /// Event counting charges cycles/DAC pulses/row activations per
    /// crossbar using filter 0's row range for each group — valid only
    /// while every filter's group shares that geometry. A hand-mutated
    /// layout that breaks the invariant must be caught, not miscounted.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "uniform group geometry")]
    fn nonuniform_group_geometry_is_detected() {
        let layer = SynthLayer::linear(100, 2, 3).build();
        let cfg = RaellaConfig {
            crossbar_rows: 64,
            crossbar_cols: 64,
            ..RaellaConfig::default()
        };
        let mut compiled =
            CompiledLayer::with_slicing(&layer, Slicing::raella_default_weights(), &cfg).unwrap();
        {
            let gs = &mut compiled.groups_mut()[1];
            gs[0].rows += 1;
            gs[1].row_start += 1;
            gs[1].rows -= 1;
        }
        let input = vec![1 as Act; 100];
        let mut scratch = VectorScratch::for_layer(&compiled);
        let _ = run_vector_groups(&compiled, &input, 0..2, &mut scratch, 0, 0);
    }
}
