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
//! The unit of work is one input vector. Each level of execution has one
//! entry point, taking the full `(noise_seed, first vector, device age)`
//! coordinates; pass `0` for the first vector and the age to run a fresh
//! batch on an un-aged device.
//!
//! * [`run_vector_groups_at_age`] is the pure kernel: it reads the
//!   compiled layer and one vector's row groups, scribbles only in a
//!   caller-owned [`VectorScratch`] (no per-vector allocation), and
//!   returns a local [`RunStats`] delta; [`finalize_vector`] requantizes
//!   the vector's reduced accumulators.
//! * [`run_batch_at_age`] runs a batch serially, and
//!   [`run_batch_parallel_at_age`] lets threads claim contiguous vector
//!   chunks and merges the deltas. Nothing is shared between vectors, so
//!   both produce bit-identical output bytes and statistics at any thread
//!   count, noisy or not. Both run the same private per-vector loop.
//!
//! # Row-range execution (tile sharding)
//!
//! A vector's work further decomposes along the layer's crossbar row
//! groups. [`run_batch_groups_at_age`] computes the partial accumulators
//! of any contiguous group range (the work one simulated tile owns) for a
//! batch, and [`finalize_vector`] turns fully reduced accumulators into
//! requantized outputs. Noise is drawn from per-`(vector, row-group)`
//! counter-derived substreams
//! ([`NoiseRng::for_substream_aged`]`(seed, vector_index, group, epoch)`)
//! — keyed by the crossbar region's stable coordinates, never by read
//! order — so *any* partition of row groups across tiles, run in any
//! order on any threads, draws exactly the noise the monolithic engine
//! draws. Partial accumulators merge by elementwise `i64` addition
//! (exact, associative, commutative) and statistics by
//! [`RunStats::merge`], which is what makes tile placement pure
//! scheduling (`crates/core/tests/shard_determinism.rs`).
//!
//! # Kernel structure (compacted rows, fused column panels)
//!
//! The hot kernel does not walk columns one at a time. Per row group, the
//! compiled layer provides its levels re-packed into cache-blocked panels
//! ([`crate::compiler::LevelPanels`]: [`PANEL_WIDTH`] filters per block,
//! row-major). Per sign plane, [`VectorScratch`] first compacts the
//! plane's nonzero rows — row index, input windows and charge mass — in
//! one branch-free pass, and the kernel runs in two phases per block:
//!
//! 1. **Accumulation** — one pass per weight slice over the group's
//!    compacted rows loads each packed level row once and feeds every
//!    window's signed sum and, on a noisy device, its absolute sum.
//!    RAELLA's analog operands are small (windows ≤ 15, levels ≤ 31), so
//!    products accumulate in 16-bit lanes over blocks of 64 rows — exact
//!    by a `const` bound — and widen to `i32` once per block.
//! 2. **Conversion** — on a noisy device, ADC converts, speculation
//!    checks, recovery, and noise draws replay *filter-major, column by
//!    column*, in exactly the order of the scalar reference kernel. On an
//!    ideal device a read draws nothing and every counter is a sum, so
//!    the order is free: one lane-wide pass per (weight slice, window)
//!    clamps the whole panel's sums, shift-adds them into per-lane
//!    totals and marks rail hits in a bit mask. If any of a slice's
//!    windows hit a rail, one more pass over the group's compacted rows
//!    sums every recovery bit (7, 6 and 5 of the 4b window, 3 and 1 of
//!    the 2b windows) for the whole panel: each row's entry carries a
//!    precomputed `0`/`0xFFFF` mask per bit, so the pass ANDs the packed
//!    level row with each mask and adds, in exact 16-bit lanes. Each
//!    marked lane then swaps its rail value for its recovered window;
//!    converts and saturations are counted in bulk. A noisy recovery
//!    instead re-reads the failed window's upper bits from the dense
//!    magnitude plane, column by column. Both derive a window's lowest
//!    bit from the window's own sums by linearity.
//!
//! Device charge — `Σ mass·|level|` over every row, column and cycle — is
//! charged per row, from the compiled per-row level magnitude sums
//! ([`crate::compiler::LevelPanels`]), while counting crossbar events.
//!
//! The phase split is safe because analog sums are pure integer
//! reductions (commutative even under wraparound) and noise enters only
//! at conversion; [`run_vector_groups_reference_at_age`] retains a scalar
//! kernel over dense input planes with its own `i32`/`i64` arithmetic,
//! and `crates/core/tests/panel_oracle.rs` pins the two against each
//! other — outputs, statistics, and noise-stream consumption bit for bit.
//!
//! # Instruction sets
//!
//! The kernel is one portable source body. On x86-64, each entry point
//! checks once per call whether the CPU has AVX2 and, if so, runs the
//! same body through a wrapper compiled with AVX2 enabled (one of the
//! crate's two `unsafe` calls, with the gateway's `poll(2)`); otherwise, and on every other target, it
//! runs the body as built. No build flag or setting selects the path,
//! and both produce identical bytes and statistics.

use serde::{Deserialize, Serialize};

use raella_nn::matrix::Act;
use raella_xbar::crossbar::EventCounts;
use raella_xbar::noise::{NoiseModel, NoiseRng};
use raella_xbar::slicing::Slice;

use crate::compiler::{CompiledLayer, PANEL_WIDTH};
use crate::config::{InputMode, RaellaConfig, INPUT_BITS, MAX_CELL_BITS, SPEC_WINDOWS};
use crate::parallel::{run_blocks, worker_count};
use crate::scratch::{Entry, Split, VectorScratch, RECOVERY_BITS};

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

/// Rows per 16-bit accumulation block. The hot kernel sums a block's
/// products in `u16` lanes and widens once per block; the bounds below
/// keep every block sum in range, so the wrapping lane arithmetic is
/// exact and the results equal the scalar kernel's `i32`/`i64` sums. The
/// fused pass blocks compacted entries, which are distinct rows, so an
/// entry block holds at most `ROW_BLOCK` rows too.
const ROW_BLOCK: usize = 64;
/// Largest input-window value a row drives: the 4b speculative slice
/// (§4.3; bit-serial windows are 1b). Inputs are 8b magnitudes.
const MAX_WINDOW: usize = 15;
/// Largest programmed level magnitude: slices are at most `cell_bits`
/// wide and programming error clamps to the slice's maximum.
const MAX_LEVEL: usize = (1 << MAX_CELL_BITS) - 1;
const _: () = assert!(ROW_BLOCK * MAX_WINDOW * MAX_LEVEL <= i16::MAX as usize);

/// Rows per 16-bit block of a recovery bit sum: a bit is 0 or 1, so a
/// block may hold far more rows than [`ROW_BLOCK`] before a sum can leave
/// the lane range.
const BIT_BLOCK: usize = 1024;
const _: () = assert!(BIT_BLOCK * MAX_LEVEL <= i16::MAX as usize);

/// Panel lanes one register-resident chunk of the fused pass covers.
const CHUNK: usize = 16;

// A panel's rail hits fit one `u64` mask, a bit per lane.
const _: () = assert!(PANEL_WIDTH <= u64::BITS as usize);

/// Runs `body` compiled for AVX2 when the CPU has it, and as built
/// otherwise. Callers pass an `#[inline(always)]` closure over an
/// `#[inline(always)]` body, so the whole kernel inlines into the AVX2
/// wrapper and is compiled a second time for it.
#[inline(always)]
pub(crate) fn with_best_isa<R>(body: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `avx2` is safe code compiled with AVX2 enabled; calling
        // it is sound exactly when the CPU executes AVX2, which the
        // runtime check above has just established.
        #[allow(unsafe_code)]
        return unsafe { avx2(body) };
    }
    body()
}

/// [`with_best_isa`]'s AVX2 instantiation of `body`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<R>(body: impl FnOnce() -> R) -> R {
    body()
}

/// Phase 1 for one weight slice of one panel block: a pass over the row
/// group's compacted entries (`row0` is the group's first layer row) that
/// loads each packed level row of `data` (`bw` lanes) once and adds every
/// window's signed sum into `wsum[w·PANEL_WIDTH + lane]` and, in noisy
/// mode, every window's absolute sum into `asum`. Dispatches to a
/// compile-time window count.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn accumulate(
    mode: InputMode,
    noisy: bool,
    entries: &[Entry],
    row0: usize,
    data: &[i16],
    bw: usize,
    wsum: &mut [i32],
    asum: &mut [i32],
) {
    match (mode, noisy) {
        (InputMode::Speculative, false) => {
            fuse::<{ SPEC_WINDOWS.len() }, false>(entries, row0, data, bw, wsum, asum)
        }
        (InputMode::Speculative, true) => {
            fuse::<{ SPEC_WINDOWS.len() }, true>(entries, row0, data, bw, wsum, asum)
        }
        (InputMode::BitSerial, false) => {
            fuse::<INPUT_BITS, false>(entries, row0, data, bw, wsum, asum)
        }
        (InputMode::BitSerial, true) => {
            fuse::<INPUT_BITS, true>(entries, row0, data, bw, wsum, asum)
        }
    }
}

/// [`accumulate`] over `W` windows: per [`ROW_BLOCK`] entries and per
/// [`CHUNK`] lanes, the block's sums stay in `u16` registers and widen
/// once.
#[inline(always)]
fn fuse<const W: usize, const NOISY: bool>(
    entries: &[Entry],
    row0: usize,
    data: &[i16],
    bw: usize,
    wsum: &mut [i32],
    asum: &mut [i32],
) {
    for block in entries.chunks(ROW_BLOCK) {
        for c0 in (0..bw).step_by(CHUNK) {
            let lanes = (bw - c0).min(CHUNK);
            let (ws, abs) = if lanes == CHUNK {
                fuse_chunk::<W, NOISY, CHUNK>(block, row0, data, bw, c0, lanes)
            } else {
                fuse_chunk::<W, NOISY, 0>(block, row0, data, bw, c0, lanes)
            };
            for w in 0..W {
                let at = w * PANEL_WIDTH + c0;
                for (d, &b) in wsum[at..at + lanes].iter_mut().zip(&ws[w]) {
                    *d += i32::from(b as i16);
                }
                if NOISY {
                    for (d, &b) in asum[at..at + lanes].iter_mut().zip(&abs[w]) {
                        *d += i32::from(b);
                    }
                }
            }
        }
    }
}

/// Per-window signed and absolute `u16` sums of one lane chunk.
type ChunkSums<const W: usize> = ([[u16; CHUNK]; W], [[u16; CHUNK]; W]);

/// One entry block × lanes `c0..c0 + lanes` of [`fuse`] (`C`: the lane
/// count at compile time, `0` when known only at run time).
#[inline(always)]
fn fuse_chunk<const W: usize, const NOISY: bool, const C: usize>(
    block: &[Entry],
    row0: usize,
    data: &[i16],
    bw: usize,
    c0: usize,
    lanes: usize,
) -> ChunkSums<W> {
    let lanes = if C == 0 { lanes } else { C };
    let mut ws = [[0u16; CHUNK]; W];
    let mut abs = [[0u16; CHUNK]; W];
    for e in block {
        let at = (e.row as usize - row0) * bw + c0;
        let row = &data[at..at + lanes];
        for (acc, &x) in ws.iter_mut().zip(&e.win) {
            for (a, &l) in acc.iter_mut().zip(row) {
                *a = a.wrapping_add(x.wrapping_mul(l as u16));
            }
        }
        if NOISY {
            let mut mag = [0u16; CHUNK];
            for (m, &l) in mag.iter_mut().zip(row) {
                *m = l.unsigned_abs();
            }
            for (acc, &x) in abs.iter_mut().zip(&e.win) {
                for (a, &m) in acc.iter_mut().zip(&mag) {
                    *a = a.wrapping_add(x.wrapping_mul(m));
                }
            }
        }
    }
    (ws, abs)
}

/// `(Σ bit_b(x)·l, Σ bit_b(x)·|l|)` of one column for the `BITS` bits
/// above bit `l` (`[b − l − 1]`), read straight from the magnitude plane
/// in one pass of exact 16-bit [`BIT_BLOCK`]s.
#[inline(always)]
fn upper_bit_sums<const BITS: usize>(plane: &[u16], levels: &[i16], l: u32) -> [(i64, i64); 3] {
    let mut sums = [(0i64, 0i64); 3];
    for (xb, lb) in plane.chunks(BIT_BLOCK).zip(levels.chunks(BIT_BLOCK)) {
        let (mut w, mut a) = ([0u16; BITS], [0u16; BITS]);
        for (&x, &lv) in xb.iter().zip(lb) {
            for k in 0..BITS {
                let bit = (x >> (l + 1 + k as u32)) & 1;
                w[k] = w[k].wrapping_add(bit.wrapping_mul(lv as u16));
                a[k] = a[k].wrapping_add(bit.wrapping_mul(lv.unsigned_abs()));
            }
        }
        for k in 0..BITS {
            sums[k].0 += i64::from(w[k] as i16);
            sums[k].1 += i64::from(a[k]);
        }
    }
    sums
}

/// Per-lane signed sums `Σ bit_b(x)·level` of every [`RECOVERY_BITS`] bit
/// `b`, one row per bit.
type BitSums = [[i32; PANEL_WIDTH]; RECOVERY_BITS.len()];

/// The ideal device's recovery reads for one weight slice of one panel
/// block: a pass over the row group's compacted entries (`row0` is the
/// group's first layer row) that loads each packed level row of `data`
/// (`bw` lanes) once and adds it, ANDed with the entry's precomputed bit
/// masks, into every [`RECOVERY_BITS`] sum of `sums[..][..bw]`. Per
/// [`BIT_BLOCK`] entries and per [`CHUNK`] lanes, the sums stay in exact
/// `u16` registers and widen once.
#[inline(always)]
fn recovery_bit_sums(entries: &[Entry], row0: usize, data: &[i16], bw: usize, sums: &mut BitSums) {
    for bit in sums.iter_mut() {
        bit[..bw].fill(0);
    }
    for block in entries.chunks(BIT_BLOCK) {
        for c0 in (0..bw).step_by(CHUNK) {
            let lanes = (bw - c0).min(CHUNK);
            let chunk = if lanes == CHUNK {
                bit_chunk::<CHUNK>(block, row0, data, bw, c0, lanes)
            } else {
                bit_chunk::<0>(block, row0, data, bw, c0, lanes)
            };
            for (bit, b) in sums.iter_mut().zip(&chunk) {
                for (d, &b) in bit[c0..c0 + lanes].iter_mut().zip(b) {
                    *d += i32::from(b as i16);
                }
            }
        }
    }
}

/// One entry block × lanes `c0..c0 + lanes` of [`recovery_bit_sums`]
/// (`C`: the lane count at compile time, `0` when known only at run
/// time).
#[inline(always)]
fn bit_chunk<const C: usize>(
    block: &[Entry],
    row0: usize,
    data: &[i16],
    bw: usize,
    c0: usize,
    lanes: usize,
) -> [[u16; CHUNK]; RECOVERY_BITS.len()] {
    let lanes = if C == 0 { lanes } else { C };
    let mut sums = [[0u16; CHUNK]; RECOVERY_BITS.len()];
    for e in block {
        let at = (e.row as usize - row0) * bw + c0;
        let row = &data[at..at + lanes];
        for (acc, &mask) in sums.iter_mut().zip(e.recovery_masks()) {
            for (a, &l) in acc.iter_mut().zip(row) {
                *a = a.wrapping_add(mask & l as u16);
            }
        }
    }
    sums
}

/// Recovery on the ideal lane-wide path, for one speculative window of a
/// panel: every lane in `failed` swaps the rail value speculation added
/// to its total for the window's bit-serial re-read, MSB first. The
/// window's upper bits come from `bits` (its rows of a [`BitSums`]), the
/// lowest from the window sum `sums[lane]` by linearity, as in
/// [`recover_window`]. Returns the re-reads that saturated.
#[inline(always)]
fn recover_lanes(
    failed: u64,
    sums: &[i32],
    bits: &[[i32; PANEL_WIDTH]],
    window: Slice,
    w_shift: u32,
    (lo, hi): (i32, i32),
    totals: &mut [i64],
) -> u64 {
    let (lo, hi) = (i64::from(lo), i64::from(hi));
    let mut saturations = 0u64;
    let mut walk = failed;
    while walk != 0 {
        let i = walk.trailing_zeros() as usize;
        walk &= walk - 1;
        let mut w = i64::from(sums[i]);
        let mut total = -(w.clamp(lo, hi) << (w_shift + window.l));
        for (bit, b) in bits.iter().zip((window.l + 1..=window.h).rev()) {
            let r = i64::from(bit[i]);
            w -= r << (b - window.l);
            let out = r.clamp(lo, hi);
            saturations += u64::from(out == lo || out == hi);
            total += out << (w_shift + b);
        }
        let out = w.clamp(lo, hi);
        saturations += u64::from(out == lo || out == hi);
        totals[i] += total + (out << (w_shift + window.l));
    }
    saturations
}

/// Converts one recovery read and counts it. A saturation is accepted and
/// propagated (rare, §3.4).
#[inline(always)]
fn recovery_convert(cfg: &RaellaConfig, sum: i64, stats: &mut RunStats) -> i64 {
    let out = cfg.adc.convert(sum);
    stats.events.adc_converts += 1;
    stats.recovery_converts += 1;
    if cfg.adc.saturated(out) {
        stats.recovery_saturations += 1;
    }
    out
}

/// Recovery on the noisy panel path: re-runs one failed speculative
/// window bit-serially, converting this column on every bit cycle, MSB
/// first. Bits above the window's lowest are summed from `plane` in one
/// pass; the lowest is derived from the window's own sums `(w, a)`, since
/// the window value is `Σ_b 2^{b−l}·bit_b` and so `r_l = w − Σ_{b>l}
/// 2^{b−l}·r_b` for the signed and the absolute sums alike. One noise
/// draw per bit, in order.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn recover_window(
    cfg: &RaellaConfig,
    noise: &NoiseModel,
    plane: &[u16],
    levels: &[i16],
    (mut w, mut a): (i64, i64),
    w_shift: u32,
    window: Slice,
    stats: &mut RunStats,
    rng: &mut NoiseRng,
) -> i64 {
    let sums = match window.width() {
        4 => upper_bit_sums::<3>(plane, levels, window.l),
        2 => upper_bit_sums::<1>(plane, levels, window.l),
        _ => unreachable!("speculative windows are 4b or 2b"),
    };
    let mut total = 0i64;
    for b in (window.l..=window.h).rev() {
        let (wb, ab) = if b == window.l {
            (w, a)
        } else {
            sums[(b - window.l - 1) as usize]
        };
        w -= wb << (b - window.l);
        a -= ab << (b - window.l);
        total += recovery_convert(cfg, noise.read(wb, ab, rng), stats) << (w_shift + b);
    }
    total
}

/// Counts cycles, DAC pulses, row activations and device charge for one
/// crossbar row-group processing one input plane, from the group's
/// compacted rows (`row0`: the group's first layer row): a row's DAC
/// pulses are its charge mass (every cycle's input value), its device
/// charge that mass times its per-row level magnitudes `abs_rows`, and
/// zero rows contribute nothing.
fn count_crossbar_events(
    cycles: u64,
    entries: &[Entry],
    row0: usize,
    abs_rows: &[u64],
    crossbars: u64,
    stats: &mut RunStats,
) {
    let (mut pulses, mut active, mut charge) = (0u64, 0u64, 0u64);
    for e in entries {
        pulses += u64::from(e.mass);
        active += u64::from(e.active);
        charge += u64::from(e.mass) * abs_rows[e.row as usize - row0];
    }
    stats.events.cycles += cycles;
    stats.events.dac_pulses += pulses * crossbars;
    stats.events.row_activations += active * crossbars;
    stats.events.device_charge += charge;
}

/// The ideal-device conversion pass over one (weight slice, window) of a
/// panel: clamps every lane's window sum to the ADC rails `lo..=hi`,
/// shift-adds it into the lane's total and returns the lanes whose
/// conversion hit a rail, one bit per lane.
#[inline(always)]
fn convert_lanes(sums: &[i32], (lo, hi): (i32, i32), shift: u32, totals: &mut [i64]) -> u64 {
    let mut rails = 0u64;
    for (i, (t, &w)) in totals.iter_mut().zip(sums).enumerate() {
        let out = w.clamp(lo, hi);
        *t += i64::from(out) << shift;
        rails |= u64::from(out == lo || out == hi) << i;
    }
    rails
}

/// Runs a batch of input vectors through a compiled layer, serially, on a
/// device aged `base_age` served vectors since its last programming.
///
/// Input layout matches
/// [`MatrixLayer::reference_outputs`](raella_nn::matrix::MatrixLayer::reference_outputs);
/// the output has `filters` values per vector. Vector `i` draws noise
/// from substreams keyed by `(noise_seed, first_vector + i)` and runs at
/// device age `base_age + first_vector + i`, so a batch split at any
/// point and resumed with the same indices reproduces the whole batch
/// exactly, and engines that stream several batches get fresh noise per
/// batch by advancing `first_vector`. Age 0 is bit-identical to an un-aged device.
///
/// # Panics
///
/// Panics if `inputs.len()` is not a multiple of the layer's `filter_len`.
pub fn run_batch_at_age(
    layer: &CompiledLayer,
    inputs: &[Act],
    stats: &mut RunStats,
    noise_seed: u64,
    first_vector: u64,
    base_age: u64,
) -> Vec<u8> {
    run_batch_blocks(layer, inputs, stats, noise_seed, first_vector, base_age, 1)
}

/// [`run_batch_at_age`] with vectors fanned across worker threads
/// (`RAELLA_THREADS` pins the count).
///
/// Bit-identical to the serial path — outputs *and* statistics — at any
/// thread count, noisy or not and at any age: a vector's noise streams and
/// drift epoch depend only on `(noise_seed, vector index, base_age)`, never
/// on which worker runs it, and [`RunStats::merge`] is commutative. This
/// is the path of [`CompiledLayer::check_fidelity_at_age`].
///
/// # Panics
///
/// Panics if `inputs.len()` is not a multiple of the layer's `filter_len`.
pub fn run_batch_parallel_at_age(
    layer: &CompiledLayer,
    inputs: &[Act],
    stats: &mut RunStats,
    noise_seed: u64,
    first_vector: u64,
    base_age: u64,
) -> Vec<u8> {
    let threads = worker_count(batch_vectors(layer, inputs));
    run_batch_blocks(
        layer,
        inputs,
        stats,
        noise_seed,
        first_vector,
        base_age,
        threads,
    )
}

/// Row-range batch entry point for tile-sharded execution: accumulates the
/// partial sums of the row groups in `groups` for every vector of `inputs`
/// into `acc` (`n_vectors × filters` signed accumulators, overwritten
/// here), merging the range's crossbar statistics into `stats`. Vector
/// indices and device ages follow [`run_batch_at_age`].
///
/// Summing every range of a partition's `acc` buffers elementwise (the
/// inter-tile accumulator reduction — exact `i64` addition) and calling
/// [`finalize_vector`] per vector reproduces [`run_batch_at_age`] bit for
/// bit, outputs and merged statistics alike, for *any* partition of
/// `0..group_count` and at any age — noise substreams are keyed per
/// `(vector, group, epoch)`, never by read order.
///
/// # Panics
///
/// Panics if `inputs.len()` is not a multiple of the layer's `filter_len`,
/// if `acc.len()` is not `n_vectors × filters`, or if `groups` is out of
/// bounds.
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
    let filters = layer.filters();
    assert_eq!(
        acc.len(),
        batch_vectors(layer, inputs) * filters,
        "accumulator size mismatch"
    );
    let local = run_vectors(
        layer,
        inputs,
        groups,
        noise_seed,
        first_vector,
        base_age,
        |i, _, partial| {
            acc[i * filters..(i + 1) * filters].copy_from_slice(partial);
            RunStats::default()
        },
    );
    stats.merge(&local);
}

/// Whole-layer batch execution over `threads` workers, the calling thread
/// among them, that claim contiguous vector chunks: each chunk runs every
/// row group of its vectors and finalizes them into its region of the
/// output.
fn run_batch_blocks(
    layer: &CompiledLayer,
    inputs: &[Act],
    stats: &mut RunStats,
    noise_seed: u64,
    first_vector: u64,
    base_age: u64,
    threads: usize,
) -> Vec<u8> {
    let n_vectors = batch_vectors(layer, inputs);
    let (filters, filter_len) = (layer.filters(), layer.filter_len());
    let mut out = vec![0u8; n_vectors * filters];
    let locals = run_blocks(&mut out, n_vectors, filters, threads, |first, n, block| {
        run_vectors(
            layer,
            &inputs[first * filter_len..(first + n) * filter_len],
            0..layer.group_count(),
            noise_seed,
            first_vector + first as u64,
            base_age,
            |i, input, acc| {
                finalize_vector(
                    layer,
                    input,
                    acc,
                    &mut block[i * filters..(i + 1) * filters],
                )
            },
        )
    });
    for local in &locals {
        stats.merge(local);
    }
    out
}

/// The per-vector loop every batch entry point shares: runs each vector
/// `i` of `inputs` (global index `first_vector + i`) over the row groups
/// in `groups` through one reused [`VectorScratch`], then hands `finish`
/// the vector's position in the batch, its input and its accumulators.
/// Returns the range statistics merged with every `finish` delta. Runs on
/// AVX2 when the CPU has it (see [`with_best_isa`]).
fn run_vectors(
    layer: &CompiledLayer,
    inputs: &[Act],
    groups: std::ops::Range<usize>,
    noise_seed: u64,
    first_vector: u64,
    base_age: u64,
    mut finish: impl FnMut(usize, &[Act], &[i64]) -> RunStats,
) -> RunStats {
    with_best_isa(
        #[inline(always)]
        || {
            let mut scratch = VectorScratch::for_layer(layer);
            let mut stats = RunStats::default();
            for (i, input) in inputs.chunks_exact(layer.filter_len()).enumerate() {
                scratch.acc.fill(0);
                stats.merge(&vector_groups(
                    layer,
                    input,
                    groups.clone(),
                    &mut scratch,
                    noise_seed,
                    first_vector + i as u64,
                    base_age,
                ));
                stats.merge(&finish(i, input, &scratch.acc));
            }
            stats
        },
    )
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

/// The row-range kernel behind every batch entry point and tile-sharded
/// execution: accumulates the partial sums of the crossbar row groups in
/// `groups` for one input vector into `scratch.acc` (`+=` per filter — the
/// caller zeroes the accumulators) and returns the range's statistics
/// delta (crossbar cycles, DAC pulses, ADC converts, speculation outcomes,
/// device charge — everything attributable to these row groups).
///
/// All working memory lives in `scratch` (reused across calls); nothing
/// else is written, so calls are independent and may run on any thread in
/// any order. Per-vector bookkeeping (requantization, the `vectors`/`macs`
/// counters) lives in [`finalize_vector`], which runs once per vector
/// after every range's accumulators are reduced.
///
/// The vector runs on a device aged `base_age + vector_index` served
/// vectors: the drift epoch is `lifetime.drift_epoch(base_age +
/// vector_index)`, the effective noise level compounds the static model
/// with the epoch's relaxation sigma, and each row group draws noise from
/// its own `(noise_seed, vector_index, group, epoch)` substream
/// ([`NoiseRng::for_substream_aged`]). Epoch 0 — in particular any age
/// under a non-drifting lifetime — is bit-identical to an un-aged device.
/// Results stay a pure function of `(seed, vector index, group, age)`, so
/// disjoint ranges may run on different threads (or simulated tiles) in
/// any order and still reproduce the monolithic run bit for bit.
///
/// Runs on AVX2 when the CPU has it (see the module's *Instruction sets*
/// section); the result is the same either way.
///
/// # Panics
///
/// Panics if `input.len() != layer.filter_len()` or `groups` exceeds
/// [`CompiledLayer::group_count`].
pub fn run_vector_groups_at_age(
    layer: &CompiledLayer,
    input: &[Act],
    groups: std::ops::Range<usize>,
    scratch: &mut VectorScratch,
    noise_seed: u64,
    vector_index: u64,
    base_age: u64,
) -> RunStats {
    with_best_isa(
        #[inline(always)]
        || {
            vector_groups(
                layer,
                input,
                groups,
                scratch,
                noise_seed,
                vector_index,
                base_age,
            )
        },
    )
}

/// The portable body of [`run_vector_groups_at_age`], inlined into each
/// instruction-set instantiation.
#[inline(always)]
fn vector_groups(
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
    // Per-slice shifts were resolved at compile time — nothing is
    // re-derived per vector.
    let shifts = layer.slice_shifts();
    let num_slices = shifts.len();
    let noisy = !noise.is_ideal();
    let windows = match cfg.input_mode {
        InputMode::Speculative => SPEC_WINDOWS.len(),
        InputMode::BitSerial => INPUT_BITS,
    };
    let cycles = cfg.cycles_per_psum_set();
    // The ADC's rails, resolved once: a conversion clamps to them, and an
    // output on either one is a saturation (`AdcSpec::saturated`). The
    // ideal pass clamps the `i32` window sums themselves; `AdcSpec::new`
    // caps ADCs at 16 bits, so narrowing the rails to `i32` is exact.
    let (adc_min, adc_max) = (cfg.adc.min(), cfg.adc.max());
    let narrow = |rail: i64| rail.clamp(i32::MIN.into(), i32::MAX.into()) as i32;
    let rails = (narrow(adc_min), narrow(adc_max));
    let mut bit_sums: BitSums = [[0; PANEL_WIDTH]; RECOVERY_BITS.len()];

    for gi in groups.clone() {
        debug_assert_uniform_geometry(layer, gi);
    }

    for &sign in signs {
        scratch.load_plane(input, sign);
        scratch.compact(cfg.input_mode);
        let Split {
            plane,
            entries,
            acc,
            rngs,
            wsum,
            asum,
        } = scratch.split();
        for (k, gi) in groups.clone().enumerate() {
            let rng = &mut rngs[k];
            let panel = &layer.panels()[gi];
            let range = layer.group_row_range(gi);
            // The group's nonzero rows: a subrange of the row-sorted
            // entries.
            let lo = entries.partition_point(|e| (e.row as usize) < range.start);
            let hi = lo + entries[lo..].partition_point(|e| (e.row as usize) < range.end);
            let gentries = &entries[lo..hi];
            // Cycle/DAC/row event counting is per crossbar (shared across
            // the columns it holds), not per column; device charge covers
            // every column (all cycles drive all columns, including
            // recovery cycles for columns whose speculation succeeded,
            // §4.3.1).
            count_crossbar_events(
                cycles,
                gentries,
                range.start,
                panel.abs_rows(),
                crossbars_per_group,
                &mut stats,
            );
            let gplane = &plane[range.clone()];
            let gsum: i64 = gplane.iter().map(|&x| i64::from(x)).sum();
            for p in 0..filters.div_ceil(PANEL_WIDTH) {
                let f0 = p * PANEL_WIDTH;
                let bw = (filters - f0).min(PANEL_WIDTH);

                // Phase 1 — accumulation: per weight slice, one fused
                // pass over the group's nonzero rows feeds the whole
                // panel's window sums.
                let used = num_slices * windows * PANEL_WIDTH;
                wsum[..used].fill(0);
                if noisy {
                    asum[..used].fill(0);
                }
                for s in 0..num_slices {
                    let at = s * windows * PANEL_WIDTH;
                    accumulate(
                        cfg.input_mode,
                        noisy,
                        gentries,
                        range.start,
                        panel.block(s, p, bw),
                        bw,
                        &mut wsum[at..at + windows * PANEL_WIDTH],
                        &mut asum[at..at + windows * PANEL_WIDTH],
                    );
                }

                // Phase 2 — conversion. Every column converts every
                // window once; per-column totals start from the center
                // term.
                let converts = (bw * num_slices * windows) as u64;
                stats.events.adc_converts += converts;
                match cfg.input_mode {
                    InputMode::Speculative => stats.spec_attempts += converts,
                    InputMode::BitSerial => stats.bitserial_converts += converts,
                }
                let mut totals = [0i64; PANEL_WIDTH];
                let totals = &mut totals[..bw];
                for (t, &c) in totals.iter_mut().zip(&panel.centers()[f0..f0 + bw]) {
                    *t = i64::from(c) * gsum;
                }
                if noisy {
                    // Filter-major over the panel, replaying the scalar
                    // kernel's per-column ADC order so noise draws (and
                    // recovery re-reads) consume the group's substream in
                    // exactly the reference sequence.
                    for (i, total) in totals.iter_mut().enumerate() {
                        for (s, &w_shift) in shifts.iter().enumerate() {
                            match cfg.input_mode {
                                InputMode::Speculative => {
                                    for (j, window) in SPEC_WINDOWS.iter().enumerate() {
                                        let idx = (s * windows + j) * PANEL_WIDTH + i;
                                        let (w, a) = (wsum[idx].into(), asum[idx].into());
                                        let out = noise.read(w, a, rng).clamp(adc_min, adc_max);
                                        if out == adc_min || out == adc_max {
                                            // Speculation failed: recover
                                            // with 1b slices of this window
                                            // (rare, so the re-read is per
                                            // column).
                                            stats.spec_failures += 1;
                                            *total += recover_window(
                                                cfg,
                                                &noise,
                                                gplane,
                                                &layer.groups()[f0 + i][gi].levels[s],
                                                (w, a),
                                                w_shift,
                                                *window,
                                                &mut stats,
                                                rng,
                                            );
                                        } else {
                                            *total += out << (w_shift + window.shift());
                                        }
                                    }
                                }
                                InputMode::BitSerial => {
                                    for b in (0..INPUT_BITS as u32).rev() {
                                        let idx =
                                            (s * windows + (7 - b) as usize) * PANEL_WIDTH + i;
                                        let (w, a) = (wsum[idx].into(), asum[idx].into());
                                        let out = noise.read(w, a, rng).clamp(adc_min, adc_max);
                                        if out == adc_min || out == adc_max {
                                            stats.bitserial_saturations += 1;
                                        }
                                        *total += out << (w_shift + b);
                                    }
                                }
                            }
                        }
                    }
                } else {
                    // Ideal device: reads draw nothing and every counter
                    // is a sum, so the panel converts lane-wide per
                    // (slice, window) and then recovers only the lanes
                    // that hit a rail.
                    for (s, &w_shift) in shifts.iter().enumerate() {
                        match cfg.input_mode {
                            InputMode::Speculative => {
                                let mut failed = [0u64; SPEC_WINDOWS.len()];
                                for (j, window) in SPEC_WINDOWS.iter().enumerate() {
                                    let at = (s * windows + j) * PANEL_WIDTH;
                                    let shift = w_shift + window.shift();
                                    failed[j] =
                                        convert_lanes(&wsum[at..at + bw], rails, shift, totals);
                                }
                                if failed == [0; SPEC_WINDOWS.len()] {
                                    continue;
                                }
                                // Speculation failed: one pass over the
                                // rows sums every recovery bit of the
                                // slice, and each failed lane swaps its
                                // rail for a 1b-slice recovery.
                                recovery_bit_sums(
                                    gentries,
                                    range.start,
                                    panel.block(s, p, bw),
                                    bw,
                                    &mut bit_sums,
                                );
                                let mut bits = &bit_sums[..];
                                for (j, window) in SPEC_WINDOWS.iter().enumerate() {
                                    let (own, rest) = bits.split_at(window.width() as usize - 1);
                                    bits = rest;
                                    let lanes = u64::from(failed[j].count_ones());
                                    let reads = lanes * u64::from(window.width());
                                    stats.spec_failures += lanes;
                                    stats.events.adc_converts += reads;
                                    stats.recovery_converts += reads;
                                    let at = (s * windows + j) * PANEL_WIDTH;
                                    stats.recovery_saturations += recover_lanes(
                                        failed[j],
                                        &wsum[at..at + bw],
                                        own,
                                        *window,
                                        w_shift,
                                        rails,
                                        totals,
                                    );
                                }
                            }
                            InputMode::BitSerial => {
                                for b in (0..INPUT_BITS as u32).rev() {
                                    let at = (s * windows + (7 - b) as usize) * PANEL_WIDTH;
                                    let sums = &wsum[at..at + bw];
                                    let saturated = convert_lanes(sums, rails, w_shift + b, totals);
                                    stats.bitserial_saturations +=
                                        u64::from(saturated.count_ones());
                                }
                            }
                        }
                    }
                }
                for (a, &t) in acc[f0..f0 + bw].iter_mut().zip(totals.iter()) {
                    *a += sign * t;
                }
            }
        }
    }
    stats
}

/// The scalar kernel, retained as the bit-exactness oracle for
/// [`run_vector_groups_at_age`], applying the identical
/// epoch/noise/stream derivation column by column.
///
/// Slices each sign plane into dense speculative and bit planes of its
/// own and processes one column (filter × weight slice) at a time,
/// re-scanning every row per column in `i32`/`i64` arithmetic and
/// re-reading every recovery bit, as the engine did before panel
/// blocking. `crates/core/tests/panel_oracle.rs` pins the panel kernel
/// against this function — outputs *and* full statistics, ideal and
/// noisy, both input modes, at any age — so any panel miscount or
/// reordered noise draw is caught against the original code path. Not
/// used on the hot path.
///
/// # Panics
///
/// Panics under the same conditions as [`run_vector_groups_at_age`].
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
        let dense = DensePlanes::slice(&scratch.plane);
        let plane = &scratch.plane;
        for gi in groups.clone() {
            let range = layer.group_row_range(gi);
            count_crossbar_events_scanning(cfg, &dense, range, crossbars_per_group, &mut stats);
        }
        for (f, acc_f) in scratch.acc.iter_mut().enumerate() {
            for (k, g) in layer.groups()[f][groups.clone()].iter().enumerate() {
                let rng = &mut scratch.rngs[k];
                let range = g.row_start..g.row_start + g.rows;
                let gsum: i64 = plane[range.clone()].iter().map(|&x| i64::from(x)).sum();
                let mut total = i64::from(g.center) * gsum;
                for (s, slice) in weight_slices.iter().enumerate() {
                    let levels = &g.levels[s];
                    total += match cfg.input_mode {
                        InputMode::Speculative => run_column_speculative(
                            cfg,
                            &noise,
                            &dense,
                            range.clone(),
                            levels,
                            slice.shift(),
                            &mut stats,
                            rng,
                        ),
                        InputMode::BitSerial => run_column_bitserial(
                            cfg,
                            &noise,
                            &dense,
                            range.clone(),
                            levels,
                            slice.shift(),
                            &mut stats,
                            rng,
                        ),
                    };
                    stats.events.device_charge += match cfg.input_mode {
                        InputMode::Speculative => {
                            device_charge(&dense.spec_mass[range.clone()], levels)
                                + device_charge(&dense.bit_mass[range.clone()], levels)
                        }
                        InputMode::BitSerial => {
                            device_charge(&dense.bit_mass[range.clone()], levels)
                        }
                    };
                }
                *acc_f += sign * total;
            }
        }
    }
    stats
}

/// The scalar oracle's own dense slicing of one sign plane.
struct DensePlanes {
    /// Speculative window planes, MSB window first.
    spec: Vec<Vec<u16>>,
    /// Bit planes, indexed by magnitude bit (0 = LSB).
    bits: Vec<Vec<u16>>,
    /// Per row: Σ over speculative windows of the window value.
    spec_mass: Vec<u16>,
    /// Per row: popcount.
    bit_mass: Vec<u16>,
}

impl DensePlanes {
    fn slice(plane: &[u16]) -> Self {
        let spec: Vec<Vec<u16>> = SPEC_WINDOWS
            .iter()
            .map(|s| {
                let mask = (1 << s.width()) - 1;
                plane.iter().map(|&x| (x >> s.l) & mask).collect()
            })
            .collect();
        let bits = (0..INPUT_BITS as u32)
            .map(|b| plane.iter().map(|&x| (x >> b) & 1).collect())
            .collect();
        let spec_mass = (0..plane.len())
            .map(|r| spec.iter().map(|p| p[r]).sum())
            .collect();
        let bit_mass = plane.iter().map(|&x| x.count_ones() as u16).collect();
        DensePlanes {
            spec,
            bits,
            spec_mass,
            bit_mass,
        }
    }
}

/// One analog column read in the scalar oracle: the signed sum `Σ xs·level`
/// (`N⁺ − N⁻`) and its charge `Σ xs·|level|` (`N⁺ + N⁻`) through the noise
/// model.
fn column_sum(xs: &[u16], levels: &[i16], noise: &NoiseModel, rng: &mut NoiseRng) -> i64 {
    let (mut sum, mut charge) = (0i64, 0i64);
    for (&x, &l) in xs.iter().zip(levels) {
        sum += i64::from(x) * i64::from(l);
        charge += i64::from(x) * i64::from(l.unsigned_abs());
    }
    noise.read(sum, charge, rng)
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

/// The definitional event counter behind [`count_crossbar_events`],
/// rescanning the dense planes per group; used only by
/// [`run_vector_groups_reference_at_age`].
fn count_crossbar_events_scanning(
    cfg: &RaellaConfig,
    dense: &DensePlanes,
    range: std::ops::Range<usize>,
    crossbars: u64,
    stats: &mut RunStats,
) {
    let total = |mass: &[u16]| -> u64 { mass[range.clone()].iter().map(|&m| u64::from(m)).sum() };
    let active = |planes: &[Vec<u16>]| -> u64 {
        planes
            .iter()
            .map(|xs| xs[range.clone()].iter().filter(|&&x| x > 0).count() as u64)
            .sum()
    };
    match cfg.input_mode {
        InputMode::Speculative => {
            stats.events.cycles += cfg.cycles_per_psum_set();
            // Speculation pulses: slice values; recovery pulses: 1-bit.
            stats.events.dac_pulses +=
                (total(&dense.spec_mass) + total(&dense.bit_mass)) * crossbars;
            stats.events.row_activations += (active(&dense.spec) + active(&dense.bits)) * crossbars;
        }
        InputMode::BitSerial => {
            stats.events.cycles += 8;
            stats.events.dac_pulses += total(&dense.bit_mass) * crossbars;
            stats.events.row_activations += active(&dense.bits) * crossbars;
        }
    }
}

/// Speculation + recovery for one column (one weight slice of one filter
/// group). Returns the column's shifted psum contribution.
#[allow(clippy::too_many_arguments)]
fn run_column_speculative(
    cfg: &RaellaConfig,
    noise: &NoiseModel,
    dense: &DensePlanes,
    range: std::ops::Range<usize>,
    levels: &[i16],
    w_shift: u32,
    stats: &mut RunStats,
    rng: &mut NoiseRng,
) -> i64 {
    let mut total = 0i64;
    for (xs, window) in dense.spec.iter().zip(&SPEC_WINDOWS) {
        let sum = column_sum(&xs[range.clone()], levels, noise, rng);
        let out = cfg.adc.convert(sum);
        stats.events.adc_converts += 1;
        stats.spec_attempts += 1;
        if cfg.adc.saturated(out) {
            // Speculation failed: re-read every bit of this window.
            stats.spec_failures += 1;
            for b in (window.l..=window.h).rev() {
                let sum = column_sum(&dense.bits[b as usize][range.clone()], levels, noise, rng);
                total += recovery_convert(cfg, sum, stats) << (w_shift + b);
            }
        } else {
            total += out << (w_shift + window.shift());
        }
    }
    total
}

/// Bit-serial processing for one column: eight 1b input slices, every one
/// converted (the no-speculation baseline, §4.3.2).
#[allow(clippy::too_many_arguments)]
fn run_column_bitserial(
    cfg: &RaellaConfig,
    noise: &NoiseModel,
    dense: &DensePlanes,
    range: std::ops::Range<usize>,
    levels: &[i16],
    w_shift: u32,
    stats: &mut RunStats,
    rng: &mut NoiseRng,
) -> i64 {
    let mut total = 0i64;
    for b in (0..INPUT_BITS as u32).rev() {
        let sum = column_sum(&dense.bits[b as usize][range.clone()], levels, noise, rng);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::SPEC_ENTRIES;
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
        let analog = run_batch_at_age(&compiled, &inputs, &mut stats, 0, 0, 0);
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
            run_batch_at_age(&spec, &inputs, &mut s1, 0, 0, 0),
            run_batch_at_age(&bs, &inputs, &mut s2, 0, 0, 0)
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
        run_batch_at_age(&spec, &inputs, &mut s_spec, 0, 0, 0);
        run_batch_at_age(&bs, &inputs, &mut s_bs, 0, 0, 0);
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
        run_batch_at_age(&compiled, &inputs, &mut stats, 0, 0, 0);
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
        run_batch_at_age(&cu, &unsigned.sample_inputs(2, 1), &mut su, 0, 0, 0);
        run_batch_at_age(&cs, &signed.sample_inputs(2, 1), &mut ss, 0, 0, 0);
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
        let analog = run_batch_at_age(&compiled, &inputs, &mut stats, 0, 0, 0);
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
        let noisy = run_batch_at_age(&compiled, &inputs, &mut stats, 5, 0, 0);
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
        let serial = run_batch_at_age(&compiled, &inputs, &mut s_serial, 3, 0, 0);
        let parallel = run_batch_parallel_at_age(&compiled, &inputs, &mut s_par, 3, 0, 0);
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
        let at0 = run_batch_at_age(&compiled, &inputs, &mut s0, 7, 0, 0);
        let at4 = run_batch_at_age(&compiled, &inputs, &mut s1, 7, 4, 0);
        assert_ne!(at0, at4, "different stream offsets must differ under noise");
        // And the split [0..2)+[2..4) equals the whole [0..4).
        let mut sa = RunStats::default();
        let half = inputs.len() / 2;
        let mut first = run_batch_at_age(&compiled, &inputs[..half], &mut sa, 7, 0, 0);
        first.extend(run_batch_at_age(
            &compiled,
            &inputs[half..],
            &mut sa,
            7,
            2,
            0,
        ));
        assert_eq!(first, at0);
        assert_eq!(sa, s0);
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

    /// Both instantiations of the panel kernel must agree with the
    /// retained scalar kernel on accumulators *and* full statistics: the
    /// portable body, called directly, and the dispatched entry point,
    /// which runs the AVX2 wrapper when the CPU has it. The sweep covers
    /// ideal and noisy devices, both input modes, a 3b ADC (speculation
    /// fails on most windows) and the 7b default, 16/64/70 filters (70: a
    /// full 64-wide panel plus a ragged 6-wide tail), 512-row groups, and
    /// full and partial group ranges.
    #[test]
    fn panel_kernel_matches_reference_kernel() {
        for filters in [16, 64, 70] {
            let layer = SynthLayer::linear(1100, filters, 51 + filters as u64).build();
            let inputs = layer.sample_inputs(2, 19);
            for noise in [0.0, 0.07] {
                for bitserial in [false, true] {
                    for adc_bits in [3, 7] {
                        let mut cfg = RaellaConfig::default().with_noise(noise);
                        cfg.adc = AdcSpec::new(adc_bits, true);
                        if bitserial {
                            cfg = cfg.without_speculation();
                        }
                        let compiled = CompiledLayer::with_slicing(
                            &layer,
                            Slicing::raella_default_weights(),
                            &cfg,
                        )
                        .unwrap();
                        assert_eq!(compiled.group_row_range(0).len(), 512);
                        for range in [0..compiled.group_count(), 1..2] {
                            for (v, input) in inputs.chunks(compiled.filter_len()).enumerate() {
                                let case = format!(
                                    "filters {filters} noise {noise} bitserial {bitserial} \
                                     adc {adc_bits}b range {range:?} vector {v}"
                                );
                                let run = |kernel: Kernel| {
                                    let mut scratch = VectorScratch::for_layer(&compiled);
                                    let stats = kernel(
                                        &compiled,
                                        input,
                                        range.clone(),
                                        &mut scratch,
                                        9,
                                        v as u64,
                                        0,
                                    );
                                    (scratch.acc, stats)
                                };
                                let reference = run(run_vector_groups_reference_at_age);
                                assert_eq!(run(vector_groups), reference, "portable: {case}");
                                assert_eq!(
                                    run(run_vector_groups_at_age),
                                    reference,
                                    "dispatched: {case}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// The ideal device's lane-wide recovery pass must equal the dense
    /// per-lane definition the noisy path keeps ([`upper_bit_sums`]) for
    /// every recovery bit, MSB first (7, 6, 5 of the 4b window, 3 and 1 of
    /// the 2b windows). Covers panel widths with partial 16-lane chunks
    /// (6, 40), ±31 levels under all-255 inputs (each bit sum at the
    /// 16-bit bound of a full block), and groups of fewer and of more
    /// than [`BIT_BLOCK`] nonzero rows (all-255 inputs on 2,148 rows span
    /// three blocks).
    #[test]
    fn recovery_bit_sums_match_the_dense_per_lane_definition() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let row0 = 3;
        for rows in [150, 2 * BIT_BLOCK + 100] {
            for bw in [6, 16, 40, 64] {
                for extreme in [false, true] {
                    let plane: Vec<u16> = (0..rows)
                        .map(|_| match (extreme, next(5)) {
                            (true, _) => 255,
                            (false, 0 | 1) => 0,
                            (false, _) => next(256) as u16,
                        })
                        .collect();
                    let data: Vec<i16> = (0..rows * bw)
                        .map(|i| match extreme {
                            true if i % bw % 2 == 0 => 31,
                            true => -31,
                            false => next(63) as i16 - 31,
                        })
                        .collect();
                    let entries: Vec<Entry> = (0..rows)
                        .filter(|&r| plane[r] != 0)
                        .map(|r| Entry {
                            row: (row0 + r) as u32,
                            ..SPEC_ENTRIES[usize::from(plane[r])]
                        })
                        .collect();
                    assert_eq!(entries.len() > BIT_BLOCK, rows > BIT_BLOCK);
                    let mut sums: BitSums = [[i32::MAX; PANEL_WIDTH]; RECOVERY_BITS.len()];
                    recovery_bit_sums(&entries, row0, &data, bw, &mut sums);
                    for lane in 0..bw {
                        let column: Vec<i16> = (0..rows).map(|r| data[r * bw + lane]).collect();
                        let (upper4, upper3, upper1) = (
                            upper_bit_sums::<3>(&plane, &column, 4),
                            upper_bit_sums::<1>(&plane, &column, 2),
                            upper_bit_sums::<1>(&plane, &column, 0),
                        );
                        let dense = [upper4[2], upper4[1], upper4[0], upper3[0], upper1[0]];
                        for (k, (bit, &(want, _))) in sums.iter().zip(&dense).enumerate() {
                            assert_eq!(
                                i64::from(bit[lane]),
                                want,
                                "rows {rows} bw {bw} extreme {extreme} lane {lane} bit #{k}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The signature every per-vector kernel shares.
    type Kernel = fn(
        &CompiledLayer,
        &[Act],
        std::ops::Range<usize>,
        &mut VectorScratch,
        u64,
        u64,
        u64,
    ) -> RunStats;

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
        let out_static = run_batch_at_age(&stat, &inputs, &mut s_static, 9, 0, 0);
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
        let _ = run_vector_groups_at_age(&compiled, &input, 0..2, &mut scratch, 0, 0, 0);
    }
}
