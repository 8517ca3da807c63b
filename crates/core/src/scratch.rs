//! Reusable per-vector working memory for the execution engine.
//!
//! The engine's per-vector kernel
//! ([`crate::engine::run_vector_groups_at_age`]) is pure: it reads a
//! compiled layer and one input vector, and writes the vector's
//! accumulators plus a local [`crate::engine::RunStats`] delta. All
//! intermediate state — the sign plane, its compacted nonzero rows, the
//! per-row-group noise streams and the panel-shaped window accumulators —
//! lives in a [`VectorScratch`] that the caller allocates once and reuses
//! across vectors, so the hot loop performs no heap allocation. Each
//! worker thread owns one scratch.

use raella_nn::matrix::Act;
use raella_xbar::noise::NoiseRng;

use crate::compiler::{CompiledLayer, PANEL_WIDTH};
use crate::config::{InputMode, INPUT_BITS, SPEC_WINDOWS};

/// One nonzero row of the loaded sign plane, as the fused panel pass and
/// event counting read it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    /// Layer row index.
    pub(crate) row: u32,
    /// Device-charge mass: Σ of every cycle's input value on this row —
    /// speculative windows plus recovery bits, or bits alone in bit-serial
    /// mode. Also the row's DAC pulses.
    pub(crate) mass: u16,
    /// Cycles that activate this row (nonzero windows plus set bits).
    pub(crate) active: u16,
    /// Input window values, MSB first: the three speculative windows
    /// followed by one `0`/`0xFFFF` mask per [`RECOVERY_BITS`] bit, or the
    /// eight bits in bit-serial mode.
    pub(crate) win: [u16; INPUT_BITS],
}

/// The input bits an ideal-device recovery reads from the compacted rows,
/// MSB first: every speculative window's bits above its lowest (the
/// lowest follows from the window's own sum by linearity). They fill the
/// window slots speculation leaves spare, one mask each.
pub(crate) const RECOVERY_BITS: [u32; INPUT_BITS - SPEC_WINDOWS.len()] = recovery_bits();

const fn recovery_bits() -> [u32; INPUT_BITS - SPEC_WINDOWS.len()] {
    let mut bits = [0; INPUT_BITS - SPEC_WINDOWS.len()];
    let (mut j, mut k) = (0, 0);
    while j < SPEC_WINDOWS.len() {
        let mut b = SPEC_WINDOWS[j].h;
        while b > SPEC_WINDOWS[j].l {
            bits[k] = b;
            k += 1;
            b -= 1;
        }
        j += 1;
    }
    assert!(
        k == bits.len(),
        "recovery bits must fill the spare window slots"
    );
    bits
}

impl Entry {
    /// The row's [`RECOVERY_BITS`] as `0`/`0xFFFF` lane masks
    /// (speculative mode only).
    #[inline(always)]
    pub(crate) fn recovery_masks(&self) -> &[u16; RECOVERY_BITS.len()] {
        self.win[SPEC_WINDOWS.len()..]
            .try_into()
            .expect("recovery masks fill the spare window slots")
    }
}

/// Every 8b magnitude's speculative-mode entry (row 0).
pub(crate) static SPEC_ENTRIES: [Entry; 1 << INPUT_BITS] = entry_table(InputMode::Speculative);
/// Every 8b magnitude's bit-serial-mode entry (row 0).
static BIT_SERIAL_ENTRIES: [Entry; 1 << INPUT_BITS] = entry_table(InputMode::BitSerial);

/// The entry of every input magnitude under `mode`, built at compile time.
const fn entry_table(mode: InputMode) -> [Entry; 1 << INPUT_BITS] {
    let empty = Entry {
        row: 0,
        mass: 0,
        active: 0,
        win: [0; INPUT_BITS],
    };
    let mut table = [empty; 1 << INPUT_BITS];
    let mut x = 0;
    while x < table.len() {
        let e = &mut table[x];
        let v = x as u16;
        let bits = v.count_ones() as u16;
        match mode {
            InputMode::Speculative => {
                let mut j = 0;
                while j < SPEC_WINDOWS.len() {
                    let s = SPEC_WINDOWS[j];
                    e.win[j] = (v >> s.l) & ((1 << (s.h - s.l + 1)) - 1);
                    e.mass += e.win[j];
                    e.active += (e.win[j] != 0) as u16;
                    j += 1;
                }
                let mut k = 0;
                while k < RECOVERY_BITS.len() {
                    e.win[SPEC_WINDOWS.len() + k] = 0u16.wrapping_sub((v >> RECOVERY_BITS[k]) & 1);
                    k += 1;
                }
                e.mass += bits;
                e.active += bits;
            }
            InputMode::BitSerial => {
                let mut j = 0;
                while j < INPUT_BITS {
                    e.win[j] = (v >> (INPUT_BITS - 1 - j)) & 1;
                    j += 1;
                }
                e.mass = bits;
                e.active = bits;
            }
        }
        x += 1;
    }
    table
}

/// Reusable buffers for one in-flight input vector.
///
/// Sized for one specific compiled layer; see
/// [`VectorScratch::for_layer`]. Reusing a scratch across layers with
/// different shapes re-sizes the buffers on first use of each shape.
#[derive(Debug, Clone)]
pub struct VectorScratch {
    /// The current sign plane: `x⁺` or `x⁻` magnitudes per row.
    pub(crate) plane: Vec<u16>,
    /// The plane's nonzero rows in row order; the first `live` are valid
    /// (one spare slot lets compaction write unconditionally).
    pub(crate) entries: Vec<Entry>,
    /// Valid prefix of `entries`.
    pub(crate) live: usize,
    /// Per filter: signed output accumulator.
    pub(crate) acc: Vec<i64>,
    /// Per row-group noise streams for the in-flight vector, reseeded per
    /// vector by the engine (capacity reused across vectors).
    pub(crate) rngs: Vec<NoiseRng>,
    /// Panel window accumulators: `[weight slice][window][lane]` with a
    /// fixed [`PANEL_WIDTH`] lane stride — one `i32` signed window sum per
    /// in-flight panel column.
    pub(crate) wsum: Vec<i32>,
    /// Panel absolute-product accumulators (noise-model charge), same
    /// layout as `wsum`; only written in noisy mode.
    pub(crate) asum: Vec<i32>,
}

impl VectorScratch {
    /// Allocates scratch buffers sized for `layer`.
    pub fn for_layer(layer: &CompiledLayer) -> Self {
        let mut scratch = VectorScratch {
            plane: Vec::new(),
            entries: Vec::new(),
            live: 0,
            acc: Vec::new(),
            rngs: Vec::new(),
            wsum: Vec::new(),
            asum: Vec::new(),
        };
        scratch.resize_for(layer);
        scratch
    }

    /// The per-filter `i64` accumulators as last written by
    /// `run_vector_groups_at_age` (or its scalar reference twin) — exposed so
    /// external oracles can compare kernels without going through
    /// requantization.
    pub fn accumulators(&self) -> &[i64] {
        &self.acc
    }

    /// Re-sizes for a different layer shape if needed (no-op when equal).
    pub fn resize_for(&mut self, layer: &CompiledLayer) {
        let len = layer.filter_len();
        self.plane.resize(len, 0);
        self.entries.resize(len + 1, SPEC_ENTRIES[0]);
        self.acc.resize(layer.filters(), 0);
        let panel = layer.columns_per_filter() * INPUT_BITS * PANEL_WIDTH;
        self.wsum.resize(panel, 0);
        self.asum.resize(panel, 0);
    }

    /// Loads one sign plane of `input` into `plane`: the positive
    /// (`sign > 0`) or negative magnitudes.
    ///
    /// Magnitudes must fit [`INPUT_BITS`] bits: the windows, the charge
    /// masses and the engine's 16-bit accumulation bounds all assume it.
    pub(crate) fn load_plane(&mut self, input: &[Act], sign: i64) {
        debug_assert_eq!(input.len(), self.plane.len());
        debug_assert!(
            input.iter().all(|&x| x.unsigned_abs() < 1 << INPUT_BITS),
            "input magnitudes must fit {INPUT_BITS} bits"
        );
        if sign > 0 {
            for (p, &x) in self.plane.iter_mut().zip(input) {
                *p = x.max(0) as u16;
            }
        } else {
            for (p, &x) in self.plane.iter_mut().zip(input) {
                *p = (-x).max(0) as u16;
            }
        }
    }

    /// Compacts the loaded plane's nonzero rows into `entries`, in one
    /// branch-free pass: every row copies its value's entry from the
    /// mode's table into the next slot, and only a nonzero row advances
    /// past it.
    pub(crate) fn compact(&mut self, mode: InputMode) {
        let table = match mode {
            InputMode::Speculative => &SPEC_ENTRIES,
            InputMode::BitSerial => &BIT_SERIAL_ENTRIES,
        };
        let mut n = 0;
        for (r, &x) in self.plane.iter().enumerate() {
            let e = &mut self.entries[n];
            *e = table[usize::from(x)];
            e.row = r as u32;
            n += usize::from(x != 0);
        }
        self.live = n;
    }

    /// Splits the scratch into the kernels' disjoint borrows: the loaded
    /// sign plane and its entries stay read-only while the accumulators,
    /// group noise streams and panel buffers advance.
    pub(crate) fn split(&mut self) -> Split<'_> {
        Split {
            plane: &self.plane,
            entries: &self.entries[..self.live],
            acc: &mut self.acc,
            rngs: &mut self.rngs,
            wsum: &mut self.wsum,
            asum: &mut self.asum,
        }
    }
}

/// [`VectorScratch`] split into disjoint borrows (see
/// [`VectorScratch::split`]).
pub(crate) struct Split<'a> {
    pub(crate) plane: &'a [u16],
    pub(crate) entries: &'a [Entry],
    pub(crate) acc: &'a mut [i64],
    pub(crate) rngs: &'a mut [NoiseRng],
    pub(crate) wsum: &'a mut [i32],
    pub(crate) asum: &'a mut [i32],
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RaellaConfig;
    use raella_nn::synth::SynthLayer;
    use raella_xbar::slicing::Slicing;

    fn scratch_for_small_layer() -> (VectorScratch, usize) {
        let layer = SynthLayer::linear(16, 3, 5).build();
        let cfg = RaellaConfig {
            crossbar_rows: 64,
            crossbar_cols: 64,
            ..RaellaConfig::default()
        };
        let compiled =
            CompiledLayer::with_slicing(&layer, Slicing::raella_default_weights(), &cfg).unwrap();
        (VectorScratch::for_layer(&compiled), 16)
    }

    #[test]
    fn compact_keeps_nonzero_rows_with_their_windows() {
        let (mut scratch, len) = scratch_for_small_layer();
        // Every third row zero, the rest spanning all window bits.
        let input: Vec<i16> = (0..len as i16)
            .map(|i| if i % 3 == 0 { 0 } else { i * 16 + 3 })
            .collect();
        scratch.load_plane(&input, 1);
        for mode in [InputMode::Speculative, InputMode::BitSerial] {
            scratch.compact(mode);
            let rows: Vec<usize> = (0..len).filter(|&r| input[r] != 0).collect();
            assert_eq!(scratch.live, rows.len());
            for (e, &r) in scratch.entries[..scratch.live].iter().zip(&rows) {
                let x = input[r] as u16;
                let bits = x.count_ones() as u16;
                assert_eq!(e.row as usize, r);
                match mode {
                    InputMode::Speculative => {
                        let win = [(x >> 4) & 0xF, (x >> 2) & 0x3, x & 0x3];
                        assert_eq!(e.win[..3], win);
                        assert_eq!(e.win[3..], recovery_masks(x));
                        assert_eq!(e.mass, win.iter().sum::<u16>() + bits);
                        let nonzero = win.iter().filter(|&&v| v != 0).count() as u16;
                        assert_eq!(e.active, nonzero + bits);
                    }
                    InputMode::BitSerial => {
                        for (j, &v) in e.win.iter().enumerate() {
                            assert_eq!(v, (x >> (7 - j)) & 1);
                        }
                        assert_eq!((e.mass, e.active), (bits, bits));
                    }
                }
            }
        }
        // Every 8b value's recovery masks, bit-serial mode's bit slots
        // untouched by them.
        for x in 0..1u16 << INPUT_BITS {
            let e = &SPEC_ENTRIES[usize::from(x)];
            assert_eq!(e.recovery_masks(), &recovery_masks(x), "value {x}");
            assert_eq!(
                BIT_SERIAL_ENTRIES[usize::from(x)].win[3..],
                [4, 3, 2, 1, 0].map(|b| x >> b & 1)
            );
        }
    }

    /// Bits 7, 6, 5 (4b window), 3 and 1 (2b windows) of `x`, as masks.
    fn recovery_masks(x: u16) -> [u16; 5] {
        [7, 6, 5, 3, 1].map(|b| if x >> b & 1 == 1 { 0xFFFF } else { 0 })
    }

    #[test]
    fn compact_of_a_zero_plane_is_empty() {
        let (mut scratch, len) = scratch_for_small_layer();
        scratch.load_plane(&vec![0; len], 1);
        scratch.compact(InputMode::Speculative);
        assert_eq!(scratch.live, 0);
        assert!(scratch.split().entries.is_empty());
    }

    #[test]
    fn negative_plane_takes_magnitudes() {
        let (mut scratch, len) = scratch_for_small_layer();
        let input: Vec<i16> = (0..len as i16).map(|i| -(i * 3)).collect();
        scratch.load_plane(&input, -1);
        for (r, &x) in input.iter().enumerate() {
            assert_eq!(scratch.plane[r], (-x).max(0) as u16);
        }
        scratch.load_plane(&input, 1);
        assert!(scratch.plane.iter().skip(1).all(|&p| p == 0));
    }
}
