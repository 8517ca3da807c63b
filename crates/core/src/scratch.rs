//! Reusable per-vector working memory for the execution engine.
//!
//! The engine's per-vector kernel ([`crate::engine::run_vector`]) is pure:
//! it reads a compiled layer and one input vector, and writes outputs plus
//! a local [`crate::engine::RunStats`] delta. All intermediate state — the
//! sign plane, the speculative and 1b input-slice planes, their mass
//! vectors and prefix sums, and the panel-shaped window accumulators —
//! lives in a [`VectorScratch`] that the caller allocates once and reuses
//! across vectors, so the hot loop performs no heap allocation. Each
//! worker thread owns one scratch.

use raella_nn::matrix::Act;
use raella_xbar::noise::NoiseRng;
use raella_xbar::slicing::{Slice, Slicing};

use crate::compiler::{CompiledLayer, PANEL_WIDTH};

/// Number of 1b input slices (inputs are 8b magnitudes).
pub(crate) const INPUT_BITS: usize = 8;

/// Reusable buffers for one in-flight input vector.
///
/// Sized for one specific compiled layer; see
/// [`VectorScratch::for_layer`]. Reusing a scratch across layers with
/// different shapes re-sizes the buffers on first use of each shape.
#[derive(Debug, Clone)]
pub struct VectorScratch {
    /// The speculative input slicing (4b-2b-2b), resolved once.
    pub(crate) spec_slices: Vec<Slice>,
    /// The current sign plane: `x⁺` or `x⁻` magnitudes per row.
    pub(crate) plane: Vec<u16>,
    /// Speculative slice planes, flat `[slice × row]`.
    pub(crate) spec: Vec<u16>,
    /// 1b slice planes, flat `[bit × row]`, MSB (bit 7) first.
    pub(crate) bits: Vec<u16>,
    /// Per row: Σ over speculative slices of the slice value (charge).
    pub(crate) spec_mass: Vec<u16>,
    /// Per row: popcount (recovery charge/pulses).
    pub(crate) bit_mass: Vec<u16>,
    /// Per row: `spec_mass + bit_mass` — the combined per-cycle-set charge
    /// mass speculative-mode device charge folds against each column.
    pub(crate) mass: Vec<u16>,
    /// Prefix sums over rows (`len + 1` entries, `pre[r+1] − pre[r]` is
    /// row `r`'s value): speculative mass, bit mass, and active
    /// speculative-window counts. Event counting reads any row range as
    /// two lookups instead of rescanning the planes per group.
    pub(crate) spec_mass_pre: Vec<u64>,
    /// Prefix sums of `bit_mass` (also the bit planes' row activations:
    /// bit plane `b` activates row `r` iff bit `b` is set, so the
    /// per-row activation count across all 1b planes *is* the popcount).
    pub(crate) bit_mass_pre: Vec<u64>,
    /// Prefix sums of per-row nonzero speculative-window counts.
    pub(crate) spec_act_pre: Vec<u64>,
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
    /// Panel device-charge accumulators: `[weight slice][lane]`, `u64`.
    pub(crate) dc: Vec<u64>,
    /// Rows per vector this scratch is currently sized for.
    pub(crate) len: usize,
}

impl VectorScratch {
    /// Allocates scratch buffers sized for `layer`.
    pub fn for_layer(layer: &CompiledLayer) -> Self {
        let spec_slices = Slicing::raella_speculative().slices();
        let len = layer.filter_len();
        let num_slices = layer.columns_per_filter();
        VectorScratch {
            plane: vec![0; len],
            spec: vec![0; spec_slices.len() * len],
            bits: vec![0; INPUT_BITS * len],
            spec_mass: vec![0; len],
            bit_mass: vec![0; len],
            mass: vec![0; len],
            spec_mass_pre: vec![0; len + 1],
            bit_mass_pre: vec![0; len + 1],
            spec_act_pre: vec![0; len + 1],
            acc: vec![0; layer.filters()],
            rngs: Vec::new(),
            wsum: vec![0; num_slices * INPUT_BITS * PANEL_WIDTH],
            asum: vec![0; num_slices * INPUT_BITS * PANEL_WIDTH],
            dc: vec![0; num_slices * PANEL_WIDTH],
            len,
            spec_slices,
        }
    }

    /// The per-filter `i64` accumulators as last written by
    /// `run_vector_groups` (or its scalar reference twin) — exposed so
    /// external oracles can compare kernels without going through
    /// requantization.
    pub fn accumulators(&self) -> &[i64] {
        &self.acc
    }

    /// Re-sizes for a different layer shape if needed (no-op when equal).
    pub fn resize_for(&mut self, layer: &CompiledLayer) {
        let len = layer.filter_len();
        if self.len != len {
            self.len = len;
            self.plane.resize(len, 0);
            self.spec.resize(self.spec_slices.len() * len, 0);
            self.bits.resize(INPUT_BITS * len, 0);
            self.spec_mass.resize(len, 0);
            self.bit_mass.resize(len, 0);
            self.mass.resize(len, 0);
            self.spec_mass_pre.resize(len + 1, 0);
            self.bit_mass_pre.resize(len + 1, 0);
            self.spec_act_pre.resize(len + 1, 0);
        }
        if self.acc.len() != layer.filters() {
            self.acc.resize(layer.filters(), 0);
        }
        let panel = layer.columns_per_filter() * INPUT_BITS * PANEL_WIDTH;
        if self.wsum.len() != panel {
            self.wsum.resize(panel, 0);
            self.asum.resize(panel, 0);
            self.dc.resize(panel / INPUT_BITS, 0);
        }
    }

    /// Loads one sign plane of `input` into `plane`: the positive
    /// (`sign > 0`) or negative magnitudes.
    ///
    /// Magnitudes must fit [`INPUT_BITS`] bits: the bit planes, the charge
    /// masses and the engine's 16-bit accumulation bounds all assume it.
    pub(crate) fn load_plane(&mut self, input: &[Act], sign: i64) {
        debug_assert_eq!(input.len(), self.len);
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

    /// Slices the loaded plane into speculative and 1b planes, their mass
    /// vectors, and the row-range prefix sums event counting reads.
    pub(crate) fn slice_plane(&mut self) {
        let len = self.len;
        for (j, s) in self.spec_slices.iter().enumerate() {
            let mask = (1u16 << s.width()) - 1;
            let dst = &mut self.spec[j * len..(j + 1) * len];
            for (d, &x) in dst.iter_mut().zip(&self.plane) {
                *d = (x >> s.l) & mask;
            }
        }
        for b in 0..INPUT_BITS as u32 {
            let dst = &mut self.bits[(7 - b as usize) * len..(8 - b as usize) * len];
            for (d, &x) in dst.iter_mut().zip(&self.plane) {
                *d = (x >> b) & 1;
            }
        }
        let mut spec_running = 0u64;
        let mut bit_running = 0u64;
        let mut act_running = 0u64;
        self.spec_mass_pre[0] = 0;
        self.bit_mass_pre[0] = 0;
        self.spec_act_pre[0] = 0;
        for (r, &x) in self.plane.iter().enumerate() {
            // 4b-2b-2b slices partition the 8 bits, so the per-slice sum
            // equals the sum of disjoint crops; computed directly per row.
            let mut sm = 0u16;
            let mut active = 0u64;
            for s in &self.spec_slices {
                let crop = (x >> s.l) & ((1 << s.width()) - 1);
                sm += crop;
                active += u64::from(crop != 0);
            }
            let bm = x.count_ones() as u16;
            self.spec_mass[r] = sm;
            self.bit_mass[r] = bm;
            self.mass[r] = sm + bm;
            spec_running += u64::from(sm);
            bit_running += u64::from(bm);
            act_running += active;
            self.spec_mass_pre[r + 1] = spec_running;
            self.bit_mass_pre[r + 1] = bit_running;
            self.spec_act_pre[r + 1] = act_running;
        }
    }

    /// Splits the scratch into the kernels' disjoint borrows: the loaded
    /// sign plane and its sliced view stay read-only while the
    /// accumulators, group noise streams and panel buffers advance.
    pub(crate) fn split(&mut self) -> Split<'_> {
        let VectorScratch {
            spec_slices,
            plane,
            spec,
            bits,
            spec_mass,
            bit_mass,
            mass,
            spec_mass_pre,
            bit_mass_pre,
            spec_act_pre,
            acc,
            rngs,
            wsum,
            asum,
            dc,
            len,
        } = self;
        Split {
            plane,
            sliced: SlicedView {
                spec,
                bits,
                spec_mass,
                bit_mass,
                mass,
                spec_mass_pre,
                bit_mass_pre,
                spec_act_pre,
                len: *len,
            },
            spec_slices,
            acc,
            rngs,
            wsum,
            asum,
            dc,
        }
    }

    /// Read-only view of the sliced planes (disjoint from `acc`). The
    /// engine borrows through [`VectorScratch::split`] instead; this helper
    /// serves unit tests.
    #[cfg(test)]
    pub(crate) fn sliced(&self) -> SlicedView<'_> {
        SlicedView {
            spec: &self.spec,
            bits: &self.bits,
            spec_mass: &self.spec_mass,
            bit_mass: &self.bit_mass,
            mass: &self.mass,
            spec_mass_pre: &self.spec_mass_pre,
            bit_mass_pre: &self.bit_mass_pre,
            spec_act_pre: &self.spec_act_pre,
            len: self.len,
        }
    }
}

/// [`VectorScratch`] split into disjoint borrows (see
/// [`VectorScratch::split`]).
pub(crate) struct Split<'a> {
    pub(crate) plane: &'a [u16],
    pub(crate) sliced: SlicedView<'a>,
    pub(crate) spec_slices: &'a [Slice],
    pub(crate) acc: &'a mut [i64],
    pub(crate) rngs: &'a mut [NoiseRng],
    pub(crate) wsum: &'a mut [i32],
    pub(crate) asum: &'a mut [i32],
    pub(crate) dc: &'a mut [u64],
}

/// Borrowed view of one sign plane's sliced inputs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlicedView<'a> {
    pub(crate) spec: &'a [u16],
    pub(crate) bits: &'a [u16],
    pub(crate) spec_mass: &'a [u16],
    pub(crate) bit_mass: &'a [u16],
    pub(crate) mass: &'a [u16],
    pub(crate) spec_mass_pre: &'a [u64],
    pub(crate) bit_mass_pre: &'a [u64],
    pub(crate) spec_act_pre: &'a [u64],
    pub(crate) len: usize,
}

impl<'a> SlicedView<'a> {
    /// Speculative slice plane `j` (0 = the 4b MSB slice).
    pub(crate) fn spec_plane(&self, j: usize) -> &'a [u16] {
        &self.spec[j * self.len..(j + 1) * self.len]
    }

    /// Bit plane for magnitude bit `b` (7 = MSB).
    pub(crate) fn bit_plane(&self, b: u32) -> &'a [u16] {
        let j = 7 - b as usize;
        &self.bits[j * self.len..(j + 1) * self.len]
    }

    /// All 1b planes, MSB first.
    pub(crate) fn bit_planes(&self) -> impl Iterator<Item = &'a [u16]> + '_ {
        self.bits.chunks_exact(self.len)
    }

    /// All speculative planes, MSB slice first.
    pub(crate) fn spec_planes(&self) -> impl Iterator<Item = &'a [u16]> + '_ {
        self.spec.chunks_exact(self.len)
    }
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
    fn slice_plane_matches_definitions() {
        let (mut scratch, len) = scratch_for_small_layer();
        let input: Vec<i16> = (0..len as i16).map(|i| i * 16 + 3).collect();
        scratch.load_plane(&input, 1);
        scratch.slice_plane();
        let view = scratch.sliced();
        for (r, &x) in input.iter().enumerate() {
            let x = x as u16;
            // 4b-2b-2b speculative slices.
            assert_eq!(view.spec_plane(0)[r], (x >> 4) & 0xF);
            assert_eq!(view.spec_plane(1)[r], (x >> 2) & 0x3);
            assert_eq!(view.spec_plane(2)[r], x & 0x3);
            for b in 0..8 {
                assert_eq!(view.bit_plane(b)[r], (x >> b) & 1);
            }
            assert_eq!(
                view.spec_mass[r],
                ((x >> 4) & 0xF) + ((x >> 2) & 0x3) + (x & 0x3)
            );
            assert_eq!(view.bit_mass[r], x.count_ones() as u16);
            assert_eq!(view.mass[r], view.spec_mass[r] + view.bit_mass[r]);
        }
    }

    #[test]
    fn prefix_sums_match_range_rescans() {
        let (mut scratch, len) = scratch_for_small_layer();
        let input: Vec<i16> = (0..len as i16).map(|i| (i * 37) % 256).collect();
        scratch.load_plane(&input, 1);
        scratch.slice_plane();
        let view = scratch.sliced();
        for start in 0..len {
            for end in start..=len {
                let spec: u64 = view.spec_mass[start..end]
                    .iter()
                    .map(|&m| u64::from(m))
                    .sum();
                let bit: u64 = view.bit_mass[start..end]
                    .iter()
                    .map(|&m| u64::from(m))
                    .sum();
                let act: u64 = view
                    .spec_planes()
                    .map(|xs| xs[start..end].iter().filter(|&&x| x > 0).count() as u64)
                    .sum();
                assert_eq!(view.spec_mass_pre[end] - view.spec_mass_pre[start], spec);
                assert_eq!(view.bit_mass_pre[end] - view.bit_mass_pre[start], bit);
                assert_eq!(view.spec_act_pre[end] - view.spec_act_pre[start], act);
                // Bit-plane activations coincide with bit mass: one
                // activation per set bit.
                let bit_act: u64 = view
                    .bit_planes()
                    .map(|xb| xb[start..end].iter().filter(|&&x| x > 0).count() as u64)
                    .sum();
                assert_eq!(bit_act, bit);
            }
        }
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
