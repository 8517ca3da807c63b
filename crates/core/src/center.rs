//! Center+Offset weight encoding (§4.1).
//!
//! A filter's weights `w` are represented as an integer center `φ` plus
//! signed offsets `w − φ`. The center term `φ·ΣI` is computed digitally;
//! offsets are programmed into 2T2R pairs (`w⁺ = max(w−φ,0)` in the positive
//! cell, `w⁻ = max(φ−w,0)` in the negative cell) so positive and negative
//! sliced products cancel in-column and column sums stay near zero.
//!
//! The center is solved per filter with the paper's Eq. (2):
//!
//! ```text
//! φ* = argmin_{φ ∈ 1..=255}  Σᵢ 2^{lᵢ} ( Σ_w D(hᵢ, lᵢ, w − φ) )⁴
//! ```
//!
//! The inner sum is the total signed value of one column of weight slices;
//! the fourth power penalizes strongly unbalanced columns; the `2^{lᵢ}`
//! factor weights misbalance by the bit position it pollutes.

use std::sync::OnceLock;

use raella_xbar::slicing::{crop_signed, Slice, Slicing};

/// Splits a stored-domain weight into `(w⁺, w⁻)` offsets around `center`.
/// Exactly one of the two is nonzero (unless `w == center`).
///
/// ```
/// use raella_core::center::offsets;
///
/// assert_eq!(offsets(140, 128), (12, 0));
/// assert_eq!(offsets(100, 128), (0, 28));
/// assert_eq!(offsets(128, 128), (0, 0));
/// ```
///
/// # Panics
///
/// Panics if `center` is outside `0..=255` (Eq. (2) searches `1..=255`;
/// 0 is allowed so Zero+Offset with a zero-point of 0 also works).
pub fn offsets(w: u8, center: i32) -> (u8, u8) {
    assert!(
        (0..=255).contains(&center),
        "center {center} outside stored-weight domain"
    );
    let d = i32::from(w) - center;
    if d >= 0 {
        (d as u8, 0)
    } else {
        (0, (-d) as u8)
    }
}

/// Eq. (2) cost of choosing `phi` as the center for `weights` under
/// `slicing`. Lower is better.
///
/// # Panics
///
/// Panics if `weights` is empty.
pub fn center_cost(weights: &[u8], slicing: &Slicing, phi: i32) -> f64 {
    assert!(!weights.is_empty(), "empty weight filter");
    let mut occupied = Vec::new();
    for (v, &count) in (0..).zip(&histogram(weights)) {
        if count != 0 {
            occupied.push((v - phi, i64::from(count)));
        }
    }
    let mut cost = 0.0;
    for slice in slicing.slices() {
        let mut column_sum = 0i64;
        for &(offset, count) in &occupied {
            column_sum += count * i64::from(slice.crop(offset));
        }
        cost += f64::from(1u32 << slice.shift()) * (column_sum as f64).powi(4);
    }
    cost
}

/// Solves Eq. (2) for one filter: the center in `1..=255` minimizing the
/// slice-balance cost (smallest φ wins ties, for determinism). Shorthand
/// for [`CenterSolver::new`]`(slicing).solve(weights)`, and panics as
/// [`CenterSolver::solve`] does.
pub fn optimal_center(weights: &[u8], slicing: &Slicing) -> i32 {
    CenterSolver::new(slicing).solve(weights)
}

/// Centers per solve, lane `r` holding φ = 255 − r; lane 255 (φ = 0)
/// only rounds the pass up to whole vectors.
const LANES: usize = 256;

/// Slice `slice`'s `crop(d)` for every offset `d ∈ −255..=255`, at
/// `[d + 255]`. The tables of all 36 slices within bits 7..=0 are built
/// once per process. Offsets of 8b weights have no magnitude bit above 7,
/// so a slice reaching higher crops like its part below bit 8.
///
/// # Panics
///
/// Panics if the slice starts above bit 7, where every crop is 0.
pub(crate) fn crop_table(slice: Slice) -> &'static [i16; 511] {
    static TABLES: OnceLock<Vec<[i16; 511]>> = OnceLock::new();
    assert!(slice.l < 8, "slice {slice:?} crops every offset to 0");
    let tables = TABLES.get_or_init(|| {
        (0..8)
            .flat_map(|h| (0..=h).map(move |l| Slice { h, l }))
            .map(|s| std::array::from_fn(|i| s.crop(i as i32 - 255) as i16))
            .collect()
    });
    let h = slice.h.min(7);
    &tables[(h * (h + 1) / 2 + slice.l) as usize]
}

/// Eq. (2) for every filter under one or several slicings.
///
/// Each slice's column sum derives from two sums over whole low-order
/// parts of the offset: with `T_k(d) = crop(7..=k, d)` (and `T_8 = 0`,
/// since offsets have no magnitude bit above 7),
/// `crop(h..=l, d) = T_l(d) − 2^{h−l+1}·T_{h+1}(d)` exactly. So a solve
/// sums the histogram against at most eight base tables, one per distinct
/// `l` among the slices, however many slicings share them, and derives
/// each slice's sum from two of them in exact `i32` arithmetic.
#[derive(Debug, Clone)]
pub struct CenterSolver {
    /// The base tables the slicings need: `(k, T_k)`.
    bases: Vec<(usize, &'static [i16; 511])>,
    /// Per slicing, its live slices in slice order as
    /// `(l, min(h, 7) + 1, 2^shift)`.
    slicings: Vec<Vec<(usize, usize, f64)>>,
}

impl CenterSolver {
    /// A solver for `slicing` alone.
    pub fn new(slicing: &Slicing) -> Self {
        Self::shared(std::slice::from_ref(slicing))
    }

    /// One solver for every slicing in `slicings`, which share its base
    /// sums. Offsets span −255..=255, so only slices below bit 8 can crop
    /// a nonzero value; the others add an exact 0.0 to every cost and are
    /// skipped.
    pub fn shared(slicings: &[Slicing]) -> Self {
        let slicings: Vec<Vec<(usize, usize, f64)>> = slicings
            .iter()
            .map(|slicing| {
                let live = slicing.slices().into_iter().filter(|s| s.l < 8);
                live.map(|s| {
                    (
                        s.l as usize,
                        s.h.min(7) as usize + 1,
                        f64::from(1u32 << s.l),
                    )
                })
                .collect()
            })
            .collect();
        let mut needed = [false; 8];
        for &(l, _, _) in slicings.iter().flatten() {
            needed[l] = true;
        }
        CenterSolver {
            bases: (0..8)
                .filter(|&k| needed[k])
                .map(|k| (k, crop_table(Slice { h: 7, l: k as u32 })))
                .collect(),
            slicings,
        }
    }

    /// The Eq. (2) center of `weights` under the (first) slicing the
    /// solver was built for; panics as [`CenterSolver::solve_each`] does.
    pub fn solve(&self, weights: &[u8]) -> i32 {
        let mut centers = vec![0; self.slicings.len()];
        self.solve_each(weights, &mut centers);
        i32::from(centers[0])
    }

    /// Writes the Eq. (2) center of `weights` under each of the solver's
    /// slicings into `centers`, in the order they were given. For each
    /// base table, every occupied histogram bin `v` adds
    /// `count · T_k(v − φ)` (`table[v + r]`, `r = 255 − φ`) into one exact
    /// `i32` lane per center, all centers in one contiguous pass; each
    /// slicing's cost per center is then the same `f64` expression over
    /// the same exact column sums, in its own slice order, as
    /// [`center_cost`], so the argmin is bit-identical to a brute-force
    /// scan of it. Runs on AVX2 when the CPU has it.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or longer than 2^23, where `i32` lanes
    /// could overflow, or if `centers` does not hold one center per
    /// slicing.
    pub fn solve_each(&self, weights: &[u8], centers: &mut [u8]) {
        assert!(!weights.is_empty(), "empty weight filter");
        assert!(weights.len() <= 1 << 23, "filter over 2^23 weights");
        assert_eq!(centers.len(), self.slicings.len(), "one center per slicing");
        let hist = histogram(weights);
        // `base[k][r]`: Σ_v count_v · T_k(v − φ) for φ = 255 − r.
        let mut base = [[0i32; LANES]; 9];
        crate::engine::with_best_isa(
            #[inline(always)]
            || {
                for &(k, table) in &self.bases {
                    for (v, &count) in hist.iter().enumerate().filter(|(_, &c)| c != 0) {
                        for (sum, &t) in base[k].iter_mut().zip(&table[v..v + LANES]) {
                            *sum += count as i32 * i32::from(t);
                        }
                    }
                }
                for (slices, center) in self.slicings.iter().zip(centers) {
                    // `costs[r]` is the cost of φ = 255 − r.
                    let mut costs = [0.0f64; LANES];
                    for &(l, above, scale) in slices {
                        let carry = 1 << (above - l);
                        let lanes = base[l].iter().zip(&base[above]);
                        for (cost, (&low, &high)) in costs.iter_mut().zip(lanes) {
                            let sum = low - carry * high;
                            *cost += scale * f64::from(sum).powi(4);
                        }
                    }
                    // Ascending φ is descending lane; a strict `<` keeps
                    // the smallest.
                    let mut best = (1, f64::INFINITY);
                    for (phi, &cost) in (1..=255).zip(costs[..LANES - 1].iter().rev()) {
                        if cost < best.1 {
                            best = (phi, cost);
                        }
                    }
                    *center = best.0;
                }
            },
        )
    }
}

fn histogram(weights: &[u8]) -> [u32; 256] {
    let mut hist = [0u32; 256];
    for &w in weights {
        hist[usize::from(w)] += 1;
    }
    hist
}

/// Mean signed slice value per column under a given center — the
/// per-column bias Fig. 5 plots (zero is ideal).
pub fn column_biases(weights: &[u8], slicing: &Slicing, phi: i32) -> Vec<f64> {
    slicing
        .slices()
        .iter()
        .map(|s| {
            let sum: i64 = weights
                .iter()
                .map(|&w| i64::from(crop_signed(i32::from(w) - phi, s.h, s.l)))
                .sum();
            sum as f64 / weights.len() as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use raella_nn::rng::SynthRng;

    fn gaussian_filter(mean: f64, std: f64, n: usize, seed: u64) -> Vec<u8> {
        let mut rng = SynthRng::new(seed);
        (0..n)
            .map(|_| (128.0 + rng.normal(mean, std)).round().clamp(0.0, 255.0) as u8)
            .collect()
    }

    #[test]
    fn offsets_identity() {
        for w in 0..=255u8 {
            for phi in [1, 64, 128, 200, 255] {
                let (p, n) = offsets(w, phi);
                assert_eq!(i32::from(p) - i32::from(n), i32::from(w) - phi);
                assert!(p == 0 || n == 0, "one offset must be zero");
            }
        }
    }

    #[test]
    fn optimal_center_lands_near_distribution_center() {
        let slicing = Slicing::raella_default_weights();
        let ws = gaussian_filter(0.0, 30.0, 512, 1);
        let phi = optimal_center(&ws, &slicing);
        assert!((118..=138).contains(&phi), "phi {phi}");
    }

    #[test]
    fn optimal_center_tracks_skewed_filters() {
        let slicing = Slicing::raella_default_weights();
        // Mostly-negative filter (mean −30 below the zero point).
        let ws = gaussian_filter(-30.0, 25.0, 512, 2);
        let phi = optimal_center(&ws, &slicing);
        assert!(phi < 115, "phi {phi} should shift below 128");
        // Mostly-positive filter.
        let ws = gaussian_filter(35.0, 25.0, 512, 3);
        let phi = optimal_center(&ws, &slicing);
        assert!(phi > 140, "phi {phi} should shift above 128");
    }

    #[test]
    fn optimal_center_beats_zero_offset_on_cost() {
        let slicing = Slicing::raella_default_weights();
        let ws = gaussian_filter(-30.0, 25.0, 512, 4);
        let best = optimal_center(&ws, &slicing);
        assert!(
            center_cost(&ws, &slicing, best) <= center_cost(&ws, &slicing, 128),
            "optimum cannot be worse than the zero point"
        );
    }

    #[test]
    fn center_reduces_column_bias_magnitude() {
        let slicing = Slicing::raella_default_weights();
        let ws = gaussian_filter(-30.0, 25.0, 512, 5);
        let phi = optimal_center(&ws, &slicing);
        let biased: f64 = column_biases(&ws, &slicing, 128)
            .iter()
            .map(|b| b.abs())
            .sum();
        let balanced: f64 = column_biases(&ws, &slicing, phi)
            .iter()
            .map(|b| b.abs())
            .sum();
        assert!(
            balanced < biased,
            "center {phi} bias {balanced} !< zero-offset bias {biased}"
        );
    }

    #[test]
    fn cost_is_deterministic_and_tie_stable() {
        let slicing = Slicing::raella_default_weights();
        let ws = gaussian_filter(0.0, 20.0, 64, 6);
        assert_eq!(optimal_center(&ws, &slicing), optimal_center(&ws, &slicing));
    }

    #[test]
    fn degenerate_constant_filter_centers_on_value() {
        let slicing = Slicing::raella_default_weights();
        let ws = vec![200u8; 64];
        let phi = optimal_center(&ws, &slicing);
        assert_eq!(phi, 200, "all offsets zero is the global optimum");
        assert_eq!(center_cost(&ws, &slicing, phi), 0.0);
    }

    #[test]
    fn crop_tables_match_crop_for_every_slice() {
        for h in 0..12 {
            for l in 0..=h.min(7) {
                let slice = Slice { h, l };
                let table = crop_table(slice);
                for d in -255..=255 {
                    assert_eq!(
                        i32::from(table[(d + 255) as usize]),
                        slice.crop(d),
                        "{slice:?} {d}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty weight filter")]
    fn empty_filter_panics() {
        optimal_center(&[], &Slicing::raella_default_weights());
    }
}
