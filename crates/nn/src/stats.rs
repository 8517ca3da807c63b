//! Distribution statistics used by the paper's analysis figures.
//!
//! * Per-bit density (probability that bit *b* of a value is 1) — Fig. 8.
//! * Signed resolution in bits — the y-axis of Fig. 3.
//! * Histograms, percentiles and summary moments for distribution plots.

/// Probability that bit `bit` is set across `values`.
///
/// ```
/// use raella_nn::stats::bit_density;
///
/// // 0b01, 0b10, 0b11: bit 0 set in two of three values.
/// assert!((bit_density(&[1, 2, 3], 0) - 2.0 / 3.0).abs() < 1e-9);
/// ```
pub fn bit_density(values: &[u8], bit: u32) -> f64 {
    assert!(bit < 8, "u8 has bits 0..8, got {bit}");
    if values.is_empty() {
        return 0.0;
    }
    let set = values.iter().filter(|&&v| v >> bit & 1 == 1).count();
    set as f64 / values.len() as f64
}

/// Per-bit densities for all 8 bits, LSB first.
pub fn bit_densities(values: &[u8]) -> [f64; 8] {
    let mut out = [0.0; 8];
    for (b, slot) in out.iter_mut().enumerate() {
        *slot = bit_density(values, b as u32);
    }
    out
}

/// Number of bits needed to represent a signed value in two's complement,
/// including the sign bit. Zero needs 1 bit.
///
/// This is the paper's "column sum resolution": a sum representable in ≤7
/// bits (`[-64, 64)`) is captured with full fidelity by RAELLA's ADC.
///
/// ```
/// use raella_nn::stats::signed_resolution_bits;
///
/// assert_eq!(signed_resolution_bits(0), 1);
/// assert_eq!(signed_resolution_bits(63), 7);
/// assert_eq!(signed_resolution_bits(-64), 7);
/// assert_eq!(signed_resolution_bits(64), 8);
/// assert_eq!(signed_resolution_bits(-65), 8);
/// ```
pub fn signed_resolution_bits(v: i64) -> u32 {
    if v >= 0 {
        64 - (v as u64).leading_zeros() + 1
    } else {
        64 - (!(v as u64)).leading_zeros() + 1
    }
    .max(1)
}

/// Fraction of `values` whose signed resolution is at most `bits`.
pub fn fraction_within_bits(values: &[i64], bits: u32) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let within = values
        .iter()
        .filter(|&&v| signed_resolution_bits(v) <= bits)
        .count();
    within as f64 / values.len() as f64
}

/// Maximum signed resolution over `values` (1 for an empty slice).
pub fn max_resolution_bits(values: &[i64]) -> u32 {
    values
        .iter()
        .map(|&v| signed_resolution_bits(v))
        .max()
        .unwrap_or(1)
}

/// A fixed-width histogram over `i64` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: i64,
    bin_width: u64,
    counts: Vec<u64>,
    /// Samples below `lo` / at-or-above the top edge.
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram covering `[lo, lo + bins·bin_width)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `bin_width == 0`.
    pub fn new(lo: i64, bin_width: u64, bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(bin_width > 0, "bin width must be positive");
        Histogram {
            lo,
            bin_width,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds one sample.
    pub fn add(&mut self, v: i64) {
        if v < self.lo {
            self.underflow += 1;
            return;
        }
        let idx = ((v - self.lo) as u64 / self.bin_width) as usize;
        if idx >= self.counts.len() {
            self.overflow += 1;
        } else {
            self.counts[idx] += 1;
        }
    }

    /// Adds many samples.
    pub fn extend(&mut self, vs: impl IntoIterator<Item = i64>) {
        for v in vs {
            self.add(v);
        }
    }

    /// Bin counts, lowest bin first.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Samples that fell below the histogram range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples that fell at or above the histogram range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total samples observed, including out-of-range ones.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow
    }
}

/// Summary statistics of an integer sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (population form).
    pub std: f64,
    /// Minimum value.
    pub min: i64,
    /// Maximum value.
    pub max: i64,
}

impl Summary {
    /// Computes summary statistics. Returns `None` for an empty sample.
    pub fn of(values: &[i64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let n = values.len() as f64;
        let mean = values.iter().map(|&v| v as f64).sum::<f64>() / n;
        let var = values
            .iter()
            .map(|&v| (v as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        Some(Summary {
            mean,
            std: var.sqrt(),
            min: *values.iter().min().expect("nonempty"),
            max: *values.iter().max().expect("nonempty"),
        })
    }
}

/// `p`-th percentile (0–100) of a sample via nearest-rank on a sorted copy.
///
/// Returns `None` for an empty sample.
///
/// # Panics
///
/// Panics if `p` is not within `0.0..=100.0`.
pub fn percentile(values: &[i64], p: f64) -> Option<i64> {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    Some(sorted[rank])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution_bits_boundaries() {
        // Positive powers of two need one more bit than their exponent + sign.
        assert_eq!(signed_resolution_bits(1), 2);
        assert_eq!(signed_resolution_bits(-1), 1);
        assert_eq!(signed_resolution_bits(127), 8);
        assert_eq!(signed_resolution_bits(128), 9);
        assert_eq!(signed_resolution_bits(-128), 8);
        assert_eq!(signed_resolution_bits(-129), 9);
        assert_eq!(signed_resolution_bits(i64::MAX), 64);
    }

    #[test]
    fn fraction_within_bits_matches_adc_range() {
        // RAELLA's 7b ADC covers [-64, 64).
        let vals = [-64, -1, 0, 63, 64, 100];
        let f = fraction_within_bits(&vals, 7);
        assert!((f - 4.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn bit_density_of_uniform_values_is_half() {
        let values: Vec<u8> = (0..=255).collect();
        for b in 0..8 {
            assert!((bit_density(&values, b) - 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn small_values_have_sparse_high_bits() {
        let values: Vec<u8> = (0..64).collect();
        let d = bit_densities(&values);
        assert_eq!(d[7], 0.0);
        assert_eq!(d[6], 0.0);
        assert!(d[0] > 0.4);
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::new(-10, 5, 4); // [-10, 10)
        h.extend([-11, -10, -6, -5, 0, 4, 9, 10, 42]);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.counts(), &[2, 1, 2, 1]);
        assert_eq!(h.total(), 9);
    }

    #[test]
    fn summary_and_percentile() {
        let vals = [1i64, 2, 3, 4, 5];
        let s = Summary::of(&vals).unwrap();
        assert!((s.mean - 3.0).abs() < 1e-9);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 5);
        assert_eq!(percentile(&vals, 0.0), Some(1));
        assert_eq!(percentile(&vals, 50.0), Some(3));
        assert_eq!(percentile(&vals, 100.0), Some(5));
        assert_eq!(percentile(&[], 50.0), None);
        assert!(Summary::of(&[]).is_none());
    }
}
