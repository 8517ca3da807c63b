//! Design-choice ablations the paper discusses but does not adopt.
//!
//! * **Per-column centers** (§4.1.3): ideally each crossbar column would
//!   zero its own average slice value, but centers are integers — shifting
//!   a column whose mean is 0.4 by −1 worsens it to −0.6. RAELLA instead
//!   shifts full-precision weights *before* slicing (one per-filter center,
//!   which reshapes every slice's distribution). [`column_bias_trim`]
//!   implements the per-column alternative so the tradeoff can be measured.
//! * **LSB-dropping ADC** (footnote 4): Sum-Fidelity-Limited designs read
//!   wide column sums with a coarse step (`round(sum / 2^d)`), which never
//!   saturates but loses fidelity on *every* conversion. [`SteppedAdc`]
//!   implements that policy so it can be compared against RAELLA's
//!   LSB-capture + rare-saturation policy on the same column sums.

use serde::{Deserialize, Serialize};

use raella_xbar::adc::AdcSpec;

/// Result of applying an integer per-column bias trim on top of per-filter
/// centers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnTrim {
    /// The integer bias removed from each level of the column.
    pub bias: i32,
    /// Column mean before the trim.
    pub mean_before: f64,
    /// Column mean after the trim.
    pub mean_after: f64,
}

/// Applies the §4.1.3 per-column alternative: subtract the rounded mean
/// level from every level in the column (the subtracted mass would be
/// restored digitally as `bias · Σ input-slice values`).
///
/// Returns the trimmed levels and the trim record. Integer precision means
/// the result can be *worse* than the untrimmed column whenever
/// `|mean| < 0.5` — exactly the paper's objection.
pub fn column_bias_trim(levels: &[i16]) -> (Vec<i16>, ColumnTrim) {
    assert!(!levels.is_empty(), "empty column");
    let mean = levels.iter().map(|&l| f64::from(l)).sum::<f64>() / levels.len() as f64;
    let bias = mean.round() as i32;
    let trimmed: Vec<i16> = levels.iter().map(|&l| l - bias as i16).collect();
    let mean_after = trimmed.iter().map(|&l| f64::from(l)).sum::<f64>() / trimmed.len() as f64;
    (
        trimmed,
        ColumnTrim {
            bias,
            mean_before: mean,
            mean_after,
        },
    )
}

/// A Sum-Fidelity-Limited ADC: drops the `shift` least significant bits so
/// `bits + shift` magnitude bits fit the converter without saturating.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SteppedAdc {
    /// Output resolution in bits.
    pub spec: AdcSpec,
    /// LSBs dropped per conversion (step size `2^shift`).
    pub shift: u32,
}

impl SteppedAdc {
    /// Creates a stepped converter.
    ///
    /// # Panics
    ///
    /// Panics if `shift > 16`.
    pub fn new(bits: u8, signed: bool, shift: u32) -> Self {
        assert!(shift <= 16, "step shift {shift} unreasonably large");
        SteppedAdc {
            spec: AdcSpec::new(bits, signed),
            shift,
        }
    }

    /// Converts a column sum: round to the step, clamp to the (widened)
    /// range, return the *reconstructed* value (`code · 2^shift`).
    pub fn convert(&self, sum: i64) -> i64 {
        let step = 1i64 << self.shift;
        // Round-to-nearest at the step size.
        let code = if sum >= 0 {
            (sum + step / 2) >> self.shift
        } else {
            -((-sum + step / 2) >> self.shift)
        };
        self.spec.convert(code) << self.shift
    }

    /// The largest magnitude representable without saturation.
    pub fn range(&self) -> i64 {
        self.spec.max() << self.shift
    }
}

/// Mean |error| of reading `sums` through a converter policy.
pub fn mean_read_error(sums: &[i64], convert: impl Fn(i64) -> i64) -> f64 {
    if sums.is_empty() {
        return 0.0;
    }
    sums.iter()
        .map(|&s| (convert(s) - s).abs() as f64)
        .sum::<f64>()
        / sums.len() as f64
}

/// Fraction of `sums` a converter policy reads back exactly.
pub fn exact_read_fraction(sums: &[i64], convert: impl Fn(i64) -> i64) -> f64 {
    if sums.is_empty() {
        return 1.0;
    }
    sums.iter().filter(|&&s| convert(s) == s).count() as f64 / sums.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trim_zeroes_large_integer_biases() {
        // A column with mean ≈ 3: the trim removes it cleanly.
        let levels: Vec<i16> = (0..64).map(|i| 3 + (i % 2) as i16 * 2 - 1).collect();
        let (trimmed, rec) = column_bias_trim(&levels);
        assert_eq!(rec.bias, 3);
        assert!(rec.mean_after.abs() < rec.mean_before.abs());
        assert_eq!(trimmed.len(), levels.len());
    }

    #[test]
    fn trim_worsens_subhalf_biases() {
        // §4.1.3's objection: mean 0.4 rounds to 0 (no help) and a forced
        // ±1 shift would overshoot. Construct mean ≈ 0.4.
        let mut levels = vec![0i16; 10];
        levels[0] = 2;
        levels[1] = 2; // mean 0.4
        let (_, rec) = column_bias_trim(&levels);
        assert_eq!(rec.bias, 0, "integer rounding cannot fix a 0.4 bias");
        assert!((rec.mean_after - rec.mean_before).abs() < 1e-12);
    }

    #[test]
    fn stepped_adc_never_saturates_in_its_widened_range() {
        let stepped = SteppedAdc::new(7, true, 4); // ±64·16 ≈ ±1024
        for s in (-1000..1000).step_by(13) {
            let read = stepped.convert(s);
            assert!((read - s).abs() <= 8, "sum {s} read {read}");
        }
        assert_eq!(stepped.range(), 63 << 4);
    }

    #[test]
    fn stepped_adc_loses_fidelity_everywhere() {
        // The footnote-4 tradeoff on a tight distribution: RAELLA's
        // LSB-capture is exact for all in-range sums; the stepped policy
        // errs on almost every read.
        let sums: Vec<i64> = (-60..=60).collect();
        let raella = AdcSpec::raella_7b();
        let stepped = SteppedAdc::new(7, true, 4);
        assert_eq!(exact_read_fraction(&sums, |s| raella.convert(s)), 1.0);
        assert!(exact_read_fraction(&sums, |s| stepped.convert(s)) < 0.1);
        assert!(mean_read_error(&sums, |s| stepped.convert(s)) > 2.0);
        assert_eq!(mean_read_error(&sums, |s| raella.convert(s)), 0.0);
    }

    #[test]
    fn stepped_adc_wins_only_on_wide_distributions() {
        // On sums that regularly exceed ±64, saturation costs the
        // LSB-capture policy more than stepping costs the stepped one.
        let sums: Vec<i64> = (-640..=640).step_by(7).collect();
        let raella = AdcSpec::raella_7b();
        let stepped = SteppedAdc::new(7, true, 4);
        let cap_err = mean_read_error(&sums, |s| raella.convert(s));
        let step_err = mean_read_error(&sums, |s| stepped.convert(s));
        assert!(
            step_err < cap_err,
            "wide sums: stepped {step_err} must beat capture {cap_err}"
        );
    }

    #[test]
    #[should_panic(expected = "empty column")]
    fn trim_rejects_empty() {
        column_bias_trim(&[]);
    }
}
