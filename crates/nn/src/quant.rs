//! Per-channel 8-bit quantization, following the integer inference pipeline
//! the paper adopts (§2.1: 8b inputs/weights, 16b psums, per-channel scales;
//! §5.3: per-channel FP16 scale+bias with activation fused into
//! quantization).
//!
//! Conventions (`DESIGN.md` §6):
//!
//! * Activations are stored-domain `u8` with zero point 0 after fused ReLU
//!   (unsigned, right-skewed, sparse high-order bits — paper Fig. 8).
//! * Weights are stored-domain `u8` with a per-filter zero point near 128
//!   (asymmetric). The raw crossbar accumulation is the stored-domain dot
//!   product; the digital requantizer subtracts `zero_point · Σinputs`.
//! * Partial sums accumulate in `i32` in simulation; the 16b hardware psum
//!   range is asserted by tests on realistic layers.

use serde::{Deserialize, Serialize};

/// Scale and zero point for one quantized tensor (or one channel of it).
///
/// A real value `x` maps to the stored value `round(x / scale) + zero_point`
/// clamped to `[0, 255]`.
///
/// ```
/// use raella_nn::QuantParams;
///
/// let q = QuantParams::new(0.5, 128);
/// let stored = q.quantize(3.2);
/// assert_eq!(stored, 134);
/// assert!((q.dequantize(stored) - 3.0).abs() < f32::EPSILON);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantParams {
    /// Real-value size of one quantization step. Must be positive.
    pub scale: f32,
    /// Stored value that represents real 0.
    pub zero_point: u8,
}

impl QuantParams {
    /// Creates quantization parameters.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not finite and positive.
    pub fn new(scale: f32, zero_point: u8) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "scale must be finite and positive, got {scale}"
        );
        QuantParams { scale, zero_point }
    }

    /// Quantizes a real value to its stored `u8` representation.
    pub fn quantize(&self, x: f32) -> u8 {
        let q = (x / self.scale).round() + f32::from(self.zero_point);
        q.clamp(0.0, 255.0) as u8
    }

    /// Recovers the real value represented by a stored `u8`.
    pub fn dequantize(&self, stored: u8) -> f32 {
        (f32::from(stored) - f32::from(self.zero_point)) * self.scale
    }
}

/// Per-filter output requantization: psum (`i32`) → 8b activation.
///
/// Implements the paper's digital output stage (§5.1, §5.3): per output
/// channel, a floating scale and bias are applied to the zero-point-corrected
/// accumulation, the result is rounded, and ReLU is fused by clamping to
/// `[0, 255]` (output zero point 0).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutputQuant {
    /// Per-filter multiplicative scale applied to the corrected psum.
    pub scales: Vec<f32>,
    /// Per-filter additive bias, in output-quantized units.
    pub biases: Vec<f32>,
    /// Per-filter weight zero points (stored-domain).
    pub weight_zero_points: Vec<u8>,
}

impl OutputQuant {
    /// Builds a requantizer for `filters` output channels.
    ///
    /// # Panics
    ///
    /// Panics if the three vectors do not all have length `filters`.
    pub fn new(scales: Vec<f32>, biases: Vec<f32>, weight_zero_points: Vec<u8>) -> Self {
        assert_eq!(scales.len(), biases.len(), "scales/biases length mismatch");
        assert_eq!(
            scales.len(),
            weight_zero_points.len(),
            "scales/zero-points length mismatch"
        );
        OutputQuant {
            scales,
            biases,
            weight_zero_points,
        }
    }

    /// Number of output channels.
    pub fn filters(&self) -> usize {
        self.scales.len()
    }

    /// Zero-point-corrected accumulation for filter `f`.
    ///
    /// `raw_acc` is the stored-domain dot product `Σ xᵣ·wᵣ` and `input_sum`
    /// is `Σ xᵣ` over the same rows. The correction subtracts
    /// `zero_point(f) · Σ xᵣ`, exactly the term hardware folds into the
    /// digital stage.
    pub fn corrected_acc(&self, f: usize, raw_acc: i64, input_sum: i64) -> i64 {
        raw_acc - i64::from(self.weight_zero_points[f]) * input_sum
    }

    /// Full requantization of filter `f`: corrected psum → 8b output with
    /// fused ReLU.
    pub fn requantize(&self, f: usize, raw_acc: i64, input_sum: i64) -> u8 {
        let corrected = self.corrected_acc(f, raw_acc, input_sum) as f32;
        let out = corrected * self.scales[f] + self.biases[f];
        out.round().clamp(0.0, 255.0) as u8
    }

    /// Requantizes every filter's accumulator in one pass — the batch form
    /// of [`OutputQuant::requantize`], bit-identical per element. The
    /// per-filter constants (scale, bias, zero point) stream through one
    /// zipped traversal instead of three indexed lookups per output.
    ///
    /// # Panics
    ///
    /// Panics if `acc` or `out` is not [`OutputQuant::filters`] long.
    pub fn requantize_into(&self, acc: &[i64], input_sum: i64, out: &mut [u8]) {
        assert_eq!(acc.len(), self.filters(), "accumulator length mismatch");
        assert_eq!(out.len(), self.filters(), "output length mismatch");
        for ((((o, &a), &scale), &bias), &zp) in out
            .iter_mut()
            .zip(acc)
            .zip(&self.scales)
            .zip(&self.biases)
            .zip(&self.weight_zero_points)
        {
            let corrected = (a - i64::from(zp) * input_sum) as f32;
            *o = (corrected * scale + bias).round().clamp(0.0, 255.0) as u8;
        }
    }
}

/// Mean absolute error between reference and observed 8b outputs, counted
/// over outputs where the reference is nonzero.
///
/// This is the paper's error-budget metric (§4.2.1): "the average magnitude
/// error allowed for nonzero outputs of a layer after outputs are fully
/// computed and quantized to 8b". Zero-reference outputs are excluded so
/// layers with different output sparsity are measured consistently.
///
/// Returns 0.0 when the reference has no nonzero outputs.
///
/// ```
/// use raella_nn::quant::mean_error_nonzero;
///
/// let reference = [0u8, 10, 20];
/// let observed = [5u8, 11, 18];
/// // Output 0 is excluded (reference is zero); errors are 1 and 2.
/// assert!((mean_error_nonzero(&reference, &observed) - 1.5).abs() < 1e-6);
/// ```
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mean_error_nonzero(reference: &[u8], observed: &[u8]) -> f64 {
    assert_eq!(reference.len(), observed.len(), "length mismatch");
    let mut total = 0u64;
    let mut count = 0u64;
    for (&r, &o) in reference.iter().zip(observed) {
        if r != 0 {
            total += u64::from(r.abs_diff(o));
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        total as f64 / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_round_trips_within_one_step() {
        let q = QuantParams::new(0.1, 30);
        for i in 0..100 {
            let x = -3.0 + 0.061 * i as f32;
            let err = (q.dequantize(q.quantize(x)) - x).abs();
            assert!(err <= 0.05 + 1e-6, "x={x} err={err}");
        }
    }

    #[test]
    fn quantize_clamps_to_u8() {
        let q = QuantParams::new(0.5, 128);
        assert_eq!(q.quantize(1e6), 255);
        assert_eq!(q.quantize(-1e6), 0);
    }

    #[test]
    #[should_panic(expected = "scale must be finite and positive")]
    fn zero_scale_rejected() {
        QuantParams::new(0.0, 0);
    }

    #[test]
    fn corrected_acc_subtracts_zero_point_mass() {
        let oq = OutputQuant::new(vec![1.0], vec![0.0], vec![128]);
        // raw = Σ x·w with w stored as 128 (true weight 0) should correct to 0.
        let input_sum = 300;
        let raw = 128 * input_sum;
        assert_eq!(oq.corrected_acc(0, raw, input_sum), 0);
    }

    #[test]
    fn requantize_fuses_relu() {
        let oq = OutputQuant::new(vec![1.0], vec![0.0], vec![0]);
        assert_eq!(oq.requantize(0, -50, 0), 0, "negative psum clamps to 0");
        assert_eq!(oq.requantize(0, 50, 0), 50);
        assert_eq!(oq.requantize(0, 500, 0), 255, "saturates at 255");
    }

    #[test]
    fn requantize_into_matches_per_filter_requantize() {
        let oq = OutputQuant::new(
            vec![0.03, 1.5, 0.7, 0.001],
            vec![4.0, -2.5, 0.0, 100.0],
            vec![128, 0, 200, 17],
        );
        let acc = [40_000i64, -3, 123_456, -99_999];
        for input_sum in [0i64, 1, 300, 100_000] {
            let mut batch = [0u8; 4];
            oq.requantize_into(&acc, input_sum, &mut batch);
            for f in 0..4 {
                assert_eq!(
                    batch[f],
                    oq.requantize(f, acc[f], input_sum),
                    "filter {f}, input_sum {input_sum}"
                );
            }
        }
    }

    #[test]
    fn mean_error_ignores_zero_reference() {
        assert_eq!(mean_error_nonzero(&[0, 0], &[9, 9]), 0.0);
        let e = mean_error_nonzero(&[1, 0, 3], &[2, 100, 3]);
        assert!((e - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mean_error_checks_lengths() {
        mean_error_nonzero(&[1], &[1, 2]);
    }
}
