//! Layer operators for mini end-to-end models.
//!
//! Convolution is lowered to matrix–vector products over im2col columns —
//! exactly the view a PIM crossbar has of the layer (paper §2.2, Fig. 1).
//! The [`MatVecEngine`] trait abstracts *who* computes those products: the
//! exact integer reference here, or an analog crossbar engine in
//! `raella-core`. Accuracy experiments (paper Table 4, Fig. 15) swap the
//! engine and compare outputs.

use crate::error::NnError;
use crate::matrix::{Act, MatrixLayer};
use crate::tensor::Tensor;

/// Computes a layer's 8b outputs for a batch of im2col input vectors.
///
/// Implementations may carry state (energy counters, ADC statistics), hence
/// `&mut self`. The input layout matches
/// [`MatrixLayer::reference_outputs`]: vectors of length
/// [`MatrixLayer::filter_len`] back to back; the output holds
/// [`MatrixLayer::filters`] values per vector.
pub trait MatVecEngine {
    /// Computes outputs for every input vector in the batch.
    fn layer_outputs(&mut self, layer: &MatrixLayer, inputs: &[Act]) -> Vec<u8>;
}

/// The exact integer reference engine (no analog effects).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceEngine;

impl MatVecEngine for ReferenceEngine {
    fn layer_outputs(&mut self, layer: &MatrixLayer, inputs: &[Act]) -> Vec<u8> {
        layer.reference_outputs(inputs)
    }
}

/// A 2-D convolution over CHW `u8` feature maps.
#[derive(Debug, Clone, PartialEq)]
pub struct Conv2d {
    /// The crossbar-form weights and requantizer.
    pub layer: MatrixLayer,
    /// Input channels.
    pub in_c: usize,
    /// Square kernel size.
    pub k: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl Conv2d {
    /// Wraps a [`MatrixLayer`] as a convolution.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the layer's `filter_len` is not
    /// `in_c·k·k`, or [`NnError::InvalidConfig`] if `k` or `stride` is zero.
    pub fn new(
        layer: MatrixLayer,
        in_c: usize,
        k: usize,
        stride: usize,
        padding: usize,
    ) -> Result<Self, NnError> {
        if k == 0 || stride == 0 {
            return Err(NnError::InvalidConfig(format!(
                "kernel {k} and stride {stride} must be nonzero"
            )));
        }
        if layer.filter_len() != in_c * k * k {
            return Err(NnError::ShapeMismatch {
                expected: format!("filter_len {} (= {in_c}·{k}·{k})", in_c * k * k),
                got: format!("{}", layer.filter_len()),
            });
        }
        Ok(Conv2d {
            layer,
            in_c,
            k,
            stride,
            padding,
        })
    }

    /// Output spatial size for an `h × w` input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the kernel does not fit.
    pub fn out_hw(&self, h: usize, w: usize) -> Result<(usize, usize), NnError> {
        let eff_h = h + 2 * self.padding;
        let eff_w = w + 2 * self.padding;
        if eff_h < self.k || eff_w < self.k {
            return Err(NnError::ShapeMismatch {
                expected: format!("input at least {0}×{0} after padding", self.k),
                got: format!("{eff_h}×{eff_w}"),
            });
        }
        Ok((
            (eff_h - self.k) / self.stride + 1,
            (eff_w - self.k) / self.stride + 1,
        ))
    }

    /// Lowers a CHW input to im2col columns (one column per output pixel,
    /// each `in_c·k·k` long, matching the weight layout `[c][ky][kx]`).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] on a rank/channel mismatch.
    pub fn im2col(&self, input: &Tensor<u8>) -> Result<Vec<Act>, NnError> {
        let mut cols = Vec::new();
        self.im2col_into(input, &mut cols)?;
        Ok(cols)
    }

    /// [`Conv2d::im2col`] into a reusable buffer: `cols` is cleared and
    /// refilled, so streaming many inputs through the same graph re-uses
    /// one allocation per worker instead of allocating per convolution.
    ///
    /// # Errors
    ///
    /// Same as [`Conv2d::im2col`].
    pub fn im2col_into(&self, input: &Tensor<u8>, cols: &mut Vec<Act>) -> Result<(), NnError> {
        cols.clear();
        let shape = input.shape();
        if shape.len() != 3 || shape[0] != self.in_c {
            return Err(NnError::ShapeMismatch {
                expected: format!("CHW input with {} channels", self.in_c),
                got: format!("{shape:?}"),
            });
        }
        let (h, w) = (shape[1], shape[2]);
        let (oh, ow) = self.out_hw(h, w)?;
        cols.reserve(oh * ow * self.layer.filter_len());
        let data = input.as_slice();
        let (k, pad) = (self.k, self.padding);
        for oy in 0..oh {
            for ox in 0..ow {
                for c in 0..self.in_c {
                    let channel = &data[c * h * w..(c + 1) * h * w];
                    for ky in 0..k {
                        // Padded coordinates: input row `y − pad` exists
                        // iff `pad ≤ y < h + pad`.
                        let y = oy * self.stride + ky;
                        if y < pad || y >= h + pad {
                            cols.extend(std::iter::repeat_n(0, k));
                            continue;
                        }
                        let row = &channel[(y - pad) * w..(y - pad + 1) * w];
                        for kx in 0..k {
                            let x = ox * self.stride + kx;
                            cols.push(if x < pad || x >= w + pad {
                                0
                            } else {
                                Act::from(row[x - pad])
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Runs the convolution through an engine, producing a CHW output map.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from [`Conv2d::im2col`].
    pub fn forward(
        &self,
        input: &Tensor<u8>,
        engine: &mut dyn MatVecEngine,
    ) -> Result<Tensor<u8>, NnError> {
        let mut scratch = Vec::new();
        self.forward_with(input, engine, &mut scratch)
    }

    /// [`Conv2d::forward`] with a caller-owned im2col scratch buffer
    /// (cleared and refilled), the zero-steady-state-allocation path used
    /// by planned graph execution.
    ///
    /// # Errors
    ///
    /// Same as [`Conv2d::forward`].
    pub fn forward_with(
        &self,
        input: &Tensor<u8>,
        engine: &mut dyn MatVecEngine,
        scratch: &mut Vec<Act>,
    ) -> Result<Tensor<u8>, NnError> {
        let (h, w) = (input.shape()[1], input.shape()[2]);
        let (oh, ow) = self.out_hw(h, w)?;
        self.im2col_into(input, scratch)?;
        let flat = engine.layer_outputs(&self.layer, scratch);
        // Engine output is [pixel][filter]; transpose to CHW.
        let filters = self.layer.filters();
        let mut out = Tensor::zeros(&[filters, oh, ow]);
        let map = out.as_mut_slice();
        for (pix, chunk) in flat.chunks_exact(filters).enumerate() {
            for (f, &v) in chunk.iter().enumerate() {
                map[f * oh * ow + pix] = v;
            }
        }
        Ok(out)
    }
}

/// A fully connected layer over a flattened input.
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    /// The crossbar-form weights and requantizer
    /// (`filter_len` = flattened input length).
    pub layer: MatrixLayer,
}

impl Linear {
    /// Runs the layer through an engine. The input tensor is flattened.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the flattened input length is
    /// not the layer's `filter_len`.
    pub fn forward(
        &self,
        input: &Tensor<u8>,
        engine: &mut dyn MatVecEngine,
    ) -> Result<Tensor<u8>, NnError> {
        let mut scratch = Vec::new();
        self.forward_with(input, engine, &mut scratch)
    }

    /// [`Linear::forward`] with a caller-owned activation scratch buffer
    /// (cleared and refilled), matching [`Conv2d::forward_with`].
    ///
    /// # Errors
    ///
    /// Same as [`Linear::forward`].
    pub fn forward_with(
        &self,
        input: &Tensor<u8>,
        engine: &mut dyn MatVecEngine,
        scratch: &mut Vec<Act>,
    ) -> Result<Tensor<u8>, NnError> {
        if input.len() != self.layer.filter_len() {
            return Err(NnError::ShapeMismatch {
                expected: format!("{} inputs", self.layer.filter_len()),
                got: format!("{}", input.len()),
            });
        }
        scratch.clear();
        scratch.extend(input.as_slice().iter().map(|&v| Act::from(v)));
        let out = engine.layer_outputs(&self.layer, scratch);
        Tensor::from_vec(out, &[self.layer.filters()])
    }
}

/// Max-pooling over CHW maps.
///
/// # Errors
///
/// Returns [`NnError::ShapeMismatch`] for non-CHW input or a window that
/// does not fit, and [`NnError::InvalidConfig`] for zero `k`/`stride`.
pub fn max_pool2d(input: &Tensor<u8>, k: usize, stride: usize) -> Result<Tensor<u8>, NnError> {
    if k == 0 || stride == 0 {
        return Err(NnError::InvalidConfig(format!(
            "pool kernel {k} and stride {stride} must be nonzero"
        )));
    }
    let shape = input.shape();
    if shape.len() != 3 {
        return Err(NnError::ShapeMismatch {
            expected: "CHW input".into(),
            got: format!("{shape:?}"),
        });
    }
    let (c, h, w) = (shape[0], shape[1], shape[2]);
    if h < k || w < k {
        return Err(NnError::ShapeMismatch {
            expected: format!("spatial size at least {k}×{k}"),
            got: format!("{h}×{w}"),
        });
    }
    let (oh, ow) = ((h - k) / stride + 1, (w - k) / stride + 1);
    let mut out = Tensor::zeros(&[c, oh, ow]);
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut m = 0u8;
                for ky in 0..k {
                    for kx in 0..k {
                        m = m.max(input.get(&[ch, oy * stride + ky, ox * stride + kx]));
                    }
                }
                out.set(&[ch, oy, ox], m);
            }
        }
    }
    Ok(out)
}

/// Global average pooling: CHW → per-channel means (rounded).
///
/// # Errors
///
/// Returns [`NnError::ShapeMismatch`] for non-CHW input.
pub fn global_avg_pool(input: &Tensor<u8>) -> Result<Tensor<u8>, NnError> {
    let shape = input.shape();
    if shape.len() != 3 {
        return Err(NnError::ShapeMismatch {
            expected: "CHW input".into(),
            got: format!("{shape:?}"),
        });
    }
    let (c, area) = (shape[0], shape[1] * shape[2]);
    // Each channel is one contiguous `area`-long run of the CHW buffer.
    let means = (0..c)
        .map(|ch| {
            let plane = &input.as_slice()[ch * area..(ch + 1) * area];
            let sum: u32 = plane.iter().map(|&x| u32::from(x)).sum();
            let area = area as u32;
            ((sum + area / 2) / area).min(255) as u8
        })
        .collect();
    Tensor::from_vec(means, &[c])
}

/// Elementwise residual merge: rescaled average of two equal-shape maps,
/// the requantized-add a deployed int8 model performs at skip connections.
///
/// # Errors
///
/// Returns [`NnError::ShapeMismatch`] if the shapes differ.
pub fn residual_add(a: &Tensor<u8>, b: &Tensor<u8>) -> Result<Tensor<u8>, NnError> {
    if a.shape() != b.shape() {
        return Err(NnError::ShapeMismatch {
            expected: format!("{:?}", a.shape()),
            got: format!("{:?}", b.shape()),
        });
    }
    let data: Vec<u8> = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| ((u16::from(x) + u16::from(y)) / 2) as u8)
        .collect();
    Tensor::from_vec(data, a.shape())
}

/// Keeps channels `from..to` of a CHW tensor (group-conv plumbing).
///
/// # Errors
///
/// Returns [`NnError::ShapeMismatch`] for non-CHW input, an empty range,
/// or a range past the channel count.
pub fn slice_channels(input: &Tensor<u8>, from: usize, to: usize) -> Result<Tensor<u8>, NnError> {
    let shape = input.shape();
    if shape.len() != 3 || from >= to || to > shape[0] {
        return Err(NnError::ShapeMismatch {
            expected: format!("CHW input with at least {to} channels"),
            got: format!("{shape:?} sliced [{from}..{to})"),
        });
    }
    let (h, w) = (shape[1], shape[2]);
    let data = input.as_slice()[from * h * w..to * h * w].to_vec();
    Tensor::from_vec(data, &[to - from, h, w])
}

/// ShuffleNet channel shuffle: reshape `(g, c/g, ...)` → transpose.
///
/// # Errors
///
/// Returns [`NnError::ShapeMismatch`] for non-CHW input or a channel count
/// not divisible by `groups`.
pub fn shuffle_channels(input: &Tensor<u8>, groups: usize) -> Result<Tensor<u8>, NnError> {
    let shape = input.shape();
    if shape.len() != 3 || groups == 0 || !shape[0].is_multiple_of(groups) {
        return Err(NnError::ShapeMismatch {
            expected: format!("CHW with channels divisible by {groups}"),
            got: format!("{shape:?}"),
        });
    }
    let (c, h, w) = (shape[0], shape[1], shape[2]);
    let per = c / groups;
    let plane = h * w;
    let src = input.as_slice();
    let mut data = vec![0u8; c * plane];
    for g in 0..groups {
        for i in 0..per {
            let src_ch = g * per + i;
            let dst_ch = i * groups + g;
            data[dst_ch * plane..(dst_ch + 1) * plane]
                .copy_from_slice(&src[src_ch * plane..(src_ch + 1) * plane]);
        }
    }
    Tensor::from_vec(data, &[c, h, w])
}

/// Channel concatenation of CHW maps with equal spatial size.
///
/// # Errors
///
/// Returns [`NnError::ShapeMismatch`] if any input is not CHW or the
/// spatial sizes differ, and [`NnError::InvalidConfig`] if `parts` is empty.
pub fn concat_channels(parts: &[&Tensor<u8>]) -> Result<Tensor<u8>, NnError> {
    let first = parts
        .first()
        .ok_or_else(|| NnError::InvalidConfig("concat of zero tensors".into()))?;
    let shape = first.shape();
    if shape.len() != 3 {
        return Err(NnError::ShapeMismatch {
            expected: "CHW input".into(),
            got: format!("{shape:?}"),
        });
    }
    let (h, w) = (shape[1], shape[2]);
    let mut total_c = 0;
    for p in parts {
        let s = p.shape();
        if s.len() != 3 || s[1] != h || s[2] != w {
            return Err(NnError::ShapeMismatch {
                expected: format!("CHW with spatial {h}×{w}"),
                got: format!("{s:?}"),
            });
        }
        total_c += s[0];
    }
    let mut data = Vec::with_capacity(total_c * h * w);
    for p in parts {
        data.extend_from_slice(p.as_slice());
    }
    Tensor::from_vec(data, &[total_c, h, w])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::InputProfile;
    use crate::quant::OutputQuant;

    /// 1 input channel, 1 filter, 2×2 identity-ish kernel [1,0,0,0],
    /// unit scale, zero zero-point: output = top-left of each window.
    fn passthrough_conv() -> Conv2d {
        let quant = OutputQuant::new(vec![1.0], vec![0.0], vec![0]);
        let layer = MatrixLayer::new(
            "conv",
            1,
            4,
            vec![1, 0, 0, 0],
            quant,
            InputProfile::relu_default(),
        )
        .unwrap();
        Conv2d::new(layer, 1, 2, 1, 0).unwrap()
    }

    #[test]
    fn conv_forward_matches_hand_result() {
        let conv = passthrough_conv();
        let input = Tensor::from_vec((1u8..=9).collect(), &[1, 3, 3]).unwrap();
        let out = conv.forward(&input, &mut ReferenceEngine).unwrap();
        assert_eq!(out.shape(), &[1, 2, 2]);
        assert_eq!(out.as_slice(), &[1, 2, 4, 5]);
    }

    #[test]
    fn conv_padding_pads_with_zero() {
        let quant = OutputQuant::new(vec![1.0], vec![0.0], vec![0]);
        // Kernel that sums the full 3×3 window.
        let layer =
            MatrixLayer::new("sum", 1, 9, vec![1; 9], quant, InputProfile::relu_default()).unwrap();
        let conv = Conv2d::new(layer, 1, 3, 1, 1).unwrap();
        let input = Tensor::from_vec(vec![1u8; 9], &[1, 3, 3]).unwrap();
        let out = conv.forward(&input, &mut ReferenceEngine).unwrap();
        assert_eq!(out.shape(), &[1, 3, 3]);
        // Center pixel sees all 9 ones; corners see only 4.
        assert_eq!(out.get(&[0, 1, 1]), 9);
        assert_eq!(out.get(&[0, 0, 0]), 4);
    }

    /// The sliced im2col equals the coordinate definition — every column
    /// entry `input[c, oy·s + ky − p, ox·s + kx − p]`, zero off the map —
    /// across channels, strides, paddings and non-square maps.
    #[test]
    fn im2col_matches_coordinate_definition() {
        for (c, h, w, k, stride, pad) in [
            (1, 3, 3, 2, 1, 0),
            (2, 5, 4, 3, 1, 1),
            (3, 6, 7, 3, 2, 1),
            (2, 4, 4, 1, 2, 0),
            (1, 2, 3, 3, 1, 2),
        ] {
            let quant = OutputQuant::new(vec![1.0], vec![0.0], vec![0]);
            let layer = MatrixLayer::new(
                "conv",
                1,
                c * k * k,
                vec![1; c * k * k],
                quant,
                InputProfile::relu_default(),
            )
            .unwrap();
            let conv = Conv2d::new(layer, c, k, stride, pad).unwrap();
            let data = (0..c * h * w).map(|i| (i * 7 % 251) as u8).collect();
            let input = Tensor::from_vec(data, &[c, h, w]).unwrap();
            let (oh, ow) = conv.out_hw(h, w).unwrap();
            let mut expected = Vec::new();
            for oy in 0..oh {
                for ox in 0..ow {
                    for ch in 0..c {
                        for ky in 0..k {
                            for kx in 0..k {
                                let y = (oy * stride + ky) as isize - pad as isize;
                                let x = (ox * stride + kx) as isize - pad as isize;
                                let inside =
                                    (0..h as isize).contains(&y) && (0..w as isize).contains(&x);
                                expected.push(if inside {
                                    Act::from(input.get(&[ch, y as usize, x as usize]))
                                } else {
                                    0
                                });
                            }
                        }
                    }
                }
            }
            assert_eq!(
                conv.im2col(&input).unwrap(),
                expected,
                "{c}×{h}×{w} k{k} s{stride} p{pad}"
            );
        }
    }

    #[test]
    fn conv_rejects_wrong_channel_count() {
        let conv = passthrough_conv();
        let input = Tensor::<u8>::zeros(&[2, 3, 3]);
        assert!(conv.im2col(&input).is_err());
    }

    #[test]
    fn conv_rejects_too_small_input() {
        let conv = passthrough_conv();
        assert!(conv.out_hw(1, 1).is_err());
    }

    #[test]
    fn linear_forward_flattens() {
        let quant = OutputQuant::new(vec![1.0], vec![0.0], vec![0]);
        let layer = MatrixLayer::new(
            "fc",
            1,
            4,
            vec![1, 1, 1, 1],
            quant,
            InputProfile::relu_default(),
        )
        .unwrap();
        let lin = Linear { layer };
        let input = Tensor::from_vec(vec![1u8, 2, 3, 4], &[1, 2, 2]).unwrap();
        let out = lin.forward(&input, &mut ReferenceEngine).unwrap();
        assert_eq!(out.as_slice(), &[10]);
    }

    #[test]
    fn max_pool_takes_window_max() {
        let input = Tensor::from_vec((1u8..=16).collect(), &[1, 4, 4]).unwrap();
        let out = max_pool2d(&input, 2, 2).unwrap();
        assert_eq!(out.shape(), &[1, 2, 2]);
        assert_eq!(out.as_slice(), &[6, 8, 14, 16]);
    }

    #[test]
    fn global_avg_pool_rounds() {
        let input = Tensor::from_vec(vec![1u8, 2, 3, 4], &[1, 2, 2]).unwrap();
        let out = global_avg_pool(&input).unwrap();
        assert_eq!(out.as_slice(), &[3]); // (10 + 2) / 4 = 3 after rounding
    }

    #[test]
    fn global_avg_pool_matches_the_coordinate_definition() {
        for (c, h, w) in [(3, 5, 7), (2, 1, 9), (4, 6, 2)] {
            let data: Vec<u8> = (0..c * h * w).map(|i| (i * 37 % 251) as u8).collect();
            let input = Tensor::from_vec(data, &[c, h, w]).unwrap();
            let out = global_avg_pool(&input).unwrap();
            assert_eq!(out.shape(), &[c]);
            let area = (h * w) as u32;
            for ch in 0..c {
                let mut sum = 0u32;
                for y in 0..h {
                    for x in 0..w {
                        sum += u32::from(input.get(&[ch, y, x]));
                    }
                }
                let mean = ((sum + area / 2) / area).min(255) as u8;
                assert_eq!(out.get(&[ch]), mean, "shape {c}x{h}x{w} channel {ch}");
            }
        }
    }

    #[test]
    fn residual_add_averages() {
        let a = Tensor::from_vec(vec![10u8, 200], &[2]).unwrap();
        let b = Tensor::from_vec(vec![20u8, 255], &[2]).unwrap();
        let out = residual_add(&a, &b).unwrap();
        assert_eq!(out.as_slice(), &[15, 227]);
        let c = Tensor::from_vec(vec![0u8], &[1]).unwrap();
        assert!(residual_add(&a, &c).is_err());
    }

    #[test]
    fn concat_stacks_channels() {
        let a = Tensor::from_vec(vec![1u8, 2, 3, 4], &[1, 2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5u8, 6, 7, 8], &[1, 2, 2]).unwrap();
        let out = concat_channels(&[&a, &b]).unwrap();
        assert_eq!(out.shape(), &[2, 2, 2]);
        assert_eq!(out.as_slice(), &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(concat_channels(&[]).is_err());
    }
}
