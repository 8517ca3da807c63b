//! Mini functional variants of the seven evaluated DNN families.
//!
//! Full-size functional crossbar simulation of (say) ResNet50 is far beyond
//! a test-suite budget, and the paper itself measures accuracy effects that
//! depend only on value *distributions* and block *structure*. Each mini
//! here keeps the family's distinguishing structure — residual adds,
//! inception branches, bottlenecks, depthwise/grouped tiny filters, channel
//! shuffles, signed transformer activations — at a small channel count, with
//! weights drawn from the same statistics as the full networks
//! ([`crate::synth`]).
//!
//! A [`MiniModel`] bundles the graph with the seeded image sampler whose
//! images Table 4 and Fig. 15 measure proxy accuracy on.

use crate::graph::Graph;
use crate::matrix::{Act, InputProfile, MatrixLayer};
use crate::rng::SynthRng;
use crate::synth::SynthLayer;
use crate::tensor::Tensor;

/// A mini network: graph + input geometry + seeded input sampler.
#[derive(Debug, Clone)]
pub struct MiniModel {
    /// Family name (matches the paper's Table 4 rows).
    pub name: String,
    /// The executable graph.
    pub graph: Graph,
    /// Input channels.
    pub in_c: usize,
    /// Input spatial size (square).
    pub hw: usize,
}

impl MiniModel {
    /// Draws a synthetic input image (post-quantization activations).
    pub fn sample_image(&self, seed: u64) -> Tensor<u8> {
        let mut rng = SynthRng::new(seed ^ 0x1A4E_11A0);
        let data: Vec<u8> = (0..self.in_c * self.hw * self.hw)
            .map(|_| {
                if rng.bernoulli(0.1) {
                    0
                } else {
                    rng.exponential(45.0).min(255.0).round() as u8
                }
            })
            .collect();
        Tensor::from_vec(data, &[self.in_c, self.hw, self.hw])
            .expect("image dimensions are consistent by construction")
    }

    /// `n` images drawn with seeds `seed, seed + 1, ..` — the accuracy
    /// experiments' evaluation set.
    pub fn sample_images(&self, n: usize, seed: u64) -> Vec<Tensor<u8>> {
        (0..n)
            .map(|i| self.sample_image(seed.wrapping_add(i as u64)))
            .collect()
    }

    /// All mini families, in the paper's Table 4 order (BERT is separate —
    /// see [`mini_bert_ff`] — because its activations are signed).
    pub fn all_cnn_families(seed: u64) -> Vec<MiniModel> {
        vec![
            mini_resnet18(seed),
            mini_resnet50(seed.wrapping_add(1)),
            mini_mobilenet_v2(seed.wrapping_add(2)),
            mini_shufflenet_v2(seed.wrapping_add(3)),
            mini_googlenet(seed.wrapping_add(4)),
            mini_inception_v3(seed.wrapping_add(5)),
        ]
    }
}

/// Per-family seeds are decorrelated through this helper.
fn fork_seed(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(salt)
}

/// The classifier head every mini shares: a widening layer followed by a
/// 384-row classifier. Real networks' accuracy rides on deep *wide* dot
/// products (hundreds of crossbar rows); `skew` controls how one-sided the
/// classifier's filters are (high for InceptionV3-like families — the
/// paper's Fig. 5 failure mode for Zero+Offset encoding).
fn wide_head(
    g: &mut Graph,
    input: usize,
    in_features: usize,
    skew: f64,
    seed: u64,
) -> (usize, usize) {
    let widen = g.linear(
        input,
        SynthLayer::linear(in_features, 384, fork_seed(seed, 1))
            .name(format!("head.widen{in_features}"))
            .build(),
    );
    let fc = g.linear(
        widen,
        SynthLayer::linear(384, 10, fork_seed(seed, 2))
            .name("head.fc")
            .skewed_filter_fraction(skew)
            .build(),
    );
    (widen, fc)
}

/// Graph-level calibration on a handful of sample images: every layer's
/// output scales are refit against the activations it actually receives,
/// and its input profile is replaced by measured statistics — the
/// post-training-quantization step a deployed int8 model ships with.
fn calibrated(mut model: MiniModel, seed: u64) -> MiniModel {
    let images: Vec<_> = (0..4)
        .map(|i| model.sample_image(fork_seed(seed, 900 + i)))
        .collect();
    model
        .graph
        .calibrate(&images)
        .expect("mini graphs are well-formed");
    model
}

/// Mini ResNet18: stem + two basic residual blocks + classifier.
pub fn mini_resnet18(seed: u64) -> MiniModel {
    let s = |i| fork_seed(seed, i);
    let mut g = Graph::new();
    let input = g.input();
    let stem = g
        .conv(input, SynthLayer::conv(3, 16, 3, s(0)).build(), 3, 3, 1, 1)
        .expect("consistent");
    // Block 1 (identity shortcut).
    let c1 = g
        .conv(stem, SynthLayer::conv(16, 16, 3, s(1)).build(), 16, 3, 1, 1)
        .expect("consistent");
    let c2 = g
        .conv(c1, SynthLayer::conv(16, 16, 3, s(2)).build(), 16, 3, 1, 1)
        .expect("consistent");
    let b1 = g.add(stem, c2);
    // Block 2 (downsample shortcut).
    let down = g
        .conv(b1, SynthLayer::conv(16, 32, 1, s(3)).build(), 16, 1, 2, 0)
        .expect("consistent");
    let c3 = g
        .conv(b1, SynthLayer::conv(16, 32, 3, s(4)).build(), 16, 3, 2, 1)
        .expect("consistent");
    let c4 = g
        .conv(c3, SynthLayer::conv(32, 32, 3, s(5)).build(), 32, 3, 1, 1)
        .expect("consistent");
    let b2 = g.add(down, c4);
    let gap = g.global_avg_pool(b2);
    let (head, fc) = wide_head(&mut g, gap, 32, 0.3, s(6));
    let _ = head;
    g.set_output(fc);
    calibrated(
        MiniModel {
            name: "ResNet18".into(),
            graph: g,
            in_c: 3,
            hw: 16,
        },
        seed,
    )
}

/// Mini ResNet50: bottleneck (1×1 → 3×3 → 1×1) residual blocks.
pub fn mini_resnet50(seed: u64) -> MiniModel {
    let s = |i| fork_seed(seed, 100 + i);
    let mut g = Graph::new();
    let input = g.input();
    let stem = g
        .conv(input, SynthLayer::conv(3, 32, 3, s(0)).build(), 3, 3, 1, 1)
        .expect("consistent");
    let mut x = stem;
    for blk in 0..2u64 {
        let a = g
            .conv(
                x,
                SynthLayer::conv(32, 8, 1, s(1 + 3 * blk)).build(),
                32,
                1,
                1,
                0,
            )
            .expect("consistent");
        let b = g
            .conv(
                a,
                SynthLayer::conv(8, 8, 3, s(2 + 3 * blk)).build(),
                8,
                3,
                1,
                1,
            )
            .expect("consistent");
        let c = g
            .conv(
                b,
                SynthLayer::conv(8, 32, 1, s(3 + 3 * blk)).build(),
                8,
                1,
                1,
                0,
            )
            .expect("consistent");
        x = g.add(x, c);
    }
    let gap = g.global_avg_pool(x);
    let (_, fc) = wide_head(&mut g, gap, 32, 0.3, s(9));
    g.set_output(fc);
    calibrated(
        MiniModel {
            name: "ResNet50".into(),
            graph: g,
            in_c: 3,
            hw: 16,
        },
        seed,
    )
}

/// Mini GoogLeNet: two inception modules with four concatenated branches.
pub fn mini_googlenet(seed: u64) -> MiniModel {
    let s = |i| fork_seed(seed, 200 + i);
    let mut g = Graph::new();
    let input = g.input();
    let stem = g
        .conv(input, SynthLayer::conv(3, 16, 3, s(0)).build(), 3, 3, 1, 1)
        .expect("consistent");
    let mut x = stem;
    let mut c_in = 16;
    for m in 0..2u64 {
        let b1 = g
            .conv(
                x,
                SynthLayer::conv(c_in, 8, 1, s(1 + 10 * m)).build(),
                c_in,
                1,
                1,
                0,
            )
            .expect("consistent");
        let b2r = g
            .conv(
                x,
                SynthLayer::conv(c_in, 8, 1, s(2 + 10 * m)).build(),
                c_in,
                1,
                1,
                0,
            )
            .expect("consistent");
        let b2 = g
            .conv(
                b2r,
                SynthLayer::conv(8, 12, 3, s(3 + 10 * m)).build(),
                8,
                3,
                1,
                1,
            )
            .expect("consistent");
        let b3r = g
            .conv(
                x,
                SynthLayer::conv(c_in, 4, 1, s(4 + 10 * m)).build(),
                c_in,
                1,
                1,
                0,
            )
            .expect("consistent");
        let b3 = g
            .conv(
                b3r,
                SynthLayer::conv(4, 8, 3, s(5 + 10 * m)).build(),
                4,
                3,
                1,
                1,
            )
            .expect("consistent");
        let b4 = g
            .conv(
                x,
                SynthLayer::conv(c_in, 4, 1, s(6 + 10 * m)).build(),
                c_in,
                1,
                1,
                0,
            )
            .expect("consistent");
        x = g.concat(vec![b1, b2, b3, b4]);
        c_in = 8 + 12 + 8 + 4;
    }
    let gap = g.global_avg_pool(x);
    let (_, fc) = wide_head(&mut g, gap, c_in, 0.4, s(40));
    g.set_output(fc);
    calibrated(
        MiniModel {
            name: "GoogLeNet".into(),
            graph: g,
            in_c: 3,
            hw: 16,
        },
        seed,
    )
}

/// Mini InceptionV3: like GoogLeNet's modules but with a higher fraction of
/// skewed (one-sided) filters — the property Fig. 5 highlights.
pub fn mini_inception_v3(seed: u64) -> MiniModel {
    let s = |i| fork_seed(seed, 300u64 + i);
    let skew = 0.35;
    let mut g = Graph::new();
    let input = g.input();
    let stem = g
        .conv(
            input,
            SynthLayer::conv(3, 16, 3, s(0))
                .skewed_filter_fraction(skew)
                .build(),
            3,
            3,
            1,
            1,
        )
        .expect("consistent");
    let b1 = g
        .conv(
            stem,
            SynthLayer::conv(16, 12, 1, s(1))
                .skewed_filter_fraction(skew)
                .build(),
            16,
            1,
            1,
            0,
        )
        .expect("consistent");
    let b2r = g
        .conv(
            stem,
            SynthLayer::conv(16, 8, 1, s(2))
                .skewed_filter_fraction(skew)
                .build(),
            16,
            1,
            1,
            0,
        )
        .expect("consistent");
    let b2 = g
        .conv(
            b2r,
            SynthLayer::conv(8, 12, 5, s(3))
                .skewed_filter_fraction(skew)
                .build(),
            8,
            5,
            1,
            2,
        )
        .expect("consistent");
    let b3r = g
        .conv(
            stem,
            SynthLayer::conv(16, 8, 1, s(4))
                .skewed_filter_fraction(skew)
                .build(),
            16,
            1,
            1,
            0,
        )
        .expect("consistent");
    let b3a = g
        .conv(
            b3r,
            SynthLayer::conv(8, 12, 3, s(5))
                .skewed_filter_fraction(skew)
                .build(),
            8,
            3,
            1,
            1,
        )
        .expect("consistent");
    let b3b = g
        .conv(
            b3a,
            SynthLayer::conv(12, 12, 3, s(6))
                .skewed_filter_fraction(skew)
                .build(),
            12,
            3,
            1,
            1,
        )
        .expect("consistent");
    let cat = g.concat(vec![b1, b2, b3b]);
    let gap = g.global_avg_pool(cat);
    let (_, fc) = wide_head(&mut g, gap, 36, 0.6, s(7));
    g.set_output(fc);
    calibrated(
        MiniModel {
            name: "InceptionV3".into(),
            graph: g,
            in_c: 3,
            hw: 16,
        },
        seed,
    )
}

/// Mini MobileNetV2: inverted residuals with per-channel depthwise convs —
/// each depthwise filter sees only 9 rows, the compact-model property the
/// paper calls out (§6.3).
pub fn mini_mobilenet_v2(seed: u64) -> MiniModel {
    let s = |i| fork_seed(seed, 400u64 + i);
    let mut g = Graph::new();
    let input = g.input();
    let stem = g
        .conv(input, SynthLayer::conv(3, 8, 3, s(0)).build(), 3, 3, 1, 1)
        .expect("consistent");
    // Inverted residual: expand 8→16 (1×1), depthwise 3×3, project 16→8.
    let expand = g
        .conv(stem, SynthLayer::conv(8, 16, 1, s(1)).build(), 8, 1, 1, 0)
        .expect("consistent");
    let dw = depthwise_block(&mut g, expand, 16, 3, s(2));
    let project = g
        .conv(dw, SynthLayer::conv(16, 8, 1, s(20)).build(), 16, 1, 1, 0)
        .expect("consistent");
    let res = g.add(stem, project);
    let gap = g.global_avg_pool(res);
    let (_, fc) = wide_head(&mut g, gap, 8, 0.5, s(21));
    g.set_output(fc);
    calibrated(
        MiniModel {
            name: "MobileNetV2".into(),
            graph: g,
            in_c: 3,
            hw: 16,
        },
        seed,
    )
}

/// Mini ShuffleNetV2: channel split, per-half unit, concat, shuffle.
pub fn mini_shufflenet_v2(seed: u64) -> MiniModel {
    let s = |i| fork_seed(seed, 500u64 + i);
    let mut g = Graph::new();
    let input = g.input();
    let stem = g
        .conv(input, SynthLayer::conv(3, 16, 3, s(0)).build(), 3, 3, 1, 1)
        .expect("consistent");
    // Split halves: left passes through, right gets 1×1 → dw → 1×1.
    let left = g.slice_channels(stem, 0, 8);
    let right = g.slice_channels(stem, 8, 16);
    let pw1 = g
        .conv(right, SynthLayer::conv(8, 8, 1, s(1)).build(), 8, 1, 1, 0)
        .expect("consistent");
    let dw = depthwise_block(&mut g, pw1, 8, 3, s(2));
    let pw2 = g
        .conv(dw, SynthLayer::conv(8, 8, 1, s(10)).build(), 8, 1, 1, 0)
        .expect("consistent");
    let cat = g.concat(vec![left, pw2]);
    let shuffled = g.shuffle_channels(cat, 2);
    let gap = g.global_avg_pool(shuffled);
    let (_, fc) = wide_head(&mut g, gap, 16, 0.5, s(11));
    g.set_output(fc);
    calibrated(
        MiniModel {
            name: "ShuffleNetV2".into(),
            graph: g,
            in_c: 3,
            hw: 16,
        },
        seed,
    )
}

/// Builds a depthwise 3×3 conv as per-channel slices, k×k single-channel
/// convolutions, and a concat — exactly how depthwise layers land on PIM
/// crossbars (one 9-row filter per channel).
fn depthwise_block(g: &mut Graph, input: usize, channels: usize, k: usize, seed: u64) -> usize {
    let mut parts = Vec::with_capacity(channels);
    for c in 0..channels {
        let ch = g.slice_channels(input, c, c + 1);
        let conv = g
            .conv(
                ch,
                SynthLayer::conv(1, 1, k, fork_seed(seed, c as u64))
                    .name(format!("dw.{c}"))
                    .build(),
                1,
                k,
                1,
                k / 2,
            )
            .expect("consistent");
        parts.push(conv);
    }
    g.concat(parts)
}

/// Mini BERT-Large feed-forward stack: signed-input 1024→4096→1024 pattern
/// at reduced width. Returned as matrix layers (not a [`Graph`]) because the
/// first layer's activations are signed. The second layer's 512-row dot
/// products are where encoding quality shows (as in the full model's
/// 4096-row projections).
pub fn mini_bert_ff(seed: u64) -> Vec<MatrixLayer> {
    let s = |i| fork_seed(seed, 600u64 + i);
    let mut layers = vec![
        SynthLayer::linear(128, 512, s(0))
            .name("bert.ff1")
            .signed_inputs()
            .build(),
        SynthLayer::linear(512, 128, s(1))
            .name("bert.ff2")
            .skewed_filter_fraction(0.3)
            .build(),
    ];
    // Chain-level calibration: each layer refit against the activations
    // the previous (already calibrated) layer actually produces.
    let tokens = 8u64;
    let cal: Vec<Act> = (0..tokens)
        .flat_map(|t| sample_signed_input(128, fork_seed(seed, 700 + t)))
        .collect();
    calibrate_chain(&mut layers, &cal);
    layers
}

/// Calibrates a chain of matrix layers in execution order: measures each
/// layer's real input distribution, refits its input profile and output
/// scales, then propagates reference outputs to the next layer.
///
/// # Panics
///
/// Panics if `layers` is empty or `input` is not a multiple of the first
/// layer's `filter_len`.
pub fn calibrate_chain(layers: &mut [MatrixLayer], input: &[Act]) {
    assert!(!layers.is_empty(), "empty chain");
    let mut current: Vec<Act> = input.to_vec();
    for layer in layers.iter_mut() {
        let profile = MatrixLayer::measure_profile(&current, layer.signed_inputs());
        layer.set_input_profile(profile);
        layer.calibrate(&current);
        current = layer
            .reference_outputs(&current)
            .iter()
            .map(|&v| Act::from(v))
            .collect();
    }
}

/// Runs a chain of matrix layers (BERT-style), each through `run_layer`
/// (for the integer reference, `|layer, x| layer.reference_outputs(x)`).
/// Unsigned 8b outputs of each layer feed the next; the first layer may
/// take signed inputs.
pub fn run_chain(
    layers: &[MatrixLayer],
    input: &[Act],
    mut run_layer: impl FnMut(&MatrixLayer, &[Act]) -> Vec<u8>,
) -> Vec<u8> {
    assert!(!layers.is_empty(), "empty chain");
    let mut current: Vec<Act> = input.to_vec();
    let mut out = Vec::new();
    for layer in layers {
        out = run_layer(layer, &current);
        current = out.iter().map(|&v| Act::from(v)).collect();
    }
    out
}

/// Samples a signed input vector for a BERT-style chain.
pub fn sample_signed_input(len: usize, seed: u64) -> Vec<Act> {
    let profile = InputProfile::signed_default();
    let mut rng = SynthRng::new(seed ^ 0xBE27);
    (0..len).map(|_| profile.sample(&mut rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_cnn_minis_run_end_to_end() {
        for model in MiniModel::all_cnn_families(7) {
            let img = model.sample_image(1);
            let out = model.graph.run_reference(&img).unwrap();
            assert_eq!(out.shape(), &[10], "{}", model.name);
        }
    }

    #[test]
    fn minis_are_deterministic() {
        let a = mini_resnet18(5);
        let b = mini_resnet18(5);
        let img = a.sample_image(0);
        assert_eq!(
            a.graph.run_reference(&img).unwrap(),
            b.graph.run_reference(&img).unwrap()
        );
    }

    #[test]
    fn mini_families_have_distinguishing_structure() {
        // MobileNet/ShuffleNet minis must contain 9-row depthwise filters.
        for model in [mini_mobilenet_v2(1), mini_shufflenet_v2(1)] {
            let has_tiny = model
                .graph
                .matrix_layers()
                .iter()
                .any(|l| l.filter_len() == 9);
            assert!(has_tiny, "{} lacks depthwise filters", model.name);
        }
        // ResNet50 mini must contain 1×1 bottleneck layers.
        let rn50 = mini_resnet50(1);
        assert!(rn50
            .graph
            .matrix_layers()
            .iter()
            .any(|l| l.filter_len() == 32));
    }

    #[test]
    fn bert_chain_runs_and_uses_signed_inputs() {
        let layers = mini_bert_ff(11);
        assert!(layers[0].signed_inputs());
        assert!(!layers[1].signed_inputs());
        let input = sample_signed_input(layers[0].filter_len(), 2);
        assert!(input.iter().any(|&x| x < 0));
        let out = run_chain(&layers, &input, |l, x| l.reference_outputs(x));
        assert_eq!(out.len(), 128);
    }

    #[test]
    fn sample_images_differ_across_seeds() {
        let model = mini_resnet18(0);
        assert_ne!(model.sample_image(1), model.sample_image(2));
        assert_eq!(model.sample_image(1), model.sample_image(1));
        assert_eq!(
            model.sample_images(2, 1),
            vec![model.sample_image(1), model.sample_image(2)]
        );
    }
}
