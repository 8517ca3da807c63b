//! Exact layer-shape tables for the seven evaluated DNNs.
//!
//! Shapes follow the public architectures (Torchvision CNNs at their
//! ImageNet input sizes; BERT-Large feed-forward at SQuAD sequence length
//! 384). Only geometry is recorded — weights are synthesized elsewhere —
//! because the analytic energy/throughput model needs nothing more.

use serde::{Deserialize, Serialize};

/// What kind of matrix operation a layer lowers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayerKind {
    /// Standard (possibly grouped) convolution.
    Conv,
    /// Depthwise convolution (`groups == in_c`): tiny 9-row filters.
    DepthwiseConv,
    /// Fully connected layer.
    Linear,
}

/// Geometry of one DNN layer, as the PIM mapper sees it.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LayerSpec {
    /// Layer name (unique within its network).
    pub name: String,
    /// Operation kind.
    pub kind: LayerKind,
    /// Input channels (features for [`LayerKind::Linear`]).
    pub in_c: usize,
    /// Output channels (filters).
    pub out_c: usize,
    /// Square kernel size (1 for linear layers).
    pub k: usize,
    /// Stride (1 for linear layers).
    pub stride: usize,
    /// Number of filter groups (`in_c` for depthwise).
    pub groups: usize,
    /// Output spatial height (1 for linear layers).
    pub out_h: usize,
    /// Output width — or, for sequence models, tokens per inference.
    pub out_w: usize,
    /// Whether the layer's input activations are signed (BERT).
    pub signed_inputs: bool,
}

impl LayerSpec {
    /// Dot-product length: crossbar rows one filter occupies.
    pub fn filter_len(&self) -> usize {
        self.in_c / self.groups * self.k * self.k
    }

    /// Total stored weights.
    pub fn weights(&self) -> u64 {
        self.out_c as u64 * self.filter_len() as u64
    }

    /// Input vectors (im2col columns) per inference.
    pub fn vectors(&self) -> u64 {
        self.out_h as u64 * self.out_w as u64
    }

    /// Multiply-accumulates per inference.
    pub fn macs(&self) -> u64 {
        self.weights() * self.vectors()
    }
}

/// A named network: ordered layer list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DnnShape {
    /// Network name as the paper reports it.
    pub name: String,
    /// Layers in execution order.
    pub layers: Vec<LayerSpec>,
}

impl DnnShape {
    /// Total MACs per inference (the paper's MACs/DNN).
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(LayerSpec::macs).sum()
    }

    /// Total stored weights.
    pub fn total_weights(&self) -> u64 {
        self.layers.iter().map(LayerSpec::weights).sum()
    }

    /// Whether any layer takes signed inputs.
    pub fn has_signed_inputs(&self) -> bool {
        self.layers.iter().any(|l| l.signed_inputs)
    }

    /// All seven evaluated networks, in the paper's order.
    pub fn all_evaluated() -> Vec<DnnShape> {
        vec![
            googlenet(),
            inception_v3(),
            resnet18(),
            resnet50(),
            shufflenet_v2(),
            mobilenet_v2(),
            bert_large_ff(),
        ]
    }
}

/// Incremental shape-table builder tracking the spatial size.
struct ShapeBuilder {
    name: String,
    layers: Vec<LayerSpec>,
    c: usize,
    h: usize,
    w: usize,
}

impl ShapeBuilder {
    fn new(name: &str, c: usize, h: usize, w: usize) -> Self {
        ShapeBuilder {
            name: name.to_string(),
            layers: Vec::new(),
            c,
            h,
            w,
        }
    }

    fn spatial(&self, k: usize, stride: usize, pad: usize) -> (usize, usize) {
        (
            (self.h + 2 * pad - k) / stride + 1,
            (self.w + 2 * pad - k) / stride + 1,
        )
    }

    /// Standard conv; `pad` chosen by caller (`k/2` for "same").
    fn conv(&mut self, name: &str, out_c: usize, k: usize, stride: usize, pad: usize) {
        let (oh, ow) = self.spatial(k, stride, pad);
        self.layers.push(LayerSpec {
            name: format!("{}.{name}", self.name),
            kind: LayerKind::Conv,
            in_c: self.c,
            out_c,
            k,
            stride,
            groups: 1,
            out_h: oh,
            out_w: ow,
            signed_inputs: false,
        });
        self.c = out_c;
        self.h = oh;
        self.w = ow;
    }

    /// Conv that branches off the current tensor without advancing state.
    fn conv_branch(
        &mut self,
        name: &str,
        in_c: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> (usize, usize) {
        let (oh, ow) = self.spatial(k, stride, pad);
        self.layers.push(LayerSpec {
            name: format!("{}.{name}", self.name),
            kind: LayerKind::Conv,
            in_c,
            out_c,
            k,
            stride,
            groups: 1,
            out_h: oh,
            out_w: ow,
            signed_inputs: false,
        });
        (oh, ow)
    }

    fn depthwise(&mut self, name: &str, k: usize, stride: usize, pad: usize) {
        let (oh, ow) = self.spatial(k, stride, pad);
        self.layers.push(LayerSpec {
            name: format!("{}.{name}", self.name),
            kind: LayerKind::DepthwiseConv,
            in_c: self.c,
            out_c: self.c,
            k,
            stride,
            groups: self.c,
            out_h: oh,
            out_w: ow,
            signed_inputs: false,
        });
        self.h = oh;
        self.w = ow;
    }

    fn pool(&mut self, k: usize, stride: usize, pad: usize) {
        let (oh, ow) = self.spatial(k, stride, pad);
        self.h = oh;
        self.w = ow;
    }

    fn linear(&mut self, name: &str, out: usize) {
        self.layers.push(LayerSpec {
            name: format!("{}.{name}", self.name),
            kind: LayerKind::Linear,
            in_c: self.c,
            out_c: out,
            k: 1,
            stride: 1,
            groups: 1,
            out_h: 1,
            out_w: 1,
            signed_inputs: false,
        });
        self.c = out;
    }

    fn finish(self) -> DnnShape {
        DnnShape {
            name: self.name,
            layers: self.layers,
        }
    }
}

/// ResNet18 at 224×224 (He et al., 2016): 20 convs + 1 fc.
pub fn resnet18() -> DnnShape {
    let mut b = ShapeBuilder::new("ResNet18", 3, 224, 224);
    b.conv("conv1", 64, 7, 2, 3);
    b.pool(3, 2, 1);
    basic_stage(&mut b, 1, 64, 2, 1);
    basic_stage(&mut b, 2, 128, 2, 2);
    basic_stage(&mut b, 3, 256, 2, 2);
    basic_stage(&mut b, 4, 512, 2, 2);
    b.pool(b.h, 1, 0); // global average pool
    b.linear("fc", 1000);
    b.finish()
}

/// One ResNet basic stage: `blocks` blocks of two 3×3 convs, with a 1×1
/// downsample shortcut when the stage changes stride or width.
fn basic_stage(b: &mut ShapeBuilder, stage: usize, width: usize, blocks: usize, stride: usize) {
    for blk in 0..blocks {
        let s = if blk == 0 { stride } else { 1 };
        if blk == 0 && (s != 1 || b.c != width) {
            let (oh, ow) = b.spatial(1, s, 0);
            b.layers.push(LayerSpec {
                name: format!("{}.layer{stage}.{blk}.downsample", b.name),
                kind: LayerKind::Conv,
                in_c: b.c,
                out_c: width,
                k: 1,
                stride: s,
                groups: 1,
                out_h: oh,
                out_w: ow,
                signed_inputs: false,
            });
        }
        b.conv(&format!("layer{stage}.{blk}.conv1"), width, 3, s, 1);
        b.conv(&format!("layer{stage}.{blk}.conv2"), width, 3, 1, 1);
    }
}

/// ResNet50 at 224×224: 52 convs + 1 fc (bottleneck blocks 3-4-6-3).
pub fn resnet50() -> DnnShape {
    let mut b = ShapeBuilder::new("ResNet50", 3, 224, 224);
    b.conv("conv1", 64, 7, 2, 3);
    b.pool(3, 2, 1);
    bottleneck_stage(&mut b, 1, 64, 3, 1);
    bottleneck_stage(&mut b, 2, 128, 4, 2);
    bottleneck_stage(&mut b, 3, 256, 6, 2);
    bottleneck_stage(&mut b, 4, 512, 3, 2);
    b.pool(b.h, 1, 0);
    b.linear("fc", 1000);
    b.finish()
}

fn bottleneck_stage(
    b: &mut ShapeBuilder,
    stage: usize,
    width: usize,
    blocks: usize,
    stride: usize,
) {
    let expansion = 4;
    for blk in 0..blocks {
        let s = if blk == 0 { stride } else { 1 };
        if blk == 0 {
            let (oh, ow) = b.spatial(1, s, 0);
            b.layers.push(LayerSpec {
                name: format!("{}.layer{stage}.{blk}.downsample", b.name),
                kind: LayerKind::Conv,
                in_c: b.c,
                out_c: width * expansion,
                k: 1,
                stride: s,
                groups: 1,
                out_h: oh,
                out_w: ow,
                signed_inputs: false,
            });
        }
        b.conv(&format!("layer{stage}.{blk}.conv1"), width, 1, 1, 0);
        b.conv(&format!("layer{stage}.{blk}.conv2"), width, 3, s, 1);
        b.conv(
            &format!("layer{stage}.{blk}.conv3"),
            width * expansion,
            1,
            1,
            0,
        );
    }
}

/// GoogLeNet at 224×224 (Szegedy et al., 2015): 57 convs + 1 fc.
pub fn googlenet() -> DnnShape {
    let mut b = ShapeBuilder::new("GoogLeNet", 3, 224, 224);
    b.conv("conv1", 64, 7, 2, 3);
    b.pool(3, 2, 1);
    b.conv("conv2", 64, 1, 1, 0);
    b.conv("conv3", 192, 3, 1, 1);
    b.pool(3, 2, 1);
    // (1x1, 3x3red, 3x3, 5x5red, 5x5, poolproj) per module.
    let modules: [(usize, usize, usize, usize, usize, usize); 9] = [
        (64, 96, 128, 16, 32, 32),     // 3a
        (128, 128, 192, 32, 96, 64),   // 3b
        (192, 96, 208, 16, 48, 64),    // 4a
        (160, 112, 224, 24, 64, 64),   // 4b
        (128, 128, 256, 24, 64, 64),   // 4c
        (112, 144, 288, 32, 64, 64),   // 4d
        (256, 160, 320, 32, 128, 128), // 4e
        (256, 160, 320, 32, 128, 128), // 5a
        (384, 192, 384, 48, 128, 128), // 5b
    ];
    for (i, &(c1, c3r, c3, c5r, c5, pp)) in modules.iter().enumerate() {
        let tag = ["3a", "3b", "4a", "4b", "4c", "4d", "4e", "5a", "5b"][i];
        let in_c = b.c;
        b.conv_branch(&format!("inception{tag}.b1"), in_c, c1, 1, 1, 0);
        b.conv_branch(&format!("inception{tag}.b2red"), in_c, c3r, 1, 1, 0);
        b.conv_branch(&format!("inception{tag}.b2"), c3r, c3, 3, 1, 1);
        b.conv_branch(&format!("inception{tag}.b3red"), in_c, c5r, 1, 1, 0);
        // Torchvision's GoogLeNet uses 3×3 in the "5×5" branch.
        b.conv_branch(&format!("inception{tag}.b3"), c5r, c5, 3, 1, 1);
        b.conv_branch(&format!("inception{tag}.b4"), in_c, pp, 1, 1, 0);
        b.c = c1 + c3 + c5 + pp;
        if tag == "3b" || tag == "4e" {
            b.pool(3, 2, 1);
        }
    }
    b.pool(b.h, 1, 0);
    b.linear("fc", 1000);
    b.finish()
}

/// InceptionV3 at 299×299 (Szegedy et al., 2016): 94 convs + 1 fc.
pub fn inception_v3() -> DnnShape {
    let mut b = ShapeBuilder::new("InceptionV3", 3, 299, 299);
    b.conv("stem1", 32, 3, 2, 0);
    b.conv("stem2", 32, 3, 1, 0);
    b.conv("stem3", 64, 3, 1, 1);
    b.pool(3, 2, 0);
    b.conv("stem4", 80, 1, 1, 0);
    b.conv("stem5", 192, 3, 1, 0);
    b.pool(3, 2, 0);
    // Three InceptionA blocks (pool_features 32, 64, 64).
    for (i, pf) in [32usize, 64, 64].iter().enumerate() {
        let in_c = b.c;
        let tag = format!("mixedA{i}");
        b.conv_branch(&format!("{tag}.b1x1"), in_c, 64, 1, 1, 0);
        b.conv_branch(&format!("{tag}.b5red"), in_c, 48, 1, 1, 0);
        b.conv_branch(&format!("{tag}.b5"), 48, 64, 5, 1, 2);
        b.conv_branch(&format!("{tag}.b3red"), in_c, 64, 1, 1, 0);
        b.conv_branch(&format!("{tag}.b3a"), 64, 96, 3, 1, 1);
        b.conv_branch(&format!("{tag}.b3b"), 96, 96, 3, 1, 1);
        b.conv_branch(&format!("{tag}.pool"), in_c, *pf, 1, 1, 0);
        b.c = 64 + 64 + 96 + pf;
    }
    // InceptionB (grid reduction to 17×17).
    {
        let in_c = b.c;
        b.conv_branch("mixedB.b3", in_c, 384, 3, 2, 0);
        b.conv_branch("mixedB.dred", in_c, 64, 1, 1, 0);
        b.conv_branch("mixedB.da", 64, 96, 3, 1, 1);
        b.conv_branch("mixedB.db", 96, 96, 3, 2, 0);
        b.pool(3, 2, 0);
        b.c = 384 + 96 + in_c;
    }
    // Four InceptionC blocks (7×7 factorized as 1×7/7×1; channels c7).
    for (i, c7) in [128usize, 160, 160, 192].iter().enumerate() {
        let in_c = b.c;
        let tag = format!("mixedC{i}");
        let c7 = *c7;
        b.conv_branch(&format!("{tag}.b1x1"), in_c, 192, 1, 1, 0);
        // 1×7 and 7×1 modeled as k=7 rows with 1/7 of the kernel area:
        // record as two 7-tap 1-D convs; geometry-wise we log k=7,
        // but weights() must be in_c·7 per filter, so use a dedicated
        // spec with k=7, groups=7 — instead, model 1-D convs exactly
        // via a helper below.
        conv1d_pair(&mut b, &tag, in_c, c7, 192);
        conv1d_quad(&mut b, &tag, in_c, c7, 192);
        b.conv_branch(&format!("{tag}.pool"), in_c, 192, 1, 1, 0);
        b.c = 192 * 4;
    }
    // InceptionD (grid reduction to 8×8).
    {
        let in_c = b.c;
        b.conv_branch("mixedD.ared", in_c, 192, 1, 1, 0);
        b.conv_branch("mixedD.a", 192, 320, 3, 2, 0);
        b.conv_branch("mixedD.bred", in_c, 192, 1, 1, 0);
        conv1d("mixedD.b1x7", &mut b, 192, 192);
        conv1d("mixedD.b7x1", &mut b, 192, 192);
        b.conv_branch("mixedD.b", 192, 192, 3, 2, 0);
        b.pool(3, 2, 0);
        b.c = 320 + 192 + in_c;
    }
    // Two InceptionE blocks.
    for i in 0..2 {
        let in_c = b.c;
        let tag = format!("mixedE{i}");
        b.conv_branch(&format!("{tag}.b1x1"), in_c, 320, 1, 1, 0);
        b.conv_branch(&format!("{tag}.b3red"), in_c, 384, 1, 1, 0);
        conv1d(&format!("{tag}.b3a"), &mut b, 384, 384);
        conv1d(&format!("{tag}.b3b"), &mut b, 384, 384);
        b.conv_branch(&format!("{tag}.dred"), in_c, 448, 1, 1, 0);
        b.conv_branch(&format!("{tag}.d3"), 448, 384, 3, 1, 1);
        conv1d(&format!("{tag}.d3a"), &mut b, 384, 384);
        conv1d(&format!("{tag}.d3b"), &mut b, 384, 384);
        b.conv_branch(&format!("{tag}.pool"), in_c, 192, 1, 1, 0);
        b.c = 320 + 2 * 384 + 2 * 384 + 192;
    }
    b.pool(b.h, 1, 0);
    b.linear("fc", 1000);
    b.finish()
}

/// A 1-D 7-tap (or 3-tap) conv modeled with exact weight count: one layer
/// with `k=1` geometry but `in_c` scaled by the tap count.
fn conv1d(name: &str, b: &mut ShapeBuilder, in_c: usize, out_c: usize) {
    // 1×7 conv ≡ filter_len = in_c·7: record in_c·7 with k=1 so
    // filter_len and MACs are exact while spatial size is unchanged.
    b.layers.push(LayerSpec {
        name: format!("{}.{name}", b.name),
        kind: LayerKind::Conv,
        in_c: in_c * 7,
        out_c,
        k: 1,
        stride: 1,
        groups: 1,
        out_h: b.h,
        out_w: b.w,
        signed_inputs: false,
    });
}

fn conv1d_pair(b: &mut ShapeBuilder, tag: &str, in_c: usize, mid: usize, out: usize) {
    b.conv_branch(&format!("{tag}.c7red"), in_c, mid, 1, 1, 0);
    conv1d(&format!("{tag}.c7a"), b, mid, mid);
    conv1d(&format!("{tag}.c7b"), b, mid, out);
}

fn conv1d_quad(b: &mut ShapeBuilder, tag: &str, in_c: usize, mid: usize, out: usize) {
    b.conv_branch(&format!("{tag}.d7red"), in_c, mid, 1, 1, 0);
    conv1d(&format!("{tag}.d7a"), b, mid, mid);
    conv1d(&format!("{tag}.d7b"), b, mid, mid);
    conv1d(&format!("{tag}.d7c"), b, mid, mid);
    conv1d(&format!("{tag}.d7d"), b, mid, out);
}

/// MobileNetV2 at 224×224 (Sandler et al., 2018): 52 convs + 1 fc.
pub fn mobilenet_v2() -> DnnShape {
    let mut b = ShapeBuilder::new("MobileNetV2", 3, 224, 224);
    b.conv("stem", 32, 3, 2, 1);
    // (expansion t, channels c, repeats n, stride s)
    let cfg: [(usize, usize, usize, usize); 7] = [
        (1, 16, 1, 1),
        (6, 24, 2, 2),
        (6, 32, 3, 2),
        (6, 64, 4, 2),
        (6, 96, 3, 1),
        (6, 160, 3, 2),
        (6, 320, 1, 1),
    ];
    let mut blk = 0;
    for &(t, c, n, s) in &cfg {
        for i in 0..n {
            let stride = if i == 0 { s } else { 1 };
            let hidden = b.c * t;
            if t != 1 {
                b.conv(&format!("block{blk}.expand"), hidden, 1, 1, 0);
            }
            b.depthwise(&format!("block{blk}.dw"), 3, stride, 1);
            b.conv(&format!("block{blk}.project"), c, 1, 1, 0);
            blk += 1;
        }
    }
    b.conv("head", 1280, 1, 1, 0);
    b.pool(b.h, 1, 0);
    b.linear("fc", 1000);
    b.finish()
}

/// ShuffleNetV2 ×1.0 at 224×224 (Ma et al., 2018): 56 convs + 1 fc.
pub fn shufflenet_v2() -> DnnShape {
    let mut b = ShapeBuilder::new("ShuffleNetV2", 3, 224, 224);
    b.conv("stem", 24, 3, 2, 1);
    b.pool(3, 2, 1);
    let stages: [(usize, usize); 3] = [(116, 4), (232, 8), (464, 4)];
    for (si, &(out_c, units)) in stages.iter().enumerate() {
        for u in 0..units {
            let tag = format!("stage{}.{u}", si + 2);
            let half = out_c / 2;
            if u == 0 {
                // Downsampling unit: both branches run, each on full input.
                let in_c = b.c;
                // Branch 1: depthwise stride 2 + 1×1.
                b.layers.push(LayerSpec {
                    name: format!("{}.{tag}.b1dw", b.name),
                    kind: LayerKind::DepthwiseConv,
                    in_c,
                    out_c: in_c,
                    k: 3,
                    stride: 2,
                    groups: in_c,
                    out_h: (b.h + 2 - 3) / 2 + 1,
                    out_w: (b.w + 2 - 3) / 2 + 1,
                    signed_inputs: false,
                });
                b.conv_branch(&format!("{tag}.b1pw"), in_c, half, 1, 2, 0);
                // Branch 2: 1×1, depthwise stride 2, 1×1.
                b.conv_branch(&format!("{tag}.b2pw1"), in_c, half, 1, 1, 0);
                let (oh, ow) = b.spatial(3, 2, 1);
                b.layers.push(LayerSpec {
                    name: format!("{}.{tag}.b2dw", b.name),
                    kind: LayerKind::DepthwiseConv,
                    in_c: half,
                    out_c: half,
                    k: 3,
                    stride: 2,
                    groups: half,
                    out_h: oh,
                    out_w: ow,
                    signed_inputs: false,
                });
                b.h = oh;
                b.w = ow;
                b.conv_branch(&format!("{tag}.b2pw2"), half, half, 1, 1, 0);
                b.c = out_c;
            } else {
                // Basic unit: right half goes through 1×1, dw, 1×1.
                b.conv_branch(&format!("{tag}.pw1"), half, half, 1, 1, 0);
                b.layers.push(LayerSpec {
                    name: format!("{}.{tag}.dw", b.name),
                    kind: LayerKind::DepthwiseConv,
                    in_c: half,
                    out_c: half,
                    k: 3,
                    stride: 1,
                    groups: half,
                    out_h: b.h,
                    out_w: b.w,
                    signed_inputs: false,
                });
                b.conv_branch(&format!("{tag}.pw2"), half, half, 1, 1, 0);
            }
        }
    }
    b.conv("conv5", 1024, 1, 1, 0);
    b.pool(b.h, 1, 0);
    b.linear("fc", 1000);
    b.finish()
}

/// BERT-Large feed-forward layers at sequence length 384 (SQuAD):
/// 24 encoder layers × (1024→4096, 4096→1024), signed inputs
/// (paper §6.2: only the feed-forward layers are accelerated).
pub fn bert_large_ff() -> DnnShape {
    let seq = 384;
    let mut layers = Vec::new();
    for l in 0..24 {
        layers.push(LayerSpec {
            name: format!("BERT-Large.encoder{l}.ff1"),
            kind: LayerKind::Linear,
            in_c: 1024,
            out_c: 4096,
            k: 1,
            stride: 1,
            groups: 1,
            out_h: 1,
            out_w: seq,
            signed_inputs: true,
        });
        layers.push(LayerSpec {
            name: format!("BERT-Large.encoder{l}.ff2"),
            kind: LayerKind::Linear,
            in_c: 4096,
            out_c: 1024,
            k: 1,
            stride: 1,
            groups: 1,
            out_h: 1,
            out_w: seq,
            signed_inputs: true,
        });
    }
    DnnShape {
        name: "BERT-Large".to_string(),
        layers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet18_macs_match_published_value() {
        let net = resnet18();
        // Published: ~1.82 GMACs for ResNet18 at 224×224.
        let g = net.total_macs() as f64 / 1e9;
        assert!((1.6..2.0).contains(&g), "ResNet18 {g:.2} GMACs");
        assert_eq!(net.layers.len(), 21);
    }

    #[test]
    fn resnet50_macs_match_published_value() {
        let net = resnet50();
        // Published: ~4.1 GMACs.
        let g = net.total_macs() as f64 / 1e9;
        assert!((3.7..4.5).contains(&g), "ResNet50 {g:.2} GMACs");
        assert_eq!(net.layers.len(), 54);
    }

    #[test]
    fn googlenet_macs_match_published_value() {
        let net = googlenet();
        // Published: ~1.5 GMACs for the torchvision variant.
        let g = net.total_macs() as f64 / 1e9;
        assert!((1.2..1.8).contains(&g), "GoogLeNet {g:.2} GMACs");
    }

    #[test]
    fn inception_v3_macs_match_published_value() {
        let net = inception_v3();
        // Published: ~5.7 GMACs at 299×299.
        let g = net.total_macs() as f64 / 1e9;
        assert!((4.8..6.5).contains(&g), "InceptionV3 {g:.2} GMACs");
    }

    #[test]
    fn mobilenet_v2_macs_match_published_value() {
        let net = mobilenet_v2();
        // Published: ~0.30 GMACs.
        let g = net.total_macs() as f64 / 1e9;
        assert!((0.25..0.37).contains(&g), "MobileNetV2 {g:.3} GMACs");
    }

    #[test]
    fn shufflenet_v2_macs_match_published_value() {
        let net = shufflenet_v2();
        // Published: ~0.146 GMACs for ×1.0.
        let g = net.total_macs() as f64 / 1e9;
        assert!((0.10..0.20).contains(&g), "ShuffleNetV2 {g:.3} GMACs");
    }

    #[test]
    fn bert_ff_macs_match_hand_computation() {
        let net = bert_large_ff();
        let expected = 24u64 * 2 * 1024 * 4096 * 384;
        assert_eq!(net.total_macs(), expected);
        assert!(net.has_signed_inputs());
    }

    #[test]
    fn compact_models_have_small_filters() {
        // The paper notes ShuffleNet/MobileNet poorly utilize 512-row
        // crossbars: depthwise layers have 9-row filters.
        for net in [mobilenet_v2(), shufflenet_v2()] {
            let tiny = net
                .layers
                .iter()
                .filter(|l| l.kind == LayerKind::DepthwiseConv)
                .all(|l| l.filter_len() == 9);
            assert!(tiny, "{} depthwise filter_len != 9", net.name);
        }
    }

    #[test]
    fn spatial_sizes_are_consistent() {
        for net in DnnShape::all_evaluated() {
            for layer in &net.layers {
                assert!(layer.out_h >= 1 && layer.out_w >= 1, "{}", layer.name);
                assert!(layer.in_c >= 1 && layer.out_c >= 1, "{}", layer.name);
                assert_eq!(layer.in_c % layer.groups, 0, "{}", layer.name);
                assert_eq!(layer.out_c % layer.groups, 0, "{}", layer.name);
            }
        }
    }

    #[test]
    fn all_evaluated_returns_seven_networks() {
        let nets = DnnShape::all_evaluated();
        assert_eq!(nets.len(), 7);
        let names: Vec<&str> = nets.iter().map(|n| n.name.as_str()).collect();
        assert!(names.contains(&"ResNet18"));
        assert!(names.contains(&"BERT-Large"));
    }

    #[test]
    fn resnet18_first_layer_geometry() {
        let net = resnet18();
        let l0 = &net.layers[0];
        assert_eq!(l0.filter_len(), 3 * 7 * 7);
        assert_eq!(l0.out_h, 112);
        assert_eq!((l0.out_c, l0.stride), (64, 2));
    }
}
