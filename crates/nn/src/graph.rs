//! A small DAG executor for mini end-to-end models.
//!
//! The mini model zoo ([`crate::models`]) expresses each network family
//! (residual chains, inception branches, shuffle blocks) as a graph of the
//! operators in [`crate::layers`]. Running the same graph through the
//! integer [`ReferenceEngine`] and through an analog PIM engine, then
//! comparing predictions, is how the accuracy experiments (paper Table 4 and
//! Fig. 15) are reproduced without a dataset.

use crate::error::NnError;
use crate::layers::{
    concat_channels, global_avg_pool, max_pool2d, residual_add, shuffle_channels, slice_channels,
    Conv2d, Linear, MatVecEngine, ReferenceEngine,
};
use crate::matrix::{Act, MatrixLayer};
use crate::tensor::Tensor;

/// One graph operation.
#[derive(Debug, Clone)]
pub enum Op {
    /// The graph input placeholder (exactly one per graph, node 0).
    Input,
    /// 2-D convolution (with fused requantization + ReLU).
    Conv(Conv2d),
    /// Fully connected layer over the flattened input.
    Linear(Linear),
    /// Max pooling with square window `k` and stride.
    MaxPool {
        /// Window size.
        k: usize,
        /// Stride.
        stride: usize,
    },
    /// Global average pooling to one value per channel.
    GlobalAvgPool,
    /// Residual merge of two inputs (requantized average).
    Add,
    /// Channel concatenation of two or more inputs.
    Concat,
    /// Keeps channels `from..to` of a CHW input (group-conv plumbing).
    SliceChannels {
        /// First channel kept.
        from: usize,
        /// One past the last channel kept.
        to: usize,
    },
    /// ShuffleNet channel shuffle with the given group count.
    ShuffleChannels {
        /// Number of groups to interleave.
        groups: usize,
    },
}

/// Short operation name for diagnostics.
fn op_name(op: &Op) -> &'static str {
    match op {
        Op::Input => "input",
        Op::Conv(_) => "conv",
        Op::Linear(_) => "linear",
        Op::MaxPool { .. } => "max_pool",
        Op::GlobalAvgPool => "global_avg_pool",
        Op::Add => "add",
        Op::Concat => "concat",
        Op::SliceChannels { .. } => "slice_channels",
        Op::ShuffleChannels { .. } => "shuffle_channels",
    }
}

/// A node: an operation applied to earlier nodes' outputs.
#[derive(Debug, Clone)]
pub struct Node {
    /// The operation.
    pub op: Op,
    /// Indices of input nodes (must all be `<` this node's index).
    pub inputs: Vec<usize>,
}

/// A validated execution plan for a [`Graph`].
///
/// Planning runs the structural checks once — every input must reference an
/// earlier node, every operation must have its expected arity, and the
/// output must name a node — and precomputes, for every node in the
/// executed prefix, the last node that consumes its value, so execution can
/// free intermediate tensors the moment they are dead. Build one with
/// [`Graph::plan`] and reuse it across images via [`Graph::run_planned`].
///
/// A plan carries the identity fingerprint of the graph it was built from
/// ([`Graph::fingerprint`]); [`Graph::run_planned`] rejects a plan built
/// from a different graph — even one with the same node count — with
/// [`NnError::InvalidNode`].
#[derive(Debug, Clone)]
pub struct ExecPlan {
    /// Node count of the graph the plan was built from.
    nodes: usize,
    /// Structural fingerprint of the source graph (the plan identity
    /// token checked by [`Graph::run_planned`]).
    graph_fp: u64,
    /// The node whose value the plan returns.
    output: usize,
    /// `last_use[i]` = index of the last node in `0..=output` consuming
    /// node `i`'s value; the output itself is pinned past the end so it is
    /// never freed early.
    last_use: Vec<usize>,
}

impl ExecPlan {
    /// The node whose value this plan returns.
    pub fn output(&self) -> usize {
        self.output
    }

    /// Node count of the graph this plan was built from.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Fingerprint of the graph this plan was built from (matches that
    /// graph's [`Graph::fingerprint`]).
    pub fn graph_fingerprint(&self) -> u64 {
        self.graph_fp
    }
}

/// Reusable per-worker storage for intermediate node values and matrix-op
/// activation scratch.
///
/// One arena per executing thread: [`Graph::run_planned`] clears and
/// refills the slots in place, so streaming many images through the same
/// graph re-uses the bookkeeping allocation, and dead intermediates are
/// dropped as soon as their last consumer has run (instead of all living
/// until the end of the image). The arena also owns the im2col /
/// flattened-activation buffer every `Conv`/`Linear` node lowers into, so
/// a worker that keeps its arena across batches reaches zero steady-state
/// allocation on the matrix-op hot path.
#[derive(Debug, Default)]
pub struct ValueArena {
    values: Vec<Option<Tensor<u8>>>,
    /// im2col columns / flattened activations, reused by every matrix node.
    act_scratch: Vec<Act>,
}

impl ValueArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        ValueArena::default()
    }

    /// Clears all slots and ensures capacity for `nodes` values.
    fn reset(&mut self, nodes: usize) {
        self.values.clear();
        self.values.resize(nodes, None);
    }

    /// Capacity of the pooled activation-scratch buffer (observable for
    /// allocation-reuse tests).
    pub fn act_scratch_capacity(&self) -> usize {
        self.act_scratch.capacity()
    }
}

/// A mini DNN as a topologically ordered DAG.
///
/// ```
/// use raella_nn::graph::Graph;
/// use raella_nn::layers::ReferenceEngine;
/// use raella_nn::synth::SynthLayer;
/// use raella_nn::Tensor;
///
/// # fn main() -> Result<(), raella_nn::NnError> {
/// let mut g = Graph::new();
/// let input = g.input();
/// let c1 = g.conv(input, SynthLayer::conv(3, 8, 3, 1).build(), 3, 3, 1, 1)?;
/// let out = g.global_avg_pool(c1);
/// g.set_output(out);
///
/// let image = Tensor::zeros(&[3, 8, 8]);
/// let logits = g.run(&image, &mut ReferenceEngine)?;
/// assert_eq!(logits.shape(), &[8]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    output: usize,
    /// Memoized [`Graph::fingerprint`]; cleared by structural mutation
    /// (every node append funnels through [`Graph::push`]). Calibration
    /// mutates layer quant state only, which the fingerprint deliberately
    /// excludes.
    fp: std::sync::OnceLock<u64>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    fn push(&mut self, op: Op, inputs: Vec<usize>) -> usize {
        self.fp.take();
        self.nodes.push(Node { op, inputs });
        self.nodes.len() - 1
    }

    /// Adds the input placeholder and returns its node id.
    pub fn input(&mut self) -> usize {
        self.push(Op::Input, vec![])
    }

    /// Appends a raw node without structural checks — wiring is validated
    /// at plan time. The escape hatch for graph deserializers and the
    /// validation property tests; prefer the typed builders below.
    pub fn push_node(&mut self, op: Op, inputs: Vec<usize>) -> usize {
        self.push(op, inputs)
    }

    /// Adds a convolution node.
    ///
    /// # Errors
    ///
    /// Propagates [`Conv2d::new`] validation errors.
    pub fn conv(
        &mut self,
        input: usize,
        layer: MatrixLayer,
        in_c: usize,
        k: usize,
        stride: usize,
        padding: usize,
    ) -> Result<usize, NnError> {
        let conv = Conv2d::new(layer, in_c, k, stride, padding)?;
        Ok(self.push(Op::Conv(conv), vec![input]))
    }

    /// Adds a fully connected node.
    pub fn linear(&mut self, input: usize, layer: MatrixLayer) -> usize {
        self.push(Op::Linear(Linear { layer }), vec![input])
    }

    /// Adds a max-pool node.
    pub fn max_pool(&mut self, input: usize, k: usize, stride: usize) -> usize {
        self.push(Op::MaxPool { k, stride }, vec![input])
    }

    /// Adds a global-average-pool node.
    pub fn global_avg_pool(&mut self, input: usize) -> usize {
        self.push(Op::GlobalAvgPool, vec![input])
    }

    /// Adds a residual-add node.
    pub fn add(&mut self, a: usize, b: usize) -> usize {
        self.push(Op::Add, vec![a, b])
    }

    /// Adds a channel-concat node.
    pub fn concat(&mut self, inputs: Vec<usize>) -> usize {
        self.push(Op::Concat, inputs)
    }

    /// Adds a channel-slice node keeping channels `from..to`.
    pub fn slice_channels(&mut self, input: usize, from: usize, to: usize) -> usize {
        self.push(Op::SliceChannels { from, to }, vec![input])
    }

    /// Adds a channel-shuffle node.
    pub fn shuffle_channels(&mut self, input: usize, groups: usize) -> usize {
        self.push(Op::ShuffleChannels { groups }, vec![input])
    }

    /// Marks the node whose output the graph returns.
    pub fn set_output(&mut self, node: usize) {
        self.output = node;
    }

    /// All matrix layers in execution order (the PIM-mapped workload).
    pub fn matrix_layers(&self) -> Vec<&MatrixLayer> {
        self.nodes
            .iter()
            .filter_map(|n| match &n.op {
                Op::Conv(c) => Some(&c.layer),
                Op::Linear(l) => Some(&l.layer),
                _ => None,
            })
            .collect()
    }

    /// Validates the graph's structure: every input references an earlier
    /// node, every operation has its expected arity, and the output marks
    /// an existing node.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidNode`] naming the first offending node.
    pub fn validate(&self) -> Result<(), NnError> {
        self.plan().map(|_| ())
    }

    /// Builds the execution plan for the graph's marked output.
    ///
    /// # Errors
    ///
    /// Same as [`Graph::validate`].
    pub fn plan(&self) -> Result<ExecPlan, NnError> {
        self.plan_for(self.output)
    }

    /// Builds an execution plan returning `output`'s value instead of the
    /// graph's marked output — only nodes `0..=output` are executed (the
    /// prefix runs behind graph-level calibration).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidNode`] if `output` is not a node or any
    /// node in the prefix is structurally invalid.
    pub fn plan_for(&self, output: usize) -> Result<ExecPlan, NnError> {
        if output >= self.nodes.len() {
            return Err(NnError::InvalidNode {
                node: output,
                reason: format!(
                    "output is not a node (graph has {} nodes)",
                    self.nodes.len()
                ),
            });
        }
        for (i, node) in self.nodes.iter().enumerate() {
            for &inp in &node.inputs {
                if inp >= i {
                    return Err(NnError::InvalidNode {
                        node: i,
                        reason: format!("input {inp} is not an earlier node"),
                    });
                }
            }
            let expected = match &node.op {
                Op::Input => Some(0),
                Op::Conv(_)
                | Op::Linear(_)
                | Op::MaxPool { .. }
                | Op::GlobalAvgPool
                | Op::SliceChannels { .. }
                | Op::ShuffleChannels { .. } => Some(1),
                Op::Add => Some(2),
                Op::Concat => None, // variadic, at least one
            };
            match expected {
                Some(n) if node.inputs.len() != n => {
                    return Err(NnError::InvalidNode {
                        node: i,
                        reason: format!(
                            "{} takes {n} input(s), got {}",
                            op_name(&node.op),
                            node.inputs.len()
                        ),
                    });
                }
                None if node.inputs.is_empty() => {
                    return Err(NnError::InvalidNode {
                        node: i,
                        reason: "concat needs at least one input".into(),
                    });
                }
                _ => {}
            }
        }
        // Last consumer of each value within the executed prefix; the
        // output is pinned past the end so it survives to extraction.
        let mut last_use: Vec<usize> = (0..self.nodes.len()).collect();
        for (i, node) in self.nodes.iter().enumerate().take(output + 1) {
            for &inp in &node.inputs {
                last_use[inp] = i;
            }
        }
        last_use[output] = self.nodes.len();
        Ok(ExecPlan {
            nodes: self.nodes.len(),
            graph_fp: self.fingerprint(),
            output,
            last_use,
        })
    }

    /// Structural identity fingerprint: FNV-1a over every node's operation
    /// kind, operation parameters, wiring, and — for matrix nodes — the
    /// layer's name and shape. Weights and quantization state are
    /// deliberately excluded (the hash guards plan reuse, not weight
    /// integrity). Memoized after the first call and invalidated by
    /// structural mutation, so the per-image check in
    /// [`Graph::run_planned`] is one integer compare.
    pub fn fingerprint(&self) -> u64 {
        *self.fp.get_or_init(|| self.compute_fingerprint())
    }

    fn compute_fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100_0000_01b3);
        };
        for node in &self.nodes {
            let (tag, a, b) = match &node.op {
                Op::Input => (1u64, 0, 0),
                Op::Conv(c) => (
                    2,
                    (c.in_c * 31 + c.k) as u64,
                    (c.stride * 31 + c.padding) as u64,
                ),
                Op::Linear(_) => (3, 0, 0),
                Op::MaxPool { k, stride } => (4, *k as u64, *stride as u64),
                Op::GlobalAvgPool => (5, 0, 0),
                Op::Add => (6, 0, 0),
                Op::Concat => (7, node.inputs.len() as u64, 0),
                Op::SliceChannels { from, to } => (8, *from as u64, *to as u64),
                Op::ShuffleChannels { groups } => (9, *groups as u64, 0),
            };
            mix(tag);
            mix(a);
            mix(b);
            for &inp in &node.inputs {
                mix(inp as u64 ^ 0x5EED);
            }
            let layer = match &node.op {
                Op::Conv(c) => Some(&c.layer),
                Op::Linear(l) => Some(&l.layer),
                _ => None,
            };
            if let Some(layer) = layer {
                for byte in layer.name().bytes() {
                    mix(u64::from(byte));
                }
                mix(layer.filters() as u64);
                mix(layer.filter_len() as u64);
            }
        }
        h
    }

    /// Runs the graph on a CHW input through the given engine.
    ///
    /// Plans, allocates a fresh [`ValueArena`], and executes. Callers
    /// streaming many inputs should plan once and call
    /// [`Graph::run_planned`] with a reused arena instead.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidNode`] for malformed graphs (bad input
    /// references, wrong arity) and propagates operator shape errors.
    pub fn run(
        &self,
        input: &Tensor<u8>,
        engine: &mut dyn MatVecEngine,
    ) -> Result<Tensor<u8>, NnError> {
        let plan = self.plan()?;
        let mut arena = ValueArena::new();
        self.run_planned(&plan, input, engine, &mut arena)
    }

    /// Runs the graph with a prebuilt plan and a reusable arena.
    ///
    /// The input tensor is *borrowed* by `Op::Input` nodes (no per-node
    /// clone); intermediates are freed at their last use. Structural
    /// validation already happened at planning time, so per-run overhead is
    /// one arena reset.
    ///
    /// The plan must come from this graph's [`Graph::plan`]/
    /// [`Graph::plan_for`]. A foreign plan — built from a different graph,
    /// even one with the same node count — is rejected by comparing the
    /// plan's stored [`Graph::fingerprint`] against this graph's.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidNode`] if the plan was built from a
    /// different graph, and propagates operator shape errors.
    pub fn run_planned(
        &self,
        plan: &ExecPlan,
        input: &Tensor<u8>,
        engine: &mut dyn MatVecEngine,
        arena: &mut ValueArena,
    ) -> Result<Tensor<u8>, NnError> {
        if plan.nodes != self.nodes.len() {
            return Err(NnError::InvalidNode {
                node: plan.output,
                reason: format!(
                    "plan covers {} nodes but graph has {}",
                    plan.nodes,
                    self.nodes.len()
                ),
            });
        }
        if plan.graph_fp != self.fingerprint() {
            return Err(NnError::InvalidNode {
                node: plan.output,
                reason: format!(
                    "plan was built for a different graph (fingerprint \
                     {:016x}, this graph is {:016x})",
                    plan.graph_fp,
                    self.fingerprint()
                ),
            });
        }
        arena.reset(self.nodes.len());
        let ValueArena {
            values,
            act_scratch,
        } = arena;
        for (i, node) in self.nodes.iter().enumerate().take(plan.output + 1) {
            // Input nodes resolve to the borrowed image; everything else
            // reads the arena slot its producer filled.
            let arg = |j: usize| -> Result<&Tensor<u8>, NnError> {
                let idx = *node.inputs.get(j).ok_or(NnError::InvalidNode {
                    node: i,
                    reason: format!("missing input {j}"),
                })?;
                if matches!(self.nodes[idx].op, Op::Input) {
                    return Ok(input);
                }
                values[idx].as_ref().ok_or(NnError::InvalidNode {
                    node: i,
                    reason: format!("input {idx} was never computed"),
                })
            };
            let out = match &node.op {
                Op::Input => None,
                Op::Conv(conv) => Some(conv.forward_with(arg(0)?, engine, act_scratch)?),
                Op::Linear(lin) => Some(lin.forward_with(arg(0)?, engine, act_scratch)?),
                Op::MaxPool { k, stride } => Some(max_pool2d(arg(0)?, *k, *stride)?),
                Op::GlobalAvgPool => Some(global_avg_pool(arg(0)?)?),
                Op::Add => Some(residual_add(arg(0)?, arg(1)?)?),
                Op::Concat => {
                    let parts: Result<Vec<&Tensor<u8>>, NnError> =
                        (0..node.inputs.len()).map(arg).collect();
                    Some(concat_channels(&parts?)?)
                }
                Op::SliceChannels { from, to } => Some(slice_channels(arg(0)?, *from, *to)?),
                Op::ShuffleChannels { groups } => Some(shuffle_channels(arg(0)?, *groups)?),
            };
            values[i] = out;
            // Free values whose last consumer just ran.
            for &inp in &node.inputs {
                if plan.last_use[inp] == i {
                    values[inp] = None;
                }
            }
        }
        if matches!(self.nodes[plan.output].op, Op::Input) {
            // The only case that clones: the graph returns its input.
            return Ok(input.clone());
        }
        values[plan.output].take().ok_or(NnError::InvalidNode {
            node: plan.output,
            reason: "output node missing".into(),
        })
    }

    /// Runs the graph through the integer reference engine.
    ///
    /// # Errors
    ///
    /// Same as [`Graph::run`].
    pub fn run_reference(&self, input: &Tensor<u8>) -> Result<Tensor<u8>, NnError> {
        self.run(input, &mut ReferenceEngine)
    }

    /// Calibrates every matrix layer against the activations it actually
    /// receives when the graph runs on `images` — the graph-level analogue
    /// of post-training quantization calibration. Each layer's output
    /// scales are refit and its [`InputProfile`] is replaced by measured
    /// statistics, so downstream compile-time searches test with realistic
    /// inputs.
    ///
    /// Layers are calibrated in execution order, each seeing activations
    /// produced by already-calibrated upstream layers.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidNode`] for malformed graphs and
    /// propagates operator shape errors.
    ///
    /// [`InputProfile`]: crate::matrix::InputProfile
    pub fn calibrate(&mut self, images: &[Tensor<u8>]) -> Result<(), NnError> {
        for i in 0..self.nodes.len() {
            // Gather this node's input batch across all images by running
            // the (partially calibrated) prefix of the graph.
            let needs_calibration = matches!(self.nodes[i].op, Op::Conv(_) | Op::Linear(_));
            if !needs_calibration {
                continue;
            }
            let mut batch: Vec<Act> = Vec::new();
            for image in images {
                let input_idx = self.nodes[i].inputs[0];
                let upstream = self.run_prefix(image, input_idx)?;
                match &self.nodes[i].op {
                    Op::Conv(conv) => batch.extend(conv.im2col(&upstream)?),
                    Op::Linear(_) => {
                        batch.extend(upstream.as_slice().iter().map(|&v| Act::from(v)));
                    }
                    _ => unreachable!("filtered above"),
                }
            }
            let layer = match &mut self.nodes[i].op {
                Op::Conv(conv) => &mut conv.layer,
                Op::Linear(lin) => &mut lin.layer,
                _ => unreachable!("filtered above"),
            };
            if !batch.is_empty() {
                let profile =
                    crate::matrix::MatrixLayer::measure_profile(&batch, layer.signed_inputs());
                layer.set_input_profile(profile);
                layer.calibrate(&batch);
            }
        }
        Ok(())
    }

    /// Runs the graph up to (and including) `node`, returning its output.
    fn run_prefix(&self, input: &Tensor<u8>, node: usize) -> Result<Tensor<u8>, NnError> {
        let plan = self.plan_for(node)?;
        let mut arena = ValueArena::new();
        self.run_planned(&plan, input, &mut ReferenceEngine, &mut arena)
    }

    /// Index of the maximum output (prediction) after running the graph.
    ///
    /// # Errors
    ///
    /// Same as [`Graph::run`].
    pub fn predict(
        &self,
        input: &Tensor<u8>,
        engine: &mut dyn MatVecEngine,
    ) -> Result<usize, NnError> {
        let out = self.run(input, engine)?;
        Ok(argmax(out.as_slice()))
    }
}

/// Index of the maximum element (first one on ties). Returns 0 for empty.
pub fn argmax(xs: &[u8]) -> usize {
    xs.iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SynthLayer;

    fn small_graph() -> Graph {
        let mut g = Graph::new();
        let input = g.input();
        let c1 = g
            .conv(input, SynthLayer::conv(2, 4, 3, 1).build(), 2, 3, 1, 1)
            .unwrap();
        let p = g.max_pool(c1, 2, 2);
        let c2 = g
            .conv(p, SynthLayer::conv(4, 4, 3, 2).build(), 4, 3, 1, 1)
            .unwrap();
        let merged = g.add(p, c2);
        let gap = g.global_avg_pool(merged);
        let fc = g.linear(gap, SynthLayer::linear(4, 6, 3).build());
        g.set_output(fc);
        g
    }

    fn sample_image(c: usize, hw: usize, seed: u64) -> Tensor<u8> {
        use crate::rng::SynthRng;
        let mut rng = SynthRng::new(seed);
        let data: Vec<u8> = (0..c * hw * hw)
            .map(|_| rng.exponential(30.0).min(255.0) as u8)
            .collect();
        Tensor::from_vec(data, &[c, hw, hw]).unwrap()
    }

    #[test]
    fn graph_runs_end_to_end() {
        let g = small_graph();
        let out = g.run_reference(&sample_image(2, 8, 1)).unwrap();
        assert_eq!(out.shape(), &[6]);
    }

    #[test]
    fn graph_is_deterministic() {
        let g = small_graph();
        let img = sample_image(2, 8, 2);
        assert_eq!(
            g.run_reference(&img).unwrap(),
            g.run_reference(&img).unwrap()
        );
    }

    #[test]
    fn matrix_layers_found_in_order() {
        let g = small_graph();
        let names: Vec<&str> = g.matrix_layers().iter().map(|l| l.name()).collect();
        assert_eq!(names.len(), 3);
        assert!(names[0].starts_with("conv2x4"));
        assert!(names[2].starts_with("fc4x6"));
    }

    #[test]
    fn forward_reference_rejects_bad_node() {
        let mut g = Graph::new();
        let input = g.input();
        // Add node referencing itself (index 1 == its own index).
        g.nodes.push(Node {
            op: Op::Add,
            inputs: vec![input, 1],
        });
        g.set_output(1);
        assert!(matches!(
            g.run_reference(&Tensor::zeros(&[1, 2, 2])),
            Err(NnError::InvalidNode { .. })
        ));
    }

    #[test]
    fn add_requires_two_inputs() {
        let mut g = Graph::new();
        let input = g.input();
        g.nodes.push(Node {
            op: Op::Add,
            inputs: vec![input],
        });
        g.set_output(1);
        assert!(g.run_reference(&Tensor::zeros(&[1, 2, 2])).is_err());
    }

    #[test]
    fn argmax_picks_the_first_maximum() {
        assert_eq!(argmax(&[1, 9, 3]), 1);
        assert_eq!(argmax(&[5, 5]), 0);
    }

    #[test]
    fn slice_channels_keeps_range() {
        let mut g = Graph::new();
        let input = g.input();
        let s = g.slice_channels(input, 1, 2);
        g.set_output(s);
        let t = Tensor::from_vec((0u8..12).collect(), &[3, 2, 2]).unwrap();
        let out = g.run_reference(&t).unwrap();
        assert_eq!(out.shape(), &[1, 2, 2]);
        assert_eq!(out.as_slice(), &[4, 5, 6, 7]);
    }

    #[test]
    fn shuffle_channels_interleaves_groups() {
        let mut g = Graph::new();
        let input = g.input();
        let s = g.shuffle_channels(input, 2);
        g.set_output(s);
        // 4 channels of 1 pixel each: [0, 1, 2, 3] -> groups (0,1) (2,3)
        // shuffle to [0, 2, 1, 3].
        let t = Tensor::from_vec(vec![0u8, 1, 2, 3], &[4, 1, 1]).unwrap();
        let out = g.run_reference(&t).unwrap();
        assert_eq!(out.as_slice(), &[0, 2, 1, 3]);
    }

    #[test]
    fn shuffle_rejects_indivisible_groups() {
        let mut g = Graph::new();
        let input = g.input();
        let s = g.shuffle_channels(input, 3);
        g.set_output(s);
        let t = Tensor::<u8>::zeros(&[4, 1, 1]);
        assert!(g.run_reference(&t).is_err());
    }

    #[test]
    fn concat_graph_node_works() {
        let mut g = Graph::new();
        let input = g.input();
        let a = g
            .conv(input, SynthLayer::conv(1, 2, 1, 1).build(), 1, 1, 1, 0)
            .unwrap();
        let b = g
            .conv(input, SynthLayer::conv(1, 3, 1, 2).build(), 1, 1, 1, 0)
            .unwrap();
        let cat = g.concat(vec![a, b]);
        g.set_output(cat);
        let out = g.run_reference(&Tensor::zeros(&[1, 4, 4])).unwrap();
        assert_eq!(out.shape(), &[5, 4, 4]);
    }
}
