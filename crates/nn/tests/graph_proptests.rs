//! Property tests for graph structural validation.
//!
//! Two families of properties, plus plan-identity and arena-reuse checks:
//!
//! * Randomly wired *valid* DAGs plan, run, and report their matrix
//!   layers in execution order — checked against a recording engine, the
//!   invariant `CompiledModel`'s cursor-based layer matching relies on.
//! * Randomly *corrupted* graphs (forward/self references, wrong arity,
//!   missing inputs, out-of-range output) are rejected with
//!   [`NnError::InvalidNode`] from both `validate` and `run` — never a
//!   panic, and never a wrong answer from a malformed graph.

use proptest::prelude::*;

use raella_nn::graph::{Graph, Op};
use raella_nn::layers::{MatVecEngine, ReferenceEngine};
use raella_nn::matrix::{Act, MatrixLayer};
use raella_nn::synth::SynthLayer;
use raella_nn::{NnError, Tensor};

/// Engine wrapper that records the order layers are executed in and the
/// largest activation batch it is handed.
#[derive(Default)]
struct RecordingEngine {
    calls: Vec<String>,
    peak: usize,
}

impl MatVecEngine for RecordingEngine {
    fn layer_outputs(&mut self, layer: &MatrixLayer, inputs: &[Act]) -> Vec<u8> {
        self.calls.push(layer.name().to_string());
        self.peak = self.peak.max(inputs.len());
        ReferenceEngine.layer_outputs(layer, inputs)
    }
}

/// Builds a random DAG over rank-1 values: an input (flattened to 16 by
/// the first linear layers) plus a mix of 16→16 linear nodes and
/// residual adds wired to random earlier nodes.
///
/// `choices[i]` selects node i's op; `wiring` supplies the input picks.
fn random_linear_dag(choices: &[usize], wiring: &[usize]) -> Graph {
    let mut g = Graph::new();
    let input = g.input();
    // The first node must be a linear (adds need rank-1 operands of equal
    // length, which only linears produce from the CHW input).
    let mut nodes = vec![g.linear(input, SynthLayer::linear(16, 16, 1).name("lin0").build())];
    let mut linears = 1usize;
    let mut w = wiring.iter().cycle();
    let mut pick = |nodes: &[usize]| nodes[*w.next().expect("cycle") % nodes.len()];
    for &c in &choices[1..] {
        let node = if c == 0 {
            let a = pick(&nodes);
            let b = pick(&nodes);
            g.add(a, b)
        } else {
            let src = pick(&nodes);
            let layer = SynthLayer::linear(16, 16, 1 + linears as u64)
                .name(format!("lin{linears}"))
                .build();
            linears += 1;
            g.linear(src, layer)
        };
        nodes.push(node);
    }
    g.set_output(*nodes.last().expect("at least one node"));
    g
}

fn image16() -> Tensor<u8> {
    Tensor::from_vec((0..16).collect(), &[4, 2, 2]).expect("consistent")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Valid random DAGs validate, plan, and run; `matrix_layers()` lists
    /// exactly the layers the engine executes, in execution order.
    #[test]
    fn valid_dags_run_and_matrix_layers_match_execution_order(
        choices in prop::collection::vec(0usize..3, 1..12),
        wiring in prop::collection::vec(0usize..997, 4..16),
    ) {
        let g = random_linear_dag(&choices, &wiring);
        prop_assert!(g.validate().is_ok());
        let listed: Vec<String> = g
            .matrix_layers()
            .iter()
            .map(|l| l.name().to_string())
            .collect();
        let mut engine = RecordingEngine::default();
        let out = g.run(&image16(), &mut engine);
        prop_assert!(out.is_ok(), "valid graph failed: {:?}", out.err());
        prop_assert_eq!(engine.calls, listed);
    }

    /// Output markers pointing past the graph are rejected, not panicked
    /// on, at any graph size.
    #[test]
    fn out_of_range_output_is_invalid_node(
        choices in prop::collection::vec(0usize..3, 1..8),
        wiring in prop::collection::vec(0usize..997, 4..8),
        beyond in 0usize..100,
    ) {
        let mut g = random_linear_dag(&choices, &wiring);
        let nodes = 1 + choices.len(); // input + generated nodes
        g.set_output(nodes + beyond);
        prop_assert!(matches!(g.validate(), Err(NnError::InvalidNode { .. })));
        prop_assert!(matches!(
            g.run_reference(&image16()),
            Err(NnError::InvalidNode { .. })
        ));
    }

    /// Corrupted wiring — forward references, self references, wrong
    /// arity, or missing inputs — is rejected with `InvalidNode` and the
    /// offending node index, never a panic.
    #[test]
    fn corrupted_wiring_is_invalid_node(
        choices in prop::collection::vec(0usize..3, 1..8),
        wiring in prop::collection::vec(0usize..997, 4..8),
        kind in 0usize..5,
        skew in 0usize..7,
    ) {
        let mut g = random_linear_dag(&choices, &wiring);
        let nodes = 1 + choices.len();
        let bad = match kind {
            // Forward reference: second operand not yet computed.
            0 => g.push_node(Op::Add, vec![0, nodes + 1 + skew]),
            // Self reference: the new node consumes its own output.
            1 => g.push_node(Op::Add, vec![nodes, nodes]),
            // Wrong arity: add with a single operand.
            2 => g.push_node(Op::Add, vec![0]),
            // Missing inputs entirely.
            3 => g.push_node(Op::GlobalAvgPool, vec![]),
            // Input placeholders take no inputs.
            _ => g.push_node(Op::Input, vec![0]),
        };
        g.set_output(bad);
        let validated = g.validate();
        prop_assert!(
            matches!(validated, Err(NnError::InvalidNode { node, .. }) if node == bad),
            "kind {} gave {:?}", kind, validated
        );
        prop_assert!(matches!(
            g.run_reference(&image16()),
            Err(NnError::InvalidNode { .. })
        ));
    }

    /// Zero-input concat is variadic-but-not-empty.
    #[test]
    fn empty_concat_is_invalid_node(seed in 0usize..1000) {
        let _ = seed;
        let mut g = Graph::new();
        let _input = g.input();
        let bad = g.push_node(Op::Concat, vec![]);
        g.set_output(bad);
        prop_assert!(matches!(
            g.validate(),
            Err(NnError::InvalidNode { node, .. }) if node == bad
        ));
    }
}

/// Plan identity: `run_planned` must reject a plan built from a
/// *different* graph even when the node counts happen to match — the
/// per-graph fingerprint stored in the plan is the guard (the old
/// node-count check silently accepted same-size foreign plans).
#[test]
fn foreign_plan_with_same_node_count_is_rejected() {
    // Two structurally different graphs with identical node counts.
    let mut a = Graph::new();
    let input = a.input();
    let lin = a.linear(input, SynthLayer::linear(16, 16, 1).name("a0").build());
    let add = a.add(lin, lin);
    a.set_output(add);

    let mut b = Graph::new();
    let input = b.input();
    let lin = b.linear(input, SynthLayer::linear(16, 8, 2).name("b0").build());
    let add = b.add(lin, lin);
    b.set_output(add);

    assert_eq!(a.plan().unwrap().nodes(), b.plan().unwrap().nodes());
    assert_ne!(a.fingerprint(), b.fingerprint());

    let plan_a = a.plan().expect("a plans");
    let mut arena = raella_nn::graph::ValueArena::new();
    let err = b
        .run_planned(&plan_a, &image16(), &mut ReferenceEngine, &mut arena)
        .expect_err("foreign plan must be rejected");
    assert!(
        matches!(&err, NnError::InvalidNode { reason, .. } if reason.contains("different graph")),
        "unexpected error: {err:?}"
    );

    // The plan still works against its own graph, including after the
    // rejected attempt (the arena is reusable).
    assert!(a
        .run_planned(&plan_a, &image16(), &mut ReferenceEngine, &mut arena)
        .is_ok());
}

/// A graph's fingerprint is stable across clones and plan rebuilds, and
/// survives `set_output` (plans are per-output, identity is per-graph).
#[test]
fn fingerprint_is_stable_and_structural() {
    let g = {
        let mut g = Graph::new();
        let input = g.input();
        let lin = g.linear(input, SynthLayer::linear(16, 16, 3).name("x").build());
        let pool = g.global_avg_pool(lin);
        g.set_output(pool);
        g
    };
    let clone = g.clone();
    assert_eq!(g.fingerprint(), clone.fingerprint());
    assert_eq!(
        g.plan().unwrap().graph_fingerprint(),
        clone.plan().unwrap().graph_fingerprint()
    );

    let mut retargeted = g.clone();
    retargeted.set_output(1);
    assert_eq!(
        g.fingerprint(),
        retargeted.fingerprint(),
        "output choice is plan state, not graph identity"
    );

    // Appending any node changes identity.
    let mut grown = g.clone();
    grown.push_node(Op::GlobalAvgPool, vec![1]);
    assert_ne!(g.fingerprint(), grown.fingerprint());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random valid DAG pairs: a plan from one never runs on a
    /// structurally different other, regardless of node counts.
    #[test]
    fn random_foreign_plans_are_rejected(
        choices_a in prop::collection::vec(0usize..3, 1..10),
        wiring_a in prop::collection::vec(0usize..997, 4..12),
        choices_b in prop::collection::vec(0usize..3, 1..10),
        wiring_b in prop::collection::vec(0usize..997, 4..12),
    ) {
        let a = random_linear_dag(&choices_a, &wiring_a);
        let b = random_linear_dag(&choices_b, &wiring_b);
        // Identical structure legitimately transfers plans; only check
        // rejection when the graphs actually differ.
        if a.fingerprint() != b.fingerprint() {
            let plan_a = a.plan().expect("a plans");
            let mut arena = raella_nn::graph::ValueArena::new();
            let ran = b.run_planned(&plan_a, &image16(), &mut ReferenceEngine, &mut arena);
            prop_assert!(
                matches!(ran, Err(NnError::InvalidNode { .. })),
                "foreign plan accepted: {:?}", ran.map(|_| ())
            );
        }
    }
}

/// Arena reuse: streaming same-shape images through one `ValueArena`
/// sizes its pooled activation scratch for the largest matrix layer on
/// the first image and never reallocates it after, and every image's
/// output matches a run on a fresh arena (nothing stale leaks from one
/// image into the next).
#[test]
fn shared_arena_stops_growing_after_first_image() {
    let model = raella_nn::models::mini::mini_resnet18(0xBE);
    let plan = model.graph.plan().expect("valid graph");
    let mut shared = raella_nn::graph::ValueArena::new();
    let mut engine = RecordingEngine::default();
    let mut first_capacity = None;
    for seed in 0..4 {
        let image = model.sample_image(seed);
        let out = model
            .graph
            .run_planned(&plan, &image, &mut engine, &mut shared)
            .expect("runs");
        let capacity = shared.act_scratch_capacity();
        let first = *first_capacity.get_or_insert(capacity);
        assert!(
            first >= engine.peak && engine.peak > 0,
            "scratch capacity {first} below the largest layer's {} activations",
            engine.peak
        );
        assert_eq!(capacity, first, "image {seed} regrew the scratch");
        let fresh = model
            .graph
            .run_planned(
                &plan,
                &image,
                &mut ReferenceEngine,
                &mut raella_nn::graph::ValueArena::new(),
            )
            .expect("runs");
        assert_eq!(out, fresh, "image {seed}: shared arena changed the output");
    }
}
