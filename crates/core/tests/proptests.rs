//! Property-based tests for RAELLA's core invariants.

use proptest::prelude::*;

use raella_core::center::{center_cost, offsets, optimal_center, CenterSolver};
use raella_core::compiler::CompiledLayer;
use raella_core::engine::{run_batch_at_age, run_batch_parallel_at_age, RunStats};
use raella_core::RaellaConfig;
use raella_nn::matrix::{InputProfile, MatrixLayer};
use raella_nn::quant::OutputQuant;
use raella_xbar::adc::AdcSpec;
use raella_xbar::slicing::Slicing;

proptest! {
    /// `w⁺ − w⁻ = w − φ` and `w⁺·w⁻ = 0` for the whole domain.
    #[test]
    fn offsets_identity(w in 0u8..=255, phi in 0i32..=255) {
        let (p, n) = offsets(w, phi);
        prop_assert_eq!(i32::from(p) - i32::from(n), i32::from(w) - phi);
        prop_assert!(p == 0 || n == 0);
    }

    /// The Eq. (2) optimum is never beaten by any other center.
    #[test]
    fn optimal_center_is_global_minimum(
        weights in prop::collection::vec(0u8..=255, 8..64),
        probe in 1i32..=255,
    ) {
        let slicing = Slicing::raella_default_weights();
        let best = optimal_center(&weights, &slicing);
        prop_assert!(
            center_cost(&weights, &slicing, best)
                <= center_cost(&weights, &slicing, probe) + 1e-6
        );
    }

    /// Center cost is zero exactly when all offsets are zero (constant
    /// filter at the center).
    #[test]
    fn constant_filter_has_zero_cost(v in 1u8..=255, n in 4usize..64) {
        let weights = vec![v; n];
        let slicing = Slicing::raella_default_weights();
        let phi = optimal_center(&weights, &slicing);
        prop_assert_eq!(phi, i32::from(v));
        prop_assert_eq!(center_cost(&weights, &slicing, phi), 0.0);
    }
}

/// The brute-force Eq. (2) argmin: [`center_cost`] at every φ in
/// `1..=255`, smallest φ on ties.
fn brute_force_center(weights: &[u8], slicing: &Slicing) -> i32 {
    let mut best = (1, f64::INFINITY);
    for phi in 1..=255 {
        let cost = center_cost(weights, slicing, phi);
        if cost < best.1 {
            best = (phi, cost);
        }
    }
    best.0
}

/// Weight vectors for the center solver: arbitrary ones, and few-valued,
/// symmetric ones whose costs tie across centers.
fn arb_center_weights() -> impl Strategy<Value = Vec<u8>> {
    (
        any::<bool>(),
        prop::collection::vec(0u8..=255, 1..96),
        (0u8..=255, 0u8..=40, 1usize..6),
    )
        .prop_map(|(two_valued, arbitrary, (mid, half, n))| {
            if two_valued {
                let (lo, hi) = (mid.saturating_sub(half), mid.saturating_add(half));
                (0..2 * n)
                    .map(|i| if i % 2 == 0 { lo } else { hi })
                    .collect()
            } else {
                arbitrary
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The occupied-bin solver returns the brute-force argmin of
    /// `center_cost`, ties included, under every slicing the adaptive
    /// search can try.
    #[test]
    fn optimal_center_matches_brute_force_for_every_slicing(weights in arb_center_weights()) {
        for slicing in Slicing::enumerate(8, 4) {
            prop_assert_eq!(
                optimal_center(&weights, &slicing),
                brute_force_center(&weights, &slicing),
                "slicing {}",
                slicing
            );
        }
    }
}

/// Two-valued filters tie Eq. (2)'s cost across centers; the solver must
/// break the tie towards the smallest φ, as the brute-force scan does.
#[test]
fn optimal_center_breaks_cost_ties_towards_the_smallest_center() {
    let weights = [100u8, 101];
    let slicing = Slicing::uniform(1, 8);
    let best = brute_force_center(&weights, &slicing);
    let cost = center_cost(&weights, &slicing, best);
    let tied = (best + 1..=255).filter(|&phi| center_cost(&weights, &slicing, phi) == cost);
    assert!(tied.count() > 0, "the fixture must tie");
    assert_eq!(optimal_center(&weights, &slicing), best);
}

/// The first crossbar row group of every `stride`-th filter of `layer`,
/// starting at `offset`, as the compiler cuts them.
fn sampled_groups(layer: &MatrixLayer, stride: usize, offset: usize) -> Vec<&[u8]> {
    let rows = RaellaConfig::default().crossbar_rows;
    (offset % layer.filters()..layer.filters())
        .step_by(stride)
        .map(|f| {
            let weights = layer.filter_weights(f);
            &weights[..weights.len().min(rows)]
        })
        .collect()
}

/// The solver on real filters: every mini_resnet18 matrix layer under
/// every slicing the search can try, one sampled filter per pair. Layers
/// are checked on scoped threads to keep the brute force's debug-build
/// wall time down.
#[test]
fn center_solver_matches_brute_force_on_mini_resnet18_filters() {
    let mini = raella_nn::models::mini::mini_resnet18(0xBE);
    let slicings = Slicing::enumerate(8, 4);
    std::thread::scope(|scope| {
        for layer in mini.graph.matrix_layers() {
            let slicings = &slicings;
            scope.spawn(move || {
                for (k, slicing) in slicings.iter().enumerate() {
                    let group = sampled_groups(layer, layer.filters(), 7 * k)[0];
                    assert_eq!(
                        CenterSolver::new(slicing).solve(group),
                        brute_force_center(group, slicing),
                        "{} filter {}, slicing {slicing}",
                        layer.name(),
                        7 * k % layer.filters()
                    );
                }
            });
        }
    });
}

/// One solver reused across a layer's filters answers as a fresh solver
/// per filter does.
#[test]
fn a_reused_center_solver_matches_a_fresh_one_per_filter() {
    let mini = raella_nn::models::mini::mini_resnet18(0xBE);
    let slicings = Slicing::enumerate(8, 4);
    for (l, layer) in mini.graph.matrix_layers().into_iter().enumerate() {
        for slicing in slicings.iter().skip(l).step_by(18) {
            let solver = CenterSolver::new(slicing);
            for group in sampled_groups(layer, 4, l) {
                assert_eq!(
                    solver.solve(group),
                    optimal_center(group, slicing),
                    "{}, slicing {slicing}",
                    layer.name()
                );
            }
        }
    }
}

/// One solver shared by a slice-count group (as the slicing search builds
/// it) answers for each slicing as that slicing's own solver does.
#[test]
fn a_shared_center_solver_matches_one_solver_per_slicing() {
    let mini = raella_nn::models::mini::mini_resnet18(0xBE);
    let mut slicings = Slicing::enumerate(8, 4);
    slicings.sort_by_key(Slicing::num_slices);
    for (l, layer) in mini.graph.matrix_layers().into_iter().enumerate() {
        for group in slicings.chunk_by(|a, b| a.num_slices() == b.num_slices()) {
            let shared = CenterSolver::shared(group);
            for weights in sampled_groups(layer, 5, l) {
                let mut centers = vec![0u8; group.len()];
                shared.solve_each(weights, &mut centers);
                for (slicing, &center) in group.iter().zip(&centers) {
                    assert_eq!(
                        i32::from(center),
                        CenterSolver::new(slicing).solve(weights),
                        "{}, slicing {slicing}",
                        layer.name()
                    );
                }
            }
        }
    }
}

/// A small random layer for engine equivalence properties.
fn arb_layer() -> impl Strategy<Value = MatrixLayer> {
    (2usize..5, 8usize..40, 0u64..1000).prop_map(|(filters, len, seed)| {
        use raella_nn::synth::SynthLayer;
        SynthLayer::linear(len, filters, seed).build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// With an unbounded ADC and no noise, the full analog pipeline —
    /// center+offset, slicing, speculation, recovery, requantization —
    /// reproduces the integer reference bit for bit.
    #[test]
    fn unbounded_adc_is_exact(layer in arb_layer(), slicing_idx in 0usize..108, seed in 0u64..100) {
        let all = Slicing::enumerate(8, 4);
        let slicing = all[slicing_idx % all.len()].clone();
        let mut cfg = RaellaConfig {
            crossbar_rows: 64,
            crossbar_cols: 64,
            ..RaellaConfig::default()
        };
        cfg.adc = AdcSpec::new(16, true);
        let compiled = CompiledLayer::with_slicing(&layer, slicing, &cfg).expect("valid");
        let inputs = layer.sample_inputs(2, seed);
        let mut stats = RunStats::default();
        let analog = run_batch_at_age(&compiled, &inputs, &mut stats, 0, 0, 0);
        prop_assert_eq!(analog, layer.reference_outputs(&inputs));
    }

    /// Speculative and bit-serial schedules agree whenever the ADC never
    /// saturates (speculation only changes *how* sums are read).
    #[test]
    fn schedules_agree_without_saturation(layer in arb_layer(), seed in 0u64..100) {
        let mut cfg = RaellaConfig {
            crossbar_rows: 64,
            crossbar_cols: 64,
            ..RaellaConfig::default()
        };
        cfg.adc = AdcSpec::new(16, true);
        let slicing = Slicing::raella_default_weights();
        let spec = CompiledLayer::with_slicing(&layer, slicing.clone(), &cfg).expect("valid");
        let bs_cfg = cfg.clone().without_speculation();
        let bs = CompiledLayer::with_slicing(&layer, slicing, &bs_cfg).expect("valid");
        let inputs = layer.sample_inputs(2, seed);
        let mut s1 = RunStats::default();
        let mut s2 = RunStats::default();
        prop_assert_eq!(
            run_batch_at_age(&spec, &inputs, &mut s1, 0, 0, 0),
            run_batch_at_age(&bs, &inputs, &mut s2, 0, 0, 0)
        );
        // And speculation never converts more than bit-serial.
        prop_assert!(s1.events.adc_converts <= s2.events.adc_converts);
    }

    /// Compiled levels always reconstruct `w − φ` exactly, for any layer.
    #[test]
    fn compiled_levels_reconstruct_offsets(layer in arb_layer()) {
        let cfg = RaellaConfig {
            crossbar_rows: 64,
            crossbar_cols: 64,
            ..RaellaConfig::default()
        };
        let slicing = Slicing::raella_default_weights();
        let compiled = CompiledLayer::with_slicing(&layer, slicing.clone(), &cfg).expect("valid");
        for (f, gs) in compiled.groups().iter().enumerate() {
            let ws = layer.filter_weights(f);
            for g in gs {
                for r in 0..g.rows {
                    let values: Vec<i64> = (0..slicing.num_slices())
                        .map(|s| i64::from(g.levels[s][r]))
                        .collect();
                    prop_assert_eq!(
                        slicing.reconstruct(&values),
                        i64::from(ws[g.row_start + r]) - i64::from(g.center)
                    );
                }
            }
        }
    }
}

/// An arbitrary statistics block (every counter independently drawn).
fn arb_stats() -> impl Strategy<Value = RunStats> {
    (
        (
            0u64..1000,
            0u64..1000,
            0u64..1000,
            0u64..1000,
            0u64..1000,
            0u64..1000,
        ),
        (
            0u64..1000,
            0u64..1000,
            0u64..1000,
            0u64..1000,
            0u64..1000,
            0u64..1000,
            0u64..1000,
        ),
    )
        .prop_map(|(e, r)| {
            let mut s = RunStats::default();
            s.events.adc_converts = e.0;
            s.events.dac_pulses = e.1;
            s.events.row_activations = e.2;
            s.events.device_charge = e.3;
            s.events.cycles = e.4;
            s.events.macs = e.5;
            s.spec_attempts = r.0;
            s.spec_failures = r.1;
            s.recovery_converts = r.2;
            s.recovery_saturations = r.3;
            s.bitserial_converts = r.4;
            s.bitserial_saturations = r.5;
            s.vectors = r.6;
            s
        })
}

proptest! {
    /// `RunStats::merge` is commutative: a⊕b = b⊕a. This is what lets
    /// parallel workers merge their local deltas in any order.
    #[test]
    fn runstats_merge_is_commutative(a in arb_stats(), b in arb_stats()) {
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        prop_assert_eq!(ab, ba);
    }

    /// `RunStats::merge` is associative: (a⊕b)⊕c = a⊕(b⊕c). This is what
    /// lets the batch executor group vectors into blocks arbitrarily.
    #[test]
    fn runstats_merge_is_associative(a in arb_stats(), b in arb_stats(), c in arb_stats()) {
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// The default stats block is the merge identity.
    #[test]
    fn runstats_merge_identity(a in arb_stats()) {
        let mut merged = a;
        merged.merge(&RunStats::default());
        prop_assert_eq!(merged, a);
        let mut from_zero = RunStats::default();
        from_zero.merge(&a);
        prop_assert_eq!(from_zero, a);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Serial and parallel batch execution agree bit-for-bit — outputs and
    /// statistics — on arbitrary layers, with and without analog noise.
    #[test]
    fn parallel_batch_matches_serial(layer in arb_layer(), noisy: bool, seed in 0u64..100) {
        let mut cfg = RaellaConfig {
            crossbar_rows: 64,
            crossbar_cols: 64,
            ..RaellaConfig::default()
        };
        if noisy {
            cfg = cfg.with_noise(0.08);
        }
        let compiled =
            CompiledLayer::with_slicing(&layer, Slicing::raella_default_weights(), &cfg)
                .expect("valid");
        let inputs = layer.sample_inputs(6, seed);
        let mut s_serial = RunStats::default();
        let mut s_par = RunStats::default();
        let serial = run_batch_at_age(&compiled, &inputs, &mut s_serial, seed, 0, 0);
        let parallel = run_batch_parallel_at_age(&compiled, &inputs, &mut s_par, seed, 0, 0);
        prop_assert_eq!(serial, parallel);
        prop_assert_eq!(s_serial, s_par);
    }

    /// Degenerate inputs (all zero) produce the reference outputs exactly —
    /// nothing in the analog path invents charge from nothing.
    #[test]
    fn all_zero_inputs_are_exact(filters in 2usize..6, len in 8usize..40) {
        let quant = OutputQuant::new(
            vec![0.5; filters],
            vec![10.0; filters],
            vec![128; filters],
        );
        let layer = MatrixLayer::new(
            "zeros",
            filters,
            len,
            vec![128; filters * len],
            quant,
            InputProfile::relu_default(),
        )
        .expect("valid");
        let cfg = RaellaConfig {
            crossbar_rows: 64,
            crossbar_cols: 64,
            ..RaellaConfig::default()
        };
        let compiled =
            CompiledLayer::with_slicing(&layer, Slicing::raella_default_weights(), &cfg)
                .expect("valid");
        let inputs = vec![0i16; len * 2];
        let mut stats = RunStats::default();
        let analog = run_batch_at_age(&compiled, &inputs, &mut stats, 0, 0, 0);
        prop_assert_eq!(analog, layer.reference_outputs(&inputs));
    }
}
