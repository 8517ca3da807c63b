//! Placement invariance: tile-sharded execution must be bit-identical to
//! the single-tile engine — outputs *and* statistics — for **any**
//! placement.
//!
//! The property sweeps random graphs × random shard plans (1..8 tiles,
//! random row budgets, and fully random custom placements: random
//! contiguous row-group partitions on random tiles) against the unsharded
//! `CompiledModel::run_batch`, in ideal and noisy modes, under
//! `RAELLA_THREADS` ∈ {1, 4}. It also checks that the per-tile statistics
//! buckets merge exactly to the unsharded stats — sharding attributes
//! work, it never changes it.
//!
//! Worker count is pinned through the `RAELLA_THREADS` environment
//! variable. This file keeps a single `#[test]` so the variable is never
//! mutated concurrently (integration-test binaries are separate
//! processes, so nothing outside this file observes it either).

use proptest::prelude::*;

use raella_arch::tile::TileSpec;
use raella_core::compiler::SharedCompileCache;
use raella_core::model::CompiledModel;
use raella_core::shard::{LayerPlacement, ShardPlan, ShardSlice};
use raella_core::{RaellaConfig, RunStats};
use raella_nn::graph::Graph;
use raella_nn::rng::SynthRng;
use raella_nn::synth::SynthLayer;
use raella_nn::tensor::Tensor;

/// A small graph whose first matrix layer spans several 32-row groups
/// (the interesting sharding case), shaped by `variant`.
fn arb_graph(variant: usize, seed: u64) -> (Graph, Vec<Tensor<u8>>) {
    let mut g = Graph::new();
    let input = g.input();
    let (channels, images) = match variant % 3 {
        // Long linear chain: 100 rows → 4 groups of 32.
        0 => {
            let gap = g.global_avg_pool(input);
            let fc1 = g.linear(gap, SynthLayer::linear(100, 6, seed).build());
            let fc2 = g.linear(fc1, SynthLayer::linear(6, 4, seed ^ 1).build());
            g.set_output(fc2);
            (100, 2)
        }
        // Conv stem (filter_len 36 → 2 groups) + linear tail.
        1 => {
            let c = g
                .conv(input, SynthLayer::conv(4, 6, 3, seed).build(), 4, 3, 1, 1)
                .expect("consistent conv");
            let gap = g.global_avg_pool(c);
            let fc = g.linear(gap, SynthLayer::linear(6, 5, seed ^ 2).build());
            g.set_output(fc);
            (4, 2)
        }
        // Residual branch sharing one conv layer twice.
        _ => {
            let shared = SynthLayer::conv(4, 4, 3, seed).build();
            let c1 = g
                .conv(input, shared.clone(), 4, 3, 1, 1)
                .expect("consistent conv");
            let c2 = g.conv(c1, shared, 4, 3, 1, 1).expect("consistent conv");
            let added = g.add(c1, c2);
            let gap = g.global_avg_pool(added);
            g.set_output(gap);
            (4, 2)
        }
    };
    let mut rng = SynthRng::new(seed ^ 0xBEEF);
    let images = (0..images)
        .map(|_| {
            let data: Vec<u8> = (0..channels * 6 * 6)
                .map(|_| rng.exponential(35.0).min(255.0) as u8)
                .collect();
            Tensor::from_vec(data, &[channels, 6, 6]).expect("consistent image")
        })
        .collect();
    (g, images)
}

/// A fully random placement: each layer's row groups are chopped into
/// random contiguous chunks, each assigned a random tile — far beyond
/// what `ShardPlan::place` would produce.
fn random_plan(model: &CompiledModel, tiles: usize, tile: TileSpec, mix: u64) -> ShardPlan {
    let mut state = mix | 1;
    let mut next = move || {
        // SplitMix-style step, deterministic per case.
        state = state
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x632B_E5AB);
        (state >> 33) as usize
    };
    let placements = model
        .compiled_layers()
        .iter()
        .map(|layer| {
            let n = layer.group_count();
            let mut slices = Vec::new();
            let mut start = 0;
            while start < n {
                let len = 1 + next() % (n - start);
                slices.push(ShardSlice {
                    tile: next() % tiles,
                    groups: start..start + len,
                });
                start += len;
            }
            LayerPlacement::new(slices)
        })
        .collect();
    ShardPlan::custom(model, tiles, tile, placements).expect("random plan is a valid partition")
}

fn merged(buckets: &[RunStats]) -> RunStats {
    let mut total = RunStats::default();
    for b in buckets {
        total.merge(b);
    }
    total
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any placement, any shard count, any row budget, any thread count,
    /// ideal or noisy: outputs and stats are bit-identical to the
    /// single-tile engine.
    #[test]
    fn any_placement_is_bit_identical_to_single_tile(
        variant in 0usize..3,
        seed in 0u64..500,
        tiles in 1usize..8,
        budget_groups in 1usize..4,
        mix in any::<u64>(),
    ) {
        let (graph, images) = arb_graph(variant, seed);
        // CI runs this binary under a RAELLA_THREADS matrix; restore the
        // ambient value after every pinned sweep so the baseline runs
        // (and later proptest cases) keep the matrix's worker count.
        let ambient = std::env::var("RAELLA_THREADS").ok();
        for noise in [0.0, 0.06] {
            let cfg = RaellaConfig {
                crossbar_rows: 32,
                crossbar_cols: 64,
                search_vectors: 2,
                ..RaellaConfig::default()
            }
            .with_noise(noise);
            let model =
                CompiledModel::compile_with_cache(&graph, &cfg, &SharedCompileCache::new())
                    .expect("compiles");
            let baseline = model.run_batch(&images).expect("unsharded runs");

            // Random row budget (in whole crossbar groups) → the tile
            // geometry `place` splits against; plus a fully random
            // custom placement.
            let tile = TileSpec::new(32 * budget_groups, 64);
            let placed = ShardPlan::place(&model, tiles, tile).expect("placement fits");
            let custom = random_plan(&model, tiles, tile, mix ^ seed);

            // One compiled model serves both plans: the plan is pure
            // metadata, running under it never touches the compiled
            // layers.
            for (label, plan) in [("round-robin", placed), ("random", custom)] {
                for threads in ["1", "4"] {
                    std::env::set_var("RAELLA_THREADS", threads);
                    let result = plan.run_batch(&model, &images).expect("sharded runs");
                    let tag = format!(
                        "{label}, {tiles} tiles, budget {budget_groups}, noise {noise}, \
                         {threads} threads"
                    );
                    prop_assert_eq!(result.outputs(), baseline.outputs(), "outputs: {}", tag);
                    prop_assert_eq!(result.stats(), baseline.stats(), "stats: {}", tag);
                    prop_assert_eq!(
                        &merged(result.tile_stats()),
                        baseline.stats(),
                        "tile buckets must merge to the whole: {}",
                        tag
                    );
                    prop_assert_eq!(result.tile_stats().len(), plan.tiles());
                }
                match &ambient {
                    Some(v) => std::env::set_var("RAELLA_THREADS", v),
                    None => std::env::remove_var("RAELLA_THREADS"),
                }

                // Explicit worker counts exercise the image-level fan-out
                // (threads > 1) and the per-tile fan-out (threads == 1).
                for workers in [1usize, 3] {
                    let result = plan
                        .run_batch_threaded(&model, &images, workers)
                        .expect("sharded runs");
                    prop_assert_eq!(result.outputs(), baseline.outputs());
                    prop_assert_eq!(result.stats(), baseline.stats());
                }
            }
        }
    }
}
