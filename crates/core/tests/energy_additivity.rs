//! Energy additivity: per-tile energy breakdowns must sum **bit-exactly**
//! (0 ulp) to the unsharded model's breakdown, for any random graph, any
//! random `ShardPlan::custom` placement, and any worker count — and a
//! serving `Response`'s energy must equal an offline replay's.
//!
//! The 0-ulp guarantee is structural, not numeric luck: the meter merges
//! integer event counts first and prices the merged counters once, so
//! "sum of parts" and "whole" price the very same integers.
//!
//! Worker count is pinned through the `RAELLA_THREADS` environment
//! variable. This file keeps a single `#[test]` so the variable is never
//! mutated concurrently (integration-test binaries are separate
//! processes, so nothing outside this file observes it either).

use proptest::prelude::*;

use raella_arch::tile::TileSpec;
use raella_core::compiler::SharedCompileCache;
use raella_core::model::CompiledModel;
use raella_core::server::RaellaServer;
use raella_core::shard::{LayerPlacement, ShardPlan, ShardSlice};
use raella_core::{MeterEvents, RaellaConfig};
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
    let mut rng = SynthRng::new(seed ^ 0xE7E6);
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
/// random contiguous chunks, each assigned a random tile.
fn random_plan(model: &CompiledModel, tiles: usize, tile: TileSpec, mix: u64) -> ShardPlan {
    let mut state = mix | 1;
    let mut next = move || {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any placement, any shard count, any thread count: per-tile energy
    /// breakdowns sum to the unsharded breakdown with zero ulp of error,
    /// and every served response's energy replays offline bit-for-bit.
    #[test]
    fn tile_energy_sums_bit_exactly_to_unsharded_breakdown(
        variant in 0usize..3,
        seed in 0u64..500,
        tiles in 1usize..6,
        budget_groups in 1usize..4,
        mix in any::<u64>(),
    ) {
        let (graph, images) = arb_graph(variant, seed);
        let cfg = RaellaConfig {
            crossbar_rows: 32,
            crossbar_cols: 64,
            search_vectors: 2,
            ..RaellaConfig::default()
        }
        .with_noise(0.06);
        let cache = SharedCompileCache::new();
        let model =
            CompiledModel::compile_with_cache(&graph, &cfg, &cache).expect("compiles");
        let baseline = model.run_batch(&images).expect("unsharded runs");
        let meter = model.energy_meter();
        let whole = meter.breakdown(&baseline.stats().meter_events());

        let tile = TileSpec::new(32 * budget_groups, 64);
        let plan = random_plan(&model, tiles, tile, mix ^ seed);

        // CI runs this binary under a RAELLA_THREADS matrix; restore the
        // ambient value after the pinned sweep.
        let ambient = std::env::var("RAELLA_THREADS").ok();
        for threads in ["1", "4"] {
            std::env::set_var("RAELLA_THREADS", threads);
            let result = plan.run_batch(&model, &images).expect("sharded runs");
            // Integer event counts are conserved exactly under sharding…
            let events: Vec<MeterEvents> = result
                .tile_stats()
                .iter()
                .map(|s| s.meter_events())
                .collect();
            prop_assert_eq!(
                MeterEvents::sum(&events),
                baseline.stats().meter_events(),
                "{} tiles, {} threads",
                tiles,
                threads
            );
            // …so pricing the merged counters is the unsharded
            // breakdown to the last bit, component by component.
            let summed = meter.merged_breakdown(&events);
            for ((label, part), total) in summed
                .values()
                .into_iter()
                .enumerate()
                .map(|(i, v)| (raella_core::EnergyBreakdown::LABELS[i], v))
                .zip(whole.values())
            {
                prop_assert_eq!(
                    part.to_bits(),
                    total.to_bits(),
                    "{}: {} vs {} ({} tiles, {} threads)",
                    label,
                    part,
                    total,
                    tiles,
                    threads
                );
            }
        }
        match &ambient {
            Some(v) => std::env::set_var("RAELLA_THREADS", v),
            None => std::env::remove_var("RAELLA_THREADS"),
        }

        // Serving surfaces the same numbers: every response's energy is
        // an offline replay of its (config, generation, age) triple.
        let server = RaellaServer::builder()
            .model(&graph, &cfg)
            .compile_cache(cache.clone())
            .workers(1)
            .max_batch(2)
            .latency_budget_ticks(0)
            .build()
            .expect("server builds");
        let handles = server.submit_many(0, images.iter().cloned()).expect("admits");
        let responses = RaellaServer::wait_all(handles).expect("all served");
        for (i, (image, resp)) in images.iter().zip(&responses).enumerate() {
            prop_assert_eq!(resp.selected_config(), 0, "no budget registered");
            let (out, stats) = model
                .run_image_at_age(image, resp.age())
                .expect("replay runs");
            prop_assert_eq!(&out, resp.output(), "request {}", i);
            prop_assert_eq!(&stats, resp.stats(), "request {}", i);
            prop_assert_eq!(
                &model.energy_breakdown(&stats),
                resp.energy(),
                "request {}",
                i
            );
        }
        server.shutdown();
    }
}
