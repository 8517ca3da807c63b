//! Device-lifetime determinism: aged execution must be a pure function
//! of `(seed, age, generation)` — never of placement, thread count,
//! batch composition, or *when* a recalibration plan swap happened.
//!
//! The property sweeps random graphs × random shard plans × random
//! device ages under `RAELLA_THREADS` ∈ {1, 4}, in ideal and noisy base
//! modes, checking aged sharded execution bit-for-bit against the aged
//! unsharded engine. It then serves the same model through a sharded
//! [`RaellaServer`] with a live recalibration swap at a random point in
//! the request stream, and replays **every** response offline from its
//! `(generation, age)` stamp alone: a mid-serving swap must be
//! bit-identical to running the post-swap generation from scratch at the
//! same age.
//!
//! Worker count is pinned through the `RAELLA_THREADS` environment
//! variable. This file keeps a single `#[test]` so the variable is never
//! mutated concurrently (integration-test binaries are separate
//! processes, so nothing outside this file observes it either).

use proptest::prelude::*;

use raella_arch::tile::TileSpec;
use raella_core::compiler::SharedCompileCache;
use raella_core::model::CompiledModel;
use raella_core::server::{Admission, RaellaServer};
use raella_core::shard::{LayerPlacement, ShardPlan, ShardSlice};
use raella_core::{DeviceLifetime, RaellaConfig, RunStats};
use raella_nn::graph::{Graph, ValueArena};
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
    let mut rng = SynthRng::new(seed ^ 0xD81F7);
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

fn merged(buckets: &[RunStats]) -> RunStats {
    let mut total = RunStats::default();
    for b in buckets {
        total.merge(b);
    }
    total
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Aged execution is placement/thread/batch-composition invariant,
    /// and a live mid-serving plan swap is bit-identical to running the
    /// post-swap generation from scratch at the same age.
    #[test]
    fn aged_execution_and_live_plan_swap_are_deterministic(
        variant in 0usize..3,
        seed in 0u64..500,
        tiles in 1usize..6,
        mix in any::<u64>(),
        base_age in 0u64..200,
        swap_at in 1usize..4,
    ) {
        let (graph, images) = arb_graph(variant, seed);
        // CI runs this binary under a RAELLA_THREADS matrix; restore the
        // ambient value after every pinned sweep.
        let ambient = std::env::var("RAELLA_THREADS").ok();
        for noise in [0.0, 0.06] {
            let cfg = RaellaConfig {
                crossbar_rows: 32,
                crossbar_cols: 64,
                search_vectors: 2,
                ..RaellaConfig::default()
            }
            .with_noise(noise)
            .with_lifetime(DeviceLifetime::new(0.6, 0.05, 64));
            let cache = SharedCompileCache::new();
            let model = CompiledModel::compile_with_cache(&graph, &cfg, &cache)
                .expect("compiles");

            // Aged unsharded baseline, one image at a time.
            let baseline: Vec<(Tensor<u8>, RunStats)> = images
                .iter()
                .map(|img| model.run_image_at_age(img, base_age).expect("runs"))
                .collect();

            // Any placement × any thread count reproduces it exactly.
            let tile = TileSpec::new(32, 64);
            let placed = ShardPlan::place(&model, tiles, tile).expect("placement fits");
            let custom = random_plan(&model, tiles, tile, mix ^ seed);
            for (label, plan) in [("round-robin", &placed), ("random", &custom)] {
                for threads in ["1", "4"] {
                    std::env::set_var("RAELLA_THREADS", threads);
                    let mut arena = ValueArena::new();
                    for (img, (want_out, want_stats)) in images.iter().zip(&baseline) {
                        let (out, tile_stats) = plan
                            .run_image_in_at_age(&model, img, &mut arena, threads == "1", base_age)
                            .expect("sharded runs");
                        let tag = format!(
                            "{label}, {tiles} tiles, noise {noise}, age {base_age}, \
                             {threads} threads"
                        );
                        prop_assert_eq!(&out, want_out, "outputs: {}", tag);
                        prop_assert_eq!(&merged(&tile_stats), want_stats, "stats: {}", tag);
                    }
                }
                match &ambient {
                    Some(v) => std::env::set_var("RAELLA_THREADS", v),
                    None => std::env::remove_var("RAELLA_THREADS"),
                }
            }

            // Live plan swap mid-serving. Sequential blocking submits make
            // the admission-order ages deterministic: the device ages by
            // each image's vector count, resets to 0 at the swap.
            let server = RaellaServer::builder()
                .model(&graph, &cfg)
                .compile_cache(cache.clone())
                .workers(2)
                .max_batch(2)
                .latency_budget_ticks(0)
                .shards(tiles)
                .tile_spec(tile)
                .build()
                .expect("server builds");
            let per_image = server
                .model(0)
                .vectors_per_image(&images[0])
                .expect("counts");
            prop_assert!(per_image > 0);
            let mut log = Vec::new();
            for round in 0..swap_at + 2 {
                let img = images[round % images.len()].clone();
                let resp = server
                    .submit(0, img.clone(), Admission::Block)
                    .expect("admits")
                    .wait()
                    .expect("request succeeds");
                log.push((img, resp));
                if round + 1 == swap_at {
                    prop_assert!(server.recalibrate(0).expect("swap succeeds"));
                    prop_assert_eq!(server.generation(0), 1);
                    prop_assert_eq!(server.device_age(0), 0, "swap zeroes the age");
                }
            }
            // Replay every response offline from (generation, age) alone:
            // the swap changed *which* device served a request, never what
            // that device computes.
            let gen1 = model.reprogram(1).expect("reprograms");
            for (i, (img, resp)) in log.iter().enumerate() {
                let expected_gen = u64::from(i >= swap_at);
                prop_assert_eq!(resp.generation(), expected_gen, "request {}", i);
                let expected_age = if i < swap_at { i as u64 } else { (i - swap_at) as u64 }
                    * per_image;
                prop_assert_eq!(resp.age(), expected_age, "request {}", i);
                let reference = if resp.generation() == 0 { &model } else { &gen1 };
                let (want, want_stats) =
                    reference.run_image_at_age(img, resp.age()).expect("runs");
                prop_assert_eq!(resp.output(), &want, "request {} bytes", i);
                prop_assert_eq!(resp.stats(), &want_stats, "request {} stats", i);
            }
            server.shutdown();
        }
    }
}
