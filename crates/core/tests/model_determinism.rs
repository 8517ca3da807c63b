//! `CompiledModel` / `RaellaServer` determinism contract, on a graph that
//! exercises every operator (conv, linear, max-pool, global-avg-pool,
//! residual add, channel slice/concat/shuffle):
//!
//! * batched outputs are bit-identical to per-image `Graph::run` through
//!   an oracle that compiles each layer on its own and runs it with
//!   `run_batch_at_age` under `RaellaConfig::noise_seed` and a per-image
//!   vector counter — the compile-once/run-batch path changes the
//!   schedule, never the bytes;
//! * results are invariant across `RAELLA_THREADS` ∈ {1, 2, 4, 8}, in
//!   both ideal and noisy modes, statistics included;
//! * a per-image result does not depend on batch position, batch size, or
//!   the surrounding images;
//! * `RaellaServer` responses (outputs *and* per-request stats) are
//!   bit-identical to per-image `CompiledModel::run_batch` for every
//!   combination of worker count, `max_batch`, latency budget, queue
//!   bound (global and per-model — backpressure is pure admission
//!   control), `RAELLA_THREADS`, and submission interleaving — queue
//!   coalescing is pure scheduling, never arithmetic.
//!
//! Worker count is pinned through the `RAELLA_THREADS` environment
//! variable; this file keeps a single `#[test]` so the variable is never
//! mutated concurrently (integration-test binaries are separate
//! processes, so nothing outside this file observes it either).

use raella_core::engine::run_batch_at_age;
use raella_core::model::CompiledModel;
use raella_core::server::{Admission, RaellaServer};
use raella_core::{CompiledLayer, RaellaConfig, RunStats, SharedCompileCache};
use raella_nn::graph::Graph;
use raella_nn::layers::MatVecEngine;
use raella_nn::matrix::{Act, MatrixLayer};
use raella_nn::rng::SynthRng;
use raella_nn::synth::SynthLayer;
use raella_nn::tensor::Tensor;

/// A compact graph touching all nine operators (kept small so the whole
/// sweep stays cheap in debug builds).
fn all_ops_graph() -> Graph {
    let mut g = Graph::new();
    let input = g.input();
    let stem = g
        .conv(input, SynthLayer::conv(4, 8, 3, 11).build(), 4, 3, 1, 1)
        .expect("consistent");
    let pooled = g.max_pool(stem, 2, 2);
    let left = g.slice_channels(pooled, 0, 4);
    let right = g.slice_channels(pooled, 4, 8);
    let pw = g
        .conv(right, SynthLayer::conv(4, 4, 1, 13).build(), 4, 1, 1, 0)
        .expect("consistent");
    let merged = g.add(left, pw);
    let cat = g.concat(vec![left, merged]);
    let shuffled = g.shuffle_channels(cat, 2);
    let gap = g.global_avg_pool(shuffled);
    let fc = g.linear(gap, SynthLayer::linear(8, 10, 17).build());
    g.set_output(fc);
    g
}

/// The per-image oracle: every layer compiled on its own (no cache) and
/// run on an un-aged device, with the image's vectors numbered from 0
/// across its layers.
struct LayerByLayer<'c> {
    cfg: &'c RaellaConfig,
    next_vector: u64,
}

impl MatVecEngine for LayerByLayer<'_> {
    fn layer_outputs(&mut self, layer: &MatrixLayer, inputs: &[Act]) -> Vec<u8> {
        let compiled = CompiledLayer::compile(layer, self.cfg).expect("compiles");
        let first = self.next_vector;
        self.next_vector += (inputs.len() / layer.filter_len()) as u64;
        let mut stats = RunStats::default();
        run_batch_at_age(
            &compiled,
            inputs,
            &mut stats,
            self.cfg.noise_seed(),
            first,
            0,
        )
    }
}

fn sample_image(seed: u64) -> Tensor<u8> {
    let mut rng = SynthRng::new(seed ^ 0xD0D0);
    let data: Vec<u8> = (0..4 * 8 * 8)
        .map(|_| rng.exponential(40.0).min(255.0) as u8)
        .collect();
    Tensor::from_vec(data, &[4, 8, 8]).expect("consistent")
}

#[test]
fn run_batch_is_bit_identical_to_serial_and_thread_invariant() {
    let graph = all_ops_graph();
    for noise in [0.0, 0.06] {
        let cfg = RaellaConfig {
            crossbar_rows: 128,
            crossbar_cols: 128,
            search_vectors: 2,
            ..RaellaConfig::default()
        }
        .with_noise(noise);
        let model = CompiledModel::compile(&graph, &cfg).expect("compiles");
        let images: Vec<Tensor<u8>> = (0..3).map(|i| sample_image(100 + i)).collect();

        // Acceptance bar: every image of the batch matches the per-image
        // oracle walking the graph layer by layer.
        let baseline: Vec<Tensor<u8>> = images
            .iter()
            .map(|img| {
                let mut oracle = LayerByLayer {
                    cfg: &cfg,
                    next_vector: 0,
                };
                graph.run(img, &mut oracle).expect("runs")
            })
            .collect();
        let batch = model.run_batch(&images).expect("runs");
        assert_eq!(
            batch.outputs(),
            &baseline[..],
            "batch diverged from per-image Graph::run at noise {noise}"
        );

        // Thread-count invariance, via the env knob and directly.
        for threads in ["1", "2", "4", "8"] {
            std::env::set_var("RAELLA_THREADS", threads);
            let sweep = model.run_batch(&images).expect("runs");
            assert_eq!(
                sweep.outputs(),
                batch.outputs(),
                "outputs diverged at noise {noise}, {threads} threads"
            );
            assert_eq!(
                sweep.stats(),
                batch.stats(),
                "stats diverged at noise {noise}, {threads} threads"
            );
        }
        std::env::remove_var("RAELLA_THREADS");
        for threads in [1, 3] {
            let sweep = model.run_batch_threaded(&images, threads).expect("runs");
            assert_eq!(sweep.outputs(), batch.outputs(), "{threads} workers");
            assert_eq!(sweep.stats(), batch.stats(), "{threads} workers");
        }

        // Batch-composition independence: position, size, and neighbors
        // must not leak into an image's result.
        let singleton = model.run_batch(&images[2..3]).expect("runs");
        assert_eq!(singleton.outputs()[0], baseline[2], "singleton run");

        let reversed: Vec<Tensor<u8>> = images.iter().rev().cloned().collect();
        let rev_batch = model.run_batch(&reversed).expect("runs");
        for (i, out) in rev_batch.outputs().iter().enumerate() {
            assert_eq!(
                out,
                &baseline[images.len() - 1 - i],
                "image moved to position {i} changed"
            );
        }

        let duplicated = vec![images[0].clone(), images[1].clone(), images[0].clone()];
        let dup_batch = model.run_batch(&duplicated).expect("runs");
        assert_eq!(dup_batch.outputs()[0], baseline[0], "dup first");
        assert_eq!(dup_batch.outputs()[2], baseline[0], "dup last");
        assert_eq!(dup_batch.outputs()[1], baseline[1], "dup middle");

        // ---- serving surface: coalescing is scheduling, not arithmetic ----
        // Per-image baseline stats, for per-request comparison.
        let per_image: Vec<(Tensor<u8>, RunStats)> = images
            .iter()
            .map(|img| model.run_image(img).expect("runs"))
            .collect();

        // Sweep the coalescing + backpressure policy space: worker
        // counts, batch budgets, latency budgets (0 = flush immediately;
        // huge = always wait to fill), queue bounds (0 = unbounded; tight
        // bounds make the blocking submit actually wait for space), and
        // the engine-thread knob.
        type SweepEntry = (usize, usize, u64, Option<&'static str>, usize, usize);
        let sweep: &[SweepEntry] = &[
            (1, 4, 200, None, 0, 0),
            (2, 1, 0, None, 1, 0),
            (4, 2, 100, Some("2"), 2, 1),
            (3, 8, 50_000, None, 0, 0),
            (0, 3, 0, Some("1"), 1, 1),
            (2, 2, 0, None, 3, 2),
        ];
        for &(workers, max_batch, budget, threads, depth, model_depth) in sweep {
            match threads {
                Some(t) => std::env::set_var("RAELLA_THREADS", t),
                None => std::env::remove_var("RAELLA_THREADS"),
            }
            let server = RaellaServer::builder()
                .model(&graph, &cfg)
                .compile_cache(SharedCompileCache::new())
                .workers(workers)
                .max_batch(max_batch)
                .latency_budget_ticks(budget)
                .queue_depth(depth)
                .model_queue_depth(model_depth)
                .build()
                .expect("server builds");
            let tag = format!(
                "noise {noise}, {workers} workers, max_batch {max_batch}, budget {budget}, \
                 depth {depth}/{model_depth}"
            );
            // Blocking submits: on a bounded queue each call waits for
            // its slot, so admission order == submission order and
            // nothing is ever rejected.
            let handles: Vec<_> = images
                .iter()
                .map(|img| {
                    server
                        .submit(0, img.clone(), Admission::Block)
                        .expect("blocking submit admits")
                })
                .collect();
            for (i, handle) in handles.into_iter().enumerate() {
                assert_eq!(handle.sequence(), i as u64, "{tag}");
                let resp = handle.wait().expect("request succeeds");
                assert_eq!(resp.output(), &per_image[i].0, "output {i} — {tag}");
                assert_eq!(resp.stats(), &per_image[i].1, "stats {i} — {tag}");
            }
            let metrics = server.metrics();
            assert_eq!(
                metrics.rejected(),
                0,
                "blocking submits never reject — {tag}"
            );
            assert_eq!(metrics.accepted(), images.len() as u64, "{tag}");
            assert_eq!(metrics.served(), &[images.len() as u64], "{tag}");
            server.shutdown();
        }
        std::env::remove_var("RAELLA_THREADS");

        // Interleaved submitters racing a *bounded* queue: blocking
        // admission under contention must not change any request's result
        // (order only decides sequence numbers, and each submitter checks
        // its own responses).
        let server = RaellaServer::builder()
            .model(&graph, &cfg)
            .compile_cache(SharedCompileCache::new())
            .workers(2)
            .max_batch(2)
            .latency_budget_ticks(100)
            .queue_depth(2)
            .build()
            .expect("server builds");
        std::thread::scope(|scope| {
            for submitter in 0..2 {
                let server = &server;
                let images = &images;
                let per_image = &per_image;
                scope.spawn(move || {
                    for round in 0..2 {
                        let idx = (submitter + round) % images.len();
                        let resp = server
                            .submit(0, images[idx].clone(), Admission::Block)
                            .expect("blocking submit admits")
                            .wait()
                            .expect("request succeeds");
                        assert_eq!(
                            resp.output(),
                            &per_image[idx].0,
                            "interleaved output, noise {noise}"
                        );
                        assert_eq!(
                            resp.stats(),
                            &per_image[idx].1,
                            "interleaved stats, noise {noise}"
                        );
                    }
                });
            }
        });
        server.shutdown();
    }
}
