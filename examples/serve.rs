//! Multi-model serving through the `RaellaServer` front door.
//!
//! Builds one server over two mini models (ResNet18 + ShuffleNetV2), both
//! compiled through the process-wide `SharedCompileCache` and fronted by a
//! depth-bounded submission queue, then drives it the way a traffic
//! generator would: several submitter threads racing blocking `submit`
//! calls, responses collected per request with queue/compute timing, and
//! the `ServerMetrics` admission/fairness counters printed at the end. A
//! second server over the *same* ResNet18 is built afterwards to show the
//! process-wide cache absorbing the whole recompile.
//!
//! ```sh
//! cargo run --release --example serve
//! ```

use std::time::Instant;

use raella::nn::models::mini::{mini_resnet18, mini_shufflenet_v2};
use raella::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let resnet = mini_resnet18(42);
    let shuffle = mini_shufflenet_v2(43);
    let cfg = RaellaConfig {
        search_vectors: 3,
        ..RaellaConfig::default()
    };

    let t0 = Instant::now();
    let server = RaellaServer::builder()
        .model(&resnet.graph, &cfg) // model 0
        .model(&shuffle.graph, &cfg) // model 1
        .max_batch(4)
        .latency_budget_ticks(500)
        // Backpressure: at most 16 requests queued server-wide, at most
        // 12 of them for any one model — `Admission::Block` waits for a
        // slot, `Admission::Fail` fails fast with `CoreError::QueueFull`.
        .queue_depth(16)
        .model_queue_depth(12)
        .build()?;
    let cache = server.compile_cache();
    println!(
        "built a {}-model server in {:.2?}: {} workers, {} cached layer compiles ({} hits)",
        server.model_count(),
        t0.elapsed(),
        server.worker_count(),
        cache.len(),
        cache.hits(),
    );

    // Two submitter threads race interleaved traffic at both models.
    let t1 = Instant::now();
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2u64)
            .map(|submitter| {
                let server = &server;
                let resnet = &resnet;
                let shuffle = &shuffle;
                scope.spawn(move || {
                    let mut done = Vec::new();
                    for round in 0..4u64 {
                        let seed = 100 + 10 * submitter + round;
                        let (model, image) = if (submitter + round) % 2 == 0 {
                            (0, resnet.sample_image(seed))
                        } else {
                            (1, shuffle.sample_image(seed))
                        };
                        let handle = server
                            .submit(model, image, Admission::Block)
                            .expect("model exists");
                        done.push(handle.wait().expect("request served"));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("submitter panicked"))
            .collect::<Vec<_>>()
    });
    let elapsed = t1.elapsed();
    println!(
        "served {} interleaved requests in {:.2?} ({:.1} req/s):",
        results.len(),
        elapsed,
        results.len() as f64 / elapsed.as_secs_f64()
    );
    for resp in &results {
        println!(
            "  request {:>2} -> model {} class {:>2}  queue {:>5} µs  compute {:>6} µs  (batch of {})",
            resp.sequence(),
            resp.model_index(),
            resp.predicted(),
            resp.queue_ticks(),
            resp.compute_ticks(),
            resp.batch_size()
        );
    }

    // The admission/fairness counters every production front door wants
    // on a dashboard: accepted/rejected/blocked submissions, queue
    // high-water mark, per-model served counts, worker busy time.
    let metrics = server.metrics();
    println!(
        "metrics: accepted {} / rejected {} / blocked {}, queue high water {}, served per model {:?}, workers busy {} µs",
        metrics.accepted(),
        metrics.rejected(),
        metrics.blocked(),
        metrics.queue_depth_high_water(),
        metrics.served(),
        metrics.worker_busy_ticks(),
    );

    // Graceful shutdown drains anything still queued before returning.
    server.shutdown();

    // A second server over the same graph recompiles nothing: every layer
    // identity is already in the process-wide cache.
    let misses_before = SharedCompileCache::global().misses();
    let t2 = Instant::now();
    let second = RaellaServer::builder().model(&resnet.graph, &cfg).build()?;
    println!(
        "second ResNet18 server built in {:.2?}: {} new compiles (process-wide cache)",
        t2.elapsed(),
        SharedCompileCache::global().misses() - misses_before,
    );
    second.shutdown();
    Ok(())
}
