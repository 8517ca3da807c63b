//! ResNet18 end to end: build a `RaellaServer` over the mini functional
//! model (compiling every layer once through the process-wide compile
//! cache), stream an image batch through the coalescing request queue,
//! check accuracy against the integer reference, then evaluate the
//! full-size network's energy and throughput on RAELLA vs ISAAC (the
//! paper's Fig. 12 flow).
//!
//! ```sh
//! cargo run --release --example resnet_pipeline
//! ```

use std::time::Instant;

use raella::arch::eval::evaluate_dnn;
use raella::arch::spec::AccelSpec;
use raella::nn::graph::argmax;
use raella::nn::models::mini::mini_resnet18;
use raella::nn::models::shapes;
use raella::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- functional tier: does RAELLA change ResNet18's predictions? ----
    // Build the serving front door: compile once, then submit images and
    // wait on typed handles (see README "Serving API").
    let model = mini_resnet18(42);
    let cfg = RaellaConfig {
        search_vectors: 3,
        ..RaellaConfig::default()
    };
    let t0 = Instant::now();
    let server = RaellaServer::builder()
        .model(&model.graph, &cfg)
        .max_batch(4)
        .latency_budget_ticks(500)
        .build()?;
    let compiled = server.model(0);
    println!(
        "compile: {} matrix layers ({} distinct) in {:.2?}, {} crossbar columns, {} workers",
        compiled.matrix_layer_count(),
        compiled.unique_layer_count(),
        t0.elapsed(),
        compiled.total_columns(),
        server.worker_count()
    );

    let images: Vec<_> = (0..10).map(|i| model.sample_image(7 + i)).collect();
    let t1 = Instant::now();
    let handles = server.submit_many(0, images.iter().cloned())?;
    let responses = RaellaServer::wait_all(handles)?;
    let elapsed = t1.elapsed();
    let matches = images
        .iter()
        .zip(&responses)
        .filter(|(img, resp)| {
            let reference = model.graph.run_reference(img).expect("mini graph runs");
            argmax(reference.as_slice()) == resp.predicted()
        })
        .count();
    let mut stats = RunStats::default();
    for resp in &responses {
        stats.merge(resp.stats());
    }
    let mean_queue =
        responses.iter().map(|r| r.queue_ticks()).sum::<u64>() / responses.len() as u64;
    println!(
        "serve: {} requests in {:.2?} ({:.1} req/s, mean queue {} µs); {}/{} predictions match the integer reference",
        responses.len(),
        elapsed,
        responses.len() as f64 / elapsed.as_secs_f64(),
        mean_queue,
        matches,
        images.len()
    );
    println!(
        "  speculation failure rate {:.1}% over {} vectors",
        100.0 * stats.spec_failure_rate(),
        stats.vectors
    );
    server.shutdown();

    // ---- analytic tier: full-size ResNet18 energy and throughput ----
    let net = shapes::resnet18();
    println!(
        "\nanalytic: {} ({} layers, {:.2} GMACs)",
        net.name,
        net.layers.len(),
        net.total_macs() as f64 / 1e9
    );
    let raella = evaluate_dnn(&AccelSpec::raella(), &net);
    let isaac = evaluate_dnn(&AccelSpec::isaac(), &net);
    for eval in [&isaac, &raella] {
        println!(
            "  {:<22} {:>9.1} µJ/inference  {:>9.0} inf/s  converts/MAC {:.4}",
            eval.arch,
            eval.energy.total_pj() / 1e6,
            eval.throughput,
            eval.converts_per_mac()
        );
    }
    println!(
        "\nRAELLA vs ISAAC: efficiency x{:.2}, throughput x{:.2} (paper Fig. 12: ~x4.2, ~x2.5)",
        raella.efficiency_vs(&isaac),
        raella.throughput_vs(&isaac)
    );
    println!("energy breakdown: {}", raella.energy);
    Ok(())
}
