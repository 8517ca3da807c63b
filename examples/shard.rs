//! Tile-sharded execution end to end: place a model across simulated
//! accelerator tiles, prove the placement changes nothing, and serve
//! traffic through a sharded `RaellaServer`.
//!
//! A mini ResNet18 compiles once, then runs (1) monolithically, (2)
//! sharded across 4 tiles under a `ShardPlan`, printing
//! each tile's resident layers, occupancy, and per-tile `RunStats`. The
//! outputs and merged statistics are asserted bit-identical — placement
//! is pure scheduling. Finally a `RaellaServer` built with `.shards(4)`
//! serves a burst and reports the server-wide per-tile aggregates.
//!
//! ```sh
//! cargo run --release --example shard
//! ```

use std::time::Instant;

use raella::nn::models::mini::mini_resnet18;
use raella::prelude::*;

const TILES: usize = 4;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mini = mini_resnet18(42);
    // 128-row crossbars/tiles so the mini model's longer conv layers
    // actually row-split (the full-size model splits at 512 the same way).
    let cfg = RaellaConfig {
        crossbar_rows: 128,
        crossbar_cols: 128,
        search_vectors: 3,
        ..RaellaConfig::default()
    };
    let tile = TileSpec::new(128, 128);
    let cache = SharedCompileCache::new();
    let images: Vec<Tensor<u8>> = (0..6).map(|i| mini.sample_image(1 + i)).collect();

    let t0 = Instant::now();
    let model = CompiledModel::compile_with_cache(&mini.graph, &cfg, &cache)?;
    println!(
        "compiled {} matrix layers ({} unique) in {:.2}s",
        model.matrix_layer_count(),
        model.unique_layer_count(),
        t0.elapsed().as_secs_f64()
    );

    // Monolithic baseline.
    let baseline = model.run_batch(&images)?;

    // The same model across 4 tiles: whole layers round-robin, long
    // layers row-split with partial sums merged digitally.
    let plan = ShardPlan::place(&model, TILES, tile)?;
    println!(
        "\nplacement: {} tiles ({tile}), {} of {} layers row-split",
        plan.tiles(),
        plan.split_layer_count(),
        plan.placements().len()
    );
    for view in plan.tile_views(&model) {
        println!(
            "  tile {}: {:2} layers, {:3} row groups, {:4} columns, {:3} crossbars, {:4.1}% utilized",
            view.tile(),
            view.resident_layers().len(),
            view.row_groups(),
            view.columns(),
            view.crossbars(),
            100.0 * view.utilization(plan.tile_spec())
        );
    }

    let result = plan.run_batch(&model, &images)?;
    assert_eq!(
        result.outputs(),
        baseline.outputs(),
        "placement changed bytes!"
    );
    assert_eq!(result.stats(), baseline.stats(), "placement changed stats!");
    println!("\nsharded outputs and stats are bit-identical to the monolithic engine");
    for (t, stats) in result.tile_stats().iter().enumerate() {
        println!(
            "  tile {t}: {:7} vectors, {:9} ADC converts, {:10} device charge",
            stats.vectors, stats.events.adc_converts, stats.events.device_charge
        );
    }

    // The serving surface with the same placement policy.
    let server = RaellaServer::builder()
        .model(&mini.graph, &cfg)
        .compile_cache(cache) // absorbs the whole recompile
        .shards(TILES)
        .tile_spec(tile)
        .workers(2)
        .max_batch(4)
        .latency_budget_ticks(100)
        .build()?;
    let t1 = Instant::now();
    let responses = RaellaServer::wait_all(server.submit_many(0, images.iter().cloned())?)?;
    let elapsed = t1.elapsed().as_secs_f64();
    for (resp, want) in responses.iter().zip(baseline.outputs()) {
        assert_eq!(resp.output(), want, "served response diverged");
    }
    println!(
        "\nsharded server: {} responses in {:.2}s ({:.1} req/s), all bit-identical",
        responses.len(),
        elapsed,
        responses.len() as f64 / elapsed
    );
    let totals = server.tile_stats(0);
    let mut merged = RunStats::default();
    for (t, stats) in totals.iter().enumerate() {
        println!("  tile {t} served {} vectors", stats.vectors);
        merged.merge(stats);
    }
    // The server served exactly this burst, so the tile aggregates must
    // account for every vector the monolithic batch executed.
    assert_eq!(
        &merged,
        baseline.stats(),
        "tile aggregates must cover the burst"
    );
    server.shutdown();
    Ok(())
}
