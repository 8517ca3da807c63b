//! Energy metering end to end: per-layer attribution, 0-ulp tile
//! additivity, and SLO-aware serving under a picojoule budget.
//!
//! A mini ResNet18 compiles once, then (1) one image runs with per-layer
//! energy attribution — every matrix layer's priced `EnergyBreakdown`,
//! with the merged total asserted bit-identical to metering the
//! unattributed run; (2) the same model shards across 4 tiles and the
//! per-tile breakdowns are shown to sum *exactly* (0 ulp, component by
//! component) to the monolithic breakdown, because the meter merges
//! integer event counters first and prices once; (3) two `RaellaServer`s
//! with different `energy_budget_pj` SLOs serve the same request — the
//! generous budget admits the cheapest slicing variant whose sampled
//! calibration check still holds the error budget (which can be the
//! conservative 1-bit ladder rung when the narrower ones fail the
//! check), the impossible budget falls back to the base config — and
//! each response replays offline bit-for-bit against the ladder entry
//! recorded in `Response::selected_config`.
//!
//! ```sh
//! cargo run --release --example energy
//! ```

use std::time::Instant;

use raella::nn::models::mini::mini_resnet18;
use raella::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mini = mini_resnet18(42);
    let cfg = RaellaConfig {
        crossbar_rows: 128,
        crossbar_cols: 128,
        search_vectors: 3,
        ..RaellaConfig::default()
    };
    let cache = SharedCompileCache::new();
    let image = mini.sample_image(7);

    let t0 = Instant::now();
    let model = CompiledModel::compile_with_cache(&mini.graph, &cfg, &cache)?;
    println!(
        "compiled {} matrix layers in {:.2}s",
        model.matrix_layer_count(),
        t0.elapsed().as_secs_f64()
    );

    // 1. Per-layer attribution: where do the picojoules go?
    let profile = model.energy_profile(&image)?;
    println!("\nper-layer energy, one image:");
    for layer in profile.layers() {
        let e = layer.energy();
        println!(
            "  {:<12} {:>12.1} pJ  (ADC {:>4.1}%, {:>6} vectors)",
            layer.name(),
            e.total_pj(),
            100.0 * e.adc_fraction(),
            layer.stats().vectors,
        );
    }
    let total = profile.total();
    println!(
        "  {:<12} {:>12.1} pJ  (ADC {:>4.1}%)",
        "total",
        total.total_pj(),
        100.0 * total.adc_fraction()
    );
    // Attribution is exact: node counters merge to the run's counters,
    // so the profile total IS the unattributed breakdown.
    assert_eq!(total, &model.energy_breakdown(profile.stats()));

    // 2. Tile additivity: shard across 4 tiles, price each tile, and the
    // parts sum to the monolithic whole with zero ulp of error — the
    // meter merges the tiles' integer event counters and prices once.
    let plan = ShardPlan::place(&model, 4, TileSpec::new(128, 128))?;
    let sharded = plan.run_batch(&model, std::slice::from_ref(&image))?;
    let tile_stats = sharded.tile_stats();
    let per_tile = plan.tile_energy(&model, tile_stats);
    println!("\nsharded across {} tiles:", plan.tiles());
    for (t, e) in per_tile.iter().enumerate() {
        println!("  tile {t}: {:>12.1} pJ", e.total_pj());
    }
    let events: Vec<MeterEvents> = tile_stats.iter().map(|s| s.meter_events()).collect();
    let summed = model.energy_meter().merged_breakdown(&events);
    for (part, whole) in summed.values().into_iter().zip(total.values()) {
        assert_eq!(part.to_bits(), whole.to_bits(), "tile sum must be 0 ulp");
    }
    println!("  sum of parts == monolithic breakdown, bit for bit");

    // 3. SLO-aware serving: the builder precompiles the slicing ladder;
    // each admission picks the cheapest variant under the budget whose
    // calibration-estimated fidelity still holds the error budget.
    let ladder = energy_config_ladder(&cfg);
    println!("\nslicing ladder ({} configs):", ladder.len());
    for (i, alt_cfg) in ladder.iter().enumerate() {
        let alt = CompiledModel::compile_with_cache(&mini.graph, alt_cfg, &cache)?;
        println!(
            "  config {i}: {:>8.1} estimated pJ/vector, {:>5} columns",
            alt.estimated_vector_pj(),
            alt.total_columns()
        );
    }
    for (label, budget) in [("generous", 1e12f64), ("impossible", 1e-3)] {
        let server = RaellaServer::builder()
            .model(&mini.graph, &cfg)
            .compile_cache(cache.clone())
            .workers(1)
            .energy_budget_pj(0, budget)
            .build()?;
        let resp = server
            .submit(0, mini.sample_image(7), Admission::Block)?
            .wait()?;
        let sel = resp.selected_config();
        println!(
            "{label} budget ({budget:.0e} pJ/vector) -> config {sel}: \
             {:.1} pJ served energy, ADC {:.1}%",
            resp.energy().total_pj(),
            100.0 * resp.energy().adc_fraction()
        );
        let metrics = server.metrics();
        println!(
            "  metrics: {:.3e} J total for model 0, server ADC fraction {:.3}",
            metrics.joules_per_model()[0],
            metrics.adc_fraction()
        );
        // The recorded selection replays offline, bit for bit.
        let replay = CompiledModel::compile_with_cache(&mini.graph, &ladder[sel], &cache)?;
        let (out, stats) = replay.run_image_at_age(&mini.sample_image(7), resp.age())?;
        assert_eq!(&out, resp.output(), "replay must reproduce the bytes");
        assert_eq!(&replay.energy_breakdown(&stats), resp.energy());
        server.shutdown();
    }
    println!("every response replayed offline from its recorded config");
    Ok(())
}
