//! Criterion micro-benchmarks of the simulator's hot kernels: crossbar
//! batch execution, the Eq. (2) center solve, and the Algorithm 1 slicing
//! search. These measure this reproduction's own performance (not a paper
//! figure).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use raella_core::adaptive::find_best_slicing;
use raella_core::center::optimal_center;
use raella_core::compiler::CompiledLayer;
use raella_core::engine::{run_batch_at_age, RunStats};
use raella_core::RaellaConfig;
use raella_nn::synth::SynthLayer;
use raella_xbar::slicing::Slicing;

fn bench_crossbar_run(c: &mut Criterion) {
    let layer = SynthLayer::linear(512, 32, 0xBE).build();
    let cfg = RaellaConfig::default();
    let compiled = CompiledLayer::with_slicing(&layer, Slicing::raella_default_weights(), &cfg)
        .expect("valid");
    let inputs = layer.sample_inputs(4, 1);
    c.bench_function("kernel_crossbar_run_512x32x4vec", |b| {
        b.iter_batched(
            RunStats::default,
            |mut stats| run_batch_at_age(&compiled, &inputs, &mut stats, 0, 0, 0),
            BatchSize::SmallInput,
        )
    });
}

fn bench_center_solve(c: &mut Criterion) {
    let layer = SynthLayer::linear(512, 1, 0xCE).build();
    let weights = layer.filter_weights(0).to_vec();
    let slicing = Slicing::raella_default_weights();
    c.bench_function("kernel_center_solve_512w", |b| {
        b.iter(|| optimal_center(std::hint::black_box(&weights), &slicing))
    });
}

fn bench_adaptive_search(c: &mut Criterion) {
    let layer = SynthLayer::conv(16, 8, 3, 0xAD).build();
    let cfg = RaellaConfig {
        search_vectors: 2,
        ..RaellaConfig::default()
    };
    c.bench_function("kernel_adaptive_search_144x8", |b| {
        b.iter(|| find_best_slicing(std::hint::black_box(&layer), &cfg).expect("search"))
    });
}

criterion_group!(
    name = kernels;
    config = Criterion::default().sample_size(10);
    targets = bench_crossbar_run, bench_center_solve, bench_adaptive_search
);
criterion_main!(kernels);
