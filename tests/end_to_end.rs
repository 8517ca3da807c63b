//! Integration tests: full compile→simulate→verify pipelines spanning the
//! DNN substrate, the crossbar simulator, and the RAELLA engine.

use raella::core::accuracy::top1_agreement;
use raella::core::engine::run_batch_at_age;
use raella::core::{CompiledLayer, CompiledModel, RaellaConfig, RunStats, SharedCompileCache};
use raella::nn::matrix::Act;
use raella::nn::models::mini::{self, MiniModel};
use raella::nn::quant::mean_error_nonzero;
use raella::nn::synth::SynthLayer;

fn fast_cfg() -> RaellaConfig {
    RaellaConfig {
        search_vectors: 3,
        ..RaellaConfig::default()
    }
}

fn compile(model: &MiniModel, cfg: &RaellaConfig) -> CompiledModel {
    CompiledModel::compile(&model.graph, cfg).expect("compiles")
}

/// Runs `compiled` on an un-aged device under its configuration's noise
/// seed, numbering the vectors from `first_vector`.
fn run_layer(compiled: &CompiledLayer, inputs: &[Act], first_vector: u64) -> Vec<u8> {
    let seed = compiled.config().noise_seed();
    run_batch_at_age(
        compiled,
        inputs,
        &mut RunStats::default(),
        seed,
        first_vector,
        0,
    )
}

#[test]
fn every_mini_family_keeps_its_predictions() {
    // Table 4's central claim: RAELLA with Center+Offset changes almost no
    // predictions, with zero retraining.
    for model in MiniModel::all_cnn_families(0xE2E) {
        let rate = top1_agreement(&compile(&model, &fast_cfg()), &model.sample_images(5, 11))
            .expect("runs");
        assert!(
            rate >= 0.8,
            "{}: top-1 match rate {rate} below 80%",
            model.name
        );
    }
}

#[test]
fn bert_chain_stays_faithful() {
    let layers = mini::mini_bert_ff(0xE2E1);
    let input = mini::sample_signed_input(layers[0].filter_len(), 3);
    let reference = mini::run_chain(&layers, &input, |l, x| l.reference_outputs(x));
    // Signed inputs and no graph: each layer compiles on its own, its
    // vectors numbered on from the previous layer's.
    let mut next_vector = 0;
    let analog = mini::run_chain(&layers, &input, |layer, x| {
        let compiled = CompiledLayer::compile(layer, &fast_cfg()).expect("compiles");
        let first = next_vector;
        next_vector += (x.len() / layer.filter_len()) as u64;
        run_layer(&compiled, x, first)
    });
    let err = mean_error_nonzero(&reference, &analog);
    assert!(err < 2.0, "BERT chain error {err}");
}

#[test]
fn compiled_layers_meet_the_error_budget() {
    // §4.2: the adaptive search must hold the measured error under budget
    // across layer shapes.
    let cfg = fast_cfg();
    for (in_c, out_c, k, seed) in [(16, 8, 3, 1u64), (64, 16, 3, 2), (128, 8, 1, 3)] {
        let layer = SynthLayer::conv(in_c, out_c, k, seed).build();
        let compiled = CompiledLayer::compile(&layer, &cfg).expect("compiles");
        let report = compiled
            .check_fidelity_at_age(&layer, 5, 0)
            .expect("fidelity");
        assert!(
            report.mean_abs_error <= cfg.error_budget * 3.0 + 0.05,
            "layer {in_c}x{out_c}k{k}: runtime error {} vs budget {}",
            report.mean_abs_error,
            cfg.error_budget
        );
    }
}

#[test]
fn engine_is_deterministic_end_to_end() {
    let model = mini::mini_googlenet(5);
    let img = model.sample_image(9);
    let run = |_: ()| {
        let cache = SharedCompileCache::new();
        CompiledModel::compile_with_cache(&model.graph, &fast_cfg(), &cache)
            .expect("compiles")
            .run_image(&img)
            .expect("runs")
    };
    assert_eq!(run(()), run(()));
}

#[test]
fn speculation_saves_converts_on_real_models() {
    // §4.3.2: ~60% fewer ADC converts than recovery-only on DNN layers.
    let model = mini::mini_resnet50(7);
    let img = model.sample_image(1);

    let converts = |cfg: &RaellaConfig| {
        let (_, stats) = compile(&model, cfg).run_image(&img).expect("runs");
        stats.events.adc_converts as f64
    };
    let s = converts(&fast_cfg());
    let b = converts(&fast_cfg().without_speculation());
    assert!(
        s < 0.7 * b,
        "speculation {s} converts vs bit-serial {b} — savings too small"
    );
}

#[test]
fn zero_offset_hurts_where_center_offset_does_not() {
    // The Fig. 5 / Table 4 mechanism end to end, measured on the logits
    // themselves (continuous, so a handful of images suffices).
    let model = mini::mini_inception_v3(0xE2E2);
    let images = model.sample_images(4, 100);
    let co = compile(&model, &fast_cfg())
        .run_batch(&images)
        .expect("runs");
    let zo = compile(&model, &fast_cfg().zero_offset())
        .run_batch(&images)
        .expect("runs");
    let mut co_err = 0.0;
    let mut zo_err = 0.0;
    for (i, img) in images.iter().enumerate() {
        let reference = model.graph.run_reference(img).expect("runs");
        co_err += mean_error_nonzero(reference.as_slice(), co.outputs()[i].as_slice());
        zo_err += mean_error_nonzero(reference.as_slice(), zo.outputs()[i].as_slice());
    }
    assert!(
        zo_err > 2.0 * co_err + 1.0,
        "zero+offset logit corruption {zo_err} must dwarf center+offset {co_err}"
    );
    // The causal mechanism: zero+offset saturates the ADC far more often.
    assert!(
        zo.stats().spec_failure_rate() > co.stats().spec_failure_rate(),
        "zero+offset should fail speculation more: {} vs {}",
        zo.stats().spec_failure_rate(),
        co.stats().spec_failure_rate()
    );
}

#[test]
fn layer_cache_distinguishes_same_shaped_layers() {
    // Two layers with identical names and shapes but different weights
    // must not collide in the compile cache.
    let a = SynthLayer::linear(32, 4, 1).name("dup").build();
    let b = SynthLayer::linear(32, 4, 2).name("dup").build();
    let cache = SharedCompileCache::new();
    let inputs = a.sample_inputs(2, 3);
    let out_a = run_layer(
        &cache.get_or_compile(&a, &fast_cfg()).expect("compiles"),
        &inputs,
        0,
    );
    let out_b = run_layer(
        &cache.get_or_compile(&b, &fast_cfg()).expect("compiles"),
        &inputs,
        2,
    );
    assert_eq!(cache.len(), 2, "both layers must be compiled");
    assert_eq!(out_a, a.reference_outputs(&inputs));
    assert_eq!(out_b, b.reference_outputs(&inputs));
}
