//! Table 4: accuracy comparison — Center+Offset vs Zero+Offset
//! (differential) encoding, no retraining.
//!
//! Paper series: Center+Offset loses ≈0 accuracy on all seven DNNs
//! (−0.08..0.14pp); Zero+Offset loses 0.16..16.36pp, worst on compact
//! DNNs with skewed filters. This reproduction measures the proxy
//! accuracy drop (top-1 prediction change rate vs the integer reference;
//! top-1 of 10 classes is comparable in selectivity to the paper's Top-5
//! of 1000, though harsher — expect the same ordering with larger
//! magnitudes) on the mini model zoo, plus the §4.2.1 mean-|error| metric
//! on the BERT chain (`DESIGN.md` §5 records the substitution).

use raella_bench::{header, table};
use raella_core::engine::run_batch_at_age;
use raella_core::{accuracy, CompiledLayer, CompiledModel, RaellaConfig, RunStats};
use raella_nn::models::mini::{self, MiniModel};
use raella_nn::quant::mean_error_nonzero;

fn main() {
    header(
        "Table 4: accuracy drop without retraining (proxy top-1 metric)",
        "Center+Offset ≈ 0pp on all DNNs; Zero+Offset 0.16–16.36pp, worst on compact DNNs",
    );
    let images = 12;
    let cfg = RaellaConfig {
        search_vectors: 3,
        ..RaellaConfig::default()
    };

    let mut rows = Vec::new();
    let mut co_drops = Vec::new();
    let mut zo_drops = Vec::new();
    for model in MiniModel::all_cnn_families(0x04AC) {
        let images = model.sample_images(images, 1);
        let drop = |cfg: &RaellaConfig| {
            let compiled = CompiledModel::compile(&model.graph, cfg).expect("compiles");
            100.0 * (1.0 - accuracy::top1_agreement(&compiled, &images).expect("runs"))
        };
        let co_drop = drop(&cfg);
        let zo_drop = drop(&cfg.clone().zero_offset());
        co_drops.push(co_drop);
        zo_drops.push(zo_drop);
        rows.push(vec![
            model.name.clone(),
            format!("{co_drop:.2}"),
            format!("{zo_drop:.2}"),
        ]);
    }

    // BERT chain: §4.2.1 error metric scaled as a pseudo-drop.
    let layers = mini::mini_bert_ff(0x04AC);
    let input = mini::sample_signed_input(layers[0].filter_len(), 2);
    let reference = mini::run_chain(&layers, &input, |l, x| l.reference_outputs(x));
    // Signed inputs and no graph: each layer compiles on its own and runs
    // on an un-aged device, its vectors numbered on from the previous
    // layer's.
    let raella = |cfg: &RaellaConfig| {
        let mut next_vector = 0;
        mini::run_chain(&layers, &input, |layer, x| {
            let compiled = CompiledLayer::compile(layer, cfg).expect("compiles");
            let first = next_vector;
            next_vector += (x.len() / layer.filter_len()) as u64;
            let mut stats = RunStats::default();
            run_batch_at_age(&compiled, x, &mut stats, cfg.noise_seed(), first, 0)
        })
    };
    let co_out = raella(&cfg);
    let zo_out = raella(&cfg.clone().zero_offset());
    let co_err = mean_error_nonzero(&reference, &co_out);
    let zo_err = mean_error_nonzero(&reference, &zo_out);
    rows.push(vec![
        "BERT-Large (mean |err|)".into(),
        format!("{co_err:.2}"),
        format!("{zo_err:.2}"),
    ]);
    table(
        &["DNN (mini)", "Center+Offset drop %", "Zero+Offset drop %"],
        &rows,
    );

    let co_worst = co_drops.iter().cloned().fold(0.0f64, f64::max);
    let zo_worst = zo_drops.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "\n  Center+Offset worst drop {co_worst:.2}pp (paper ≤0.14); Zero+Offset worst {zo_worst:.2}pp (paper up to 16.36)"
    );
    assert!(co_worst <= 10.0, "Center+Offset must stay near-lossless");
    assert!(
        zo_worst >= co_worst,
        "Zero+Offset must be no better than Center+Offset"
    );
    assert!(
        zo_drops.iter().sum::<f64>() > co_drops.iter().sum::<f64>(),
        "Zero+Offset must lose more accuracy overall"
    );
    assert!(zo_err >= co_err, "BERT chain: Z+O error must dominate");
    println!("  Center+Offset is what keeps RAELLA retraining-free");
}
