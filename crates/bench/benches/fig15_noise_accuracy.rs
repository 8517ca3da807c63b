//! Fig. 15: accuracy drop under rising analog noise, four cumulative
//! setups (ISAAC → +Center+Offset → +Adaptive Weight Slicing → RAELLA).
//!
//! Paper series: ISAAC collapses for noise >4% (dense unsigned bits);
//! Center+Offset is critical; Adaptive Weight Slicing is noise-aware
//! (more slices at higher noise); speculation+recovery matches the
//! no-speculation accuracy.

use raella_bench::{header, table};
use raella_core::ablation::AblationSetup;
use raella_nn::models::mini::{mini_googlenet, mini_resnet18};

fn main() {
    header(
        "Fig. 15: accuracy drop vs analog noise (four setups)",
        "ISAAC collapses above ~4% noise; C+O critical; AWS adapts; recovery holds",
    );
    let noise_levels = [0.0, 0.04, 0.08, 0.12];
    let images = 16;

    for model in [mini_resnet18(0xF15A), mini_googlenet(0xF15B)] {
        let images = model.sample_images(images, 3);
        println!("\n  --- {} (proxy top-1 drop, %) ---", model.name);
        let mut rows = Vec::new();
        let mut drops: Vec<Vec<f64>> = Vec::new();
        for setup in AblationSetup::all() {
            let mut row = vec![setup.name().to_string()];
            let mut series = Vec::new();
            for (ni, &noise) in noise_levels.iter().enumerate() {
                let rate = setup
                    .top1_agreement(&model.graph, &images, noise, 0x0F15 + ni as u64)
                    .expect("runs");
                let drop = 100.0 * (1.0 - rate);
                series.push(drop);
                row.push(format!("{drop:.1}"));
            }
            drops.push(series);
            rows.push(row);
        }
        let mut headers = vec!["setup"];
        let labels: Vec<String> = noise_levels
            .iter()
            .map(|n| format!("{:.0}%", n * 100.0))
            .collect();
        headers.extend(labels.iter().map(String::as_str));
        table(&headers, &rows);

        // Shape check on the aggregate (area under the drop curve):
        // ISAAC's unsigned dense bits must make it the most noise-fragile
        // setup overall; RAELLA's recovery must not be worse than ISAAC.
        let auc: Vec<f64> = drops.iter().map(|d| d.iter().sum()).collect();
        assert!(
            auc[0] + 1e-9 >= auc[3],
            "{}: ISAAC aggregate {} must be at least RAELLA's {}",
            model.name,
            auc[0],
            auc[3]
        );
        // Noise-free: everything near-lossless.
        for (i, d) in drops.iter().enumerate() {
            assert!(
                d[0] <= 20.0,
                "{} setup {i}: noise-free drop {} too high",
                model.name,
                d[0]
            );
        }
    }
    println!("\n  RAELLA holds accuracy at noise levels where unsigned ISAAC collapses");
}
