//! Fidelity and accuracy measurement.
//!
//! The paper's error-budget metric (§4.2.1) is the mean |error| over
//! *nonzero* 8b reference outputs; its accuracy results (Table 4, Fig. 15)
//! measure how rarely those errors change model predictions. This module
//! provides both: a per-layer [`FidelityReport`] and a top-1 agreement
//! over a [`CompiledModel`].

use serde::{Deserialize, Serialize};

use raella_nn::graph::Graph;
use raella_nn::layers::ReferenceEngine;
use raella_nn::quant::mean_error_nonzero;
use raella_nn::tensor::Tensor;

use crate::engine::RunStats;
use crate::error::CoreError;
use crate::model::CompiledModel;

/// Fidelity of one layer's analog outputs against the integer reference.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FidelityReport {
    /// Mean |error| over nonzero reference outputs (§4.2.1; budget 0.09).
    pub mean_abs_error: f64,
    /// Worst single-output error.
    pub max_abs_error: u8,
    /// Fraction of outputs that differ at all.
    pub mismatch_rate: f64,
    /// Outputs compared.
    pub outputs: usize,
    /// Engine statistics from the run that produced the outputs.
    pub stats: RunStats,
}

impl FidelityReport {
    /// Compares observed outputs against the reference.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn compare(reference: &[u8], observed: &[u8], stats: &RunStats) -> Self {
        assert_eq!(reference.len(), observed.len(), "length mismatch");
        let mean_abs_error = mean_error_nonzero(reference, observed);
        let max_abs_error = reference
            .iter()
            .zip(observed)
            .map(|(&r, &o)| r.abs_diff(o))
            .max()
            .unwrap_or(0);
        let mismatches = reference
            .iter()
            .zip(observed)
            .filter(|(&r, &o)| r != o)
            .count();
        FidelityReport {
            mean_abs_error,
            max_abs_error,
            mismatch_rate: if reference.is_empty() {
                0.0
            } else {
                mismatches as f64 / reference.len() as f64
            },
            outputs: reference.len(),
            stats: *stats,
        }
    }

    /// Whether the report meets an error budget.
    pub fn within_budget(&self, budget: f64) -> bool {
        self.mean_abs_error <= budget
    }
}

/// Fraction of `images` whose top-1 class under `model` (one
/// [`CompiledModel::run_batch`]) matches the integer reference graph's —
/// the proxy for the paper's Top-5-of-1000 accuracy, `100·(1 − agreement)`
/// being the accuracy drop in percentage points. On 10-class minis, top-1
/// admits 10% of the label space, comparable in selectivity to Top-5 on
/// 1000 classes (`DESIGN.md` §5). An empty slice agrees on nothing (0).
///
/// # Errors
///
/// Propagates operator shape errors for mis-shaped images.
pub fn top1_agreement(model: &CompiledModel, images: &[Tensor<u8>]) -> Result<f64, CoreError> {
    let predictions = model.run_batch(images)?.predictions();
    reference_agreement(model.graph(), images, &predictions)
}

/// Fraction of `images` whose reference top-1 class under `graph` equals
/// the matching entry of `predictions`.
pub(crate) fn reference_agreement(
    graph: &Graph,
    images: &[Tensor<u8>],
    predictions: &[usize],
) -> Result<f64, CoreError> {
    let mut matches = 0usize;
    for (image, &predicted) in images.iter().zip(predictions) {
        if graph.predict(image, &mut ReferenceEngine)? == predicted {
            matches += 1;
        }
    }
    Ok(matches as f64 / images.len().max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RaellaConfig, SharedCompileCache};
    use raella_nn::models::mini::mini_resnet18;
    use raella_xbar::adc::AdcSpec;

    #[test]
    fn compare_computes_all_fields() {
        let stats = RunStats::default();
        let r = FidelityReport::compare(&[0, 10, 20, 30], &[1, 10, 22, 29], &stats);
        // Nonzero refs: 10, 20, 30 with errors 0, 2, 1 → mean 1.0.
        assert!((r.mean_abs_error - 1.0).abs() < 1e-12);
        assert_eq!(r.max_abs_error, 2);
        assert!((r.mismatch_rate - 0.75).abs() < 1e-12);
        assert_eq!(r.outputs, 4);
        assert!(r.within_budget(1.0));
        assert!(!r.within_budget(0.9));
    }

    #[test]
    fn identical_outputs_report_zero() {
        let stats = RunStats::default();
        let r = FidelityReport::compare(&[5, 6], &[5, 6], &stats);
        assert_eq!(r.mean_abs_error, 0.0);
        assert_eq!(r.max_abs_error, 0);
        assert_eq!(r.mismatch_rate, 0.0);
    }

    #[test]
    fn exact_adc_agrees_with_the_reference_on_every_image() {
        // A 16b ADC never saturates on these column sums, so the compiled
        // model reproduces the integer reference's predictions exactly.
        let model = mini_resnet18(1);
        let cfg = RaellaConfig {
            adc: AdcSpec::new(16, true),
            search_vectors: 2,
            ..RaellaConfig::default()
        };
        let compiled =
            CompiledModel::compile_with_cache(&model.graph, &cfg, &SharedCompileCache::new())
                .unwrap();
        let images = model.sample_images(4, 9);
        assert_eq!(top1_agreement(&compiled, &images).unwrap(), 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn compare_checks_lengths() {
        FidelityReport::compare(&[1], &[1, 2], &RunStats::default());
    }
}
