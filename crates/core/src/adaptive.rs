//! Adaptive Weight Slicing: Algorithm 1's `FindBestSlicing` (§4.2).
//!
//! For each layer, iterate over candidate slicings of the 8 weight bits
//! into ≤`cell_bits` slices, simulate the crossbar on a handful of test
//! inputs (ten in the paper) with conservative 1b input slices, measure the
//! §4.2.1 error, and keep the slicing that uses the fewest slices while
//! staying under the error budget (ties broken by lower error).
//!
//! Fewer slices always win, so candidates are evaluated in ascending
//! slice-count order and the search stops at the first count with a
//! feasible slicing — the same result as scanning all 108, in a fraction
//! of the time. Workers claim the candidates of a count one by one
//! ([`crate::parallel::run_chunks`]). Against the paper's GPU
//! preprocessing (10–1000 ms/layer), a mini_resnet18 layer's search takes
//! 0.1 ms when its first candidate fits the budget and 1.3–5.7 ms for 13
//! candidates, on a shared 2-vCPU x86-64 host.
//!
//! The simulation honours the configured noise model, which is what makes
//! the search *noise-aware*: as noise rises, wider slices blow the budget
//! and the search naturally falls back to narrower slices (§7.2).

use serde::{Deserialize, Serialize};

use raella_nn::matrix::MatrixLayer;
use raella_nn::quant::mean_error_nonzero;
use raella_xbar::slicing::Slicing;

use crate::compiler::CompiledLayer;
use crate::config::RaellaConfig;
use crate::engine::{run_batch_at_age, RunStats};
use crate::error::CoreError;
use crate::parallel::{run_chunks, worker_count_for};

/// Outcome of the slicing search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlicingSearchResult {
    /// The chosen weight slicing.
    pub slicing: Slicing,
    /// Measured mean |error| (§4.2.1) under the chosen slicing.
    pub error: f64,
    /// Candidates actually simulated (≤ 108).
    pub evaluated: usize,
}

/// Runs Algorithm 1's `FindBestSlicing` for one layer.
///
/// If *no* slicing meets the budget (extreme noise), the most conservative
/// slicing — eight 1b slices — is returned with its measured error, the
/// paper's minimal-slice-size fallback (§3.4).
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for invalid configurations.
pub fn find_best_slicing(
    layer: &MatrixLayer,
    cfg: &RaellaConfig,
) -> Result<SlicingSearchResult, CoreError> {
    cfg.validate()?;
    let inputs = layer.sample_inputs(cfg.search_vectors, cfg.seed ^ 0x5EA2C);
    let expected = layer.reference_outputs(&inputs);

    // The paper compares slicings under 1b input slices (§4.2.2).
    let search_cfg = cfg.clone().without_speculation();

    let mut candidates = Slicing::enumerate(8, u32::from(cfg.cell_bits).min(4));
    candidates.sort_by_key(Slicing::num_slices);

    let mut evaluated = 0usize;
    let mut i = 0;
    while i < candidates.len() {
        // One slice-count group at a time; fewer slices always preferred.
        let count = candidates[i].num_slices();
        let group_end = candidates[i..]
            .iter()
            .position(|s| s.num_slices() != count)
            .map_or(candidates.len(), |p| i + p);
        let group = &candidates[i..group_end];
        let errors = evaluate_group(layer, group, &search_cfg, &inputs, &expected);
        evaluated += group.len();
        let best = errors
            .iter()
            .enumerate()
            .filter(|(_, &e)| e < cfg.error_budget)
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("errors are finite"));
        if let Some((idx, &error)) = best {
            return Ok(SlicingSearchResult {
                slicing: group[idx].clone(),
                error,
                evaluated,
            });
        }
        i = group_end;
    }

    // Nothing met the budget: fall back to the most conservative slicing.
    let fallback = Slicing::uniform(1, 8);
    let error = evaluate_one(layer, &fallback, &search_cfg, &inputs, &expected);
    Ok(SlicingSearchResult {
        slicing: fallback,
        error,
        evaluated: evaluated + 1,
    })
}

/// Evaluates one candidate slicing: compile, simulate, measure §4.2.1 error.
fn evaluate_one(
    layer: &MatrixLayer,
    slicing: &Slicing,
    search_cfg: &RaellaConfig,
    inputs: &[raella_nn::matrix::Act],
    expected: &[u8],
) -> f64 {
    let compiled = CompiledLayer::with_slicing(layer, slicing.clone(), search_cfg)
        .expect("enumerated slicings are valid for the validated config");
    let mut stats = RunStats::default();
    // Deterministic per-candidate noise seed, independent of evaluation
    // order (so parallel and serial searches agree). The batch itself runs
    // serially: the search already parallelizes across candidates.
    let salt: u64 = slicing.widths().iter().fold(0u64, |acc, &w| {
        acc.wrapping_mul(31).wrapping_add(u64::from(w))
    });
    let outputs = run_batch_at_age(&compiled, inputs, &mut stats, search_cfg.seed ^ salt, 0, 0);
    mean_error_nonzero(expected, &outputs)
}

/// Evaluates a group of candidates, which the workers claim one by one.
fn evaluate_group(
    layer: &MatrixLayer,
    group: &[Slicing],
    search_cfg: &RaellaConfig,
    inputs: &[raella_nn::matrix::Act],
    expected: &[u8],
) -> Vec<f64> {
    run_chunks(group.len(), worker_count_for(group.len(), 1), |first, n| {
        group[first..first + n]
            .iter()
            .map(|s| evaluate_one(layer, s, search_cfg, inputs, expected))
            .collect::<Vec<_>>()
    })
    .concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use raella_nn::synth::SynthLayer;

    #[test]
    fn search_finds_low_slice_count_on_easy_layer() {
        // Small filters produce small column sums: wide slices are safe.
        let layer = SynthLayer::conv(4, 4, 3, 3).build(); // 36-row filters
        let cfg = RaellaConfig {
            crossbar_rows: 64,
            crossbar_cols: 64,
            search_vectors: 4,
            ..RaellaConfig::default()
        };
        let res = find_best_slicing(&layer, &cfg).unwrap();
        assert!(res.error < cfg.error_budget);
        assert!(
            res.slicing.num_slices() <= 3,
            "easy layer got {} slices",
            res.slicing.num_slices()
        );
        assert!(res.evaluated <= 108);
    }

    #[test]
    fn search_uses_more_slices_on_hard_layer() {
        // 512-row filters under heavy noise need narrow slices.
        let easy_cfg = RaellaConfig {
            search_vectors: 3,
            ..RaellaConfig::default()
        };
        let hard_cfg = easy_cfg.clone().with_noise(0.10);
        let layer = SynthLayer::linear(512, 6, 5).build();
        let easy = find_best_slicing(&layer, &easy_cfg).unwrap();
        let hard = find_best_slicing(&layer, &hard_cfg).unwrap();
        assert!(
            hard.slicing.num_slices() >= easy.slicing.num_slices(),
            "noise must not reduce slice count: {} vs {}",
            hard.slicing,
            easy.slicing
        );
    }

    #[test]
    fn search_is_deterministic() {
        let layer = SynthLayer::conv(8, 4, 3, 7).build();
        let cfg = RaellaConfig {
            crossbar_rows: 128,
            crossbar_cols: 128,
            search_vectors: 3,
            ..RaellaConfig::default()
        };
        let a = find_best_slicing(&layer, &cfg).unwrap();
        let b = find_best_slicing(&layer, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn impossible_budget_falls_back_to_bit_serial() {
        let layer = SynthLayer::conv(8, 4, 3, 9).build();
        let cfg = RaellaConfig {
            crossbar_rows: 128,
            crossbar_cols: 128,
            search_vectors: 2,
            error_budget: 0.0, // nothing can be strictly below zero error?
            ..RaellaConfig::default()
        };
        // budget 0.0 with `error < budget` strict comparison is infeasible.
        let res = find_best_slicing(&layer, &cfg).unwrap();
        assert_eq!(res.slicing, Slicing::uniform(1, 8));
    }

    #[test]
    fn chosen_slicing_meets_budget_at_runtime() {
        // Seed picked so the search lands on a nontrivial 2-slice choice
        // with measurable-but-in-budget runtime error (re-rolled when the
        // vendored PRNG replaced rand's StdRng stream).
        let layer = SynthLayer::conv(16, 8, 3, 31).build();
        let cfg = RaellaConfig {
            search_vectors: 4,
            ..RaellaConfig::default()
        };
        let res = find_best_slicing(&layer, &cfg).unwrap();
        let compiled = CompiledLayer::with_slicing(&layer, res.slicing.clone(), &cfg).unwrap();
        let report = compiled.check_fidelity_at_age(&layer, 4, 0).unwrap();
        // Fresh inputs, speculation on: error stays in the same regime.
        assert!(
            report.mean_abs_error <= cfg.error_budget * 3.0 + 0.05,
            "runtime error {} far above search error {}",
            report.mean_abs_error,
            res.error
        );
    }
}
