//! The §7 ablation setups: ISAAC → +Center+Offset → +Adaptive Weight
//! Slicing → full RAELLA.
//!
//! Each RAELLA setup is a [`RaellaConfig`] compiled into a
//! [`CompiledModel`]; ISAAC is its own functional engine. The noise
//! ablation (Fig. 15) measures each setup's end-to-end top-1 agreement
//! under the §7.2 noise model. The energy ablation (Fig. 14) reuses the
//! same setups through `raella-arch`'s pricing.

use raella_nn::graph::Graph;
use raella_nn::layers::MatVecEngine;
use raella_nn::matrix::{Act, MatrixLayer};
use raella_nn::tensor::Tensor;
use raella_xbar::noise::{NoiseModel, NoiseRng};
use raella_xbar::slicing::Slicing;

use crate::accuracy::{reference_agreement, top1_agreement};
use crate::config::{InputMode, RaellaConfig, WeightEncoding};
use crate::engine::RunStats;
use crate::error::CoreError;
use crate::model::CompiledModel;

/// The four cumulative ablation setups (§7, Figs. 14–15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AblationSetup {
    /// 8b ISAAC: 128×128 unsigned crossbars, four 2b weight slices, eight
    /// 1b input slices, 8b ADC.
    Isaac,
    /// Previous + 512×512 2T2R with Center+Offset arithmetic and a 7b ADC
    /// (weight slicing still four 2b slices).
    CenterOffset,
    /// Previous + per-layer Adaptive Weight Slicing.
    AdaptiveSlicing,
    /// Previous + Dynamic Input Slicing (speculation + recovery).
    Raella,
}

impl AblationSetup {
    /// All setups in cumulative order.
    pub fn all() -> [AblationSetup; 4] {
        [
            AblationSetup::Isaac,
            AblationSetup::CenterOffset,
            AblationSetup::AdaptiveSlicing,
            AblationSetup::Raella,
        ]
    }

    /// Display name matching the paper's figure legends.
    pub fn name(&self) -> &'static str {
        match self {
            AblationSetup::Isaac => "ISAAC",
            AblationSetup::CenterOffset => "Center+Offset",
            AblationSetup::AdaptiveSlicing => "Center+Offset, Adaptive Weight Slicing",
            AblationSetup::Raella => "RAELLA",
        }
    }

    /// This setup's configuration at a noise level, or `None` for ISAAC,
    /// which is not a RAELLA configuration (see [`IsaacEngine`]).
    pub fn config(&self, noise: f64, seed: u64) -> Option<RaellaConfig> {
        let cfg = match self {
            AblationSetup::Isaac => return None,
            AblationSetup::CenterOffset => RaellaConfig {
                encoding: WeightEncoding::CenterOffset,
                input_mode: InputMode::BitSerial,
                fixed_weight_slicing: Some(Slicing::isaac_weights()),
                seed,
                ..RaellaConfig::default()
            },
            AblationSetup::AdaptiveSlicing => RaellaConfig {
                input_mode: InputMode::BitSerial,
                search_vectors: 3,
                seed,
                ..RaellaConfig::default()
            },
            AblationSetup::Raella => RaellaConfig {
                input_mode: InputMode::Speculative,
                search_vectors: 3,
                seed,
                ..RaellaConfig::default()
            },
        };
        Some(cfg.with_noise(noise))
    }

    /// Fraction of `images` whose top-1 class under this setup at a noise
    /// level matches the integer reference's (see
    /// [`crate::accuracy::top1_agreement`]). A RAELLA setup compiles its
    /// [`AblationSetup::config`] and runs one batch; ISAAC runs the images
    /// in order through one [`IsaacEngine`].
    ///
    /// # Errors
    ///
    /// Propagates compile errors and operator shape errors for mis-shaped
    /// images.
    pub fn top1_agreement(
        &self,
        graph: &Graph,
        images: &[Tensor<u8>],
        noise: f64,
        seed: u64,
    ) -> Result<f64, CoreError> {
        if let Some(cfg) = self.config(noise, seed) {
            return top1_agreement(&CompiledModel::compile(graph, &cfg)?, images);
        }
        let mut isaac = IsaacEngine::new(noise, seed);
        let predictions = images
            .iter()
            .map(|image| graph.predict(image, &mut isaac))
            .collect::<Result<Vec<_>, _>>()?;
        reference_agreement(graph, images, &predictions)
    }
}

/// A functional 8b ISAAC (§7): 128×128 unsigned crossbars, four 2b weight
/// slices, eight 1b input slices, 8b ADC.
///
/// ISAAC's published encoding guarantees its ADC never loses column-sum
/// bits (Table 3 lists it with no fidelity loss), so this model's only
/// error source is analog noise — with `noise = 0` it reproduces the
/// integer reference exactly. Its weakness under noise is exactly what the
/// paper shows: unsigned weights have dense high-order bits, so column
/// sums carry more charge and noise couples into high-order slices.
///
/// Noise streams are derived per vector from `(seed, global vector
/// index)`, counted across every call, so runs are deterministic for a
/// given call sequence.
#[derive(Debug)]
pub struct IsaacEngine {
    rows: usize,
    weight_slicing: Slicing,
    noise: NoiseModel,
    noise_seed: u64,
    next_vector: u64,
    /// Event statistics (converts, cycles, charge).
    pub stats: RunStats,
}

impl IsaacEngine {
    /// Creates the standard 128-row ISAAC functional model.
    pub fn new(noise: f64, seed: u64) -> Self {
        IsaacEngine {
            rows: 128,
            weight_slicing: Slicing::isaac_weights(),
            noise: NoiseModel::new(noise),
            noise_seed: seed ^ 0x15AAC,
            next_vector: 0,
            stats: RunStats::default(),
        }
    }

    fn run_vector(&mut self, layer: &MatrixLayer, input: &[Act], rng: &mut NoiseRng) -> Vec<u8> {
        let input_sum: i64 = input.iter().map(|&x| i64::from(x)).sum();
        let w_slices = self.weight_slicing.slices();
        // Signed inputs processed as two planes (the §7.2 BERT
        // accommodation, which also matches RAELLA's two-cycle handling).
        let planes: Vec<(i64, Vec<u16>)> = if layer.signed_inputs() {
            vec![
                (1, input.iter().map(|&x| x.max(0) as u16).collect()),
                (-1, input.iter().map(|&x| (-x).max(0) as u16).collect()),
            ]
        } else {
            vec![(1, input.iter().map(|&x| x as u16).collect())]
        };
        let mut out = Vec::with_capacity(layer.filters());
        let mut accs = vec![0i64; layer.filters()];
        for (sign, plane) in &planes {
            for (f, acc) in accs.iter_mut().enumerate() {
                let weights = layer.filter_weights(f);
                let mut start = 0;
                while start < weights.len() {
                    let end = (start + self.rows).min(weights.len());
                    for ws in &w_slices {
                        let levels: Vec<i64> = weights[start..end]
                            .iter()
                            .map(|&w| i64::from(ws.crop(i32::from(w))))
                            .collect();
                        for b in (0..8u32).rev() {
                            let mut sum = 0i64;
                            for (r, &lev) in levels.iter().enumerate() {
                                let bit = i64::from((plane[start + r] >> b) & 1);
                                sum += bit * lev;
                            }
                            let read = self.noise.read(sum, sum, rng);
                            self.stats.events.adc_converts += 1;
                            self.stats.events.device_charge += sum.max(0) as u64;
                            *acc += sign * (read << (ws.shift() + b));
                        }
                    }
                    start = end;
                }
            }
            self.stats.events.cycles += 8;
        }
        for (f, acc) in accs.iter().enumerate() {
            out.push(layer.quant().requantize(f, *acc, input_sum));
        }
        out
    }
}

impl MatVecEngine for IsaacEngine {
    fn layer_outputs(&mut self, layer: &MatrixLayer, inputs: &[Act]) -> Vec<u8> {
        assert_eq!(
            inputs.len() % layer.filter_len(),
            0,
            "input batch must be a multiple of filter_len"
        );
        let mut out = Vec::new();
        for vec in inputs.chunks_exact(layer.filter_len()) {
            let mut rng = NoiseRng::for_stream(self.noise_seed, self.next_vector);
            out.extend(self.run_vector(layer, vec, &mut rng));
            self.next_vector += 1;
            self.stats.vectors += 1;
            self.stats.events.macs += layer.macs_per_vector();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raella_nn::synth::SynthLayer;

    #[test]
    fn noiseless_isaac_matches_reference_exactly() {
        let layer = SynthLayer::conv(8, 6, 3, 51).build();
        let mut isaac = IsaacEngine::new(0.0, 1);
        let inputs = layer.sample_inputs(4, 2);
        assert_eq!(
            isaac.layer_outputs(&layer, &inputs),
            layer.reference_outputs(&inputs)
        );
    }

    #[test]
    fn isaac_converts_per_mac_is_quarter() {
        // 4 weight slices × 8 input slices over 128 rows = 0.25 (§7.1).
        let layer = SynthLayer::linear(128, 4, 53).build();
        let mut isaac = IsaacEngine::new(0.0, 1);
        let inputs = layer.sample_inputs(2, 3);
        isaac.layer_outputs(&layer, &inputs);
        let cpm = isaac.stats.events.converts_per_mac();
        assert!((cpm - 0.25).abs() < 1e-9, "converts/MAC {cpm}");
    }

    #[test]
    fn noisy_isaac_degrades() {
        let layer = SynthLayer::conv(16, 6, 3, 55).build();
        let inputs = layer.sample_inputs(2, 4);
        let reference = layer.reference_outputs(&inputs);
        let mut noisy = IsaacEngine::new(0.08, 2);
        let outs = noisy.layer_outputs(&layer, &inputs);
        assert_ne!(outs, reference);
    }

    #[test]
    fn signed_inputs_take_two_cycles_per_slice_set() {
        let layer = SynthLayer::linear(64, 2, 57).signed_inputs().build();
        let mut isaac = IsaacEngine::new(0.0, 1);
        let inputs = layer.sample_inputs(1, 5);
        isaac.layer_outputs(&layer, &inputs);
        assert_eq!(isaac.stats.events.cycles, 16);
        // Signed path still exact without noise.
        assert_eq!(
            IsaacEngine::new(0.0, 9).layer_outputs(&layer, &inputs),
            layer.reference_outputs(&inputs)
        );
    }

    #[test]
    fn setups_enumerate_in_cumulative_order() {
        let all = AblationSetup::all();
        assert_eq!(all[0].name(), "ISAAC");
        assert_eq!(all[3].name(), "RAELLA");
    }

    #[test]
    fn noise_free_setups_agree_on_a_small_mini_model() {
        // Noise-free ISAAC is exact by construction; the RAELLA setups'
        // ideal-device errors change none of these predictions either.
        let model = raella_nn::models::mini::mini_resnet18(3);
        let images = model.sample_images(3, 5);
        for setup in AblationSetup::all() {
            assert_eq!(
                setup.config(0.0, 7).is_none(),
                setup == AblationSetup::Isaac
            );
            let agreement = setup.top1_agreement(&model.graph, &images, 0.0, 7).unwrap();
            assert_eq!(agreement, 1.0, "{}", setup.name());
        }
    }
}
