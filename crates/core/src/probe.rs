//! Column-sum distribution probes (Figs. 3 and 5).
//!
//! Fig. 3 plots the distribution of *pre-ADC* analog column sums as each of
//! RAELLA's strategies is applied; Fig. 5 contrasts Zero+Offset
//! (differential) and Center+Offset slice balance on a skewed filter. This
//! module computes those raw column sums for arbitrary combinations of
//! encoding, weight slicing and input slicing, so the benches can
//! regenerate both figures' series.

use serde::{Deserialize, Serialize};

use raella_nn::matrix::MatrixLayer;
use raella_xbar::slicing::Slicing;

use crate::center::CenterSolver;
use crate::error::CoreError;

/// Which weight encoding the probe programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProbeEncoding {
    /// Raw unsigned stored weights (the ISAAC-style baseline of Fig. 3).
    Unsigned,
    /// Differential: offsets around the filter's quantization zero point.
    ZeroOffset,
    /// Center+Offset: offsets around the Eq. (2) optimum.
    CenterOffset,
}

/// A column-sum probe configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Probe {
    /// Crossbar rows (sums accumulate over at most this many rows).
    pub rows: usize,
    /// Weight slicing.
    pub weight_slicing: Slicing,
    /// Input slicing (e.g. 4b slices for the Fig. 3 baseline, 4b-2b-2b for
    /// speculation, 1b for recovery).
    pub input_slicing: Slicing,
    /// Weight encoding.
    pub encoding: ProbeEncoding,
}

impl Probe {
    /// Fig. 3's starting point: 512 rows, unsigned 4b weight and input
    /// slices.
    pub fn fig3_baseline() -> Self {
        Probe {
            rows: 512,
            weight_slicing: Slicing::uniform(4, 2),
            input_slicing: Slicing::uniform(4, 2),
            encoding: ProbeEncoding::Unsigned,
        }
    }

    /// Collects raw (pre-ADC) column sums from a layer over `vectors`
    /// synthetic input vectors: one sample per (filter, row-group, weight
    /// slice, input slice, vector).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the probe has zero rows or
    /// a weight slicing not covering 8 bits.
    pub fn column_sums(
        &self,
        layer: &MatrixLayer,
        vectors: usize,
        seed: u64,
    ) -> Result<Vec<i64>, CoreError> {
        if self.rows == 0 {
            return Err(CoreError::InvalidConfig("probe with zero rows".into()));
        }
        if self.weight_slicing.total_bits() != 8 {
            return Err(CoreError::InvalidConfig(format!(
                "weight slicing {} must cover 8 bits",
                self.weight_slicing
            )));
        }
        let w_slices = self.weight_slicing.slices();
        let solver = CenterSolver::new(&self.weight_slicing);
        let i_slices = self.input_slicing.slices();
        let inputs = layer.sample_inputs(vectors, seed);
        let mut samples = Vec::new();
        for vec in inputs.chunks_exact(layer.filter_len()) {
            for f in 0..layer.filters() {
                let weights = layer.filter_weights(f);
                let mut start = 0;
                while start < weights.len() {
                    let end = (start + self.rows).min(weights.len());
                    let group = &weights[start..end];
                    let center = match self.encoding {
                        ProbeEncoding::Unsigned => 0,
                        ProbeEncoding::ZeroOffset => i32::from(layer.quant().weight_zero_points[f]),
                        ProbeEncoding::CenterOffset => solver.solve(group),
                    };
                    for ws in &w_slices {
                        // Signed (or unsigned, center 0) slice levels.
                        let levels: Vec<i32> = group
                            .iter()
                            .map(|&w| ws.crop(i32::from(w) - center))
                            .collect();
                        for is in &i_slices {
                            let mut sum = 0i64;
                            for (r, &lev) in levels.iter().enumerate() {
                                let x = vec[start + r].max(0) as u32;
                                let xs = (x >> is.l) & ((1 << is.width()) - 1);
                                sum += i64::from(xs) * i64::from(lev);
                            }
                            samples.push(sum);
                        }
                    }
                    start = end;
                }
            }
        }
        Ok(samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raella_nn::stats::fraction_within_bits;
    use raella_nn::synth::SynthLayer;

    fn big_layer() -> MatrixLayer {
        SynthLayer::linear(512, 8, 21).build()
    }

    #[test]
    fn unsigned_baseline_produces_huge_sums() {
        let layer = big_layer();
        let probe = Probe::fig3_baseline();
        let sums = probe.column_sums(&layer, 2, 1).unwrap();
        assert!(!sums.is_empty());
        assert!(sums.iter().all(|&s| s >= 0), "unsigned sums are positive");
        // 512 rows of up-to-15×15 products: sums far beyond 7 bits.
        let within = fraction_within_bits(&sums, 7);
        assert!(within < 0.3, "baseline should saturate a 7b ADC: {within}");
    }

    #[test]
    fn center_offset_tightens_the_distribution() {
        let layer = big_layer();
        let unsigned = Probe::fig3_baseline();
        let centered = Probe {
            encoding: ProbeEncoding::CenterOffset,
            ..Probe::fig3_baseline()
        };
        let base = unsigned.column_sums(&layer, 2, 1).unwrap();
        let co = centered.column_sums(&layer, 2, 1).unwrap();
        let base_within = fraction_within_bits(&base, 7);
        let co_within = fraction_within_bits(&co, 7);
        assert!(
            co_within > base_within,
            "center+offset {co_within} must beat unsigned {base_within}"
        );
    }

    #[test]
    fn narrower_slices_tighten_further() {
        let layer = big_layer();
        let wide = Probe {
            encoding: ProbeEncoding::CenterOffset,
            ..Probe::fig3_baseline()
        };
        let narrow = Probe {
            weight_slicing: Slicing::raella_default_weights(),
            input_slicing: Slicing::uniform(1, 8),
            encoding: ProbeEncoding::CenterOffset,
            rows: 512,
        };
        let w = wide.column_sums(&layer, 2, 1).unwrap();
        let n = narrow.column_sums(&layer, 2, 1).unwrap();
        assert!(
            fraction_within_bits(&n, 7) > fraction_within_bits(&w, 7),
            "1b inputs + 4-2-2 weights must tighten over 4b/4b"
        );
    }

    #[test]
    fn zero_offset_on_skewed_filters_is_worse_than_center() {
        let layer = SynthLayer::linear(512, 6, 33)
            .skewed_filter_fraction(1.0)
            .build();
        let mk = |encoding| Probe {
            rows: 512,
            weight_slicing: Slicing::raella_default_weights(),
            input_slicing: Slicing::uniform(1, 8),
            encoding,
        };
        let zo = mk(ProbeEncoding::ZeroOffset)
            .column_sums(&layer, 2, 2)
            .unwrap();
        let co = mk(ProbeEncoding::CenterOffset)
            .column_sums(&layer, 2, 2)
            .unwrap();
        assert!(
            fraction_within_bits(&co, 7) > fraction_within_bits(&zo, 7),
            "center+offset must out-balance differential encoding"
        );
    }

    #[test]
    fn probe_validates_config() {
        let layer = big_layer();
        let mut p = Probe::fig3_baseline();
        p.rows = 0;
        assert!(p.column_sums(&layer, 1, 0).is_err());
        let mut p = Probe::fig3_baseline();
        p.weight_slicing = Slicing::uniform(2, 2); // covers 4 bits only
        assert!(p.column_sums(&layer, 1, 0).is_err());
    }

    #[test]
    fn sample_count_matches_structure() {
        let layer = SynthLayer::linear(100, 3, 5).build();
        let probe = Probe {
            rows: 40,                                          // 100 rows -> 3 groups
            weight_slicing: Slicing::raella_default_weights(), // 3 slices
            input_slicing: Slicing::uniform(4, 2),             // 2 slices
            encoding: ProbeEncoding::CenterOffset,
        };
        let sums = probe.column_sums(&layer, 2, 0).unwrap();
        // vectors × filters × groups × w_slices × i_slices
        assert_eq!(sums.len(), 2 * 3 * 3 * 3 * 2);
    }
}
