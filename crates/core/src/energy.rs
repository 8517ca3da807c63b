//! Energy accounting for compiled models — the bridge from the engine's
//! event counters to `raella-energy`'s priced breakdowns.
//!
//! The execution engine counts hardware events ([`RunStats`]); the
//! [`raella_energy::meter`] prices them. This module binds the two for a
//! [`CompiledModel`]: the model's layer mix fixes a
//! [`MeterGeometry`] (ADC resolution, per-vector buffer/network/quantize
//! coefficients), and the resulting [`EnergyMeter`] turns any
//! [`RunStats`] produced by that model — whole runs, per-layer
//! attributions, per-tile shard statistics, per-request serving deltas —
//! into an [`EnergyBreakdown`].
//!
//! # Additivity
//!
//! The meter is linear in integer counters and [`RunStats::merge`] is
//! exact, so the breakdown of merged statistics is **bit-identical**
//! however the run was grouped: per-tile breakdowns "sum" to the whole by
//! merging their counters first and pricing once
//! ([`EnergyMeter::merged_breakdown`]). A drift-epoch-only delta (merge
//! by `max`, not `+`) deliberately prices to zero joules.

use raella_energy::meter::{EnergyMeter, MeterEvents, MeterGeometry};
use raella_energy::{ComponentPrices, EnergyBreakdown};
use raella_nn::graph::ValueArena;
use raella_nn::tensor::Tensor;

use crate::engine::RunStats;
use crate::error::CoreError;
use crate::model::CompiledModel;
use crate::shard::{run_image_placed, ShardPlan};

impl RunStats {
    /// The additive, price-relevant event counters of this run — the
    /// meter's input. Everything is an exact integer copy;
    /// `adc_converts` already includes recovery and bit-serial
    /// conversions (the engine counts them into the same totals), and
    /// the non-additive `drift_epoch` is deliberately dropped, so a
    /// drift-epoch-only statistics delta meters to zero joules.
    pub fn meter_events(&self) -> MeterEvents {
        MeterEvents {
            adc_converts: self.events.adc_converts,
            dac_pulses: self.events.dac_pulses,
            row_activations: self.events.row_activations,
            charge_units: self.events.device_charge,
            vectors: self.vectors,
        }
    }
}

/// One matrix-layer node's share of an [`EnergyProfile`].
#[derive(Debug, Clone, PartialEq)]
pub struct LayerEnergy {
    name: String,
    stats: RunStats,
    energy: EnergyBreakdown,
}

impl LayerEnergy {
    /// The layer's name (as reported by the graph).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The node's event counters for the profiled image.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// The node's priced breakdown.
    pub fn energy(&self) -> &EnergyBreakdown {
        &self.energy
    }
}

/// Per-layer energy attribution of one image —
/// [`CompiledModel::energy_profile`]'s result. Node counters merge
/// exactly to the whole-run counters, so [`EnergyProfile::total`] is
/// bit-identical to metering the unattributed run.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyProfile {
    layers: Vec<LayerEnergy>,
    stats: RunStats,
    total: EnergyBreakdown,
}

impl EnergyProfile {
    /// Per-node attributions, in execution order.
    pub fn layers(&self) -> &[LayerEnergy] {
        &self.layers
    }

    /// Whole-run statistics (exact merge of every node's).
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Whole-run breakdown — the merged counters priced once.
    pub fn total(&self) -> &EnergyBreakdown {
        &self.total
    }
}

impl CompiledModel {
    /// The model's meter geometry: its configured ADC resolution plus
    /// per-vector coefficients averaged over the matrix-layer mix (a
    /// node appearing twice contributes twice) — see
    /// [`MeterGeometry`] for why per-vector work is priced at the mix
    /// average.
    pub fn meter_geometry(&self) -> MeterGeometry {
        let layers = self.compiled_layers();
        if layers.is_empty() {
            return MeterGeometry::events_only(self.config().adc.bits);
        }
        let mut io = 0.0f64;
        let mut outputs = 0.0f64;
        let mut psums = 0.0f64;
        for l in layers {
            io += (l.filter_len() + l.filters()) as f64;
            outputs += l.filters() as f64;
            psums += (l.filters() * l.group_count()) as f64;
        }
        let n = layers.len() as f64;
        MeterGeometry {
            adc_bits: self.config().adc.bits,
            io_bytes_per_vector: io / n,
            outputs_per_vector: outputs / n,
            psums_per_vector: psums / n,
        }
    }

    /// An [`EnergyMeter`] for this model under the default 32 nm price
    /// library — deterministic: construction reads only the compiled
    /// geometry, so equal configurations always yield equal meters.
    pub fn energy_meter(&self) -> EnergyMeter {
        EnergyMeter::new(&ComponentPrices::cmos_32nm(), &self.meter_geometry())
    }

    /// Prices one run's statistics under the default price library.
    pub fn energy_breakdown(&self, stats: &RunStats) -> EnergyBreakdown {
        self.energy_meter().breakdown(&stats.meter_events())
    }

    /// Runs one image and attributes energy to every matrix-layer node.
    /// The output and merged statistics are bit-identical to
    /// [`CompiledModel::run_image`]; per-node counters merge exactly to
    /// the whole, so the profile's total equals the unattributed
    /// breakdown bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates operator shape errors for a mis-shaped image.
    pub fn energy_profile(&self, image: &Tensor<u8>) -> Result<EnergyProfile, CoreError> {
        let mut per_node = vec![RunStats::default(); self.compiled_layers().len()];
        let (_, tiles) = run_image_placed(
            self,
            None,
            image,
            &mut ValueArena::new(),
            true,
            0,
            Some(&mut per_node),
        )?;
        let stats = tiles[0];
        let meter = self.energy_meter();
        let layers = self
            .graph()
            .matrix_layers()
            .into_iter()
            .zip(per_node)
            .map(|(mat, node_stats)| LayerEnergy {
                name: mat.name().to_string(),
                energy: meter.breakdown(&node_stats.meter_events()),
                stats: node_stats,
            })
            .collect();
        let total = meter.breakdown(&stats.meter_events());
        Ok(EnergyProfile {
            layers,
            stats,
            total,
        })
    }

    /// A deterministic *planning* estimate of picojoules per input
    /// vector under the default price library — the admission-time
    /// ranking metric for slicing variants. It prices the per-vector
    /// work every vector is guaranteed to do (one conversion pass over
    /// every occupied column, one input pass over every row, the
    /// buffer/network/quantize bytes) and ignores data-dependent terms
    /// (speculation failures, DAC pulse counts, read charge). Across
    /// slicing variants of one model only the column count varies, so
    /// the estimate orders variants exactly as their ADC work does.
    pub fn estimated_vector_pj(&self) -> f64 {
        let layers = self.compiled_layers();
        if layers.is_empty() {
            return 0.0;
        }
        let prices = ComponentPrices::cmos_32nm();
        let cfg = self.config();
        let passes = cfg.cycles_per_psum_set() as f64;
        let adc = prices.adc_convert_pj(cfg.adc.bits);
        let mut total = 0.0f64;
        for l in layers {
            let columns = l.total_columns() as f64;
            let rows = l.filter_len() as f64;
            let io_bytes = (l.filter_len() + l.filters()) as f64;
            let psums = (l.filters() * l.group_count()) as f64;
            total += columns * passes * (adc + prices.sample_hold_pj + prices.shift_add_pj)
                + rows * passes * (prices.dac_pulse_pj + prices.sram_byte_pj)
                + io_bytes * (prices.edram_byte_pj + prices.router_byte_pj)
                + l.filters() as f64 * prices.quant_output_pj
                + psums * prices.center_mac_pj;
        }
        total / layers.len() as f64
    }
}

impl ShardPlan {
    /// Prices each tile's statistics under `model`'s meter. The exact
    /// sum of the parts is the merged counters priced once —
    /// [`EnergyMeter::merged_breakdown`] over these same statistics —
    /// which is bit-identical to metering the unsharded run (per-tile
    /// statistics merge exactly to the whole; see the shard module's
    /// determinism contract).
    pub fn tile_energy(
        &self,
        model: &CompiledModel,
        tile_stats: &[RunStats],
    ) -> Vec<EnergyBreakdown> {
        debug_assert_eq!(tile_stats.len(), self.tiles(), "one RunStats per tile");
        let meter = model.energy_meter();
        tile_stats
            .iter()
            .map(|s| meter.breakdown(&s.meter_events()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RaellaConfig;
    use raella_nn::graph::Graph;
    use raella_nn::synth::SynthLayer;

    fn tiny_graph() -> Graph {
        let mut g = Graph::new();
        let input = g.input();
        let c1 = g
            .conv(input, SynthLayer::conv(2, 4, 3, 1).build(), 2, 3, 1, 1)
            .unwrap();
        let gap = g.global_avg_pool(c1);
        let fc = g.linear(gap, SynthLayer::linear(4, 6, 3).build());
        g.set_output(fc);
        g
    }

    fn tiny_cfg() -> RaellaConfig {
        RaellaConfig {
            crossbar_rows: 64,
            crossbar_cols: 64,
            search_vectors: 2,
            ..RaellaConfig::default()
        }
    }

    fn sample_image(seed: u64) -> Tensor<u8> {
        use raella_nn::rng::SynthRng;
        let mut rng = SynthRng::new(seed);
        let data: Vec<u8> = (0..2 * 8 * 8)
            .map(|_| rng.exponential(30.0).min(255.0) as u8)
            .collect();
        Tensor::from_vec(data, &[2, 8, 8]).unwrap()
    }

    #[test]
    fn profile_total_is_bit_identical_to_unattributed_run() {
        let model = CompiledModel::compile(&tiny_graph(), &tiny_cfg()).unwrap();
        let image = sample_image(7);
        let (out, stats) = model.run_image(&image).unwrap();
        let profile = model.energy_profile(&image).unwrap();
        assert_eq!(profile.stats(), &stats);
        assert_eq!(profile.total(), &model.energy_breakdown(&stats));
        assert!(profile.total().total_pj() > 0.0);
        // Per-node counters merge exactly to the whole...
        let mut merged = RunStats::default();
        for layer in profile.layers() {
            merged.merge(layer.stats());
        }
        assert_eq!(&merged, profile.stats());
        // ...so the merged-counters breakdown is the total, bit for bit.
        let meter = model.energy_meter();
        let whole = meter.merged_breakdown(
            profile
                .layers()
                .iter()
                .map(|l| l.stats().meter_events())
                .collect::<Vec<_>>()
                .iter(),
        );
        assert_eq!(&whole, profile.total());
        // Output unchanged by attribution.
        let (plain, _) = model.run_image(&image).unwrap();
        assert_eq!(out, plain);
    }

    #[test]
    fn drift_epoch_only_stats_meter_to_zero() {
        let model = CompiledModel::compile(&tiny_graph(), &tiny_cfg()).unwrap();
        let stats = RunStats {
            drift_epoch: 17,
            ..RunStats::default()
        };
        assert!(stats.meter_events().is_zero());
        let b = model.energy_breakdown(&stats);
        assert_eq!(b, EnergyBreakdown::default());
        assert_eq!(b.scale(3.0), EnergyBreakdown::default());
    }

    #[test]
    fn estimated_vector_pj_ranks_slicing_width() {
        use raella_xbar::slicing::Slicing;
        let cfg = tiny_cfg();
        let cache = crate::compiler::SharedCompileCache::new();
        let base = CompiledModel::compile_with_cache(&tiny_graph(), &cfg, &cache).unwrap();
        let wide = cfg.clone().with_fixed_slicing(Slicing::uniform(
            cfg.cell_bits as u32,
            8 / cfg.cell_bits as u32,
        ));
        let narrow = cfg
            .clone()
            .with_fixed_slicing(Slicing::new(&[1; 8], 8).unwrap());
        let wide_model = CompiledModel::compile_with_cache(&tiny_graph(), &wide, &cache).unwrap();
        let narrow_model =
            CompiledModel::compile_with_cache(&tiny_graph(), &narrow, &cache).unwrap();
        // More slices per weight → more columns → more estimated energy.
        assert!(narrow_model.total_columns() > wide_model.total_columns());
        assert!(narrow_model.estimated_vector_pj() > wide_model.estimated_vector_pj());
        assert!(base.estimated_vector_pj() > 0.0);
    }
}
