//! Architecture specifications (§6.1 configurations).

use serde::{Deserialize, Serialize};

use raella_energy::area::TileGeometry;
use raella_energy::prices::ComponentPrices;
use raella_nn::models::shapes::LayerSpec;

/// How many weight slices a layer uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WeightSliceModel {
    /// A fixed count for every layer (ISAAC: four 2b slices).
    Fixed(usize),
    /// RAELLA's Adaptive Weight Slicing outcome (Fig. 7): three slices
    /// (4b-2b-2b) for typical layers, two (4b-4b) for short filters whose
    /// column sums stay small, eight 1b slices for the last layer.
    RaellaAdaptive,
}

/// An accelerator architecture for analytic evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccelSpec {
    /// Architecture name as reported in figures.
    pub name: String,
    /// Crossbar rows.
    pub rows: usize,
    /// Crossbar columns.
    pub cols: usize,
    /// Signed 2T2R arithmetic (RAELLA) vs unsigned 1T1R.
    pub two_t2r: bool,
    /// ADC resolution in bits.
    pub adc_bits: u8,
    /// Weight slicing model.
    pub weight_slices: WeightSliceModel,
    /// Input-slice cycles per psum set (8 bit-serial; 11 speculative).
    pub cycles_per_psum_set: u64,
    /// Average ADC conversions per column per psum set (8 bit-serial;
    /// ~3.3 with speculation, §4.3.2).
    pub input_converts_per_column: f64,
    /// Overrides converts/MAC entirely (TIMELY's analog-local regime).
    pub converts_per_mac_override: Option<f64>,
    /// Crossbar cycle time in nanoseconds (100 ns, §5.1).
    pub cycle_ns: f64,
    /// Fraction of MACs remaining after pruning (FORMS: 0.5; others 1.0).
    pub pruning_factor: f64,
    /// Average ReRAM charge units moved per MAC (data-dependent crossbar
    /// energy; calibrated from the functional engine).
    pub charge_units_per_mac: f64,
    /// Average DAC pulses per input element per psum set.
    pub pulses_per_input: f64,
    /// Input-buffer fetches per input element per psum set (2 with
    /// speculation — §7.1 "2× fetches" — else 1).
    pub input_fetches: f64,
    /// Whether the digital Center+Offset path (input sums + center MACs)
    /// is present.
    pub center_offset_digital: bool,
    /// Whether signed inputs are handled natively in one pass (ISAAC's
    /// biased encoding) or as two positive/negative planes (RAELLA, §5.1).
    pub native_signed: bool,
    /// Component energy prices.
    pub prices: ComponentPrices,
    /// Physical tile composition (for the area budget).
    pub tile: TileGeometry,
    /// Crossbars per tile (= `tile.imas × tile.crossbars_per_ima`).
    pub area_budget_mm2: f64,
}

impl AccelSpec {
    /// RAELLA at 32 nm with speculation (§5, §6.1).
    pub fn raella() -> Self {
        AccelSpec {
            name: "RAELLA".into(),
            rows: 512,
            cols: 512,
            two_t2r: true,
            adc_bits: 7,
            weight_slices: WeightSliceModel::RaellaAdaptive,
            cycles_per_psum_set: 11,
            input_converts_per_column: 3.3,
            converts_per_mac_override: None,
            cycle_ns: 100.0,
            pruning_factor: 1.0,
            charge_units_per_mac: 6.0,
            pulses_per_input: 3.8,
            input_fetches: 2.0,
            center_offset_digital: true,
            native_signed: false,
            prices: ComponentPrices::cmos_32nm(),
            tile: TileGeometry {
                imas: 8,
                crossbars_per_ima: 4,
                rows: 512,
                cols: 512,
                two_t2r: true,
                adcs_per_crossbar: 4,
                adc_bits: 7,
                ima_sram_kb: 2.0 + 4.0 * 0.75,
                tile_edram_kb: 96.0,
            },
            area_budget_mm2: 600.0,
        }
    }

    /// RAELLA with speculation disabled: eight 1b input slices, every
    /// column converted (§6.3's no-speculation variant).
    pub fn raella_no_spec() -> Self {
        let mut spec = AccelSpec::raella();
        spec.name = "RAELLA (no spec)".into();
        spec.cycles_per_psum_set = 8;
        spec.input_converts_per_column = 8.0;
        spec.charge_units_per_mac = 3.0;
        spec.pulses_per_input = 2.0;
        spec.input_fetches = 1.0;
        spec
    }

    /// The 8b ISAAC baseline (§6.1.2): 128×128 unsigned crossbars, four 2b
    /// weight slices, eight 1b input slices, 8b ADC, partial-Toeplitz
    /// mappings enabled (the paper's strengthened ISAAC).
    pub fn isaac() -> Self {
        AccelSpec {
            name: "ISAAC".into(),
            rows: 128,
            cols: 128,
            two_t2r: false,
            adc_bits: 8,
            weight_slices: WeightSliceModel::Fixed(4),
            cycles_per_psum_set: 8,
            input_converts_per_column: 8.0,
            converts_per_mac_override: None,
            cycle_ns: 100.0,
            pruning_factor: 1.0,
            charge_units_per_mac: 14.0,
            pulses_per_input: 2.0,
            input_fetches: 1.0,
            center_offset_digital: false,
            native_signed: true,
            prices: ComponentPrices::cmos_32nm(),
            tile: TileGeometry {
                imas: 8,
                crossbars_per_ima: 8,
                rows: 128,
                cols: 128,
                two_t2r: false,
                adcs_per_crossbar: 1,
                adc_bits: 8,
                ima_sram_kb: 3.0,
                tile_edram_kb: 96.0,
            },
            area_budget_mm2: 600.0,
        }
    }

    /// FORMS-8 (§6.1.2): Weight-Count-Limited — ISAAC-style hardware with
    /// polarized weight regions (lower column sums → 7b ADC) and the
    /// highest published pruning ratio (2.0× MACs/DNN reduction on
    /// ResNet-class models). Requires retrained DNNs.
    pub fn forms8() -> Self {
        let mut spec = AccelSpec::isaac();
        spec.name = "FORMS-8".into();
        spec.adc_bits = 7;
        spec.tile.adc_bits = 7;
        spec.pruning_factor = 0.5;
        spec
    }

    /// A TIMELY-like Sum-Fidelity-Limited design at 65 nm (§6.4): large
    /// analog-local arrays accumulate across subarrays in the analog
    /// domain (up to 512× fewer converts than ISAAC), time-domain
    /// interfaces make each convert ~10× cheaper, and LSBs are dropped
    /// (requantized/retrained DNNs). Modeled analytically from its
    /// published ratios, as the paper itself does.
    pub fn timely_like() -> Self {
        AccelSpec {
            name: "TIMELY".into(),
            rows: 256,
            cols: 256,
            two_t2r: false,
            adc_bits: 8,
            weight_slices: WeightSliceModel::Fixed(2),
            cycles_per_psum_set: 8,
            input_converts_per_column: 8.0,
            // ISAAC is at 0.25 converts/MAC; TIMELY reports up to 512×
            // fewer (§2.6). Use 0.25/512.
            converts_per_mac_override: Some(0.25 / 512.0),
            cycle_ns: 400.0,
            pruning_factor: 1.0,
            charge_units_per_mac: 20.0,
            pulses_per_input: 2.0,
            input_fetches: 1.0,
            center_offset_digital: false,
            native_signed: true,
            prices: ComponentPrices::timely_65nm(),
            tile: TileGeometry {
                imas: 8,
                crossbars_per_ima: 8,
                rows: 256,
                cols: 256,
                two_t2r: false,
                adcs_per_crossbar: 1,
                adc_bits: 8,
                ima_sram_kb: 3.0,
                tile_edram_kb: 96.0,
            },
            area_budget_mm2: 600.0,
        }
    }

    /// RAELLA scaled to 65 nm with TIMELY's analog components (§6.4's
    /// comparison setup). With converts this cheap, speculation's crossbar
    /// overhead is not worth it — the paper finds the no-speculation
    /// variant more efficient (§6.4).
    pub fn raella_65nm(speculation: bool) -> Self {
        let mut spec = if speculation {
            AccelSpec::raella()
        } else {
            AccelSpec::raella_no_spec()
        };
        spec.name = if speculation {
            "RAELLA-65nm".into()
        } else {
            "RAELLA-65nm (no spec)".into()
        };
        spec.prices = ComponentPrices::timely_65nm();
        spec.cycle_ns = 150.0;
        spec
    }

    /// The four cumulative §7 ablation setups (Fig. 14's energy side):
    /// ISAAC → +Center+Offset (512×512 2T2R, 7b ADC, still four 2b weight
    /// slices) → +Adaptive Weight Slicing → full RAELLA.
    pub fn ablation_fig14() -> [AccelSpec; 4] {
        let isaac = AccelSpec::isaac();

        let mut center_offset = AccelSpec::raella_no_spec();
        center_offset.name = "+Center+Offset".into();
        center_offset.weight_slices = WeightSliceModel::Fixed(4);
        // C+O bit sparsity lowers crossbar charge vs ISAAC (§7.1) but the
        // fourth weight slice still moves more charge than full RAELLA.
        center_offset.charge_units_per_mac = 4.0;

        let mut adaptive = AccelSpec::raella_no_spec();
        adaptive.name = "+Adaptive Weight Slicing".into();

        let mut raella = AccelSpec::raella();
        raella.name = "RAELLA (full)".into();

        [isaac, center_offset, adaptive, raella]
    }

    /// Number of weight slices a layer uses on this architecture.
    pub fn weight_slices_for(&self, layer: &LayerSpec, is_last: bool) -> usize {
        match self.weight_slices {
            WeightSliceModel::Fixed(n) => n,
            WeightSliceModel::RaellaAdaptive => {
                if is_last {
                    8
                } else if layer.filter_len() <= 72 {
                    // Short filters (depthwise 9, tiny 1×1) accumulate few
                    // products: the search accepts 4b-4b (Fig. 7).
                    2
                } else {
                    3
                }
            }
        }
    }

    /// Total crossbars available in the area budget.
    pub fn total_crossbars(&self) -> usize {
        let areas = raella_energy::area::ComponentAreas::cmos_32nm();
        let tiles = self.tile.tiles_in_budget(&areas, self.area_budget_mm2);
        tiles * self.tile.imas * self.tile.crossbars_per_ima
    }

    /// Passes a layer's inputs require on this architecture: 2 when the
    /// inputs are signed and the hardware splits them into positive and
    /// negative planes (RAELLA), 1 otherwise.
    pub fn signed_passes(&self, layer: &LayerSpec) -> u64 {
        if layer.signed_inputs && !self.native_signed {
            2
        } else {
            1
        }
    }

    /// Converts per MAC for a layer on this architecture (before
    /// utilization effects): `weight_slices × converted input slices /
    /// filter rows`, or the architecture's override.
    pub fn converts_per_mac(&self, layer: &LayerSpec, is_last: bool) -> f64 {
        if let Some(cpm) = self.converts_per_mac_override {
            return cpm;
        }
        let n_w = self.weight_slices_for(layer, is_last) as f64;
        let rows = layer.filter_len().min(self.rows) as f64;
        n_w * self.input_converts_per_column / rows
    }
}

impl std::fmt::Display for AccelSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({}×{}, {}b ADC)",
            self.name, self.rows, self.cols, self.adc_bits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raella_nn::models::shapes;

    #[test]
    fn paper_tile_counts_emerge_from_area() {
        let areas = raella_energy::area::ComponentAreas::cmos_32nm();
        let tiles = |spec: AccelSpec| spec.tile.tiles_in_budget(&areas, spec.area_budget_mm2);
        assert!((650..=850).contains(&tiles(AccelSpec::raella())));
        assert!((900..=1200).contains(&tiles(AccelSpec::isaac())));
    }

    #[test]
    fn isaac_converts_per_mac_is_quarter() {
        let isaac = AccelSpec::isaac();
        let net = shapes::resnet18();
        let layer = net
            .layers
            .iter()
            .find(|l| l.filter_len() >= 128)
            .expect("resnet18 has full-length layers");
        assert!((isaac.converts_per_mac(layer, false) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn raella_converts_per_mac_matches_paper_regime() {
        let raella = AccelSpec::raella();
        let net = shapes::resnet18();
        let layer = net
            .layers
            .iter()
            .find(|l| l.filter_len() >= 512)
            .expect("resnet has long filters");
        let cpm = raella.converts_per_mac(layer, false);
        // §7.1: 0.018 converts/MAC with speculation.
        assert!((0.015..0.025).contains(&cpm), "converts/MAC {cpm}");
    }

    #[test]
    fn adaptive_slices_follow_fig7() {
        let raella = AccelSpec::raella();
        let net = shapes::mobilenet_v2();
        let dw = net
            .layers
            .iter()
            .find(|l| l.kind == shapes::LayerKind::DepthwiseConv)
            .expect("mobilenet has depthwise layers");
        assert_eq!(raella.weight_slices_for(dw, false), 2);
        let big = net
            .layers
            .iter()
            .find(|l| l.filter_len() > 100)
            .expect("mobilenet has expand layers");
        assert_eq!(raella.weight_slices_for(big, false), 3);
        assert_eq!(raella.weight_slices_for(big, true), 8);
    }

    #[test]
    fn variant_constructors_differ_where_expected() {
        let spec = AccelSpec::raella();
        let no_spec = AccelSpec::raella_no_spec();
        assert_eq!(spec.cycles_per_psum_set, 11);
        assert_eq!(no_spec.cycles_per_psum_set, 8);
        assert!(no_spec.input_converts_per_column > spec.input_converts_per_column);

        let forms = AccelSpec::forms8();
        assert!((forms.pruning_factor - 0.5).abs() < 1e-12);
        assert_eq!(forms.adc_bits, 7);

        let timely = AccelSpec::timely_like();
        assert!(timely.converts_per_mac_override.unwrap() < 0.001);
    }

    #[test]
    fn display_is_informative() {
        let s = AccelSpec::raella().to_string();
        assert!(s.contains("RAELLA") && s.contains("512") && s.contains("7b"));
    }

    #[test]
    fn ablation_converts_per_mac_ladder_matches_fig14() {
        // §7.1: 0.25 → 0.063 → 0.047 → 0.018 converts/MAC.
        let setups = AccelSpec::ablation_fig14();
        let net = shapes::resnet18();
        let layer = net
            .layers
            .iter()
            .find(|l| l.filter_len() >= 512)
            .expect("long layer");
        let cpms: Vec<f64> = setups
            .iter()
            .map(|s| s.converts_per_mac(layer, false))
            .collect();
        assert!((cpms[0] - 0.25).abs() < 0.01, "{cpms:?}");
        assert!((cpms[1] - 0.0625).abs() < 0.005, "{cpms:?}");
        assert!((cpms[2] - 0.047).abs() < 0.005, "{cpms:?}");
        assert!((cpms[3] - 0.019).abs() < 0.004, "{cpms:?}");
        // Strictly decreasing ladder.
        assert!(cpms.windows(2).all(|w| w[1] < w[0]));
    }
}
