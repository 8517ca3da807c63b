//! RAELLA configuration (§5's architecture parameters and §6.1's
//! methodology constants).

use serde::{Deserialize, Serialize};

use raella_xbar::adc::AdcSpec;
use raella_xbar::lifetime::DeviceLifetime;
use raella_xbar::noise::NoiseModel;
use raella_xbar::slicing::{Slice, Slicing};

use crate::error::CoreError;

/// How weights are encoded into 2T2R offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WeightEncoding {
    /// Center+Offset (§4.1): per-filter centers solved with Eq. (2).
    CenterOffset,
    /// Zero+Offset: common-practice differential encoding — the center is
    /// pinned to the filter's quantization zero point, so offsets are the
    /// signed weights themselves (the paper's Table 4 comparison).
    ZeroOffset,
}

/// How input slices are scheduled at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InputMode {
    /// Dynamic Input Slicing (§4.3): 4b-2b-2b speculation with 1b recovery
    /// of failed columns. 11 cycles per psum set.
    Speculative,
    /// Recovery-only: eight 1b input slices, all columns converted.
    /// 8 cycles per psum set.
    BitSerial,
}

/// Number of 1b input slices (inputs are 8b magnitudes).
pub(crate) const INPUT_BITS: usize = 8;

/// [`InputMode::Speculative`]'s input windows, 4b-2b-2b, MSB window first
/// (§4.3): [`Slicing::raella_speculative`] resolved at compile time.
pub(crate) const SPEC_WINDOWS: [Slice; 3] = [
    Slice { h: 7, l: 4 },
    Slice { h: 3, l: 2 },
    Slice { h: 1, l: 0 },
];

/// Widest ReRAM cell [`RaellaConfig::validate`] accepts. Weight slices
/// are at most this wide, which bounds every programmed level's magnitude
/// — the engine's 16-bit accumulation relies on it.
pub(crate) const MAX_CELL_BITS: u8 = 5;

/// Full configuration for compiling and running layers on RAELLA.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RaellaConfig {
    /// Crossbar rows (512 in the paper).
    pub crossbar_rows: usize,
    /// Crossbar columns (512 in the paper).
    pub crossbar_cols: usize,
    /// Bits per ReRAM cell (4 in the paper).
    pub cell_bits: u8,
    /// The column-sum ADC (7b signed in the paper).
    pub adc: AdcSpec,
    /// Weight encoding strategy.
    pub encoding: WeightEncoding,
    /// Encoding used *during the slicing search* when it should differ
    /// from the runtime encoding. Table 4's Zero+Offset comparison keeps
    /// Center+Offset's slicings "to match efficiency/throughput" (§6.5):
    /// set `encoding = ZeroOffset` with
    /// `search_encoding = Some(CenterOffset)`.
    pub search_encoding: Option<WeightEncoding>,
    /// Input slicing schedule.
    pub input_mode: InputMode,
    /// Adaptive Weight Slicing error budget (0.09 in all paper tests).
    pub error_budget: f64,
    /// Test vectors used by the slicing search (10 in the paper).
    pub search_vectors: usize,
    /// Force this weight slicing instead of searching (ablation setups).
    pub fixed_weight_slicing: Option<Slicing>,
    /// Treat the layer as a DNN's last layer: always use eight 1b weight
    /// slices (§4.2.2 — the last layer has outsized accuracy impact).
    pub last_layer: bool,
    /// Analog noise level (§7.2; 0.0 = ideal).
    pub noise: NoiseModel,
    /// Device-lifetime state: programming error at write, conductance
    /// relaxation with served-vector age. Disabled by default — execution
    /// is then bit-identical to the static noise model.
    pub lifetime: DeviceLifetime,
    /// Seed for noise sampling and search-input draws.
    pub seed: u64,
}

impl Default for RaellaConfig {
    /// The paper's standard configuration: 512×512 2T2R crossbar, 4b cells,
    /// 7b signed ADC, Center+Offset, speculation on (the input windows are
    /// fixed at 4b-2b-2b), error budget 0.09, ten search vectors, no analog
    /// noise.
    fn default() -> Self {
        RaellaConfig {
            crossbar_rows: 512,
            crossbar_cols: 512,
            cell_bits: 4,
            adc: AdcSpec::raella_7b(),
            encoding: WeightEncoding::CenterOffset,
            search_encoding: None,
            input_mode: InputMode::Speculative,
            error_budget: 0.09,
            search_vectors: 10,
            fixed_weight_slicing: None,
            last_layer: false,
            noise: NoiseModel::ideal(),
            lifetime: DeviceLifetime::disabled(),
            seed: 0xAE11A,
        }
    }
}

impl RaellaConfig {
    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] on a zero-sized crossbar, a
    /// cell rating outside 1–5 bits, a non-finite or negative error
    /// budget, zero search vectors, or a fixed slicing whose widths exceed
    /// the cell rating.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.crossbar_rows == 0 || self.crossbar_cols == 0 {
            return Err(CoreError::InvalidConfig(format!(
                "crossbar {}×{} must be nonzero",
                self.crossbar_rows, self.crossbar_cols
            )));
        }
        if !(1..=MAX_CELL_BITS).contains(&self.cell_bits) {
            return Err(CoreError::InvalidConfig(format!(
                "cell bits {} outside 1–{MAX_CELL_BITS}",
                self.cell_bits
            )));
        }
        if !self.error_budget.is_finite() || self.error_budget < 0.0 {
            return Err(CoreError::InvalidConfig(format!(
                "error budget {} must be finite and non-negative",
                self.error_budget
            )));
        }
        if self.search_vectors == 0 {
            return Err(CoreError::InvalidConfig(
                "search needs at least one test vector".into(),
            ));
        }
        if !self.lifetime.programming_sigma.is_finite()
            || self.lifetime.programming_sigma < 0.0
            || !self.lifetime.drift_rate.is_finite()
            || self.lifetime.drift_rate < 0.0
        {
            return Err(CoreError::InvalidConfig(format!(
                "lifetime sigmas (programming {}, drift {}) must be finite and non-negative",
                self.lifetime.programming_sigma, self.lifetime.drift_rate
            )));
        }
        if let Some(s) = &self.fixed_weight_slicing {
            if s.max_width() > u32::from(self.cell_bits) {
                return Err(CoreError::InvalidConfig(format!(
                    "fixed slicing {s} exceeds {}b cells",
                    self.cell_bits
                )));
            }
            if s.total_bits() != 8 {
                return Err(CoreError::InvalidConfig(format!(
                    "fixed slicing {s} must cover 8 weight bits"
                )));
            }
        }
        Ok(())
    }

    /// This configuration with speculation disabled (bit-serial inputs) —
    /// the paper's "RAELLA without speculation" variant.
    pub fn without_speculation(mut self) -> Self {
        self.input_mode = InputMode::BitSerial;
        self
    }

    /// This configuration with Zero+Offset (differential) encoding at
    /// runtime while the slicing search still assumes Center+Offset —
    /// the paper's Table 4 setup, which matches the two encodings'
    /// efficiency and throughput.
    pub fn zero_offset(mut self) -> Self {
        self.encoding = WeightEncoding::ZeroOffset;
        self.search_encoding = Some(WeightEncoding::CenterOffset);
        self
    }

    /// This configuration with the given analog noise level.
    pub fn with_noise(mut self, level: f64) -> Self {
        self.noise = NoiseModel::new(level);
        self
    }

    /// This configuration with the given device-lifetime model.
    pub fn with_lifetime(mut self, lifetime: DeviceLifetime) -> Self {
        self.lifetime = lifetime;
        self
    }

    /// This configuration with a pinned weight slicing (skips the search).
    pub fn with_fixed_slicing(mut self, slicing: Slicing) -> Self {
        self.fixed_weight_slicing = Some(slicing);
        self
    }

    /// Marks the layer as the network's last (forces 1b weight slices).
    pub fn as_last_layer(mut self) -> Self {
        self.last_layer = true;
        self
    }

    /// The noise-stream seed a [`crate::model::CompiledModel`] derives from
    /// this configuration for every image it runs: an image's vectors are
    /// numbered from 0 across its layers in execution order, and vector
    /// `v` draws from `(noise_seed(), v)`.
    pub fn noise_seed(&self) -> u64 {
        self.seed ^ 0xE61E
    }

    /// Number of input-slice cycles a psum set takes in this mode
    /// (11 with speculation, 8 bit-serial — §4.3.2).
    pub fn cycles_per_psum_set(&self) -> u64 {
        match self.input_mode {
            InputMode::Speculative => (SPEC_WINDOWS.len() + INPUT_BITS) as u64,
            InputMode::BitSerial => 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_windows_are_the_speculative_slicing() {
        assert_eq!(
            SPEC_WINDOWS.to_vec(),
            Slicing::raella_speculative().slices()
        );
    }

    #[test]
    fn default_matches_paper_constants() {
        let cfg = RaellaConfig::default();
        assert_eq!(cfg.crossbar_rows, 512);
        assert_eq!(cfg.crossbar_cols, 512);
        assert_eq!(cfg.cell_bits, 4);
        assert_eq!(cfg.adc, AdcSpec::raella_7b());
        assert!((cfg.error_budget - 0.09).abs() < 1e-12);
        assert_eq!(cfg.search_vectors, 10);
        assert_eq!(cfg.cycles_per_psum_set(), 11);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn without_speculation_takes_8_cycles() {
        let cfg = RaellaConfig::default().without_speculation();
        assert_eq!(cfg.cycles_per_psum_set(), 8);
    }

    #[test]
    fn validation_catches_bad_values() {
        for broken in [
            RaellaConfig {
                crossbar_rows: 0,
                ..RaellaConfig::default()
            },
            RaellaConfig {
                cell_bits: 6,
                ..RaellaConfig::default()
            },
            RaellaConfig {
                error_budget: f64::NAN,
                ..RaellaConfig::default()
            },
            RaellaConfig {
                search_vectors: 0,
                ..RaellaConfig::default()
            },
            RaellaConfig {
                lifetime: DeviceLifetime {
                    drift_rate: f64::NAN,
                    ..DeviceLifetime::disabled()
                },
                ..RaellaConfig::default()
            },
        ] {
            assert!(broken.validate().is_err());
        }
    }

    #[test]
    fn validation_checks_fixed_slicing_against_cells() {
        let cfg = RaellaConfig::default().with_fixed_slicing(Slicing::new(&[4, 4], 8).unwrap());
        assert!(cfg.validate().is_ok());

        let mut cfg = RaellaConfig::default().with_fixed_slicing(Slicing::new(&[4, 4], 8).unwrap());
        cfg.cell_bits = 2;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn builder_style_setters_compose() {
        let cfg = RaellaConfig::default()
            .zero_offset()
            .with_noise(0.04)
            .with_lifetime(DeviceLifetime::new(0.5, 0.02, 64))
            .as_last_layer();
        assert_eq!(cfg.encoding, WeightEncoding::ZeroOffset);
        assert!((cfg.noise.level - 0.04).abs() < 1e-12);
        assert!(cfg.last_layer);
        assert!(cfg.lifetime.is_drifting());
        assert!(cfg.validate().is_ok());
    }
}
