//! Accelergy-style component energy/area models and the Titanium Law.
//!
//! The paper models all architectures with one shared component library
//! "for a fair apples-to-apples comparison" (§6.1.2); this crate is that
//! library for the reproduction:
//!
//! * [`prices`] — per-event energies at 32 nm (ADC converts scaling
//!   exponentially in resolution, ReRAM read charge, DAC pulses, SRAM /
//!   eDRAM / router bytes, digital ops), plus the 65 nm TIMELY-component
//!   variant used by Fig. 13.
//! * [`area`] — component areas and tile-area composition, calibrated so a
//!   600 mm² budget fits ~1024 ISAAC tiles and ~743 RAELLA tiles (§6.1).
//! * [`breakdown`] — named energy breakdowns (the stacked bars of Figs. 1
//!   and 14).
//! * [`meter`] — prices counted execution events ([`meter::MeterEvents`])
//!   into breakdowns, exactly additive under any grouping of the integer
//!   counters (the serving path's per-request/per-tile accounting).
//! * [`titanium`] — the Titanium Law of ADC energy (Table 2):
//!   `ADC energy = E/convert × converts/MAC × MACs/DNN × 1/utilization`.
//!
//! ```
//! use raella_energy::prices::ComponentPrices;
//! use raella_energy::titanium::TitaniumLaw;
//!
//! let prices = ComponentPrices::cmos_32nm();
//! // Lowering ADC resolution exponentially lowers energy per convert.
//! assert!(prices.adc_convert_pj(7) < prices.adc_convert_pj(8));
//!
//! // ISAAC's converts/MAC: 4 weight slices × 8 input slices / 128 rows.
//! let cpm = TitaniumLaw::converts_per_mac(128, 4, 8);
//! assert!((cpm - 0.25).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod breakdown;
pub mod meter;
pub mod prices;
pub mod titanium;

pub use area::ComponentAreas;
pub use breakdown::EnergyBreakdown;
pub use meter::{EnergyMeter, MeterEvents, MeterGeometry};
pub use prices::ComponentPrices;
pub use titanium::TitaniumLaw;
