//! ReRAM crossbar simulator for the RAELLA reproduction.
//!
//! Implements the arithmetic of the paper's analog compute fabric that the
//! execution engine (`raella-core`) runs on (§2.2–§2.3, §3, §7.2):
//!
//! * [`slicing`] — bit-sliced arithmetic: the signed crop function
//!   `D(h, l, x)` of Eq. (2), slicing compositions (108 ways to slice an 8b
//!   operand into ≤4b slices), and shift+add reconstruction.
//! * [`adc`] — saturating converters, including RAELLA's 7b
//!   LSB-capturing ADC (`clamp(sum, −64, 63)`, §3) and ISAAC-style
//!   unsigned ADCs.
//! * [`crossbar`] — the event counters the energy model prices.
//! * [`noise`] — the paper's §7.2 analog noise model
//!   `N(N⁺−N⁻, E²·(N⁺+N⁻))`.
//! * [`lifetime`] — device-lifetime state beyond the paper's static
//!   model: programming error at write, conductance relaxation with age.
//!
//! The crate counts *events* (ADC converts, DAC pulses, row activations,
//! device charge); pricing them in joules is `raella-energy`'s job.
//!
//! ```
//! use raella_xbar::adc::AdcSpec;
//!
//! // A 2T2R column computes +3·5 − 2·7 = 1: a 7b signed ADC reads it
//! // exactly, and saturates (detectably) at its rails outside [−64, 63].
//! let adc = AdcSpec::raella_7b();
//! let sum = 3 * 5 - 2 * 7;
//! assert_eq!(adc.convert(sum), 1);
//! assert!(!adc.saturated(adc.convert(sum)));
//! assert_eq!(adc.convert(100), 63);
//! assert!(adc.saturated(adc.convert(100)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adc;
pub mod crossbar;
pub mod error;
pub mod lifetime;
pub mod noise;
pub mod slicing;

pub use adc::AdcSpec;
pub use crossbar::EventCounts;
pub use error::XbarError;
pub use lifetime::DeviceLifetime;
pub use slicing::{crop_signed, Slice, Slicing};
