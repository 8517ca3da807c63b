//! Crossbar event counting.
//!
//! [`EventCounts`] holds the events the energy model prices — ADC
//! converts, DAC pulses, row activations, device charge — as the
//! execution engine's crossbar kernel counts them while it computes the
//! analog column sums.

use serde::{Deserialize, Serialize};

/// Event counters accumulated while driving crossbars.
///
/// These are *architecture-neutral quantities*; `raella-energy` prices them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EventCounts {
    /// ADC conversions performed.
    pub adc_converts: u64,
    /// DAC pulses driven (data-dependent: a value `v` costs `v` pulses).
    pub dac_pulses: u64,
    /// Crossbar row activations (rows × cycles with a nonzero input).
    pub row_activations: u64,
    /// Total device charge moved: `Σ input·(pos+neg)` over all cells read.
    pub device_charge: u64,
    /// Crossbar cycles elapsed (one cycle = one input slice streamed).
    pub cycles: u64,
    /// MACs logically performed (for converts/MAC reporting).
    pub macs: u64,
}

impl EventCounts {
    /// Zeroed counters.
    pub fn new() -> Self {
        EventCounts::default()
    }

    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &EventCounts) {
        self.adc_converts += other.adc_converts;
        self.dac_pulses += other.dac_pulses;
        self.row_activations += other.row_activations;
        self.device_charge += other.device_charge;
        self.cycles += other.cycles;
        self.macs += other.macs;
    }

    /// ADC conversions per MAC — the paper's headline efficiency metric
    /// (Table 2). Returns 0 when no MACs were performed.
    pub fn converts_per_mac(&self) -> f64 {
        if self.macs == 0 {
            0.0
        } else {
            self.adc_converts as f64 / self.macs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_counts_merge_and_converts_per_mac() {
        let mut a = EventCounts {
            adc_converts: 10,
            macs: 40,
            ..EventCounts::new()
        };
        let b = EventCounts {
            adc_converts: 6,
            dac_pulses: 100,
            macs: 24,
            ..EventCounts::new()
        };
        a.merge(&b);
        assert_eq!(a.adc_converts, 16);
        assert_eq!(a.dac_pulses, 100);
        assert!((a.converts_per_mac() - 0.25).abs() < 1e-12);
        assert_eq!(EventCounts::new().converts_per_mac(), 0.0);
    }
}
