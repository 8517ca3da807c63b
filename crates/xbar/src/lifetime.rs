//! Device-lifetime nonidealities: programming error and conductance
//! relaxation (drift).
//!
//! The paper evaluates accuracy against a *static* §7.2 noise model, but a
//! served ReRAM array degrades over time in two distinct ways:
//!
//! * **Programming error** — writing a conductance level lands near, not
//!   on, the target. It is drawn once per *programming event* and then
//!   frozen into the array: a deterministic per-cell perturbation of the
//!   compiled levels, re-drawn only when the layer is re-programmed.
//! * **Conductance relaxation** — programmed cells drift toward their
//!   resting state as the array serves reads. We model it as extra
//!   Gaussian read noise whose level grows with *device age*, measured in
//!   served vectors since the last programming, quantized into epochs so
//!   the noise state changes at deterministic, coarse-grained points.
//!
//! Both effects are pure functions of stable coordinates. Programming
//! error depends on `(seed, generation, filter, group)`; relaxation feeds
//! through the counter-derived [`crate::noise::NoiseRng`] substreams keyed
//! by `(seed, vector index, group, epoch)`. Nothing depends on thread
//! count, shard placement, or read order — aged execution stays
//! bit-identical across every execution configuration, exactly like the
//! static model.

use serde::{Deserialize, Serialize};

/// Time-evolving device state: programming error at write, conductance
/// relaxation advancing with served-vector count.
///
/// The default is fully disabled (all zeros) — execution is bit-identical
/// to the pre-lifetime engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceLifetime {
    /// Std-dev of the programming perturbation, in conductance-level units
    /// (compiled cells store small integers; 0.5 means a typical write
    /// lands within ±1 level). `0.0` disables programming error.
    pub programming_sigma: f64,
    /// Extra read-noise level added per drift epoch: at epoch `t` the
    /// relaxation contributes a Gaussian of level `drift_rate · t`,
    /// compounded with the static noise model in quadrature. `0.0`
    /// disables drift.
    pub drift_rate: f64,
    /// Served vectors per drift epoch. Age is quantized to
    /// `age / drift_interval` so the noise state advances at deterministic
    /// coarse-grained points. `0` disables drift.
    pub drift_interval: u64,
    /// Programming generation: bumped on every re-program so the
    /// programming-error draw is fresh. Does not affect read-noise
    /// streams — a re-programmed array at age `a` reads exactly like a
    /// freshly-built generation-`g` array at age `a`.
    pub generation: u64,
}

impl Default for DeviceLifetime {
    fn default() -> Self {
        DeviceLifetime::disabled()
    }
}

impl DeviceLifetime {
    /// A lifetime model with every effect off: no programming error, no
    /// drift. Execution is bit-identical to a build without lifetime
    /// modeling at all.
    pub fn disabled() -> Self {
        DeviceLifetime {
            programming_sigma: 0.0,
            drift_rate: 0.0,
            drift_interval: 0,
            generation: 0,
        }
    }

    /// Creates a lifetime model.
    ///
    /// # Panics
    ///
    /// Panics if `programming_sigma` or `drift_rate` is negative or not
    /// finite.
    pub fn new(programming_sigma: f64, drift_rate: f64, drift_interval: u64) -> Self {
        assert!(
            programming_sigma.is_finite() && programming_sigma >= 0.0,
            "programming sigma must be finite and non-negative, got {programming_sigma}"
        );
        assert!(
            drift_rate.is_finite() && drift_rate >= 0.0,
            "drift rate must be finite and non-negative, got {drift_rate}"
        );
        DeviceLifetime {
            programming_sigma,
            drift_rate,
            drift_interval,
            generation: 0,
        }
    }

    /// Whether conductance relaxation advances with age at all.
    pub fn is_drifting(&self) -> bool {
        self.drift_rate > 0.0 && self.drift_interval > 0
    }

    /// The drift epoch a device at `age` served vectors is in. Always 0
    /// when drift is disabled.
    pub fn drift_epoch(&self, age: u64) -> u64 {
        if self.is_drifting() {
            age / self.drift_interval
        } else {
            0
        }
    }

    /// Relaxation noise level at `epoch`: `drift_rate · epoch`. Zero at
    /// epoch 0 — a freshly-programmed array reads at exactly the static
    /// noise level.
    pub fn relaxation_sigma(&self, epoch: u64) -> f64 {
        if self.is_drifting() {
            self.drift_rate * epoch as f64
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::NoiseModel;

    #[test]
    fn disabled_is_inert() {
        let lt = DeviceLifetime::disabled();
        assert!(!lt.is_drifting());
        assert_eq!(lt.drift_epoch(1_000_000), 0);
        assert_eq!(lt.relaxation_sigma(7), 0.0);
        assert_eq!(lt, DeviceLifetime::default());
    }

    #[test]
    fn epochs_quantize_age() {
        let lt = DeviceLifetime::new(0.0, 0.02, 64);
        assert!(lt.is_drifting());
        assert_eq!(lt.drift_epoch(0), 0);
        assert_eq!(lt.drift_epoch(63), 0);
        assert_eq!(lt.drift_epoch(64), 1);
        assert_eq!(lt.drift_epoch(129), 2);
        assert!((lt.relaxation_sigma(3) - 0.06).abs() < 1e-12);
    }

    #[test]
    fn zero_interval_never_drifts() {
        let lt = DeviceLifetime::new(0.5, 0.02, 0);
        assert!(!lt.is_drifting());
        assert_eq!(lt.drift_epoch(u64::MAX), 0);
        assert_eq!(lt.relaxation_sigma(9), 0.0);
    }

    #[test]
    fn relaxation_compounds_with_static_noise() {
        let lt = DeviceLifetime::new(0.0, 0.03, 16);
        let base = NoiseModel::new(0.04);
        let aged = base.compounded(lt.relaxation_sigma(lt.drift_epoch(32)));
        // epoch 2 → extra 0.06 → √(0.04² + 0.06²)
        assert!((aged.level - (0.0016f64 + 0.0036).sqrt()).abs() < 1e-12);
        // Epoch 0 must be bit-identical to the static model.
        let fresh = base.compounded(lt.relaxation_sigma(0));
        assert_eq!(fresh, base);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rate_rejected() {
        DeviceLifetime::new(0.1, -0.2, 8);
    }
}
