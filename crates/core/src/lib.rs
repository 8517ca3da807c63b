//! RAELLA's contribution: the three strategies that reshape analog column
//! sums so a cheap 7b ADC reads them with near-perfect fidelity, plus the
//! execution engine that runs DNN layers through them.
//!
//! * [`center`] — **Center+Offset encoding** (§4.1): per-filter centers
//!   solved with Eq. (2); weights stored as signed offsets in 2T2R pairs so
//!   positive and negative sliced products cancel in-column.
//! * [`adaptive`] — **Adaptive Weight Slicing** (§4.2, Algorithm 1):
//!   per-layer compile-time search over the 108 slicings of 8 bits into
//!   ≤4b slices, guided by a measured error budget (0.09).
//! * [`engine`] — **Dynamic Input Slicing** (§4.3) and the crossbar
//!   pipeline: 4b-2b-2b speculative input slices, rail-detection of ADC
//!   saturation, 1b recovery cycles converting only failed columns.
//! * [`compiler`] — the preprocessing pipeline (Algorithm 1's
//!   `SliceEncodeWeights`): slicing search → center solve → programmed
//!   crossbar columns — plus the [`compiler::SharedCompileCache`] that
//!   deduplicates compiles across a whole model and across models.
//! * [`model`] — whole-model compilation: [`model::CompiledModel`] compiles
//!   a graph's layers once and streams image batches across workers with
//!   bit-exact, batch-composition-independent results.
//! * [`energy`] — energy accounting: binds the engine's event counters
//!   to `raella-energy`'s priced component breakdowns, per run, per
//!   layer, and per tile — exactly additive under any grouping because
//!   integer counters merge before pricing.
//! * [`server`] — the serving front door: [`server::RaellaServer`] owns
//!   worker threads fed by a coalescing request queue; submit images, get
//!   typed [`server::RequestHandle`]s, wait for [`server::Response`]s that
//!   are bit-identical to static batching. Models compile through the
//!   process-wide [`compiler::SharedCompileCache`]. With a drifting
//!   [`DeviceLifetime`] configured, the server tracks device age, runs a
//!   fidelity watchdog, and live-swaps reprogrammed models onto fresh
//!   tiles (recalibration) without dropping a request.
//! * [`policy`] — pluggable recalibration: a
//!   [`policy::RecalibrationPolicy`] maps the observed degradation
//!   (budget breaches, per-tile wear, failed tiles) to a
//!   [`policy::RecalibrationAction`] — full rotate-and-reprogram (the
//!   default, bit-identical to the pre-policy server), wear-aware
//!   remapping, targeted per-layer refresh, or shrinking the plan onto
//!   surviving tiles after a fault.
//! * [`gateway`] — the async front end: [`server::RequestHandle`] is a
//!   [`std::future::Future`] driven by any executor (a dependency-free
//!   [`gateway::block_on`]/[`gateway::LocalPool`] pair ships in-tree),
//!   and [`gateway::Gateway`] serves a length-prefixed TCP protocol,
//!   multiplexing 10k+ in-flight requests from a small fixed pool of
//!   IO threads that wait in `poll(2)` (unix only) and are woken by
//!   socket readiness and by request completions.
//! * [`shard`] — tile-sharded execution: a [`shard::ShardPlan`] places
//!   layers (and row-group splits of long layers) across simulated
//!   accelerator tiles and runs a model under that placement
//!   ([`shard::ShardPlan::run_batch`]); partial sums merge by exact
//!   accumulator reduction, so any placement is bit-identical to the
//!   monolithic engine, with per-tile [`RunStats`] attribution.
//! * [`probe`] — column-sum distribution probes behind Figs. 3 and 5.
//! * [`accuracy`] — fidelity reports (the paper's §4.2.1 error metric) and
//!   proxy-accuracy measurement.
//! * [`ablation`] — the four cumulative setups of §7 (ISAAC → +C+O →
//!   +AWS → RAELLA) for the energy and noise ablations.
//! * [`extensions`] — design-choice ablations the paper discusses but does
//!   not adopt: per-column integer centers (§4.1.3) and LSB-dropping
//!   Sum-Fidelity-Limited ADCs (footnote 4).
//! * [`scratch`] — reusable per-vector working memory: the engine's hot
//!   loop allocates nothing per vector.
//! * [`parallel`] — the deterministic batch fan-out behind
//!   [`engine::run_batch_parallel_at_age`]: contiguous blocks, per-vector noise
//!   streams, bit-identical results at any thread count.
//!
//! ```
//! use raella_core::{CompiledLayer, RaellaConfig};
//! use raella_nn::synth::SynthLayer;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let layer = SynthLayer::conv(64, 16, 3, 7).build();
//! let cfg = RaellaConfig::default();
//! let compiled = CompiledLayer::compile(&layer, &cfg)?;
//! let report = compiled.check_fidelity_at_age(&layer, 4, 0)?;
//! assert!(report.mean_abs_error <= cfg.error_budget);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod accuracy;
pub mod adaptive;
pub mod center;
pub mod compiler;
pub mod config;
pub mod energy;
pub mod engine;
pub mod error;
pub mod extensions;
pub mod gateway;
pub mod model;
pub mod parallel;
pub mod policy;
pub mod probe;
mod recal;
pub mod scratch;
pub mod server;
pub mod shard;

pub use accuracy::FidelityReport;
pub use compiler::{CompiledLayer, SharedCompileCache};
pub use config::{RaellaConfig, WeightEncoding};
pub use energy::{EnergyProfile, LayerEnergy};
pub use engine::RunStats;
pub use error::CoreError;
#[cfg(unix)]
pub use gateway::Gateway;
pub use gateway::{block_on, GatewayClient, LocalPool};
pub use model::{BatchResult, CompiledModel};
pub use policy::{
    LayerBreach, RecalContext, RecalTrigger, RecalibrationAction, RecalibrationPolicy,
    RotatePolicy, WearAwarePolicy,
};
pub use raella_energy::meter::{EnergyMeter, MeterEvents, MeterGeometry};
pub use raella_energy::{ComponentPrices, EnergyBreakdown};
pub use raella_xbar::lifetime::DeviceLifetime;
pub use scratch::VectorScratch;
pub use server::{
    energy_config_ladder, Admission, RaellaServer, RequestHandle, Response, ServerBuilder,
    ServerMetrics,
};
pub use shard::ShardPlan;
