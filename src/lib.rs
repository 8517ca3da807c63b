//! # RAELLA reproduction
//!
//! A from-scratch Rust reproduction of *RAELLA: Reforming the Arithmetic for
//! Efficient, Low-Resolution, and Low-Loss Analog PIM: No Retraining
//! Required!* (Andrulis, Emer, Sze — ISCA 2023).
//!
//! This meta-crate re-exports the workspace crates:
//!
//! * [`nn`] — quantized DNN substrate (tensors, per-channel 8b quantization,
//!   conv/linear layers, synthetic model zoo for the seven evaluated DNNs).
//! * [`xbar`] — ReRAM crossbar arithmetic (sliced arithmetic, saturating
//!   low-resolution ADCs, analog noise, device lifetime, event counts).
//! * [`core`] — RAELLA's contribution: Center+Offset encoding, Adaptive
//!   Weight Slicing, Dynamic Input Slicing, the execution engine, the
//!   compile-once/run-batch layer (`core::model::CompiledModel`), and the
//!   serving front door (`core::server::RaellaServer`).
//! * [`energy`] — component energy/area models and the Titanium Law.
//! * [`arch`] — full accelerator models (RAELLA, ISAAC, FORMS-8, TIMELY)
//!   with mapping, replication, and the interlayer pipeline.
//!
//! The [`prelude`] flattens the serving surface into one import:
//! `use raella::prelude::*;` brings in the server, gateway, shard
//! planner, compile cache, device lifetime + recalibration policies,
//! energy accounting, and the graph/tensor input types.
//!
//! # Quickstart
//!
//! Encode one DNN layer for RAELLA and verify that low-resolution analog
//! reads stay faithful to the integer reference:
//!
//! ```
//! use raella::core::{CompiledLayer, RaellaConfig};
//! use raella::nn::synth::SynthLayer;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A synthetic 64-input-channel conv layer with bell-curve weights.
//! let layer = SynthLayer::conv(64, 32, 3, 0xC0FFEE).build();
//! let cfg = RaellaConfig::default();
//! let compiled = CompiledLayer::compile(&layer, &cfg)?;
//! let report = compiled.check_fidelity_at_age(&layer, 4, 0)?;
//! assert!(report.mean_abs_error <= cfg.error_budget);
//! # Ok(())
//! # }
//! ```
//!
//! Whole networks serve through the [`core::server::RaellaServer`] front
//! door: the builder compiles the graph's layers once (deduplicated
//! through the process-wide compile cache), workers coalesce submitted
//! images into batches under a latency budget, and every response is
//! bit-identical to per-image execution at any worker count:
//!
//! ```
//! use raella::core::server::{Admission, RaellaServer};
//! use raella::core::RaellaConfig;
//! use raella::nn::graph::Graph;
//! use raella::nn::synth::SynthLayer;
//! use raella::nn::Tensor;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = Graph::new();
//! let input = g.input();
//! let conv = g.conv(input, SynthLayer::conv(2, 4, 3, 1).build(), 2, 3, 1, 1)?;
//! let gap = g.global_avg_pool(conv);
//! g.set_output(gap);
//!
//! let cfg = RaellaConfig { search_vectors: 2, ..RaellaConfig::default() };
//! let server = RaellaServer::builder().model(&g, &cfg).build()?;
//! let response = server
//!     .submit(0, Tensor::zeros(&[2, 6, 6]), Admission::Block)?
//!     .wait()?;
//! assert_eq!(response.output().shape(), &[4]);
//! server.shutdown(); // drains in-flight requests, joins the workers
//! # Ok(())
//! # }
//! ```
//!
//! The compile-once/run-batch layer underneath stays available for static
//! workloads ([`core::model::CompiledModel::run_batch`]).
//!
//! See `examples/` for full scenarios and `crates/bench/benches/` for the
//! harnesses that regenerate every table and figure of the paper.

pub use raella_arch as arch;
pub use raella_core as core;
pub use raella_energy as energy;
pub use raella_nn as nn;
pub use raella_xbar as xbar;

/// One-stop imports for the serving surface: `use raella::prelude::*;`
///
/// Re-exports everything a program that builds, shards, serves, meters,
/// and recalibrates a model needs — the server front door and its async
/// gateway, shard planning and tile geometry, the compile cache, device
/// lifetime and the recalibration-policy surface, energy accounting, and
/// the graph/tensor/synthetic-layer types those APIs take as input.
/// Narrow or internal APIs (probes, ablations, wire-frame helpers) stay
/// behind their full paths.
pub mod prelude {
    pub use raella_arch::tile::TileSpec;
    #[cfg(unix)]
    pub use raella_core::Gateway;
    pub use raella_core::{
        block_on, energy_config_ladder, Admission, BatchResult, CompiledLayer, CompiledModel,
        ComponentPrices, CoreError, DeviceLifetime, EnergyBreakdown, EnergyMeter, EnergyProfile,
        FidelityReport, GatewayClient, LayerBreach, LayerEnergy, LocalPool, MeterEvents,
        MeterGeometry, RaellaConfig, RaellaServer, RecalContext, RecalTrigger, RecalibrationAction,
        RecalibrationPolicy, RequestHandle, Response, RotatePolicy, RunStats, ServerBuilder,
        ServerMetrics, ShardPlan, SharedCompileCache, VectorScratch, WearAwarePolicy,
        WeightEncoding,
    };
    pub use raella_nn::graph::Graph;
    pub use raella_nn::rng::SynthRng;
    pub use raella_nn::synth::SynthLayer;
    pub use raella_nn::tensor::Tensor;
}
