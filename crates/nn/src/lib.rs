//! Quantized DNN substrate for the RAELLA reproduction.
//!
//! RAELLA ([Andrulis et al., ISCA 2023]) evaluates seven 8-bit per-channel
//! quantized DNNs. This crate provides everything those experiments need
//! from the "ML side", built from scratch:
//!
//! * [`tensor`] — a small dense multi-dimensional tensor.
//! * [`quant`] — per-channel 8b quantization (scale + zero point), psum
//!   requantization with fused ReLU, exactly the integer pipeline of
//!   [Zhao et al., ICLR 2020] that the paper adopts (§2.1, §4.2.1).
//! * [`layers`] — convolution (via im2col), fully connected, pooling and
//!   elementwise ops with `i32` accumulation.
//! * [`graph`] — a tiny DAG executor for mini end-to-end models.
//! * [`models`] — the model zoo: full layer-shape tables of the seven
//!   evaluated DNNs (for analytic energy/throughput) and *mini* functional
//!   variants with matched weight/activation statistics (for fidelity and
//!   accuracy experiments).
//! * [`synth`] — seeded synthetic weight/activation generators standing in
//!   for the pretrained Torchvision checkpoints and ImageNet inputs (see
//!   `DESIGN.md` §5 for the substitution argument).
//! * [`stats`] — per-bit densities, histograms and distribution summaries
//!   used by Figs. 3, 5 and 8.
//!
//! The central type is [`MatrixLayer`]: a DNN layer viewed the way a PIM
//! crossbar sees it — a `filters × filter_len` matrix of stored-domain `u8`
//! weights multiplied by a stream of `u8` input vectors, accumulated in
//! `i32`, then requantized to 8b outputs.
//!
//! ```
//! use raella_nn::synth::SynthLayer;
//!
//! let layer = SynthLayer::conv(64, 32, 3, 42).build();
//! assert_eq!(layer.filter_len(), 64 * 3 * 3);
//! let inputs = layer.sample_inputs(4, 7);
//! let outputs = layer.reference_outputs(&inputs);
//! assert_eq!(outputs.len(), 4 * layer.filters());
//! ```
//!
//! [Andrulis et al., ISCA 2023]: https://doi.org/10.1145/3579371.3589062
//! [Zhao et al., ICLR 2020]: https://openreview.net/forum?id=H1lBj2VFPS

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod graph;
pub mod layers;
pub mod matrix;
pub mod models;
pub mod quant;
pub mod rng;
pub mod stats;
pub mod synth;
pub mod tensor;

pub use error::NnError;
pub use matrix::MatrixLayer;
pub use quant::{OutputQuant, QuantParams};
pub use tensor::Tensor;
