//! # focus-baselines
//!
//! The seven comparison models of the FOCUS paper (§VIII-A, "Baselines"),
//! re-implemented on the same substrate (`focus-tensor` / `focus-autograd` /
//! `focus-nn`) and trained through the same [`focus_core::Forecaster`]
//! pipeline, so Table III and Fig. 6 compare *architectures*, not tooling.
//!
//! Each model is a `-lite` variant: reduced depth/width, but preserving the
//! architectural signature that determines its accuracy/efficiency profile
//! (see DESIGN.md §4):
//!
//! | Model | Signature kept |
//! |-------|----------------|
//! | [`DLinear`] | trend/seasonal decomposition + per-component linear maps |
//! | [`PatchTst`] | channel-independent patching + self-attention over patches (`O(l²)`) |
//! | [`Crossformer`] | two-stage attention across time *and* entities (`O(l²)+O(N²)`) |
//! | [`Mtgnn`] | learned adaptive adjacency + graph convolution + temporal mixing |
//! | [`GraphWavenet`] | adaptive adjacency + gated temporal unit |
//! | [`TimesNet`] | period-based 2-D reshaping + per-axis MLPs |
//! | [`LightCts`] | lightweight single entity-attention + plain temporal linear |
//!
//! The [`zoo`] module instantiates all of them (plus FOCUS) with one call —
//! the entry point the Table III harness uses.

#![forbid(unsafe_code)]

pub mod common;
pub mod crossformer;
pub mod dlinear;
pub mod gwnet;
pub mod lightcts;
pub mod mtgnn;
pub mod patchtst;
pub mod timesnet;
pub mod zoo;

pub use crossformer::Crossformer;
pub use dlinear::DLinear;
pub use gwnet::GraphWavenet;
pub use lightcts::LightCts;
pub use mtgnn::Mtgnn;
pub use patchtst::PatchTst;
pub use timesnet::TimesNet;
pub use zoo::{BaselineConfig, ModelKind};

/// A deterministic `[n, len]` window for the models' cost tests.
#[cfg(test)]
fn window(n: usize, len: usize) -> focus_tensor::Tensor {
    let values = (0..n * len).map(|v| (v as f32 * 0.1).sin()).collect();
    focus_tensor::Tensor::from_vec(values, &[n, len])
}
