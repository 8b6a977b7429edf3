//! # focus-nn
//!
//! The neural-network layer library shared by the FOCUS model
//! (`focus-core`) and all seven baseline forecasters (`focus-baselines`).
//!
//! Layers are plain structs holding [`focus_autograd::ParamId`]s into a
//! [`focus_autograd::ParamStore`]; their `forward` methods append ops to a
//! per-step [`focus_autograd::Graph`]. This split keeps parameters easy to
//! optimise, count and serialise.
//!
//! [`revin`] lives here as well: instance normalisation of forecast windows
//! (RevIN-style), the standard distribution-shift guard used by
//! PatchTST/DLinear-class models and by FOCUS's online phase.

#![forbid(unsafe_code)]

pub mod attention;
pub mod init;
pub mod linear;
pub mod mlp;
pub mod norm;
pub mod revin;

pub use attention::SelfAttention;
pub use linear::Linear;
pub use mlp::Mlp;
pub use norm::LayerNorm;
