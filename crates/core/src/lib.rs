//! # focus-core
//!
//! The FOCUS forecaster (ICDE 2025): *Forecaster with Offline Clustering
//! Using Segments*. This crate implements the paper's online phase and the
//! full model around it:
//!
//! * [`protoattn`] — Prototypes Attentive Modeling (§VI, Algorithm 2): hard
//!   prototype assignment plus `k × l` attention, the linear-complexity
//!   replacement for all-pairs self-attention;
//! * [`extractor`] — the dual-branch feature extractor (§VII-A,
//!   Algorithm 3): temporal ProtoAttn per entity, entity ProtoAttn per
//!   segment, both wrapped in `LayerNorm(· + residual)`;
//! * [`fusion`] — the Parallel Fusion Module (§VII-B, Algorithm 4): `m`
//!   readout queries, gated mixing of the two branches, projection to the
//!   horizon;
//! * [`model`] — the complete [`Focus`] model with training and evaluation
//!   loops, instance normalisation and offline-prototype wiring;
//! * [`ablation`] — the Table IV variants (FOCUS-Attn, FOCUS-LnrFusion,
//!   FOCUS-AllLnr);
//! * [`lowrank`] — an empirical check of Theorem 1's low-rank approximation
//!   bound;
//! * [`tune`] — the small grid-search utility the paper uses for `p` and `k`.
//!
//! ```no_run
//! use focus_core::{Focus, FocusConfig, Forecaster};
//! use focus_data::{Benchmark, MtsDataset, Split};
//!
//! let ds = MtsDataset::generate(Benchmark::Pems08.scaled(16, 4_000), 7);
//! let cfg = FocusConfig::for_dataset(ds.spec(), 96, 24);
//! let mut model = Focus::fit_offline(&ds, cfg, 1);
//! model.train(&ds, &Default::default());
//! let metrics = model.evaluate(&ds, Split::Test, 24);
//! println!("MSE {:.4}, MAE {:.4}", metrics.mse(), metrics.mae());
//! ```

#![forbid(unsafe_code)]

pub mod ablation;
pub mod extractor;
pub mod forecaster;
pub mod fusion;
pub mod lowrank;
pub mod model;
pub mod protoattn;
pub mod tune;

pub use ablation::{AblationVariant, FocusAblation};
pub use forecaster::{
    count_predict, Forecaster, Loss, OperandVars, RecordedWindow, TrainOptions, TrainReport,
    WindowInputs, WindowOperands,
};
pub use model::{Focus, FocusConfig};
pub use protoattn::{Assignment, ProtoAttn, Routing, RoutingPlan};
