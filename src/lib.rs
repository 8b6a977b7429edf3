//! # focus
//!
//! Umbrella crate for the FOCUS reproduction — *Accurate and Efficient
//! Multivariate Time Series Forecasting via Offline Clustering* (ICDE 2025).
//!
//! Everything in the workspace is re-exported here so applications can
//! depend on one crate:
//!
//! * [`tensor`] — dense f32 kernels, which count the FLOPs and bytes of
//!   what runs;
//! * [`autograd`] — reverse-mode differentiation + AdamW/SGD;
//! * [`nn`] — layers and instance normalisation;
//! * [`data`] — synthetic Table II benchmarks, windowing, metrics;
//! * [`cluster`] — the offline segment-clustering phase;
//! * [`core`] — ProtoAttn, the dual-branch FOCUS model, ablations;
//! * [`baselines`] — the seven comparison forecasters;
//! * [`trace`] — opt-in spans, counters, and schema-versioned run reports.
//!
//! The most common entry points are lifted to the crate root:
//!
//! ```
//! use focus::{Benchmark, Focus, FocusConfig, Forecaster, MtsDataset, Split};
//!
//! let ds = MtsDataset::generate(Benchmark::Etth1.scaled(4, 1_500), 7);
//! let mut cfg = FocusConfig::new(48, 12);
//! cfg.d = 16;
//! cfg.n_prototypes = 6;
//! cfg.cluster_iters = 5;
//! let mut model = Focus::fit_offline(&ds, cfg, 1);
//! model.train(&ds, &focus::TrainOptions { epochs: 1, max_windows: 8, ..Default::default() });
//! let m = model.evaluate(&ds, Split::Test, 64);
//! assert!(m.mse().is_finite());
//! ```

#![forbid(unsafe_code)]

pub use focus_autograd as autograd;
pub use focus_baselines as baselines;
pub use focus_cluster as cluster;
pub use focus_core as core;
pub use focus_data as data;
pub use focus_nn as nn;
pub use focus_tensor as tensor;
pub use focus_trace as trace;

pub use focus_baselines::{BaselineConfig, ModelKind};
pub use focus_cluster::{ClusterConfig, Objective, Prototypes};
pub use focus_core::{
    AblationVariant, Assignment, Focus, FocusAblation, FocusConfig, Forecaster, TrainOptions,
};
pub use focus_data::{Benchmark, Metrics, MtsDataset, Split};
pub use focus_tensor::Tensor;
