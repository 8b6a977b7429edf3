//! # focus-cluster
//!
//! The offline phase of FOCUS (paper §V, Algorithm 1): cut every training
//! series into length-`p` segments, cluster them into `k` buckets under the
//! composite distance of Eq. 6, and optimise one *prototype* per bucket under
//! the combined reconstruction + correlation objective of Eq. 10.
//!
//! Two prototype-update rules are provided:
//!
//! * [`ProtoUpdate::AdamW`] — iterative gradient optimisation of
//!   `L = L_rec + α·L_corr`, exactly the paper's choice (it cites AdamW);
//! * [`ProtoUpdate::ClosedFormMean`] — the classic k-means mean update,
//!   optimal for the pure reconstruction loss and the natural baseline for
//!   the Fig. 8 *Rec Only* comparison.
//!
//! ```
//! use focus_cluster::{ClusterConfig, Objective, segment_matrix};
//! use focus_tensor::Tensor;
//!
//! // 32 sine-phase segments of length 8 → 4 prototypes.
//! let series: Vec<f32> = (0..256).map(|t| (t as f32 * 0.3).sin()).collect();
//! let segments = segment_matrix(&Tensor::from_vec(series, &[1, 256]), 8);
//! let cfg = ClusterConfig::new(4, 8).with_objective(Objective::rec_corr(0.2));
//! let protos = cfg.fit(&segments, 42);
//! assert_eq!(protos.centers().dims(), &[4, 8]);
//! let j = protos.assign(segments.row(0));
//! assert!(j < 4);
//! ```

#![forbid(unsafe_code)]

mod approx;
mod batch;
mod engine;
mod objective;
mod persist;

pub use approx::{reconstruct_row, ReconstructionReport};
#[doc(hidden)]
pub use engine::fit_passes;
pub use engine::{segment_matrix, ClusterConfig, FitTrace, NonFiniteSegment, ProtoUpdate, Prototypes};
pub use objective::Objective;
