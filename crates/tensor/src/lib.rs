//! # focus-tensor
//!
//! Dense, row-major `f32` tensor kernels used throughout the FOCUS
//! reproduction: the autograd engine, the neural-network layers, the offline
//! clustering phase and the dataset generators are all built on this crate.
//!
//! The design goals, in order:
//!
//! 1. **Correctness** — every kernel has unit tests and the algebraic
//!    identities (associativity with transposes, softmax normalisation,
//!    Pearson bounds) are covered by property-based tests.
//! 2. **Predictable performance** — kernels avoid per-element allocation,
//!    matmul is cache-blocked and register-tiled with a serial `i-k-j`
//!    reference kept as ground truth, large ops run on a persistent worker
//!    pool ([`par`]) with bitwise-identical results at any thread count, and
//!    all shapes are validated once up front.
//! 3. **Small surface** — only the operations the forecaster needs. This is
//!    not a general array library.
//!
//! Tensors are owned, contiguous and row-major. Rank is dynamic (the models
//! use rank 1–3). Shape errors are programming errors and panic with a
//! descriptive message; numerical edge cases (zero variance in
//! [`stats::pearson`], empty reductions) are defined and documented instead of
//! panicking.
//!
//! ```
//! use focus_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! ```

// `deny` rather than `forbid`: the persistent worker pool in [`par`] needs a
// small audited `unsafe` island (type-erased borrowed jobs, rayon-style) and
// opts in item-by-item with `#[allow(unsafe_code)]` + SAFETY comments. Every
// other module stays unsafe-free; focus-lint flags `unsafe` tokens anywhere
// outside `par.rs`.
#![deny(unsafe_code)]

mod matmul;
mod ops;
mod reduce;
mod shape;
mod tensor;

pub mod exec;
pub mod fused;
pub mod par;
pub mod pool;
pub mod route;
pub mod stats;
pub mod work;

pub use matmul::reference;

pub use shape::Shape;
pub use tensor::Tensor;
