//! # focus-autograd
//!
//! A tape-based reverse-mode automatic differentiation engine over
//! [`focus_tensor::Tensor`], plus the optimizers the FOCUS paper trains with
//! (AdamW — §V cites Loshchilov's decoupled weight decay; at zero decay it is
//! plain Adam — alongside SGD for comparison).
//!
//! ## Design
//!
//! A [`Graph`] is an append-only arena of nodes. Every operation computes its
//! forward value and records its inputs; [`Var`] is a copyable index into the
//! arena. A fresh graph is built for every training step — parameters live
//! outside the graph in a [`ParamStore`] and are registered as trainable
//! leaves at the start of each step. This keeps the engine free of interior
//! mutability and reference cycles.
//!
//! There is one backward: the [`plan`] compiler lowers a recorded tape to a
//! flat, verified instruction stream and the plan VM runs it.
//! [`Graph::backward`] lowers and runs the tape once; the training loop
//! additionally caches the plan and replays it on later windows of the same
//! shape. The unfused reference rules live in [`oracle`], which only tests
//! call.
//!
//! ```
//! use focus_autograd::Graph;
//! use focus_tensor::Tensor;
//!
//! let mut g = Graph::new();
//! let x = g.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2]));
//! let y = g.mul(x, x);           // y = x²
//! let loss = g.mean_all(y);      // L = mean(x²)
//! g.backward(loss);
//! // dL/dx = 2x / n = x
//! assert_eq!(g.grad(x).expect("x is a trainable leaf").data(), &[1.0, 2.0]);
//! ```
//!
//! The op set is exactly what the FOCUS model, its ablations and the seven
//! baselines need: dense linear algebra (2-D and batched 3-D matmul with a
//! broadcast-LHS variant for prototype queries), softmax, LayerNorm,
//! pointwise nonlinearities, concatenation and the MSE/MAE reductions.
//! Gradient correctness is enforced by the finite-difference checker in
//! [`gradcheck`], which the test-suite runs over every op, and by the
//! bitwise parity of the VM with the [`oracle`].

#![forbid(unsafe_code)]

mod graph;
mod optim;
pub mod verify;
mod vm;

pub mod gradcheck;
pub mod oracle;
pub mod plan;

pub use graph::{Graph, Route, Var};
pub use optim::{AdamW, Optimizer, ParamId, ParamStore, ParamVars, Sgd};
