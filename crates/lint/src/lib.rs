//! # focus-lint
//!
//! From-scratch static analysis for the FOCUS workspace — no external
//! dependencies, matching the offline-shim policy (DESIGN.md §7). A
//! hand-rolled Rust lexer ([`lexer`]) feeds a token-stream rule engine
//! ([`engine`], [`rules`]) that machine-checks the invariants the
//! bitwise-determinism promise of the parallel backend rests on:
//!
//! * **determinism** — no `HashMap`/`HashSet`, no clock reads, and no thread
//!   spawning outside `focus_tensor::par` in the numeric crates
//!   (`tensor`, `cluster`, `nn`, `core`, `autograd`);
//! * **panic-hygiene** — no bare `.unwrap()` / `panic!` in non-test library
//!   code; failures carry an invariant message or propagate a `Result`;
//! * **float-hygiene** — no `==`/`!=` against float literals without an
//!   allow-marked reason (the plan compiler's exact-literal `alpha == 1.0`
//!   folds are the canonical intentional site);
//! * **unsafe-forbid** — `#![forbid(unsafe_code)]` in every crate root;
//! * **allow-marker** — suppressions are well-formed:
//!   `// focus-lint: allow(<rule>) -- <reason>`, reason mandatory;
//! * **stale-allow** — an allow marker that no longer suppresses any finding
//!   is itself a finding: a stale license is cover for the next regression;
//! * **opcode-coverage** — cross-file: every `OpCode` variant must be
//!   referenced in the VM dispatch, the plan verifier and the plan-parity
//!   test corpus, and every tape `Op` in both the plan compiler and the
//!   reference oracle (the compiler already rejects a missing match arm in
//!   all but the corpus, since those matches have no wildcard arm); and
//!   every `impl Forecaster` type must be named in the plan-replay guard,
//!   `tests/plan_replays.rs`;
//! * **pool-bypass** — float buffers in `tensor`/`autograd` library code
//!   come from `focus_tensor::pool`, not `vec![0.0; n]` /
//!   `Vec::<f32>::with_capacity`; enforced now that every deliberate heap
//!   allocation carries an allow marker.
//!
//! The engine runs in two passes ([`engine::scan_source`] then
//! [`engine::finish`]): pass 1 lints each file and extracts a workspace
//! symbol index (enum declarations, `Type::Variant` references, trait impls,
//! capitalised identifiers); pass 2 runs
//! the cross-file rules over that index and audits every allow marker for
//! staleness.
//!
//! Run it over the workspace with
//! `cargo run -p focus-lint --release -- crates/ src/ tests/`; it prints
//! `file:line: rule: message` diagnostics (or a `focus-lint-report v1` JSON
//! document under `--json`) and exits 0 when clean, 1 on enforced findings,
//! 2 on internal errors (unknown flag, unreadable file).
//! `scripts/verify.sh` runs exactly that, so tier-1 verification fails on
//! regressions. Code inside strings, comments, `#[cfg(test)]` modules,
//! `#[test]` functions, and `tests/`/`benches/`/`examples/` trees is exempt
//! from the hygiene rules.

#![forbid(unsafe_code)]

pub mod engine;
pub mod lexer;
pub mod rules;
