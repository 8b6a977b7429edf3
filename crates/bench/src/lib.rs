//! # focus-bench
//!
//! The experiment harness: one binary per table/figure of the paper (see
//! DESIGN.md §3 for the full index) plus three wall-clock benches that
//! share [`measure`] and each write one `BENCH_*.json` at the repository
//! root:
//!
//! | target | regenerates |
//! |--------|-------------|
//! | `bin/table3` | Table III — accuracy vs 7 baselines across datasets |
//! | `bin/fig6` | Fig. 6 — FLOPs / peak memory / params vs input length |
//! | `bin/fig7` | Fig. 7a–d — k, d, L, p parameter studies |
//! | `bin/table4` | Table IV — ablation study |
//! | `bin/fig8` | Fig. 8 — Rec Only vs Rec+Corr clustering objectives |
//! | `bin/fig9` | Fig. 9 — generalization to unseen test segments |
//! | `bin/fig10` | Fig. 10 — outlier-ratio robustness |
//! | `bin/case_study` | Figs. 11–13 — approximation, forecast, dependencies |
//! | `bin/theorem1` | Theorem 1 — low-rank approximation error sweep |
//! | `--bench kernels` | GEMM, `assign_all` and routing sweeps → `BENCH_kernels.json` |
//! | `--bench e2e` | Figs. 6 and 8, §VII-B as wall clock → `BENCH_e2e.json` |
//! | `--bench trainstep` | the FOCUS train step and `predict` → `BENCH_trainstep.json` |
//!
//! Every `bin/` binary prints a markdown table to stdout and accepts `--fast` for a
//! smoke-test-sized run. Results land in `results/` as CSV when `--csv` is
//! passed.

#![forbid(unsafe_code)]

pub mod measure;
pub mod report;
pub mod settings;
