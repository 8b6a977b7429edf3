#!/usr/bin/env bash
# Tier-1 verification: release build, full test suite, and a warnings-as-
# errors clippy pass over the whole workspace. CI and pre-merge both run
# exactly this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build --release --workspace --examples --benches"
cargo build --release --workspace --examples --benches

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

# Pinned two-thread leg: every kernel dispatch crosses the worker pool
# instead of inlining, so barrier/determinism regressions that a 1-core
# default run would never exercise fail here.
echo "==> FOCUS_THREADS=2 cargo test --workspace -q"
FOCUS_THREADS=2 cargo test --workspace -q

# Release-mode parity leg: the kernels' vector code (the flat exp pass, the
# 8-lane LayerNorm sums, the register-tiled GEMM family, the fused Eq. 6
# sweep kernel) exists only under optimisation, while every leg above runs
# the debug build's scalar code. The parity suites and both golden digests
# (core, and the cluster fit whose k-means++ and assignment sweeps run the
# fused sweep kernel) must hold bit for bit in both, and so must the root
# package's plan-replay guards for all 13 forecasters. The tape only
# records, so the layer crates' unit tests (focus-nn's layers, the
# focus-baselines models) read every value through the VM's kernels too.
echo "==> cargo test --release -q -p focus-tensor -p focus-autograd -p focus-core -p focus-cluster -p focus-nn -p focus-baselines -p focus"
cargo test --release -q -p focus-tensor -p focus-autograd -p focus-core -p focus-cluster -p focus-nn -p focus-baselines -p focus

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# API docs build warning-free: a broken or private intra-doc link fails here.
echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --no-deps --workspace"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Static-analysis pass: determinism / panic-hygiene / float-hygiene /
# unsafe-forbid invariants plus the cross-file stale-allow and
# opcode-coverage rules (see DESIGN.md §10, §14). The tool prints its rule
# and finding counts so regressions are visible in CI logs, and exits
# nonzero on any enforced finding.
echo "==> focus-lint crates/ src/ tests/"
cargo run -q -p focus-lint --release -- crates/ src/ tests/

# Machine-readable lint report: the --json mode is what CI dashboards
# consume, so verify that the schema line and a clean result actually come
# out of the same run the human-readable pass just made.
echo "==> focus-lint --json crates/ src/ tests/"
cargo run -q -p focus-lint --release -- --json crates/ src/ tests/ | tee /tmp/focus-lint-report.json
grep -q '"schema":"focus-lint-report v1"' /tmp/focus-lint-report.json
grep -q '"enforced":0' /tmp/focus-lint-report.json
grep -q '"io_errors":0' /tmp/focus-lint-report.json

# The lint's own fixture suite: every rule (including the workspace-wide
# clock ban and its single crates/trace/src/clock.rs exemption) must keep
# firing on its positive fixture and staying silent on its negative one.
echo "==> cargo test -p focus-lint -q"
cargo test -p focus-lint -q

# Fig. 6 at Fast scale: every model's FLOPs, peak memory and parameters,
# counted on one predict per input length. The binary exits non-zero unless
# FOCUS's FLOPs grow at most linearly with the input length (log-log slope
# <= 1.05) and PatchTST's and Crossformer's grow faster, claims that hold at
# every scale. No --csv: results/fig6.csv is the Standard-scale run.
echo "==> fig6 --fast"
cargo run -q --release -p focus-bench --bin fig6 -- --fast

# Benchmark smoke leg: one short traced run of every perfbench workload.
# Each run checks its own outputs (plan replay equals the never-cached path,
# 1- and 2-thread results agree, predict equals evaluate, every segment goes
# to its nearest prototype) and reports the verdict on its last stdout line.
echo "==> perfbench smoke (every workload, 1 s, traced)"
CARGO_TARGET_DIR=.bench_build cargo build --release --quiet --manifest-path perfbench/Cargo.toml
for workload in train soft-route serve offline-cluster; do
    result=$(CARGO_TARGET_DIR=.bench_build cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 1 | tail -n 1)
    echo "perfbench $workload: ${result:0:60}…"
    if ! grep -q '"correct": true' <<<"$result" || ! grep -q '"failed": 0,' <<<"$result"; then
        echo "perfbench $workload failed its output checks: $result" >&2
        exit 1
    fi
done

# Kernel sweeps: naive vs fast GEMM (256³ and every GEMM-shaped plan opcode
# at the bench model's shapes), a serial loop vs the exec kernel for every
# non-GEMM opcode of the train plan at its plan shape, assign_all (20000x32
# at k = 64, and the offline-cluster workload's 4800x8 at k = 8) and routing
# at 1/2/4/max threads, rewriting BENCH_kernels.json. The bench asserts that
# every fast path reproduced its naive path's output (bitwise for GEMM,
# routing and the non-GEMM opcodes), fails if an elementwise kernel takes
# more than 3x its serial loop's time, and fails if it cannot write its
# report; the greps guard the report wiring.
echo "==> cargo bench -p focus-bench --bench kernels"
cargo bench -p focus-bench --bench kernels
grep -q '"schema": "focus-trace-report v1"' BENCH_kernels.json
grep -q '"gemm_256/fast_t1/median_ns"' BENCH_kernels.json
grep -q '"assign_all_rec_corr_20000x32_k64/output_match": 1' BENCH_kernels.json
grep -q '"assign_all_rec_corr_4800x8_k8/output_match": 1' BENCH_kernels.json
grep -q '"route_scatter_add_b64_l128_k64_d64/output_match": 1' BENCH_kernels.json
grep -q '"bcast_nt_da_32x6x12x32/output_match": 1' BENCH_kernels.json
grep -q '"bcast_nt_32x8x8x12/output_match": 1' BENCH_kernels.json
grep -q '"gemm_nn_192x64x32/output_match": 1' BENCH_kernels.json
grep -q '"softmax_256x12/output_match": 1' BENCH_kernels.json

# Efficiency claims as wall clock (Fig. 6, Fig. 8, §VII-B): ProtoAttn vs
# self-attention, clustering, the zoo's forwards and fusion, rewriting
# BENCH_e2e.json. Every forward's warm-up output is checked finite, every
# timed prototype fit must repeat its warm-up fit's centers bit for bit, and
# every replayed zoo predict must count its never-cached predict's FLOPs.
echo "==> cargo bench -p focus-bench --bench e2e"
cargo bench -p focus-bench --bench e2e
grep -q '"schema": "focus-trace-report v1"' BENCH_e2e.json
grep -q '"samples"' BENCH_e2e.json
grep -q '"attention_scaling/protoattn/256/median_ns"' BENCH_e2e.json
grep -q '"attention_scaling/self_attention/256/p90_ns"' BENCH_e2e.json
grep -q '"forward_pass/FOCUS/flops"' BENCH_e2e.json
grep -q '"forward_pass/FOCUS/peak_bytes"' BENCH_e2e.json
grep -q '"offline_phase/output_match": 1' BENCH_e2e.json
grep -q '"offline_phase_4800x8_k8/median_ns"' BENCH_e2e.json
grep -q '"fusion_scaling/parallel_fusion/128/median_ns"' BENCH_e2e.json

# Steady-state train-step benchmark: measures the never-cached step (record,
# compile, run) against cached plan replay at 1/2/4 threads and rewrites
# BENCH_trainstep.json.
# Asserts internally that steady-state training performs zero fresh pool
# allocations, so a pool regression fails verification here too.
echo "==> cargo bench -p focus-bench --bench trainstep"
cargo bench -p focus-bench --bench trainstep

# Trace self-check: the bench must have produced a schema-versioned run
# report with a captured span tree (the bench itself asserts span coverage,
# disabled-mode overhead < 2%, and thread-invariant traces; this guards the
# report wiring end to end).
echo "==> trace report self-check (BENCH_trainstep.json)"
grep -q '"schema": "focus-trace-report v1"' BENCH_trainstep.json
grep -q '"spans"' BENCH_trainstep.json

# Compiled-plan self-check: the bench's plan arm must have recorded the plan
# counters (instruction/slot counts, steady-state pool lookups pinned at
# zero) and the replay-over-uncached speedup metric. The bench itself
# asserts speedup >= 1.10x; this guards that those numbers actually landed
# in the committed report.
echo "==> compiled-plan self-check (BENCH_trainstep.json)"
grep -q '"plan_instrs"' BENCH_trainstep.json
grep -q '"plan_slots"' BENCH_trainstep.json
grep -q '"plan_pool_lookups_steady": 0' BENCH_trainstep.json
grep -q '"plan_speedup_t1"' BENCH_trainstep.json
grep -q '"plan_after_t1_ns"' BENCH_trainstep.json

# Serve self-check: the bench's serve arm must have timed kept-plan predict
# against never-cached predict (it asserts predict_speedup >= 1.05x) with
# zero fresh pool allocations over the steady predicts.
echo "==> serve self-check (BENCH_trainstep.json)"
grep -q '"predict_ns"' BENCH_trainstep.json
grep -q '"predict_uncached_ns"' BENCH_trainstep.json
grep -q '"predict_speedup"' BENCH_trainstep.json
grep -q '"predict_steady_fresh_allocs": 0' BENCH_trainstep.json

# Worker-pool self-check: steady-state training must have spawned zero OS
# threads and allocated zero fresh pool buffers at every swept thread count
# (the bench asserts both; this guards that the report recorded them) and
# the pool's dispatch counters must have landed in the captured trace.
echo "==> worker-pool self-check (BENCH_trainstep.json)"
grep -q '"steady_state_spawns": 0' BENCH_trainstep.json
grep -q '"steady_fresh_allocs_t1": 0' BENCH_trainstep.json
grep -q '"steady_fresh_allocs_t2": 0' BENCH_trainstep.json
grep -q '"par/spawns"' BENCH_trainstep.json
grep -q '"par/parallel"' BENCH_trainstep.json
grep -q '"scaling_efficiency_t2"' BENCH_trainstep.json

echo "verify: OK"
