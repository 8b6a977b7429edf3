//! End-to-end training-step benchmark for the dual-branch FOCUS model:
//! instance-norm → forward → MSE → backward → AdamW step, i.e. exactly the
//! per-window work of [`Forecaster::train`], through the same plan cache.
//!
//! Two execution modes are timed:
//!
//! * **after** — the never-cached path (`plan::set_enabled(false)`): every
//!   step records its tape, compiles it and runs that plan once, swept
//!   across 1/2/4/max worker threads;
//! * **plan** — cached replay: after one compiled warmup step, every further
//!   step replays the flat instruction stream with pre-resolved buffer
//!   slots, zero graph traversal and zero pool lookups
//!   (`plan/pool_lookups_steady == 0`).
//!
//! A serve arm times [`Forecaster::predict`] the same way: replaying the
//! forward plan the model keeps, against never-cached prediction, which
//! records, compiles and runs every forward pass.
//!
//! The host may be time-shared, so modes are measured in *interleaved*
//! rounds — one block of each per round, best block kept for each — so that
//! both sample the same background-load conditions. Each multi-thread point
//! is timed in its own interleaved rounds against fresh 1-thread blocks, with
//! the same number of rounds for both, so the 2-thread check compares like
//! with like.
//!
//! On top of the timings, the run exercises the `focus-trace` observability
//! layer end to end and asserts its contract:
//!
//! * a traced run covers the six core phases (forward / backward / optimizer
//!   / assignment / routing / pool reclaim);
//! * the projected cost of *disabled* tracing stays under 2% of a step;
//! * the span tree's structure and counters are identical at 1/2/4 threads;
//! * enabled-but-unread tracing changes no model parameter bitwise.
//!
//! The run rewrites `BENCH_trainstep.json` at the repository root as a
//! schema-versioned [`focus_trace::report::RunReport`], including the
//! fresh pool allocations of every steady round, which it asserts are zero.
//! Its speed gates (replay over never-cached, kept-plan `predict` over
//! never-cached, 2 threads against 1) fail the run only after the report
//! is written, so a failing run still records what it measured.

use focus_autograd::plan::{self, PlanCache};
use focus_autograd::{AdamW, Graph};
use focus_bench::measure::{fmt_ms, sweep_threads, write_report};
use focus_core::model::{Focus, FocusConfig};
use focus_core::{Forecaster, Loss};
use focus_data::{Benchmark, MtsDataset, Split};
use focus_nn::revin::{instance_norm, normalise_target};
use focus_tensor::{par, pool};
use focus_trace::clock;
use std::hint::black_box;

/// Steps per timed block; one block is the unit of comparison.
const BLOCK: usize = 4;
/// Interleaved rounds; each round times one block per mode.
const ROUNDS: usize = 15;
/// Steps per traced run (span-coverage, thread-sweep and bitwise checks).
const TRACE_STEPS: usize = 6;
/// Predicts per timed block of the serve arm: a predict costs a fraction of
/// a train step, so its blocks are longer for a comparable timing grain.
const PREDICT_BLOCK: usize = 32;

/// The six span names the trace contract promises a train step covers.
const CORE_SPANS: [&str; 6] = [
    "model/forward",
    "autograd/backward",
    "autograd/optimizer",
    "cluster/assign",
    "model/routing",
    "pool/reclaim",
];

struct Harness {
    model: Focus,
    windows: Vec<focus_data::Window>,
    opt: AdamW,
    graph: Graph,
    pcache: PlanCache,
    next: usize,
}

impl Harness {
    fn new() -> Harness {
        let (entities, lookback, horizon) = (32, 96, 24);
        let ds = MtsDataset::generate(Benchmark::Pems08.scaled(entities, 2_000), 7);
        let mut cfg = FocusConfig::new(lookback, horizon);
        cfg.segment_len = 8;
        cfg.n_prototypes = 8;
        cfg.d = 32;
        cfg.readout = 6;
        cfg.cluster_iters = 6;
        let model = Focus::fit_offline(&ds, cfg, 1);
        let windows = ds.windows(Split::Train, lookback, horizon, 64);
        assert!(windows.len() >= 4, "need a few distinct training windows");
        Harness {
            model,
            windows,
            opt: AdamW::new(1e-3, 1e-4),
            graph: Graph::new(),
            pcache: PlanCache::new(),
            next: 0,
        }
    }

    /// One train step on the next window (cycling through the set) through
    /// [`Forecaster::train_step`], the step [`Forecaster::train`] takes.
    fn step(&mut self) {
        let w = &self.windows[self.next % self.windows.len()];
        self.next += 1;
        let (x_norm, stats) = instance_norm(&w.x);
        let y_norm = normalise_target(&w.y, &stats);
        let step = self
            .model
            .train_step(&mut self.graph, &mut self.pcache, &mut self.opt, x_norm, y_norm, Loss::Mse)
            .expect("the FOCUS train step lowers and verifies");
        black_box(step);
    }

    /// Times one block of steps, returning ns per step.
    fn block_ns(&mut self) -> f64 {
        let start = clock::now_ns();
        for _ in 0..BLOCK {
            self.step();
        }
        clock::now_ns().saturating_sub(start) as f64 / BLOCK as f64
    }

    /// Times one block of never-cached steps, returning ns per step.
    fn uncached_block_ns(&mut self) -> f64 {
        plan::set_enabled(false);
        let ns = self.block_ns();
        plan::set_enabled(true);
        ns
    }

    /// Times one block of predicts on the windows (cycling), returning ns
    /// per predict.
    fn predict_block_ns(&self) -> f64 {
        let start = clock::now_ns();
        for i in 0..PREDICT_BLOCK {
            black_box(self.model.predict(&self.windows[i % self.windows.len()].x));
        }
        clock::now_ns().saturating_sub(start) as f64 / PREDICT_BLOCK as f64
    }

    /// Every parameter's raw bits, for bitwise-equality checks.
    fn param_bits(&self) -> Vec<(String, Vec<u32>)> {
        self.model
            .params()
            .iter()
            .map(|(_, name, t)| (name.to_string(), t.data().iter().map(|v| v.to_bits()).collect()))
            .collect()
    }
}

/// Runs `TRACE_STEPS` traced steps on a fresh harness, returning the span
/// structure signature and the thread-invariant counters (the `pool/` and
/// `par/` counters legitimately depend on the worker-thread count — pool on
/// which thread first touched each size class, par on how many dispatches
/// fanned out — so both prefixes are excluded from cross-thread equality).
fn traced_run() -> (String, Vec<(&'static str, u64)>) {
    let mut h = Harness::new();
    plan::set_enabled(false);
    focus_trace::set_enabled(true);
    focus_trace::reset();
    for _ in 0..TRACE_STEPS {
        h.step();
    }
    plan::set_enabled(true);
    let signature = focus_trace::structure_signature(&focus_trace::snapshot_spans());
    let counters: Vec<(&'static str, u64)> = focus_trace::snapshot_counters()
        .into_iter()
        .filter(|(name, _)| !name.starts_with("pool/") && !name.starts_with("par/"))
        .collect();
    focus_trace::set_enabled(false);
    (signature, counters)
}

/// Measures the cost of one *disabled* trace call (a single relaxed atomic
/// load) in ns, by timing a tight span_guard loop with tracing off.
fn disabled_call_ns() -> f64 {
    assert!(!focus_trace::enabled(), "overhead probe must run with tracing off");
    let iters = 4_000_000u64;
    let start = clock::now_ns();
    for _ in 0..iters {
        black_box(focus_trace::span_guard("bench/overhead-probe"));
    }
    clock::now_ns().saturating_sub(start) as f64 / iters as f64
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("train-step sweep: dual-branch FOCUS, 32 entities x L=96 -> 24 (host cores: {cores})");
    par::set_threads(1);

    // One harness per mode, each warmed in its own mode so both start at
    // steady state. The plan harness warms through the cache: the first
    // step compiles and keeps its plan, further steps replay it.
    let mut after_h = Harness::new();
    plan::set_enabled(false);
    for _ in 0..3 {
        after_h.step();
    }
    plan::set_enabled(true);
    let mut plan_h = Harness::new();
    plan_h.step();
    assert!(plan_h.pcache.is_ready(), "one compiled warmup step must keep the plan");
    for _ in 0..3 {
        plan_h.step();
    }

    // Interleaved rounds: both modes sample every load phase of the host.
    let mut after1_ns = f64::INFINITY;
    let mut plan1_ns = f64::INFINITY;
    let mut fresh_total = 0u64;
    let mut plan_fresh = 0u64;
    let spawns0 = par::spawn_count();
    for _ in 0..ROUNDS {
        let f0 = pool::fresh_allocs();
        after1_ns = after1_ns.min(after_h.uncached_block_ns());
        fresh_total += pool::fresh_allocs() - f0;
        let f1 = pool::fresh_allocs();
        plan1_ns = plan1_ns.min(plan_h.block_ns());
        plan_fresh += pool::fresh_allocs() - f1;
    }
    let steady_steps = ROUNDS * BLOCK;
    assert_eq!(
        fresh_total, 0,
        "steady-state training must not allocate fresh pool buffers ({fresh_total} over {steady_steps} steps)"
    );
    assert_eq!(
        plan_fresh, 0,
        "steady-state plan replay must not allocate fresh pool buffers ({plan_fresh} over {steady_steps} steps)"
    );
    // Pool-reuse twin of the zero-allocation contract: once the harnesses
    // are warm, the measured rounds (2 × 60 steps — uncached + replay) must
    // never spawn an OS thread. On a 1-core host this is the scaling
    // acceptance check (the thread sweep below is oversubscribed there).
    let steady_spawns = par::spawn_count() - spawns0;
    assert_eq!(
        steady_spawns, 0,
        "steady-state training must reuse pool workers, not spawn ({steady_spawns} spawns over {steady_steps} steps)"
    );
    println!(
        "after  (never-cached: record + compile + run, 1 thread): {}  [fresh allocs over {steady_steps} steady steps: {fresh_total}]",
        fmt_ms(after1_ns)
    );
    println!(
        "plan   (cached replay, 1 thread): {}  [fresh allocs over {steady_steps} steady steps: {plan_fresh}]",
        fmt_ms(plan1_ns)
    );
    // The speed gates below fail the run at the end, after the report has
    // recorded the measurements they judge.
    let mut speed_failures = Vec::new();
    let plan_speedup = after1_ns / plan1_ns;
    println!("replay-over-uncached speedup (1 thread): {plan_speedup:.2}x");
    if plan_speedup < 1.10 {
        speed_failures.push(format!(
            "cached replay must beat the never-cached step by >= 1.10x (got {plan_speedup:.3}x)"
        ));
    }

    // Serve arm: `predict` on the plan harness's trained model, replaying
    // the forward plan its ParamStore keeps, against never-cached predicts
    // that record, compile and run every forward pass. One block of each
    // mode warms its pool classes; the cached block's first predict compiles
    // and keeps the plan.
    plan::set_enabled(false);
    plan_h.predict_block_ns();
    plan::set_enabled(true);
    plan_h.predict_block_ns();
    let (mut predict_ns, mut predict_uncached_ns) = (f64::INFINITY, f64::INFINITY);
    let mut predict_fresh = 0u64;
    for _ in 0..ROUNDS {
        plan::set_enabled(false);
        predict_uncached_ns = predict_uncached_ns.min(plan_h.predict_block_ns());
        plan::set_enabled(true);
        let f0 = pool::fresh_allocs();
        predict_ns = predict_ns.min(plan_h.predict_block_ns());
        predict_fresh += pool::fresh_allocs() - f0;
    }
    let steady_predicts = ROUNDS * PREDICT_BLOCK;
    assert_eq!(
        predict_fresh, 0,
        "steady kept-plan predicts must not allocate fresh pool buffers ({predict_fresh} over {steady_predicts} predicts)"
    );
    let predict_speedup = predict_uncached_ns / predict_ns;
    println!(
        "predict (never-cached: record, compile and run the forward, 1 thread): {}",
        fmt_ms(predict_uncached_ns)
    );
    println!(
        "predict (kept forward plan, 1 thread): {}  [fresh allocs over {steady_predicts} steady predicts: {predict_fresh}]",
        fmt_ms(predict_ns)
    );
    println!("predict kept-plan-over-uncached speedup (1 thread): {predict_speedup:.2}x");
    if predict_speedup < 1.05 {
        speed_failures.push(format!(
            "kept-plan predict must beat never-cached predict by >= 1.05x (got {predict_speedup:.3}x)"
        ));
    }

    // Thread sweep (the host may expose only one core; the sweep still
    // proves bitwise stability and records the scaling). Each t > 1 runs
    // ROUNDS interleaved rounds of a fresh 1-thread block and a t-thread
    // block, so both sides of the scaling check are the best of the same
    // number of blocks under the same host conditions. Rows where the
    // requested worker count exceeds the host's cores are labelled
    // oversubscribed: their timings measure scheduler contention, not kernel
    // scaling, and downstream tooling must not read them as a
    // parallel-efficiency regression. The plan harness is swept alongside —
    // a compiled plan is thread-agnostic, so the verified cache is reused.
    let mut after = Vec::new();
    for t in sweep_threads() {
        let oversubscribed = t > cores;
        let tag = if oversubscribed { "  [oversubscribed]" } else { "" };
        if t == 1 {
            after.push((t, after1_ns, plan1_ns, after1_ns, fresh_total + plan_fresh, oversubscribed));
            continue;
        }
        par::set_threads(t);
        let mut h = Harness::new();
        plan::set_enabled(false);
        for _ in 0..3 {
            h.step();
        }
        plan::set_enabled(true);
        // Warmup primed the pool for `t` threads; the measured rounds must
        // reuse those workers, never spawn more, and reuse the buffers the
        // warmup left, never allocate fresh ones.
        let t_spawns0 = par::spawn_count();
        let t_fresh0 = pool::fresh_allocs();
        let (mut t1_best, mut best, mut plan_best) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for _ in 0..ROUNDS {
            par::set_threads(1);
            t1_best = t1_best.min(after_h.uncached_block_ns());
            par::set_threads(t);
            best = best.min(h.uncached_block_ns());
            plan_best = plan_best.min(plan_h.block_ns());
        }
        let t_spawns = par::spawn_count() - t_spawns0;
        let t_fresh = pool::fresh_allocs() - t_fresh0;
        assert_eq!(t_spawns, 0, "steady rounds at {t} threads spawned {t_spawns} workers");
        assert_eq!(
            t_fresh, 0,
            "steady rounds at {t} threads allocated {t_fresh} fresh pool buffers"
        );
        after.push((t, best, plan_best, t1_best, t_fresh, oversubscribed));
        println!("after  (never-cached, {t} threads): {}{tag}", fmt_ms(best));
        println!("plan   (cached replay, {t} threads): {}{tag}", fmt_ms(plan_best));
    }

    // ---- scaling efficiency ---------------------------------------------
    // speedup(t) = t1/tN against the 1-thread blocks of the same rounds;
    // efficiency(t) = speedup(t)/t. On a genuinely multicore host the
    // 2-thread point must not regress below the single-thread time;
    // oversubscribed rows measure scheduler contention, not kernel scaling,
    // so they are recorded but never gated on. Like the gates above, the
    // check fails the run at the end.
    for &(t, ns, _, t1_ns, _, oversubscribed) in &after {
        if t == 1 {
            continue;
        }
        let speedup = t1_ns / ns;
        let efficiency = speedup / t as f64;
        let tag = if oversubscribed { "  [oversubscribed]" } else { "" };
        println!("scaling: t{t} speedup {speedup:.2}x, efficiency {:.0}%{tag}", efficiency * 100.0);
        if t == 2 && !oversubscribed && ns > t1_ns * 1.02 {
            speed_failures.push(format!(
                "2-thread steps must not be slower than 1-thread (t1 {} vs t2 {})",
                fmt_ms(t1_ns),
                fmt_ms(ns)
            ));
        }
    }

    // ---- trace contract: bitwise neutrality ------------------------------
    // Two identical harnesses, one stepped with tracing enabled (and never
    // read mid-run), one with it disabled: every parameter must come out
    // bit-identical. Traced values never feed model computation.
    par::set_threads(1);
    plan::set_enabled(false);
    let mut plain = Harness::new();
    for _ in 0..TRACE_STEPS {
        plain.step();
    }
    let mut traced = Harness::new();
    focus_trace::set_enabled(true);
    focus_trace::reset();
    for _ in 0..TRACE_STEPS {
        traced.step();
    }
    focus_trace::set_enabled(false);
    let (pb, tb) = (plain.param_bits(), traced.param_bits());
    assert_eq!(pb.len(), tb.len(), "param stores must be congruent");
    for ((pn, pv), (tn, tv)) in pb.iter().zip(&tb) {
        assert_eq!(pn, tn, "param order must match");
        assert_eq!(pv, tv, "tracing changed parameter {pn} bitwise");
    }
    println!("trace neutrality: {} params bitwise-identical traced vs untraced", pb.len());

    // ---- trace contract: span coverage + per-phase table -----------------
    // Reuse the traced run just recorded: it must cover the six core phases.
    focus_trace::set_enabled(true);
    pool::publish_trace_stats();
    focus_trace::set_enabled(false);
    let spans = focus_trace::snapshot_spans();
    let flat = focus_trace::flatten_spans(&spans);
    for want in CORE_SPANS {
        assert!(
            flat.iter().any(|&(name, calls, _)| name == want && calls > 0),
            "traced train step must record span {want}; saw {:?}",
            flat.iter().map(|f| f.0).collect::<Vec<_>>()
        );
    }
    let distinct = {
        let mut names: Vec<&str> = flat.iter().map(|f| f.0).collect();
        names.sort_unstable();
        names.dedup();
        names.len()
    };
    assert!(distinct >= 6, "span tree too shallow: {distinct} distinct spans");
    println!("\nper-phase profile over {TRACE_STEPS} traced steps ({distinct} distinct spans):");
    print!("{}", focus_trace::report::phase_table(&spans));

    // ---- trace contract: disabled overhead < 2% of a step ----------------
    // api_calls counts the enabled-path invocations of the run above, i.e.
    // exactly the instrumentation sites a disabled step crosses. Each one
    // costs a single relaxed atomic load when tracing is off.
    let calls_before = focus_trace::api_calls();
    focus_trace::set_enabled(true);
    focus_trace::reset();
    traced.step();
    focus_trace::set_enabled(false);
    plan::set_enabled(true);
    let calls_per_step = focus_trace::api_calls() - calls_before;
    let per_call = disabled_call_ns();
    let overhead_ns = calls_per_step as f64 * per_call;
    let overhead_frac = overhead_ns / after1_ns;
    println!(
        "disabled-trace overhead: {calls_per_step} sites/step x {per_call:.2} ns = {:.0} ns ({:.3}% of a {} step)",
        overhead_ns,
        overhead_frac * 100.0,
        fmt_ms(after1_ns),
    );
    assert!(
        overhead_frac < 0.02,
        "disabled tracing must stay under 2% of a step (got {:.2}%)",
        overhead_frac * 100.0
    );

    // ---- trace contract: thread-invariant structure ----------------------
    // The span tree (names + call counts) and all non-pool counters must be
    // identical at 1, 2 and 4 threads — only timings may differ.
    let (sig1, ctr1) = {
        par::set_threads(1);
        traced_run()
    };
    for t in [2usize, 4] {
        par::set_threads(t);
        let (sig, ctr) = traced_run();
        assert_eq!(sig, sig1, "span structure diverged at {t} threads");
        assert_eq!(ctr, ctr1, "counters diverged at {t} threads");
    }
    println!("span tree + counters identical at 1/2/4 threads ({} counters)", ctr1.len());

    // ---- compiled-plan trace: counters prove the replay contract ---------
    // A fresh harness driven through the cache with tracing on: the
    // compiled warmup step records `plan/compile` and the instruction /
    // slot gauges, the replayed steps record `plan/replay` and the
    // steady-state pool-lookup gauge, which must be exactly zero — replay
    // touches only its pre-resolved slots.
    par::set_threads(1);
    focus_trace::set_enabled(true);
    focus_trace::reset();
    let mut traced_plan = Harness::new();
    for _ in 0..1 + TRACE_STEPS {
        traced_plan.step();
    }
    pool::publish_trace_stats();
    focus_trace::set_enabled(false);
    let plan_counters = focus_trace::snapshot_counters();
    let counter = |name: &str| plan_counters.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
    let plan_instrs = counter("plan/instrs").expect("plan compile must publish plan/instrs");
    let plan_slots = counter("plan/slots").expect("plan compile must publish plan/slots");
    let plan_replays = counter("plan/replays").expect("plan replay must publish plan/replays");
    let plan_lookups = counter("plan/pool_lookups_steady")
        .expect("plan replay must publish plan/pool_lookups_steady");
    assert_eq!(plan_replays as usize, TRACE_STEPS, "every post-warmup step must replay");
    assert_eq!(
        plan_lookups, 0,
        "steady-state plan replay must perform zero pool lookups (got {plan_lookups})"
    );
    assert!(plan_instrs > 0 && plan_slots > 0, "plan gauges must be non-trivial");
    {
        let spans = focus_trace::snapshot_spans();
        let flat = focus_trace::flatten_spans(&spans);
        for want in ["plan/compile", "plan/replay"] {
            assert!(
                flat.iter().any(|&(name, calls, _)| name == want && calls > 0),
                "traced plan phase must record span {want}"
            );
        }
    }
    println!(
        "plan: {plan_instrs} instrs over {plan_slots} slots; {plan_replays} traced replays, {plan_lookups} steady pool lookups"
    );
    par::set_threads(0);

    // ---- schema-versioned run report -------------------------------------
    let mut report = focus_trace::report::RunReport::new("trainstep");
    report
        .setting("model", "FOCUS dual-branch, 32 entities, L=96, p=8, k=8, d=32, m=6, horizon=24")
        .setting("step", "instance_norm + forward + mse + backward + adamw")
        .setting("interleaved_rounds", ROUNDS)
        .setting("block_steps", BLOCK)
        .setting("trace_steps", TRACE_STEPS)
        .metric("steady_state_steps", steady_steps as f64)
        .metric("steady_state_fresh_allocs", fresh_total as f64)
        .metric("plan_speedup_t1", plan_speedup)
        .metric("predict_ns", predict_ns)
        .metric("predict_uncached_ns", predict_uncached_ns)
        .metric("predict_speedup", predict_speedup)
        .metric("predict_steady_fresh_allocs", predict_fresh as f64)
        .metric("plan_instrs", plan_instrs as f64)
        .metric("plan_slots", plan_slots as f64)
        .metric("plan_pool_lookups_steady", plan_lookups as f64)
        .metric("trace_calls_per_step", calls_per_step as f64)
        .metric("disabled_trace_overhead_ns", overhead_ns)
        .metric("disabled_trace_overhead_frac", overhead_frac)
        .metric("steady_state_spawns", steady_spawns as f64);
    for &(t, ns, plan_ns, t1_ns, fresh, oversubscribed) in &after {
        report.metric(&format!("after_t{t}_ns"), ns);
        report.metric(&format!("plan_after_t{t}_ns"), plan_ns);
        report.metric(&format!("steady_fresh_allocs_t{t}"), fresh as f64);
        if t > 1 {
            let speedup = t1_ns / ns;
            report.metric(&format!("speedup_t{t}"), speedup);
            report.metric(&format!("scaling_efficiency_t{t}"), speedup / t as f64);
        }
        if oversubscribed {
            report.setting(&format!("oversubscribed_t{t}"), "true");
        }
    }
    // Fold the pool's and worker pool's steady-state stats into the
    // captured counters (pool/* buffer-pool gauges, par/* dispatch stats).
    focus_trace::set_enabled(true);
    pool::publish_trace_stats();
    par::publish_trace_stats();
    focus_trace::set_enabled(false);
    report.capture_trace();

    write_report(&report, concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trainstep.json"));
    if !speed_failures.is_empty() {
        panic!("{}", speed_failures.join("; "));
    }
}
