//! FOCUS benchmark: four workloads, one JSON result line.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload train --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every workload starts from the same deployed forecaster, brought up from
//! the seed: a synthetic PEMS08-profile dataset (32 entities), the offline
//! prototype fit, and one short training call. The run then repeats one
//! phase of the forecaster's life as a closed loop with a single caller,
//! for `--seconds` seconds:
//!
//! * `train` — `Forecaster::train` calls with hard routing. After two
//!   interpreted steps per call, the compiled plan replays.
//! * `soft-route` — the same calls on a soft-assignment FOCUS built on the
//!   deployed prototypes. Per-window mixture weights keep the plan cache
//!   off, so every step runs the tape interpreter.
//! * `serve` — one `Forecaster::predict` per request on a test window.
//! * `offline-cluster` — refits of the offline prototypes (Algorithm 1) on
//!   the training matrix, each from the run's seed.
//!
//! An *item* is one training window (train, soft-route), one request
//! (serve) or one prototype fit (offline-cluster). Latencies are per item.
//!
//! `setup_s` is the 2nd-percentile wall time of the bring-up, made once
//! before the loop and again, from scratch, at evenly spaced times during
//! it. Like the latency, it is a low percentile because the host may be
//! shared (see `fast_latency`): bring-ups alternate between a fast and a
//! half-again slower phase that lasts seconds, so their median jumps
//! between runs while the fast ones agree.
//!
//! With `--trace 0` the result holds the end-to-end metrics, measured with
//! tracing off. With `--trace 1` it holds the per-layer metrics: the
//! focus-trace span self times and counters over the bring-up and the
//! loop, divided by the loop's items, plus heap allocations counted by this
//! binary's global allocator. The bring-up is inside the traced interval
//! so that every layer appears in every workload's profile.
//!
//! After the loop the run checks the program's outputs against its own
//! contracts: plan replay is bitwise-equal to the interpreter, results are
//! bitwise-equal at 1 and 2 threads, `predict` agrees bitwise with
//! `evaluate`, fitted prototypes survive persistence and assign every
//! segment to its nearest prototype. A failed check prints
//! `"correct": false`.

use focus_autograd::plan;
use focus_cluster::{segment_matrix, Prototypes};
use focus_core::{Assignment, Focus, FocusConfig, Forecaster, TrainOptions};
use focus_data::{Benchmark, Metrics, MtsDataset, Split, Window};
use focus_tensor::{par, pool, Tensor};
use focus_trace::SpanNode;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

// ---- heap-allocation counter -------------------------------------------

static HEAP_ALLOCS: AtomicU64 = AtomicU64::new(0);
static HEAP_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation and reallocation.
struct CountingAlloc;

fn count_alloc(bytes: usize) {
    HEAP_ALLOCS.fetch_add(1, Ordering::Relaxed);
    HEAP_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// `GlobalAlloc` contract holds exactly when it holds for `System`. The two
// counters are statistics that publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s requirements.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        // SAFETY: the caller meets `GlobalAlloc::alloc_zeroed`'s requirements.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size);
        // SAFETY: the caller meets `GlobalAlloc::realloc`'s requirements and
        // `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

// ---- workload definition ------------------------------------------------

const ENTITIES: usize = 32;
const SERIES_LEN: usize = 2_000;
const LOOKBACK: usize = 96;
const HORIZON: usize = 24;
/// Windows per `train` call (one epoch each).
const WINDOWS_PER_CALL: usize = 32;
/// Bring-ups per untraced run.
const SETUP_REPS: usize = 40;
/// Untimed operations before the loop, so pools and plan caches are warm.
const WARMUP_OPS: u64 = 3;
/// Quantile of the per-item latencies reported as `latency_p2_ms`, and of
/// the bring-up wall times reported as `setup_s`.
const FAST_QUANTILE: f64 = 0.02;
/// Worker threads. On a shared host with few cores, a parallel region
/// waits for its most contended core, which doubles the run-to-run spread;
/// the 1-vs-2-thread bitwise checks still exercise the worker pool.
const THREADS: usize = 1;
/// Soft-assignment temperature of the `soft-route` model.
const SOFT_TEMPERATURE: f32 = 1.0;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Train,
    SoftRoute,
    Serve,
    OfflineCluster,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "train" => Some(Workload::Train),
            "soft-route" => Some(Workload::SoftRoute),
            "serve" => Some(Workload::Serve),
            "offline-cluster" => Some(Workload::OfflineCluster),
            _ => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                flags.insert(flag.as_str(), value.as_str());
            }
            _ => return Err(format!("expected `--flag value` pairs, got {pair:?}")),
        }
    }
    let get = |flag: &str| {
        flags
            .get(flag)
            .copied()
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds must be in (0, 3600], got {seconds}"));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    if flags.len() != 4 {
        return Err(format!("unexpected flags in {argv:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn focus_config(assignment: Assignment) -> FocusConfig {
    let mut cfg = FocusConfig::new(LOOKBACK, HORIZON);
    cfg.segment_len = 8;
    cfg.n_prototypes = 8;
    cfg.d = 32;
    cfg.readout = 6;
    cfg.cluster_iters = 6;
    cfg.assignment = assignment;
    cfg
}

fn train_options(max_windows: usize, seed: u64) -> TrainOptions {
    TrainOptions {
        epochs: 1,
        max_windows,
        seed,
        ..Default::default()
    }
}

/// The deployed forecaster plus what the workload's operations read.
struct Bench {
    workload: Workload,
    seed: u64,
    ds: MtsDataset,
    /// The model the operations drive: the deployed one, or its
    /// soft-assignment twin for `soft-route`.
    model: Focus,
    test_windows: Vec<Window>,
    train_matrix: Tensor,
}

impl Bench {
    /// Brings the deployed forecaster up from the seed.
    fn bring_up(workload: Workload, seed: u64) -> Bench {
        let ds = MtsDataset::generate(Benchmark::Pems08.scaled(ENTITIES, SERIES_LEN), seed);
        let mut model = Focus::fit_offline(&ds, focus_config(Assignment::Hard), seed);
        model.train(&ds, &train_options(WINDOWS_PER_CALL, seed));
        if workload == Workload::SoftRoute {
            let soft = Assignment::Soft {
                temperature: SOFT_TEMPERATURE,
            };
            model = Focus::with_prototypes(focus_config(soft), model.prototypes().clone(), seed);
        }
        let test_windows = ds.windows(Split::Test, LOOKBACK, HORIZON, 1);
        let train_matrix = ds.train_matrix();
        Bench {
            workload,
            seed,
            ds,
            model,
            test_windows,
            train_matrix,
        }
    }

    /// Runs operation `i`, returning its item count and whether its output
    /// was well formed.
    fn op(&mut self, i: u64) -> (usize, bool) {
        match self.workload {
            Workload::Train | Workload::SoftRoute => {
                let shuffle_seed = self.seed.wrapping_mul(0x9e37_79b9).wrapping_add(i);
                let r = self
                    .model
                    .train(&self.ds, &train_options(WINDOWS_PER_CALL, shuffle_seed));
                let ok = r.epoch_losses.iter().all(|l| l.is_finite());
                (r.windows_per_epoch, ok)
            }
            Workload::Serve => {
                let w = &self.test_windows[i as usize % self.test_windows.len()];
                let y = self.model.predict(&w.x);
                let ok = y.dims() == [ENTITIES, HORIZON] && y.all_finite();
                black_box(y);
                (1, ok)
            }
            Workload::OfflineCluster => {
                let cfg = self.model.config();
                let p = cfg.cluster(&self.train_matrix, self.seed);
                let ok = p.k() == cfg.n_prototypes && p.centers().all_finite();
                black_box(p);
                (1, ok)
            }
        }
    }
}

// ---- correctness checks ---------------------------------------------------

fn param_bits(model: &Focus) -> Vec<u32> {
    model
        .params()
        .iter()
        .flat_map(|(_, _, t)| t.data().iter().map(|v| v.to_bits()))
        .collect()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Trains a fresh model on the bench's prototypes and returns its
/// parameter bits and epoch losses.
fn short_train(b: &Bench) -> (Vec<u32>, Vec<f64>) {
    let cfg = b.model.config().clone();
    let mut m = Focus::with_prototypes(cfg, b.model.prototypes().clone(), b.seed);
    let r = m.train(&b.ds, &train_options(12, b.seed));
    (param_bits(&m), r.epoch_losses)
}

fn with_threads<R>(t: usize, f: impl FnOnce() -> R) -> R {
    par::set_threads(t);
    let r = f();
    par::set_threads(THREADS);
    r
}

fn check(b: &Bench) -> Result<(), String> {
    match b.workload {
        Workload::Train => {
            plan::set_enabled(false);
            let interpreted = short_train(b);
            plan::set_enabled(true);
            let replayed = short_train(b);
            if interpreted != replayed {
                return Err("plan replay diverged from the interpreter".into());
            }
        }
        Workload::SoftRoute => {
            let one = with_threads(1, || short_train(b));
            let two = with_threads(2, || short_train(b));
            if one != two {
                return Err("soft-routed training differs between 1 and 2 threads".into());
            }
            if !one.1.iter().all(|l| l.is_finite()) {
                return Err(format!("non-finite soft-routed loss {:?}", one.1));
            }
        }
        Workload::Serve => {
            let mut m = Metrics::new();
            for w in b.ds.windows(Split::Test, LOOKBACK, HORIZON, HORIZON) {
                m.update(&b.model.predict(&w.x), &w.y);
            }
            let e = b.model.evaluate(&b.ds, Split::Test, HORIZON);
            if (m.mse().to_bits(), m.mae().to_bits()) != (e.mse().to_bits(), e.mae().to_bits()) {
                return Err(format!(
                    "predict MSE {} != evaluate MSE {}",
                    m.mse(),
                    e.mse()
                ));
            }
            if !m.mse().is_finite() {
                return Err("non-finite serving error".into());
            }
        }
        Workload::OfflineCluster => {
            let cfg = b.model.config();
            let fit = |t| with_threads(t, || cfg.cluster(&b.train_matrix, b.seed));
            let (one, two) = (fit(1), fit(2));
            if bits(one.centers()) != bits(two.centers()) {
                return Err("prototype fit differs between 1 and 2 threads".into());
            }
            let restored =
                Prototypes::from_text(&one.to_text()).map_err(|e| format!("persist: {e}"))?;
            if bits(restored.centers()) != bits(one.centers()) {
                return Err("prototypes changed through persistence".into());
            }
            check_nearest(&one, &segment_matrix(&b.train_matrix, cfg.segment_len))?;
        }
    }
    Ok(())
}

/// Every segment's GEMM assignment must be its nearest prototype under the
/// scalar objective, up to f32 rounding of near-ties.
fn check_nearest(p: &Prototypes, segments: &Tensor) -> Result<(), String> {
    let obj = p.objective();
    for (i, &a) in p.assign_all(segments).iter().enumerate() {
        let seg = segments.row(i);
        let best = (0..p.k())
            .map(|j| obj.distance(seg, p.centers().row(j)))
            .fold(f32::INFINITY, f32::min);
        let got = obj.distance(seg, p.centers().row(a));
        if got > best + 1e-4 * (1.0 + best.abs()) {
            return Err(format!(
                "segment {i} assigned at distance {got}, nearest is {best}"
            ));
        }
    }
    Ok(())
}

// ---- measurement ----------------------------------------------------------

/// One timed operation.
struct Sample {
    /// Wall time of the whole operation.
    ms: f64,
    items: usize,
}

struct Loop {
    /// The timed operations.
    samples: Vec<Sample>,
    /// Items of the timed operations.
    items: usize,
    /// Operations run, warm-up included.
    attempted: usize,
    /// Operations whose output was malformed, warm-up included.
    failed: usize,
    /// Wall times (s) of the bring-ups.
    setup_s: Vec<f64>,
}

fn timed_bring_up(workload: Workload, seed: u64) -> (Bench, f64) {
    let t0 = Instant::now();
    let b = Bench::bring_up(workload, seed);
    (b, t0.elapsed().as_secs_f64())
}

/// Runs the workload's operations for `seconds`, making `setups` extra
/// bring-ups at evenly spaced times in between. Spread over the run, the
/// bring-ups sample the host's contention as the operations do, rather
/// than one burst of it at start-up.
fn run_loop(b: &mut Bench, seconds: f64, setups: usize) -> Loop {
    let mut l = Loop {
        samples: Vec::new(),
        items: 0,
        attempted: 0,
        failed: 0,
        setup_s: Vec::with_capacity(setups + 1),
    };
    for i in 0..WARMUP_OPS {
        l.attempted += 1;
        l.failed += usize::from(!b.op(i).1);
    }
    let budget = Duration::from_secs_f64(seconds);
    let setup_every = budget / (setups + 1) as u32;
    let start = Instant::now();
    let mut i = WARMUP_OPS;
    while start.elapsed() < budget {
        let next_setup = setup_every * (l.setup_s.len() as u32 + 1);
        if l.setup_s.len() < setups && start.elapsed() >= next_setup {
            let (fresh, s) = timed_bring_up(b.workload, b.seed);
            l.setup_s.push(s);
            drop(fresh);
            continue;
        }
        let t0 = Instant::now();
        let (items, ok) = b.op(i);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        l.samples.push(Sample {
            ms,
            items: items.max(1),
        });
        l.items += items;
        l.attempted += 1;
        l.failed += usize::from(!ok);
        i += 1;
    }
    l
}

/// Linear-interpolated quantile of `v` (sorted in place), `q` in [0, 1].
fn quantile(v: &mut [f64], q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The fast-path item latency (ms): the 2nd percentile over operations.
///
/// The host may be shared. Contention from other tenants comes in bursts
/// that slow a run's median by up to half, in no pattern a single run can
/// average out, while the fast operations of every run agree to a few per
/// cent. A low percentile therefore tracks the program, not its neighbours.
fn fast_latency(samples: &[Sample]) -> f64 {
    let mut item_ms: Vec<f64> = samples.iter().map(|s| s.ms / s.items as f64).collect();
    quantile(&mut item_ms, FAST_QUANTILE)
}

/// Self time (ns) and calls per span name, summed over every tree position.
fn span_self_times(nodes: &[SpanNode], out: &mut BTreeMap<&'static str, (u64, u64)>) {
    for n in nodes {
        let children: u64 = n.children.iter().map(|c| c.total_ns).sum();
        let e = out.entry(n.name).or_default();
        e.0 += n.total_ns.saturating_sub(children);
        e.1 += n.calls;
        span_self_times(&n.children, out);
    }
}

/// Process-wide counters that live outside focus-trace.
#[derive(Clone, Copy)]
struct Counts {
    heap_allocs: u64,
    heap_bytes: u64,
    pool_fresh: u64,
    par_dispatches: u64,
}

impl Counts {
    fn now() -> Counts {
        let (p, q) = (pool::stats(), par::stats());
        Counts {
            heap_allocs: HEAP_ALLOCS.load(Ordering::Relaxed),
            heap_bytes: HEAP_BYTES.load(Ordering::Relaxed),
            pool_fresh: p.fresh_allocs,
            par_dispatches: q.parallel + q.inline,
        }
    }
}

/// `(name, unit, value)` rows of the result.
type Rows = Vec<(&'static str, &'static str, f64)>;

fn end_to_end(l: &mut Loop) -> Rows {
    vec![
        ("latency_p2_ms", "ms", fast_latency(&l.samples)),
        ("setup_s", "s", quantile(&mut l.setup_s, FAST_QUANTILE)),
    ]
}

/// Per-layer time metrics and the focus-trace span whose self time each
/// reports, in ms per item.
const LAYER_SPANS: [(&str, &str); 15] = [
    ("cluster_init_ms", "cluster/init"),
    ("cluster_assign_ms", "cluster/assign"),
    ("cluster_update_ms", "cluster/update"),
    ("cluster_fit_ms", "cluster/fit"),
    ("routing_ms", "model/routing"),
    ("protoattn_ms", "model/protoattn"),
    ("fusion_ms", "model/fusion"),
    ("forward_ms", "model/forward"),
    ("backward_ms", "autograd/backward"),
    ("optimizer_ms", "autograd/optimizer"),
    ("plan_compile_ms", "plan/compile"),
    ("plan_verify_ms", "plan/verify"),
    ("plan_replay_ms", "plan/replay"),
    ("pool_reclaim_ms", "pool/reclaim"),
    ("train_step_ms", "train/step"),
];

fn per_layer(l: &Loop, c0: Counts) -> Rows {
    let c1 = Counts::now();
    let mut spans = BTreeMap::new();
    span_self_times(&focus_trace::snapshot_spans(), &mut spans);
    let counters: BTreeMap<&str, u64> = focus_trace::snapshot_counters().into_iter().collect();
    let per_item = 1.0 / l.items.max(1) as f64;
    let mut rows: Rows = LAYER_SPANS
        .iter()
        .map(|&(metric, span)| {
            let ns = spans.get(span).map_or(0, |e| e.0);
            (metric, "ms", ns as f64 * 1e-6 * per_item)
        })
        .collect();
    let calls = |span: &str| spans.get(span).map_or(0, |e| e.1) as f64 * per_item;
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0) as f64 * per_item;
    let delta = |f: fn(&Counts) -> u64| (f(&c1) - f(&c0)) as f64 * per_item;
    rows.extend([
        ("traced_latency_p2_ms", "ms", fast_latency(&l.samples)),
        ("interpreted_steps", "count", calls("autograd/backward")),
        ("plan_replays", "count", counter("plan/replays")),
        (
            "segments_assigned",
            "count",
            counter("cluster/segments_assigned"),
        ),
        ("protoattn_flops", "count", counter("flops/protoattn_est")),
        ("heap_allocs", "count", delta(|c| c.heap_allocs)),
        ("heap_bytes", "bytes", delta(|c| c.heap_bytes)),
        ("pool_fresh_allocs", "count", delta(|c| c.pool_fresh)),
        ("par_dispatches", "count", delta(|c| c.par_dispatches)),
    ]);
    rows
}

fn result_json(correct: bool, attempted: usize, failed: usize, rows: &Rows) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("focus-perfbench: {e}");
            eprintln!("usage: --workload <train|soft-route|serve|offline-cluster> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    par::set_threads(THREADS);
    focus_trace::set_enabled(args.trace);
    let c0 = Counts::now();
    let (mut bench, setup_s) = timed_bring_up(args.workload, args.seed);
    let extra_setups = if args.trace { 0 } else { SETUP_REPS - 1 };
    let mut l = run_loop(&mut bench, args.seconds, extra_setups);
    l.setup_s.push(setup_s);
    let (attempted, failed) = (l.attempted, l.failed);
    let rows = if args.trace {
        focus_trace::set_enabled(false);
        per_layer(&l, c0)
    } else {
        end_to_end(&mut l)
    };
    let correct = match check(&bench) {
        Ok(()) => failed == 0,
        Err(e) => {
            eprintln!("focus-perfbench: check failed: {e}");
            false
        }
    };
    if rows.iter().any(|r| !r.2.is_finite()) {
        eprintln!("focus-perfbench: non-finite metric in {rows:?}");
        return ExitCode::FAILURE;
    }
    println!("{}", result_json(correct, attempted, failed, &rows));
    ExitCode::SUCCESS
}
