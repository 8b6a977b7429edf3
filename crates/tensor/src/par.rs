//! Persistent worker-pool parallel execution layer.
//!
//! Every hot kernel in the workspace (GEMM, elementwise maps, row-wise
//! reductions, nearest-prototype assignment) funnels through the partitioners
//! here. The design constraints, in order:
//!
//! 1. **Bitwise determinism** — work is split into *disjoint, contiguous*
//!    output ranges and every output element is produced by exactly the same
//!    sequence of floating-point operations as the serial reference, so
//!    results are identical for any thread count *and any partition*
//!    (property-tested in `tests/properties.rs`). Partition-independence is
//!    load-bearing: it is what lets the inline fallback, the contended-pool
//!    fallback and the grain autotuner all pick different splits without ever
//!    changing a single output bit.
//! 2. **Zero runtime dependencies** — plain `std` threads, atomics and
//!    park/unpark. No rayon, no crossbeam.
//! 3. **No per-call spawning** — a train step issues thousands of kernel
//!    calls; spawning and joining OS threads per call (the pre-pool design)
//!    made threads a net *slowdown*. Workers are now spawned once, lazily, on
//!    the first dispatch that needs them, and are parked between jobs. A
//!    dispatch is a handful of atomic stores plus at most one `unpark` per
//!    sleeping worker.
//! 4. **No small-op regressions** — callers pass a *grain* (minimum items per
//!    thread); when the work does not cover two grains the closure runs
//!    inline on the calling thread with no worker traffic at all, and the
//!    clock-free autotuner (`plan_threads`) raises the effective grain for
//!    partitioner classes whose recent traffic is dominated by sub-grain
//!    calls.
//!
//! # Barrier protocol
//!
//! One static `Pool` owns up to [`MAX_THREADS`]` - 1` lazily spawned
//! workers. A dispatch with `p` parts:
//!
//! 1. takes the dispatch arbiter with `try_lock` — if another dispatch is in
//!    flight (nested parallelism, or concurrent tests), the caller runs every
//!    part itself, in part order, which is bitwise-identical and cannot
//!    deadlock;
//! 2. publishes the type-erased job (closure pointer + monomorphic
//!    trampoline) and the coordinator's thread handle, stores `p - 1` into
//!    the pending counter, and arms workers `0..p-1` with one `Release` store
//!    each (plus an `unpark` for workers that had gone to sleep);
//! 3. runs part `0` on the calling thread — the head block always stays on
//!    the caller, like the pre-pool design;
//! 4. spins briefly, then parks, until the pending counter drains to zero;
//!    each worker runs its part, re-arms itself as idle, decrements pending
//!    (`Release`, pairing with the coordinator's `Acquire`) and unparks the
//!    coordinator.
//!
//! A panic inside any part is caught, parked until every other part has
//! finished (so the arbiter is never released while workers still hold the
//! job), and then resumed on the calling thread — same observable behaviour
//! as the old `std::thread::scope` join.
//!
//! Workers never touch the job cell outside the armed window, so the
//! `UnsafeCell` reads/writes are ordered by the arm/pending atomics; this is
//! the one audited `unsafe` island in the workspace (the crate root carries
//! `#![deny(unsafe_code)]` and focus-lint flags `unsafe` tokens anywhere
//! outside this file).
//!
//! # Determinism under the pool
//!
//! The partition formulas (`per`-thread block sizes, alignment rounding) are
//! unchanged from the scoped-thread design, and every closure receives the
//! same `(first_row, block)` arguments it always did. Which OS thread runs a
//! block is irrelevant by construction: blocks are disjoint and each block's
//! arithmetic is a pure function of its input slice. The 1/2/4-thread parity
//! suites pin this end to end.
//!
//! # Observability
//!
//! Always-on relaxed counters (mirroring `pool::stats`): spawns, wakes,
//! inline/parallel/contended dispatches, per-partitioner dispatch counts.
//! [`publish_trace_stats`] exports them as `par/*` gauges. They vary with
//! the thread count by design — trace consumers comparing runs across thread
//! counts exclude the `par/` prefix, exactly like `pool/`.
//!
//! The worker count defaults to [`std::thread::available_parallelism`], can
//! be pinned with the `FOCUS_THREADS` environment variable, and can be
//! changed at runtime with [`set_threads`] (used by the kernel benchmarks to
//! sweep 1/2/4/N threads in one process; tests that flip it serialise on
//! [`threads_guard`]).

use std::any::Any;
use std::cell::UnsafeCell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, TryLockError};
use std::thread::Thread;

/// Hard cap on the threads one dispatch may use (1 coordinator + up to
/// [`MAX_THREADS`]` - 1` pool workers). Bounds the stack-allocated block
/// lists in the partitioners, so the hottest dispatch path performs zero
/// heap allocations. `set_threads`/`FOCUS_THREADS` values above the cap are
/// clamped at dispatch time.
pub const MAX_THREADS: usize = 32;

/// Pool workers available to a dispatch (the coordinator is the caller).
const MAX_WORKERS: usize = MAX_THREADS - 1;

/// Spin iterations before a waiter parks. Long enough to bridge the gap
/// between two back-to-back kernel dispatches, short enough not to burn a
/// core while the model is between steps (or the host is oversubscribed).
const SPIN_LIMIT: u32 = 1 << 10;

/// Runtime override set by [`set_threads`]; `0` means "use the default".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Lazily resolved default: `FOCUS_THREADS` env var, else available
/// parallelism, else 1.
static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

/// Parses a `FOCUS_THREADS` value into a worker count. The variable must be
/// a positive integer; anything else is an error carrying the offending
/// value — a typo like `FOCUS_THREADS=all` must fail loudly, not silently
/// fall back to the default and mask the misconfiguration.
fn parse_focus_threads(raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!(
            "FOCUS_THREADS must be a positive integer worker count, got `{raw}` \
             (unset the variable to use all available cores)"
        )),
    }
}

/// Resolves the default worker count from an optional `FOCUS_THREADS`
/// value; an unparseable value panics with the offending text.
fn resolve_default(env: Option<String>) -> usize {
    match env {
        Some(v) => parse_focus_threads(&v).expect("invalid FOCUS_THREADS"),
        None => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
    }
}

fn default_threads() -> usize {
    *DEFAULT_THREADS.get_or_init(|| {
        // `var_os` + lossy conversion so even a non-unicode value reaches the
        // parser (and fails loudly) instead of being silently dropped.
        let env = std::env::var_os("FOCUS_THREADS").map(|v| v.to_string_lossy().into_owned());
        resolve_default(env)
    })
}

/// The number of worker threads kernels may use right now.
///
/// Resolution order: [`set_threads`] override, then `FOCUS_THREADS`, then
/// [`std::thread::available_parallelism`]. Always at least 1. Values above
/// [`MAX_THREADS`] are honoured here but clamped at dispatch time.
pub fn max_threads() -> usize {
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => default_threads(),
        n => n,
    }
}

/// Overrides the worker count process-wide; `0` restores the default.
///
/// Results are bitwise-identical for every setting — this knob only trades
/// wall-clock for core usage. Mainly for benchmarks and tests; tests that
/// flip it must hold [`threads_guard`] for their whole body, because the
/// override is process-global and `cargo test` runs tests concurrently.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Serialises tests and benches that flip the process-global [`set_threads`]
/// override (or assert on the global `par/*` counters). Lock poisoning is
/// deliberately shrugged off — a panicked thread-sweep test must not take
/// every other one down with it.
pub fn threads_guard() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Dispatch counters + clock-free grain autotuning
// ---------------------------------------------------------------------------

/// Worker threads spawned so far (monotone). Steady-state training must not
/// move this: the trainstep bench asserts a zero delta across its measured
/// rounds, next to the pool's `fresh_allocs == 0` check.
static SPAWNS: AtomicU64 = AtomicU64::new(0);
/// Worker activations: one per worker armed by a pooled dispatch (monotone).
static WAKES: AtomicU64 = AtomicU64::new(0);
/// Dispatches that fanned out to pool workers (monotone).
static PARALLEL: AtomicU64 = AtomicU64::new(0);
/// Dispatches that ran inline on the caller — sub-grain work, a single
/// planned thread, or a clamped partition (monotone).
static INLINE: AtomicU64 = AtomicU64::new(0);
/// Inline dispatches caused specifically by the arbiter being busy (nested
/// or concurrent parallelism); a subset of [`INLINE`].
static CONTENDED: AtomicU64 = AtomicU64::new(0);

/// The partitioner entry points, as autotuning classes: workloads funnel
/// through them in stable per-kernel patterns, so per-class traffic is a
/// usable (and clock-free) signal.
#[derive(Clone, Copy)]
enum Class {
    Rows = 0,
    Rows2 = 1,
    Zip4 = 2,
}

/// Class names for trace export, indexed by `Class as usize`.
const CLASS_NAMES: [&str; 3] = ["par/rows", "par/rows2", "par/zip4"];

/// Dispatches per autotune decision window.
const AUTOTUNE_WINDOW: u64 = 1024;
/// Ceiling on the grain boost: effective grain ≤ caller grain × 8.
const MAX_BOOST_LOG2: u32 = 3;

/// Per-class dispatch statistics and the autotuned grain boost.
struct ClassStats {
    /// Total dispatches (monotone, for trace export).
    calls: AtomicU64,
    /// Dispatches in the current autotune window.
    window_calls: AtomicU64,
    /// Inline dispatches in the current autotune window.
    window_inline: AtomicU64,
    /// log2 of the current grain multiplier (0 ⇒ caller grain verbatim).
    boost_log2: AtomicU32,
}

impl ClassStats {
    const fn new() -> ClassStats {
        ClassStats {
            calls: AtomicU64::new(0),
            window_calls: AtomicU64::new(0),
            window_inline: AtomicU64::new(0),
            boost_log2: AtomicU32::new(0),
        }
    }
}

static CLASS_STATS: [ClassStats; 3] = [const { ClassStats::new() }; 3];

/// Records one dispatch outcome in the global counters.
fn note_outcome(parallel: bool) {
    if parallel {
        PARALLEL.fetch_add(1, Ordering::Relaxed);
    } else {
        INLINE.fetch_add(1, Ordering::Relaxed);
    }
}

/// How many threads to use for `len` items at `grain` items per thread
/// minimum, after the class's autotuned grain boost and the [`MAX_THREADS`]
/// clamp. Also advances the autotuner.
///
/// The autotune policy is deterministic and clock-free (clock reads are
/// banned workspace-wide outside `focus_trace::clock`): once per
/// [`AUTOTUNE_WINDOW`] dispatches of a class, if ≥ 7/8 of the window was
/// sub-grain work the class's effective grain doubles (saturating at ×8) — a
/// stream of sub-grain calls means borderline sizes are not worth a worker
/// wake either — and if ≤ 1/2 was sub-grain the boost halves back toward the
/// caller's grain. The signal is measured against the *caller's* grain, not
/// the boosted one, so the boost can never feed back into its own
/// justification, and nothing is recorded while only one thread is available
/// (a single-threaded phase says nothing about the op-size mix worth
/// parallelising). Boost changes only move the inline/parallel threshold and
/// the block sizes; by partition-independence they can never change output
/// bits. Window accounting is racy-but-monotone under concurrent dispatch,
/// which only ever delays a boost decision, never corrupts results.
fn plan_threads(class: Class, len: usize, grain: usize) -> usize {
    let s = &CLASS_STATS[class as usize];
    s.calls.fetch_add(1, Ordering::Relaxed);
    let max = max_threads().min(MAX_THREADS);
    if max <= 1 {
        return 1;
    }
    if len < 2 * grain.max(1) {
        s.window_inline.fetch_add(1, Ordering::Relaxed);
    }
    let w = s.window_calls.fetch_add(1, Ordering::Relaxed) + 1;
    if w >= AUTOTUNE_WINDOW {
        s.window_calls.store(0, Ordering::Relaxed);
        let sub_grain = s.window_inline.swap(0, Ordering::Relaxed);
        let boost = s.boost_log2.load(Ordering::Relaxed);
        let next = if sub_grain * 8 >= AUTOTUNE_WINDOW * 7 {
            (boost + 1).min(MAX_BOOST_LOG2)
        } else if sub_grain * 2 <= AUTOTUNE_WINDOW {
            boost.saturating_sub(1)
        } else {
            boost
        };
        s.boost_log2.store(next, Ordering::Relaxed);
    }
    let boost = s.boost_log2.load(Ordering::Relaxed);
    let by_grain = len / (grain.max(1) << boost).max(1);
    max.min(by_grain).max(1)
}

/// Worker threads spawned so far (monotone). The trainstep bench asserts
/// this does not move across steady-state rounds: warmed-up training reuses
/// the pool, it never respawns.
pub fn spawn_count() -> u64 {
    SPAWNS.load(Ordering::Relaxed)
}

/// Snapshot of the dispatch counters, for benches and tests.
#[derive(Debug, Clone, Copy)]
pub struct ParStats {
    /// Worker threads spawned (monotone).
    pub spawns: u64,
    /// Worker activations across all pooled dispatches (monotone).
    pub wakes: u64,
    /// Dispatches that fanned out to the pool (monotone).
    pub parallel: u64,
    /// Dispatches that ran inline on the caller (monotone).
    pub inline: u64,
    /// Inline dispatches due to arbiter contention (subset of `inline`).
    pub contended: u64,
}

/// Current counter snapshot.
pub fn stats() -> ParStats {
    ParStats {
        spawns: SPAWNS.load(Ordering::Relaxed),
        wakes: WAKES.load(Ordering::Relaxed),
        parallel: PARALLEL.load(Ordering::Relaxed),
        inline: INLINE.load(Ordering::Relaxed),
        contended: CONTENDED.load(Ordering::Relaxed),
    }
}

/// Publishes the dispatch counters into the `focus-trace` registry as
/// `par/*` gauges (no-op while tracing is disabled). Like `pool/*`, these
/// legitimately vary with the worker-thread count, so consumers comparing
/// traces across thread counts exclude the `par/` prefix.
pub fn publish_trace_stats() {
    if !focus_trace::enabled() {
        return;
    }
    let s = stats();
    focus_trace::counter_set("par/spawns", s.spawns);
    focus_trace::counter_set("par/wakes", s.wakes);
    focus_trace::counter_set("par/parallel", s.parallel);
    focus_trace::counter_set("par/inline", s.inline);
    focus_trace::counter_set("par/contended", s.contended);
    focus_trace::counter_set("par/workers", POOL.spawned.load(Ordering::Relaxed) as u64);
    for (i, name) in CLASS_NAMES.iter().enumerate() {
        focus_trace::counter_set(name, CLASS_STATS[i].calls.load(Ordering::Relaxed));
    }
}

// ---------------------------------------------------------------------------
// The persistent pool
// ---------------------------------------------------------------------------

/// Worker slot states. `IDLE → ARMED → IDLE` per job; a worker that gave up
/// spinning parks itself via `IDLE → PARKED`, and the coordinator's arm
/// (`swap(ARMED)`) observes `PARKED` and unparks it.
const IDLE: u32 = 0;
const ARMED: u32 = 1;
const PARKED: u32 = 2;

/// A type-erased borrowed job: a pointer to the dispatching call's closure
/// plus the monomorphic trampoline that knows its concrete type.
#[derive(Clone, Copy)]
struct Job {
    data: *const (),
    call: unsafe fn(*const (), usize),
}

/// Trampoline instantiated per closure type by [`run_parts`].
///
/// # Safety
/// `data` must point to a live `F` for the duration of the call (guaranteed
/// by the dispatch protocol: the coordinator keeps the closure alive on its
/// stack until the pending counter drains).
#[allow(unsafe_code)]
unsafe fn call_thunk<F: Fn(usize) + Sync>(data: *const (), part: usize) {
    let f = &*(data as *const F);
    f(part);
}

/// Placeholder job for the pool's static initialiser; never executed
/// (workers only read the cell after being armed, and arming always follows
/// a fresh job write).
#[allow(unsafe_code)]
unsafe fn empty_job(_: *const (), _: usize) {}

/// The shared job cell.
struct JobCell(UnsafeCell<Job>);

// SAFETY: written only by the coordinator that holds `ARBITER`, while every
// worker is idle (the previous dispatch drained `pending` to zero before the
// arbiter was released); read by a worker only between observing its slot
// `ARMED` (Acquire, pairing with the coordinator's Release arm — so the
// write happens-before the read) and its `pending` decrement (Release,
// pairing with the coordinator's Acquire drain — so the read happens-before
// the next write). Reads and writes therefore never overlap.
#[allow(unsafe_code)]
unsafe impl Sync for JobCell {}

/// The coordinator's thread handle for the in-flight dispatch, so workers
/// can unpark it when they finish.
struct CoordCell(UnsafeCell<Option<Thread>>);

// SAFETY: same single-writer protocol as `JobCell` — written under the
// arbiter before any worker is armed, read by workers only inside the
// armed-to-decrement window.
#[allow(unsafe_code)]
unsafe impl Sync for CoordCell {}

/// One persistent worker's mailbox.
struct WorkerSlot {
    /// [`IDLE`] / [`ARMED`] / [`PARKED`].
    state: AtomicU32,
    /// The worker's thread handle, set once at spawn, for `unpark`.
    thread: OnceLock<Thread>,
}

impl WorkerSlot {
    const fn new() -> WorkerSlot {
        WorkerSlot { state: AtomicU32::new(IDLE), thread: OnceLock::new() }
    }
}

/// The process-wide worker pool. Workers are spawned lazily by the first
/// dispatch that needs them and then live for the rest of the process,
/// parked between jobs.
struct Pool {
    job: JobCell,
    coord: CoordCell,
    /// Workers still running the current job; the coordinator waits for 0.
    pending: AtomicUsize,
    /// First panic payload caught by a worker this dispatch, re-thrown on
    /// the coordinator after the barrier (same semantics as a scoped join).
    panic_box: Mutex<Option<Box<dyn Any + Send>>>,
    slots: [WorkerSlot; MAX_WORKERS],
    /// Workers spawned so far; grows monotonically, written under the
    /// arbiter.
    spawned: AtomicUsize,
}

static POOL: Pool = Pool {
    job: JobCell(UnsafeCell::new(Job { data: std::ptr::null(), call: empty_job })),
    coord: CoordCell(UnsafeCell::new(None)),
    pending: AtomicUsize::new(0),
    panic_box: Mutex::new(None),
    slots: [const { WorkerSlot::new() }; MAX_WORKERS],
    spawned: AtomicUsize::new(0),
};

/// Serialises dispatches. `try_lock` only — a dispatch that finds the pool
/// busy (nested parallelism, concurrent tests) runs its parts itself, which
/// is bitwise-identical by partition-independence and cannot deadlock.
static ARBITER: Mutex<()> = Mutex::new(());

/// The body of worker `idx`: wait (spin, then park) for an armed job, run
/// part `idx + 1`, hand the slot back and release the coordinator. Loops
/// forever — pool workers live for the process lifetime.
#[allow(unsafe_code)]
fn worker_main(idx: usize) {
    let slot = &POOL.slots[idx];
    loop {
        let mut spins = 0u32;
        loop {
            if slot.state.load(Ordering::Acquire) == ARMED {
                break;
            }
            if spins < SPIN_LIMIT {
                spins += 1;
                std::hint::spin_loop();
            } else if slot
                .state
                .compare_exchange(IDLE, PARKED, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                while slot.state.load(Ordering::Acquire) == PARKED {
                    std::thread::park();
                }
            }
        }
        // SAFETY: the Acquire load of ARMED pairs with the coordinator's
        // Release arm, which follows the job/coordinator writes — see the
        // `JobCell` protocol comment. The copy completes before `pending` is
        // decremented, so the cell is never read while it is being written.
        let (job, coord) = unsafe { (*POOL.job.0.get(), (*POOL.coord.0.get()).clone()) };
        // SAFETY: `call_thunk` contract — the coordinator keeps the closure
        // alive until `pending` drains, and this worker decrements only
        // after the call returns.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (job.call)(job.data, idx + 1) }));
        if let Err(payload) = result {
            let mut first = POOL.panic_box.lock().unwrap_or_else(|e| e.into_inner());
            first.get_or_insert(payload);
        }
        slot.state.store(IDLE, Ordering::Relaxed);
        POOL.pending.fetch_sub(1, Ordering::Release);
        if let Some(c) = coord {
            c.unpark();
        }
    }
}

/// Spawns workers `spawned..n` (named `focus-par-<idx>`). Called under the
/// arbiter. Returns `false` if the OS refused a spawn, in which case the
/// caller falls back to running its parts itself.
fn ensure_workers(n: usize) -> bool {
    let have = POOL.spawned.load(Ordering::Relaxed);
    for idx in have..n {
        let builder = std::thread::Builder::new().name(format!("focus-par-{idx}"));
        match builder.spawn(move || worker_main(idx)) {
            Ok(handle) => {
                let _ = POOL.slots[idx].thread.set(handle.thread().clone());
                SPAWNS.fetch_add(1, Ordering::Relaxed);
                POOL.spawned.store(idx + 1, Ordering::Relaxed);
            }
            Err(_) => return false,
        }
    }
    true
}

/// Executes `task(0)`, …, `task(parts - 1)` exactly once each: part 0 on the
/// calling thread, parts `1..` on pool workers when the pool is free, or all
/// parts serially in order on the caller otherwise. Callers guarantee every
/// part writes disjoint state, and that results do not depend on which
/// thread runs which part (partition-independence).
#[allow(unsafe_code)]
fn run_parts<F: Fn(usize) + Sync>(parts: usize, task: F) {
    debug_assert!(parts <= MAX_THREADS, "partition exceeds MAX_THREADS");
    if parts <= 1 {
        note_outcome(false);
        if parts == 1 {
            task(0);
        }
        return;
    }
    let guard = match ARBITER.try_lock() {
        Ok(g) => g,
        // A panicking dispatch poisons the mutex on unwind; the pool state
        // itself is re-synchronised by the pending barrier, so the lock
        // stays usable.
        Err(TryLockError::Poisoned(p)) => p.into_inner(),
        Err(TryLockError::WouldBlock) => {
            // Nested or concurrent dispatch: run the same partition serially.
            CONTENDED.fetch_add(1, Ordering::Relaxed);
            note_outcome(false);
            for i in 0..parts {
                task(i);
            }
            return;
        }
    };
    let helpers = parts - 1;
    if !ensure_workers(helpers) {
        drop(guard);
        note_outcome(false);
        for i in 0..parts {
            task(i);
        }
        return;
    }
    note_outcome(true);
    WAKES.fetch_add(helpers as u64, Ordering::Relaxed);
    // SAFETY: arbiter held and `pending` was zero (previous dispatch drained
    // it before releasing the arbiter), so no worker is reading either cell.
    unsafe {
        *POOL.coord.0.get() = Some(std::thread::current());
        *POOL.job.0.get() =
            Job { data: (&task) as *const F as *const (), call: call_thunk::<F> };
    }
    POOL.pending.store(helpers, Ordering::Release);
    for slot in &POOL.slots[..helpers] {
        if slot.state.swap(ARMED, Ordering::AcqRel) == PARKED {
            if let Some(t) = slot.thread.get() {
                t.unpark();
            }
        }
    }
    // The head part always runs on the caller; its panic (if any) must not
    // skip the barrier — workers still hold the job cell.
    let head = catch_unwind(AssertUnwindSafe(|| task(0)));
    let mut spins = 0u32;
    while POOL.pending.load(Ordering::Acquire) > 0 {
        if spins < SPIN_LIMIT {
            spins += 1;
            std::hint::spin_loop();
        } else {
            // Workers unpark us after their decrement; a stale unpark token
            // at worst makes this loop re-check once.
            std::thread::park();
        }
    }
    let worker_panic = POOL.panic_box.lock().unwrap_or_else(|e| e.into_inner()).take();
    drop(guard);
    if let Err(payload) = head {
        resume_unwind(payload);
    }
    if let Some(payload) = worker_panic {
        resume_unwind(payload);
    }
}

/// A raw pointer that may cross the dispatch boundary. Only ever points into
/// a caller-owned slice that outlives the dispatch, and only one part
/// dereferences any given pointer.
struct SendPtr<T>(*mut T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

// SAFETY: the pointer targets live exactly as long as the dispatch (the
// coordinator's stack frame), and the partitioners hand each disjoint block
// to exactly one part — there is never concurrent aliasing.
#[allow(unsafe_code)]
unsafe impl<T: Send> Send for SendPtr<T> {}
#[allow(unsafe_code)]
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Shared-reference counterpart of [`SendPtr`] for read-only operands.
struct SendConst<T>(*const T);

impl<T> Clone for SendConst<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendConst<T> {}

// SAFETY: read-only views of caller slices that outlive the dispatch.
#[allow(unsafe_code)]
unsafe impl<T: Sync> Send for SendConst<T> {}
#[allow(unsafe_code)]
unsafe impl<T: Sync> Sync for SendConst<T> {}

// ---------------------------------------------------------------------------
// Partitioners
// ---------------------------------------------------------------------------

/// Splits `out` (viewed as rows of `row_len` elements) into disjoint
/// per-thread row blocks and runs `f(first_row, block)` on each, in parallel
/// when the row count spans at least two (autotuned) grains.
///
/// Block boundaries are aligned down to multiples of `align` rows (the last
/// block absorbs the remainder), so register-tiled kernels never straddle a
/// thread boundary mid-tile.
///
/// # Panics
/// If `out.len()` is not a multiple of `row_len`.
#[allow(unsafe_code)]
pub fn parallel_rows<T, F>(out: &mut [T], row_len: usize, grain_rows: usize, align: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(row_len > 0, "row_len must be positive");
    assert_eq!(out.len() % row_len, 0, "output not a whole number of rows");
    let rows = out.len() / row_len;
    let threads = plan_threads(Class::Rows, rows, grain_rows);
    if threads <= 1 {
        note_outcome(false);
        if rows > 0 {
            f(0, out);
        }
        return;
    }
    let align = align.max(1);
    // Rows per thread, rounded up to the alignment.
    let per = rows.div_ceil(threads).div_ceil(align) * align;
    // Fixed-size stack block list: the dispatch path stays heap-free.
    let mut blocks = [(0usize, SendPtr(std::ptr::null_mut()), 0usize); MAX_THREADS];
    let mut parts = 0usize;
    let mut rest = out;
    let mut row0 = 0usize;
    while row0 < rows {
        let take = per.min(rows - row0);
        let (head, tail) = rest.split_at_mut(take * row_len);
        blocks[parts] = (row0, SendPtr(head.as_mut_ptr()), head.len());
        parts += 1;
        rest = tail;
        row0 += take;
    }
    let f = &f;
    run_parts(parts, move |i| {
        let (r0, ptr, len) = blocks[i];
        // SAFETY: blocks are disjoint `split_at_mut` sub-slices of `out`
        // (alive for the whole dispatch), and `run_parts` executes each part
        // index exactly once on exactly one thread.
        let block = unsafe { std::slice::from_raw_parts_mut(ptr.0, len) };
        f(r0, block);
    });
}

/// Splits two output slices over the *same* disjoint row ranges and runs
/// `f(first_row, a_block, b_block)` on each. The slices may have different
/// row widths (`a_row_len`, `b_row_len`) but must describe the same number
/// of rows; a block covering rows `r0..r1` receives
/// `a[r0*a_row_len..r1*a_row_len]` and `b[r0*b_row_len..r1*b_row_len]`.
///
/// For kernels that produce a main output plus a per-row side product in one
/// pass, or column-parallel reductions writing two per-column outputs.
///
/// # Panics
/// If either slice is not a whole number of rows, or the row counts differ.
#[allow(unsafe_code)]
pub fn parallel_rows2<T, U, F>(
    a: &mut [T],
    a_row_len: usize,
    b: &mut [U],
    b_row_len: usize,
    grain_rows: usize,
    f: F,
) where
    T: Send,
    U: Send,
    F: Fn(usize, &mut [T], &mut [U]) + Sync,
{
    assert!(a_row_len > 0 && b_row_len > 0, "row lengths must be positive");
    assert_eq!(a.len() % a_row_len, 0, "first output not a whole number of rows");
    assert_eq!(b.len() % b_row_len, 0, "second output not a whole number of rows");
    let rows = a.len() / a_row_len;
    assert_eq!(b.len() / b_row_len, rows, "row count mismatch between outputs");
    let threads = plan_threads(Class::Rows2, rows, grain_rows);
    if threads <= 1 {
        note_outcome(false);
        if rows > 0 {
            f(0, a, b);
        }
        return;
    }
    let per = rows.div_ceil(threads);
    let nullb = (0usize, SendPtr(std::ptr::null_mut()), SendPtr(std::ptr::null_mut()), 0usize);
    let mut blocks = [nullb; MAX_THREADS];
    let mut parts = 0usize;
    let (mut ra, mut rb) = (a, b);
    let mut row0 = 0usize;
    while row0 < rows {
        let take = per.min(rows - row0);
        let (ha, ta) = ra.split_at_mut(take * a_row_len);
        let (hb, tb) = rb.split_at_mut(take * b_row_len);
        blocks[parts] = (row0, SendPtr(ha.as_mut_ptr()), SendPtr(hb.as_mut_ptr()), take);
        parts += 1;
        (ra, rb) = (ta, tb);
        row0 += take;
    }
    let f = &f;
    run_parts(parts, move |i| {
        let (r0, pa, pb, take) = blocks[i];
        // SAFETY: disjoint `split_at_mut` sub-slices of `a`/`b`, each part
        // index executed exactly once on exactly one thread.
        let (ba, bb) = unsafe {
            (
                std::slice::from_raw_parts_mut(pa.0, take * a_row_len),
                std::slice::from_raw_parts_mut(pb.0, take * b_row_len),
            )
        };
        f(r0, ba, bb);
    });
}

/// Splits four equal-length slices into the *same* disjoint contiguous
/// per-thread ranges and runs `f(start, a_chunk, b_chunk, c_chunk, d_chunk)`
/// on each. For fused elementwise updates over several buffers at once
/// (e.g. the AdamW step over parameter/gradient/moment slices): element `i`
/// of every output chunk must depend only on element `i` of the inputs, so
/// the split stays bitwise-identical to serial at any thread count.
///
/// # Panics
/// If the slice lengths differ.
#[allow(unsafe_code)]
pub fn parallel_zip4<F>(
    a: &mut [f32],
    b: &[f32],
    c: &mut [f32],
    d: &mut [f32],
    grain: usize,
    f: F,
) where
    F: Fn(usize, &mut [f32], &[f32], &mut [f32], &mut [f32]) + Sync,
{
    let len = a.len();
    assert!(
        b.len() == len && c.len() == len && d.len() == len,
        "parallel_zip4 length mismatch: {} / {} / {} / {}",
        len,
        b.len(),
        c.len(),
        d.len()
    );
    let threads = plan_threads(Class::Zip4, len, grain);
    if threads <= 1 {
        note_outcome(false);
        if len > 0 {
            f(0, a, b, c, d);
        }
        return;
    }
    let chunk = len.div_ceil(threads);
    let parts = len.div_ceil(chunk);
    // Captured as one tuple so the closure grabs the `Send`/`Sync` wrappers
    // whole (precise field capture would otherwise pull out the bare raw
    // pointers, which are deliberately not `Sync`).
    let ptrs =
        (SendPtr(a.as_mut_ptr()), SendConst(b.as_ptr()), SendPtr(c.as_mut_ptr()), SendPtr(d.as_mut_ptr()));
    let f = &f;
    run_parts(parts, move |i| {
        let (pa, pb, pc, pd) = ptrs;
        let start = i * chunk;
        let take = chunk.min(len - start);
        // SAFETY: the four parent slices outlive the dispatch; chunk ranges
        // `start..start + take` are disjoint across part indices and each
        // index is executed exactly once, so no `&mut` chunk aliases.
        let (ca, cb, cc, cd) = unsafe {
            (
                std::slice::from_raw_parts_mut(pa.0.add(start), take),
                std::slice::from_raw_parts(pb.0.add(start), take),
                std::slice::from_raw_parts_mut(pc.0.add(start), take),
                std::slice::from_raw_parts_mut(pd.0.add(start), take),
            )
        };
        f(start, ca, cb, cc, cd);
    });
}

/// Fills `out` by mapping `f` over per-thread subranges: `f(range, chunk)`
/// writes `chunk` (which aliases `out[range]`). Convenience wrapper over
/// [`parallel_rows`] for flat elementwise producers.
pub fn parallel_fill<T, F>(out: &mut [T], grain: usize, f: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    parallel_rows(out, 1, grain, 1, |start, chunk| {
        let end = start + chunk.len();
        f(start..end, chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallel_rows_partitions_disjointly() {
        let mut out = vec![0u32; 7 * 13];
        parallel_rows(&mut out, 13, 1, 2, |row0, block| {
            for (r, row) in block.chunks_mut(13).enumerate() {
                for v in row {
                    *v = (row0 + r) as u32 + 1;
                }
            }
        });
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i / 13) as u32 + 1, "element {i}");
        }
    }

    #[test]
    fn parallel_rows_respects_alignment() {
        // With align = 4, every block except possibly the last must start at
        // a multiple of 4.
        let mut out = vec![0u8; 23 * 3];
        parallel_rows(&mut out, 3, 1, 4, |row0, _| {
            assert_eq!(row0 % 4, 0, "block start {row0} not aligned");
        });
    }

    #[test]
    fn focus_threads_accepts_positive_integers() {
        assert_eq!(parse_focus_threads("4"), Ok(4));
        assert_eq!(parse_focus_threads(" 8 "), Ok(8), "surrounding whitespace is fine");
        assert_eq!(parse_focus_threads("1"), Ok(1));
    }

    #[test]
    fn focus_threads_rejects_garbage_with_the_offending_value() {
        for bad in ["all", "0", "", "-2", "4.0", "2 threads"] {
            let err = parse_focus_threads(bad).expect_err("must reject");
            assert!(
                err.contains(&format!("`{bad}`")),
                "error must name the offending value: {err}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "invalid FOCUS_THREADS")]
    fn invalid_focus_threads_fails_loudly_instead_of_falling_back() {
        resolve_default(Some("all".to_string()));
    }

    #[test]
    fn unset_focus_threads_uses_available_parallelism() {
        assert!(resolve_default(None) >= 1);
    }

    #[test]
    fn set_threads_round_trips() {
        // The override is process-global: hold the guard so concurrently
        // running tests cannot observe (or clobber) the temporary setting.
        let _g = threads_guard();
        let before = max_threads();
        set_threads(3);
        assert_eq!(max_threads(), 3);
        set_threads(0);
        assert_eq!(max_threads(), before);
    }

    #[test]
    fn plan_clamps_at_max_threads() {
        let _g = threads_guard();
        set_threads(10 * MAX_THREADS);
        let planned = plan_threads(Class::Rows, usize::MAX, 1);
        set_threads(0);
        assert_eq!(planned, MAX_THREADS, "dispatch must clamp huge overrides");
    }

    #[test]
    fn workers_are_spawned_once_and_reused() {
        let _g = threads_guard();
        set_threads(3);
        let warm = |tag: u32| {
            let mut out = vec![0u32; 3 * 64];
            parallel_rows(&mut out, 64, 1, 1, |row0, block| {
                block.fill(row0 as u32 + tag);
            });
            assert_eq!(out[0], tag);
        };
        warm(1); // may spawn workers
        let before = spawn_count();
        for tag in 2..30 {
            warm(tag);
        }
        let after = spawn_count();
        set_threads(0);
        assert_eq!(after, before, "steady-state dispatches must never respawn workers");
    }

    #[test]
    fn worker_panics_propagate_to_the_caller() {
        let _g = threads_guard();
        set_threads(2);
        let caught = std::panic::catch_unwind(|| {
            parallel_fill(&mut [0u8; 1000], 1, |range, _| {
                if range.start > 0 {
                    panic!("boom in worker part");
                }
            });
        });
        set_threads(0);
        let payload = caught.expect_err("worker panic must reach the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("");
        assert!(msg.contains("boom in worker part"), "payload preserved: {msg}");
        // The pool must stay usable after a panic.
        set_threads(2);
        let hits = AtomicUsize::new(0);
        parallel_fill(&mut [0u8; 1000], 1, |r, _| {
            hits.fetch_add(r.len(), Ordering::Relaxed);
        });
        set_threads(0);
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn dispatch_counters_tick() {
        let _g = threads_guard();
        let before = stats();
        set_threads(1);
        parallel_fill(&mut [0u8; 64], 1, |_, _| {}); // planned single-threaded ⇒ inline
        set_threads(2);
        parallel_fill(&mut [0u8; 4096], 1, |_, _| {}); // two grains of work ⇒ pooled
        set_threads(0);
        let after = stats();
        assert!(after.inline > before.inline, "inline dispatch must count");
        assert!(after.parallel > before.parallel, "pooled dispatch must count");
        assert!(after.wakes > before.wakes, "pooled dispatch wakes workers");
    }

    #[test]
    fn parallel_rows2_splits_both_outputs_on_the_same_rows() {
        // 37 rows; a has width 5, b has width 2. Each block must see
        // matching row ranges in both outputs.
        let mut a = vec![0u32; 37 * 5];
        let mut b = vec![0u32; 37 * 2];
        parallel_rows2(&mut a, 5, &mut b, 2, 1, |row0, ab, bb| {
            assert_eq!(ab.len() / 5, bb.len() / 2, "blocks cover different row counts");
            for (r, row) in ab.chunks_mut(5).enumerate() {
                row.fill((row0 + r) as u32 + 1);
            }
            for (r, row) in bb.chunks_mut(2).enumerate() {
                row.fill((row0 + r) as u32 + 1);
            }
        });
        assert!(a.iter().enumerate().all(|(i, &v)| v == (i / 5) as u32 + 1));
        assert!(b.iter().enumerate().all(|(i, &v)| v == (i / 2) as u32 + 1));
    }

    #[test]
    fn parallel_zip4_covers_all_elements() {
        let mut a = vec![0.0f32; 1000];
        let b: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        let mut c = vec![0.0f32; 1000];
        let mut d = vec![0.0f32; 1000];
        parallel_zip4(&mut a, &b, &mut c, &mut d, 16, |start, ac, bc, cc, dc| {
            for i in 0..ac.len() {
                ac[i] = bc[i] + 1.0;
                cc[i] = (start + i) as f32;
                dc[i] = 2.0 * bc[i];
            }
        });
        assert!(a.iter().enumerate().all(|(i, &v)| v == i as f32 + 1.0));
        assert!(c.iter().enumerate().all(|(i, &v)| v == i as f32));
        assert!(d.iter().enumerate().all(|(i, &v)| v == 2.0 * i as f32));
    }

    #[test]
    fn parallel_fill_writes_disjoint_chunks() {
        let mut out = vec![0usize; 4096];
        parallel_fill(&mut out, 64, |range, chunk| {
            for (i, v) in range.zip(chunk.iter_mut()) {
                *v = i * 2;
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i * 2));
    }
}
