//! Size-bucketed recycling pool for tensor buffers.
//!
//! Every [`Tensor`](crate::Tensor) buffer is handed out by [`take`] /
//! [`take_zeroed`] / [`take_copy`] and returned by [`give`] when the tensor
//! drops. Buffers are grouped into power-of-two capacity classes: a fresh
//! allocation for a request of `n` elements reserves exactly
//! `n.next_power_of_two()` slots, so once a buffer exists for a class it is
//! found again by every later request that rounds up to the same class.
//! Combined with `Graph::reset` tape reuse, a steady-state training step
//! performs **zero** new heap allocations: every window re-requests the same
//! capacity classes the previous window just returned.
//!
//! Contents of a pooled buffer are **unspecified** (whatever the previous
//! owner left behind). [`take`] is therefore only for kernels that overwrite
//! every element before reading any; use [`take_zeroed`] when the kernel
//! accumulates into its output (e.g. GEMM) and [`take_copy`] to duplicate an
//! existing buffer. This is safe Rust throughout — recycled buffers always
//! hold previously-written `f32`s, never uninitialised memory — but reading
//! a slot before writing it would leak stale values into results and break
//! run-to-run determinism, so the overwrite discipline is load-bearing.
//!
//! The pool is a process-wide singleton guarded by a [`Mutex`]; the lock is
//! held only for the bucket push/pop, never while zeroing or copying.
//! Retention is capped per class and in total so pathological size sweeps
//! cannot hold the high-water mark of every shape ever seen.
//!
//! A buffer handed out counts as held by the taking thread, at its requested
//! length, until it comes back ([`crate::work`]): that is how a `predict`'s
//! peak memory is counted.

use crate::work;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// One free-list per power-of-two capacity class (`2^0 ..= 2^63`).
const CLASSES: usize = usize::BITS as usize;
/// Buffers retained per class; excess returns are dropped (freed). Many
/// same-class buffers can come back in one burst — a dropped plan's slot
/// buffers, a tape's leaf and input copies at `Graph::reset`, a model's
/// parameter snapshot — and the class cap must absorb that burst or the next
/// step re-allocates what was just freed. [`MAX_RESIDENT_BYTES`] is the
/// actual memory bound; this cap only stops one class hoarding it.
const MAX_PER_CLASS: usize = 4096;
/// Total bytes the pool may keep resident across all classes.
const MAX_RESIDENT_BYTES: usize = 256 << 20;

struct Shelves {
    classes: Vec<Vec<Vec<f32>>>,
    resident_bytes: usize,
}

static SHELVES: Mutex<Shelves> = Mutex::new(Shelves {
    classes: Vec::new(),
    resident_bytes: 0,
});
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static FRESH_ALLOCS: AtomicU64 = AtomicU64::new(0);
static FRESH_STEADY: AtomicU64 = AtomicU64::new(0);
static RETURNED: AtomicU64 = AtomicU64::new(0);
/// Whether the process has declared itself past warmup (see [`set_steady`]).
static STEADY: AtomicBool = AtomicBool::new(false);

/// Snapshot of the pool's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests served from a recycled buffer.
    pub hits: u64,
    /// Requests that found their capacity class empty.
    pub misses: u64,
    /// Actual heap allocations performed (one per miss).
    pub fresh_allocs: u64,
    /// The subset of `fresh_allocs` performed after [`set_steady`]`(true)`.
    /// A correctly warmed-up steady state keeps this at zero; the warmup
    /// share is `fresh_allocs - fresh_allocs_steady`.
    pub fresh_allocs_steady: u64,
    /// Buffers accepted back into the pool.
    pub returned: u64,
    /// Bytes currently resident in the free lists.
    pub resident_bytes: u64,
}

/// Records one fresh heap allocation, attributing it to the warmup or
/// steady phase (see [`set_steady`]).
#[inline]
fn count_fresh() {
    FRESH_ALLOCS.fetch_add(1, Ordering::Relaxed);
    if STEADY.load(Ordering::Relaxed) {
        FRESH_STEADY.fetch_add(1, Ordering::Relaxed);
    }
}

/// Class whose fresh allocations serve requests of `n` elements.
#[inline]
fn class_for_request(n: usize) -> usize {
    n.next_power_of_two().trailing_zeros() as usize
}

/// Class a returned buffer of capacity `cap` files under: the largest class
/// it can fully serve (`2^c <= cap`).
#[inline]
fn class_for_capacity(cap: usize) -> usize {
    (usize::BITS - 1 - cap.leading_zeros()) as usize
}

fn lock() -> std::sync::MutexGuard<'static, Shelves> {
    let mut s = SHELVES.lock().expect("tensor pool mutex poisoned");
    if s.classes.is_empty() {
        s.classes.resize_with(CLASSES, Vec::new);
    }
    s
}

/// A buffer of length `n` with **unspecified** contents (stale values from
/// its previous owner). The caller must overwrite every element before
/// reading any.
pub fn take(n: usize) -> Vec<f32> {
    if n == 0 {
        return Vec::new();
    }
    work::hold(n * std::mem::size_of::<f32>());
    let c = class_for_request(n);
    let popped = {
        let mut s = lock();
        let v = s.classes[c].pop();
        if let Some(v) = &v {
            s.resident_bytes -= v.capacity() * std::mem::size_of::<f32>();
        }
        v
    };
    match popped {
        Some(mut v) => {
            HITS.fetch_add(1, Ordering::Relaxed);
            // Capacity is >= 2^c >= n by the class invariant, so this never
            // reallocates: it either truncates or extends within capacity.
            debug_assert!(v.capacity() >= n);
            if v.len() >= n {
                v.truncate(n);
            } else {
                v.resize(n, 0.0);
            }
            v
        }
        None => {
            MISSES.fetch_add(1, Ordering::Relaxed);
            count_fresh();
            // Reserve the full class so the buffer files back under `c` and
            // is found by every later same-class request.
            let mut v = Vec::with_capacity(1usize << c);
            v.resize(n, 0.0);
            v
        }
    }
}

/// A zero-filled buffer of length `n`.
pub fn take_zeroed(n: usize) -> Vec<f32> {
    let mut v = take(n);
    v.fill(0.0);
    v
}

/// A buffer holding a copy of `src`.
pub fn take_copy(src: &[f32]) -> Vec<f32> {
    let mut v = take(src.len());
    v.copy_from_slice(src);
    v
}

/// Returns a buffer to the pool (or frees it if retention caps are hit).
/// Zero-capacity buffers are ignored.
pub fn give(v: Vec<f32>) {
    work::release(v.len() * std::mem::size_of::<f32>());
    let cap_bytes = v.capacity() * std::mem::size_of::<f32>();
    if cap_bytes == 0 {
        return;
    }
    let c = class_for_capacity(v.capacity());
    let mut s = lock();
    if s.classes[c].len() >= MAX_PER_CLASS
        || s.resident_bytes + cap_bytes > MAX_RESIDENT_BYTES
    {
        return; // dropped: caps reached
    }
    s.resident_bytes += cap_bytes;
    s.classes[c].push(v);
    RETURNED.fetch_add(1, Ordering::Relaxed);
}

/// Frees every resident buffer (counters are not reset).
pub fn clear() {
    let mut s = lock();
    for class in &mut s.classes {
        class.clear();
    }
    s.resident_bytes = 0;
}

/// Current counter snapshot.
pub fn stats() -> PoolStats {
    let resident = lock().resident_bytes as u64;
    PoolStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        fresh_allocs: FRESH_ALLOCS.load(Ordering::Relaxed),
        fresh_allocs_steady: FRESH_STEADY.load(Ordering::Relaxed),
        returned: RETURNED.load(Ordering::Relaxed),
        resident_bytes: resident,
    }
}

/// Fresh heap allocations performed so far (monotone counter).
pub fn fresh_allocs() -> u64 {
    FRESH_ALLOCS.load(Ordering::Relaxed)
}

/// Marks the boundary between warmup and steady state for fresh-allocation
/// accounting: allocations performed while `on` is true count into
/// `fresh_allocs_steady` in addition to the monotone `fresh_allocs` total.
/// Benchmarks flip this after their warmup rounds so the published counters
/// distinguish expected warmup allocation from a steady-state regression.
pub fn set_steady(on: bool) {
    STEADY.store(on, Ordering::Relaxed);
}

/// Total pool lookups performed so far (hits + misses, monotone). Compiled
/// plan replay measures its own delta of this to prove the steady-state path
/// bypasses the pool entirely.
pub fn lookups() -> u64 {
    HITS.load(Ordering::Relaxed) + MISSES.load(Ordering::Relaxed)
}

/// Publishes the current pool counters into the `focus-trace` registry as
/// `pool/*` gauges (no-op while tracing is disabled). Pool traffic depends
/// on the worker-thread count (parallel kernels take per-worker scratch
/// buffers), so consumers comparing traces across thread counts exclude the
/// `pool/` prefix.
pub fn publish_trace_stats() {
    if !focus_trace::enabled() {
        return;
    }
    let s = stats();
    focus_trace::counter_set("pool/hits", s.hits);
    focus_trace::counter_set("pool/misses", s.misses);
    focus_trace::counter_set("pool/fresh_allocs", s.fresh_allocs);
    focus_trace::counter_set("pool/fresh_allocs_warmup", s.fresh_allocs - s.fresh_allocs_steady);
    focus_trace::counter_set("pool/fresh_allocs_steady", s.fresh_allocs_steady);
    focus_trace::counter_set("pool/returned", s.returned);
    focus_trace::counter_set("pool/resident_bytes", s.resident_bytes);
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests that assert on recycling behaviour must not interleave with each other (the pool is process-global and the rest of
    // the crate's tests run concurrently in the same binary). Sizes below use
    // a capacity class (2^17) no other tensor test touches, so concurrent
    // pool traffic from other tests cannot steal or contribute buffers here.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn round_trip_reuses_buffer_in_class() {
        let _g = TEST_LOCK.lock().expect("pool test lock");
        let n = 70_000; // class 2^17
        let mut v = take(n);
        assert_eq!(v.len(), n);
        assert!(v.capacity() >= 131_072, "fresh alloc reserves the full class");
        v.fill(7.5); // sentinel to prove the same buffer comes back
        give(v);
        // Anything in (65536, 131072] rounds up to the same class.
        let w = take(65_537);
        assert_eq!(w.len(), 65_537);
        assert!(
            w.contains(&7.5),
            "take must hand back the recycled (stale-content) buffer"
        );
        give(w);
    }

    #[test]
    fn take_zeroed_and_take_copy_clear_stale_contents() {
        let _g = TEST_LOCK.lock().expect("pool test lock");
        let n = 70_001;
        let mut v = take(n);
        v.fill(7.0);
        give(v);
        // The recycled buffer may be handed to either of these; both must be
        // clean for their contract.
        let z = take_zeroed(n);
        assert!(z.iter().all(|&x| x == 0.0));
        give(z);
        let src = vec![1.0f32; n];
        let c = take_copy(&src);
        assert!(c.iter().all(|&x| x == 1.0));
        give(c);
    }

    #[test]
    fn zero_length_requests_bypass_pool() {
        let v = take(0);
        assert!(v.is_empty() && v.capacity() == 0);
        give(v); // must be a no-op, not a panic
    }

    #[test]
    fn class_maths() {
        assert_eq!(class_for_request(1), 0);
        assert_eq!(class_for_request(2), 1);
        assert_eq!(class_for_request(3), 2);
        assert_eq!(class_for_request(1024), 10);
        assert_eq!(class_for_request(1025), 11);
        assert_eq!(class_for_capacity(1024), 10);
        assert_eq!(class_for_capacity(1535), 10);
        assert_eq!(class_for_capacity(2048), 11);
    }

    #[test]
    fn steady_flag_attributes_fresh_allocs() {
        let _g = TEST_LOCK.lock().expect("pool test lock");
        // With the shelves drained and both buffers held, each take below is
        // a fresh allocation (class 2^17 is only used by this module).
        clear();
        let before = stats();
        set_steady(true);
        let v = take(70_011);
        set_steady(false);
        let w = take(70_011);
        let after = stats();
        assert!(
            after.fresh_allocs_steady > before.fresh_allocs_steady,
            "steady-phase allocation must count into fresh_allocs_steady"
        );
        assert!(
            (after.fresh_allocs - after.fresh_allocs_steady)
                > (before.fresh_allocs - before.fresh_allocs_steady),
            "warmup-phase allocation must count into the warmup share"
        );
        drop(v);
        drop(w);
    }

    #[test]
    fn lookups_counts_hits_and_misses() {
        let _g = TEST_LOCK.lock().expect("pool test lock");
        let before = lookups();
        let v = take(70_013); // hit or miss, either way one lookup
        give(v);
        assert!(lookups() > before);
    }
}
