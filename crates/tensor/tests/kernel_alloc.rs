//! Warmed-up GEMM calls make no heap allocation.
//!
//! A counting global allocator wraps the system one. Every `exec` entry
//! point the plan VM calls for a GEMM-shaped opcode runs once to warm up
//! (worker threads, per-thread packing scratch), then once more while the
//! count is watched; that second call must allocate nothing, at 1 and at 2
//! worker threads. The shapes are the FOCUS bench model's plus ragged ones:
//! `n % 16 != 0`, `k > 256`, `m` off every tile multiple, and products large
//! enough to split across threads.
//!
//! The target holds a single test, so nothing else allocates while a call
//! is being counted.

use focus_tensor::exec::{self, Trans};
use focus_tensor::par;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments and
// only adds a relaxed counter bump, so `System`'s guarantees carry over.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s requirements.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller meets `GlobalAlloc::alloc_zeroed`'s requirements.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`, as the caller
        // guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller meets `GlobalAlloc::realloc`'s requirements and
        // `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Deterministic operand data, exact zeros included.
fn data(n: usize, seed: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let h = (i * 7 + seed * 13) % 17;
            if h < 4 {
                0.0
            } else {
                h as f32 * 0.25 - 2.0
            }
        })
        .collect()
}

type Call = Box<dyn FnMut()>;

fn gemm(trans: Trans, m: usize, k: usize, n: usize) -> (String, Call) {
    let (a, b, mut c) = (data(m * k, 1), data(k * n, 2), vec![0.0f32; m * n]);
    let call = move || exec::gemm(trans, m, k, n, &a, &b, &mut c);
    (format!("gemm {trans:?} [{m},{k},{n}]"), Box::new(call))
}

fn bmm(trans: Trans, bt: usize, m: usize, k: usize, n: usize) -> (String, Call) {
    let (a, b, mut c) = (
        data(bt * m * k, 3),
        data(bt * k * n, 4),
        vec![0.0f32; bt * m * n],
    );
    let call = move || exec::bmm(trans, bt, m, k, n, &a, &b, &mut c);
    (format!("bmm {trans:?} [{bt},{m},{k},{n}]"), Box::new(call))
}

/// `BcastNt`, `BcastNtDa` and `BcastNtDx` at the plan's `[bsz, k, d, l]` /
/// `[bsz, k, l, d]` geometry.
fn bcast(bsz: usize, k: usize, l: usize, d: usize) -> [(String, Call); 3] {
    let (a, x, g) = (data(k * d, 5), data(bsz * l * d, 6), data(bsz * k * l, 7));
    let (a2, g2, x2) = (a.clone(), g.clone(), x.clone());
    let mut scores = vec![0.0f32; bsz * k * l];
    let mut da = vec![0.0f32; k * d];
    let mut dx = vec![0.0f32; bsz * l * d];
    let geom = format!("[{bsz},{k},{l},{d}]");
    [
        (
            format!("bcast_nt {geom}"),
            Box::new(move || exec::bcast_nt(bsz, k, d, l, &a, &x, &mut scores)),
        ),
        (
            format!("bcast_nt_da {geom}"),
            Box::new(move || exec::bcast_nt_da(&g, &x2, bsz, k, l, d, &mut da)),
        ),
        (
            format!("bcast_nt_dx {geom}"),
            Box::new(move || exec::bcast_nt_dx(&g2, &a2, bsz, k, l, d, &mut dx)),
        ),
    ]
}

#[test]
fn warmed_up_gemm_entry_points_do_not_allocate() {
    let mut calls = vec![
        // The bench model's GEMM-shaped instructions.
        gemm(Trans::Nn, 384, 8, 32),
        gemm(Trans::Tn, 8, 384, 32),
        gemm(Trans::Tn, 64, 192, 32),
        gemm(Trans::Nn, 192, 64, 32),
        gemm(Trans::Nt, 192, 32, 64),
        gemm(Trans::Tn, 192, 32, 24),
        gemm(Trans::Nn, 32, 192, 24),
        gemm(Trans::Nt, 32, 24, 192),
        gemm(Trans::Nn, 8, 8, 32),
        gemm(Trans::Tn, 8, 8, 32),
        // The offline-cluster assignment GEMM.
        gemm(Trans::Nt, 4800, 8, 8),
        bmm(Trans::Nt, 32, 6, 32, 12),
        bmm(Trans::Nt, 12, 8, 32, 32),
        bmm(Trans::Nn, 32, 6, 12, 32),
        bmm(Trans::Nn, 32, 8, 12, 32),
        bmm(Trans::Tn, 32, 12, 6, 32),
        bmm(Trans::Tn, 12, 32, 8, 32),
        // Ragged: n % 16 != 0, k > 256, m off the tile height, n < 16, and
        // products large enough to split rows or batches across threads.
        gemm(Trans::Nn, 37, 300, 21),
        gemm(Trans::Nt, 37, 300, 21),
        gemm(Trans::Tn, 37, 300, 21),
        gemm(Trans::Nn, 5, 3, 7),
        gemm(Trans::Tn, 131, 270, 70),
        gemm(Trans::Nt, 131, 270, 70),
        bmm(Trans::Nn, 5, 13, 260, 19),
        bmm(Trans::Nt, 64, 11, 40, 37),
    ];
    calls.extend(bcast(32, 6, 12, 32));
    calls.extend(bcast(32, 8, 12, 32));
    calls.extend(bcast(12, 8, 32, 32));
    calls.extend(bcast(5, 7, 261, 13));
    calls.extend(bcast(96, 9, 40, 19));

    let _guard = par::threads_guard();
    let mut leaks = Vec::new();
    for threads in [1usize, 2] {
        par::set_threads(threads);
        for (label, call) in &mut calls {
            call();
            let before = ALLOCS.load(Ordering::SeqCst);
            call();
            let n = ALLOCS.load(Ordering::SeqCst) - before;
            if n != 0 {
                leaks.push(format!("{label} at {threads} thread(s): {n} allocation(s)"));
            }
        }
    }
    par::set_threads(0);
    assert!(
        leaks.is_empty(),
        "warmed-up GEMM calls allocated:\n{}",
        leaks.join("\n")
    );
}
