//! Counting what runs: the FLOPs the kernels execute and the most buffer
//! bytes held at once, per thread.
//!
//! These are the paper's platform-independent efficiency metrics (§VIII-A:
//! FLOPs and peak memory, next to the parameter count), counted on the code
//! that runs instead of restated as formulas. [`measure`] reads both around
//! a closure, for example one `predict`.
//!
//! **FLOPs.** Every [`crate::exec`] entry point adds its count once per
//! call, on the calling thread, before it splits its loop over workers; so
//! do the few loops that run outside it (row statistics and instance
//! normalisation, the fused Eq. 6 sweep, DLinear's decomposition). The convention is `thop`'s: one
//! multiply–accumulate is 2 FLOPs, pointwise ops cost a small constant per
//! element, and data movement costs nothing:
//!
//! | kernel | FLOPs |
//! |---|---|
//! | `bmm` (one product, batched or shared operands), `bcast_nt_da` | 2 per multiply–accumulate |
//! | `zip_add`/`sub`/`mul`, `map_scale`, `map_add_scalar`, `map_abs`, `add_row_broadcast` | 1 per element |
//! | `map_relu`/`gelu`/`sigmoid`/`tanh` | 4 per element |
//! | `softmax_last` | 5 per element |
//! | `layer_norm_fwd` | 8 per element |
//! | `zip_relu_bwd`, `zip_abs_bwd` | 1 per element |
//! | `zip_sigmoid_bwd`, `zip_tanh_bwd` | 3 per element |
//! | `zip_gelu_bwd` | 5 per element |
//! | `softmax_last_bwd` | 4 per element |
//! | `layer_norm_bwd` | 12 per element |
//! | `axpy` | 2 per element |
//! | `bias_grad`, `route_scatter_add`, `sum_all` | 1 per input element (`mean_all` one more) |
//! | copies, fills, transposes, slices, concatenation, `route_gather` | 0 |
//!
//! **Bytes.** The tensor [`crate::pool`] holds the bytes of every buffer it
//! hands out, at the requested length, until the buffer comes back, and a
//! replay of a kept plan holds its slot buffers while it runs. [`measure`] reports
//! the most bytes held at once above what was held when it started.
//!
//! Counting costs one thread-local add per kernel call: no lock, no
//! allocation. Kernels that run on other threads count on theirs, so a
//! count never sees them.

use std::cell::Cell;

/// This thread's running totals.
struct Tally {
    flops: Cell<u64>,
    held: Cell<i64>,
    peak: Cell<i64>,
}

thread_local! {
    static TALLY: Tally = const {
        Tally { flops: Cell::new(0), held: Cell::new(0), peak: Cell::new(0) }
    };
}

/// Adds `n` FLOPs to this thread's count.
#[inline]
pub fn add_flops(n: usize) {
    TALLY.with(|t| t.flops.set(t.flops.get() + n as u64));
}

/// Counts `bytes` more as held by this thread.
#[inline]
pub fn hold(bytes: usize) {
    TALLY.with(|t| {
        let held = t.held.get() + bytes as i64;
        t.held.set(held);
        t.peak.set(t.peak.get().max(held));
    });
}

/// Counts `bytes` fewer as held by this thread.
#[inline]
pub fn release(bytes: usize) {
    TALLY.with(|t| t.held.set(t.held.get() - bytes as i64));
}

/// What one [`measure`]d call did on its thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Work {
    /// FLOPs its kernels ran.
    pub flops: u64,
    /// The most bytes it held at once.
    pub peak_bytes: u64,
}

/// Runs `f`, returning its result and the [`Work`] it did on this thread.
/// Measures nest: an inner one leaves the outer one's count whole.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Work) {
    let (flops0, held0, outer_peak) = TALLY.with(|t| {
        let start = (t.flops.get(), t.held.get(), t.peak.get());
        t.peak.set(start.1);
        start
    });
    let out = f();
    let work = TALLY.with(|t| {
        let peak = t.peak.get();
        t.peak.set(peak.max(outer_peak));
        Work {
            flops: t.flops.get() - flops0,
            peak_bytes: (peak - held0) as u64,
        }
    });
    (out, work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{self, Trans};
    use crate::Tensor;

    /// FLOPs one call counts on this thread.
    fn flops(call: impl FnOnce()) -> usize {
        measure(call).1.flops as usize
    }

    type Zip = fn(&[f32], &[f32], &mut [f32]);
    type Map = fn(&[f32], &mut [f32]);

    /// `n` distinct finite values.
    fn v(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.37).sin()).collect()
    }

    #[test]
    fn measure_reports_flops_and_the_high_water_mark() {
        let ((), w) = measure(|| {
            add_flops(7);
            hold(100);
            hold(50);
            release(120);
            hold(10);
            add_flops(3);
        });
        assert_eq!(
            w,
            Work {
                flops: 10,
                peak_bytes: 150
            }
        );
        release(40);
    }

    #[test]
    fn nested_measures_keep_the_outer_count_whole() {
        let (inner, outer) = measure(|| {
            hold(64);
            let ((), inner) = measure(|| {
                add_flops(5);
                hold(32);
                release(32);
            });
            release(64);
            add_flops(1);
            inner
        });
        assert_eq!(
            inner,
            Work {
                flops: 5,
                peak_bytes: 32
            }
        );
        assert_eq!(
            outer,
            Work {
                flops: 6,
                peak_bytes: 96
            }
        );
    }

    #[test]
    fn bytes_released_before_a_measure_do_not_lower_its_peak() {
        hold(1000);
        let ((), w) = measure(|| {
            release(1000);
            hold(8);
        });
        assert_eq!(w.peak_bytes, 0, "the buffer given back made room for the new one");
        release(8);
    }

    #[test]
    fn work_on_another_thread_is_not_counted() {
        let ((), w) = measure(|| {
            std::thread::scope(|s| {
                s.spawn(|| {
                    add_flops(1_000);
                    hold(1_000);
                });
            });
            add_flops(2);
        });
        assert_eq!(
            w,
            Work {
                flops: 2,
                peak_bytes: 0
            }
        );
    }

    #[test]
    fn gemm_family_counts_two_flops_per_multiply_accumulate() {
        let (bt, m, k, n) = (3, 4, 5, 6);
        let (a, b, mut c) = (v(bt * m * k), v(bt * k * n), vec![0.0; bt * m * n]);
        for trans in [Trans::Nn, Trans::Nt, Trans::Tn] {
            assert_eq!(
                flops(|| exec::bmm(trans, 1, m, k, n, (&a[..m * k], true), (&b[..k * n], true), &mut c[..m * n])),
                2 * m * k * n
            );
            assert_eq!(
                flops(|| exec::bmm(trans, bt, m, k, n, (&a, true), (&b, true), &mut c)),
                2 * bt * m * k * n
            );
        }
        // The broadcast-NT forward and both of its adjoints: a [m, k] matrix
        // against bt batches of [n, k].
        assert_eq!(
            flops(|| exec::bmm(Trans::Nt, bt, m, k, n, (&a[..m * k], false), (&b[..bt * n * k], true), &mut c)),
            2 * bt * m * k * n
        );
        let (g, x) = (v(bt * m * n), v(bt * n * k));
        let mut da = vec![0.0; m * k];
        assert_eq!(
            flops(|| exec::bcast_nt_da(&g, &x, bt, m, n, k, &mut da)),
            2 * bt * m * n * k
        );
        let mut dx = vec![0.0; bt * n * k];
        assert_eq!(
            flops(|| exec::bmm(Trans::Tn, bt, n, m, k, (&g, true), (&a[..m * k], false), &mut dx)),
            2 * bt * m * n * k
        );
    }

    #[test]
    fn elementwise_kernels_count_their_per_element_cost() {
        let n = 37;
        let (a, b, mut o) = (v(n), v(n), vec![0.0; n]);
        let zips: [(Zip, usize); 8] = [
            (exec::zip_add, 1),
            (exec::zip_sub, 1),
            (exec::zip_mul, 1),
            (exec::zip_relu_bwd, 1),
            (exec::zip_abs_bwd, 1),
            (exec::zip_sigmoid_bwd, 3),
            (exec::zip_tanh_bwd, 3),
            (exec::zip_gelu_bwd, 5),
        ];
        for (kernel, per) in zips {
            assert_eq!(flops(|| kernel(&a, &b, &mut o)), per * n);
        }
        let maps: [(Map, usize); 5] = [
            (exec::map_relu, 4),
            (exec::map_gelu, 4),
            (exec::map_sigmoid, 4),
            (exec::map_tanh, 4),
            (exec::map_abs, 1),
        ];
        for (kernel, per) in maps {
            assert_eq!(flops(|| kernel(&a, &mut o)), per * n);
        }
        assert_eq!(flops(|| exec::map_scale(&a, 0.5, &mut o)), n);
        assert_eq!(flops(|| exec::map_add_scalar(&a, 0.5, &mut o)), n);
        assert_eq!(flops(|| exec::axpy(&mut o, 0.5, &a)), 2 * n);
        assert_eq!(
            flops(|| drop(Tensor::from_vec(a.clone(), &[n]).map(f32::exp))),
            n,
            "an arbitrary map counts one per element"
        );
    }

    #[test]
    fn row_kernels_count_their_per_element_cost() {
        let (rows, n) = (7, 12);
        let (x, g, mut o) = (v(rows * n), v(rows * n), vec![0.0; rows * n]);
        let (row, mut col) = (v(n), vec![0.0; n]);
        assert_eq!(flops(|| exec::add_row_broadcast(&x, &row, n, &mut o)), rows * n);
        assert_eq!(flops(|| exec::bias_grad(&g, rows, n, &mut col)), rows * n);
        assert_eq!(flops(|| exec::softmax_last(&x, n, &mut o)), 5 * rows * n);
        let y = o.clone();
        assert_eq!(flops(|| exec::softmax_last_bwd(&y, &g, n, &mut o)), 4 * rows * n);
        let (gamma, beta, mut cache) = (v(n), v(n), vec![0.0; 2 * rows]);
        assert_eq!(
            flops(|| exec::layer_norm_fwd(&x, n, &gamma, &beta, 1e-5, &mut o, &mut cache)),
            8 * rows * n
        );
        let (mut dgamma, mut dbeta) = (vec![0.0; n], vec![0.0; n]);
        let mut dx = vec![0.0; rows * n];
        assert_eq!(
            flops(|| exec::layer_norm_bwd(&x, n, &gamma, &cache, &g, &mut dx, &mut dgamma, &mut dbeta)),
            12 * rows * n
        );
        assert_eq!(
            flops(|| drop(Tensor::from_vec(x.clone(), &[rows, n]).row_mean_std())),
            4 * rows * n
        );
    }

    #[test]
    fn reductions_count_one_flop_per_element() {
        let x = v(29);
        assert_eq!(
            flops(|| {
                exec::sum_all(&x);
            }),
            29
        );
        assert_eq!(
            flops(|| {
                exec::mean_all(&x);
            }),
            30,
            "the divide counts too"
        );
    }

    #[test]
    fn data_movement_counts_nothing_and_routing_adds_count_one() {
        let (b, k, d, l) = (2, 3, 4, 5);
        let (src, mut dst) = (v(b * l * d), vec![0.0; b * l * d]);
        assert_eq!(flops(|| exec::copy(&src, &mut dst)), 0);
        assert_eq!(flops(|| exec::fill(&mut dst, 1.0)), 0);
        assert_eq!(flops(|| exec::transpose_last2(&src, 1, b * l, d, &mut dst)), 0);
        assert_eq!(flops(|| exec::transpose_last2(&src, b, l, d, &mut dst)), 0);
        assert_eq!(flops(|| exec::swap01(&src, b, l, d, &mut dst)), 0);
        assert_eq!(
            flops(|| exec::concat_last(&src[..b * l], &src[..b * l], 1, 1, b * l, &mut dst[..2 * b * l])),
            0
        );
        assert_eq!(
            flops(|| exec::slice_cols(&src, d, 1, 3, b * l, &mut dst[..2 * b * l])),
            0
        );
        assert_eq!(
            flops(|| exec::scatter_cols(&src[..2 * b * l], d, 1, 2, b * l, &mut dst)),
            0
        );
        let indices: Vec<u32> = (0..b * l).map(|i| (i % k) as u32).collect();
        let (head, mut dhead) = (v(b * k * d), vec![0.0; b * k * d]);
        assert_eq!(flops(|| exec::route_gather(&head, &indices, b, k, d, l, &mut dst)), 0);
        assert_eq!(
            flops(|| exec::route_scatter_add(&src, &indices, b, l, d, k, &mut dhead)),
            b * l * d
        );
    }

    #[test]
    fn kernels_on_another_thread_do_not_change_a_count() {
        let (m, k, n) = (64, 64, 64);
        let (a, b) = (v(m * k), v(k * n));
        let ((), w) = measure(|| {
            std::thread::scope(|s| {
                s.spawn(|| {
                    let mut c = vec![0.0; m * n];
                    exec::bmm(Trans::Nn, 1, m, k, n, (&a, true), (&b, true), &mut c);
                    drop(Tensor::zeros(&[m, n]));
                });
                let mut c = vec![0.0; 4 * n];
                exec::bmm(Trans::Nn, 1, 4, k, n, (&a[..4 * k], true), (&b, true), &mut c);
            });
        });
        assert_eq!(
            w,
            Work {
                flops: (2 * 4 * k * n) as u64,
                peak_bytes: 0
            }
        );
    }

    #[test]
    fn pool_buffers_count_as_held_at_their_requested_length() {
        let ((), w) = measure(|| {
            let a = Tensor::zeros(&[100]);
            let b = Tensor::zeros(&[3, 7]);
            drop(a);
            let _c = Tensor::zeros(&[50]);
            drop(b);
        });
        assert_eq!(w.peak_bytes, 4 * (100 + 21));
    }
}
