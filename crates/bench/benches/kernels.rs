//! Kernel sweeps: each hot kernel's naive path against its fast replacement,
//! the fast path at 1/2/4/max worker threads (see
//! [`focus_bench::measure::Sweep`]):
//!
//! * the serial reference GEMMs against the register-tiled ones
//!   (`a·b`, `a·bᵀ`, `aᵀ·b` at 256³), outputs bitwise equal;
//! * every GEMM-family instruction shape of the FOCUS bench model's train
//!   plan (32 entities, L = 96, H = 24, p = k = 8, d = 32, m = 6 readout
//!   queries: the embedding, ProtoAttn's scores, readout and `W_V`
//!   products in prototype space, the fusion readouts, its gate and the
//!   head, with their backward twins), except the once-per-window
//!   `[8, 8, 32]` and `[1, 8, …]` products for the prototype queries `M`:
//!   the reference kernel per batch, in each opcode's exact chain, against
//!   the `focus_tensor::exec` entry point the plan VM calls, outputs bitwise
//!   equal;
//! * the scalar per-pair `assign_all_scalar` against the fused Eq. 6 sweep
//!   kernel behind `assign_all`, under Rec Only and Rec+Corr at 20 000×32
//!   segments and k = 64, and under Rec+Corr at the offline-cluster
//!   workload's 4 800×8 segments and k = 8, assignments equal;
//! * one-hot routing: the dense `[B,l,k]·[B,k,d]` bmm against the
//!   `route_gather` index kernel, and the dense `bmm_tn` backward against
//!   `route_scatter_add`, outputs bitwise equal;
//! * every non-GEMM opcode of the FOCUS train plan at its plan shape: a
//!   serial loop in the kernel's documented chain against the `exec` entry
//!   point, outputs bitwise equal.
//!
//! The run rewrites `BENCH_kernels.json` at the repository root, then fails
//! if any fast path disagreed with its naive path, or if an elementwise
//! kernel's median at 1 thread exceeds [`ELEMENTWISE_BOUND`] times its
//! serial loop's (that loop vectorises, so such a kernel is below vector
//! speed). Thread counts beyond the host's cores cannot speed anything up,
//! so the report records the core count next to the sweeps.

use focus_bench::measure::{write_report, Sweep};
use focus_cluster::{ClusterConfig, Objective, ProtoUpdate};
use focus_tensor::exec::{self, Trans};
use focus_tensor::fused::{self, combine_lanes, LANES};
use focus_tensor::{par, reference, route, Tensor};
use focus_trace::report::RunReport;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Timed calls per series, after one warm-up call.
const SAMPLES: usize = 11;

/// A raw reference GEMM: `(m, k, n, a, b, c)`, accumulating into `c`.
type RawGemm = fn(usize, usize, usize, &[f32], &[f32], &mut [f32]);

/// Calls per timed sample of a FOCUS-shape sweep: one call takes
/// microseconds, so a sample times this many back to back.
const REPS: usize = 20;

/// Calls per timed sample of a non-GEMM sweep: one call takes 0.1–5 µs.
const KERNEL_REPS: usize = 100;

/// An elementwise kernel whose median at 1 thread exceeds this multiple of
/// its serial loop's fails the bench.
const ELEMENTWISE_BOUND: f64 = 3.0;

fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims() && bits_eq(a.data(), b.data())
}

fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The serial reference GEMMs against the tiled ones at 256³.
fn gemm_sweeps() -> [Sweep; 3] {
    let n = 256;
    let mut rng = StdRng::seed_from_u64(0x6e3a);
    let a = Tensor::randn(&[n, n], 1.0, &mut rng);
    let b = Tensor::randn(&[n, n], 1.0, &mut rng);
    let bt = Tensor::randn(&[n, n], 1.0, &mut rng);
    let at = Tensor::randn(&[n, n], 1.0, &mut rng);
    // The reference kernels accumulate, so each call starts from zeros.
    let naive = |gemm: RawGemm, x: &Tensor, y: &Tensor| {
        let mut c = Tensor::zeros(&[n, n]);
        gemm(n, n, n, x.data(), y.data(), c.data_mut());
        c
    };
    [
        Sweep::run("gemm_256", SAMPLES, || naive(reference::gemm, &a, &b), || a.matmul(&b), same_bits),
        Sweep::run(
            "gemm_nt_256",
            SAMPLES,
            || naive(reference::gemm_nt, &a, &bt),
            || a.matmul_nt(&bt),
            same_bits,
        ),
        Sweep::run(
            "gemm_tn_256",
            SAMPLES,
            || naive(reference::gemm_tn, &at, &b),
            || at.matmul_tn(&b),
            same_bits,
        ),
    ]
}

/// One GEMM-shaped opcode: `naive` (reference kernels, accumulating into a
/// zeroed output) against `fast` (the `exec` entry point, written through),
/// each sample [`REPS`] calls. Both outputs are allocated once; each fast
/// sample starts from NaN, so an element the kernel fails to write cannot
/// match.
fn opcode_sweep(
    label: &'static str,
    out_len: usize,
    mut naive: impl FnMut(&mut [f32]),
    fast: impl Fn(&mut [f32]),
) -> Sweep {
    let (mut want, mut out) = (vec![0.0f32; out_len], vec![0.0f32; out_len]);
    Sweep::run(
        label,
        SAMPLES,
        || {
            for _ in 0..REPS {
                want.fill(0.0);
                naive(&mut want);
            }
            want.clone()
        },
        || {
            out.fill(f32::NAN);
            for _ in 0..REPS {
                fast(&mut out);
            }
            out.clone()
        },
        |x, y| bits_eq(x, y),
    )
}

/// The per-batch reference chain of one batched opcode: `gemm` on batch
/// `bi`'s operands (`a` and `b` advance by `a_step` and `b_step` floats,
/// 0 for a broadcast operand) into batch `bi`'s `[m × n]` output block.
fn per_batch(
    gemm: RawGemm,
    bt: usize,
    (m, k, n): (usize, usize, usize),
    (a, a_step): (&[f32], usize),
    (b, b_step): (&[f32], usize),
    c: &mut [f32],
) {
    for (bi, c_one) in c.chunks_exact_mut(m * n).enumerate().take(bt) {
        gemm(m, k, n, &a[bi * a_step..][..m * k], &b[bi * b_step..][..k * n], c_one);
    }
}

/// Every GEMM-shaped plan opcode at the bench model's shapes.
fn opcode_sweeps() -> Vec<Sweep> {
    let mut rng = StdRng::seed_from_u64(0xf0c5);
    let mut v = |n: usize| Tensor::randn(&[n], 1.0, &mut rng).into_vec();
    let reference_of = |trans| -> RawGemm {
        match trans {
            Trans::Nn => reference::gemm,
            Trans::Nt => reference::gemm_nt,
            Trans::Tn => reference::gemm_tn,
        }
    };
    let bmm = |label, trans, (bt, m, k, n): (usize, usize, usize, usize), a: Vec<f32>, b: Vec<f32>| {
        let naive = reference_of(trans);
        opcode_sweep(
            label,
            bt * m * n,
            |c| per_batch(naive, bt, (m, k, n), (&a, m * k), (&b, k * n), c),
            |c| exec::bmm(trans, bt, m, k, n, (&a, true), (&b, true), c),
        )
    };
    // One product: a batch of one.
    let gemm = |label, trans, (m, k, n): (usize, usize, usize), a, b| bmm(label, trans, (1, m, k, n), a, b);
    // [bsz, k, l, d] = 32 entities' windows, 6 readout queries, 12 segments,
    // d = 32 (the fusion); ProtoAttn's prototype-space products run over 8
    // prototypes at width p = 8, the temporal branch over 32 entities' 12
    // segments and the entity branch over 12 segments' 32 entities.
    let (bsz, kp, l, d, p) = (32usize, 6usize, 12usize, 32usize, 8usize);
    let (a, x, g, g8) = (v(kp * d), v(bsz * l * d), v(bsz * kp * l), v(bsz * 8 * l));
    let (m8, segs, g8e) = (v(8 * p), v(bsz * l * p), v(l * 8 * bsz));
    // The autograd rule's chain: each per-batch product into a zeroed
    // scratch, added into the zeroed gradient in ascending batch order.
    let bcast_da = |label, (bsz, kp, l, w): (usize, usize, usize, usize), g: &[f32], x: &[f32]| {
        let mut tmp = vec![0.0f32; kp * w];
        opcode_sweep(
            label,
            kp * w,
            move |da| {
                for bi in 0..bsz {
                    tmp.fill(0.0);
                    reference::gemm(kp, l, w, &g[bi * kp * l..][..kp * l], &x[bi * l * w..][..l * w], &mut tmp);
                    for (o, &t) in da.iter_mut().zip(&tmp) {
                        *o += 1.0 * t;
                    }
                }
            },
            move |c| exec::bcast_nt_da(g, x, bsz, kp, l, w, c),
        )
    };
    // `a·x[b]ᵀ` with a shared `a`.
    let bcast = |label, (bsz, k, dd, l): (usize, usize, usize, usize), a: &[f32], x: &[f32]| {
        opcode_sweep(
            label,
            bsz * k * l,
            |c| per_batch(reference::gemm_nt, bsz, (k, dd, l), (a, 0), (x, l * dd), c),
            |c| exec::bmm(Trans::Nt, bsz, k, dd, l, (a, false), (x, true), c),
        )
    };
    vec![
        // Segment embedding and ProtoAttn's `·W_V`, both branches, and their
        // backward twins.
        gemm("gemm_nn_384x8x32", Trans::Nn, (384, 8, 32), v(384 * 8), v(8 * 32)),
        gemm("gemm_nn_256x8x32", Trans::Nn, (256, 8, 32), v(256 * 8), v(8 * 32)),
        gemm("gemm_nn_96x8x32", Trans::Nn, (96, 8, 32), v(96 * 8), v(8 * 32)),
        gemm("gemm_nt_256x32x8", Trans::Nt, (256, 32, 8), v(256 * 32), v(8 * 32)),
        gemm("gemm_nt_96x32x8", Trans::Nt, (96, 32, 8), v(96 * 32), v(8 * 32)),
        gemm("gemm_tn_8x384x32", Trans::Tn, (8, 384, 32), v(384 * 8), v(384 * 32)),
        gemm("gemm_tn_8x256x32", Trans::Tn, (8, 256, 32), v(256 * 8), v(256 * 32)),
        gemm("gemm_tn_8x96x32", Trans::Tn, (8, 96, 32), v(96 * 8), v(96 * 32)),
        // The fusion gate and its backward pair.
        gemm("gemm_nn_192x64x32", Trans::Nn, (192, 64, 32), v(192 * 64), v(64 * 32)),
        gemm("gemm_nt_192x32x64", Trans::Nt, (192, 32, 64), v(192 * 32), v(64 * 32)),
        gemm("gemm_tn_64x192x32", Trans::Tn, (64, 192, 32), v(192 * 64), v(192 * 32)),
        // The head and its backward pair.
        gemm("gemm_nn_32x192x24", Trans::Nn, (32, 192, 24), v(32 * 192), v(192 * 24)),
        gemm("gemm_nt_32x24x192", Trans::Nt, (32, 24, 192), v(32 * 24), v(192 * 24)),
        gemm("gemm_tn_192x32x24", Trans::Tn, (192, 32, 24), v(32 * 192), v(32 * 24)),
        // The fusion readouts over m = 6 queries.
        bmm("bmm_nn_32x6x12x32", Trans::Nn, (bsz, kp, l, d), g.clone(), x.clone()),
        bmm("bmm_nt_32x6x32x12", Trans::Nt, (bsz, kp, d, l), v(bsz * kp * d), x.clone()),
        bmm("bmm_tn_32x12x6x32", Trans::Tn, (bsz, l, kp, d), g.clone(), v(bsz * kp * d)),
        bcast("bcast_nt_32x6x32x12", (bsz, kp, d, l), &a, &x),
        opcode_sweep(
            "bcast_nt_dx_32x6x12x32",
            bsz * l * d,
            |c| per_batch(reference::gemm_tn, bsz, (l, kp, d), (&g, kp * l), (&a, 0), c),
            |c| exec::bmm(Trans::Tn, bsz, l, kp, d, (&g, true), (&a, false), c),
        ),
        bcast_da("bcast_nt_da_32x6x12x32", (bsz, kp, l, d), &g, &x),
        // ProtoAttn in prototype space: scores, readout `α·P`, `dα` and
        // `dM`, temporal branch (32 entities × 12 segments) then entity
        // branch (12 segments × 32 entities).
        bcast("bcast_nt_32x8x8x12", (bsz, 8, p, l), &m8, &segs),
        bmm("bmm_nn_32x8x12x8", Trans::Nn, (bsz, 8, l, p), g8.clone(), segs.clone()),
        bmm("bmm_nt_32x8x8x12", Trans::Nt, (bsz, 8, p, l), v(bsz * 8 * p), segs.clone()),
        bcast_da("bcast_nt_da_32x8x12x8", (bsz, 8, l, p), &g8, &segs),
        bcast("bcast_nt_12x8x8x32", (l, 8, p, bsz), &m8, &segs),
        bmm("bmm_nn_12x8x32x8", Trans::Nn, (l, 8, bsz, p), g8e.clone(), segs.clone()),
        bmm("bmm_nt_12x8x8x32", Trans::Nt, (l, 8, p, bsz), v(l * 8 * p), segs.clone()),
        bcast_da("bcast_nt_da_12x8x32x8", (l, 8, bsz, p), &g8e, &segs),
    ]
}

/// One non-GEMM opcode: `naive` (a serial loop in the kernel's documented
/// chain) against `fast` (the `exec` entry point the plan VM calls), each
/// sample [`KERNEL_REPS`] calls into an output that starts from `init`:
/// NaN for a kernel that overwrites its output, so an element it fails to
/// write cannot match, and the start value for `axpy`, which accumulates.
fn kernel_sweep(
    label: &'static str,
    init: Vec<f32>,
    mut naive: impl FnMut(&mut [f32]),
    fast: impl Fn(&mut [f32]),
) -> Sweep {
    let (mut want, mut out) = (init.clone(), init.clone());
    Sweep::run(
        label,
        SAMPLES,
        || {
            want.copy_from_slice(&init);
            for _ in 0..KERNEL_REPS {
                naive(&mut want);
            }
            want.clone()
        },
        || {
            out.copy_from_slice(&init);
            for _ in 0..KERNEL_REPS {
                fast(&mut out);
            }
            out.clone()
        },
        |x, y| bits_eq(x, y),
    )
}

/// Serial loops, one per non-GEMM opcode, in the chain each kernel
/// documents: elementwise ops element by element, softmax row by row (the
/// serial `f32::max` fold, `exp(v − max)`, the ascending sum from `+0.0`,
/// the scale by its inverse), LayerNorm with its fixed-lane row statistics
/// and its `dgamma`/`dbeta` column sums over ascending rows from `+0.0`, as
/// the bias gradient's.
mod serial {
    use super::{combine_lanes, fused, LANES};

    pub fn scale(x: &[f32], alpha: f32, out: &mut [f32]) {
        for (o, &v) in out.iter_mut().zip(x) {
            *o = v * alpha;
        }
    }

    pub fn add_scalar(x: &[f32], alpha: f32, out: &mut [f32]) {
        for (o, &v) in out.iter_mut().zip(x) {
            *o = v + alpha;
        }
    }

    pub fn relu(x: &[f32], out: &mut [f32]) {
        for (o, &v) in out.iter_mut().zip(x) {
            *o = v.max(0.0);
        }
    }

    pub fn mul(a: &[f32], b: &[f32], out: &mut [f32]) {
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = x * y;
        }
    }

    pub fn axpy(out: &mut [f32], alpha: f32, x: &[f32]) {
        for (o, &v) in out.iter_mut().zip(x) {
            *o += alpha * v;
        }
    }

    pub fn softmax(x: &[f32], n: usize, out: &mut [f32]) {
        for (row, o) in x.chunks_exact(n).zip(out.chunks_exact_mut(n)) {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for (o, &v) in o.iter_mut().zip(row) {
                *o = fused::exp(v - max);
                sum += *o;
            }
            let inv = 1.0 / sum;
            for o in o.iter_mut() {
                *o *= inv;
            }
        }
    }

    pub fn softmax_bwd(y: &[f32], g: &[f32], n: usize, out: &mut [f32]) {
        for ((yr, gr), o) in y.chunks_exact(n).zip(g.chunks_exact(n)).zip(out.chunks_exact_mut(n)) {
            let dot: f32 = yr.iter().zip(gr).map(|(a, b)| a * b).sum();
            for ((o, &yv), &gv) in o.iter_mut().zip(yr).zip(gr) {
                *o = yv * (gv - dot);
            }
        }
    }

    /// Fixed-lane sum: element `j` into lane `j % LANES`, then the tree.
    fn lanes(row: impl Iterator<Item = f32>) -> f32 {
        let mut l = [0.0f32; LANES];
        for (j, v) in row.enumerate() {
            l[j % LANES] += v;
        }
        combine_lanes(l)
    }

    /// `out` holds the normalised rows, then the `(mean, rstd)` pairs.
    pub fn layer_norm_fwd(x: &[f32], n: usize, gamma: &[f32], beta: &[f32], eps: f32, out: &mut [f32]) {
        let (y, cache) = out.split_at_mut(x.len());
        for ((row, yr), c) in x.chunks_exact(n).zip(y.chunks_exact_mut(n)).zip(cache.chunks_exact_mut(2)) {
            let mean = lanes(row.iter().copied()) / n as f32;
            let var = lanes(row.iter().map(|&v| (v - mean) * (v - mean))) / n as f32;
            let rstd = 1.0 / (var + eps).sqrt();
            c.copy_from_slice(&[mean, rstd]);
            for (j, (o, &v)) in yr.iter_mut().zip(row).enumerate() {
                *o = (v - mean) * rstd * gamma[j] + beta[j];
            }
        }
    }

    /// `out` holds `dx`, then `dgamma`, then `dbeta`.
    pub fn layer_norm_bwd(x: &[f32], n: usize, gamma: &[f32], cache: &[f32], g: &[f32], out: &mut [f32]) {
        let (dx, rest) = out.split_at_mut(x.len());
        let (dgamma, dbeta) = rest.split_at_mut(n);
        let inv_n = 1.0 / n as f32;
        let rows = x.chunks_exact(n).zip(g.chunks_exact(n)).zip(cache.chunks_exact(2));
        for (((xr, gr), c), o) in rows.zip(dx.chunks_exact_mut(n)) {
            let (mu, rstd) = (c[0], c[1]);
            let sum_dy = lanes(gr.iter().zip(gamma).map(|(&gv, &w)| gv * w));
            let xhat = |j: usize| (xr[j] - mu) * rstd;
            let sum_dy_xhat = lanes((0..n).map(|j| gr[j] * gamma[j] * xhat(j)));
            for (j, o) in o.iter_mut().enumerate() {
                let dy = gr[j] * gamma[j];
                *o = rstd * (dy - sum_dy * inv_n - xhat(j) * sum_dy_xhat * inv_n);
            }
        }
        dgamma.fill(0.0);
        dbeta.fill(0.0);
        for ((xr, gr), c) in x.chunks_exact(n).zip(g.chunks_exact(n)).zip(cache.chunks_exact(2)) {
            for j in 0..n {
                dgamma[j] += gr[j] * ((xr[j] - c[0]) * c[1]);
                dbeta[j] += gr[j];
            }
        }
    }

    pub fn bias_grad(g: &[f32], n: usize, out: &mut [f32]) {
        out.fill(0.0);
        for row in g.chunks_exact(n) {
            for (o, &v) in out.iter_mut().zip(row) {
                *o += v;
            }
        }
    }

    pub fn add_row_bcast(x: &[f32], row: &[f32], out: &mut [f32]) {
        let n = row.len();
        for (o, xr) in out.chunks_exact_mut(n).zip(x.chunks_exact(n)) {
            for ((o, &v), &b) in o.iter_mut().zip(xr).zip(row) {
                *o = v + b;
            }
        }
    }

    /// `[a, b, c]` to `[b, a, c]`, element by element.
    pub fn swap01(x: &[f32], (a, b, c): (usize, usize, usize), out: &mut [f32]) {
        for i in 0..a {
            for j in 0..b {
                for t in 0..c {
                    out[(j * a + i) * c + t] = x[(i * b + j) * c + t];
                }
            }
        }
    }
}

/// Every non-GEMM opcode of the FOCUS train plan at its plan shape, and
/// whether it is elementwise (held to [`ELEMENTWISE_BOUND`]).
fn kernel_sweeps() -> Vec<(Sweep, bool)> {
    let mut rng = StdRng::seed_from_u64(0x4e6e);
    let mut v = |n: usize| Tensor::randn(&[n], 1.0, &mut rng).into_vec();
    let nan = |n: usize| vec![f32::NAN; n];
    let alpha = 0.176_776_7; // 1/√32, the attention score scale
    let scale = |label, x: Vec<f32>| {
        let n = x.len();
        kernel_sweep(label, nan(n), |o| serial::scale(&x, alpha, o), |o| exec::map_scale(&x, alpha, o))
    };
    let softmax = |label, n: usize, x: Vec<f32>| {
        let len = x.len();
        kernel_sweep(label, nan(len), |o| serial::softmax(&x, n, o), |o| exec::softmax_last(&x, n, o))
    };
    let bias_grad = |label, (rows, n): (usize, usize), g: Vec<f32>| {
        kernel_sweep(label, nan(n), |o| serial::bias_grad(&g, n, o), |o| exec::bias_grad(&g, rows, n, o))
    };
    let add_row = |label, x: Vec<f32>, row: Vec<f32>| {
        kernel_sweep(
            label,
            nan(x.len()),
            |o| serial::add_row_bcast(&x, &row, o),
            |o| exec::add_row_broadcast(&x, &row, row.len(), o),
        )
    };
    let (x2k, x6k, y6k, x12k, y12k) = (v(2304), v(6144), v(6144), v(12288), v(12288));
    // LayerNorm at [384, 32]: the forward's (mean, rstd) cache feeds the
    // backward.
    let (rows, n, eps) = (384usize, 32usize, 1e-5f32);
    let (ln_x, gamma, beta, ln_g) = (v(rows * n), v(n), v(n), v(rows * n));
    let mut fwd = vec![0.0f32; rows * n + 2 * rows];
    serial::layer_norm_fwd(&ln_x, n, &gamma, &beta, eps, &mut fwd);
    let cache = fwd.split_off(rows * n);
    let (sm_y, sm_g) = (v(256 * 12), v(256 * 12));
    let (swap_x, swap_x8) = (v(32 * 12 * 32), v(32 * 12 * 8));
    let swap01 = |label, (a, b, c): (usize, usize, usize), x: &[f32]| {
        let sweep = kernel_sweep(
            label,
            nan(x.len()),
            |o| serial::swap01(x, (a, b, c), o),
            |o| exec::swap01(x, a, b, c, o),
        );
        (sweep, false)
    };
    vec![
        // The fusion's score scale. ProtoAttn scales only its 64-float `M`,
        // where a call's fixed cost outweighs the loop (4× a serial loop).
        (scale("map_scale_2304", x2k.clone()), true),
        (scale("map_scale_6144", x6k.clone()), true),
        (
            kernel_sweep(
                "map_add_scalar_6144",
                nan(6144),
                |o| serial::add_scalar(&x6k, alpha, o),
                |o| exec::map_add_scalar(&x6k, alpha, o),
            ),
            true,
        ),
        (
            kernel_sweep("map_relu_6144", nan(6144), |o| serial::relu(&x6k, o), |o| exec::map_relu(&x6k, o)),
            true,
        ),
        (
            kernel_sweep("zip_mul_6144", nan(6144), |o| serial::mul(&x6k, &y6k, o), |o| exec::zip_mul(&x6k, &y6k, o)),
            true,
        ),
        (
            kernel_sweep(
                "axpy_12288",
                y12k.clone(),
                |o| serial::axpy(o, alpha, &x12k),
                |o| exec::axpy(o, alpha, &x12k),
            ),
            true,
        ),
        (add_row("add_row_bcast_384x32", v(384 * 32), v(32)), true),
        (add_row("add_row_bcast_32x384", v(32 * 384), v(384)), true),
        (softmax("softmax_256x12", 12, v(256 * 12)), false),
        (softmax("softmax_96x32", 32, v(96 * 32)), false),
        (
            kernel_sweep(
                "softmax_bwd_256x12",
                nan(256 * 12),
                |o| serial::softmax_bwd(&sm_y, &sm_g, 12, o),
                |o| exec::softmax_last_bwd(&sm_y, &sm_g, 12, o),
            ),
            false,
        ),
        (
            kernel_sweep(
                "layer_norm_fwd_384x32",
                nan(rows * n + 2 * rows),
                |o| serial::layer_norm_fwd(&ln_x, n, &gamma, &beta, eps, o),
                |o| {
                    let (y, c) = o.split_at_mut(rows * n);
                    exec::layer_norm_fwd(&ln_x, n, &gamma, &beta, eps, y, c);
                },
            ),
            false,
        ),
        (
            kernel_sweep(
                "layer_norm_bwd_384x32",
                nan(rows * n + 2 * n),
                |o| serial::layer_norm_bwd(&ln_x, n, &gamma, &cache, &ln_g, o),
                |o| {
                    let (dx, rest) = o.split_at_mut(rows * n);
                    let (dgamma, dbeta) = rest.split_at_mut(n);
                    exec::layer_norm_bwd(&ln_x, n, &gamma, &cache, &ln_g, dx, dgamma, dbeta);
                },
            ),
            false,
        ),
        (bias_grad("bias_grad_384x32", (384, 32), v(384 * 32)), false),
        (bias_grad("bias_grad_32x384", (32, 384), v(32 * 384)), false),
        // Both loop orders: [12, 32, 32] reads in order, since writing in
        // order would read rows 4 KiB apart.
        swap01("swap01_32x12x32", (32, 12, 32), &swap_x),
        swap01("swap01_12x32x32", (12, 32, 32), &swap_x),
        swap01("swap01_32x12x8", (32, 12, 8), &swap_x8),
    ]
}

/// The scalar per-pair assignment sweep against the fused sweep kernel on
/// `n` segments of length `p` at `k` prototypes.
fn assign_sweep(label: &'static str, (n, p, k): (usize, usize, usize), objective: Objective) -> Sweep {
    let mut rng = StdRng::seed_from_u64(0xa551);
    let segs = Tensor::randn(&[n, p], 1.0, &mut rng);
    let protos = ClusterConfig::new(k, p)
        .with_objective(objective)
        .with_update(ProtoUpdate::ClosedFormMean)
        .with_max_iters(3)
        .fit(&segs, 1);
    Sweep::run(
        label,
        SAMPLES,
        || protos.assign_all_scalar(&segs),
        || protos.assign_all(&segs),
        |a, b| a == b,
    )
}

/// Dense one-hot bmm against the sparse gather (forward) and scatter-add
/// (backward) routing kernels at ProtoAttn-scale shapes.
fn routing_sweeps() -> [Sweep; 2] {
    let (b, l, k, d) = (64usize, 128usize, 64usize, 64usize);
    let mut rng = StdRng::seed_from_u64(0x307e);
    let head = Tensor::randn(&[b, k, d], 1.0, &mut rng);
    let dout = Tensor::randn(&[b, l, d], 1.0, &mut rng);
    let indices: Vec<u32> = (0..b * l).map(|_| rng.gen_range(0..k) as u32).collect();
    let one_hot = route::one_hot_matrix(&indices, b, l, k);
    [
        Sweep::run(
            "route_gather_b64_l128_k64_d64",
            SAMPLES,
            || one_hot.bmm(&head),
            || route::route_gather(&head, &indices, l),
            same_bits,
        ),
        Sweep::run(
            "route_scatter_add_b64_l128_k64_d64",
            SAMPLES,
            || one_hot.bmm_tn(&dout),
            || route::route_scatter_add(&dout, &indices, k),
            same_bits,
        ),
    ]
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("kernel sweeps (host cores: {cores}; {SAMPLES} timed calls per series)");
    let mut sweeps = Vec::from(gemm_sweeps());
    let wide = (20_000, 32, 64);
    sweeps.push(assign_sweep("assign_all_rec_only_20000x32_k64", wide, Objective::RecOnly));
    sweeps.push(assign_sweep("assign_all_rec_corr_20000x32_k64", wide, Objective::rec_corr(0.2)));
    sweeps.push(assign_sweep("assign_all_rec_corr_4800x8_k8", (4800, 8, 8), Objective::rec_corr(0.2)));
    sweeps.extend(routing_sweeps());
    sweeps.extend(opcode_sweeps());
    let kernels = kernel_sweeps();
    let elementwise: Vec<&'static str> = kernels.iter().filter(|k| k.1).map(|k| k.0.label).collect();
    sweeps.extend(kernels.into_iter().map(|k| k.0));

    let mut report = RunReport::new("kernels");
    report
        .setting("samples", SAMPLES)
        .setting("gemm", "256x256x256")
        .setting(
            "opcodes",
            format!("plan-opcode shapes (dims as in each label), {REPS} calls per timed sample"),
        )
        .setting(
            "assign",
            "20000x32 segments, k=64, rec-only and rec+corr(0.2); 4800x8 segments, k=8, rec+corr(0.2)",
        )
        .setting("routing", "b=64, l=128, k=64, d=64")
        .setting(
            "kernels",
            format!("non-GEMM plan opcodes at their plan shapes, {KERNEL_REPS} calls per timed sample"),
        );
    for s in &sweeps {
        s.record(&mut report);
    }
    // Record the worker pool's dispatch stats (par/*) for the whole run.
    focus_trace::set_enabled(true);
    par::publish_trace_stats();
    focus_trace::set_enabled(false);
    report.capture_trace();
    write_report(&report, concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json"));

    for s in &sweeps {
        assert!(s.matches, "{}: the fast path's output differs from the naive path's", s.label);
        if elementwise.contains(&s.label) {
            let slowdown = 1.0 / s.speedup_t1();
            assert!(
                slowdown <= ELEMENTWISE_BOUND,
                "{}: the kernel takes {slowdown:.1}x its serial loop's time (bound {ELEMENTWISE_BOUND}x)",
                s.label
            );
        }
    }
}
