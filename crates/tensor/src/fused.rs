//! Fused single-pass forward/backward kernels for the hot non-GEMM ops:
//! the in-repo [`exp`] and [`sigmoid`], block softmax (fwd + bwd),
//! LayerNorm over the trailing axis (fwd + bwd), the tanh-approximation GELU
//! scalars, and the AdamW parameter step.
//!
//! Every kernel here obeys the two backend invariants:
//!
//! * **Pooled, no temporaries** — outputs come from the buffer
//!   [`pool`](crate::pool) via `Tensor::uninit`-style construction and the
//!   kernels write each element exactly once (no intermediate tensors), so a
//!   steady-state train step allocates nothing.
//! * **Bitwise-deterministic parallelism** — work splits into disjoint
//!   contiguous row/element ranges on [`par`], and every output element is
//!   produced by the same floating-point op sequence as the serial
//!   reference, so results are identical at any thread count. Cross-row
//!   reductions (`dgamma`/`dbeta`) parallelise over *columns*: each output
//!   column keeps its serial row-ascending accumulation chain.
//!
//! Transcendentals and row reductions are defined here, not borrowed from
//! libm or left to the compiler: [`exp`] is built from IEEE `+`, `×`,
//! `clamp` and exponent-bit construction only, and LayerNorm's row
//! statistics use the fixed [`LANES`]-lane order of [`combine_lanes`]. Both
//! are plain scalar code that LLVM vectorises under optimisation without
//! changing a bit, so results are the same on every host and in every build.
//!
//! The plan VM and the autograd tape run their softmax, LayerNorm,
//! activation and AdamW steps through these entry points. The serial
//! reference loops they must reproduce bit for bit live in
//! `focus_autograd::oracle`, which the parity tests compare against.

use crate::exec::{ELEM_GRAIN, EXP_GRAIN};
use crate::{par, Tensor};

/// `e^x` in f32: Cody–Waite range reduction and a degree-7 polynomial, with
/// no libm call and no FMA. The one exponential of every FOCUS-path kernel
/// (softmax, sigmoid, soft routing).
///
/// `x = n·ln2 + r` with `n = round(x·log₂e)` (the `1.5·2²³` magic add, which
/// stays vectorisable where an `as i32` cast would not) and
/// `|r| ≤ ln2/2`; `ln2` is split into a 9-bit head, whose product with `n`
/// is exact, and a tail. `e^r ≈ 1 + r + r²·P(r)` with the Cephes `expf`
/// coefficients. `2ⁿ` is applied as two exponent-bit factors so results
/// stay finite up to `ln(f32::MAX) ≈ 88.72` and underflow gradually.
///
/// Special values: NaN → NaN (`clamp` propagates it), `x ≥ 88.73` and `+∞` →
/// `+∞`, `x ≤ −104` and `−∞` → `+0`. Every normal result is within 1 ULP of
/// `(x as f64).exp() as f32`: checked once over every f32 in `[−104, 89]`,
/// and by a dense sweep in this module's tests.
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    const LN2_HI: f32 = 355.0 / 512.0; // 9 significant bits: n·LN2_HI is exact
    const LN2_LO: f32 = -2.121_944_4e-4;
    const MAGIC: f32 = 12_582_912.0; // 1.5·2²³: adding it rounds to an integer
    const P0: f32 = 1.987_569_1e-4;
    const P1: f32 = 1.398_199_9e-3;
    const P2: f32 = 8.333_452e-3;
    const P3: f32 = 4.166_579_6e-2;
    const P4: f32 = 1.666_666_5e-1;
    const P5: f32 = 0.5;
    let x = x.clamp(-104.0, 89.0);
    let t = x * LOG2E + MAGIC;
    let n = (t.to_bits() as i32).wrapping_sub(MAGIC.to_bits() as i32);
    let nf = t - MAGIC;
    let r = (x - nf * LN2_HI) - nf * LN2_LO;
    let p = (((((P0 * r + P1) * r + P2) * r + P3) * r + P4) * r + P5) * (r * r) + r + 1.0;
    let h = n >> 1;
    p * pow2(h) * pow2(n.wrapping_sub(h))
}

/// `2^k` for `k ∈ [−126, 127]`, built from exponent bits.
#[inline(always)]
fn pow2(k: i32) -> f32 {
    f32::from_bits((k.wrapping_add(127) as u32) << 23)
}

/// Logistic sigmoid `1 / (1 + e^−x)` on [`exp`]: the one definition behind
/// the autograd `sigmoid` op and the plan VM's `map_sigmoid`.
#[inline(always)]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

/// Elements per softmax tile: the three passes of [`softmax_rows`] re-read
/// a tile, so it is sized to stay in L1 (8 KiB of f32).
const SOFTMAX_TILE: usize = 2048;

/// In-place numerically-stable softmax of every length-`n` row of `block`:
/// the single source of truth for row softmax (`Tensor::softmax_last`, the
/// plan VM and the soft-assignment routing all call it).
///
/// Three passes per tile of rows: subtract each row's maximum, one flat
/// [`exp`] pass over the whole tile (rows are too short for a per-row loop
/// to vectorise), then scale each row by the inverse of its ascending sum.
/// Elementwise `exp` makes the result bitwise-independent of the tiling and
/// of how the caller splits rows across threads.
pub fn softmax_rows(block: &mut [f32], n: usize) {
    assert!(n > 0, "softmax over an empty trailing axis");
    assert_eq!(block.len() % n, 0, "softmax_rows: block is not a whole number of rows");
    for tile in block.chunks_mut(SOFTMAX_TILE.div_ceil(n) * n) {
        for row in tile.chunks_exact_mut(n) {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            for v in row.iter_mut() {
                *v -= max;
            }
        }
        for v in tile.iter_mut() {
            *v = exp(*v);
        }
        for row in tile.chunks_exact_mut(n) {
            let inv = 1.0 / row.iter().fold(0.0f32, |s, &v| s + v);
            for v in row.iter_mut() {
                *v *= inv;
            }
        }
    }
}

/// Softmax backward in one row sweep over length-`n` rows:
/// `dx = y ⊙ (g − ⟨y, g⟩_row)`, with `y` the forward output. `dx` holds
/// `rows · n` elements and is fully overwritten. Rows are independent, so
/// the parallel split is bitwise-identical to serial.
pub(crate) fn softmax_last_bwd_into(y: &[f32], g: &[f32], n: usize, dx: &mut [f32]) {
    let grain_rows = EXP_GRAIN.div_ceil(n).max(1);
    par::parallel_rows(dx, n, grain_rows, 1, |row0, block| {
        for (r, out) in block.chunks_mut(n).enumerate() {
            let at = (row0 + r) * n;
            let yr = &y[at..at + n];
            let gr = &g[at..at + n];
            let dot: f32 = yr.iter().zip(gr).map(|(a, b)| a * b).sum();
            for (o, (yv, gv)) in out.iter_mut().zip(yr.iter().zip(gr)) {
                *o = yv * (gv - dot);
            }
        }
    });
}

/// Lane count of the fixed-lane row reductions (LayerNorm statistics).
pub const LANES: usize = 8;

/// Combines lane partials by the fixed pairwise tree
/// `((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7))`.
///
/// A fixed-lane row sum puts element `j` into lane `j % LANES`, each lane
/// accumulating in ascending `j` from `0.0`, then combines the lanes here.
/// The order depends only on the row length — never on the host, the build
/// or the thread count — and the reference LayerNorm uses the same one.
#[inline(always)]
pub fn combine_lanes(l: [f32; LANES]) -> f32 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// Fixed-lane sum of `f(v)` over a row (see [`combine_lanes`]).
#[inline(always)]
fn lane_sum(x: &[f32], f: impl Fn(f32) -> f32) -> f32 {
    let mut l = [0.0f32; LANES];
    let mut chunks = x.chunks_exact(LANES);
    for c in &mut chunks {
        for (a, &v) in l.iter_mut().zip(c) {
            *a += f(v);
        }
    }
    for (a, &v) in l.iter_mut().zip(chunks.remainder()) {
        *a += f(v);
    }
    combine_lanes(l)
}

/// LayerNorm backward row statistics `(Σ dy, Σ dy·x̂)` with
/// `dy = g ⊙ γ`, `x̂ = (x − μ)·rstd`, both as fixed-lane sums.
#[inline(always)]
fn ln_bwd_sums(x: &[f32], g: &[f32], gamma: &[f32], mu: f32, rstd: f32) -> (f32, f32) {
    let (mut sd, mut sx) = ([0.0f32; LANES], [0.0f32; LANES]);
    let mut lanes = |xc: &[f32], gc: &[f32], wc: &[f32]| {
        for (((a, b), (&xv, &gv)), &w) in
            sd.iter_mut().zip(sx.iter_mut()).zip(xc.iter().zip(gc)).zip(wc)
        {
            let dy = gv * w;
            *a += dy;
            *b += dy * ((xv - mu) * rstd);
        }
    };
    let (mut xc, mut gc, mut wc) =
        (x.chunks_exact(LANES), g.chunks_exact(LANES), gamma.chunks_exact(LANES));
    for ((xa, ga), wa) in (&mut xc).zip(&mut gc).zip(&mut wc) {
        lanes(xa, ga, wa);
    }
    lanes(xc.remainder(), gc.remainder(), wc.remainder());
    (combine_lanes(sd), combine_lanes(sx))
}

/// Fused LayerNorm forward over the trailing axis.
///
/// Returns `(y, cache)` where `cache` is a `[rows, 2]` tensor of
/// interleaved `(mean, rstd)` per row, consumed by `layer_norm_bwd_into`.
/// One pass per row: statistics then the affine normalisation, writing the
/// output directly (no cloned input, no copied `gamma`/`beta`).
pub fn layer_norm_fwd(x: &Tensor, gamma: &[f32], beta: &[f32], eps: f32) -> (Tensor, Tensor) {
    let n = x.shape().last_dim();
    assert_eq!(gamma.len(), n, "layer_norm gamma length");
    assert_eq!(beta.len(), n, "layer_norm beta length");
    let rows = x.shape().leading();
    let mut out = Tensor::uninit(x.dims());
    let mut cache = Tensor::uninit(&[rows, 2]);
    layer_norm_fwd_into(x.data(), n, gamma, beta, eps, out.data_mut(), cache.data_mut());
    (out, cache)
}

/// Slice core of [`layer_norm_fwd`]: `out` holds `rows · n` elements,
/// `cache` holds `rows · 2` interleaved `(mean, rstd)` pairs; both are fully
/// overwritten. Shared with the compiled-plan VM.
///
/// Mean and variance are fixed-lane sums ([`combine_lanes`]), so a row's
/// statistics cost a few vector adds instead of a serial FP-add chain.
pub(crate) fn layer_norm_fwd_into(
    x: &[f32],
    n: usize,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    out: &mut [f32],
    cache: &mut [f32],
) {
    let grain_rows = EXP_GRAIN.div_ceil(n).max(1);
    par::parallel_rows2(out, n, cache, 2, grain_rows, |row0, block, cblock| {
        let rows = x[row0 * n..].chunks_exact(n);
        for ((orow, c), xr) in block.chunks_exact_mut(n).zip(cblock.chunks_exact_mut(2)).zip(rows) {
            let mean = lane_sum(xr, |v| v) / n as f32;
            let var = lane_sum(xr, |v| (v - mean) * (v - mean)) / n as f32;
            let rstd = 1.0 / (var + eps).sqrt();
            c[0] = mean;
            c[1] = rstd;
            for (((o, &v), &w), &b) in orow.iter_mut().zip(xr).zip(gamma).zip(beta) {
                *o = (v - mean) * rstd * w + b;
            }
        }
    });
}

/// Fused LayerNorm backward over length-`n` rows: `dx` holds `rows · n`
/// elements, `dgamma`/`dbeta` hold `n` each; all three are fully
/// overwritten. `dx` rows are independent and parallelise bitwise-safely;
/// `dgamma`/`dbeta` are cross-row sums, parallelised over *columns* so each
/// output element keeps the exact serial row-ascending accumulation chain
/// (thread-count invariant).
#[allow(clippy::too_many_arguments)]
pub(crate) fn layer_norm_bwd_into(
    x: &[f32],
    n: usize,
    gamma: &[f32],
    cd: &[f32],
    g: &[f32],
    dx: &mut [f32],
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) {
    let rows = dx.len() / n;
    let grain_rows = EXP_GRAIN.div_ceil(n).max(1);
    par::parallel_rows(dx, n, grain_rows, 1, |row0, block| {
        let inv_n = 1.0 / n as f32;
        for (r, out) in block.chunks_exact_mut(n).enumerate() {
            let at = (row0 + r) * n;
            let (xr, gr) = (&x[at..at + n], &g[at..at + n]);
            let (mu, rstd) = (cd[2 * (row0 + r)], cd[2 * (row0 + r) + 1]);
            let (sum_dy, sum_dy_xhat) = ln_bwd_sums(xr, gr, gamma, mu, rstd);
            for (((o, &xv), &gv), &w) in out.iter_mut().zip(xr).zip(gr).zip(gamma) {
                let xhat = (xv - mu) * rstd;
                let dy = gv * w;
                *o = rstd * (dy - sum_dy * inv_n - xhat * sum_dy_xhat * inv_n);
            }
        }
    });

    let col_grain = ELEM_GRAIN.div_ceil(rows.max(1)).max(1);
    par::parallel_rows2(dgamma, 1, dbeta, 1, col_grain, |col0, gchunk, bchunk| {
        // Row-major sweep with the output chunks as accumulators: each
        // column still sums rows in ascending order (bitwise-equal to the
        // serial reference), but reads walk `g`/`x` contiguously instead
        // of striding a full row per element.
        gchunk.fill(0.0);
        bchunk.fill(0.0);
        let w = gchunk.len();
        for r in 0..rows {
            let base = r * n + col0;
            let (mu, rstd) = (cd[2 * r], cd[2 * r + 1]);
            let gr = &g[base..base + w];
            let xr = &x[base..base + w];
            for ((dg, db), (&gv, &xv)) in
                gchunk.iter_mut().zip(bchunk.iter_mut()).zip(gr.iter().zip(xr))
            {
                let xhat = (xv - mu) * rstd;
                *dg += gv * xhat;
                *db += gv;
            }
        }
    });
}

/// GELU forward, tanh approximation (shared scalar).
#[inline]
pub fn gelu_fwd(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh())
}

/// Derivative of [`gelu_fwd`] (shared scalar).
#[inline]
pub fn gelu_bwd(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let x3 = x * x * x;
    let u = C * (x + 0.044715 * x3);
    let t = u.tanh();
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * C * (1.0 + 3.0 * 0.044715 * x * x)
}

/// Fused AdamW step over one parameter tensor: decoupled decay, moment
/// updates, bias correction and the write-back in a single loop per element
/// — no `dir` temporary. Setting `weight_decay = 0` yields plain Adam.
///
/// Per-element arithmetic matches the unfused reference sequence exactly
/// (decay, `m`-update, `v`-update, direction, axpy), so results are bitwise
/// identical to it and thread-count invariant.
#[allow(clippy::too_many_arguments)]
pub fn adamw_step(
    param: &mut [f32],
    grad: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
) {
    let bc1 = 1.0 - beta1.powi(t as i32);
    let bc2 = 1.0 - beta2.powi(t as i32);
    let shrink = 1.0 - lr * weight_decay;
    let decay = weight_decay > 0.0;
    par::parallel_zip4(param, grad, m, v, ELEM_GRAIN, |_, pc, gc, mc, vc| {
        for (((p, &g), m), v) in pc.iter_mut().zip(gc).zip(mc.iter_mut()).zip(vc.iter_mut()) {
            if decay {
                *p *= shrink;
            }
            *m = beta1 * *m + (1.0 - beta1) * g;
            *v = beta2 * *v + (1.0 - beta2) * g * g;
            let mhat = *m / bc1;
            let vhat = *v / bc2;
            *p += -lr * (mhat / (vhat.sqrt() + eps));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Distance in representable f32 steps between two finite values of the
    /// same sign.
    fn ulps(a: f32, b: f32) -> u32 {
        a.to_bits().abs_diff(b.to_bits())
    }

    fn check_exp_ulp(x: f32) {
        let want = (x as f64).exp() as f32;
        if want.is_normal() {
            let got = exp(x);
            assert!(ulps(got, want) <= 1, "exp({x:e}) = {got:e}, f64 reference {want:e}");
        }
    }

    #[test]
    fn exp_is_within_one_ulp_on_a_dense_sweep() {
        // Uniform steps over the whole normal-result range, plus a stride
        // through the bit patterns so tiny |x| is covered too.
        const N: u32 = 1 << 23;
        for i in 0..=N {
            check_exp_ulp((-104.0 + 193.0 * f64::from(i) / f64::from(N)) as f32);
        }
        for bits in (0..=89.0f32.to_bits()).step_by(1021) {
            check_exp_ulp(f32::from_bits(bits));
            check_exp_ulp(-f32::from_bits(bits));
        }
    }

    #[test]
    fn exp_special_values() {
        assert!(exp(f32::NAN).is_nan());
        assert!(exp(-f32::NAN).is_nan());
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        // Finite right up to ln(f32::MAX) ≈ 88.7228.
        assert!(exp(88.72).is_finite() && exp(88.72) > 3.39e38);
        for x in [88.73, 89.0, 1e30, f32::MAX, f32::INFINITY] {
            assert_eq!(exp(x), f32::INFINITY, "exp({x:e})");
        }
        for x in [-104.0, -104.5, -1e30, f32::MIN, f32::NEG_INFINITY] {
            assert_eq!(exp(x).to_bits(), 0, "exp({x:e}) must be +0");
        }
    }

    #[test]
    fn sigmoid_special_values() {
        assert_eq!(sigmoid(0.0), 0.5);
        assert_eq!(sigmoid(f32::INFINITY), 1.0);
        assert_eq!(sigmoid(f32::NEG_INFINITY).to_bits(), 0);
        assert!(sigmoid(f32::NAN).is_nan());
        assert!((sigmoid(2.0) - 0.880_797_1).abs() < 1e-7);
    }

    #[test]
    fn softmax_rows_matches_tensor_softmax() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let s = t.softmax_last();
        let mut rows = [1.0f32, 2.0, 3.0, -1.0, 0.0, 1.0];
        softmax_rows(&mut rows, 3);
        assert_eq!(&rows, s.data());
    }

    #[test]
    fn block_softmax_equals_row_by_row_bitwise() {
        // Odd widths and enough rows to cross several tiles, with large row
        // offsets so the max-subtract matters.
        let mut rng = StdRng::seed_from_u64(13);
        for n in [1usize, 3, 5, 7, 9, 11, 13, 17, 33] {
            let rows = 2 * SOFTMAX_TILE / n + 3;
            let x: Vec<f32> = (0..rows * n)
                .map(|i| rng.gen_range(-8.0f32..8.0) + (i / n) as f32 * 7.5 - 40.0)
                .collect();
            let mut block = x.clone();
            softmax_rows(&mut block, n);
            let mut by_row = x;
            for row in by_row.chunks_exact_mut(n) {
                softmax_rows(row, n);
            }
            let (a, b): (Vec<u32>, Vec<u32>) =
                block.iter().zip(&by_row).map(|(a, b)| (a.to_bits(), b.to_bits())).unzip();
            assert_eq!(a, b, "block softmax diverged from row-by-row at n = {n}");
            for row in block.chunks_exact(n) {
                assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn lane_sums_follow_the_fixed_lane_order() {
        let mut rng = StdRng::seed_from_u64(5);
        for n in 0..=37usize {
            let x: Vec<f32> = (0..n).map(|_| rng.gen_range(-1e3f32..1e3)).collect();
            let mut l = [0.0f32; LANES];
            for (j, v) in x.iter().enumerate() {
                l[j % LANES] += v;
            }
            assert_eq!(lane_sum(&x, |v| v).to_bits(), combine_lanes(l).to_bits(), "n = {n}");
        }
    }

    #[test]
    fn softmax_bwd_zero_gradient_for_uniform_g() {
        // ⟨y, 1⟩ = 1 ⇒ dx = y ⊙ (1 − 1) = 0.
        let y = Tensor::from_vec(vec![0.2, 0.3, 0.5], &[1, 3]).softmax_last();
        let g = Tensor::ones(&[1, 3]);
        let mut dx = [1.0f32; 3];
        softmax_last_bwd_into(y.data(), g.data(), 3, &mut dx);
        assert!(dx.iter().all(|v| v.abs() < 1e-7));
    }

    #[test]
    fn layer_norm_fwd_normalises_rows() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0], &[2, 4]);
        let (y, cache) = layer_norm_fwd(&x, &[1.0; 4], &[0.0; 4], 1e-5);
        assert_eq!(cache.dims(), &[2, 2]);
        for i in 0..2 {
            let row = y.row(i);
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn adamw_step_matches_unfused_sequence() {
        let lr = 0.01;
        let (b1, b2, eps, wd) = (0.9f32, 0.999f32, 1e-8f32, 0.1f32);
        let grad = vec![0.5f32, -1.5, 2.0, 0.0];
        let mut p1 = vec![1.0f32, -2.0, 3.0, 0.5];
        let mut m1 = vec![0.0f32; 4];
        let mut v1 = vec![0.0f32; 4];
        // Unfused reference: separate decay / m / v / dir / axpy loops.
        let mut p2 = p1.clone();
        let mut m2 = m1.clone();
        let mut v2 = v1.clone();
        for t in 1..=3u64 {
            adamw_step(&mut p1, &grad, &mut m1, &mut v1, lr, b1, b2, eps, wd, t);
            let shrink = 1.0 - lr * wd;
            for p in p2.iter_mut() {
                *p *= shrink;
            }
            for (m, &g) in m2.iter_mut().zip(&grad) {
                *m = b1 * *m + (1.0 - b1) * g;
            }
            for (v, &g) in v2.iter_mut().zip(&grad) {
                *v = b2 * *v + (1.0 - b2) * g * g;
            }
            let bc1 = 1.0 - b1.powi(t as i32);
            let bc2 = 1.0 - b2.powi(t as i32);
            let dir: Vec<f32> = m2
                .iter()
                .zip(&v2)
                .map(|(&m, &v)| (m / bc1) / ((v / bc2).sqrt() + eps))
                .collect();
            for (p, &d) in p2.iter_mut().zip(&dir) {
                *p += -lr * d;
            }
            assert_eq!(p1, p2, "fused AdamW diverged from reference at t={t}");
            assert_eq!(m1, m2);
            assert_eq!(v1, v2);
        }
    }
}
