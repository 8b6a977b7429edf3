//! Slice kernels: the one place where an op's loop, grain and thread split
//! are written.
//!
//! Every function here writes into a caller-provided `&mut [f32]` and
//! performs **zero pool traffic**. The [`Tensor`](crate::Tensor) ops with a
//! kernel here check shapes, take their output from the pool and call it;
//! the plan VM in `focus-autograd` calls the same kernels on its slot
//! buffers. So a `Tensor` op and the plan instruction for it give the same
//! bits at any thread count by construction. Each kernel overwrites `dst`:
//! the GEMM family writes its output through from registers, and the
//! accumulating kernels (`scatter_cols`, `route_scatter_add`) zero it first.
//!
//! Each entry point adds its FLOPs to this thread's count once per call,
//! before it splits its loop over workers (see [`crate::work`] for the
//! per-kernel table).
//!
//! Two rules keep the loops at vector speed:
//!
//! * **A kernel closure takes its scalars by value** (`move`). A closure
//!   that captures `alpha` by reference hands the optimiser a pointer to
//!   read it through, which can keep the loop from vectorising where it is
//!   inlined: `map_scale` and `map_add_scalar` ran ~11× slower than
//!   `map_relu` that way in the kernels bench, and run at its speed with
//!   `move`.
//! * **Cross-row sums accumulate in registers.** A column sum kept in its
//!   output slice is stored and reloaded once per row; `bias_grad` (and
//!   LayerNorm's `dgamma`/`dbeta`) hold 16-column strips of sums in locals
//!   instead, several strips side by side, and write each sum once. Every
//!   column is still its own chain over ascending rows from `+0.0`, so the
//!   bits are those of the serial loop.

use crate::matmul::{self, Kind};
use crate::{fused, par, work};

/// Minimum elements per thread for cheap elementwise ops (add/mul/map):
/// below ~2 grains the spawn overhead exceeds the arithmetic.
pub(crate) const ELEM_GRAIN: usize = 16 * 1024;
/// Minimum elements per thread for transcendental row ops (softmax's `exp`
/// is ~10× the cost of an add, so it pays off earlier).
pub(crate) const EXP_GRAIN: usize = 2 * 1024;
/// Minimum copied/accumulated elements per thread before the routing kernels
/// go parallel.
const ROUTE_GRAIN: usize = 64 * 1024;

/// Transpose mode of a GEMM, the public face of the dispatcher's kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trans {
    /// `a[m×k] · b[k×n]`.
    Nn,
    /// `a[m×k] · (b[n×k])ᵀ`.
    Nt,
    /// `(a[k×m])ᵀ · b[k×n]`.
    Tn,
}

impl Trans {
    fn kind(self) -> Kind {
        match self {
            Trans::Nn => Kind::Nn,
            Trans::Nt => Kind::Nt,
            Trans::Tn => Kind::Tn,
        }
    }
}

/// Elementwise binary op into `dst`, counting `flops` per element.
pub(crate) fn zip(
    a: &[f32],
    b: &[f32],
    dst: &mut [f32],
    flops: usize,
    op: impl Fn(f32, f32) -> f32 + Sync,
) {
    debug_assert!(a.len() == dst.len() && b.len() == dst.len());
    work::add_flops(flops * dst.len());
    par::parallel_fill(dst, ELEM_GRAIN, move |range, chunk| {
        let av = &a[range.clone()];
        let bv = &b[range];
        for ((o, &x), &y) in chunk.iter_mut().zip(av).zip(bv) {
            *o = op(x, y);
        }
    });
}

/// Elementwise map into `dst`, counting `flops` per element.
pub(crate) fn map(src: &[f32], dst: &mut [f32], flops: usize, f: impl Fn(f32) -> f32 + Sync) {
    debug_assert_eq!(src.len(), dst.len());
    work::add_flops(flops * dst.len());
    par::parallel_fill(dst, ELEM_GRAIN, move |range, chunk| {
        for (o, &v) in chunk.iter_mut().zip(&src[range]) {
            *o = f(v);
        }
    });
}

/// `dst = a + b`.
pub fn zip_add(a: &[f32], b: &[f32], dst: &mut [f32]) {
    zip(a, b, dst, 1, |x, y| x + y);
}

/// `dst = a - b`.
pub fn zip_sub(a: &[f32], b: &[f32], dst: &mut [f32]) {
    zip(a, b, dst, 1, |x, y| x - y);
}

/// `dst = a ⊙ b`.
pub fn zip_mul(a: &[f32], b: &[f32], dst: &mut [f32]) {
    zip(a, b, dst, 1, |x, y| x * y);
}

/// ReLU backward: `dst = g where x > 0 else 0`.
pub fn zip_relu_bwd(x: &[f32], g: &[f32], dst: &mut [f32]) {
    zip(x, g, dst, 1, |v, gv| if v > 0.0 { gv } else { 0.0 });
}

/// GELU backward over the forward *input*.
pub fn zip_gelu_bwd(x: &[f32], g: &[f32], dst: &mut [f32]) {
    zip(x, g, dst, 5, |v, gv| gv * fused::gelu_bwd(v));
}

/// |x| backward over the forward *input*.
pub fn zip_abs_bwd(x: &[f32], g: &[f32], dst: &mut [f32]) {
    zip(x, g, dst, 1, |v, gv| {
        if v > 0.0 {
            gv
        } else if v < 0.0 {
            -gv
        } else {
            0.0
        }
    });
}

/// Sigmoid backward over the forward *output* `y`: `dst = g · y · (1 − y)`.
pub fn zip_sigmoid_bwd(y: &[f32], g: &[f32], dst: &mut [f32]) {
    zip(y, g, dst, 3, |v, gv| gv * v * (1.0 - v));
}

/// Tanh backward over the forward *output* `y`: `dst = g · (1 − y²)`.
pub fn zip_tanh_bwd(y: &[f32], g: &[f32], dst: &mut [f32]) {
    zip(y, g, dst, 3, |v, gv| gv * (1.0 - v * v));
}

/// `dst = src · alpha`.
pub fn map_scale(src: &[f32], alpha: f32, dst: &mut [f32]) {
    map(src, dst, 1, move |v| v * alpha);
}

/// `dst = src + alpha`.
pub fn map_add_scalar(src: &[f32], alpha: f32, dst: &mut [f32]) {
    map(src, dst, 1, move |v| v + alpha);
}

/// ReLU forward.
pub fn map_relu(src: &[f32], dst: &mut [f32]) {
    map(src, dst, 4, |v| v.max(0.0));
}

/// GELU forward (tanh approximation, shared scalar).
pub fn map_gelu(src: &[f32], dst: &mut [f32]) {
    map(src, dst, 4, fused::gelu_fwd);
}

/// Sigmoid forward (shared [`fused::sigmoid`] scalar).
pub fn map_sigmoid(src: &[f32], dst: &mut [f32]) {
    map(src, dst, 4, fused::sigmoid);
}

/// Tanh forward.
pub fn map_tanh(src: &[f32], dst: &mut [f32]) {
    map(src, dst, 4, f32::tanh);
}

/// |x| forward.
pub fn map_abs(src: &[f32], dst: &mut [f32]) {
    map(src, dst, 1, f32::abs);
}

/// `dst += alpha · src` over the flat element order (the gradient
/// accumulator).
pub fn axpy(dst: &mut [f32], alpha: f32, src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    work::add_flops(2 * dst.len());
    par::parallel_rows(dst, 1, ELEM_GRAIN, 1, move |start, block| {
        let n = block.len();
        for (a, &b) in block.iter_mut().zip(&src[start..start + n]) {
            *a += alpha * b;
        }
    });
}

/// `dst = value` everywhere.
pub fn fill(dst: &mut [f32], value: f32) {
    dst.fill(value);
}

/// `dst = src`.
pub fn copy(src: &[f32], dst: &mut [f32]) {
    dst.copy_from_slice(src);
}

/// Row-broadcast add: `dst[r, :] = x[r, :] + row` for every length-`n` row,
/// in one pass.
pub fn add_row_broadcast(x: &[f32], row: &[f32], n: usize, dst: &mut [f32]) {
    debug_assert_eq!(row.len(), n);
    debug_assert_eq!(x.len(), dst.len());
    work::add_flops(dst.len());
    let grain_rows = ELEM_GRAIN.div_ceil(n).max(1);
    par::parallel_rows(dst, n, grain_rows, 1, move |row0, block| {
        for (out, xr) in block.chunks_exact_mut(n).zip(x[row0 * n..].chunks_exact(n)) {
            for ((o, &v), &b) in out.iter_mut().zip(xr).zip(row) {
                *o = v + b;
            }
        }
    });
}

/// Columns per register-held strip of a cross-row sum: one 16-lane vector.
pub(crate) const STRIP: usize = 16;

/// Bias gradient of the row broadcast: `dst[j] = Σ_r g[r, j]`, each column
/// summed from `+0.0` in ascending row order (the autograd `AddRowBroadcast`
/// backward's exact chain). Columns split across threads in whole 16-column
/// strips; within a block, up to four strips of sums stay in registers over
/// the rows, and the last `n % 16` columns sum in their output slice.
pub fn bias_grad(g: &[f32], rows: usize, n: usize, dst: &mut [f32]) {
    debug_assert_eq!(g.len(), rows * n);
    debug_assert_eq!(dst.len(), n);
    work::add_flops(g.len());
    let col_grain = (ELEM_GRAIN / rows.max(1)).max(1);
    par::parallel_rows(dst, 1, col_grain, STRIP, move |col0, cols| {
        let whole = cols.len() / STRIP * STRIP;
        let (strips, tail) = cols.split_at_mut(whole);
        // Four strips side by side give four independent add chains per
        // row; their 64 sums fit in 4 AVX-512 (8 AVX2) registers.
        for (i, out) in strips.chunks_mut(4 * STRIP).enumerate() {
            let c0 = col0 + i * 4 * STRIP;
            match out.len() / STRIP {
                4 => strip_sums::<{ 4 * STRIP }>(g, rows, n, c0, out),
                3 => strip_sums::<{ 3 * STRIP }>(g, rows, n, c0, out),
                2 => strip_sums::<{ 2 * STRIP }>(g, rows, n, c0, out),
                _ => strip_sums::<STRIP>(g, rows, n, c0, out),
            }
        }
        if !tail.is_empty() {
            tail.fill(0.0);
            let c0 = col0 + whole;
            for r in 0..rows {
                for (o, &v) in tail.iter_mut().zip(&g[r * n + c0..]) {
                    *o += v;
                }
            }
        }
    });
}

/// `out[j] = Σ_r g[r·n + c0 + j]` for the `W` columns of whole strips, over
/// ascending `r` from `+0.0`, the sums held in registers until the last row.
#[inline(always)]
fn strip_sums<const W: usize>(g: &[f32], rows: usize, n: usize, c0: usize, out: &mut [f32]) {
    let mut acc = [0.0f32; W];
    for r in 0..rows {
        for (s, &v) in acc.iter_mut().zip(&g[r * n + c0..][..W]) {
            *s += v;
        }
    }
    out.copy_from_slice(&acc);
}

/// Row softmax over trailing axis `n`: `dst = src`, then an in-place
/// [`fused::softmax_rows`] sweep over blocks of rows.
pub fn softmax_last(src: &[f32], n: usize, dst: &mut [f32]) {
    work::add_flops(5 * dst.len());
    dst.copy_from_slice(src);
    let grain_rows = EXP_GRAIN.div_ceil(n).max(1);
    par::parallel_rows(dst, n, grain_rows, 1, move |_, block| fused::softmax_rows(block, n));
}

/// Softmax backward (shared fused core).
pub fn softmax_last_bwd(y: &[f32], g: &[f32], n: usize, dst: &mut [f32]) {
    work::add_flops(4 * dst.len());
    fused::softmax_last_bwd_into(y, g, n, dst);
}

/// LayerNorm forward (shared fused core): writes the normalised rows and the
/// `[rows, 2]` interleaved `(mean, rstd)` cache.
pub fn layer_norm_fwd(
    x: &[f32],
    n: usize,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    out: &mut [f32],
    cache: &mut [f32],
) {
    work::add_flops(8 * x.len());
    fused::layer_norm_fwd_into(x, n, gamma, beta, eps, out, cache);
}

/// LayerNorm backward (shared fused core).
#[allow(clippy::too_many_arguments)]
pub fn layer_norm_bwd(
    x: &[f32],
    n: usize,
    gamma: &[f32],
    cache: &[f32],
    g: &[f32],
    dx: &mut [f32],
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) {
    work::add_flops(12 * x.len());
    fused::layer_norm_bwd_into(x, n, gamma, cache, g, dx, dgamma, dbeta);
}

/// Transpose of the row-major `[m, n]` matrix `src` into `[n, m]`.
pub fn transpose2(src: &[f32], m: usize, n: usize, dst: &mut [f32]) {
    debug_assert_eq!(src.len(), m * n);
    for i in 0..m {
        for j in 0..n {
            dst[j * m + i] = src[i * n + j];
        }
    }
}

/// Swap of the last two axes of `[b, m, n]`.
pub fn transpose_last2(src: &[f32], b: usize, m: usize, n: usize, dst: &mut [f32]) {
    debug_assert_eq!(src.len(), b * m * n);
    for bi in 0..b {
        let base = bi * m * n;
        for i in 0..m {
            for j in 0..n {
                dst[base + j * m + i] = src[base + i * n + j];
            }
        }
    }
}

/// Swap of the first two axes of `[a, b, c]`: `dst[j, i, :] = src[i, j, :]`.
///
/// Rows of `c` floats move whole; one side goes in order and the other
/// jumps between rows. Writing in order, the reads are `b·c` floats apart;
/// reading in order, the writes are `a·c` apart. A jump that is a multiple
/// of 4 KiB lands every row on the same cache sets and 4K-aliases loads
/// against stores, which halved the copy at `[32, 12, 32]` (writes 4 KiB
/// apart), so the kernel writes in order unless that puts the 4 KiB jump on
/// the reads. A copy is exact either way.
pub fn swap01(src: &[f32], a: usize, b: usize, c: usize, dst: &mut [f32]) {
    debug_assert_eq!(src.len(), a * b * c);
    let aliases = |floats: usize| (floats * size_of::<f32>()).is_multiple_of(4096);
    let mut copy = |i: usize, j: usize| {
        let s = (i * b + j) * c;
        let d = (j * a + i) * c;
        dst[d..d + c].copy_from_slice(&src[s..s + c]);
    };
    if aliases(b * c) && !aliases(a * c) {
        for i in 0..a {
            for j in 0..b {
                copy(i, j);
            }
        }
    } else {
        for j in 0..b {
            for i in 0..a {
                copy(i, j);
            }
        }
    }
}

/// Trailing-axis concatenation of `rows` rows of widths `na` and `nb`.
pub fn concat_last(a: &[f32], b: &[f32], na: usize, nb: usize, rows: usize, dst: &mut [f32]) {
    debug_assert_eq!(dst.len(), rows * (na + nb));
    for i in 0..rows {
        let base = i * (na + nb);
        dst[base..base + na].copy_from_slice(&a[i * na..(i + 1) * na]);
        dst[base + na..base + na + nb].copy_from_slice(&b[i * nb..(i + 1) * nb]);
    }
}

/// Column-range copy `dst[r, :] = src[r, from..to]` for rows of width `n`:
/// both halves of `split_last`, and the `slice_last` forward.
pub fn slice_cols(src: &[f32], n: usize, from: usize, to: usize, rows: usize, dst: &mut [f32]) {
    let w = to - from;
    debug_assert_eq!(dst.len(), rows * w);
    for i in 0..rows {
        let row = &src[i * n..i * n + n];
        dst[i * w..(i + 1) * w].copy_from_slice(&row[from..to]);
    }
}

/// `slice_last` backward: zero `dst` (rows of width `n`) and copy each
/// gradient row into columns `[start, start + w)`.
pub fn scatter_cols(g: &[f32], n: usize, start: usize, w: usize, rows: usize, dst: &mut [f32]) {
    debug_assert_eq!(dst.len(), rows * n);
    debug_assert_eq!(g.len(), rows * w);
    dst.fill(0.0);
    for i in 0..rows {
        dst[i * n + start..i * n + start + w].copy_from_slice(&g[i * w..(i + 1) * w]);
    }
}

/// One-hot routing forward: `dst[b, i, :] = head[b, indices[b·l + i], :]`
/// for `head: [b, k, d]`, a gather over disjoint output rows. Indices are
/// not range-checked here.
pub fn route_gather(head: &[f32], indices: &[u32], b: usize, k: usize, d: usize, l: usize, dst: &mut [f32]) {
    debug_assert_eq!(head.len(), b * k * d);
    debug_assert_eq!(indices.len(), b * l);
    debug_assert_eq!(dst.len(), b * l * d);
    let grain_rows = ROUTE_GRAIN.div_ceil(d.max(1)).max(1);
    par::parallel_rows(dst, d, grain_rows, 1, move |row0, chunk| {
        for (off, out) in chunk.chunks_exact_mut(d).enumerate() {
            let row = row0 + off; // global segment slot in [b·l]
            let bi = row / l;
            let j = indices[row] as usize;
            let src = (bi * k + j) * d;
            out.copy_from_slice(&head[src..src + d]);
        }
    });
}

/// One-hot routing backward: `dst` zeroed, then
/// `dst[b, indices[b·l + i], :] += dout[b, i, :]` over ascending `i` within
/// each batch, batches in parallel. Indices are not range-checked here.
pub fn route_scatter_add(
    dout: &[f32],
    indices: &[u32],
    b: usize,
    l: usize,
    d: usize,
    k: usize,
    dst: &mut [f32],
) {
    debug_assert_eq!(dout.len(), b * l * d);
    debug_assert_eq!(indices.len(), b * l);
    debug_assert_eq!(dst.len(), b * k * d);
    work::add_flops(dout.len());
    dst.fill(0.0);
    let grain_batches = ROUTE_GRAIN.div_ceil((l * d).max(1)).max(1);
    par::parallel_rows(dst, k * d, grain_batches, 1, move |b0, chunk| {
        for (off, out) in chunk.chunks_exact_mut(k * d).enumerate() {
            let bi = b0 + off;
            for i in 0..l {
                let j = indices[bi * l + i] as usize;
                let src = (bi * l + i) * d;
                let acc = &mut out[j * d..(j + 1) * d];
                for (o, &v) in acc.iter_mut().zip(&dout[src..src + d]) {
                    *o += v;
                }
            }
        }
    });
}

/// One GEMM written through into `dst`: `a` is `[m×k]` (`[k×m]` for
/// [`Trans::Tn`]) and `b` is `[k×n]` (`[n×k]` for [`Trans::Nt`]), all
/// row-major.
///
/// # Panics
/// If a slice length disagrees with its shape.
pub fn gemm(trans: Trans, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], dst: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm lhs length");
    assert_eq!(b.len(), k * n, "gemm rhs length");
    assert_eq!(dst.len(), m * n, "gemm out length");
    work::add_flops(2 * m * k * n);
    matmul::gemm_dispatch(trans.kind(), m, k, n, a, b, dst);
}

/// `bt` GEMMs written through into consecutive `[m×n]` blocks of `dst`,
/// batch `bi` reading the `bi`-th operand blocks of `a` and `b` (shaped as
/// for [`gemm`]).
///
/// # Panics
/// If a slice length disagrees with its shape.
#[allow(clippy::too_many_arguments)]
pub fn bmm(
    trans: Trans,
    bt: usize,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    dst: &mut [f32],
) {
    assert_eq!(a.len(), bt * m * k, "bmm lhs length");
    assert_eq!(b.len(), bt * k * n, "bmm rhs length");
    assert_eq!(dst.len(), bt * m * n, "bmm out length");
    work::add_flops(2 * bt * m * k * n);
    matmul::bmm_dispatch(trans.kind(), bt, m, k, n, (a, m * k), (b, k * n), dst);
}

/// Broadcast-left `dst[bi] = a · (b[bi])ᵀ` written through: `a` is one
/// `[m×k]` matrix, `b` holds `bt` batches of `[n×k]` and `dst` `bt` batches
/// of `[m×n]` (the autograd `matmul_broadcast_nt` forward).
///
/// # Panics
/// If a slice length disagrees with its shape.
pub fn bcast_nt(bt: usize, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], dst: &mut [f32]) {
    assert_eq!(a.len(), m * k, "bcast_nt lhs length");
    assert_eq!(b.len(), bt * n * k, "bcast_nt rhs length");
    assert_eq!(dst.len(), bt * m * n, "bcast_nt out length");
    work::add_flops(2 * bt * m * k * n);
    matmul::bmm_dispatch(Kind::Nt, bt, m, k, n, (a, 0), (b, n * k), dst);
}

/// Broadcast-NT backward for the shared LHS: `da = Σ_b g[b]·x[b]`, the
/// autograd rule's chain — each per-batch product from `+0.0`, added into a
/// zeroed `da` in ascending batch order — with the batch sum kept in
/// registers.
pub fn bcast_nt_da(g: &[f32], x: &[f32], bsz: usize, k: usize, l: usize, d: usize, da: &mut [f32]) {
    debug_assert_eq!(da.len(), k * d);
    work::add_flops(2 * bsz * k * l * d);
    matmul::bmm_sum(bsz, k, l, d, g, x, da);
}

/// Broadcast-NT backward for the batched RHS: `dx[b] = g[b]ᵀ·a` written
/// through into per-batch slices (the autograd rule's exact `gemm_tn` chain),
/// with `a` broadcast to every batch.
///
/// Unlike the `da` reduction above, every batch writes a disjoint `dx` slice,
/// so the sweep splits batches across threads like any batched GEMM: each
/// batch's product is the identical serial kernel regardless of which thread
/// runs it, keeping the gradient bitwise-stable at any thread count.
pub fn bcast_nt_dx(g: &[f32], a: &[f32], bsz: usize, k: usize, l: usize, d: usize, dx: &mut [f32]) {
    debug_assert_eq!(a.len(), k * d);
    debug_assert_eq!(dx.len(), bsz * l * d);
    work::add_flops(2 * bsz * k * l * d);
    matmul::bmm_dispatch(Kind::Tn, bsz, l, k, d, (g, k * l), (a, 0), dx);
}

/// Sum over the flat elements with an f64 accumulator, serial on purpose:
/// splitting the one accumulation chain would change its bits.
pub fn sum_all(src: &[f32]) -> f32 {
    work::add_flops(src.len());
    src.iter().map(|&v| v as f64).sum::<f64>() as f32
}

/// Mean over the flat elements: the sum, then one divide.
pub fn mean_all(src: &[f32]) -> f32 {
    work::add_flops(1);
    sum_all(src) / src.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused::{combine_lanes, LANES};
    use crate::{route, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rt(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::randn(dims, 1.0, &mut rng)
    }

    #[test]
    fn swap01_moves_every_row_in_either_loop_order() {
        // [12, 32, 32] reads in order (a write-ordered pass would read 4 KiB
        // apart); the others write in order.
        for (a, b, c) in [(32, 12, 32), (12, 32, 32), (32, 12, 8), (2, 3, 5), (1, 1024, 1)] {
            let src = rt(&[a, b, c], 3);
            let mut out = vec![f32::NAN; a * b * c];
            swap01(src.data(), a, b, c, &mut out);
            for (i, j, t) in (0..a).flat_map(|i| (0..b).flat_map(move |j| (0..c).map(move |t| (i, j, t)))) {
                assert_eq!(out[(j * a + i) * c + t].to_bits(), src.data()[(i * b + j) * c + t].to_bits());
            }
        }
    }

    #[test]
    fn zips_and_maps_match_serial_loops_bitwise() {
        let (a, b) = (rt(&[7, 13], 1), rt(&[7, 13], 2));
        let (a, b) = (a.data(), b.data());
        let zipped = |f: fn(f32, f32) -> f32| a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect::<Vec<_>>();
        let mapped = |f: fn(f32) -> f32| a.iter().map(|&x| f(x)).collect::<Vec<_>>();
        let mut out = vec![0.0f32; 91];
        zip_add(a, b, &mut out);
        assert_eq!(out, zipped(|x, y| x + y));
        zip_mul(a, b, &mut out);
        assert_eq!(out, zipped(|x, y| x * y));
        map_scale(a, -1.7, &mut out);
        assert_eq!(out, mapped(|x| x * -1.7));
        map_sigmoid(a, &mut out);
        assert_eq!(out, mapped(|x| 1.0 / (1.0 + fused::exp(-x))));
    }

    #[test]
    fn gemm_matches_tensor_matmul_bitwise() {
        let a = rt(&[9, 17], 3);
        let b = rt(&[17, 11], 4);
        let mut out = vec![1.0f32; 9 * 11]; // stale contents must not leak
        gemm(Trans::Nn, 9, 17, 11, a.data(), b.data(), &mut out);
        assert_eq!(out, a.matmul(&b).data());
        let bt = rt(&[11, 17], 5);
        gemm(Trans::Nt, 9, 17, 11, a.data(), bt.data(), &mut out);
        assert_eq!(out, a.matmul_nt(&bt).data());
    }

    #[test]
    fn softmax_and_layer_norm_match_serial_loops_bitwise() {
        let (rows, n) = (12, 16);
        let x = rt(&[rows, n], 6);
        let mut out = vec![0.0f32; rows * n];
        softmax_last(x.data(), n, &mut out);
        let mut expect = x.data().to_vec();
        for row in expect.chunks_exact_mut(n) {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            for v in row.iter_mut() {
                *v = fused::exp(*v - max);
            }
            let inv = 1.0 / row.iter().fold(0.0f32, |s, &v| s + v);
            for v in row.iter_mut() {
                *v *= inv;
            }
        }
        assert_eq!(out, expect);

        // LayerNorm with its fixed-lane row statistics.
        let (gamma, beta, eps) = (rt(&[n], 7), rt(&[n], 8), 1e-5);
        let (gamma, beta) = (gamma.data(), beta.data());
        let mut y = vec![0.0f32; rows * n];
        let mut cache = vec![0.0f32; 2 * rows];
        layer_norm_fwd(x.data(), n, gamma, beta, eps, &mut y, &mut cache);
        let (mut ey, mut ecache) = (Vec::new(), Vec::new());
        for row in x.data().chunks_exact(n) {
            let (mut s, mut q) = ([0.0f32; LANES], [0.0f32; LANES]);
            for (j, &v) in row.iter().enumerate() {
                s[j % LANES] += v;
            }
            let mean = combine_lanes(s) / n as f32;
            for (j, &v) in row.iter().enumerate() {
                q[j % LANES] += (v - mean) * (v - mean);
            }
            let rstd = 1.0 / (combine_lanes(q) / n as f32 + eps).sqrt();
            ecache.extend([mean, rstd]);
            ey.extend(row.iter().enumerate().map(|(j, &v)| (v - mean) * rstd * gamma[j] + beta[j]));
        }
        assert_eq!(y, ey);
        assert_eq!(cache, ecache);
    }

    #[test]
    fn add_row_broadcast_and_bias_grad_round_trip() {
        let x = rt(&[31, 8], 9);
        let row = rt(&[8], 10);
        let mut out = vec![0.0f32; 31 * 8];
        add_row_broadcast(x.data(), row.data(), 8, &mut out);
        let expect: Vec<f32> = x.data().iter().enumerate().map(|(i, &v)| v + row.data()[i % 8]).collect();
        assert_eq!(out, expect);

        let mut db = vec![0.0f32; 8];
        bias_grad(x.data(), 31, 8, &mut db);
        let mut serial = vec![0.0f32; 8];
        for r in 0..31 {
            for (j, s) in serial.iter_mut().enumerate() {
                *s += x.data()[r * 8 + j];
            }
        }
        assert_eq!(db, serial);
    }

    #[test]
    fn slice_scatter_and_concat_match_serial_copies() {
        let a = rt(&[5, 6], 11);
        let b = rt(&[5, 3], 12);
        let mut cat = vec![0.0f32; 5 * 9];
        concat_last(a.data(), b.data(), 6, 3, 5, &mut cat);
        let expect: Vec<f32> = (0..5).flat_map(|i| [a.row(i), b.row(i)].concat()).collect();
        assert_eq!(cat, expect);

        let mut left = vec![0.0f32; 5 * 6];
        slice_cols(&cat, 9, 0, 6, 5, &mut left);
        assert_eq!(left, a.data());

        let mut sc = vec![1.0f32; 5 * 9];
        scatter_cols(b.data(), 9, 6, 3, 5, &mut sc);
        for i in 0..5 {
            assert_eq!(&sc[i * 9..i * 9 + 6], &[0.0; 6]);
            assert_eq!(&sc[i * 9 + 6..i * 9 + 9], &b.data()[i * 3..(i + 1) * 3]);
        }
    }

    #[test]
    fn route_kernels_match_dense_one_hot_bmm_bitwise() {
        let head = rt(&[3, 5, 4], 13);
        let indices: Vec<u32> = (0..3 * 7).map(|i| (i % 5) as u32).collect();
        let one_hot = route::one_hot_matrix(&indices, 3, 7, 5);
        let mut out = vec![0.0f32; 3 * 7 * 4];
        route_gather(head.data(), &indices, 3, 5, 4, 7, &mut out);
        assert_eq!(out, one_hot.bmm(&head).data());

        let dout = rt(&[3, 7, 4], 14);
        let mut dh = vec![1.0f32; 3 * 5 * 4]; // stale contents must not leak
        route_scatter_add(dout.data(), &indices, 3, 7, 4, 5, &mut dh);
        assert_eq!(dh, one_hot.bmm_tn(&dout).data());
    }

    #[test]
    #[should_panic(expected = "gemm lhs length")]
    fn gemm_rejects_long_lhs() {
        let mut c = vec![0.0f32; 2 * 3];
        gemm(Trans::Nn, 2, 4, 3, &[0.0; 2 * 4 + 1], &[0.0; 4 * 3], &mut c);
    }

    #[test]
    #[should_panic(expected = "gemm out length")]
    fn gemm_rejects_long_out() {
        let mut c = vec![0.0f32; 2 * 3 + 1];
        gemm(Trans::Nt, 2, 4, 3, &[0.0; 2 * 4], &[0.0; 3 * 4], &mut c);
    }

    #[test]
    #[should_panic(expected = "bmm rhs length")]
    fn bmm_rejects_short_rhs() {
        let mut c = vec![0.0f32; 2 * 2 * 3];
        bmm(Trans::Nn, 2, 2, 4, 3, &[0.0; 2 * 2 * 4], &[0.0; 4 * 3], &mut c);
    }

    #[test]
    #[should_panic(expected = "bmm out length")]
    fn bmm_rejects_long_out() {
        let mut c = vec![0.0f32; 2 * 2 * 3 + 1];
        bmm(Trans::Tn, 2, 2, 4, 3, &[0.0; 2 * 4 * 2], &[0.0; 2 * 4 * 3], &mut c);
    }

    #[test]
    #[should_panic(expected = "bcast_nt lhs length")]
    fn bcast_nt_rejects_batched_lhs() {
        let mut c = vec![0.0f32; 2 * 2 * 3];
        bcast_nt(2, 2, 4, 3, &[0.0; 2 * 2 * 4], &[0.0; 2 * 3 * 4], &mut c);
    }

    #[test]
    #[should_panic(expected = "bcast_nt out length")]
    fn bcast_nt_rejects_short_out() {
        let mut c = vec![0.0f32; 2 * 3];
        bcast_nt(2, 2, 4, 3, &[0.0; 2 * 4], &[0.0; 2 * 3 * 4], &mut c);
    }
}
