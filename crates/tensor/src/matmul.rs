//! Matrix multiplication kernels: serial reference + cache-blocked,
//! register-tiled, multithreaded implementations.
//!
//! All kernels share one arithmetic contract: every output element is an
//! `f32` accumulation chain over `k` in **ascending order**, starting from
//! zero. The tiled and parallel paths block loops for cache reuse and split
//! *output rows* across threads, but never reorder, split, or widen an
//! element's accumulation chain — so their results are **bitwise identical**
//! to the serial reference for any tile size and any thread count (see
//! `tests/properties.rs`).
//!
//! `gemm` and `gemm_tn` skip `a_ik == 0.0` terms. This is not just a
//! micro-optimisation: ProtoAttn routes per-segment head outputs through
//! one-hot assignment matrices (`A · head`), and the skip turns those
//! products from `O(l·k·d)` into `O(l·d)`. The skip is part of the
//! arithmetic contract (skipping a `+ 0.0 * b` term is *not* a bitwise
//! no-op: it changes `-0.0` and non-finite propagation), so the tiled
//! kernels implement it per `(row, k)` exactly like the reference.
//! `gemm_nt` computes plain dot products and has no skip, matching its
//! reference.
//!
//! The serial references live in [`reference`] and stay the ground truth the
//! property tests compare against.

use crate::par;
use crate::Tensor;

/// Register tile width (output columns per micro-tile).
const NR: usize = 16;
/// Register tile height (output rows per micro-tile).
const MR: usize = 4;
/// k-block depth: bounds the live panel to ~`KC × NR` floats (L1-resident).
const KC: usize = 256;

/// Below this many multiply–accumulates (`m·k·n`) the naive reference runs —
/// tiling set-up costs more than it saves.
const TILE_MIN_MACS: usize = 16 * 16 * 16;
/// Below this many multiply–accumulates the kernel stays single-threaded.
const PAR_MIN_MACS: usize = 64 * 64 * 64;
/// Minimum multiply–accumulates each worker thread should receive. Shared
/// with the batched backward sweeps in [`crate::exec`] so they split batches
/// on the same per-thread work target as the dispatcher.
pub(crate) const PAR_GRAIN_MACS: usize = 32 * 64 * 64;

pub mod reference {
    //! Naive serial kernels: the arithmetic ground truth.
    //!
    //! `i-k-j` loop order — the innermost loop walks a row of the right
    //! operand and a row of the output contiguously. Exposed publicly so
    //! property tests (and benchmarks) can compare the optimised paths
    //! against them on arbitrary shapes.

    /// `out[i, :] += a_ik * b[k, :]` — the shared inner kernel.
    #[inline]
    fn saxpy_row(out: &mut [f32], a_ik: f32, b_row: &[f32]) {
        for (o, &b) in out.iter_mut().zip(b_row) {
            *o += a_ik * b;
        }
    }

    /// Raw GEMM: `c[m×n] = a[m×k] · b[k×n]`, all row-major slices.
    ///
    /// Skips `a_ik == 0.0` terms (one-hot fast path; see module docs).
    pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(c.len(), m * n);
        for i in 0..m {
            let c_row = &mut c[i * n..(i + 1) * n];
            for kk in 0..k {
                let a_ik = a[i * k + kk];
                // focus-lint: allow(float-hygiene) -- exact-zero test is the one-hot sparsity skip; skipped terms contribute nothing bitwise
                if a_ik != 0.0 {
                    saxpy_row(c_row, a_ik, &b[kk * n..(kk + 1) * n]);
                }
            }
        }
    }

    /// `c[m×n] = a[m×k] · bᵀ` where `b` is `[n×k]` row-major.
    pub fn gemm_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), n * k);
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let b_row = &b[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (x, y) in a_row.iter().zip(b_row) {
                    acc += x * y;
                }
                c[i * n + j] = acc;
            }
        }
    }

    /// `c[m×n] = aᵀ · b` where `a` is `[k×m]` row-major and `b` is `[k×n]`.
    ///
    /// Skips `a_ki == 0.0` terms, like [`gemm`].
    pub fn gemm_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        debug_assert_eq!(a.len(), k * m);
        debug_assert_eq!(b.len(), k * n);
        for kk in 0..k {
            let b_row = &b[kk * n..(kk + 1) * n];
            for i in 0..m {
                let a_ki = a[kk * m + i];
                // focus-lint: allow(float-hygiene) -- exact-zero test is the one-hot sparsity skip; skipped terms contribute nothing bitwise
                if a_ki != 0.0 {
                    saxpy_row(&mut c[i * n..(i + 1) * n], a_ki, b_row);
                }
            }
        }
    }
}

/// The register micro-kernel: accumulates an `mr × NR` output tile over one
/// k-block, keeping the tile in registers for the whole block.
///
/// * `a[a_off + r * a_stride + kk]` is the `(row r, step kk)` left operand;
/// * `b[b_off + kk * b_stride ..][..NR]` is the step-`kk` right-operand row;
/// * `c[c_off + r * c_stride ..][..NR]` is loaded, accumulated and stored —
///   carrying the chain across k-blocks without reordering it.
///
/// With `SKIP`, `a == 0.0` terms are skipped per `(row, k)` exactly like the
/// serial references. The dense case (all `mr` left-operand values nonzero at
/// a given `k`, i.e. every step of a non-one-hot product) takes a branch-free
/// unrolled path; both paths run the identical per-row accumulation, so the
/// guard affects speed only, never bits.
#[inline]
#[allow(clippy::too_many_arguments)]
fn micro_tile<const SKIP: bool>(
    mr: usize,
    kc: usize,
    a: &[f32],
    a_off: usize,
    a_stride: usize,
    b: &[f32],
    b_off: usize,
    b_stride: usize,
    c: &mut [f32],
    c_off: usize,
    c_stride: usize,
) {
    debug_assert!(mr <= MR);
    let mut acc = [[0.0f32; NR]; MR];
    for (r, acc_r) in acc.iter_mut().enumerate().take(mr) {
        let base = c_off + r * c_stride;
        acc_r.copy_from_slice(&c[base..base + NR]);
    }
    // Decide skip-vs-dense once per tile, not once per k step: a branch in
    // the innermost loop forces the accumulator tile out of registers. When
    // the left-operand sub-panel has no zeros the skip loop and the dense
    // loop execute the identical arithmetic, so routing dense tiles through
    // the branch-free loop changes speed only, never bits.
    let sparse = SKIP
        // focus-lint: allow(float-hygiene) -- exact-zero scan decides skip-vs-dense only; both paths compute identical bits
        && (0..mr).any(|r| a[a_off + r * a_stride..a_off + r * a_stride + kc].contains(&0.0));
    if sparse {
        for kk in 0..kc {
            let base = b_off + kk * b_stride;
            let b_row: &[f32; NR] =
                (&b[base..base + NR]).try_into().expect("slice is NR long by construction");
            for (r, acc_r) in acc.iter_mut().enumerate().take(mr) {
                let av = a[a_off + r * a_stride + kk];
                // focus-lint: allow(float-hygiene) -- exact-zero test is the one-hot sparsity skip; skipped terms contribute nothing bitwise
                if av != 0.0 {
                    for (o, &bv) in acc_r.iter_mut().zip(b_row) {
                        *o += av * bv;
                    }
                }
            }
        }
    } else {
        for kk in 0..kc {
            let base = b_off + kk * b_stride;
            let b_row: &[f32; NR] =
                (&b[base..base + NR]).try_into().expect("slice is NR long by construction");
            for (r, acc_r) in acc.iter_mut().enumerate().take(mr) {
                let av = a[a_off + r * a_stride + kk];
                for (o, &bv) in acc_r.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate().take(mr) {
        let base = c_off + r * c_stride;
        c[base..base + NR].copy_from_slice(acc_r);
    }
}

/// Cache-blocked GEMM over the output row block `i0..i1`:
/// `c_block[(i-i0)×n] += a[i×k] · b[k×n]` for `i` in `i0..i1`.
///
/// `c_block` holds exactly rows `i0..i1` (the caller splits disjoint blocks
/// across threads).
fn gemm_block(i0: usize, i1: usize, k: usize, n: usize, a: &[f32], b: &[f32], c_block: &mut [f32]) {
    debug_assert_eq!(c_block.len(), (i1 - i0) * n);
    let n_full = n - n % NR;
    let mut panel = [0.0f32; KC * NR];
    let mut k0 = 0;
    while k0 < k {
        let kc = KC.min(k - k0);
        let mut j0 = 0;
        while j0 < n_full {
            // panel[kk] = b[k0 + kk][j0..j0 + NR] — packed once per k-block,
            // reused by every row tile of this output block.
            for (kk, dst) in panel.chunks_exact_mut(NR).take(kc).enumerate() {
                dst.copy_from_slice(&b[(k0 + kk) * n + j0..(k0 + kk) * n + j0 + NR]);
            }
            let mut i = i0;
            while i < i1 {
                let mr = MR.min(i1 - i);
                micro_tile::<true>(
                    mr,
                    kc,
                    a,
                    i * k + k0,
                    k,
                    &panel,
                    0,
                    NR,
                    c_block,
                    (i - i0) * n + j0,
                    n,
                );
                i += mr;
            }
            j0 += NR;
        }
        // Column remainder: run the micro-kernel against a zero-padded panel
        // and a padded staging tile, then copy the live columns back. The
        // real columns keep the same ascending-k chain and per-(row, k) skip
        // as the scalar remainder loop; the padded lanes are discarded.
        if n_full < n {
            let nrem = n - n_full;
            for (kk, dst) in panel.chunks_exact_mut(NR).take(kc).enumerate() {
                dst[..nrem].copy_from_slice(&b[(k0 + kk) * n + n_full..(k0 + kk) * n + n]);
                dst[nrem..].fill(0.0);
            }
            let mut stage = [0.0f32; MR * NR];
            let mut i = i0;
            while i < i1 {
                let mr = MR.min(i1 - i);
                for r in 0..mr {
                    let base = (i - i0 + r) * n + n_full;
                    stage[r * NR..r * NR + nrem].copy_from_slice(&c_block[base..base + nrem]);
                    stage[r * NR + nrem..(r + 1) * NR].fill(0.0);
                }
                micro_tile::<true>(mr, kc, a, i * k + k0, k, &panel, 0, NR, &mut stage, 0, NR);
                for r in 0..mr {
                    let base = (i - i0 + r) * n + n_full;
                    c_block[base..base + nrem].copy_from_slice(&stage[r * NR..r * NR + nrem]);
                }
                i += mr;
            }
        }
        k0 += KC;
    }
}

/// Cache-blocked `a · bᵀ` over the output row block `i0..i1`.
///
/// Packs each `KC × NR` panel of `bᵀ` once per k-block so the micro-kernel
/// streams it contiguously; every output element keeps the serial dot
/// product's ascending-k chain (no zero-skip, matching the reference).
fn gemm_nt_block(
    i0: usize,
    i1: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c_block: &mut [f32],
) {
    debug_assert_eq!(c_block.len(), (i1 - i0) * n);
    let n_full = n - n % NR;
    let mut panel = [0.0f32; KC * NR];
    let mut k0 = 0;
    while k0 < k {
        let kc = KC.min(k - k0);
        let mut j0 = 0;
        while j0 < n_full {
            // panel[kk][r] = b[(j0 + r) * k + (k0 + kk)]  (transposed gather).
            for kk in 0..kc {
                let dst = &mut panel[kk * NR..kk * NR + NR];
                for (r, d) in dst.iter_mut().enumerate() {
                    *d = b[(j0 + r) * k + k0 + kk];
                }
            }
            let mut i = i0;
            while i < i1 {
                let mr = MR.min(i1 - i);
                micro_tile::<false>(
                    mr,
                    kc,
                    a,
                    i * k + k0,
                    k,
                    &panel,
                    0,
                    NR,
                    c_block,
                    (i - i0) * n + j0,
                    n,
                );
                i += mr;
            }
            j0 += NR;
        }
        // Column remainder: plain dots carried through c across k-blocks.
        for j in n_full..n {
            for i in i0..i1 {
                let mut acc = c_block[(i - i0) * n + j];
                let a_row = &a[i * k + k0..i * k + k0 + kc];
                let b_row = &b[j * k + k0..j * k + k0 + kc];
                for (x, y) in a_row.iter().zip(b_row) {
                    acc += x * y;
                }
                c_block[(i - i0) * n + j] = acc;
            }
        }
        k0 += KC;
    }
}

/// Cache-blocked `aᵀ · b` over the output row block `i0..i1` (`a` is
/// `[k × m]` row-major).
///
/// Packs each `mr × KC` panel of `aᵀ` once per (row-block, k-block) so the
/// micro-kernel reads it with stride 1; keeps the reference's zero-skip and
/// ascending-k chain.
fn gemm_tn_block(
    i0: usize,
    i1: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c_block: &mut [f32],
) {
    debug_assert_eq!(c_block.len(), (i1 - i0) * n);
    let n_full = n - n % NR;
    let mut a_panel = [0.0f32; MR * KC];
    // Lazily initialised so aligned-n calls never pay for zeroing it.
    let mut b_rem: Option<Box<[f32; KC * NR]>> = None;
    let mut k0 = 0;
    while k0 < k {
        let kc = KC.min(k - k0);
        // Zero-padded panel of the remainder columns, packed once per k-block
        // and shared by every row tile below.
        if n_full < n {
            let nrem = n - n_full;
            let b_rem = b_rem.get_or_insert_with(|| Box::new([0.0; KC * NR]));
            for (kk, dst) in b_rem.chunks_exact_mut(NR).take(kc).enumerate() {
                dst[..nrem].copy_from_slice(&b[(k0 + kk) * n + n_full..(k0 + kk) * n + n]);
                dst[nrem..].fill(0.0);
            }
        }
        let mut i = i0;
        while i < i1 {
            let mr = MR.min(i1 - i);
            // a_panel[r][kk] = a[(k0 + kk) * m-stride + (i + r)]; the row-major
            // stride of `a` is m, the total column count of aᵀ's source.
            // kk-outer so each source row's `mr` adjacent floats are read from
            // one cache line rather than touched once per destination row.
            let m_stride = a.len() / k;
            for kk in 0..kc {
                let src = &a[(k0 + kk) * m_stride + i..(k0 + kk) * m_stride + i + mr];
                for (r, &v) in src.iter().enumerate() {
                    a_panel[r * kc + kk] = v;
                }
            }
            let mut j0 = 0;
            while j0 < n_full {
                micro_tile::<true>(
                    mr,
                    kc,
                    &a_panel,
                    0,
                    kc,
                    b,
                    k0 * n + j0,
                    n,
                    c_block,
                    (i - i0) * n + j0,
                    n,
                );
                j0 += NR;
            }
            // Column remainder: padded micro-tile against `b_rem`, keeping
            // the per-(row, k) skip and ascending-k chain of the scalar loop
            // on the live columns; padded lanes are discarded.
            if n_full < n {
                let nrem = n - n_full;
                let brem: &[f32] =
                    b_rem.as_deref().expect("packed above whenever a remainder exists");
                let mut stage = [0.0f32; MR * NR];
                for r in 0..mr {
                    let base = (i - i0 + r) * n + n_full;
                    stage[r * NR..r * NR + nrem].copy_from_slice(&c_block[base..base + nrem]);
                    stage[r * NR + nrem..(r + 1) * NR].fill(0.0);
                }
                micro_tile::<true>(mr, kc, &a_panel, 0, kc, brem, 0, NR, &mut stage, 0, NR);
                for r in 0..mr {
                    let base = (i - i0 + r) * n + n_full;
                    c_block[base..base + nrem].copy_from_slice(&stage[r * NR..r * NR + nrem]);
                }
            }
            i += mr;
        }
        k0 += KC;
    }
}

pub mod raw {
    //! Raw-slice entry points to the dispatched kernels.
    //!
    //! These run the same reference→tiled→parallel dispatch as the [`Tensor`]
    //! methods but accumulate into a caller-owned buffer, so batched sweeps
    //! (e.g. the clustering distance matrix, the broadcast-LHS attention
    //! products) can write straight into slices of one output allocation.
    //! Like the reference kernels, they **accumulate** into `c` — zero it
    //! first for a plain product.
    //!
    //! [`Tensor`]: crate::Tensor

    /// `c[m×n] += a[m×k] · b[k×n]`, all row-major slices (zero-skip on `a`).
    ///
    /// # Panics
    /// If a slice length disagrees with its shape.
    pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        assert_eq!(a.len(), m * k, "gemm lhs length");
        assert_eq!(b.len(), k * n, "gemm rhs length");
        assert_eq!(c.len(), m * n, "gemm out length");
        super::gemm_dispatch(super::Kind::Nn, m, k, n, a, b, c);
    }

    /// `c[m×n] += a[m×k] · (b[n×k])ᵀ`, all row-major slices.
    ///
    /// # Panics
    /// If a slice length disagrees with its shape.
    pub fn gemm_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        assert_eq!(a.len(), m * k, "gemm_nt lhs length");
        assert_eq!(b.len(), n * k, "gemm_nt rhs length");
        assert_eq!(c.len(), m * n, "gemm_nt out length");
        super::gemm_dispatch(super::Kind::Nt, m, k, n, a, b, c);
    }

    /// `c[m×n] += (a[k×m])ᵀ · b[k×n]`, all row-major slices (zero-skip on
    /// `a`).
    ///
    /// # Panics
    /// If a slice length disagrees with its shape.
    pub fn gemm_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        assert_eq!(a.len(), k * m, "gemm_tn lhs length");
        assert_eq!(b.len(), k * n, "gemm_tn rhs length");
        assert_eq!(c.len(), m * n, "gemm_tn out length");
        super::gemm_dispatch(super::Kind::Tn, m, k, n, a, b, c);
    }

    /// Batched `c[bi] += a · (b[bi])ᵀ` with a broadcast left operand: `a` is
    /// one `[m × k]` matrix, `b` holds `bt` batches of `[n × k]` and `c`
    /// holds `bt` batches of `[m × n]`. Bitwise-identical to calling
    /// [`gemm_nt`] per batch, but narrow outputs (`n < NR`, the prototype
    /// attention scores) share one packing panel and staging tile across the
    /// whole sweep instead of re-initialising scratch per batch.
    ///
    /// # Panics
    /// If a slice length disagrees with its shape.
    pub fn gemm_nt_bcast(
        bt: usize,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) {
        use super::{Kind, NR, PAR_GRAIN_MACS, PAR_MIN_MACS, SMALL_STAGE};
        focus_trace::counter_add("gemm/nt_bcast", 1);
        assert_eq!(a.len(), m * k, "gemm_nt_bcast lhs length");
        assert_eq!(b.len(), bt * n * k, "gemm_nt_bcast rhs length");
        assert_eq!(c.len(), bt * m * n, "gemm_nt_bcast out length");
        let per_batch_macs = m * k * n;
        let small = n < NR && per_batch_macs > 0 && m * NR <= SMALL_STAGE;
        let batch_grain = PAR_GRAIN_MACS.div_ceil(per_batch_macs.max(1)).max(1);
        if small && bt * per_batch_macs >= PAR_MIN_MACS && bt >= 2 * batch_grain {
            // Batch-parallel sweep, mirroring `bmm_dispatch`: batches are
            // independent, each worker shares one panel + staging tile
            // across its block. Scratch is fully overwritten before use
            // (that is why the serial sweep can share it too), so per-worker
            // scratch leaves every output bit unchanged.
            super::par::parallel_rows(c, m * n, batch_grain, 1, |b0, chunk| {
                let mut panel = [0.0f32; super::KC * NR];
                let mut stage = [0.0f32; SMALL_STAGE];
                for (off, out) in chunk.chunks_exact_mut(m * n).enumerate() {
                    let bi = b0 + off;
                    super::gemm_nt_small_rows(
                        0,
                        k,
                        n,
                        a,
                        &b[bi * n * k..(bi + 1) * n * k],
                        out,
                        &mut panel,
                        &mut stage,
                    );
                }
            });
        } else if small {
            let mut panel = [0.0f32; super::KC * NR];
            let mut stage = [0.0f32; SMALL_STAGE];
            for bi in 0..bt {
                super::gemm_nt_small_rows(
                    0,
                    k,
                    n,
                    a,
                    &b[bi * n * k..(bi + 1) * n * k],
                    &mut c[bi * m * n..(bi + 1) * m * n],
                    &mut panel,
                    &mut stage,
                );
            }
        } else {
            for bi in 0..bt {
                super::gemm_dispatch(
                    Kind::Nt,
                    m,
                    k,
                    n,
                    a,
                    &b[bi * n * k..(bi + 1) * n * k],
                    &mut c[bi * m * n..(bi + 1) * m * n],
                );
            }
        }
    }
}

/// `a · bᵀ` for outputs narrower than one register tile (`n < NR`), where the
/// blocked kernel would push every column through its scalar-dot remainder —
/// a `k`-axis reduction the compiler must not vectorise (reassociation would
/// change bits). Instead the panel of `bᵀ` is packed zero-padded to the full
/// `NR` width and the regular [`micro_tile`] runs against an `NR`-wide
/// staging buffer, so the kernel keeps `MR` rows of accumulators in flight
/// exactly like the dense path (the padded lanes compute and discard zeros).
/// Each real output element still accumulates `a[i,kk] * b[j,kk]` in
/// ascending `kk` from its existing value — the exact reference `gemm_nt`
/// chain, which has no zero-skip — so results are bitwise-identical.
fn gemm_nt_small(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert!(n <= NR);
    let rows = |i0: usize, c_block: &mut [f32]| {
        let mr_rows = c_block.len() / n;
        let mut panel = [0.0f32; KC * NR];
        // Tiny row blocks (every per-batch attention product) stage on the
        // stack; large blocks use a per-thread scratch buffer that persists
        // across calls, so steady-state GEMMs touch neither the allocator
        // nor the tensor pool (compiled-plan replay asserts zero pool
        // lookups per step).
        let mut stack_stage = [0.0f32; SMALL_STAGE];
        if mr_rows * NR <= stack_stage.len() {
            gemm_nt_small_rows(i0, k, n, a, b, c_block, &mut panel, &mut stack_stage);
        } else {
            NT_STAGE.with(|cell| {
                let mut stage = cell.borrow_mut();
                if stage.len() < mr_rows * NR {
                    stage.resize(mr_rows * NR, 0.0);
                }
                gemm_nt_small_rows(i0, k, n, a, b, c_block, &mut panel, &mut stage);
            });
        }
    };
    if m * k * n < PAR_MIN_MACS {
        rows(0, c);
    } else {
        let grain_rows = PAR_GRAIN_MACS.div_ceil(k * n).max(1);
        par::parallel_rows(c, n, grain_rows, 1, |row0, c_block| rows(row0, c_block));
    }
}

/// Staging capacity (in floats) that [`gemm_nt_small`] keeps on the stack and
/// batched sweeps preallocate: covers row blocks up to `4 · MR` rows.
pub(crate) const SMALL_STAGE: usize = 4 * MR * NR;

std::thread_local! {
    /// Per-thread staging scratch for [`gemm_nt_small`] row blocks larger
    /// than [`SMALL_STAGE`]: grows to the high-water mark once and is then
    /// reused, keeping steady-state GEMMs allocation- and pool-free. The
    /// contents are fully overwritten before any read.
    static NT_STAGE: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Serial core of [`gemm_nt_small`] over the row block starting at `i0`,
/// staging into caller-provided scratch (`panel` of `KC · NR` floats, `stage`
/// covering at least `rows · NR`). Split out so batched sweeps can reuse one
/// set of buffers across batches — re-initialising the 16 KiB panel per
/// 2-kMAC batch would otherwise dominate the arithmetic.
#[allow(clippy::too_many_arguments)]
fn gemm_nt_small_rows(
    i0: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c_block: &mut [f32],
    panel: &mut [f32],
    stage: &mut [f32],
) {
    let mr_rows = c_block.len() / n;
    let stage = &mut stage[..mr_rows * NR];
    for (s, c_row) in stage.chunks_exact_mut(NR).zip(c_block.chunks_exact(n)) {
        s[..n].copy_from_slice(c_row);
        s[n..].fill(0.0);
    }
    let mut k0 = 0;
    while k0 < k {
        let kc = KC.min(k - k0);
        // panel[kk][j] = b[j*k + k0+kk] for j < n, zero-padded to NR.
        for (kk, dst) in panel.chunks_exact_mut(NR).take(kc).enumerate() {
            for (j, d) in dst.iter_mut().enumerate().take(n) {
                *d = b[j * k + k0 + kk];
            }
            dst[n..].fill(0.0);
        }
        let mut r = 0;
        while r < mr_rows {
            let mr = MR.min(mr_rows - r);
            micro_tile::<false>(mr, kc, a, (i0 + r) * k + k0, k, panel, 0, NR, stage, r * NR, NR);
            r += mr;
        }
        k0 += KC;
    }
    for (s, c_row) in stage.chunks_exact(NR).zip(c_block.chunks_exact_mut(n)) {
        c_row.copy_from_slice(&s[..n]);
    }
}

/// Which optimised block kernel to run per output row block.
#[derive(Clone, Copy)]
pub(crate) enum Kind {
    /// `a[m×k] · b[k×n]`.
    Nn,
    /// `a[m×k] · (b[n×k])ᵀ`.
    Nt,
    /// `(a[k×m])ᵀ · b[k×n]`.
    Tn,
}

/// Counts one GEMM entry in the `focus-trace` registry, bucketed by
/// transpose kind and the size class the dispatch thresholds put it in.
/// Every counted site runs on the coordinating thread (worker closures call
/// the block kernels directly), so the counts are thread-count-invariant.
fn trace_gemm(prefix: &str, kind: Kind, macs: usize) {
    if !focus_trace::enabled() {
        return;
    }
    let class = if macs < TILE_MIN_MACS {
        0
    } else if macs < PAR_MIN_MACS {
        1
    } else {
        2
    };
    // Static name table: the trace registry keys on `&'static str`.
    const NAMES: [[[&str; 3]; 3]; 2] = [
        [
            ["gemm/nn_small", "gemm/nn_tiled", "gemm/nn_par"],
            ["gemm/nt_small", "gemm/nt_tiled", "gemm/nt_par"],
            ["gemm/tn_small", "gemm/tn_tiled", "gemm/tn_par"],
        ],
        [
            ["bmm/nn_small", "bmm/nn_tiled", "bmm/nn_par"],
            ["bmm/nt_small", "bmm/nt_tiled", "bmm/nt_par"],
            ["bmm/tn_small", "bmm/tn_tiled", "bmm/tn_par"],
        ],
    ];
    let p = usize::from(prefix == "bmm");
    let ki = match kind {
        Kind::Nn => 0,
        Kind::Nt => 1,
        Kind::Tn => 2,
    };
    focus_trace::counter_add(NAMES[p][ki][class], 1);
}

/// Dispatches one raw GEMM: reference for small shapes, tiled for medium,
/// tiled + row-parallel for large. Bitwise-identical across all three paths.
pub(crate) fn gemm_dispatch(
    kind: Kind,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    let macs = m * k * n;
    trace_gemm("gemm", kind, macs);
    // Narrow-output and sub-tile `a·bᵀ` products otherwise run entirely as
    // scalar dots; the packed saxpy kernel is bitwise-identical to them.
    if matches!(kind, Kind::Nt) && macs > 0 && n < NR {
        gemm_nt_small(m, k, n, a, b, c);
        return;
    }
    if macs < TILE_MIN_MACS || k == 0 || n == 0 || m == 0 {
        match kind {
            Kind::Nn => reference::gemm(m, k, n, a, b, c),
            Kind::Nt => reference::gemm_nt(m, k, n, a, b, c),
            Kind::Tn => reference::gemm_tn(m, k, n, a, b, c),
        }
        return;
    }
    let block = |i0: usize, i1: usize, c_block: &mut [f32]| match kind {
        Kind::Nn => gemm_block(i0, i1, k, n, a, b, c_block),
        Kind::Nt => gemm_nt_block(i0, i1, k, n, a, b, c_block),
        Kind::Tn => gemm_tn_block(i0, i1, k, n, a, b, c_block),
    };
    if macs < PAR_MIN_MACS {
        block(0, m, c);
        return;
    }
    let grain_rows = PAR_GRAIN_MACS.div_ceil(k * n).max(MR);
    par::parallel_rows(c, n, grain_rows, MR, |row0, c_block| {
        block(row0, row0 + c_block.len() / n, c_block);
    });
}

/// Dispatches a batch of `bt` independent GEMMs sharing one output buffer.
///
/// Many small batches parallelise across the batch axis; few large batches
/// parallelise inside each GEMM instead.
#[allow(clippy::too_many_arguments)]
pub(crate) fn bmm_dispatch(
    kind: Kind,
    bt: usize,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    let a_sz = m * k; // == k * m for Tn: same element count either way
    let b_sz = match kind {
        Kind::Nn | Kind::Tn => k * n,
        Kind::Nt => n * k,
    };
    let per_batch_macs = m * k * n;
    let total_macs = bt * per_batch_macs;
    trace_gemm("bmm", kind, total_macs);
    let batch_grain = PAR_GRAIN_MACS.div_ceil(per_batch_macs.max(1)).max(1);
    // Same gate as gemm_dispatch; resolved once so the per-batch loops stay
    // branch-free. Scratch for the small-NT kernel is shared across batches —
    // per-call buffers would re-initialise a 16 KiB panel per tiny batch.
    let small_nt = matches!(kind, Kind::Nt) && n < NR && per_batch_macs > 0;
    let small_nt_staged = small_nt && m * NR <= SMALL_STAGE;
    if total_macs >= PAR_MIN_MACS && bt >= 2 * batch_grain {
        // Batch-parallel: each worker runs whole serial GEMMs on its slice.
        par::parallel_rows(c, m * n, batch_grain, 1, |b0, c_chunk| {
            let mut panel = [0.0f32; KC * NR];
            let mut stage = [0.0f32; SMALL_STAGE];
            for (idx, c_one) in c_chunk.chunks_mut(m * n).enumerate() {
                let bi = b0 + idx;
                let a_one = &a[bi * a_sz..(bi + 1) * a_sz];
                let b_one = &b[bi * b_sz..(bi + 1) * b_sz];
                if small_nt_staged {
                    gemm_nt_small_rows(0, k, n, a_one, b_one, c_one, &mut panel, &mut stage);
                } else if small_nt {
                    gemm_nt_small(m, k, n, a_one, b_one, c_one);
                } else if per_batch_macs < TILE_MIN_MACS {
                    match kind {
                        Kind::Nn => reference::gemm(m, k, n, a_one, b_one, c_one),
                        Kind::Nt => reference::gemm_nt(m, k, n, a_one, b_one, c_one),
                        Kind::Tn => reference::gemm_tn(m, k, n, a_one, b_one, c_one),
                    }
                } else {
                    match kind {
                        Kind::Nn => gemm_block(0, m, k, n, a_one, b_one, c_one),
                        Kind::Nt => gemm_nt_block(0, m, k, n, a_one, b_one, c_one),
                        Kind::Tn => gemm_tn_block(0, m, k, n, a_one, b_one, c_one),
                    }
                }
            }
        });
    } else if small_nt_staged {
        // Tiny-batch a·bᵀ sweep below the parallel threshold: one shared
        // panel + staging tile across all batches.
        let mut panel = [0.0f32; KC * NR];
        let mut stage = [0.0f32; SMALL_STAGE];
        for bi in 0..bt {
            gemm_nt_small_rows(
                0,
                k,
                n,
                &a[bi * a_sz..(bi + 1) * a_sz],
                &b[bi * b_sz..(bi + 1) * b_sz],
                &mut c[bi * m * n..(bi + 1) * m * n],
                &mut panel,
                &mut stage,
            );
        }
    } else {
        // Few/large batches: let each GEMM parallelise internally.
        for bi in 0..bt {
            gemm_dispatch(
                kind,
                m,
                k,
                n,
                &a[bi * a_sz..(bi + 1) * a_sz],
                &b[bi * b_sz..(bi + 1) * b_sz],
                &mut c[bi * m * n..(bi + 1) * m * n],
            );
        }
    }
}

impl Tensor {
    /// Matrix product of two rank-2 tensors: `[m, k] · [k, n] → [m, n]`.
    ///
    /// # Panics
    /// On rank or inner-dimension mismatch.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul lhs must be rank 2, got {}", self.shape());
        assert_eq!(other.rank(), 2, "matmul rhs must be rank 2, got {}", other.shape());
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (other.dims()[0], other.dims()[1]);
        assert_eq!(k, k2, "matmul inner dims: {} vs {}", self.shape(), other.shape());
        let mut out = Tensor::zeros(&[m, n]);
        gemm_dispatch(Kind::Nn, m, k, n, self.data(), other.data(), out.data_mut());
        out
    }

    /// `self · otherᵀ` without materialising the transpose:
    /// `[m, k] · [n, k]ᵀ → [m, n]`.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul_nt lhs must be rank 2");
        assert_eq!(other.rank(), 2, "matmul_nt rhs must be rank 2");
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (n, k2) = (other.dims()[0], other.dims()[1]);
        assert_eq!(k, k2, "matmul_nt inner dims: {} vs {}", self.shape(), other.shape());
        let mut out = Tensor::zeros(&[m, n]);
        gemm_dispatch(Kind::Nt, m, k, n, self.data(), other.data(), out.data_mut());
        out
    }

    /// `selfᵀ · other` without materialising the transpose:
    /// `[k, m]ᵀ · [k, n] → [m, n]`.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul_tn lhs must be rank 2");
        assert_eq!(other.rank(), 2, "matmul_tn rhs must be rank 2");
        let (k, m) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (other.dims()[0], other.dims()[1]);
        assert_eq!(k, k2, "matmul_tn inner dims: {} vs {}", self.shape(), other.shape());
        let mut out = Tensor::zeros(&[m, n]);
        gemm_dispatch(Kind::Tn, m, k, n, self.data(), other.data(), out.data_mut());
        out
    }

    /// Batched matmul of rank-3 tensors: `[B, m, k] · [B, k, n] → [B, m, n]`.
    pub fn bmm(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 3, "bmm lhs must be rank 3, got {}", self.shape());
        assert_eq!(other.rank(), 3, "bmm rhs must be rank 3, got {}", other.shape());
        let (b, m, k) = (self.dims()[0], self.dims()[1], self.dims()[2]);
        let (b2, k2, n) = (other.dims()[0], other.dims()[1], other.dims()[2]);
        assert_eq!(b, b2, "bmm batch dims: {} vs {}", self.shape(), other.shape());
        assert_eq!(k, k2, "bmm inner dims: {} vs {}", self.shape(), other.shape());
        let mut out = Tensor::zeros(&[b, m, n]);
        bmm_dispatch(Kind::Nn, b, m, k, n, self.data(), other.data(), out.data_mut());
        out
    }

    /// Batched `self · otherᵀ`: `[B, m, k] · [B, n, k]ᵀ → [B, m, n]`.
    pub fn bmm_nt(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 3, "bmm_nt lhs must be rank 3");
        assert_eq!(other.rank(), 3, "bmm_nt rhs must be rank 3");
        let (b, m, k) = (self.dims()[0], self.dims()[1], self.dims()[2]);
        let (b2, n, k2) = (other.dims()[0], other.dims()[1], other.dims()[2]);
        assert_eq!(b, b2, "bmm_nt batch dims: {} vs {}", self.shape(), other.shape());
        assert_eq!(k, k2, "bmm_nt inner dims: {} vs {}", self.shape(), other.shape());
        let mut out = Tensor::zeros(&[b, m, n]);
        bmm_dispatch(Kind::Nt, b, m, k, n, self.data(), other.data(), out.data_mut());
        out
    }

    /// Batched `selfᵀ · other`: `[B, k, m]ᵀ · [B, k, n] → [B, m, n]`.
    pub fn bmm_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 3, "bmm_tn lhs must be rank 3");
        assert_eq!(other.rank(), 3, "bmm_tn rhs must be rank 3");
        let (b, k, m) = (self.dims()[0], self.dims()[1], self.dims()[2]);
        let (b2, k2, n) = (other.dims()[0], other.dims()[1], other.dims()[2]);
        assert_eq!(b, b2, "bmm_tn batch dims: {} vs {}", self.shape(), other.shape());
        assert_eq!(k, k2, "bmm_tn inner dims: {} vs {}", self.shape(), other.shape());
        let mut out = Tensor::zeros(&[b, m, n]);
        bmm_dispatch(Kind::Tn, b, m, k, n, self.data(), other.data(), out.data_mut());
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matmul_small_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Tensor::randn(&[3, 5], 1.0, &mut rng);
        assert!(a.matmul(&Tensor::eye(5)).max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn nt_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Tensor::randn(&[4, 6], 1.0, &mut rng);
        let b = Tensor::randn(&[5, 6], 1.0, &mut rng);
        let fast = a.matmul_nt(&b);
        let slow = a.matmul(&b.transpose());
        assert!(fast.max_abs_diff(&slow) < 1e-5);
    }

    #[test]
    fn tn_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Tensor::randn(&[6, 4], 1.0, &mut rng);
        let b = Tensor::randn(&[6, 5], 1.0, &mut rng);
        let fast = a.matmul_tn(&b);
        let slow = a.transpose().matmul(&b);
        assert!(fast.max_abs_diff(&slow) < 1e-5);
    }

    #[test]
    fn bmm_matches_per_slice_matmul() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Tensor::randn(&[3, 2, 4], 1.0, &mut rng);
        let b = Tensor::randn(&[3, 4, 5], 1.0, &mut rng);
        let c = a.bmm(&b);
        for bi in 0..3 {
            let expect = a.index_axis0(bi).matmul(&b.index_axis0(bi));
            assert!(c.index_axis0(bi).max_abs_diff(&expect) < 1e-5);
        }
    }

    #[test]
    fn bmm_nt_and_tn_match_explicit() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = Tensor::randn(&[2, 3, 4], 1.0, &mut rng);
        let b = Tensor::randn(&[2, 5, 4], 1.0, &mut rng);
        let nt = a.bmm_nt(&b);
        let slow = a.bmm(&b.transpose_last2());
        assert!(nt.max_abs_diff(&slow) < 1e-5);

        // bmm_tn(x, y) = xᵀ · y per batch, so bmm_tn(aᵀ, c) == a · c.
        let c = Tensor::randn(&[2, 4, 5], 1.0, &mut rng);
        let tn = a.transpose_last2().bmm_tn(&c);
        let direct = a.bmm(&c);
        assert!(tn.max_abs_diff(&direct) < 1e-5);
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn matmul_rejects_bad_inner_dim() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_associativity_with_scaling() {
        let mut rng = StdRng::seed_from_u64(6);
        let a = Tensor::randn(&[3, 3], 1.0, &mut rng);
        let b = Tensor::randn(&[3, 3], 1.0, &mut rng);
        let left = a.scale(2.0).matmul(&b);
        let right = a.matmul(&b).scale(2.0);
        assert!(left.max_abs_diff(&right) < 1e-4);
    }

    /// Exhaustive bitwise agreement of the tiled paths with the serial
    /// reference on shapes straddling every tile boundary.
    #[test]
    fn tiled_paths_bitwise_match_reference_across_tile_edges() {
        let mut rng = StdRng::seed_from_u64(42);
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (4, 16, 16),
            (5, 17, 15),
            (16, 16, 16),
            (17, 300, 33),
            (33, 64, 31),
            (64, 64, 64),
        ] {
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            let mut c_ref = Tensor::zeros(&[m, n]);
            super::reference::gemm(m, k, n, a.data(), b.data(), c_ref.data_mut());
            assert_eq!(a.matmul(&b).data(), c_ref.data(), "gemm {m}x{k}x{n}");

            let bt = Tensor::randn(&[n, k], 1.0, &mut rng);
            let mut c_ref = Tensor::zeros(&[m, n]);
            super::reference::gemm_nt(m, k, n, a.data(), bt.data(), c_ref.data_mut());
            assert_eq!(a.matmul_nt(&bt).data(), c_ref.data(), "gemm_nt {m}x{k}x{n}");

            let at = Tensor::randn(&[k, m], 1.0, &mut rng);
            let b2 = Tensor::randn(&[k, n], 1.0, &mut rng);
            let mut c_ref = Tensor::zeros(&[m, n]);
            super::reference::gemm_tn(m, k, n, at.data(), b2.data(), c_ref.data_mut());
            assert_eq!(at.matmul_tn(&b2).data(), c_ref.data(), "gemm_tn {m}x{k}x{n}");
        }
    }

    /// The one-hot fast path: a sparse assignment matrix must produce exactly
    /// the same bits as a dense product, on both the reference and the tiled
    /// kernel (regression guard for the `a_ik != 0.0` skip).
    #[test]
    fn one_hot_routing_matches_dense_product_bitwise() {
        let mut rng = StdRng::seed_from_u64(7);
        let (l, k, d) = (96usize, 24usize, 40usize);
        // One-hot [l, k]: row i selects prototype i % k.
        let mut a = Tensor::zeros(&[l, k]);
        for i in 0..l {
            a.data_mut()[i * k + i % k] = 1.0;
        }
        let heads = Tensor::randn(&[k, d], 1.0, &mut rng);
        let routed = a.matmul(&heads);
        // Row i of the result must be bitwise row (i % k) of `heads`:
        // 0.0 + 1.0 * h — exact in IEEE 754.
        for i in 0..l {
            assert_eq!(routed.row(i), heads.row(i % k), "row {i}");
        }
        let mut c_ref = Tensor::zeros(&[l, d]);
        super::reference::gemm(l, k, d, a.data(), heads.data(), c_ref.data_mut());
        assert_eq!(routed.data(), c_ref.data());
    }
}
