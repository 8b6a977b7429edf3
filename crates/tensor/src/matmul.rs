//! Matrix multiplication: one register-tiled kernel family for `a·b`,
//! `a·bᵀ` and `aᵀ·b` in single, batched and broadcast form, plus the serial
//! reference kernels it is tested against.
//!
//! All kernels share one arithmetic contract: every output element is an
//! `f32` accumulation chain over `k` in **ascending order**, starting from
//! `+0.0`, one multiply then one add per step (Rust never contracts them into
//! an FMA), with no term skipped, in all three orientations. The tiled and
//! parallel paths block loops for register reuse and split *output rows* or
//! batches across threads, but never reorder, split, or widen an element's
//! accumulation chain — so their results are **bitwise identical** to the
//! serial reference for any tile size and any thread count (see
//! `tests/properties.rs`).
//!
//! A zero term is exact on finite operands: under round-to-nearest a sum is
//! `−0.0` only when both addends are, so a chain that starts at `+0.0` never
//! becomes `−0.0`, and adding a `±0.0` product leaves it as it was. So no
//! kernel tests for zero entries: skipping them would give the same bits on
//! finite data, and one-hot routing, the one product zeros dominate, runs as
//! a gather and a scatter-add in [`crate::route`]. On non-finite operands
//! the chain is plain IEEE arithmetic in every orientation: a zero left
//! entry against an infinite or NaN right entry gives `0 · ±∞ = NaN`, which
//! poisons its output element. Non-finite data is stopped at the edges:
//! `predict` rejects a non-finite window, the offline fit a non-finite
//! value, and training stops at its first non-finite loss.
//!
//! **Write-through versus accumulating.** Every entry point of the family
//! (the [`Tensor`] methods and the `exec` GEMM kernels) *overwrites* its
//! output: a tile's accumulators start at `+0.0` in registers and are stored
//! once, so the output is never zeroed, loaded or read back. Seeding an accumulator from its first product instead would
//! turn a `+0.0` result into `−0.0`, so the kernels never do. Only the
//! [`reference`] kernels accumulate into their output (zero it first); a
//! chain that starts from `+0.0` can never end at `−0.0`, so adding it to a
//! zeroed buffer gives the write-through bits.
//!
//! **Tile shapes.** A tile is `MR × NR` = 6 × 16 accumulators: twelve
//! 8-lane vectors, which stay in registers on AVX2's sixteen as well as
//! AVX-512's thirty-two. Three other shapes cover the products where a
//! 6 × 16 tile would compute many lanes or rows it throws away, none with
//! more than twelve accumulator vectors: 8 lanes ([`NR_NARROW`]) for
//! outputs at most 8 wide, 4 rows ([`MR_ALT`]) for a short row count that 4
//! divides and 6 does not (8 prototypes, where a 6-row tiling computes 12
//! rows), and 4 × 24 ([`NR_WIDE`]) for outputs 17 to 24 wide (the forecast
//! head, where two overlapping 16-lane strips compute 32 lanes for 24). The
//! shape is picked from the call's static dims in one place
//! (`with_tile_shape!`); every shape computes the same chains, so the
//! choice moves speed, never bits.
//!
//! **One call, one kernel.** The shape is picked once per call (per thread
//! block of it), and the batch loop runs inside the kernel it picks, so a
//! batched product pays its dispatch and its scratch borrow once, not once
//! per batch. Inside a tile the contraction walks both operands as
//! iterators, so a step is its vector work plus a handful of scalar
//! instructions, and a whole tile is stored straight from its registers;
//! at the short depths of prototype and readout products (6–12 steps) the
//! per-tile work around the loop is most of the cost.
//!
//! **Operand layouts.** `a·b` and `a·bᵀ` read the left operand's rows in
//! place and `aᵀ·b` its columns, a tile's `M` consecutive floats of each
//! row of `a` (a tile of fewer columns than `M` is packed). `a·b`
//! and `aᵀ·b` read the right operand in place, the last strip shifted back
//! to overlap its neighbour rather than run past `n`; `a·bᵀ` transposes each
//! strip of `bᵀ` once, or, when `a` has at most 8 rows, computes
//! `cᵀ = b·aᵀ` so only the narrow operand is transposed (once per call when
//! `a` is broadcast) and stores each finished tile transposed. Packing goes
//! to one per-thread buffer that grows to the largest call, so a warmed-up
//! call never allocates.
//!
//! The serial references live in [`reference`] and stay the ground truth the
//! property tests and the kernel bench compare against.

use crate::par;
use crate::Tensor;
use std::cell::RefCell;

/// Register tile width: output columns per tile (two 8-lane vectors).
const NR: usize = 16;
/// Tile width for outputs at most this wide, and the lane count of the
/// narrow `a·bᵀ` orientation (one 8-lane vector).
const NR_NARROW: usize = 8;
/// Tile width for outputs 17 to 24 wide (the forecast head), which two
/// overlapping [`NR`] strips would cover with 32 lanes.
const NR_WIDE: usize = 24;
/// Register tile height: output rows per tile.
const MR: usize = 6;
/// Tile height for a short row count that it divides and [`MR`] does not
/// (8, 16, 20), which an `MR`-row tiling would end on an overlapping tile,
/// and for [`NR_WIDE`] tiles.
const MR_ALT: usize = 4;

/// Calls `$kernel::<M, W>(args…)` with the tile shape for an output of
/// `$rows × $cols`: `W` = [`NR_WIDE`] with `M` = [`MR_ALT`] for outputs 17 to
/// 24 wide; otherwise `W` = [`NR_NARROW`] for outputs at most that wide,
/// else [`NR`], and `M` = [`MR_ALT`] when it divides a row count of at most
/// 24 that [`MR`] does not, else `MR`. Every shape keeps twelve 8-lane
/// accumulators or fewer, and every shape computes the same chains, so the
/// choice moves speed, never bits.
macro_rules! with_tile_shape {
    ($rows:expr, $cols:expr, $kernel:ident($($arg:expr),* $(,)?)) => {{
        let (rows, cols): (usize, usize) = ($rows, $cols);
        let short = !rows.is_multiple_of(MR) && rows.is_multiple_of(MR_ALT) && rows <= 4 * MR;
        if cols > NR && cols <= NR_WIDE {
            $kernel::<MR_ALT, NR_WIDE>($($arg),*)
        } else {
            match (short, cols <= NR_NARROW) {
                (false, false) => $kernel::<MR, NR>($($arg),*),
                (false, true) => $kernel::<MR, NR_NARROW>($($arg),*),
                (true, false) => $kernel::<MR_ALT, NR>($($arg),*),
                (true, true) => $kernel::<MR_ALT, NR_NARROW>($($arg),*),
            }
        }
    }};
}

/// Below this many multiply–accumulates the kernel stays single-threaded.
const PAR_MIN_MACS: usize = 64 * 64 * 64;
/// Minimum multiply–accumulates each worker thread should receive.
const PAR_GRAIN_MACS: usize = 32 * 64 * 64;

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
    pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(c.len(), m * n);
        for i in 0..m {
            let c_row = &mut c[i * n..(i + 1) * n];
            for kk in 0..k {
                saxpy_row(c_row, a[i * k + kk], &b[kk * n..(kk + 1) * n]);
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
    pub fn gemm_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        debug_assert_eq!(a.len(), k * m);
        debug_assert_eq!(b.len(), k * n);
        for kk in 0..k {
            let b_row = &b[kk * n..(kk + 1) * n];
            for i in 0..m {
                saxpy_row(&mut c[i * n..(i + 1) * n], a[kk * m + i], b_row);
            }
        }
    }
}

/// One `M × W` output tile: `acc[r][j] = Σ_kk A(r, kk) · B(kk, j)`, each
/// chain in ascending `kk` from `+0.0`, held in registers for the whole
/// contraction.
///
/// `a_steps` yields the tile's `M` left-operand values step by step, and
/// step `kk`'s right-operand row is `b[kk * b_rs + j0..][..W]`. Every
/// caller inlines the tile, so the accumulators never leave registers
/// before their one store, and the loop walks both operands as iterators: a
/// contraction step is a handful of scalar instructions besides its vector
/// work, which matters at the short depths (6–12) of prototype and readout
/// products.
#[inline(always)]
fn tile<const M: usize, const W: usize>(
    a_steps: impl Iterator<Item = [f32; M]>,
    (b, b_rs, j0): (&[f32], usize, usize),
) -> [[f32; W]; M] {
    let mut acc = [[0.0f32; W]; M];
    for (a_step, b_row) in a_steps.zip(b.chunks_exact(b_rs)) {
        let b_row: &[f32; W] = b_row[j0..j0 + W]
            .try_into()
            .expect("a B row is W wide by construction");
        for (acc_r, av) in acc.iter_mut().zip(a_step) {
            for (o, &bv) in acc_r.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
    acc
}

/// Rows `r0..r0 + mr` of the row-major `[_ × k]` matrix `a`, read in place.
/// A short tile (fewer than `M` rows left) repeats its last row; the
/// repeats are computed and never stored.
#[inline(always)]
fn rows_of<const M: usize>(a: &[f32], k: usize, r0: usize, mr: usize) -> [&[f32]; M] {
    std::array::from_fn(|r| &a[(r0 + r.min(mr - 1)) * k..][..k])
}

/// The steps of in-place left-operand rows, each `k` long. (`array::map`
/// over the rows keeps the tile out of registers; indexing them does not.)
#[inline(always)]
fn columns<'a, const M: usize>(rows: &'a [&'a [f32]; M], k: usize) -> impl Iterator<Item = [f32; M]> + 'a {
    (0..k).map(move |kk| std::array::from_fn(|r| rows[r][kk]))
}

/// The steps of a packed step-major left-operand panel.
#[inline(always)]
fn steps<const M: usize>(p: &[f32]) -> impl Iterator<Item = [f32; M]> + '_ {
    p.chunks_exact(M).map(|s| s.try_into().expect("a step is M wide by construction"))
}

/// Tiles covering `0..len` in steps of `w`, as `(start, width)`: full tiles,
/// the last one shifted back to end at `len` (it overlaps its neighbour and
/// recomputes those elements bit for bit), or one short tile if `len < w`.
fn tiles(len: usize, w: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..len).step_by(w).map(move |t| {
        if len < w {
            (0, len)
        } else {
            (t.min(len - w), w)
        }
    })
}

/// The row-major `[k × n]` right operand as `(matrix, row stride)` at least
/// `w` columns wide: `b` itself when `n ≥ w`, else a copy in `panel`
/// (`k · w` floats) whose lanes past `n` are zeroed.
fn wide<'p>(
    b: &'p [f32],
    k: usize,
    n: usize,
    w: usize,
    panel: &'p mut [f32],
) -> (&'p [f32], usize) {
    if n >= w {
        return (b, n);
    }
    let panel = &mut panel[..k * w];
    panel.fill(0.0);
    for (p, b_row) in panel.chunks_exact_mut(w).zip(b.chunks_exact(n)) {
        p[..n].copy_from_slice(b_row);
    }
    (panel, w)
}

/// Rows `j0..j0 + live` of the row-major `[_ × k]` matrix `b`, transposed
/// into the `[k × L]` panel. Lanes past `live` repeat the last row; they are
/// computed and never stored.
fn pack_t<const L: usize>(b: &[f32], k: usize, j0: usize, live: usize, panel: &mut [f32]) {
    let rows: [&[f32]; L] = rows_of(b, k, j0, live);
    for (kk, p) in panel[..k * L].chunks_exact_mut(L).enumerate() {
        for (v, row) in p.iter_mut().zip(&rows) {
            *v = row[kk];
        }
    }
}

/// Stores rows `0..mr`, lanes `0..w` of a finished tile at row `t0`, column
/// `j0` of the row-major output `c` (row width `n`).
#[inline(always)]
fn store<const M: usize, const W: usize>(
    acc: &[[f32; W]; M],
    c: &mut [f32],
    n: usize,
    (t0, mr): (usize, usize),
    (j0, w): (usize, usize),
) {
    // A whole tile stores straight from its registers; only a tile shorter
    // or narrower than the output (`m < M` or `n < W`) stores a prefix.
    if mr == M && w == W {
        for (r, acc_r) in acc.iter().enumerate() {
            let dst: &mut [f32; W] = (&mut c[(t0 + r) * n + j0..][..W])
                .try_into()
                .expect("a tile row is W wide");
            *dst = *acc_r;
        }
    } else {
        for (r, acc_r) in acc.iter().enumerate().take(mr) {
            c[(t0 + r) * n + j0..][..w].copy_from_slice(&acc_r[..w]);
        }
    }
}

std::thread_local! {
    /// Per-thread packing scratch: grows to the largest call's
    /// `k · (NR_WIDE + MR)` floats once, then every call reuses it, so a
    /// warmed-up GEMM never touches the allocator or the tensor pool.
    /// Packers overwrite what they use before it is read.
    static SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with this thread's scratch grown to at least `len` floats.
fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    SCRATCH.with(|cell| {
        let mut s = cell.borrow_mut();
        if s.len() < len {
            s.resize(len, 0.0);
        }
        f(&mut s[..len])
    })
}

/// Scratch floats one serial GEMM of depth `k` needs.
fn scratch_len(k: usize) -> usize {
    k * (NR_WIDE + MR)
}

/// One GEMM call's operands: `bt` products of `kind`, each `[m × n]`, the
/// operand `x` of batch `bi` at `x[bi · x_step..]` (a step of 0 broadcasts
/// one matrix to every batch).
#[derive(Clone, Copy)]
struct Job<'a> {
    kind: Kind,
    m: usize,
    k: usize,
    n: usize,
    a: (&'a [f32], usize),
    b: (&'a [f32], usize),
}

impl<'a> Job<'a> {
    fn a_of(&self, bi: usize) -> &'a [f32] {
        &self.a.0[bi * self.a.1..][..self.m * self.k]
    }

    fn b_of(&self, bi: usize) -> &'a [f32] {
        &self.b.0[bi * self.b.1..][..self.k * self.n]
    }
}

/// Serial core: rows `i0..i0 + rows` of every batch from `b0` on, written
/// through into `c` (`rows × n` floats per batch, as many batches as `c`
/// holds). The tile shape is picked once for the whole block.
fn gemm_block(job: &Job, b0: usize, (i0, rows): (usize, usize), c: &mut [f32]) {
    if job.k == 0 {
        c.fill(0.0);
        return;
    }
    with_scratch(scratch_len(job.k), |s| {
        if job.kind == Kind::Nt && rows <= NR_NARROW && job.n > NR_NARROW {
            with_tile_shape!(job.n, rows, nt_narrow(job, b0, (i0, rows), c, s));
        } else {
            with_tile_shape!(rows, job.n, gemm_tiles(job, b0, (i0, rows), c, s));
        }
    });
}

/// [`gemm_block`] with `M × W` tiles. `a·b` and `aᵀ·b` read `b` in place
/// for every row tile (copied into `b_panel` only when narrower than a
/// tile). `aᵀ·b` reads a tile's `M` columns of `a` in place, `M` consecutive
/// floats of each row of `a`; only when `a` has fewer than `M` columns does
/// it pack them into `a_panel`, repeating the last.
fn gemm_tiles<const M: usize, const W: usize>(
    job: &Job,
    b0: usize,
    (i0, rows): (usize, usize),
    c: &mut [f32],
    scratch: &mut [f32],
) {
    let Job { kind, m, k, n, .. } = *job;
    let batches = (b0..).zip(c.chunks_exact_mut(rows * n));
    let (b_panel, a_panel) = scratch.split_at_mut(k * W);
    if kind == Kind::Nt {
        // Strip-outer: each packed strip of bᵀ serves every row tile.
        for (bi, c_one) in batches {
            let (a, b) = (job.a_of(bi), job.b_of(bi));
            for (j0, w) in tiles(n, W) {
                pack_t::<W>(b, k, j0, w, b_panel);
                for (t0, mr) in tiles(rows, M) {
                    let lhs = rows_of::<M>(a, k, i0 + t0, mr);
                    let acc = tile::<M, W>(columns(&lhs, k), (&b_panel[..k * W], W, 0));
                    store(&acc, c_one, n, (t0, mr), (j0, w));
                }
            }
        }
        return;
    }
    for (bi, c_one) in batches {
        let a = job.a_of(bi);
        let b = wide(job.b_of(bi), k, n, W, b_panel);
        for (t0, mr) in tiles(rows, M) {
            let r0 = i0 + t0;
            let out = (&mut *c_one, n, (t0, mr));
            if kind == Kind::Tn && mr == M {
                let in_place = || {
                    a.chunks_exact(m).map(move |row| -> [f32; M] {
                        row[r0..r0 + M].try_into().expect("a step is M wide")
                    })
                };
                strips::<M, W, _>(in_place, b, out);
            } else if kind == Kind::Tn {
                let panel = &mut a_panel[..k * M];
                for (p, a_row) in panel.chunks_exact_mut(M).zip(a.chunks_exact(m)) {
                    for (r, v) in p.iter_mut().enumerate() {
                        *v = a_row[r0 + r.min(mr - 1)];
                    }
                }
                strips::<M, W, _>(|| steps(panel), b, out);
            } else {
                let lhs = rows_of::<M>(a, k, r0, mr);
                strips::<M, W, _>(|| columns(&lhs, k), b, out);
            }
        }
    }
}

/// One row tile times every column strip of `(b, b_rs)`, stored at row `t0`
/// of `c` (row width `n`).
#[inline(always)]
fn strips<const M: usize, const W: usize, I: Iterator<Item = [f32; M]>>(
    a_steps: impl Fn() -> I,
    (b, b_rs): (&[f32], usize),
    (c, n, rows): (&mut [f32], usize, (usize, usize)),
) {
    for (j0, w) in tiles(n, W) {
        let acc = tile::<M, W>(a_steps(), (b, b_rs, j0));
        store(&acc, c, n, rows, (j0, w));
    }
}

/// `a·bᵀ` for the at most [`NR_NARROW`] rows of `a` (queries against a
/// window's segments): computes `cᵀ = b·aᵀ` instead, `M`-row tiles running
/// down the rows of `b` in place and lanes over the rows of `a`, so only the
/// narrow operand is transposed, once per call when `a` is broadcast. Each
/// element is the same dot product in either orientation. Each finished
/// tile is stored transposed.
fn nt_narrow<const M: usize, const W: usize>(
    job: &Job,
    b0: usize,
    rows: (usize, usize),
    c: &mut [f32],
    scratch: &mut [f32],
) {
    if rows.1 == W {
        nt_narrow_tiles::<true, M, W>(job, b0, rows, c, scratch);
    } else {
        nt_narrow_tiles::<false, M, W>(job, b0, rows, c, scratch);
    }
}

/// [`nt_narrow`] for `a` with `W` rows (`FULL`) or fewer. With every lane
/// live, a whole tile is stored one output row at a time from fixed lanes;
/// otherwise lane by lane. The two stores live in separate instances: in
/// one, the AVX2 build slowed the six-lane case by a sixth.
#[inline(never)]
fn nt_narrow_tiles<const FULL: bool, const M: usize, const W: usize>(
    job: &Job,
    b0: usize,
    (i0, rows): (usize, usize),
    c: &mut [f32],
    scratch: &mut [f32],
) {
    let (k, n) = (job.k, job.n);
    let panel = &mut scratch[..k * W];
    for (bi, c_one) in (b0..).zip(c.chunks_exact_mut(rows * n)) {
        if bi == b0 || job.a.1 != 0 {
            pack_t::<W>(&job.a_of(bi)[i0 * k..], k, 0, rows, panel);
        }
        let b = job.b_of(bi);
        for (t0, mr) in tiles(n, M) {
            let lhs = rows_of::<M>(b, k, t0, mr);
            let acc = tile::<M, W>(columns(&lhs, k), (&panel[..], W, 0));
            if FULL && mr == M {
                for i in 0..W {
                    let dst: &mut [f32; M] = (&mut c_one[i * n + t0..][..M])
                        .try_into()
                        .expect("a tile spans M outputs");
                    *dst = std::array::from_fn(|r| acc[r][i]);
                }
            } else {
                for i in 0..rows {
                    for (d, acc_r) in c_one[i * n + t0..][..mr].iter_mut().zip(&acc) {
                        *d = acc_r[i];
                    }
                }
            }
        }
    }
}

/// Which product a GEMM computes.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// `a[m×k] · b[k×n]`.
    Nn,
    /// `a[m×k] · (b[n×k])ᵀ`.
    Nt,
    /// `(a[k×m])ᵀ · b[k×n]`.
    Tn,
}

/// Counts one GEMM entry in the `focus-trace` registry, bucketed by
/// transpose kind and whether the dispatch may split it across threads.
/// Every counted site runs on the coordinating thread (worker closures call
/// [`gemm_block`] directly), so the counts are thread-count-invariant.
fn trace_gemm(batched: bool, kind: Kind, macs: usize) {
    if !focus_trace::enabled() {
        return;
    }
    // Static name table: the trace registry keys on `&'static str`.
    const NAMES: [[[&str; 2]; 3]; 2] = [
        [
            ["gemm/nn_tiled", "gemm/nn_par"],
            ["gemm/nt_tiled", "gemm/nt_par"],
            ["gemm/tn_tiled", "gemm/tn_par"],
        ],
        [
            ["bmm/nn_tiled", "bmm/nn_par"],
            ["bmm/nt_tiled", "bmm/nt_par"],
            ["bmm/tn_tiled", "bmm/tn_par"],
        ],
    ];
    let ki = match kind {
        Kind::Nn => 0,
        Kind::Nt => 1,
        Kind::Tn => 2,
    };
    let par = usize::from(macs >= PAR_MIN_MACS);
    focus_trace::counter_add(NAMES[usize::from(batched)][ki][par], 1);
}

/// Dispatches one GEMM, written through into `c`: serial below
/// [`PAR_MIN_MACS`], split into row blocks across threads above it.
/// Bitwise-identical either way.
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
    trace_gemm(false, kind, macs);
    if m == 0 || n == 0 {
        return;
    }
    let job = Job { kind, m, k, n, a: (a, 0), b: (b, 0) };
    let block = |row0: usize, c_block: &mut [f32]| gemm_block(&job, 0, (row0, c_block.len() / n), c_block);
    if macs < PAR_MIN_MACS {
        block(0, c);
    } else {
        let grain_rows = PAR_GRAIN_MACS.div_ceil(k * n).max(MR);
        par::parallel_rows(c, n, grain_rows, MR, block);
    }
}

/// Dispatches `bt` independent GEMMs into consecutive `[m × n]` blocks of
/// `c`. Each operand is `(slice, batch stride)`; a stride of 0 broadcasts
/// one matrix to every batch.
///
/// Many small batches split across threads by batch, each thread's batches
/// in one [`gemm_block`]; few large batches split inside each GEMM instead.
#[allow(clippy::too_many_arguments)]
pub(crate) fn bmm_dispatch(
    kind: Kind,
    bt: usize,
    m: usize,
    k: usize,
    n: usize,
    a: (&[f32], usize),
    b: (&[f32], usize),
    c: &mut [f32],
) {
    let per_batch_macs = m * k * n;
    let total_macs = bt * per_batch_macs;
    trace_gemm(true, kind, total_macs);
    if m == 0 || n == 0 {
        return;
    }
    let job = Job { kind, m, k, n, a, b };
    let batch_grain = PAR_GRAIN_MACS.div_ceil(per_batch_macs.max(1)).max(1);
    let sweep = |b0: usize, chunk: &mut [f32]| gemm_block(&job, b0, (0, m), chunk);
    if total_macs < PAR_MIN_MACS {
        sweep(0, c);
    } else if bt >= 2 * batch_grain {
        par::parallel_rows(c, m * n, batch_grain, 1, sweep);
    } else {
        for (bi, c_one) in c.chunks_exact_mut(m * n).enumerate() {
            gemm_dispatch(kind, m, k, n, job.a_of(bi), job.b_of(bi), c_one);
        }
    }
}

/// `c[m×n] = Σ_bi a[bi] · b[bi]` over `bt` batches of `[m×k] · [k×n]`,
/// written through. Each batch's product is its own chain from `+0.0`, and
/// the products are added into `c` in ascending batch order starting from
/// `+0.0` — the chain of zeroing `c` and `axpy`-ing each zeroed per-batch
/// product into it, kept in registers.
pub(crate) fn bmm_sum(
    bt: usize,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    if k == 0 || bt == 0 {
        c.fill(0.0);
        return;
    }
    with_scratch(scratch_len(k), |s| {
        with_tile_shape!(m, n, bmm_sum_tiles((bt, m, k, n), a, b, c, s))
    });
}

/// [`bmm_sum`] with `M × W` tiles: each output tile sums its batches'
/// products in registers, in ascending batch order.
fn bmm_sum_tiles<const M: usize, const W: usize>(
    (bt, m, k, n): (usize, usize, usize, usize),
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    scratch: &mut [f32],
) {
    for (t0, mr) in tiles(m, M) {
        for (j0, w) in tiles(n, W) {
            let mut sum = [[0.0f32; W]; M];
            for bi in 0..bt {
                let lhs = rows_of::<M>(&a[bi * m * k..][..m * k], k, t0, mr);
                let b = wide(&b[bi * k * n..][..k * n], k, n, W, scratch);
                let acc = batch_tile::<M, W>(&lhs, k, b, j0);
                for (s_r, acc_r) in sum.iter_mut().zip(&acc) {
                    for (o, &v) in s_r.iter_mut().zip(acc_r) {
                        *o += v;
                    }
                }
            }
            store(&sum, c, n, (t0, mr), (j0, w));
        }
    }
}

/// One batch's tile of [`bmm_sum`]. Kept out of line: inlined beside the
/// running sums, the `4 × 8` tile lost a quarter of its speed.
#[inline(never)]
fn batch_tile<const M: usize, const W: usize>(
    lhs: &[&[f32]; M],
    k: usize,
    (b, b_rs): (&[f32], usize),
    j0: usize,
) -> [[f32; W]; M] {
    tile::<M, W>(columns(lhs, k), (b, b_rs, j0))
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
        let mut out = Tensor::uninit(&[m, n]);
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
        let mut out = Tensor::uninit(&[m, n]);
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
        let mut out = Tensor::uninit(&[m, n]);
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
        let mut out = Tensor::uninit(&[b, m, n]);
        let (lhs, rhs) = ((self.data(), m * k), (other.data(), k * n));
        bmm_dispatch(Kind::Nn, b, m, k, n, lhs, rhs, out.data_mut());
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
        let mut out = Tensor::uninit(&[b, m, n]);
        let (lhs, rhs) = ((self.data(), m * k), (other.data(), n * k));
        bmm_dispatch(Kind::Nt, b, m, k, n, lhs, rhs, out.data_mut());
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
        let mut out = Tensor::uninit(&[b, m, n]);
        let (lhs, rhs) = ((self.data(), k * m), (other.data(), k * n));
        bmm_dispatch(Kind::Tn, b, m, k, n, lhs, rhs, out.data_mut());
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

    /// A one-hot assignment matrix selects rows bit for bit, on both the
    /// reference and the tiled kernel: `0.0 + 1.0·h` is exact, and each
    /// zero term adds an exact `±0.0` to a chain that is never `−0.0`.
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
