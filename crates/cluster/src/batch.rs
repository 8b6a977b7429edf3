//! The fused Eq. 6 sweep kernel: composite distances from segment panels to
//! prototypes, with the epilogue and the reduction in registers.
//!
//! Expanding the square and normalising both sides turns Eq. 6 into two dot
//! products per `(segment, prototype)` pair plus per-row constants:
//!
//! ```text
//! ‖x − c‖²   = ‖x‖² − 2·x·c + ‖c‖²          (expand the square)
//! corr(x, c) = x̂ · ĉ,   v̂ = (v − mean(v)) / ‖v − mean(v)‖
//! d(x, c)    = max(‖x‖² − 2·x·c + ‖c‖², 0) + α·(1 − clamp(x̂·ĉ, −1, 1))
//! ```
//!
//! **Layout.** A [`SegmentCache`] stores the segments in blocks of
//! [`LANES`] rows, one record per block: the raw rows as a `[p, LANES]`
//! panel (step `t` of row `16b + r` at `t·LANES + r`), the centred-normalised
//! rows `x̂` as a second `[p, LANES]` panel (absent when α = 0), and `‖x‖²`
//! per lane. Rows past `n` are zero. Each lane's statistics are f64 chains
//! over `t` in ascending order, the chains a row-by-row pass accumulates, so
//! the panels hold the bits a row-major cache would. A [`CenterCache`] runs
//! the prototypes through the same code and keeps them as an interleaved
//! pair table `[p, k, 2]` — step `t` of center `j` as `(c_jt, ĉ_jt)`, so a
//! pass reads all of a step's scalars from one run — plus `‖c_j‖²`.
//!
//! **Kernel.** Per block, a pass takes [`CHAINS`] = 16 accumulators of 16
//! lanes: 16 centers under Rec Only, or 8 centers with both chains under
//! Rec+Corr. Each step is one vector load of the panel and, per chain, one
//! broadcast multiply and one add. An 8-center Rec+Corr pass runs its raw
//! chains to the end and through their part of the epilogue before it
//! starts the correlation chains, so only half of its accumulators are live
//! at once; a narrower pass runs both chains in one loop, and a one-center
//! pass runs both chains of two blocks in one loop.
//! The Eq. 6 epilogue then runs on the accumulators, and each caller
//! reduces the finished `[J, LANES]` tile in place: the k-means++ sweep
//! lowers its running minimum and keeps the pick that set it
//! ([`lower_to_pick`]), the assignment sweep keeps a strict-`<` argmin
//! over ascending `j` ([`assign_batched`]), soft routing writes the rows
//! out ([`distance_matrix`]). No `[n, k]` scratch exists. Threads split
//! the blocks.
//!
//! **Same bits as the GEMM.** Each dot is an `f32` chain over `t` in
//! ascending order from `+0.0`, one multiply then one add per step — exactly
//! `focus_tensor::reference::gemm_nt`'s chain, the contract every tiled GEMM
//! in `focus-tensor` keeps, and the epilogue is the expression the GEMM
//! route applied. Chains of different lanes and centers never mix, so
//! neither the panel layout, nor the center tiling, nor the thread split
//! moves a bit: the kernel returns the distances two `X·Cᵀ` GEMMs plus the
//! epilogue would, and `tests/properties.rs` holds it to that reference bit
//! for bit at 1, 2 and 4 threads.
//!
//! The scalar oracle ([`Objective::distance`]) accumulates in `f64`, so it
//! agrees with the kernel to roundoff (~1e-5 relative), not bitwise; argmin
//! assignments agree whenever the best/second-best margin exceeds that
//! roundoff, and exact ties (duplicate prototypes) resolve identically
//! because both scan prototypes in ascending index with a strict `<`.

use crate::objective::Objective;
use focus_tensor::{par, pool, stats, work, Tensor};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Rows per panel block: one 16-lane accumulator per dot chain.
const LANES: usize = 16;

/// Dot chains per pass over a block (`CHAINS` centers, or `CHAINS / 2`
/// with the correlation chain, which [`tile`] then runs after the raw
/// ones): enough independent chains to hide the add latency. At 256-bit
/// vectors a chain takes two registers, so a Rec+Corr loop's 8 chains fill
/// half of AVX-512's 32 and Rec Only's 16 fill them all; an AVX2 build
/// spills some, yet a whole offline fit still measured faster with 16
/// chains than with 4 there.
const CHAINS: usize = 16;

/// Minimum multiply–accumulates per thread before a sweep splits its
/// blocks across threads.
const SWEEP_GRAIN_MACS: usize = 64 * 1024;

/// Minimum segment values per thread before the cache build goes parallel.
const BUILD_GRAIN: usize = 16 * 1024;

/// Per-prototype data of one sweep: the interleaved pair table and the
/// squared norms.
#[derive(Clone, Debug)]
pub(crate) struct CenterCache {
    k: usize,
    p: usize,
    /// `[p, k, 2]`: step `t` of every center as the pairs `(c_jt, ĉ_jt)`,
    /// so one pass reads a tile's scalars of a step from one place. `ĉ` is
    /// zero for a constant center (so `x̂·ĉ = 0` reproduces the scalar
    /// `corr = 0`) and when α = 0 (the correlation chain is then never run).
    pairs: Vec<f32>,
    /// `‖c_j‖²` per center, f64-accumulated.
    sq_norms: Vec<f32>,
    /// Correlation weight of the objective.
    alpha: f32,
}

impl CenterCache {
    /// The cache of every row of `centers: [k, p]`.
    pub(crate) fn new(centers: &Tensor, objective: &Objective) -> CenterCache {
        assert_eq!(centers.rank(), 2, "centers must be [k, p]");
        let (k, p) = (centers.dims()[0], centers.dims()[1]);
        CenterCache::build(centers.data(), k, p, objective)
    }

    /// The cache of the single center `center` (one k-means++ pick).
    pub(crate) fn one(center: &[f32], objective: &Objective) -> CenterCache {
        CenterCache::build(center, 1, center.len(), objective)
    }

    /// Centers get their norms and unit rows from the segments' code path,
    /// so both sides of every dot are normalised by the same arithmetic.
    fn build(data: &[f32], k: usize, p: usize, objective: &Objective) -> CenterCache {
        let rows = SegmentCache::from_rows(data, k, p, objective);
        let mut pairs = vec![0.0f32; k * p * 2];
        let mut sq_norms = vec![0.0f32; k];
        for (j, c2) in sq_norms.iter_mut().enumerate() {
            let (panel, r) = (rows.panel(j / LANES), j % LANES);
            *c2 = panel.sq_norms[r];
            for (t, &c) in panel.raw_row(r).enumerate() {
                pairs[(t * k + j) * 2] = c;
            }
            for (t, &u) in panel.unit_row(r).enumerate() {
                pairs[(t * k + j) * 2 + 1] = u;
            }
        }
        CenterCache {
            k,
            p,
            pairs,
            sq_norms,
            alpha: objective.alpha(),
        }
    }
}

/// The per-segment inputs of every sweep over a `[n, p]` segment matrix,
/// stored once as zero-padded panel blocks (see the module docs): the raw
/// rows, the centred-normalised rows `x̂_i` (zero for constant segments;
/// absent when the objective has no correlation term) and `‖x_i‖²`.
///
/// A fit builds one cache ([`SegmentCache::for_fit`]) and shares it by
/// every k-means++ sweep and every assignment sweep; its build also writes
/// `x̂` in row-major order for the update step's bucket pass. One-shot
/// [`crate::Prototypes`] calls build one per call, without those rows.
/// Blocks are filled independently, so the cache is bitwise the same at any
/// thread count, and a fit's sweeps equal one-shot calls bit for bit. The
/// block buffer comes from the tensor pool and goes back to it on drop.
pub(crate) struct SegmentCache {
    n: usize,
    p: usize,
    corr: bool,
    /// `⌈n / LANES⌉` block records of `record_len(p, corr)` floats.
    blocks: Vec<f32>,
}

impl Drop for SegmentCache {
    fn drop(&mut self) {
        pool::give(std::mem::take(&mut self.blocks));
    }
}

/// Floats per block record: the raw panel, the unit panel if any, and the
/// lane norms.
fn record_len(p: usize, corr: bool) -> usize {
    (1 + usize::from(corr)) * p * LANES + LANES
}

/// One block of [`LANES`] segment rows.
#[derive(Clone, Copy)]
struct Panel<'a> {
    /// `[p, LANES]` raw rows.
    raw: &'a [f32],
    /// `[p, LANES]` centred-normalised rows; empty without the correlation
    /// term.
    unit: &'a [f32],
    /// `‖x‖²` per lane.
    sq_norms: &'a [f32; LANES],
}

impl<'a> Panel<'a> {
    /// The block's raw row `r`, in ascending `t`.
    fn raw_row(&self, r: usize) -> impl Iterator<Item = &'a f32> {
        self.raw.get(r..).unwrap_or_default().iter().step_by(LANES)
    }

    /// The block's centred-normalised row `r`, in ascending `t`; empty
    /// without the correlation term.
    fn unit_row(&self, r: usize) -> impl Iterator<Item = &'a f32> {
        self.unit.get(r..).unwrap_or_default().iter().step_by(LANES)
    }
}

impl SegmentCache {
    #[cfg(test)]
    pub(crate) fn new(segments: &Tensor, objective: &Objective) -> SegmentCache {
        assert_eq!(segments.rank(), 2, "segments must be [n, p]");
        let (n, p) = (segments.dims()[0], segments.dims()[1]);
        SegmentCache::from_rows(segments.data(), n, p, objective)
    }

    /// The cache of the `n` row-major rows of `data`, `p` wide.
    pub(crate) fn from_rows(data: &[f32], n: usize, p: usize, objective: &Objective) -> SegmentCache {
        SegmentCache::build(data, n, p, objective, &mut []).0
    }

    /// A fit's cache of `segments: [n, p]`, plus the centred-normalised rows
    /// `x̂_i` (all-zero when flat) in row-major order, padded to whole
    /// blocks, in a tensor-pool buffer, when `unit_rows` is set and the
    /// objective has a correlation term (else empty). The fit's bucket pass
    /// adds whole rows into its f64 sums, one vector per row, where a row
    /// read from the panel is a stride-16 gather; each block writes its rows
    /// while they are still in cache.
    ///
    /// `Err(i)`: segment `i` is the first to hold a NaN or an infinity. A
    /// lane's f64 `‖x‖²` is finite exactly when its row is (the square of
    /// any finite `f32` is far inside f64's range), so clean data pays no
    /// pass of its own for the check.
    pub(crate) fn for_fit(
        segments: &Tensor,
        objective: &Objective,
        unit_rows: bool,
    ) -> Result<(SegmentCache, Vec<f32>), usize> {
        assert_eq!(segments.rank(), 2, "segments must be [n, p]");
        let (n, p) = (segments.dims()[0], segments.dims()[1]);
        let mut rows = if unit_rows && objective.alpha() > 0.0 {
            pool::take(n.div_ceil(LANES) * LANES * p)
        } else {
            Vec::new()
        };
        let (cache, first_bad) = SegmentCache::build(segments.data(), n, p, objective, &mut rows);
        if first_bad < n {
            pool::give(rows);
            return Err(first_bad);
        }
        Ok((cache, rows))
    }

    /// The cache of `n` rows of `data`, writing `x̂` row-major into
    /// `unit_rows` unless it is empty, and the first row holding a
    /// non-finite value (`usize::MAX` if none).
    fn build(data: &[f32], n: usize, p: usize, objective: &Objective, unit_rows: &mut [f32]) -> (SegmentCache, usize) {
        let corr = objective.alpha() > 0.0;
        let stride = record_len(p, corr);
        // Per value: the square and the sum (3 FLOPs); with the correlation
        // term also the centred square and the normalised value (5 more).
        work::add_flops(n * p * if corr { 8 } else { 3 });
        // A recycled pool buffer: `fill_block` writes every element, padding
        // lanes included, so no zeroing pass runs, and a repeated build of
        // the same size (a refit, a routed window) allocates nothing.
        let mut blocks = pool::take(n.div_ceil(LANES) * stride);
        let first_bad = AtomicUsize::new(usize::MAX);
        if p == 0 {
            blocks.fill(0.0);
        } else {
            let grain_blocks = BUILD_GRAIN.div_ceil(LANES * p).max(1);
            let fill_block: FillBlock = match p {
                8 => fill_block::<8>,
                16 => fill_block::<16>,
                _ => fill_block::<0>,
            };
            let fill = |b: usize, record: &mut [f32], unit_rows: &mut [f32]| {
                let rows = &data[b * LANES * p..n.min((b + 1) * LANES) * p];
                if let Some(r) = fill_block(rows, p, corr, record, unit_rows) {
                    first_bad.fetch_min(b * LANES + r, Ordering::Relaxed);
                }
            };
            if unit_rows.is_empty() {
                par::parallel_rows(&mut blocks, stride, grain_blocks, 1, |b0, chunk| {
                    for (b, record) in (b0..).zip(chunk.chunks_exact_mut(stride)) {
                        fill(b, record, &mut []);
                    }
                });
            } else {
                assert!(corr, "unit rows exist only with the correlation term");
                par::parallel_rows2(&mut blocks, stride, unit_rows, LANES * p, grain_blocks, |b0, chunk, rows| {
                    let blocks = chunk.chunks_exact_mut(stride).zip(rows.chunks_exact_mut(LANES * p));
                    for (b, (record, unit_rows)) in (b0..).zip(blocks) {
                        fill(b, record, unit_rows);
                    }
                });
            }
        }
        (SegmentCache { n, p, corr, blocks }, first_bad.into_inner())
    }

    fn panel(&self, b: usize) -> Panel<'_> {
        let stride = record_len(self.p, self.corr);
        let record = &self.blocks[b * stride..(b + 1) * stride];
        let (raw, rest) = record.split_at(self.p * LANES);
        let (unit, sq) = rest.split_at(rest.len() - LANES);
        Panel {
            raw,
            unit,
            sq_norms: sq.try_into().expect("a record ends in LANES norms"),
        }
    }

}

/// [`fill_block`] at one row width: the common segment lengths get their
/// own instance, whose loops have fixed trip counts (about 10% faster
/// blocks at `p = 8`).
type FillBlock = fn(&[f32], usize, bool, &mut [f32], &mut [f32]) -> Option<usize>;

/// Fills one block record from its at most [`LANES`] row-major rows (`p`
/// wide): the raw panel, then per lane `‖x‖²` and the centred-normalised
/// row `x̂ = (x − mean) / ‖x − mean‖`, which it also writes row-major into
/// `unit_rows` (`LANES` rows) unless that is empty. A row whose centred sum
/// of squares `sxx` falls at or under the shared scale-aware
/// [`stats::zero_variance`] floor normalises to all-zero, matching
/// `stats::pearson`'s zero-variance convention; an exactly constant row has
/// `sxx == 0`, since the f64 sum and mean of equal `f32` values are exact.
/// Each lane's statistics are f64 chains over `t` in ascending order, as a
/// row-by-row pass would accumulate them, and padding lanes read as flat
/// zero rows. Returns the first lane whose row holds a non-finite value.
/// `P > 0` fixes the width `p` at compile time.
fn fill_block<const P: usize>(rows: &[f32], p: usize, corr: bool, record: &mut [f32], unit_rows: &mut [f32]) -> Option<usize> {
    let p = if P > 0 { P } else { p };
    let (raw, rest) = record.split_at_mut(p * LANES);
    let (unit, sq) = rest.split_at_mut(rest.len() - LANES);
    if rows.len() < LANES * p {
        raw.fill(0.0);
    }
    for (t, step) in raw.chunks_exact_mut(LANES).enumerate() {
        for (o, row) in step.iter_mut().zip(rows.chunks_exact(p)) {
            *o = row[t];
        }
    }
    let mut x2 = [0.0f64; LANES];
    let mut sum = [0.0f64; LANES];
    for step in raw.chunks_exact(LANES) {
        for ((q, s), &x) in x2.iter_mut().zip(&mut sum).zip(step) {
            *q += (x as f64) * (x as f64);
            *s += x as f64;
        }
    }
    for (o, &q) in sq.iter_mut().zip(&x2) {
        *o = q as f32;
    }
    // An OR over the lanes, not an early-exit search, so clean blocks pay
    // one vector compare.
    let non_finite = if x2.iter().fold(false, |bad, q| bad | !q.is_finite()) {
        x2.iter().position(|q| !q.is_finite())
    } else {
        None
    };
    if !corr {
        return non_finite;
    }
    let mean = sum.map(|s| s / p as f64);
    let mut sxx = [0.0f64; LANES];
    let mut max_abs = [0.0f64; LANES];
    for step in raw.chunks_exact(LANES) {
        for (((v, m), &x), &mu) in sxx.iter_mut().zip(&mut max_abs).zip(step).zip(&mean) {
            let d = x as f64 - mu;
            *v += d * d;
            *m = m.max((x as f64).abs());
        }
    }
    let flat: [bool; LANES] = std::array::from_fn(|r| stats::zero_variance(sxx[r], p, max_abs[r]));
    let inv = sxx.map(|v| 1.0 / v.sqrt());
    for (ustep, step) in unit.chunks_exact_mut(LANES).zip(raw.chunks_exact(LANES)) {
        for (r, (u, &x)) in ustep.iter_mut().zip(step).enumerate() {
            *u = if flat[r] { 0.0 } else { ((x as f64 - mean[r]) * inv[r]) as f32 };
        }
    }
    if !unit_rows.is_empty() {
        for (t, ustep) in unit.chunks_exact(LANES).enumerate() {
            for (row, &u) in unit_rows.chunks_exact_mut(p).zip(ustep) {
                row[t] = u;
            }
        }
    }
    non_finite
}

/// One step of `J` dot chains: per lane `r`, `acc[jj][r] += v[r] ·
/// pairs[2·jj + side]`, `side` 0 for the raw chain and 1 for the
/// correlation chain. Lanes outer, centers inner: the lane loop becomes the
/// vector.
#[inline(always)]
fn chain_step<const J: usize>(acc: &mut [[f32; LANES]; J], v: &[f32], pairs: &[f32], side: usize) {
    let v: &[f32; LANES] = v.try_into().expect("a panel step is LANES wide");
    for r in 0..LANES {
        for jj in 0..J {
            acc[jj][r] += v[r] * pairs[2 * jj + side];
        }
    }
}

/// The reconstruction part of the Eq. 6 epilogue, `max(‖x‖² − 2·x·c +
/// ‖c‖², 0)`.
#[inline(always)]
fn rec_term(x2: f32, dot: f32, c2: f32) -> f32 {
    (x2 - 2.0 * dot + c2).max(0.0)
}

/// The correlation part of the Eq. 6 epilogue, `α·(1 − clamp(x̂·ĉ, −1, 1))`.
#[inline(always)]
fn corr_term(alpha: f32, unit_dot: f32) -> f32 {
    alpha * (1.0 - unit_dot.clamp(-1.0, 1.0))
}

/// Distances from the rows of `panel` to centers `j0 .. j0 + J`, as
/// `[J, LANES]`: the dots `x·c` (and, with `CORR`, `x̂·ĉ`) of every lane,
/// each one chain in ascending `t` from `+0.0`, one multiply then one add
/// per step, held in registers throughout, then the Eq. 6 epilogue, with
/// the correlation term only when `CORR` (α > 0). Both chains share one
/// loop while their `2·J` rows of accumulators fit half of [`CHAINS`]; a
/// wider tile (8 centers under Rec+Corr) runs its raw chains and their part
/// of the epilogue first, then its correlation chains, so at 256-bit vectors
/// its 16 registers of accumulators fit beside its operands instead of
/// spilling.
#[inline(always)]
fn tile<const J: usize, const CORR: bool>(panel: Panel<'_>, cache: &CenterCache, j0: usize) -> [[f32; LANES]; J] {
    let split = CORR && 2 * J > CHAINS / 2;
    let steps = cache.pairs.chunks_exact(2 * cache.k).map(|step| &step[2 * j0..2 * (j0 + J)]);
    let mut dot = [[0.0f32; LANES]; J];
    let mut unit_dot = [[0.0f32; LANES]; J];
    for (t, (x, pairs)) in panel.raw.chunks_exact(LANES).zip(steps.clone()).enumerate() {
        chain_step(&mut dot, x, pairs, 0);
        if CORR && !split {
            chain_step(&mut unit_dot, &panel.unit[t * LANES..(t + 1) * LANES], pairs, 1);
        }
    }
    let (x2, c2) = (panel.sq_norms, &cache.sq_norms[j0..j0 + J]);
    let mut d = [[0.0f32; LANES]; J];
    for r in 0..LANES {
        for jj in 0..J {
            d[jj][r] = rec_term(x2[r], dot[jj][r], c2[jj]);
        }
    }
    if CORR {
        if split {
            for (u, pairs) in panel.unit.chunks_exact(LANES).zip(steps) {
                chain_step(&mut unit_dot, u, pairs, 1);
            }
        }
        for r in 0..LANES {
            for jj in 0..J {
                d[jj][r] += corr_term(cache.alpha, unit_dot[jj][r]);
            }
        }
    }
    d
}

/// Distances from the rows of `B` consecutive blocks to the single center
/// `j`, as `[B, LANES]`, with [`tile`]'s chains and epilogue. One center
/// gives a block only one or two chains, too few to hide the add latency,
/// so both chains of all `B` blocks share one loop.
#[inline(always)]
fn one_center_tile<const B: usize, const CORR: bool>(
    panels: &[Panel<'_>; B],
    cache: &CenterCache,
    j: usize,
) -> [[f32; LANES]; B] {
    let mut dot = [[[0.0f32; LANES]; 1]; B];
    let mut unit_dot = [[[0.0f32; LANES]; 1]; B];
    for (t, step) in cache.pairs.chunks_exact(2 * cache.k).enumerate() {
        let pairs = &step[2 * j..2 * j + 2];
        let lanes = t * LANES..(t + 1) * LANES;
        for (b, panel) in panels.iter().enumerate() {
            chain_step(&mut dot[b], &panel.raw[lanes.clone()], pairs, 0);
            if CORR {
                chain_step(&mut unit_dot[b], &panel.unit[lanes.clone()], pairs, 1);
            }
        }
    }
    let c2 = cache.sq_norms[j];
    let mut d = [[0.0f32; LANES]; B];
    for (b, panel) in panels.iter().enumerate() {
        for r in 0..LANES {
            let rec = rec_term(panel.sq_norms[r], dot[b][0][r], c2);
            d[b][r] = if CORR { rec + corr_term(cache.alpha, unit_dot[b][0][r]) } else { rec };
        }
    }
    d
}

/// Runs `visit(j, d)` for every center in ascending `j`, `d` holding the
/// distances from the rows of `panel`.
#[inline(always)]
fn each_center(panel: Panel<'_>, cache: &CenterCache, visit: impl FnMut(usize, &[f32; LANES])) {
    if cache.alpha > 0.0 {
        centers::<{ CHAINS / 2 }, true>(panel, cache, visit);
    } else {
        centers::<CHAINS, false>(panel, cache, visit);
    }
}

/// [`each_center`] with the correlation term on or off, `J` centers per
/// pass.
#[inline(always)]
fn centers<const J: usize, const CORR: bool>(
    panel: Panel<'_>,
    cache: &CenterCache,
    mut visit: impl FnMut(usize, &[f32; LANES]),
) {
    let full = cache.k - cache.k % J;
    for j0 in (0..full).step_by(J) {
        for (jj, d) in tile::<J, CORR>(panel, cache, j0).iter().enumerate() {
            visit(j0 + jj, d);
        }
    }
    for j in full..cache.k {
        let [d] = tile::<1, CORR>(panel, cache, j);
        visit(j, &d);
    }
}

/// Runs `f(panel, out_rows)` for every block of a sweep against `cache`,
/// `out_rows` being the block's segments' rows of `out` (`row_len` values
/// each). Blocks split across threads on block boundaries once a thread
/// gets [`SWEEP_GRAIN_MACS`] of work.
fn for_each_panel<T: Send>(
    seg: &SegmentCache,
    cache: &CenterCache,
    out: &mut [T],
    row_len: usize,
    f: impl Fn(Panel<'_>, &mut [T]) + Sync,
) {
    let grain_rows = sweep_grain_rows(seg, cache);
    assert_eq!(out.len(), seg.n * row_len, "output length {} != {} rows of {row_len}", out.len(), seg.n);
    if out.is_empty() {
        return;
    }
    par::parallel_rows(out, row_len, grain_rows, LANES, |row0, chunk| {
        for (b, rows) in (row0 / LANES..).zip(chunk.chunks_mut(LANES * row_len)) {
            f(seg.panel(b), rows);
        }
    });
}

/// Checks that `seg` and `cache` belong to one sweep, counts the sweep's
/// FLOPs (per segment, center and dot chain, 2 per multiply–accumulate and 3
/// for the chain's share of the Eq. 6 epilogue) and returns its rows per
/// thread: a multiple of [`LANES`] worth [`SWEEP_GRAIN_MACS`].
fn sweep_grain_rows(seg: &SegmentCache, cache: &CenterCache) -> usize {
    assert_eq!(seg.p, cache.p, "segment width {} != prototype width {}", seg.p, cache.p);
    assert_eq!(seg.corr, cache.alpha > 0.0, "segment and center caches built for different objectives");
    let chains = 1 + usize::from(seg.corr);
    let macs_per_row = cache.k * cache.p * chains;
    work::add_flops(seg.n * (2 * macs_per_row + 3 * cache.k * chains));
    SWEEP_GRAIN_MACS.div_ceil(macs_per_row.max(1)).next_multiple_of(LANES)
}

/// The full `[n, k]` composite distance matrix.
pub(crate) fn distance_matrix(seg: &SegmentCache, cache: &CenterCache) -> Tensor {
    let k = cache.k;
    let mut out = Tensor::zeros(&[seg.n, k]);
    for_each_panel(seg, cache, out.data_mut(), k, |panel, block| {
        each_center(panel, cache, |j, d| {
            for (row, &v) in block.chunks_exact_mut(k).zip(d) {
                row[j] = v;
            }
        });
    });
    out
}

/// Nearest center per segment: fills `out[i] = (argmin_j d_ij, min_j d_ij)`
/// with the lowest-index tie-break (strict `<` over ascending `j`, exactly
/// like the scalar oracle). The argmin lanes are `u32`, the width of the
/// distance lanes, so the select vectorises without widening.
pub(crate) fn assign_batched(seg: &SegmentCache, cache: &CenterCache, out: &mut [(usize, f32)]) {
    focus_trace::span!("cluster/assign");
    let n = seg.n;
    focus_trace::counter_add("cluster/segments_assigned", n as u64);
    assert_eq!(out.len(), n, "output length {} != segment count {n}", out.len());
    assert!(u32::try_from(cache.k).is_ok(), "{} centers overflow the u32 argmin lanes", cache.k);
    for_each_panel(seg, cache, out, 1, |panel, block| {
        let mut best = [0u32; LANES];
        let mut best_d = [f32::INFINITY; LANES];
        each_center(panel, cache, |j, d| lower_lanes(&mut best_d, &mut best, d, j as u32));
        for ((o, &b), &bd) in block.iter_mut().zip(&best).zip(&best_d) {
            *o = (b as usize, bd);
        }
    });
}

/// Per lane, `(best_d, best) ← (d, j)` where `d < best_d`: the strict-`<`
/// argmin step of every sweep. Written as a bit mask, not a select: which
/// lanes move depends on the data, and LLVM turned the select into one
/// mispredicting branch per lane.
#[inline(always)]
fn lower_lanes(best_d: &mut [f32; LANES], best: &mut [u32; LANES], d: &[f32; LANES], j: u32) {
    for r in 0..LANES {
        let nearer = 0u32.wrapping_sub(u32::from(d[r] < best_d[r]));
        best_d[r] = f32::from_bits((d[r].to_bits() & nearer) | (best_d[r].to_bits() & !nearer));
        best[r] = (j & nearer) | (best[r] & !nearer);
    }
}

/// Blocks per one-center pass. Two blocks give 4 raw chains (8 with the
/// correlation chain) of 256-bit accumulators, which ran a k-means++ sweep
/// at 4 800×8 faster than one block or four.
const PICK_BLOCKS: usize = 2;

/// The running state of k-means++ seeding per segment: the distance to the
/// nearest pick so far and that pick's index, padded to whole blocks.
///
/// Picks arrive in ascending index, every sweep lowers with a strict `<`,
/// and each one-center sweep gives the assignment sweep's bits
/// (`kmeans_sweep_matches_distance_matrix`). So after the last pick,
/// [`NearestPick::hand_off`] is exactly what [`assign_batched`] returns on
/// the seeded centers, and a fit's first iteration needs no sweep of its
/// own.
pub(crate) struct NearestPick {
    n: usize,
    dists: Vec<f32>,
    picks: Vec<u32>,
}

impl NearestPick {
    /// No pick yet: every distance infinite.
    pub(crate) fn new(n: usize) -> NearestPick {
        let padded = n.div_ceil(LANES) * LANES;
        NearestPick {
            n,
            dists: vec![f32::INFINITY; padded],
            picks: vec![0; padded],
        }
    }

    /// The distance from each segment to its nearest pick.
    pub(crate) fn dists(&self) -> &[f32] {
        &self.dists[..self.n]
    }

    /// Fills `out[i]` with segment `i`'s nearest pick and its distance.
    pub(crate) fn hand_off(&self, out: &mut [(usize, f32)]) {
        assert_eq!(out.len(), self.n, "output length {} != segment count {}", out.len(), self.n);
        for ((o, &j), &d) in out.iter_mut().zip(&self.picks).zip(&self.dists) {
            *o = (j as usize, d);
        }
    }
}

/// One k-means++ sweep: lowers each segment's running distance to that to
/// pick `j`, the single center of `center`, wherever that is nearer, and
/// records `j` there. Runs [`PICK_BLOCKS`] blocks per pass.
pub(crate) fn lower_to_pick(seg: &SegmentCache, center: &CenterCache, j: usize, running: &mut NearestPick) {
    assert_eq!(center.k, 1, "a k-means++ sweep takes one center, got {}", center.k);
    assert_eq!(running.n, seg.n, "running state of {} segments for {} segments", running.n, seg.n);
    let grain_blocks = sweep_grain_rows(seg, center) / LANES;
    let j = u32::try_from(j).expect("pick index fits u32");
    let (dists, picks) = (&mut running.dists, &mut running.picks);
    if dists.is_empty() {
        return;
    }
    par::parallel_rows2(dists, LANES, picks, LANES, grain_blocks, |b0, dists, picks| {
        let group = LANES * PICK_BLOCKS;
        for (g, (dists, picks)) in dists.chunks_mut(group).zip(picks.chunks_mut(group)).enumerate() {
            let b = b0 + g * PICK_BLOCKS;
            let lanes = dists.chunks_exact_mut(LANES).zip(picks.chunks_exact_mut(LANES));
            if lanes.len() == PICK_BLOCKS {
                let panels: [Panel<'_>; PICK_BLOCKS] = std::array::from_fn(|i| seg.panel(b + i));
                for (d, (dl, pl)) in one_center_pass(&panels, center).iter().zip(lanes) {
                    lower_lanes(lanes_of(dl), lanes_of(pl), d, j);
                }
            } else {
                for (i, (dl, pl)) in lanes.enumerate() {
                    let [d] = one_center_pass(&[seg.panel(b + i)], center);
                    lower_lanes(lanes_of(dl), lanes_of(pl), &d, j);
                }
            }
        }
    });
}

/// [`lower_to_pick`] on bare running distances, the picks discarded.
#[cfg(test)]
pub(crate) fn lower_to_center(seg: &SegmentCache, center: &CenterCache, dists: &mut [f32]) {
    let mut running = NearestPick::new(dists.len());
    running.dists[..dists.len()].copy_from_slice(dists);
    lower_to_pick(seg, center, 0, &mut running);
    dists.copy_from_slice(running.dists());
}

/// A block's `LANES` entries of a padded per-segment buffer.
#[inline(always)]
fn lanes_of<T>(block: &mut [T]) -> &mut [T; LANES] {
    block.try_into().expect("padded buffers hold whole blocks")
}

/// [`one_center_tile`] with the correlation term on or off.
#[inline(always)]
fn one_center_pass<const B: usize>(panels: &[Panel<'_>; B], center: &CenterCache) -> [[f32; LANES]; B] {
    if center.alpha > 0.0 {
        one_center_tile::<B, true>(panels, center, 0)
    } else {
        one_center_tile::<B, false>(panels, center, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_case(n: usize, k: usize, p: usize, alpha: f32, seed: u64) -> (Tensor, Tensor, Objective) {
        let mut rng = StdRng::seed_from_u64(seed);
        let segs = Tensor::randn(&[n, p], 1.3, &mut rng);
        let centers = Tensor::randn(&[k, p], 1.0, &mut rng);
        let obj = if alpha > 0.0 { Objective::rec_corr(alpha) } else { Objective::RecOnly };
        (segs, centers, obj)
    }

    #[test]
    fn sweeps_count_their_dot_chains_and_epilogue() {
        use focus_tensor::work::measure;
        for (alpha, chains, stats) in [(0.0, 1, 3), (0.2, 2, 8)] {
            let (n, k, p) = (37, 5, 6);
            let (segs, centers, obj) = random_case(n, k, p, alpha, 4);
            let (seg, seg_work) = measure(|| SegmentCache::new(&segs, &obj));
            assert_eq!(seg_work.flops as usize, stats * n * p, "α {alpha}: segment statistics");
            let cache = CenterCache::new(&centers, &obj);
            // Per segment, center and chain: 2 per multiply–accumulate over
            // p steps, 3 for the epilogue.
            let sweep = n * k * chains * (2 * p + 3);
            let mut nearest = vec![(0, 0.0); n];
            let assign = measure(|| assign_batched(&seg, &cache, &mut nearest)).1;
            assert_eq!(assign.flops as usize, sweep);
            assert_eq!(measure(|| distance_matrix(&seg, &cache)).1.flops as usize, sweep);
        }
    }

    #[test]
    fn distance_matrix_matches_scalar_oracle() {
        for &(n, k, p, alpha, seed) in &[
            (7usize, 3usize, 5usize, 0.0f32, 1u64),
            (64, 8, 16, 0.2, 2),
            (130, 5, 32, 1.0, 3),
        ] {
            let (segs, centers, obj) = random_case(n, k, p, alpha, seed);
            let cache = CenterCache::new(&centers, &obj);
            let d = distance_matrix(&SegmentCache::new(&segs, &obj), &cache);
            for i in 0..n {
                for j in 0..k {
                    let scalar = obj.distance(segs.row(i), centers.row(j));
                    let gemm = d.at2(i, j);
                    let tol = 1e-4 * scalar.abs().max(1.0);
                    assert!(
                        (gemm - scalar).abs() <= tol,
                        "({n},{k},{p},{alpha}) d[{i},{j}]: gemm {gemm} vs scalar {scalar}"
                    );
                }
            }
        }
    }

    #[test]
    fn kmeans_sweep_matches_distance_matrix() {
        // The k-means++ sweep runs the same kernel on a one-center table,
        // so it lowers to the distance matrix's bits.
        for &(alpha, seed) in &[(0.0f32, 4u64), (0.2, 5), (1.0, 6)] {
            let (segs, centers, obj) = random_case(90, 4, 12, alpha, seed);
            let seg = SegmentCache::new(&segs, &obj);
            let d = distance_matrix(&seg, &CenterCache::new(&centers, &obj));
            for j in 0..4 {
                let mut lowered = vec![f32::INFINITY; 90];
                lower_to_center(&seg, &CenterCache::one(centers.row(j), &obj), &mut lowered);
                for (i, &l) in lowered.iter().enumerate() {
                    let want = d.at2(i, j);
                    assert_eq!(l.to_bits(), want.to_bits(), "α {alpha} d[{i},{j}]: {l} vs {want}");
                }
            }
        }
    }

    #[test]
    fn constant_rows_follow_zero_variance_convention() {
        // A flat segment against a flat center: rec = 0, corr defined as 0.
        let segs = Tensor::from_vec(vec![2.0, 2.0, 2.0, 2.0], &[1, 4]);
        let centers = Tensor::from_vec(vec![2.0, 2.0, 2.0, 2.0, 0.0, 1.0, 2.0, 3.0], &[2, 4]);
        let obj = Objective::rec_corr(0.5);
        let cache = CenterCache::new(&centers, &obj);
        let d = distance_matrix(&SegmentCache::new(&segs, &obj), &cache);
        assert!((d.at2(0, 0) - 0.5).abs() < 1e-6, "flat-vs-flat must cost α·(1−0)");
        let scalar = obj.distance(segs.row(0), centers.row(1));
        assert!((d.at2(0, 1) - scalar).abs() < 1e-4 * scalar.max(1.0));
    }

    #[test]
    fn large_magnitude_constant_rows_normalise_to_zero() {
        // A constant row at |v| ≈ 1e8 has no shape: its f64 mean is exact,
        // `sxx` is 0, and its unit row must be all-zero, never a division
        // by a zero norm.
        let unit_of = |row: Vec<f32>| {
            let segs = Tensor::from_vec(row, &[1, 6]);
            let (_, mut rows) = SegmentCache::for_fit(&segs, &Objective::paper_default(), true).expect("finite row");
            rows.truncate(6);
            rows
        };
        assert_eq!(unit_of(vec![1.0e8; 6]), vec![0.0; 6], "constant row must normalise to all-zero");

        // One real f32 step at the same magnitude is signal, not noise: the
        // result must be a genuine unit vector.
        let step = f32::from_bits(1.0e8f32.to_bits() + 1);
        let unit = unit_of(vec![1.0e8, step, 1.0e8, step, 1.0e8, step]);
        let norm: f64 = unit.iter().map(|&x| (x as f64) * (x as f64)).sum();
        assert!((norm - 1.0).abs() < 1e-3, "stepped row must normalise to unit, norm² = {norm}");
    }

    #[test]
    fn large_magnitude_constant_rows_keep_distances_finite() {
        // End-to-end: the correlation chain on guarded rows can never
        // produce NaN/inf, whatever the rec-term f32 cancellation does.
        let segs = Tensor::from_vec(vec![1.0e8; 6], &[1, 6]);
        let centers = Tensor::from_vec(
            vec![1.0e8, 1.0e8, 1.0e8, 1.0e8, 1.0e8, 1.0e8, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
            &[2, 6],
        );
        let obj = Objective::rec_corr(0.5);
        let cache = CenterCache::new(&centers, &obj);
        let d = distance_matrix(&SegmentCache::new(&segs, &obj), &cache);
        for j in 0..2 {
            assert!(d.at2(0, j).is_finite(), "d[0,{j}] must be finite, got {}", d.at2(0, j));
        }
        // The flat-vs-flat corr contribution is exactly α·(1−0); only the
        // rec term carries f32 cancellation noise, which is bounded by the
        // accumulated rounding of the ‖x‖²-scale dot products.
        let rec_noise = 6.0 * f32::EPSILON * 2.0 * 6.0e16;
        assert!(
            (d.at2(0, 0) - 0.5).abs() <= rec_noise,
            "flat-vs-flat: {} should be α + rec-cancellation noise",
            d.at2(0, 0)
        );
    }

    #[test]
    fn exact_ties_resolve_to_lowest_index() {
        // Duplicate centers produce bit-identical distance columns in both
        // paths; the strict-< scan must pick the first.
        let mut rng = StdRng::seed_from_u64(9);
        let segs = Tensor::randn(&[40, 8], 1.0, &mut rng);
        let c = Tensor::randn(&[1, 8], 1.0, &mut rng);
        let mut dup = c.data().to_vec();
        dup.extend_from_slice(c.data());
        dup.extend_from_slice(c.data());
        let centers = Tensor::from_vec(dup, &[3, 8]);
        let obj = Objective::rec_corr(0.2);
        let cache = CenterCache::new(&centers, &obj);
        let mut out = vec![(0usize, 0.0f32); 40];
        assign_batched(&SegmentCache::new(&segs, &obj), &cache, &mut out);
        for (i, &(j, _)) in out.iter().enumerate() {
            assert_eq!(j, 0, "segment {i} must tie-break to the lowest index");
        }
    }

    #[test]
    fn assign_batched_is_thread_count_invariant() {
        // `set_threads` is process-global: serialise against any other test
        // in this binary that sweeps the override.
        let _g = par::threads_guard();
        let (segs, centers, obj) = random_case(257, 6, 16, 0.2, 11);
        let cache = CenterCache::new(&centers, &obj);
        par::set_threads(1);
        let mut serial = vec![(0usize, 0.0f32); 257];
        assign_batched(&SegmentCache::new(&segs, &obj), &cache, &mut serial);
        for threads in [2, 4] {
            par::set_threads(threads);
            let mut t = vec![(0usize, 0.0f32); 257];
            assign_batched(&SegmentCache::new(&segs, &obj), &cache, &mut t);
            assert_eq!(t, serial, "{threads} threads");
        }
        par::set_threads(0);
    }
}

