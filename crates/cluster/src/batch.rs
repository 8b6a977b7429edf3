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
//! broadcast multiply and one add. The Eq. 6 epilogue then runs on the
//! accumulators, and each caller reduces the finished `[J, LANES]` tile in
//! place: the k-means++ sweep lowers its running minimum
//! ([`lower_to_center`]), the assignment sweep keeps a strict-`<` argmin
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
use focus_tensor::{par, pool, stats, Tensor};

/// Rows per panel block: one 16-lane accumulator per dot chain.
const LANES: usize = 16;

/// Dot chains per pass over a block (`CHAINS` centers, or `CHAINS / 2`
/// with the correlation chain): enough independent chains to hide the add
/// latency, and with AVX-512 every 16-lane accumulator stays in one of the
/// 32 vector registers. An AVX2 build spills some of them, yet a whole
/// offline fit still measured faster with 16 chains than with 4 there.
const CHAINS: usize = 16;

/// Minimum multiply–accumulates per thread before a sweep splits its
/// blocks across threads.
const SWEEP_GRAIN_MACS: usize = 64 * 1024;

/// Minimum segment values per thread before the cache build goes parallel.
const BUILD_GRAIN: usize = 16 * 1024;

/// Per-prototype data of one sweep: the interleaved pair table and the
/// squared norms.
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
/// A fit builds one cache and shares it by every k-means++ sweep and every
/// assignment sweep, and copies `x̂` out once for the update step's bucket
/// pass ([`SegmentCache::unit_rows`]); one-shot [`crate::Prototypes`] calls
/// build one per call. Blocks are filled independently, so the cache is
/// bitwise the same at any thread count, and a fit's sweeps equal one-shot
/// calls bit for bit. The block buffer comes from the tensor pool and goes
/// back to it on drop.
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
    pub(crate) fn new(segments: &Tensor, objective: &Objective) -> SegmentCache {
        assert_eq!(segments.rank(), 2, "segments must be [n, p]");
        let (n, p) = (segments.dims()[0], segments.dims()[1]);
        SegmentCache::from_rows(segments.data(), n, p, objective)
    }

    /// The cache of the `n` row-major rows of `data`, `p` wide.
    fn from_rows(data: &[f32], n: usize, p: usize, objective: &Objective) -> SegmentCache {
        let corr = objective.alpha() > 0.0;
        let stride = record_len(p, corr);
        // A recycled pool buffer: `fill_block` writes every element, padding
        // lanes included, so no zeroing pass runs, and a repeated build of
        // the same size (a refit, a routed window) allocates nothing.
        let mut blocks = pool::take(n.div_ceil(LANES) * stride);
        if p == 0 {
            blocks.fill(0.0);
        } else {
            let grain_blocks = BUILD_GRAIN.div_ceil(LANES * p).max(1);
            par::parallel_rows(&mut blocks, stride, grain_blocks, 1, |b0, chunk| {
                for (b, record) in (b0..).zip(chunk.chunks_exact_mut(stride)) {
                    fill_block(&data[b * LANES * p..n.min((b + 1) * LANES) * p], p, corr, record);
                }
            });
        }
        SegmentCache { n, p, corr, blocks }
    }

    /// The blocks in ascending order: block `b` holds rows
    /// `b·LANES .. (b + 1)·LANES`.
    fn panels(&self) -> impl Iterator<Item = Panel<'_>> {
        (0..self.n.div_ceil(LANES)).map(|b| self.panel(b))
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

    /// The centred-normalised rows `x̂_i` (all-zero when flat) copied out
    /// of the unit panel as row-major `[n, p]`, in a tensor-pool buffer;
    /// empty without the correlation term. The fit's bucket pass adds whole
    /// rows into its f64 sums, one vector per row, where a row read from
    /// the panel is a stride-16 gather.
    pub(crate) fn unit_rows(&self) -> Vec<f32> {
        if !self.corr {
            return Vec::new();
        }
        let p = self.p;
        let mut rows = pool::take(self.n * p);
        for (panel, block) in self.panels().zip(rows.chunks_mut(LANES * p)) {
            for (t, step) in panel.unit.chunks_exact(LANES).enumerate() {
                for (row, &u) in block.chunks_exact_mut(p).zip(step) {
                    row[t] = u;
                }
            }
        }
        rows
    }
}

/// Fills one block record from its at most [`LANES`] row-major rows (`p`
/// wide): the raw panel, then per lane `‖x‖²` and the centred-normalised
/// row `x̂ = (x − mean) / ‖x − mean‖`. A row whose centred sum of squares
/// `sxx` falls at or under the shared scale-aware [`stats::zero_variance`]
/// floor normalises to all-zero, matching `stats::pearson`'s zero-variance
/// convention; an exactly constant row has `sxx == 0`, since the f64 sum and
/// mean of equal `f32` values are exact. Each lane's statistics are f64
/// chains over `t` in ascending order, as a row-by-row pass would accumulate
/// them, and padding lanes read as flat zero rows.
fn fill_block(rows: &[f32], p: usize, corr: bool, record: &mut [f32]) {
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
    if !corr {
        return;
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
}

/// Distances from the rows of `panel` to centers `j0 .. j0 + J`, as
/// `[J, LANES]`. First the dots `x·c` (and, with `CORR`, `x̂·ĉ`) of every
/// lane, each one chain in ascending `t` from `+0.0`, one multiply then one
/// add per step, held in registers throughout; then the Eq. 6 epilogue
/// `max(‖x‖² − 2·x·c + ‖c‖², 0) + α·(1 − clamp(x̂·ĉ, −1, 1))`, with the
/// correlation term only when `CORR` (α > 0).
#[inline(always)]
fn tile<const J: usize, const CORR: bool>(panel: Panel<'_>, cache: &CenterCache, j0: usize) -> [[f32; LANES]; J] {
    let mut dot = [[0.0f32; LANES]; J];
    let mut unit_dot = [[0.0f32; LANES]; J];
    let steps = panel.raw.chunks_exact(LANES).zip(cache.pairs.chunks_exact(2 * cache.k));
    for (t, (x, step)) in steps.enumerate() {
        let x: &[f32; LANES] = x.try_into().expect("a panel step is LANES wide");
        let pairs = &step[2 * j0..2 * (j0 + J)];
        // Lanes outer, centers inner: the lane loop becomes the vector.
        for r in 0..LANES {
            for jj in 0..J {
                dot[jj][r] += x[r] * pairs[2 * jj];
            }
        }
        if CORR {
            let u: &[f32; LANES] = panel.unit[t * LANES..(t + 1) * LANES].try_into().expect("a panel step is LANES wide");
            for r in 0..LANES {
                for jj in 0..J {
                    unit_dot[jj][r] += u[r] * pairs[2 * jj + 1];
                }
            }
        }
    }
    let (x2, c2, alpha) = (panel.sq_norms, &cache.sq_norms[j0..j0 + J], cache.alpha);
    let mut d = [[0.0f32; LANES]; J];
    for r in 0..LANES {
        for jj in 0..J {
            let rec = (x2[r] - 2.0 * dot[jj][r] + c2[jj]).max(0.0);
            d[jj][r] = if CORR { rec + alpha * (1.0 - unit_dot[jj][r].clamp(-1.0, 1.0)) } else { rec };
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

/// Runs `f(panel, out_rows)` for every block, `out_rows` being the block's
/// segments' rows of `out` (`row_len` values each). Blocks split
/// across threads on block boundaries once a thread gets
/// [`SWEEP_GRAIN_MACS`] of work at `macs_per_row` each.
fn for_each_panel<T: Send>(
    seg: &SegmentCache,
    out: &mut [T],
    row_len: usize,
    macs_per_row: usize,
    f: impl Fn(Panel<'_>, &mut [T]) + Sync,
) {
    assert_eq!(out.len(), seg.n * row_len, "output length {} != {} rows of {row_len}", out.len(), seg.n);
    if out.is_empty() {
        return;
    }
    let grain_rows = SWEEP_GRAIN_MACS.div_ceil(macs_per_row.max(1)).next_multiple_of(LANES);
    par::parallel_rows(out, row_len, grain_rows, LANES, |row0, chunk| {
        for (b, rows) in (row0 / LANES..).zip(chunk.chunks_mut(LANES * row_len)) {
            f(seg.panel(b), rows);
        }
    });
}

/// Multiply–accumulates per segment of a sweep against `cache`.
fn macs_per_row(seg: &SegmentCache, cache: &CenterCache) -> usize {
    assert_eq!(seg.p, cache.p, "segment width {} != prototype width {}", seg.p, cache.p);
    assert_eq!(seg.corr, cache.alpha > 0.0, "segment and center caches built for different objectives");
    cache.k * cache.p * (1 + usize::from(seg.corr))
}

/// The full `[n, k]` composite distance matrix.
pub(crate) fn distance_matrix(seg: &SegmentCache, cache: &CenterCache) -> Tensor {
    let k = cache.k;
    let mut out = Tensor::zeros(&[seg.n, k]);
    let macs = macs_per_row(seg, cache);
    for_each_panel(seg, out.data_mut(), k, macs, |panel, block| {
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
/// like the scalar oracle).
pub(crate) fn assign_batched(seg: &SegmentCache, cache: &CenterCache, out: &mut [(usize, f32)]) {
    focus_trace::span!("cluster/assign");
    let n = seg.n;
    focus_trace::counter_add("cluster/segments_assigned", n as u64);
    assert_eq!(out.len(), n, "output length {} != segment count {n}", out.len());
    let macs = macs_per_row(seg, cache);
    for_each_panel(seg, out, 1, macs, |panel, block| {
        let mut best = [0usize; LANES];
        let mut best_d = [f32::INFINITY; LANES];
        each_center(panel, cache, |j, d| {
            for ((b, bd), &v) in best.iter_mut().zip(&mut best_d).zip(d) {
                let nearer = v < *bd;
                *bd = if nearer { v } else { *bd };
                *b = if nearer { j } else { *b };
            }
        });
        for ((o, &b), &bd) in block.iter_mut().zip(&best).zip(&best_d) {
            *o = (b, bd);
        }
    });
}

/// One k-means++ sweep: lowers `dists[i]` to the distance from segment `i`
/// to the single center of `center` wherever that is nearer.
pub(crate) fn lower_to_center(seg: &SegmentCache, center: &CenterCache, dists: &mut [f32]) {
    assert_eq!(center.k, 1, "a k-means++ sweep takes one center, got {}", center.k);
    let macs = macs_per_row(seg, center);
    for_each_panel(seg, dists, 1, macs, |panel, block| {
        each_center(panel, center, |_, d| {
            for (o, &v) in block.iter_mut().zip(d) {
                *o = if v < *o { v } else { *o };
            }
        });
    });
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
            SegmentCache::new(&segs, &Objective::paper_default()).unit_rows()
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
