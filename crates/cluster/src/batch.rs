//! Batched GEMM evaluation of the composite distance (Eq. 6).
//!
//! The scalar path walks every `(segment, prototype)` pair with a fused
//! distance loop — `O(n·k·p)` flops that never touch the tiled GEMM kernels.
//! This module restructures the same arithmetic so the bulk of the work *is*
//! a GEMM:
//!
//! ```text
//! ‖x − c‖²   = ‖x‖² − 2·x·c + ‖c‖²          (expand the square)
//! corr(x, c) = x̂ · ĉ,   v̂ = (v − mean(v)) / ‖v − mean(v)‖
//! ```
//!
//! so the full `[n, k]` distance matrix costs two tiled `X·Cᵀ` products (raw
//! rows for the reconstruction term, centred-normalised rows for the
//! correlation term) plus cached per-row norms and an `O(n·k)` epilogue.
//! The per-segment statistics (`‖x‖²`, `x̂`) live in a [`SegmentCache`]: a
//! fit builds it once and reuses it for every sweep, one-shot calls build it
//! per call; both fill it identically, so the two give the same bits.
//!
//! The GEMM path accumulates in `f32` where the scalar oracle
//! ([`Objective::distance`]) accumulates in `f64`, so distances agree to
//! roundoff (~1e-5 relative), not bitwise; argmin assignments agree whenever
//! the best/second-best margin exceeds that roundoff — in particular exact
//! ties (duplicate prototypes) resolve identically, because both paths scan
//! prototypes in ascending index with a strict `<`. Property tests in
//! `tests/properties.rs` pin both claims down.

use crate::objective::Objective;
use focus_tensor::exec::{self, Trans};
use focus_tensor::{par, stats, Tensor};

/// Rows of the distance matrix computed per block: bounds the live
/// `[block, k]` scratch while keeping each GEMM big enough to tile well.
const BLOCK_ROWS: usize = 4096;

/// Minimum epilogue elements (`rows × k`) per thread before the per-row
/// passes go parallel.
const EPILOGUE_GRAIN: usize = 16 * 1024;

/// Per-prototype data cached once per sweep: raw centers, squared norms and
/// centred-normalised copies.
pub(crate) struct CenterCache {
    k: usize,
    p: usize,
    /// Raw centers `[k, p]` (flat copy; the cache owns its layout).
    centers: Vec<f32>,
    /// `‖c_j‖²` per center, f64-accumulated.
    sq_norms: Vec<f32>,
    /// Centred-normalised centers `ĉ: [k, p]`; constant centers become zero
    /// rows so `x̂·ĉ = 0` reproduces the scalar convention `corr = 0`.
    /// Empty when `alpha == 0` (the correlation GEMM is skipped entirely).
    unit: Vec<f32>,
    /// Correlation weight of the objective.
    alpha: f32,
}

impl CenterCache {
    pub(crate) fn new(centers: &Tensor, objective: &Objective) -> CenterCache {
        assert_eq!(centers.rank(), 2, "centers must be [k, p]");
        let (k, p) = (centers.dims()[0], centers.dims()[1]);
        let alpha = objective.alpha();
        let data = centers.data().to_vec();
        let mut sq_norms = vec![0.0f32; k];
        for (j, out) in sq_norms.iter_mut().enumerate() {
            *out = sq_norm(&data[j * p..(j + 1) * p]);
        }
        let mut unit = Vec::new();
        if alpha > 0.0 {
            unit = vec![0.0f32; k * p];
            for j in 0..k {
                center_normalise(&data[j * p..(j + 1) * p], &mut unit[j * p..(j + 1) * p]);
            }
        }
        CenterCache {
            k,
            p,
            centers: data,
            sq_norms,
            unit,
            alpha,
        }
    }
}

/// Per-segment statistics of a `[n, p]` segment matrix: `‖x_i‖²` and the
/// centred-normalised rows `x̂_i` (zero rows for constant segments; empty
/// when the objective has no correlation term).
///
/// A fit builds one cache and shares it by every assignment sweep, the
/// k-means++ sweeps and the per-bucket `U_j = Σ x̂_i` pass of the AdamW
/// update; one-shot [`crate::Prototypes`] calls build one per call. Rows
/// are filled independently, so the cache is bitwise the same at any
/// thread count, and a fit's sweeps equal one-shot calls bit for bit.
pub(crate) struct SegmentCache<'a> {
    segments: &'a Tensor,
    sq_norms: Vec<f32>,
    unit: Vec<f32>,
}

impl<'a> SegmentCache<'a> {
    pub(crate) fn new(segments: &'a Tensor, objective: &Objective) -> SegmentCache<'a> {
        assert_eq!(segments.rank(), 2, "segments must be [n, p]");
        let (n, p) = (segments.dims()[0], segments.dims()[1]);
        let data = segments.data();
        let grain = EPILOGUE_GRAIN.div_ceil(p.max(1)).max(1);
        let mut sq_norms = vec![0.0f32; n];
        par::parallel_fill(&mut sq_norms, grain, |range, chunk| {
            for (i, o) in range.zip(chunk.iter_mut()) {
                *o = sq_norm(&data[i * p..(i + 1) * p]);
            }
        });
        let mut unit = Vec::new();
        if objective.alpha() > 0.0 {
            unit = vec![0.0f32; n * p];
            par::parallel_rows(&mut unit, p, grain, 1, |row0, chunk| {
                for (i, out) in chunk.chunks_exact_mut(p).enumerate() {
                    center_normalise(&data[(row0 + i) * p..(row0 + i + 1) * p], out);
                }
            });
        }
        SegmentCache {
            segments,
            sq_norms,
            unit,
        }
    }

    /// The cached segment matrix `[n, p]`.
    pub(crate) fn segments(&self) -> &'a Tensor {
        self.segments
    }

    /// `x̂_i`, the centred-normalised segment `i` (all-zero when flat).
    ///
    /// # Panics
    /// If the cache was built without the correlation term.
    pub(crate) fn unit_row(&self, i: usize) -> &[f32] {
        let p = self.segments.dims()[1];
        &self.unit[i * p..(i + 1) * p]
    }
}

/// `‖v‖²` with f64 accumulation (cast once, like the scalar kernels).
fn sq_norm(v: &[f32]) -> f32 {
    v.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>() as f32
}

/// Writes `(v − mean) / ‖v − mean‖` into `out`; all-zero when `v` is
/// (numerically) constant, matching `stats::pearson`'s zero-variance
/// convention — the shared scale-aware [`stats::zero_variance`] floor, so a
/// constant row of large magnitude (whose mean-rounding residue leaves
/// `sxx` tiny but positive) normalises to zero instead of a noise-only
/// garbage unit vector. Statistics accumulate in f64 like the scalar path.
fn center_normalise(v: &[f32], out: &mut [f32]) {
    let n = v.len() as f64;
    let mean = v.iter().map(|&x| x as f64).sum::<f64>() / n;
    let mut sxx = 0.0f64;
    let mut max_abs = 0.0f64;
    for &x in v {
        let d = x as f64 - mean;
        sxx += d * d;
        max_abs = max_abs.max((x as f64).abs());
    }
    if stats::zero_variance(sxx, v.len(), max_abs) {
        out.fill(0.0);
        return;
    }
    let inv = 1.0 / sxx.sqrt();
    for (o, &x) in out.iter_mut().zip(v) {
        *o = ((x as f64 - mean) * inv) as f32;
    }
}

/// Eq. 6 from cached statistics — the sweep epilogue
/// `max(‖x‖² − 2·x·c + ‖c‖², 0) + α·(1 − clamp(x̂·ĉ, −1, 1))`, with the
/// correlation term only when `α > 0`.
#[inline]
fn composite(x2: f32, dot: f32, c2: f32, alpha: f32, unit_dot: f32) -> f32 {
    let rec = (x2 - 2.0 * dot + c2).max(0.0);
    if alpha > 0.0 {
        rec + alpha * (1.0 - unit_dot.clamp(-1.0, 1.0))
    } else {
        rec
    }
}

/// Runs the blocked distance sweep over the cached segments `seg: [n, p]`,
/// invoking `visit(first_row, rows, block)` with each finished `[rows, k]`
/// distance block (row-major, reused buffer — copy out what must outlive
/// the call).
fn for_each_block<F>(seg: &SegmentCache, cache: &CenterCache, mut visit: F)
where
    F: FnMut(usize, usize, &[f32]),
{
    let (n, p) = (seg.segments.dims()[0], seg.segments.dims()[1]);
    assert_eq!(p, cache.p, "segment width {p} != prototype width {}", cache.p);
    let k = cache.k;
    let block = BLOCK_ROWS.min(n.max(1));
    let corr = cache.alpha > 0.0;

    let mut dist = vec![0.0f32; block * k];
    let mut dots = vec![0.0f32; if corr { block * k } else { 0 }];

    let mut r0 = 0usize;
    while r0 < n {
        let rows = block.min(n - r0);
        let seg_block = &seg.segments.data()[r0 * p..(r0 + rows) * p];

        // Reconstruction dots: X·Cᵀ on the raw rows.
        exec::gemm(Trans::Nt, rows, p, k, seg_block, &cache.centers, &mut dist[..rows * k]);
        // Correlation dots: X̂·Ĉᵀ on the centred-normalised rows.
        if corr {
            let unit_block = &seg.unit[r0 * p..(r0 + rows) * p];
            exec::gemm(Trans::Nt, rows, p, k, unit_block, &cache.unit, &mut dots[..rows * k]);
        }

        // Epilogue: Eq. 6 from the dots and the cached norms.
        {
            let x2 = &seg.sq_norms[r0..r0 + rows];
            let (dots, sq_norms, alpha) = (&dots, &cache.sq_norms, cache.alpha);
            let grain_rows = EPILOGUE_GRAIN.div_ceil(k.max(1)).max(1);
            par::parallel_rows(&mut dist[..rows * k], k, grain_rows, 1, |row0, chunk| {
                for (i, row) in chunk.chunks_exact_mut(k).enumerate() {
                    let xi2 = x2[row0 + i];
                    for (j, v) in row.iter_mut().enumerate() {
                        let r = if corr { dots[(row0 + i) * k + j] } else { 0.0 };
                        *v = composite(xi2, *v, sq_norms[j], alpha, r);
                    }
                }
            });
        }

        visit(r0, rows, &dist[..rows * k]);
        r0 += rows;
    }
}

/// The full `[n, k]` composite distance matrix via the GEMM path.
pub(crate) fn distance_matrix(seg: &SegmentCache, cache: &CenterCache) -> Tensor {
    let n = seg.segments.dims()[0];
    let mut out = Tensor::zeros(&[n, cache.k]);
    let k = cache.k;
    for_each_block(seg, cache, |r0, rows, block| {
        out.data_mut()[r0 * k..(r0 + rows) * k].copy_from_slice(block);
    });
    out
}

/// Nearest center per row of `segments` via the GEMM path: fills
/// `out[i] = (argmin_j d_ij, min_j d_ij)` with the lowest-index tie-break
/// (strict `<` over ascending `j`, exactly like the scalar oracle).
pub(crate) fn assign_batched(seg: &SegmentCache, cache: &CenterCache, out: &mut [(usize, f32)]) {
    focus_trace::span!("cluster/assign");
    let n = seg.segments.dims()[0];
    focus_trace::counter_add("cluster/segments_assigned", n as u64);
    assert_eq!(out.len(), n, "output length {} != segment count {n}", out.len());
    let k = cache.k;
    for_each_block(seg, cache, |r0, rows, block| {
        let grain = EPILOGUE_GRAIN.div_ceil(k.max(1)).max(1);
        par::parallel_fill(&mut out[r0..r0 + rows], grain, |range, chunk| {
            for (i, o) in range.zip(chunk.iter_mut()) {
                let row = &block[i * k..(i + 1) * k];
                let mut best = 0usize;
                let mut best_d = f32::INFINITY;
                for (j, &d) in row.iter().enumerate() {
                    if d < best_d {
                        best_d = d;
                        best = j;
                    }
                }
                *o = (best, best_d);
            }
        });
    });
}

/// Lowers `dists[i]` to the composite distance from segment `i` to `center`
/// wherever that is nearer — one k-means++ sweep. One center leaves no GEMM
/// to tile, so each row takes two length-`p` dots into the sweep's epilogue
/// formula.
pub(crate) fn lower_to_center(seg: &SegmentCache, center: &[f32], objective: &Objective, dists: &mut [f32]) {
    let (n, p) = (seg.segments.dims()[0], seg.segments.dims()[1]);
    assert_eq!(center.len(), p, "center width {} != segment width {p}", center.len());
    assert_eq!(dists.len(), n, "distance buffer length {} != segment count {n}", dists.len());
    let alpha = objective.alpha();
    let corr = alpha > 0.0;
    let c2 = sq_norm(center);
    let mut c_unit = vec![0.0f32; p];
    if corr {
        center_normalise(center, &mut c_unit);
    }
    let dot = |a: &[f32], b: &[f32]| a.iter().zip(b).fold(0.0f32, |acc, (&x, &y)| acc + x * y);
    let data = seg.segments.data();
    let grain = EPILOGUE_GRAIN.div_ceil(p.max(1)).max(1);
    par::parallel_fill(dists, grain, |range, chunk| {
        for (i, d) in range.zip(chunk.iter_mut()) {
            let xc = dot(&data[i * p..(i + 1) * p], center);
            let r = if corr { dot(seg.unit_row(i), &c_unit) } else { 0.0 };
            let nd = composite(seg.sq_norms[i], xc, c2, alpha, r);
            if nd < *d {
                *d = nd;
            }
        }
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
        // The k-means++ sweep evaluates the same epilogue from the same
        // cached statistics, one center at a time.
        for &(alpha, seed) in &[(0.0f32, 4u64), (0.2, 5), (1.0, 6)] {
            let (segs, centers, obj) = random_case(90, 4, 12, alpha, seed);
            let seg = SegmentCache::new(&segs, &obj);
            let d = distance_matrix(&seg, &CenterCache::new(&centers, &obj));
            for j in 0..4 {
                let mut lowered = vec![f32::INFINITY; 90];
                lower_to_center(&seg, centers.row(j), &obj, &mut lowered);
                for (i, &l) in lowered.iter().enumerate() {
                    let want = d.at2(i, j);
                    assert!((l - want).abs() <= 1e-5 * want.abs().max(1.0), "α {alpha} d[{i},{j}]: {l} vs {want}");
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
        // A constant row at |v| ≈ 1e8: the f64 mean rounds, leaving residuals
        // of order ε₆₄·|v| whose sum of squares exceeded the old absolute
        // f64::EPSILON guard — the row then normalised to a noise-only
        // garbage "unit" vector. The scale-aware floor must zero it.
        let v = vec![1.0e8f32; 6];
        let mut out = vec![9.0f32; 6];
        center_normalise(&v, &mut out);
        assert_eq!(out, vec![0.0; 6], "constant row must normalise to all-zero");

        // One real f32 step at the same magnitude is signal, not noise: the
        // result must be a genuine unit vector.
        let step = f32::from_bits(1.0e8f32.to_bits() + 1);
        let w = [1.0e8, step, 1.0e8, step, 1.0e8, step];
        let mut unit = vec![0.0f32; 6];
        center_normalise(&w, &mut unit);
        let norm: f64 = unit.iter().map(|&x| (x as f64) * (x as f64)).sum();
        assert!((norm - 1.0).abs() < 1e-3, "stepped row must normalise to unit, norm² = {norm}");
    }

    #[test]
    fn large_magnitude_constant_rows_keep_distances_finite() {
        // End-to-end: the corr GEMM on guarded rows can never produce
        // NaN/inf, whatever the rec-term f32 cancellation does.
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
