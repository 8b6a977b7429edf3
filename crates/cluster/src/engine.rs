//! The clustering engine: Algorithm 1 of the paper.
//!
//! ```text
//! initialise k prototypes (k-means++ under the composite distance)
//! repeat
//!     assign every segment to its nearest prototype      (Eq. 6)
//!     update every prototype on its bucket's loss        (Eqs. 8–10)
//! until assignments stop changing or max_iters
//! ```

use crate::batch::{assign_batched, distance_matrix, lower_to_center, CenterCache, SegmentCache};
use crate::objective::{bucket_corr_grad, Objective};
use focus_tensor::{par, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Minimum distance-evaluation work (~`segments × k × p` flops) per thread
/// before the assignment sweeps go parallel.
const ASSIGN_GRAIN_FLOPS: usize = 64 * 1024;

/// Segments per thread for a sweep costing `cost_per_seg` flops each.
fn assign_grain(cost_per_seg: usize) -> usize {
    ASSIGN_GRAIN_FLOPS.div_ceil(cost_per_seg.max(1)).max(1)
}

/// Nearest prototype to `seg` among `centers: [k, p]`: `(index, distance)`.
fn nearest_center(seg: &[f32], centers: &Tensor, k: usize, objective: &Objective) -> (usize, f32) {
    let mut best = 0usize;
    let mut best_d = f32::INFINITY;
    for j in 0..k {
        let d = objective.distance(seg, centers.row(j));
        if d < best_d {
            best_d = d;
            best = j;
        }
    }
    (best, best_d)
}

/// Cuts a `[N, T]` series matrix into non-overlapping length-`p` segments
/// from every entity, producing `[num_segments, p]`. Trailing partial
/// segments are dropped (the paper assumes `p | T`).
pub fn segment_matrix(series: &Tensor, p: usize) -> Tensor {
    assert_eq!(series.rank(), 2, "segment_matrix expects [entities, time]");
    assert!(p > 0, "segment length must be positive");
    let (n, t) = (series.dims()[0], series.dims()[1]);
    let per_entity = t / p;
    assert!(per_entity > 0, "series length {t} shorter than segment {p}");
    let mut data = Vec::with_capacity(n * per_entity * p);
    for e in 0..n {
        let row = series.row(e);
        for s in 0..per_entity {
            data.extend_from_slice(&row[s * p..(s + 1) * p]);
        }
    }
    Tensor::from_vec(data, &[n * per_entity, p])
}

/// How prototypes are re-estimated each outer iteration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProtoUpdate {
    /// Closed-form bucket mean — classic k-means, exact minimiser of the
    /// reconstruction loss alone.
    ClosedFormMean,
    /// AdamW gradient steps on `L_rec + α·L_corr` (the paper's §V choice).
    AdamW {
        /// Learning rate.
        lr: f32,
        /// Gradient steps per outer iteration.
        steps: usize,
        /// Decoupled weight decay.
        weight_decay: f32,
    },
}

impl ProtoUpdate {
    /// The paper-faithful default: AdamW, a handful of inner steps.
    pub fn paper_default() -> Self {
        ProtoUpdate::AdamW {
            lr: 0.05,
            steps: 8,
            weight_decay: 0.0,
        }
    }
}

/// Configuration of one clustering run.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of prototypes `k`.
    pub k: usize,
    /// Segment length `p`.
    pub segment_len: usize,
    /// Assignment / optimisation objective.
    pub objective: Objective,
    /// Prototype update rule.
    pub update: ProtoUpdate,
    /// Maximum outer iterations.
    pub max_iters: usize,
}

impl ClusterConfig {
    /// A config with the paper's defaults (`Rec+Corr`, α = 0.2, AdamW).
    pub fn new(k: usize, segment_len: usize) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(segment_len > 0, "segment_len must be positive");
        ClusterConfig {
            k,
            segment_len,
            objective: Objective::paper_default(),
            update: ProtoUpdate::paper_default(),
            max_iters: 30,
        }
    }

    /// Overrides the objective.
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Overrides the prototype update rule.
    pub fn with_update(mut self, update: ProtoUpdate) -> Self {
        self.update = update;
        self
    }

    /// Overrides the outer iteration cap.
    pub fn with_max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters;
        self
    }

    /// Runs Algorithm 1 on `segments: [n, p]`.
    ///
    /// # Panics
    /// If the segment width differs from `segment_len` or there are fewer
    /// segments than prototypes.
    pub fn fit(&self, segments: &Tensor, seed: u64) -> Prototypes {
        self.fit_traced(segments, seed).0
    }

    /// Like [`ClusterConfig::fit`] but also returns the per-iteration loss
    /// trace (used by tests and the Fig. 8 harness).
    pub fn fit_traced(&self, segments: &Tensor, seed: u64) -> (Prototypes, FitTrace) {
        assert_eq!(segments.rank(), 2, "segments must be [n, p]");
        let (n, p) = (segments.dims()[0], segments.dims()[1]);
        assert_eq!(p, self.segment_len, "segment width {p} != segment_len {}", self.segment_len);
        assert!(
            n >= self.k,
            "need at least k = {} segments, got {n}",
            self.k
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc1a5_7e12u64.rotate_left(3));
        focus_trace::span!("cluster/fit");

        let (seg, mut centers) = {
            focus_trace::span!("cluster/init");
            let seg = SegmentCache::new(segments, &self.objective);
            let centers = kmeans_pp_init(&seg, self.k, &self.objective, &mut rng);
            (seg, centers)
        };
        let mut assignment = vec![usize::MAX; n];
        let mut trace = FitTrace::default();
        let mut adam = AdamState::new(self.k, p);

        let mut nearest = vec![(0usize, 0.0f32); n];
        for iter in 0..self.max_iters {
            // Assignment step (Eq. 6) via the blocked two-GEMM kernel; the
            // f64 loss is then folded serially in ascending segment order so
            // the trace is identical at any thread count.
            let cache = CenterCache::new(&centers, &self.objective);
            assign_batched(&seg, &cache, &mut nearest);
            let mut changed = 0usize;
            let mut loss = 0.0f64;
            for (slot, &(best, best_d)) in assignment.iter_mut().zip(&nearest) {
                if *slot != best {
                    changed += 1;
                    *slot = best;
                }
                loss += best_d as f64;
            }
            trace.loss_per_iter.push(loss / n as f64);

            if changed == 0 && iter > 0 {
                trace.converged_at = Some(iter);
                break;
            }

            // Re-seed empty buckets from the farthest segment.
            reseed_empty_buckets(segments, &mut centers, &mut assignment, &nearest);

            // Update step (Eqs. 8–10).
            focus_trace::span!("cluster/update");
            match self.update {
                ProtoUpdate::ClosedFormMean => {
                    let buckets = BucketStats::gather(&seg, &assignment, self.k, false);
                    update_mean(&buckets, &mut centers);
                }
                ProtoUpdate::AdamW { lr, steps, weight_decay } => {
                    let alpha = self.objective.alpha();
                    let buckets = BucketStats::gather(&seg, &assignment, self.k, alpha > 0.0);
                    update_adamw(&buckets, &mut centers, alpha, &mut adam, lr, steps, weight_decay);
                }
            }
        }

        (
            Prototypes {
                centers,
                objective: self.objective,
            },
            trace,
        )
    }
}

/// Per-iteration diagnostics of a [`ClusterConfig::fit_traced`] run.
#[derive(Default, Debug, Clone)]
pub struct FitTrace {
    /// Mean composite assignment distance after each assignment step.
    pub loss_per_iter: Vec<f64>,
    /// The iteration at which assignments stopped changing, if reached.
    pub converged_at: Option<usize>,
}

/// The learned prototype set `C = {c_1, …, c_k}`.
#[derive(Clone, Debug)]
pub struct Prototypes {
    pub(crate) centers: Tensor,
    pub(crate) objective: Objective,
}

impl Prototypes {
    /// Builds a prototype set directly (for tests and deserialisation).
    pub fn from_centers(centers: Tensor, objective: Objective) -> Self {
        assert_eq!(centers.rank(), 2, "centers must be [k, p]");
        Prototypes { centers, objective }
    }

    /// The prototype matrix, `[k, p]`.
    pub fn centers(&self) -> &Tensor {
        &self.centers
    }

    /// Number of prototypes `k`.
    pub fn k(&self) -> usize {
        self.centers.dims()[0]
    }

    /// Segment length `p`.
    pub fn segment_len(&self) -> usize {
        self.centers.dims()[1]
    }

    /// The objective the prototypes were fitted under.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// Index of the nearest prototype to `segment` under the fitted
    /// objective (Eq. 6) — the online assignment of Algorithm 2, line 3.
    ///
    /// Single segments run through the same batched GEMM kernel as
    /// [`Prototypes::assign_all`] with `n = 1`, so one-off and bulk
    /// assignment can never disagree.
    pub fn assign(&self, segment: &[f32]) -> usize {
        assert_eq!(
            segment.len(),
            self.segment_len(),
            "segment length {} != prototype length {}",
            segment.len(),
            self.segment_len()
        );
        let seg = Tensor::from_vec(segment.to_vec(), &[1, segment.len()]);
        let mut out = [(0usize, 0.0f32)];
        assign_batched(
            &SegmentCache::new(&seg, &self.objective),
            &CenterCache::new(&self.centers, &self.objective),
            &mut out,
        );
        out[0].0
    }

    /// Assigns every row of `segments: [n, p]`, returning the bucket index
    /// per segment.
    ///
    /// Computes the full `[n, k]` composite-distance matrix with two tiled
    /// GEMMs (`X·Cᵀ` on raw and on centred-normalised rows — see
    /// [`crate::batch`]) instead of a scalar pair loop. Distances agree with
    /// [`Prototypes::assign_all_scalar`] to f32 roundoff, argmins whenever
    /// the best/second-best margin exceeds it, and exact ties break to the
    /// lowest index on both paths. Identical at any thread count.
    pub fn assign_all(&self, segments: &Tensor) -> Vec<usize> {
        let n = segments.dims()[0];
        let mut nearest = vec![(0usize, 0.0f32); n];
        assign_batched(
            &SegmentCache::new(segments, &self.objective),
            &CenterCache::new(&self.centers, &self.objective),
            &mut nearest,
        );
        nearest.into_iter().map(|(j, _)| j).collect()
    }

    /// Scalar-oracle assignment sweep: a straight per-pair
    /// [`Objective::distance`] loop with f64 accumulation. Kept as the
    /// ground-truth reference for the GEMM path (property tests, benchmark
    /// baselines); prefer [`Prototypes::assign_all`] everywhere else.
    pub fn assign_all_scalar(&self, segments: &Tensor) -> Vec<usize> {
        assert_eq!(segments.rank(), 2, "segments must be [n, p]");
        let n = segments.dims()[0];
        let mut out = vec![0usize; n];
        let grain = assign_grain(self.k() * self.segment_len());
        par::parallel_fill(&mut out, grain, |range, chunk| {
            for (i, o) in range.zip(chunk.iter_mut()) {
                *o = nearest_center(segments.row(i), &self.centers, self.k(), &self.objective).0;
            }
        });
        out
    }

    /// The full `[n, k]` composite-distance matrix from every row of
    /// `segments` to every prototype, via the batched GEMM kernel.
    pub fn distances(&self, segments: &Tensor) -> Tensor {
        distance_matrix(
            &SegmentCache::new(segments, &self.objective),
            &CenterCache::new(&self.centers, &self.objective),
        )
    }

    /// The distance from `segment` to its nearest prototype.
    pub fn nearest_distance(&self, segment: &[f32]) -> f32 {
        let j = self.assign(segment);
        self.objective.distance(segment, self.centers.row(j))
    }
}

/// k-means++ seeding under the composite distance, evaluated by the
/// assignment kernel from the cached segment statistics.
fn kmeans_pp_init(seg: &SegmentCache, k: usize, objective: &Objective, rng: &mut StdRng) -> Tensor {
    let segments = seg.segments();
    let (n, p) = (segments.dims()[0], segments.dims()[1]);
    let mut centers = Tensor::zeros(&[k, p]);
    let first = rng.gen_range(0..n);
    centers.data_mut()[..p].copy_from_slice(segments.row(first));

    // Distance sweeps below are per-segment independent (parallel, bitwise
    // identical to serial); the weighted pick itself stays serial so the RNG
    // stream and the f64 prefix scan keep their exact order.
    let mut dists = vec![f32::INFINITY; n];
    lower_to_center(seg, segments.row(first), objective, &mut dists);

    for j in 1..k {
        let total: f64 = dists.iter().map(|&d| d.max(0.0) as f64).sum();
        let pick = if total <= f64::EPSILON {
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut chosen = n - 1;
            for (i, &d) in dists.iter().enumerate() {
                target -= d.max(0.0) as f64;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centers.data_mut()[j * p..(j + 1) * p].copy_from_slice(segments.row(pick));
        lower_to_center(seg, segments.row(pick), objective, &mut dists);
    }
    centers
}

/// Moves any prototype with an empty bucket onto the segment farthest from
/// its assigned prototype, drawn only from buckets with at least two members
/// so that the move never empties another bucket (one exists while
/// `n ≥ k`). `nearest[i].1` is segment `i`'s distance to its assigned
/// prototype, as the assignment sweep just computed it; a moved segment's
/// entry goes stale, but it then sits alone in its bucket and is never drawn
/// again.
fn reseed_empty_buckets(
    segments: &Tensor,
    centers: &mut Tensor,
    assignment: &mut [usize],
    nearest: &[(usize, f32)],
) {
    let (k, p) = (centers.dims()[0], centers.dims()[1]);
    let mut counts = vec![0usize; k];
    for &a in assignment.iter() {
        counts[a] += 1;
    }
    for j in 0..k {
        if counts[j] > 0 {
            continue;
        }
        // Farthest segment from its own prototype among shareable buckets.
        let mut worst: Option<(usize, f32)> = None;
        for (i, (&a, &(_, d))) in assignment.iter().zip(nearest).enumerate() {
            let farther = match worst {
                None => true,
                Some((_, wd)) => d > wd,
            };
            if counts[a] >= 2 && farther {
                worst = Some((i, d));
            }
        }
        let (worst_i, _) = worst.expect("n >= k leaves a bucket with two or more members");
        centers.data_mut()[j * p..(j + 1) * p].copy_from_slice(segments.row(worst_i));
        counts[assignment[worst_i]] -= 1;
        assignment[worst_i] = j;
        counts[j] = 1;
    }
}

/// Per-bucket statistics of one assignment, gathered in one serial
/// ascending-`i` pass (so they are identical at any thread count): member
/// counts, the bucket means (from f64 sums) and — when the correlation
/// gradient needs it — `U_j = Σ_{i∈B_j} x̂_i` over the cached unit rows.
struct BucketStats {
    counts: Vec<usize>,
    /// Bucket means `[k, p]`; zero rows for empty buckets.
    means: Vec<f32>,
    /// `U: [k, p]`; empty unless gathered with `unit = true`.
    unit_sums: Vec<f64>,
}

impl BucketStats {
    fn gather(seg: &SegmentCache, assignment: &[usize], k: usize, unit: bool) -> BucketStats {
        let segments = seg.segments();
        let p = segments.dims()[1];
        let mut counts = vec![0usize; k];
        let mut sums = vec![0.0f64; k * p];
        let mut unit_sums = vec![0.0f64; if unit { k * p } else { 0 }];
        for (i, &a) in assignment.iter().enumerate() {
            counts[a] += 1;
            for (s, &v) in sums[a * p..(a + 1) * p].iter_mut().zip(segments.row(i)) {
                *s += v as f64;
            }
            if unit {
                for (u, &v) in unit_sums[a * p..(a + 1) * p].iter_mut().zip(seg.unit_row(i)) {
                    *u += v as f64;
                }
            }
        }
        let mut means = vec![0.0f32; k * p];
        for j in 0..k {
            if counts[j] == 0 {
                continue;
            }
            let inv = 1.0 / counts[j] as f64;
            for (m, &s) in means[j * p..(j + 1) * p].iter_mut().zip(&sums[j * p..(j + 1) * p]) {
                *m = (s * inv) as f32;
            }
        }
        BucketStats {
            counts,
            means,
            unit_sums,
        }
    }
}

/// Closed-form mean update (classic k-means).
fn update_mean(buckets: &BucketStats, centers: &mut Tensor) {
    let (k, p) = (centers.dims()[0], centers.dims()[1]);
    for j in 0..k {
        if buckets.counts[j] > 0 {
            centers.data_mut()[j * p..(j + 1) * p].copy_from_slice(&buckets.means[j * p..(j + 1) * p]);
        }
    }
}

/// Per-prototype AdamW state.
struct AdamState {
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

impl AdamState {
    fn new(k: usize, p: usize) -> Self {
        AdamState {
            m: vec![0.0; k * p],
            v: vec![0.0; k * p],
            t: 0,
        }
    }
}

/// AdamW steps on `L_j = ‖c_j − mean(B_j)‖² + α · (−|B_j|⁻¹ Σ corr)`,
/// following Eqs. 8–10. The bucket means and `U_j` are constant during the
/// inner steps, so each step costs `O(k·p)` whatever the bucket sizes.
fn update_adamw(
    buckets: &BucketStats,
    centers: &mut Tensor,
    alpha: f32,
    adam: &mut AdamState,
    lr: f32,
    steps: usize,
    weight_decay: f32,
) {
    let (k, p) = (centers.dims()[0], centers.dims()[1]);
    let (beta1, beta2, eps) = (0.9f32, 0.999f32, 1e-8f32);
    let mut grad = vec![0.0f32; p];
    let mut corr_g = vec![0.0f64; p];
    for _ in 0..steps {
        adam.t += 1;
        let bc1 = 1.0 - beta1.powi(adam.t as i32);
        let bc2 = 1.0 - beta2.powi(adam.t as i32);
        for j in 0..k {
            if buckets.counts[j] == 0 {
                continue;
            }
            // ∇L_rec = 2(c − mean(B_j))
            for ((g, &c), &m) in grad
                .iter_mut()
                .zip(centers.row(j))
                .zip(&buckets.means[j * p..(j + 1) * p])
            {
                *g = 2.0 * (c - m);
            }
            // ∇L_corr = −|B_j|⁻¹ Σ ∂corr/∂c, from U_j.
            if alpha > 0.0 {
                bucket_corr_grad(&buckets.unit_sums[j * p..(j + 1) * p], centers.row(j), &mut corr_g);
                let w = alpha as f64 / buckets.counts[j] as f64;
                for (g, &cg) in grad.iter_mut().zip(&corr_g) {
                    *g -= (w * cg) as f32;
                }
            }
            // AdamW step with decoupled decay.
            let base = j * p;
            let row = &mut centers.data_mut()[base..base + p];
            for (idx, (c, &g)) in row.iter_mut().zip(&grad).enumerate() {
                if weight_decay > 0.0 {
                    *c *= 1.0 - lr * weight_decay;
                }
                let mi = &mut adam.m[base + idx];
                let vi = &mut adam.v[base + idx];
                *mi = beta1 * *mi + (1.0 - beta1) * g;
                *vi = beta2 * *vi + (1.0 - beta2) * g * g;
                let mhat = *mi / bc1;
                let vhat = *vi / bc2;
                *c -= lr * mhat / (vhat.sqrt() + eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_tensor::stats;

    /// Three well-separated planted clusters of segments.
    fn planted(n_per: usize, p: usize) -> (Tensor, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(99);
        let shapes: [fn(f32) -> f32; 3] = [
            |u| (2.0 * std::f32::consts::PI * u).sin(),
            |u| 2.0 * u - 1.0,
            |u| if u > 0.5 { 1.0 } else { -1.0 },
        ];
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for (c, shape) in shapes.iter().enumerate() {
            for _ in 0..n_per {
                let noise: f32 = rng.gen_range(0.0..0.1);
                for i in 0..p {
                    let u = i as f32 / p as f32;
                    data.push(shape(u) + noise * rng.gen_range(-1.0f32..1.0));
                }
                labels.push(c);
            }
        }
        (Tensor::from_vec(data, &[3 * n_per, p]), labels)
    }

    /// Clustering accuracy up to label permutation (3 clusters).
    fn purity(assign: &[usize], truth: &[usize], k: usize) -> f64 {
        let mut count = vec![vec![0usize; 3]; k];
        for (&a, &t) in assign.iter().zip(truth) {
            count[a][t] += 1;
        }
        let correct: usize = count.iter().map(|c| c.iter().max().copied().unwrap_or(0)).sum();
        correct as f64 / assign.len() as f64
    }

    #[test]
    fn recovers_planted_clusters_with_mean_update() {
        let (segs, truth) = planted(40, 16);
        let cfg = ClusterConfig::new(3, 16)
            .with_objective(Objective::RecOnly)
            .with_update(ProtoUpdate::ClosedFormMean);
        let protos = cfg.fit(&segs, 1);
        let assign = protos.assign_all(&segs);
        assert!(purity(&assign, &truth, 3) > 0.95);
    }

    #[test]
    fn recovers_planted_clusters_with_adamw_update() {
        let (segs, truth) = planted(40, 16);
        let cfg = ClusterConfig::new(3, 16); // paper defaults: Rec+Corr, AdamW
        let protos = cfg.fit(&segs, 2);
        let assign = protos.assign_all(&segs);
        assert!(purity(&assign, &truth, 3) > 0.9);
    }

    #[test]
    fn loss_trace_is_monotone_nonincreasing_for_kmeans() {
        let (segs, _) = planted(30, 8);
        let cfg = ClusterConfig::new(4, 8)
            .with_objective(Objective::RecOnly)
            .with_update(ProtoUpdate::ClosedFormMean);
        let (_, trace) = cfg.fit_traced(&segs, 3);
        for w in trace.loss_per_iter.windows(2) {
            assert!(w[1] <= w[0] + 1e-6, "loss increased: {:?}", trace.loss_per_iter);
        }
    }

    #[test]
    fn converges_and_reports_iteration() {
        let (segs, _) = planted(30, 8);
        let cfg = ClusterConfig::new(3, 8)
            .with_objective(Objective::RecOnly)
            .with_update(ProtoUpdate::ClosedFormMean)
            .with_max_iters(50);
        let (_, trace) = cfg.fit_traced(&segs, 4);
        assert!(trace.converged_at.is_some(), "did not converge in 50 iters");
    }

    #[test]
    fn rec_corr_prototypes_align_in_shape() {
        // With a strong correlation weight, prototypes should correlate with
        // their members even when amplitudes vary.
        let p = 16;
        let mut data = Vec::new();
        for amp_i in 0..30 {
            let amp = 0.5 + amp_i as f32 * 0.1;
            for i in 0..p {
                let u = i as f32 / p as f32;
                data.push(amp * (2.0 * std::f32::consts::PI * u).sin());
            }
        }
        let segs = Tensor::from_vec(data, &[30, p]);
        let cfg = ClusterConfig::new(2, p).with_objective(Objective::rec_corr(2.0));
        let protos = cfg.fit(&segs, 5);
        let assign = protos.assign_all(&segs);
        for (i, &a) in assign.iter().enumerate() {
            let r = stats::pearson(segs.row(i), protos.centers().row(a));
            assert!(r > 0.8, "segment {i} corr {r}");
        }
    }

    #[test]
    fn segment_matrix_layout() {
        let series = Tensor::from_vec((0..20).map(|v| v as f32).collect(), &[2, 10]);
        let segs = segment_matrix(&series, 4);
        // 2 entities × 2 full segments each (tail of 2 dropped).
        assert_eq!(segs.dims(), &[4, 4]);
        assert_eq!(segs.row(0), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(segs.row(2), &[10.0, 11.0, 12.0, 13.0]);
    }

    #[test]
    fn deterministic_in_seed() {
        let (segs, _) = planted(20, 8);
        let cfg = ClusterConfig::new(3, 8);
        let a = cfg.fit(&segs, 7);
        let b = cfg.fit(&segs, 7);
        assert_eq!(a.centers().data(), b.centers().data());
    }

    #[test]
    fn assign_is_stable_under_refit_objective() {
        let (segs, _) = planted(20, 8);
        let protos = ClusterConfig::new(3, 8).fit(&segs, 8);
        for i in 0..segs.dims()[0] {
            let j = protos.assign(segs.row(i));
            assert!(j < 3);
            assert!(protos.nearest_distance(segs.row(i)).is_finite());
        }
    }

    #[test]
    #[should_panic(expected = "need at least k")]
    fn rejects_more_prototypes_than_segments() {
        let segs = Tensor::zeros(&[2, 4]);
        let _ = ClusterConfig::new(3, 4).fit(&segs, 0);
    }

    #[test]
    fn reseed_never_empties_another_bucket() {
        // Bucket 2 duplicates bucket 1's center and ends up empty. The
        // farthest segment, [100, 100], is the only member of bucket 0:
        // moving it would empty bucket 0 after the reseed loop passed it.
        let segs = Tensor::from_vec(vec![0.0, 0.0, 0.1, 0.0, 100.0, 100.0, 0.2, 0.0], &[4, 2]);
        let mut centers = Tensor::from_vec(vec![50.0, 50.0, 0.1, 0.0, 0.1, 0.0], &[3, 2]);
        let obj = Objective::paper_default();
        let mut nearest = vec![(0usize, 0.0f32); 4];
        assign_batched(&SegmentCache::new(&segs, &obj), &CenterCache::new(&centers, &obj), &mut nearest);
        let mut assignment: Vec<usize> = nearest.iter().map(|&(j, _)| j).collect();
        assert_eq!(assignment, [1, 1, 0, 1]);
        reseed_empty_buckets(&segs, &mut centers, &mut assignment, &nearest);
        let mut counts = [0usize; 3];
        for &a in &assignment {
            counts[a] += 1;
        }
        assert_eq!(counts, [1, 2, 1], "assignment after reseed: {assignment:?}");
        assert_eq!(centers.row(2), segs.row(0), "bucket 2 takes bucket 1's farthest member");
    }

    #[test]
    fn cached_fit_sweep_matches_assign_all_bitwise() {
        // The fit shares one segment cache across all its sweeps; one-shot
        // calls build their own. Both must give the same bits.
        let (segs, _) = planted(30, 12);
        let mut rng = StdRng::seed_from_u64(31);
        for obj in [Objective::RecOnly, Objective::paper_default(), Objective::rec_corr(1.5)] {
            let seg = SegmentCache::new(&segs, &obj);
            for _ in 0..3 {
                let centers = Tensor::randn(&[5, 12], 1.0, &mut rng);
                let mut nearest = vec![(0usize, 0.0f32); segs.dims()[0]];
                assign_batched(&seg, &CenterCache::new(&centers, &obj), &mut nearest);
                let protos = Prototypes::from_centers(centers, obj);
                let idx: Vec<usize> = nearest.iter().map(|&(j, _)| j).collect();
                assert_eq!(idx, protos.assign_all(&segs));
                let d = protos.distances(&segs);
                for (i, &(j, dist)) in nearest.iter().enumerate() {
                    assert_eq!(dist.to_bits(), d.at2(i, j).to_bits(), "{obj:?} row {i}");
                }
            }
        }

        // Inside a converged fit, the last sweep ran on the final centers:
        // its loss is the mean of the one-shot per-row minimum distances.
        let (protos, trace) = ClusterConfig::new(3, 12).with_max_iters(50).fit_traced(&segs, 6);
        assert!(trace.converged_at.is_some(), "fit did not converge");
        let d = protos.distances(&segs);
        let n = segs.dims()[0];
        let total: f64 = (0..n)
            .map(|i| {
                let row = &d.data()[i * 3..(i + 1) * 3];
                row.iter().fold(f32::INFINITY, |m, &v| if v < m { v } else { m }) as f64
            })
            .sum();
        let last = *trace.loss_per_iter.last().expect("at least one iteration");
        assert_eq!(last.to_bits(), (total / n as f64).to_bits());
    }
}
