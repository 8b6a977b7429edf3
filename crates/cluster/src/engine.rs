//! The clustering engine: Algorithm 1 of the paper.
//!
//! ```text
//! initialise k prototypes (k-means++ under the composite distance)
//! repeat
//!     assign every segment to its nearest prototype      (Eq. 6)
//!     update every prototype on its bucket's loss        (Eqs. 8–10)
//! until assignments stop changing or max_iters
//! ```

use crate::batch::{assign_batched, distance_matrix, lower_to_pick, CenterCache, NearestPick, SegmentCache};
use crate::objective::{bucket_corr_grad, Objective};
use focus_tensor::{par, pool, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

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
    // A pool buffer, so the tensor's drop files it where the next call of
    // the same shape finds it.
    let mut data = pool::take(n * per_entity * p);
    for (e, out) in data.chunks_exact_mut(per_entity * p).enumerate() {
        out.copy_from_slice(&series.row(e)[..per_entity * p]);
    }
    Tensor::from_vec(data, &[n * per_entity, p])
}

/// The first NaN or infinity in a fit's segments: Eq. 6 has no distance to
/// such a segment, so a fit refuses it instead of fitting a NaN prototype.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NonFiniteSegment {
    /// Row of the segment matrix.
    pub segment: usize,
    /// Position within the segment, `0 .. p`.
    pub step: usize,
    /// The value.
    pub value: f32,
}

impl NonFiniteSegment {
    /// The first non-finite value of row `segment` of `segments`.
    fn in_row(segments: &Tensor, segment: usize) -> NonFiniteSegment {
        let row = segments.row(segment);
        let step = row
            .iter()
            .position(|v| !v.is_finite())
            .expect("the cache build flags only rows with a non-finite value");
        NonFiniteSegment {
            segment,
            step,
            value: row[step],
        }
    }
}

impl fmt::Display for NonFiniteSegment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "segment value {} at segment {}, step {} is not finite",
            self.value, self.segment, self.step
        )
    }
}

impl std::error::Error for NonFiniteSegment {}

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
    /// If the segment width differs from `segment_len`, there are fewer
    /// segments than prototypes, or a segment holds a NaN or an infinity
    /// (naming its segment and step; [`ClusterConfig::try_fit`] returns it
    /// instead).
    pub fn fit(&self, segments: &Tensor, seed: u64) -> Prototypes {
        self.fit_traced(segments, seed).0
    }

    /// Like [`ClusterConfig::fit`], but a NaN or an infinity in `segments`
    /// comes back as the first such value's position.
    ///
    /// # Panics
    /// If the segment width differs from `segment_len` or there are fewer
    /// segments than prototypes.
    pub fn try_fit(&self, segments: &Tensor, seed: u64) -> Result<Prototypes, NonFiniteSegment> {
        self.run(segments, seed).map(|(protos, _)| protos)
    }

    /// Like [`ClusterConfig::fit`] but also returns the per-iteration loss
    /// trace (used by tests and the Fig. 8 harness).
    pub fn fit_traced(&self, segments: &Tensor, seed: u64) -> (Prototypes, FitTrace) {
        match self.run(segments, seed) {
            Ok(fit) => fit,
            // focus-lint: allow(panic-hygiene) -- documented panic: a fit on non-finite data would return NaN prototypes, and the message names the segment, step and value
            Err(bad) => panic!("{bad}"),
        }
    }

    fn run(&self, segments: &Tensor, seed: u64) -> Result<(Prototypes, FitTrace), NonFiniteSegment> {
        assert_eq!(segments.rank(), 2, "segments must be [n, p]");
        let (n, p) = (segments.dims()[0], segments.dims()[1]);
        assert_eq!(p, self.segment_len, "segment width {p} != segment_len {}", self.segment_len);
        assert!(
            n >= self.k,
            "need at least k = {} segments, got {n}",
            self.k
        );
        let mut rng = fit_rng(seed);
        focus_trace::span!("cluster/fit");

        let mut nearest = vec![(0usize, 0.0f32); n];
        let (seg, unit_rows, mut centers) = {
            focus_trace::span!("cluster/init");
            // Only the AdamW correlation gradient reads `U_j = Σ x̂_i`.
            let unit = matches!(self.update, ProtoUpdate::AdamW { .. });
            let (seg, unit_rows) = SegmentCache::for_fit(segments, &self.objective, unit)
                .map_err(|i| NonFiniteSegment::in_row(segments, i))?;
            let centers = kmeans_pp_init(segments, &seg, self.k, &self.objective, &mut rng, &mut nearest);
            (seg, unit_rows, centers)
        };
        let mut assignment = vec![usize::MAX; n];
        let mut trace = FitTrace::default();
        let mut adam = AdamState::new(self.k, p);

        for iter in 0..self.max_iters {
            // Assignment step (Eq. 6) via the fused sweep kernel; the first
            // takes k-means++'s hand-off, which holds the same bits. The f64
            // loss is then folded serially in ascending segment order so the
            // trace is identical at any thread count.
            if iter > 0 {
                let cache = CenterCache::new(&centers, &self.objective);
                assign_batched(&seg, &cache, &mut nearest);
            }
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
            let buckets = BucketStats::gather(segments, &unit_rows, &assignment, self.k);
            match self.update {
                ProtoUpdate::ClosedFormMean => update_mean(&buckets, &mut centers),
                ProtoUpdate::AdamW { lr, steps, weight_decay } => {
                    update_adamw(&buckets, &mut centers, self.objective.alpha(), &mut adam, lr, steps, weight_decay);
                }
            }
        }
        pool::give(unit_rows);

        Ok((Prototypes::from_centers(centers, self.objective), trace))
    }
}

/// The RNG stream of a fit seeded with `seed`.
fn fit_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0xc1a5_7e12u64.rotate_left(3))
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
///
/// Prototypes are fixed once built, so the sweep kernel's per-prototype
/// data (norms, centred-normalised rows, the interleaved pair table) is
/// built once here and shared by every assignment and distance call.
#[derive(Clone, Debug)]
pub struct Prototypes {
    centers: Tensor,
    objective: Objective,
    cache: CenterCache,
}

impl Prototypes {
    /// Builds a prototype set directly (for tests and deserialisation).
    pub fn from_centers(centers: Tensor, objective: Objective) -> Self {
        assert_eq!(centers.rank(), 2, "centers must be [k, p]");
        let cache = CenterCache::new(&centers, &objective);
        Prototypes { centers, objective, cache }
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
    /// A single segment runs through the same fused sweep kernel as
    /// [`Prototypes::assign_all`], as one zero-padded 16-row panel, so
    /// one-off and bulk assignment can never disagree.
    pub fn assign(&self, segment: &[f32]) -> usize {
        assert_eq!(
            segment.len(),
            self.segment_len(),
            "segment length {} != prototype length {}",
            segment.len(),
            self.segment_len()
        );
        self.assign_rows(segment)[0]
    }

    /// Assigns every row of `segments: [n, p]`, returning the bucket index
    /// per segment.
    ///
    /// One fused sweep: the segments are stored once as 16-row panels, and
    /// per panel and prototype both dot products of Eq. 6 (`x·c` on the raw
    /// rows, `x̂·ĉ` on the centred-normalised ones) run in 16-lane registers,
    /// followed by the distance formula and a running argmin. No `[n, k]`
    /// distance matrix is formed. Each dot is the `a·bᵀ` GEMM chain (`f32`,
    /// ascending, from `+0.0`), so every distance has the bits the two
    /// `X·Cᵀ` GEMMs plus the epilogue would give. Distances agree with
    /// [`Prototypes::assign_all_scalar`] to f32 roundoff, argmins whenever
    /// the best/second-best margin exceeds it, and exact ties break to the
    /// lowest index on both paths. Identical at any thread count.
    pub fn assign_all(&self, segments: &Tensor) -> Vec<usize> {
        self.assign_rows(self.segment_rows(segments))
    }

    /// [`Prototypes::assign_all`] over `rows`, consecutive `p`-wide
    /// segments read in place: a window `[N, L]` holds its `N·L/p`
    /// segments this way, so routing needs no reshaped copy of it.
    ///
    /// # Panics
    /// If `rows.len()` is not a multiple of `p`.
    pub fn assign_rows(&self, rows: &[f32]) -> Vec<usize> {
        let seg = self.segment_cache(rows);
        let mut nearest = vec![(0usize, 0.0f32); rows.len() / self.segment_len()];
        assign_batched(&seg, &self.cache, &mut nearest);
        nearest.into_iter().map(|(j, _)| j).collect()
    }

    /// Scalar-oracle assignment sweep: a straight per-pair
    /// [`Objective::distance`] loop with f64 accumulation. Kept as the
    /// ground-truth reference for the fused sweep (property tests, benchmark
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
    /// `segments` to every prototype (soft routing's input), via the same
    /// fused sweep kernel as [`Prototypes::assign_all`], which writes each
    /// panel's distances out instead of reducing them.
    pub fn distances(&self, segments: &Tensor) -> Tensor {
        self.distance_rows(self.segment_rows(segments))
    }

    /// [`Prototypes::distances`] over `rows`, consecutive `p`-wide segments
    /// read in place, as `[rows.len() / p, k]`.
    ///
    /// # Panics
    /// If `rows.len()` is not a multiple of `p`.
    pub fn distance_rows(&self, rows: &[f32]) -> Tensor {
        distance_matrix(&self.segment_cache(rows), &self.cache)
    }

    /// The data of `segments: [n, p]`, checked against the prototypes' `p`.
    fn segment_rows<'a>(&self, segments: &'a Tensor) -> &'a [f32] {
        assert_eq!(segments.rank(), 2, "segments must be [n, p]");
        assert_eq!(
            segments.dims()[1],
            self.segment_len(),
            "segment length {} != prototype length {}",
            segments.dims()[1],
            self.segment_len()
        );
        segments.data()
    }

    /// The sweep's segment cache of `rows`, `p`-wide segments.
    fn segment_cache(&self, rows: &[f32]) -> SegmentCache {
        let p = self.segment_len();
        assert!(
            p > 0 && rows.len().is_multiple_of(p),
            "{} values are not whole segments of length {p}",
            rows.len()
        );
        SegmentCache::from_rows(rows, rows.len() / p, p, &self.objective)
    }

    /// The distance from `segment` to its nearest prototype.
    pub fn nearest_distance(&self, segment: &[f32]) -> f32 {
        let j = self.assign(segment);
        self.objective.distance(segment, self.centers.row(j))
    }
}

/// k-means++ seeding under the composite distance, evaluated by the sweep
/// kernel from the segments' cache `seg`. Fills `nearest[i]` with segment
/// `i`'s nearest pick and its distance: the assignment sweep's output on
/// the returned centers, bit for bit ([`NearestPick`]).
fn kmeans_pp_init(
    segments: &Tensor,
    seg: &SegmentCache,
    k: usize,
    objective: &Objective,
    rng: &mut StdRng,
    nearest: &mut [(usize, f32)],
) -> Tensor {
    let (n, p) = (segments.dims()[0], segments.dims()[1]);
    let mut centers = Tensor::zeros(&[k, p]);
    let mut running = NearestPick::new(n);
    // Distance sweeps below are per-segment independent (parallel, bitwise
    // identical to serial); the weighted pick itself stays serial so the RNG
    // stream and the f64 prefix scan keep their exact order.
    let mut pick = rng.gen_range(0..n);
    for j in 0..k {
        centers.data_mut()[j * p..(j + 1) * p].copy_from_slice(segments.row(pick));
        lower_to_pick(seg, &CenterCache::one(segments.row(pick), objective), j, &mut running);
        if j + 1 < k {
            pick = weighted_pick(running.dists(), rng);
        }
    }
    running.hand_off(nearest);
    centers
}

/// The next k-means++ pick: segment `i` with probability proportional to
/// `dists[i]`, from one f64 prefix scan in ascending `i`; uniform once
/// every distance is ~0.
fn weighted_pick(dists: &[f32], rng: &mut StdRng) -> usize {
    let n = dists.len();
    let total: f64 = dists.iter().map(|&d| d.max(0.0) as f64).sum();
    if total <= f64::EPSILON {
        return rng.gen_range(0..n);
    }
    let mut target = rng.gen::<f64>() * total;
    for (i, &d) in dists.iter().enumerate() {
        target -= d.max(0.0) as f64;
        if target <= 0.0 {
            return i;
        }
    }
    n - 1
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
/// gradient needs it — `U_j = Σ_{i∈B_j} x̂_i` over the unit rows the fit's
/// cache build wrote.
struct BucketStats {
    counts: Vec<usize>,
    /// `Σ_{i∈B_j} x_i`, `[k, p]`.
    sums: Vec<f64>,
    /// Bucket means `[k, p]`; zero rows for empty buckets.
    means: Vec<f32>,
    /// `U: [k, p]`; empty unless gathered with unit rows.
    unit_sums: Vec<f64>,
}

impl BucketStats {
    /// `unit_rows` holds `x̂_i` as row `i` (rows past `n` are ignored), or
    /// is empty to skip `U_j`.
    fn gather(segments: &Tensor, unit_rows: &[f32], assignment: &[usize], k: usize) -> BucketStats {
        let p = segments.dims()[1];
        let mut buckets = BucketStats {
            counts: vec![0; k],
            sums: vec![0.0; k * p],
            means: vec![0.0; k * p],
            unit_sums: vec![0.0; if unit_rows.is_empty() { 0 } else { k * p }],
        };
        // Column groups of a fixed width, so a row's adds are straight-line
        // vector code: a loop over the runtime width `p` cost the pass
        // about half its time in loop overhead.
        let mut c0 = 0;
        while c0 < p {
            let rows = (segments.data(), unit_rows);
            c0 += match p - c0 {
                8.. => buckets.add_runs::<8>(p, c0, rows, assignment),
                4..=7 => buckets.add_runs::<4>(p, c0, rows, assignment),
                2 | 3 => buckets.add_runs::<2>(p, c0, rows, assignment),
                _ => buckets.add_runs::<1>(p, c0, rows, assignment),
            };
        }
        for ((m, s), &count) in buckets.means.chunks_mut(p.max(1)).zip(buckets.sums.chunks(p.max(1))).zip(&buckets.counts) {
            if count > 0 {
                let inv = 1.0 / count as f64;
                for (m, &s) in m.iter_mut().zip(s) {
                    *m = (s * inv) as f32;
                }
            }
        }
        buckets
    }

    /// Adds columns `c0 .. c0 + W` of the `p`-wide segment rows (and of the
    /// unit rows) into their buckets' f64 sums, and returns `W`; the group at
    /// column 0 also counts the members. A run of consecutive segments in
    /// one bucket is held in registers and stored once, so a row waits on
    /// the previous row's add, not on its store and reload; every sum still
    /// takes its bucket's rows in ascending `i`, starting from what the
    /// bucket's earlier runs left.
    fn add_runs<const W: usize>(
        &mut self,
        p: usize,
        c0: usize,
        (data, unit_rows): (&[f32], &[f32]),
        assignment: &[usize],
    ) -> usize {
        let unit = !self.unit_sums.is_empty();
        let group = |row: &[f32]| -> [f32; W] { row[c0..c0 + W].try_into().expect("a column group is W wide") };
        // Without unit rows, the segment rows stand in for them unread.
        let unit_rows = if unit { unit_rows } else { data };
        let (mut cur, mut len) = (assignment.first().copied().unwrap_or(0), 0);
        let (mut acc, mut unit_acc) = ([0.0f64; W], [0.0f64; W]);
        for ((&a, row), unit_row) in assignment.iter().zip(data.chunks_exact(p)).zip(unit_rows.chunks_exact(p)) {
            if a != cur {
                self.flush(cur, p, c0, len, &acc, &unit_acc);
                (cur, len) = (a, 0);
                acc = self.sums[a * p + c0..][..W].try_into().expect("a column group is W wide");
                if unit {
                    unit_acc = self.unit_sums[a * p + c0..][..W].try_into().expect("a column group is W wide");
                }
            }
            len += 1;
            for (s, v) in acc.iter_mut().zip(group(row)) {
                *s += v as f64;
            }
            if unit {
                for (s, v) in unit_acc.iter_mut().zip(group(unit_row)) {
                    *s += v as f64;
                }
            }
        }
        if len > 0 {
            self.flush(cur, p, c0, len, &acc, &unit_acc);
        }
        W
    }

    /// Stores a finished run of `len` members of bucket `j`.
    fn flush<const W: usize>(&mut self, j: usize, p: usize, c0: usize, len: usize, acc: &[f64; W], unit_acc: &[f64; W]) {
        if c0 == 0 {
            self.counts[j] += len;
        }
        self.sums[j * p + c0..][..W].copy_from_slice(acc);
        if !self.unit_sums.is_empty() {
            self.unit_sums[j * p + c0..][..W].copy_from_slice(unit_acc);
        }
    }
}

/// The fit's internal passes, for the crate's property tests, which hold
/// them to serial-order references. Not part of the API.
#[doc(hidden)]
pub mod fit_passes {
    use super::{fit_rng, kmeans_pp_init, BucketStats, ClusterConfig, SegmentCache};
    use focus_tensor::Tensor;

    /// k-means++ seeding exactly as [`ClusterConfig::fit`] runs it on
    /// `segments` with `seed`: the seeded centers and, per segment, the
    /// nearest pick and its distance, which the fit's first iteration takes
    /// as its assignment.
    ///
    /// # Panics
    /// If a segment holds a non-finite value.
    pub fn kmeans_pp(cfg: &ClusterConfig, segments: &Tensor, seed: u64) -> (Tensor, Vec<(usize, f32)>) {
        let (seg, _) = SegmentCache::for_fit(segments, &cfg.objective, false).expect("finite segments");
        let mut nearest = vec![(0, 0.0); segments.dims()[0]];
        let centers = kmeans_pp_init(segments, &seg, cfg.k, &cfg.objective, &mut fit_rng(seed), &mut nearest);
        (centers, nearest)
    }

    /// One update step's bucket pass over `assignment` into `k` buckets:
    /// member counts, the f64 sums `Σ x_i` and, unless `unit_rows` is empty,
    /// `U_j = Σ x̂_i` over its rows, each sum `[k, p]`.
    pub fn bucket_sums(
        segments: &Tensor,
        unit_rows: &[f32],
        assignment: &[usize],
        k: usize,
    ) -> (Vec<usize>, Vec<f64>, Vec<f64>) {
        let b = BucketStats::gather(segments, unit_rows, assignment, k);
        (b.counts, b.sums, b.unit_sums)
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

    /// Fits 20 segments of 6 with `value` planted at the first or the last
    /// value.
    fn fit_with(value: f32, last: bool) {
        let (segs, _) = planted(7, 6);
        let mut data = segs.data().to_vec();
        let at = if last { data.len() - 1 } else { 0 };
        data[at] = value;
        let _ = ClusterConfig::new(3, 6).with_max_iters(2).fit(&Tensor::from_vec(data, &[21, 6]), 1);
    }

    #[test]
    #[should_panic(expected = "segment value NaN at segment 0, step 0 is not finite")]
    fn fit_names_a_nan_first_value() {
        fit_with(f32::NAN, false);
    }

    #[test]
    #[should_panic(expected = "segment value NaN at segment 20, step 5 is not finite")]
    fn fit_names_a_nan_last_value() {
        fit_with(f32::NAN, true);
    }

    #[test]
    #[should_panic(expected = "segment value inf at segment 0, step 0 is not finite")]
    fn fit_names_an_infinite_first_value() {
        fit_with(f32::INFINITY, false);
    }

    #[test]
    #[should_panic(expected = "segment value inf at segment 20, step 5 is not finite")]
    fn fit_names_an_infinite_last_value() {
        fit_with(f32::INFINITY, true);
    }

    #[test]
    #[should_panic(expected = "segment value -inf at segment 0, step 0 is not finite")]
    fn fit_names_a_negative_infinite_first_value() {
        fit_with(f32::NEG_INFINITY, false);
    }

    #[test]
    #[should_panic(expected = "segment value -inf at segment 20, step 5 is not finite")]
    fn fit_names_a_negative_infinite_last_value() {
        fit_with(f32::NEG_INFINITY, true);
    }

    #[test]
    fn try_fit_returns_the_first_non_finite_value() {
        let (segs, _) = planted(7, 6);
        let mut data = segs.data().to_vec();
        data[4 * 6 + 3] = f32::NAN;
        data[9 * 6 + 1] = f32::INFINITY;
        let err = ClusterConfig::new(3, 6)
            .try_fit(&Tensor::from_vec(data, &[21, 6]), 1)
            .expect_err("a NaN segment is refused");
        assert_eq!((err.segment, err.step), (4, 3));
        assert!(err.value.is_nan());
        assert!(ClusterConfig::new(3, 6).try_fit(&segs, 1).is_ok(), "finite segments fit");
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

