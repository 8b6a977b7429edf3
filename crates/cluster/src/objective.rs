//! Clustering objectives: the composite distance of Eq. 6 and the gradients
//! of the prototype loss (Eqs. 8–10).

use focus_tensor::stats;

/// Which loss drives assignment and prototype optimisation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Objective {
    /// Pure Euclidean reconstruction (*Rec Only* in Fig. 8); equivalent to
    /// classic k-means.
    RecOnly,
    /// Reconstruction plus correlation alignment with weight `alpha`
    /// (*Rec+Corr*, Eq. 6/Eq. 10; the paper uses `alpha = 0.2`).
    RecCorr {
        /// Weight of the `1 − corr` term.
        alpha: f32,
    },
}

impl Objective {
    /// The paper's default: `Rec+Corr` with α = 0.2.
    pub fn paper_default() -> Objective {
        Objective::RecCorr { alpha: 0.2 }
    }

    /// Convenience constructor for `Rec+Corr`.
    pub fn rec_corr(alpha: f32) -> Objective {
        assert!(alpha >= 0.0, "alpha must be non-negative, got {alpha}");
        Objective::RecCorr { alpha }
    }

    /// The correlation weight (0 for [`Objective::RecOnly`]).
    pub fn alpha(&self) -> f32 {
        match self {
            Objective::RecOnly => 0.0,
            Objective::RecCorr { alpha } => *alpha,
        }
    }

    /// Composite assignment distance of Eq. 6:
    /// `‖x − c‖² + α · (1 − corr(x, c))`.
    pub fn distance(&self, segment: &[f32], prototype: &[f32]) -> f32 {
        let rec = stats::sq_euclidean(segment, prototype);
        match self {
            Objective::RecOnly => rec,
            Objective::RecCorr { alpha } => {
                rec + alpha * (1.0 - stats::pearson(segment, prototype))
            }
        }
    }
}

/// Gradient of `Σ_{i∈B} corr(x_i, c)` with respect to the prototype `c`,
/// from the bucket statistic `U = Σ_{i∈B} x̂_i` (the sum of the members'
/// centred, unit-normalised copies, flat members counting as zero).
///
/// Each member contributes `x̂_i/‖c̃‖ − ⟨x̂_i, c̃⟩·c̃/‖c̃‖³` (the test-only
/// per-member oracle `corr_grad_wrt_prototype` below), so the bucket sum is
///
/// ```text
/// U/‖c̃‖ − ⟨U, c̃⟩ · c̃/‖c̃‖³
/// ```
///
/// — `O(p)` per bucket however many members it has. Computed in f64 and
/// centred once (the exact gradient has zero mean). A (numerically)
/// constant prototype has `corr = 0` with every member, and gradient 0.
pub(crate) fn bucket_corr_grad(unit_sum: &[f64], prototype: &[f32], out: &mut [f64]) {
    assert_eq!(unit_sum.len(), prototype.len(), "length mismatch");
    assert_eq!(out.len(), prototype.len(), "output length mismatch");
    let n = prototype.len() as f64;
    let mc: f64 = prototype.iter().map(|&v| v as f64).sum::<f64>() / n;
    let mut nc2 = 0.0f64;
    let mut max_c = 0.0f64;
    for &c in prototype {
        let ct = c as f64 - mc;
        nc2 += ct * ct;
        max_c = max_c.max((c as f64).abs());
    }
    if stats::zero_variance(nc2, prototype.len(), max_c) {
        out.fill(0.0);
        return;
    }
    let nc = nc2.sqrt();
    let dot: f64 = unit_sum
        .iter()
        .zip(prototype)
        .map(|(&u, &c)| u * (c as f64 - mc))
        .sum();
    let scale = dot / (nc2 * nc);
    for ((o, &u), &c) in out.iter_mut().zip(unit_sum).zip(prototype) {
        *o = u / nc - scale * (c as f64 - mc);
    }
    let mean = out.iter().sum::<f64>() / n;
    for o in out.iter_mut() {
        *o -= mean;
    }
}

/// Gradient of `corr(s, c)` with respect to the prototype `c` — the
/// per-member reference oracle that [`bucket_corr_grad`] is tested against.
///
/// With `s̃`, `c̃` the mean-centred vectors and `r = ⟨s̃, c̃⟩/(‖s̃‖‖c̃‖)`:
///
/// ```text
/// ∂r/∂c = s̃/(‖s̃‖‖c̃‖) − r · c̃/‖c̃‖²
/// ```
///
/// (the centring projection leaves already-centred vectors unchanged, so it
/// is absorbed). If either vector is (numerically) constant the correlation
/// is defined as 0 and the gradient as 0.
#[cfg(test)]
pub(crate) fn corr_grad_wrt_prototype(segment: &[f32], prototype: &[f32], out: &mut [f32]) {
    assert_eq!(segment.len(), prototype.len(), "length mismatch");
    assert_eq!(out.len(), prototype.len(), "output length mismatch");
    let n = segment.len() as f64;
    let ms: f64 = segment.iter().map(|&v| v as f64).sum::<f64>() / n;
    let mc: f64 = prototype.iter().map(|&v| v as f64).sum::<f64>() / n;
    let mut dot = 0.0f64;
    let mut ns2 = 0.0f64;
    let mut nc2 = 0.0f64;
    let mut max_s = 0.0f64;
    let mut max_c = 0.0f64;
    for (&s, &c) in segment.iter().zip(prototype) {
        let st = s as f64 - ms;
        let ct = c as f64 - mc;
        dot += st * ct;
        ns2 += st * st;
        nc2 += ct * ct;
        max_s = max_s.max((s as f64).abs());
        max_c = max_c.max((c as f64).abs());
    }
    // Shared scale-aware floor (see `stats::zero_variance`): a constant
    // vector has ns2/nc2 exactly 0 (the f64 sum and mean of equal f32 values
    // are exact), and the floor reads a norm of rounding residue alone as 0
    // too; dividing by either would make the gradient garbage where
    // `corr = 0` defines it as zero.
    if stats::zero_variance(ns2, segment.len(), max_s)
        || stats::zero_variance(nc2, prototype.len(), max_c)
    {
        out.fill(0.0);
        return;
    }
    let ns = ns2.sqrt();
    let nc = nc2.sqrt();
    let r = dot / (ns * nc);
    for ((o, &s), &c) in out.iter_mut().zip(segment).zip(prototype) {
        let st = s as f64 - ms;
        let ct = c as f64 - mc;
        // Project through the centring: grad · (I − 11ᵀ/n). Because both
        // terms below are centred vectors, the projection is the identity.
        *o = ((st / (ns * nc)) - r * ct / nc2) as f32;
    }
    // Numerical centring: the exact gradient has zero mean.
    let mean: f32 = out.iter().sum::<f32>() / out.len() as f32;
    for o in out.iter_mut() {
        *o -= mean;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_tensor::stats;

    #[test]
    fn rec_only_is_euclidean() {
        let o = Objective::RecOnly;
        assert_eq!(o.distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(o.alpha(), 0.0);
    }

    #[test]
    fn corr_term_separates_paper_example() {
        // Example 2: A is Euclidean-equidistant from B and C, but the
        // composite distance must prefer the correlated B.
        let a = [9.0f32, 10.0, 11.0];
        let b = [7.0f32, 10.0, 13.0];
        let c = [11.0f32, 10.0, 9.0];
        let o = Objective::rec_corr(0.2);
        assert!(o.distance(&a, &b) < o.distance(&a, &c));
        // Rec-only cannot tell them apart.
        let r = Objective::RecOnly;
        assert!((r.distance(&a, &b) - r.distance(&a, &c)).abs() < 1e-6);
    }

    #[test]
    fn corr_gradient_matches_finite_differences() {
        let s = [0.3f32, -1.0, 2.0, 0.5, -0.8];
        let mut c = [1.0f32, 0.2, -0.5, 0.7, 0.1];
        let mut grad = [0.0f32; 5];
        corr_grad_wrt_prototype(&s, &c, &mut grad);
        let eps = 1e-3;
        for j in 0..5 {
            let orig = c[j];
            c[j] = orig + eps;
            let up = stats::pearson(&s, &c);
            c[j] = orig - eps;
            let dn = stats::pearson(&s, &c);
            c[j] = orig;
            let numeric = (up - dn) / (2.0 * eps);
            assert!(
                (grad[j] - numeric).abs() < 1e-3,
                "j={j}: analytic {} vs numeric {numeric}",
                grad[j]
            );
        }
    }

    #[test]
    fn corr_gradient_is_zero_for_flat_inputs() {
        let flat = [1.0f32; 4];
        let c = [0.5f32, 1.0, -1.0, 0.2];
        let mut grad = [9.0f32; 4];
        corr_grad_wrt_prototype(&flat, &c, &mut grad);
        assert_eq!(grad, [0.0; 4]);
    }

    #[test]
    fn corr_gradient_is_zero_for_large_magnitude_flat_inputs() {
        // |v| ≈ 1e8: the f64 sum and mean of the equal f32 values are
        // exact, so ns2 is exactly 0 and the vector reads as flat.
        let flat = [1.0e8f32; 6];
        let c = [0.5f32, 1.0, -1.0, 0.2, 0.9, -0.3];
        let mut grad = [9.0f32; 6];
        corr_grad_wrt_prototype(&flat, &c, &mut grad);
        assert_eq!(grad, [0.0; 6]);
        let mut grad2 = [9.0f32; 6];
        corr_grad_wrt_prototype(&c, &flat, &mut grad2);
        assert_eq!(grad2, [0.0; 6]);
    }

    #[test]
    fn ascending_corr_gradient_increases_correlation() {
        let s = [1.0f32, 2.0, 3.0, 4.0];
        let mut c = [0.5f32, -0.2, 0.1, 0.3];
        let before = stats::pearson(&s, &c);
        for _ in 0..50 {
            let mut g = [0.0f32; 4];
            corr_grad_wrt_prototype(&s, &c, &mut g);
            for (cv, gv) in c.iter_mut().zip(&g) {
                *cv += 0.1 * gv;
            }
        }
        let after = stats::pearson(&s, &c);
        assert!(after > before + 0.1, "before {before}, after {after}");
    }

    /// `bucket_corr_grad` on the bucket's `U`, and the oracle summed over
    /// its members, both in f64.
    fn bucket_vs_oracle(members: &[Vec<f32>], prototype: &[f32]) -> (Vec<f64>, Vec<f64>) {
        let p = prototype.len();
        let segs = focus_tensor::Tensor::from_vec(members.concat(), &[members.len(), p]);
        let (_, unit_rows) = crate::batch::SegmentCache::for_fit(&segs, &Objective::paper_default(), true)
            .expect("finite members");
        let mut unit_sum = vec![0.0f64; p];
        let mut want = vec![0.0f64; p];
        let mut g = vec![0.0f32; p];
        for (m, unit) in members.iter().zip(unit_rows.chunks_exact(p)) {
            for (u, &v) in unit_sum.iter_mut().zip(unit) {
                *u += v as f64;
            }
            corr_grad_wrt_prototype(m, prototype, &mut g);
            for (w, &gv) in want.iter_mut().zip(&g) {
                *w += gv as f64;
            }
        }
        let mut got = vec![9.0f64; p];
        bucket_corr_grad(&unit_sum, prototype, &mut got);
        (got, want)
    }

    fn assert_close(got: &[f64], want: &[f64], what: &str) {
        let scale = want.iter().fold(0.0f64, |m, &w| m.max(w.abs()));
        for (t, (&a, &b)) in got.iter().zip(want).enumerate() {
            assert!((a - b).abs() <= 1e-4 * scale, "{what}: [{t}] bucket {a} vs oracle sum {b}");
        }
    }

    #[test]
    fn bucket_corr_grad_matches_summed_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        for case in 0..40 {
            let p = rng.gen_range(2..17usize);
            let n = rng.gen_range(1..40usize);
            let scale = [0.01f32, 1.0, 300.0][case % 3];
            let row = |rng: &mut StdRng| (0..p).map(|_| scale * rng.gen_range(-1.0f32..1.0)).collect::<Vec<f32>>();
            let members: Vec<Vec<f32>> = (0..n).map(|_| row(&mut rng)).collect();
            let prototype = row(&mut rng);
            let (got, want) = bucket_vs_oracle(&members, &prototype);
            assert_close(&got, &want, &format!("random case {case} (n {n}, p {p})"));
        }
    }

    #[test]
    fn bucket_corr_grad_ignores_flat_members() {
        // Flat members — including 1e8-magnitude ones, whose centred sum
        // of squares is exactly 0 — contribute zero to both U and the oracle.
        let prototype = [0.5f32, 1.0, -1.0, 0.2, 0.9, -0.3];
        let members = vec![
            vec![0.3, -1.0, 2.0, 0.5, -0.8, 0.1],
            vec![4.0; 6],
            vec![1.0e8; 6],
            vec![-2.0, 0.5, 0.25, 1.5, -0.75, 3.0],
            vec![-1.0e8; 6],
        ];
        let (got, want) = bucket_vs_oracle(&members, &prototype);
        assert_close(&got, &want, "mixed bucket");
        let flat_only = vec![vec![4.0f32; 6], vec![1.0e8; 6]];
        let (got, _) = bucket_vs_oracle(&flat_only, &prototype);
        assert_eq!(got, vec![0.0; 6], "an all-flat bucket has no correlation gradient");
    }

    #[test]
    fn bucket_corr_grad_is_zero_for_flat_prototype() {
        let members = vec![vec![0.3f32, -1.0, 2.0, 0.5], vec![1.0, 2.0, 3.0, 4.0]];
        for prototype in [[2.5f32; 4], [1.0e8; 4], [0.0; 4]] {
            let (got, want) = bucket_vs_oracle(&members, &prototype);
            assert_eq!(got, vec![0.0; 4], "prototype {prototype:?}");
            assert_eq!(want, vec![0.0; 4], "oracle at prototype {prototype:?}");
        }
    }
}
