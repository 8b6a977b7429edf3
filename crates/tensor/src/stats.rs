//! Statistics over `f32` slices: Pearson correlation, z-scores, Euclidean
//! distances.
//!
//! These are the primitives behind the paper's composite clustering distance
//! (Eq. 6): `‖x − c‖² + α · (1 − corr(x, c))`.

/// Scale-aware zero-variance test shared by every correlation-style
/// normalisation in the workspace (Pearson here, the centred-normalised rows
/// in `focus-cluster`'s batched sweep, and the correlation gradient).
///
/// A constant `f32` slice has `sxx == 0` exactly: the `f64` sum of equal
/// `f32` values is exact, and so is its division by `n`, so every centred
/// residual is 0. The test still compares against a floor, not zero: `sxx`
/// at or below the accumulated-rounding noise floor for a slice of `n`
/// elements with magnitude `max_abs` reads as zero, so a centred norm made
/// of rounding residue alone never becomes a garbage "unit" vector (the
/// NaN/garbage-corr bug) at any magnitude, where the absolute
/// `f64::EPSILON` threshold would only hold below magnitude 1.
///
/// The floor is deliberately generous (×256) so near-constant rows whose
/// variation is itself rounding noise also read as flat; genuinely varying
/// data sits orders of magnitude above it — an `f32` step at magnitude
/// `|v|` is `ε₃₂ · |v| ≈ 10⁹ · ε₆₄ · |v|`, so one real step per slice
/// already clears the floor by ~10¹⁶×.
pub fn zero_variance(sxx: f64, n: usize, max_abs: f64) -> bool {
    let ulp = f64::EPSILON * max_abs.max(1.0);
    let noise_floor = (n as f64) * ulp * ulp * 256.0;
    sxx <= f64::EPSILON.max(noise_floor)
}

/// Pearson correlation coefficient between two equal-length slices.
///
/// If either input has zero variance the correlation is undefined; this
/// implementation returns `0.0` in that case so the composite distance of
/// Eq. 6 stays finite (a flat segment carries no shape information, so "no
/// correlation" is the neutral choice).
///
/// # Panics
/// If the slices have different lengths or are empty.
pub fn pearson(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "pearson length mismatch: {} vs {}", x.len(), y.len());
    assert!(!x.is_empty(), "pearson of empty slices");
    let n = x.len() as f64;
    let mx: f64 = x.iter().map(|&v| v as f64).sum::<f64>() / n;
    let my: f64 = y.iter().map(|&v| v as f64).sum::<f64>() / n;
    let mut sxy = 0.0f64;
    let mut sxx = 0.0f64;
    let mut syy = 0.0f64;
    let mut ax = 0.0f64;
    let mut ay = 0.0f64;
    for (&a, &b) in x.iter().zip(y) {
        let dx = a as f64 - mx;
        let dy = b as f64 - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
        ax = ax.max((a as f64).abs());
        ay = ay.max((b as f64).abs());
    }
    if zero_variance(sxx, x.len(), ax) || zero_variance(syy, y.len(), ay) {
        return 0.0;
    }
    let r = sxy / (sxx.sqrt() * syy.sqrt());
    // Floating-point noise can push |r| infinitesimally past 1.
    r.clamp(-1.0, 1.0) as f32
}

/// Squared Euclidean distance between two equal-length slices.
///
/// # Panics
/// If the slices have different lengths.
pub fn sq_euclidean(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "sq_euclidean length mismatch");
    x.iter()
        .zip(y)
        .map(|(&a, &b)| {
            let d = (a - b) as f64;
            d * d
        })
        .sum::<f64>() as f32
}

/// Mean and population standard deviation of a slice.
///
/// Returns `(0.0, 0.0)` for an empty slice.
pub fn mean_std(x: &[f32]) -> (f32, f32) {
    if x.is_empty() {
        return (0.0, 0.0);
    }
    let n = x.len() as f64;
    let mean: f64 = x.iter().map(|&v| v as f64).sum::<f64>() / n;
    let var: f64 = x
        .iter()
        .map(|&v| {
            let d = v as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / n;
    (mean as f32, var.max(0.0).sqrt() as f32)
}

/// Z-score normalises a slice in place using the given statistics.
///
/// A `std` of zero (constant series) leaves values centred but unscaled,
/// matching the convention of the standard MTS forecasting pipelines which
/// guard the division with a small epsilon.
pub fn zscore_in_place(x: &mut [f32], mean: f32, std: f32) {
    let denom = if std > 1e-8 { std } else { 1.0 };
    for v in x.iter_mut() {
        *v = (*v - mean) / denom;
    }
}

/// Inverts [`zscore_in_place`].
pub fn un_zscore_in_place(x: &mut [f32], mean: f32, std: f32) {
    let denom = if std > 1e-8 { std } else { 1.0 };
    for v in x.iter_mut() {
        *v = *v * denom + mean;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect_positive() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn pearson_perfect_negative() {
        let x = [1.0, 2.0, 3.0];
        let y = [3.0, 2.0, 1.0];
        assert!((pearson(&x, &y) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn pearson_paper_example() {
        // Example 2 from the paper: A={9,10,11}, B={7,10,13}, C={11,10,9}.
        // A correlates perfectly with B and anti-correlates with C, even
        // though the Euclidean distances tie.
        let a = [9.0, 10.0, 11.0];
        let b = [7.0, 10.0, 13.0];
        let c = [11.0, 10.0, 9.0];
        assert!((sq_euclidean(&a, &b) - sq_euclidean(&a, &c)).abs() < 1e-6);
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-6);
        assert!((pearson(&a, &c) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn pearson_zero_variance_is_zero() {
        let flat = [5.0, 5.0, 5.0];
        let y = [1.0, 2.0, 3.0];
        assert_eq!(pearson(&flat, &y), 0.0);
        assert_eq!(pearson(&y, &flat), 0.0);
        assert_eq!(pearson(&flat, &flat), 0.0);
    }

    #[test]
    fn pearson_large_magnitude_constant_is_zero() {
        // At |v| ≈ 1e8 the f64 sum and mean of the equal f32 values are
        // still exact, so sxx is exactly 0 and the row reads as flat.
        let flat = [1.0e8f32, 1.0e8, 1.0e8, 1.0e8, 1.0e8, 1.0e8, 1.0e8];
        let y = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        assert_eq!(pearson(&flat, &y), 0.0);
        assert_eq!(pearson(&y, &flat), 0.0);
    }

    #[test]
    fn zero_variance_floor_scales_with_magnitude() {
        // Absolute-epsilon regime: small sxx at small magnitude is zero.
        assert!(zero_variance(1e-17, 8, 1.0));
        assert!(!zero_variance(1e-3, 8, 1.0));
        // Rounding noise for 8 elements at |v|=1e8 is ~8·(ε₆₄·1e8)² ≈ 4e-15;
        // the generous floor absorbs it, but one real f32 step at that
        // magnitude ((ε₃₂·1e8)² ≈ 64) clears the floor comfortably.
        assert!(zero_variance(4e-15, 8, 1e8));
        assert!(!zero_variance(64.0, 8, 1e8));
    }

    #[test]
    fn pearson_still_sees_one_f32_step_at_large_magnitude() {
        // One representable step above 1e8 is still a real signal.
        let step = f32::from_bits(1.0e8f32.to_bits() + 1);
        let x = [1.0e8f32, step, 1.0e8, step];
        let y = [0.0f32, 1.0, 0.0, 1.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn pearson_shift_and_scale_invariant() {
        let x = [0.3, -1.2, 2.5, 0.0, 1.1];
        let y: Vec<f32> = x.iter().map(|v| 3.0 * v + 7.0).collect();
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn sq_euclidean_known() {
        assert_eq!(sq_euclidean(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn zscore_round_trip() {
        let mut x = vec![1.0, 2.0, 3.0, 4.0];
        let (m, s) = mean_std(&x);
        zscore_in_place(&mut x, m, s);
        let (m2, s2) = mean_std(&x);
        assert!(m2.abs() < 1e-6);
        assert!((s2 - 1.0).abs() < 1e-5);
        un_zscore_in_place(&mut x, m, s);
        assert!((x[0] - 1.0).abs() < 1e-5 && (x[3] - 4.0).abs() < 1e-5);
    }

    #[test]
    fn zscore_constant_series_is_safe() {
        let mut x = vec![2.0, 2.0];
        let (m, s) = mean_std(&x);
        zscore_in_place(&mut x, m, s);
        assert_eq!(x, vec![0.0, 0.0]);
    }
}
