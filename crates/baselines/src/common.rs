//! Shared helpers for the baseline models.

use focus_tensor::Tensor;

/// Series decomposition used by DLinear (and Autoformer before it): a
/// centred moving average extracts the trend; the remainder is the seasonal
/// component. Edges are padded by replication.
///
/// Returns `(trend, seasonal)`, both `[N, L]`.
pub fn decompose(x: &Tensor, kernel: usize) -> (Tensor, Tensor) {
    assert_eq!(x.rank(), 2, "window must be [N, L]");
    assert!(kernel >= 1, "kernel must be >= 1");
    let (n, len) = (x.dims()[0], x.dims()[1]);
    let half = kernel / 2;
    // `kernel` adds and one divide per trend value; the subtraction below
    // counts itself.
    focus_tensor::work::add_flops(n * len * (kernel + 1));
    let mut trend = Tensor::zeros(&[n, len]);
    for e in 0..n {
        let row = x.row(e);
        for t in 0..len {
            let mut acc = 0.0f64;
            for ofs in 0..kernel {
                // Replicated-edge padding.
                let idx = (t + ofs).saturating_sub(half).min(len - 1);
                acc += row[idx] as f64;
            }
            trend.data_mut()[e * len + t] = (acc / kernel as f64) as f32;
        }
    }
    let seasonal = x.sub(&trend);
    (trend, seasonal)
}

/// The dominant period of a window, estimated by lag autocorrelation over
/// the per-entity mean series (TimesNet uses an FFT top-k; a direct
/// autocorrelation scan over the candidate lags is equivalent for one
/// period and dependency-free).
///
/// Only lags that divide `L` are considered so the period-based reshape is
/// exact. Falls back to the largest candidate if the series is degenerate.
pub fn dominant_period(x: &Tensor, min_period: usize) -> usize {
    assert_eq!(x.rank(), 2, "window must be [N, L]");
    let (n, len) = (x.dims()[0], x.dims()[1]);
    // Mean series across entities.
    let mut mean = vec![0.0f32; len];
    for e in 0..n {
        for (m, &v) in mean.iter_mut().zip(x.row(e)) {
            *m += v / n as f32;
        }
    }
    let candidates: Vec<usize> = (min_period..=len / 2).filter(|p| len % p == 0).collect();
    if candidates.is_empty() {
        return len;
    }
    let mut best = candidates[0];
    let mut best_r = f32::NEG_INFINITY;
    for &p in &candidates {
        let r = focus_tensor::stats::pearson(&mean[..len - p], &mean[p..]);
        if r > best_r {
            best_r = r;
            best = p;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decompose_sums_back_to_input() {
        let x = Tensor::from_vec(
            (0..40).map(|t| (t as f32 * 0.5).sin() + 0.1 * t as f32).collect(),
            &[1, 40],
        );
        let (trend, seasonal) = decompose(&x, 9);
        let sum = trend.add(&seasonal);
        assert!(sum.max_abs_diff(&x) < 1e-5);
    }

    #[test]
    fn decompose_counts_the_moving_average_and_the_subtraction() {
        let x = Tensor::from_vec((0..3 * 40).map(|t| (t as f32 * 0.5).sin()).collect(), &[3, 40]);
        let (_, counted) = focus_tensor::work::measure(|| decompose(&x, 9));
        // 9 adds and a divide per trend value, then one subtraction.
        assert_eq!(counted.flops, 3 * 40 * (9 + 1) + 3 * 40);
    }

    #[test]
    fn trend_is_smoother_than_input() {
        let x = Tensor::from_vec(
            (0..64)
                .map(|t| 0.05 * t as f32 + if t % 2 == 0 { 1.0 } else { -1.0 })
                .collect(),
            &[1, 64],
        );
        let (trend, _) = decompose(&x, 11);
        let roughness = |row: &[f32]| -> f32 {
            row.windows(2).map(|w| (w[1] - w[0]).abs()).sum()
        };
        assert!(roughness(trend.row(0)) < 0.3 * roughness(x.row(0)));
    }

    #[test]
    fn dominant_period_finds_planted_cycle() {
        let period = 12;
        let x = Tensor::from_vec(
            (0..96)
                .map(|t| (2.0 * std::f32::consts::PI * (t % period) as f32 / period as f32).sin())
                .collect(),
            &[1, 96],
        );
        assert_eq!(dominant_period(&x, 4), period);
    }

    #[test]
    fn dominant_period_only_returns_divisors() {
        let x = Tensor::from_vec((0..60).map(|t| (t as f32 * 0.37).sin()).collect(), &[1, 60]);
        let p = dominant_period(&x, 4);
        assert_eq!(60 % p, 0, "period {p} must divide 60");
    }
}
