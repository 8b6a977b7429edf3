//! Instance normalisation of forecast windows (RevIN-style, Kim et al. 2021).
//!
//! Long-horizon forecasters — PatchTST, DLinear and FOCUS alike — normalise
//! each lookback window per entity before the network and de-normalise the
//! prediction afterwards, which removes the window-level distribution shift
//! that otherwise dominates the loss. The statistics are not learned, so this
//! lives outside the autograd graph.

use focus_tensor::{work, Tensor};

/// Per-entity window statistics captured by [`instance_norm`].
#[derive(Clone, Debug)]
pub struct InstanceStats {
    /// Per-row (entity) means.
    pub means: Vec<f32>,
    /// Per-row (entity) standard deviations (≥ `eps` floor applied at use).
    pub stds: Vec<f32>,
}

const EPS: f32 = 1e-5;

/// Normalises each row of `x: [N, L]` to zero mean / unit variance.
///
/// Returns the normalised window and the statistics needed to invert the
/// transform on the forecast.
pub fn instance_norm(x: &Tensor) -> (Tensor, InstanceStats) {
    assert_eq!(x.rank(), 2, "instance_norm expects [entities, time]");
    let (means, stds) = x.row_mean_std().into_iter().unzip();
    let stats = InstanceStats { means, stds };
    (normalise_target(x, &stats), stats)
}

/// Normalises each row of `y: [N, L]` with the given per-row statistics:
/// `(v − mean) / max(std, eps)`, the transform [`instance_norm`] applies to
/// the lookback window. Training normalises a target `[N, L_f]` with its
/// lookback window's statistics, so it happens in the space the network
/// sees.
pub fn normalise_target(y: &Tensor, stats: &InstanceStats) -> Tensor {
    let l = y.dims()[1];
    work::add_flops(2 * y.numel());
    let mut out = y.clone();
    for (e, (&mean, &std)) in stats.means.iter().zip(&stats.stds).enumerate() {
        let denom = std.max(EPS);
        for v in &mut out.data_mut()[e * l..(e + 1) * l] {
            *v = (*v - mean) / denom;
        }
    }
    out
}

/// Inverts [`instance_norm`] on a forecast `y: [N, L_f]` using the lookback
/// window's statistics.
pub fn instance_denorm(y: &Tensor, stats: &InstanceStats) -> Tensor {
    assert_eq!(y.rank(), 2, "instance_denorm expects [entities, horizon]");
    assert_eq!(
        y.dims()[0],
        stats.means.len(),
        "instance_denorm: {} rows vs {} stats",
        y.dims()[0],
        stats.means.len()
    );
    let l = y.dims()[1];
    work::add_flops(2 * y.numel());
    let mut out = y.clone();
    for i in 0..stats.means.len() {
        let std = stats.stds[i].max(EPS);
        let mean = stats.means[i];
        for v in &mut out.data_mut()[i * l..(i + 1) * l] {
            *v = *v * std + mean;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_then_denorm_is_identity() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0], &[2, 4]);
        let (n, stats) = instance_norm(&x);
        for i in 0..2 {
            let row = n.row(i);
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5);
        }
        let back = instance_denorm(&n, &stats);
        assert!(back.max_abs_diff(&x) < 1e-4);
    }

    #[test]
    fn statistics_normalisation_and_denormalisation_count_per_value() {
        let x = Tensor::from_vec((0..2 * 9).map(|v| v as f32).collect(), &[2, 9]);
        let ((_, stats), counted) = work::measure(|| instance_norm(&x));
        // Row statistics (4 per value), then subtract and divide (2).
        assert_eq!(counted.flops, (4 + 2) * 18);
        let y = Tensor::zeros(&[2, 5]);
        assert_eq!(work::measure(|| instance_denorm(&y, &stats)).1.flops, 2 * 10);
    }

    #[test]
    fn constant_rows_do_not_blow_up() {
        let x = Tensor::from_vec(vec![5.0, 5.0, 5.0, 5.0], &[1, 4]);
        let (n, stats) = instance_norm(&x);
        assert!(n.all_finite());
        assert_eq!(n.data(), &[0.0, 0.0, 0.0, 0.0]);
        let y = Tensor::from_vec(vec![1.0, -1.0], &[1, 2]);
        let back = instance_denorm(&y, &stats);
        assert!(back.all_finite());
        // Forecast is re-centred on the window mean.
        assert!((back.data()[0] - 5.0).abs() < 1e-3);
    }

    #[test]
    fn denorm_applies_to_different_horizon() {
        let x = Tensor::from_vec(vec![0.0, 2.0, 4.0, 6.0], &[1, 4]);
        let (_, stats) = instance_norm(&x);
        let pred = Tensor::zeros(&[1, 7]);
        let back = instance_denorm(&pred, &stats);
        // Zero in normalised space maps back to the window mean (3.0).
        assert!(back.data().iter().all(|&v| (v - 3.0).abs() < 1e-5));
    }
}
