//! Forecast accuracy metrics: MSE and MAE with `f64` accumulation.

use focus_tensor::Tensor;

/// Mean squared error between same-shape tensors.
///
/// # Panics
/// If shapes differ or tensors are empty.
pub fn mse(pred: &Tensor, target: &Tensor) -> f64 {
    assert!(
        pred.shape().same_as(target.shape()),
        "mse shape mismatch: {} vs {}",
        pred.shape(),
        target.shape()
    );
    assert!(pred.numel() > 0, "mse of empty tensors");
    let ss: f64 = pred
        .data()
        .iter()
        .zip(target.data())
        .map(|(&p, &t)| {
            let d = (p - t) as f64;
            d * d
        })
        .sum();
    ss / pred.numel() as f64
}

/// Mean absolute error between same-shape tensors.
///
/// # Panics
/// If shapes differ or tensors are empty.
pub fn mae(pred: &Tensor, target: &Tensor) -> f64 {
    assert!(
        pred.shape().same_as(target.shape()),
        "mae shape mismatch: {} vs {}",
        pred.shape(),
        target.shape()
    );
    assert!(pred.numel() > 0, "mae of empty tensors");
    let s: f64 = pred
        .data()
        .iter()
        .zip(target.data())
        .map(|(&p, &t)| ((p - t) as f64).abs())
        .sum();
    s / pred.numel() as f64
}

/// Streaming accumulator for evaluating a model over many windows.
#[derive(Default, Clone, Copy, Debug)]
pub struct Metrics {
    sq_sum: f64,
    abs_sum: f64,
    count: u64,
}

impl Metrics {
    /// An empty accumulator.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Accumulates one `(prediction, target)` pair.
    pub fn update(&mut self, pred: &Tensor, target: &Tensor) {
        assert!(
            pred.shape().same_as(target.shape()),
            "Metrics::update shape mismatch: {} vs {}",
            pred.shape(),
            target.shape()
        );
        for (&p, &t) in pred.data().iter().zip(target.data()) {
            let d = (p - t) as f64;
            self.sq_sum += d * d;
            self.abs_sum += d.abs();
        }
        self.count += pred.numel() as u64;
    }

    /// Number of scalar points accumulated.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean squared error over everything accumulated so far.
    ///
    /// # Panics
    /// If nothing has been accumulated.
    pub fn mse(&self) -> f64 {
        assert!(self.count > 0, "no data accumulated");
        self.sq_sum / self.count as f64
    }

    /// Mean absolute error over everything accumulated so far.
    ///
    /// # Panics
    /// If nothing has been accumulated.
    pub fn mae(&self) -> f64 {
        assert!(self.count > 0, "no data accumulated");
        self.abs_sum / self.count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_and_mae_known_values() {
        let p = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let t = Tensor::from_vec(vec![0.0, 2.0, 5.0], &[3]);
        assert!((mse(&p, &t) - 5.0 / 3.0).abs() < 1e-12);
        assert!((mae(&p, &t) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_prediction_is_zero() {
        let p = Tensor::from_vec(vec![1.5, -2.0], &[2]);
        assert_eq!(mse(&p, &p), 0.0);
        assert_eq!(mae(&p, &p), 0.0);
    }

    #[test]
    fn accumulator_matches_batch_computation() {
        let p1 = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let t1 = Tensor::from_vec(vec![0.0, 0.0], &[2]);
        let p2 = Tensor::from_vec(vec![3.0], &[1]);
        let t2 = Tensor::from_vec(vec![0.0], &[1]);
        let mut m = Metrics::new();
        m.update(&p1, &t1);
        m.update(&p2, &t2);
        assert_eq!(m.count(), 3);
        assert!((m.mse() - (1.0 + 4.0 + 9.0) / 3.0).abs() < 1e-12);
        assert!((m.mae() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no data accumulated")]
    fn empty_accumulator_panics() {
        Metrics::new().mse();
    }
}
