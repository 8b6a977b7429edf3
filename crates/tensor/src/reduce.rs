//! Reductions: sums, means, variances and the argmax, along the whole tensor
//! or the trailing axis.
//!
//! Row-wise reductions ([`Tensor::sum_last`], [`Tensor::row_mean_std`])
//! parallelise over rows — each output is a function of one input row, so the
//! split is bitwise-identical to serial. Whole-tensor reductions
//! (`sum_all`, `var_all`) stay serial on purpose: splitting a single
//! accumulation chain would change summation order and therefore bits.

use crate::{exec, par, work, Tensor};

/// Minimum input elements per thread for row-wise reductions.
const ROW_GRAIN: usize = 16 * 1024;

impl Tensor {
    /// Sum of all elements (accumulated in `f64` for stability).
    pub fn sum_all(&self) -> f32 {
        exec::sum_all(self.data())
    }

    /// Mean of all elements.
    ///
    /// # Panics
    /// If the tensor is empty.
    pub fn mean_all(&self) -> f32 {
        assert!(self.numel() > 0, "mean of an empty tensor");
        exec::mean_all(self.data())
    }

    /// Population variance of all elements.
    pub fn var_all(&self) -> f32 {
        assert!(self.numel() > 0, "variance of an empty tensor");
        let mean = self.mean_all() as f64;
        let ss: f64 = self
            .data()
            .iter()
            .map(|&v| {
                let d = v as f64 - mean;
                d * d
            })
            .sum();
        (ss / self.numel() as f64) as f32
    }

    /// Sum over the trailing axis: `[.., n] → [..]` (shape loses the last dim).
    pub fn sum_last(&self) -> Tensor {
        let n = self.shape().last_dim();
        assert!(n > 0, "sum over an empty trailing axis");
        let mut out = Tensor::uninit(&self.dims()[..self.rank() - 1]);
        let grain_rows = ROW_GRAIN.div_ceil(n).max(1);
        par::parallel_fill(out.data_mut(), grain_rows, |range, chunk| {
            for (i, o) in range.zip(chunk.iter_mut()) {
                *o = self.data()[i * n..(i + 1) * n].iter().sum();
            }
        });
        out
    }

    /// Per-row `(mean, population std)` of a tensor viewed as `[leading, last]`.
    ///
    /// Rows with zero variance report `std = 0`.
    pub fn row_mean_std(&self) -> Vec<(f32, f32)> {
        let n = self.shape().last_dim();
        let rows = self.shape().leading();
        // A sum, then a subtract and a square accumulated, per element.
        work::add_flops(4 * self.numel());
        let mut out = vec![(0.0f32, 0.0f32); rows];
        let grain_rows = ROW_GRAIN.div_ceil(n).max(1);
        par::parallel_fill(&mut out, grain_rows, |range, chunk| {
            for (i, o) in range.zip(chunk.iter_mut()) {
                let row = &self.data()[i * n..(i + 1) * n];
                let mean = row.iter().sum::<f32>() / n as f32;
                let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
                *o = (mean, var.max(0.0).sqrt());
            }
        });
        out
    }

    /// Index of the maximum element of a rank-1 tensor.
    pub fn argmax(&self) -> usize {
        assert!(self.numel() > 0, "argmax of an empty tensor");
        let mut best = 0;
        let mut best_v = self.data()[0];
        for (i, &v) in self.data().iter().enumerate().skip(1) {
            if v > best_v {
                best = i;
                best_v = v;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use crate::Tensor;

    #[test]
    fn sum_mean_var() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(t.sum_all(), 10.0);
        assert_eq!(t.mean_all(), 2.5);
        assert_eq!(t.var_all(), 1.25);
    }

    #[test]
    fn sum_last_drops_axis() {
        let t = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]);
        let s = t.sum_last();
        assert_eq!(s.dims(), &[2]);
        assert_eq!(s.data(), &[3.0, 12.0]);
    }

    #[test]
    fn row_mean_std_handles_constant_rows() {
        let t = Tensor::from_vec(vec![2.0, 2.0, 2.0, 1.0, 2.0, 3.0], &[2, 3]);
        let ms = t.row_mean_std();
        assert_eq!(ms[0], (2.0, 0.0));
        assert!((ms[1].0 - 2.0).abs() < 1e-6);
        assert!((ms[1].1 - (2.0f32 / 3.0).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn argmax_finds_peak() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.3], &[3]);
        assert_eq!(t.argmax(), 1);
    }
}
