//! Elementwise operations, broadcasting helpers, softmax, transposes and
//! concatenation.
//!
//! Each op with a slice kernel in [`crate::exec`] checks its shapes, takes
//! its output from the pool and calls that kernel, which owns the loop and
//! its parallel split on [`crate::par`]: every output element depends only
//! on its own input position (or its own row), so the split is
//! bitwise-identical to serial at any thread count.

use crate::{exec, Tensor};

impl Tensor {
    /// Runs the same-shape binary slice kernel `kernel(self, other, out)`.
    fn zip_kernel(&self, other: &Tensor, kernel: impl FnOnce(&[f32], &[f32], &mut [f32])) -> Tensor {
        assert!(
            self.shape().same_as(other.shape()),
            "elementwise op shape mismatch: {} vs {}",
            self.shape(),
            other.shape()
        );
        let mut out = Tensor::uninit(self.dims());
        kernel(self.data(), other.data(), out.data_mut());
        out
    }

    /// Elementwise sum. Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_kernel(other, exec::zip_add)
    }

    /// Elementwise difference. Panics on shape mismatch.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_kernel(other, exec::zip_sub)
    }

    /// Elementwise (Hadamard) product. Panics on shape mismatch.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_kernel(other, exec::zip_mul)
    }

    /// Adds `rhs` to every element.
    pub fn add_scalar(&self, rhs: f32) -> Tensor {
        self.map_kernel(|src, dst| exec::map_add_scalar(src, rhs, dst))
    }

    /// Multiplies every element by `rhs`.
    pub fn scale(&self, rhs: f32) -> Tensor {
        self.map_kernel(|src, dst| exec::map_scale(src, rhs, dst))
    }

    /// Applies `f` to every element, counted as one FLOP each.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        self.map_kernel(|src, dst| exec::map(src, dst, 1, f))
    }

    /// Runs the shape-preserving slice kernel `kernel(self, out)`.
    fn map_kernel(&self, kernel: impl FnOnce(&[f32], &mut [f32])) -> Tensor {
        let mut out = Tensor::uninit(self.dims());
        kernel(self.data(), out.data_mut());
        out
    }

    /// In-place `self += alpha * other`. Panics on shape mismatch.
    ///
    /// Element `i` of the output depends only on element `i` of the inputs,
    /// so the parallel split is bitwise-identical to serial.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert!(
            self.shape().same_as(other.shape()),
            "axpy shape mismatch: {} vs {}",
            self.shape(),
            other.shape()
        );
        exec::axpy(self.data_mut(), alpha, other.data());
    }

    /// Adds a length-`n` row vector to every row of a `[.., n]` tensor.
    ///
    /// This is the bias-broadcast used by linear layers.
    pub fn add_row_broadcast(&self, row: &Tensor) -> Tensor {
        let n = self.shape().last_dim();
        assert_eq!(
            row.numel(),
            n,
            "broadcast row has {} elements, last dim is {n}",
            row.numel()
        );
        self.map_kernel(|src, dst| exec::add_row_broadcast(src, row.data(), n, dst))
    }

    /// Transpose of a rank-2 tensor.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "transpose requires rank 2, got {}", self.shape());
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let mut out = Tensor::uninit(&[n, m]);
        exec::transpose_last2(self.data(), 1, m, n, out.data_mut());
        out
    }

    /// Swaps the last two axes of a rank-3 tensor.
    pub fn transpose_last2(&self) -> Tensor {
        assert_eq!(
            self.rank(),
            3,
            "transpose_last2 requires rank 3, got {}",
            self.shape()
        );
        let (b, m, n) = (self.dims()[0], self.dims()[1], self.dims()[2]);
        let mut out = Tensor::uninit(&[b, n, m]);
        exec::transpose_last2(self.data(), b, m, n, out.data_mut());
        out
    }

    /// Numerically stable softmax over the trailing axis.
    ///
    /// Each length-`last_dim` row is shifted by its maximum before
    /// exponentiation (the [`crate::fused::softmax_rows`] kernel), so the
    /// result is finite for any finite input and every row sums to 1.
    pub fn softmax_last(&self) -> Tensor {
        let n = self.shape().last_dim();
        assert!(n > 0, "softmax over an empty trailing axis");
        self.map_kernel(|src, dst| exec::softmax_last(src, n, dst))
    }

    /// Concatenates two tensors along the trailing axis.
    ///
    /// All leading dimensions must match.
    pub fn concat_last(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.rank(),
            other.rank(),
            "concat_last rank mismatch: {} vs {}",
            self.shape(),
            other.shape()
        );
        let r = self.rank();
        assert!(r >= 1, "concat_last requires rank >= 1");
        assert_eq!(
            &self.dims()[..r - 1],
            &other.dims()[..r - 1],
            "concat_last leading dims mismatch: {} vs {}",
            self.shape(),
            other.shape()
        );
        let (na, nb) = (self.shape().last_dim(), other.shape().last_dim());
        let mut dims = self.dims().to_vec();
        dims[r - 1] = na + nb;
        let mut out = Tensor::uninit(&dims);
        exec::concat_last(self.data(), other.data(), na, nb, self.shape().leading(), out.data_mut());
        out
    }

    /// Splits the trailing axis at `split`: returns `(self[.., ..split], self[.., split..])`.
    pub fn split_last(&self, split: usize) -> (Tensor, Tensor) {
        let n = self.shape().last_dim();
        assert!(split <= n, "split point {split} exceeds last dim {n}");
        let rows = self.shape().leading();
        let half = |from: usize, to: usize| {
            let mut dims = self.dims().to_vec();
            dims[self.rank() - 1] = to - from;
            let mut out = Tensor::uninit(&dims);
            exec::slice_cols(self.data(), n, from, to, rows, out.data_mut());
            out
        };
        (half(0, split), half(split, n))
    }

    /// Stacks rank-`r` tensors of identical shape into one rank-`r+1` tensor.
    pub fn stack(tensors: &[Tensor]) -> Tensor {
        assert!(!tensors.is_empty(), "stack of zero tensors");
        let inner = tensors[0].shape().clone();
        let step = inner.numel();
        let mut dims = vec![tensors.len()];
        dims.extend_from_slice(inner.dims());
        let mut out = Tensor::uninit(&dims);
        for (idx, t) in tensors.iter().enumerate() {
            assert!(
                t.shape().same_as(&inner),
                "stack shape mismatch at index {idx}: {} vs {}",
                t.shape(),
                inner
            );
            out.data_mut()[idx * step..(idx + 1) * step].copy_from_slice(t.data());
        }
        out
    }

    /// Extracts slice `i` along the first axis of a rank-≥2 tensor,
    /// dropping that axis.
    pub fn index_axis0(&self, i: usize) -> Tensor {
        assert!(self.rank() >= 2, "index_axis0 requires rank >= 2");
        let n0 = self.dims()[0];
        assert!(i < n0, "index {i} out of bounds for axis of size {n0}");
        let inner: usize = self.dims()[1..].iter().product();
        let mut out = Tensor::uninit(&self.dims()[1..]);
        out.data_mut()
            .copy_from_slice(&self.data()[i * inner..(i + 1) * inner]);
        out
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2() -> Tensor {
        Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])
    }

    #[test]
    fn add_sub_mul() {
        let a = t2();
        let b = Tensor::full(&[2, 2], 2.0);
        assert_eq!(a.add(&b).data(), &[3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.sub(&b).data(), &[-1.0, 0.0, 1.0, 2.0]);
        assert_eq!(a.mul(&b).data(), &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_rejects_mismatch() {
        let _ = t2().add(&Tensor::zeros(&[3]));
    }

    #[test]
    fn transpose_rank2() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let tt = t.transpose();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.at2(2, 1), 6.0);
        assert_eq!(tt.transpose().data(), t.data());
    }

    #[test]
    fn transpose_last2_rank3() {
        let t = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[2, 2, 3]);
        let tt = t.transpose_last2();
        assert_eq!(tt.dims(), &[2, 3, 2]);
        assert_eq!(tt.at3(1, 2, 0), t.at3(1, 0, 2));
        assert_eq!(tt.transpose_last2().data(), t.data());
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let s = t.softmax_last();
        for i in 0..2 {
            let sum: f32 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Monotone in the logits.
        assert!(s.at2(0, 2) > s.at2(0, 1));
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let t = Tensor::from_vec(vec![1000.0, 1001.0, 999.0], &[1, 3]);
        let s = t.softmax_last();
        assert!(s.all_finite());
        let shifted = t.add_scalar(-1000.0).softmax_last();
        assert!(s.max_abs_diff(&shifted) < 1e-6);
    }

    #[test]
    fn add_row_broadcast_applies_per_row() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]);
        assert_eq!(t.add_row_broadcast(&b).data(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn concat_and_split_round_trip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0], &[2, 1]);
        let c = a.concat_last(&b);
        assert_eq!(c.dims(), &[2, 3]);
        assert_eq!(c.row(0), &[1.0, 2.0, 5.0]);
        let (x, y) = c.split_last(2);
        assert_eq!(x.data(), a.data());
        assert_eq!(y.data(), b.data());
    }

    #[test]
    fn stack_and_index_axis0() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        let s = Tensor::stack(&[a.clone(), b.clone()]);
        assert_eq!(s.dims(), &[2, 2]);
        assert_eq!(s.index_axis0(1).data(), b.data());
        assert_eq!(s.index_axis0(0).data(), a.data());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::zeros(&[3]);
        let g = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        a.axpy(0.5, &g);
        a.axpy(0.5, &g);
        assert_eq!(a.data(), g.data());
    }
}
