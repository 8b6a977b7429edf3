//! The core [`Tensor`] type: an owned, contiguous, row-major `f32` array with
//! a dynamic shape.

use crate::{pool, Shape};
use rand::Rng;
use std::fmt;

/// An owned, contiguous, row-major `f32` tensor.
///
/// Construction validates that the data length matches the shape; all
/// subsequent kernels can therefore index without bounds surprises. Shape
/// mismatches in operations are programming errors and panic.
///
/// Buffers come from and return to the process-wide recycling
/// [`pool`]: dropping a tensor files its buffer under the matching capacity
/// class, and constructors request from there, so steady-state training
/// reuses the same allocations window after window.
#[derive(PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Tensor {
            shape: self.shape.clone(),
            data: pool::take_copy(&self.data),
        }
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        pool::give(std::mem::take(&mut self.data));
    }
}

impl Tensor {
    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Panics
    /// If `data.len()` does not equal the product of `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {} (numel {})",
            data.len(),
            shape,
            shape.numel()
        );
        Tensor { shape, data }
    }

    /// A tensor with the given shape and **unspecified** contents, drawn
    /// from the buffer pool. For kernels that overwrite every element before
    /// reading any; see the [`pool`] contract.
    pub(crate) fn uninit(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        Tensor {
            shape,
            data: pool::take(n),
        }
    }

    /// A tensor of zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        Tensor {
            shape,
            data: pool::take_zeroed(n),
        }
    }

    /// A tensor of ones.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let mut t = Self::uninit(dims);
        t.data.fill(value);
        t
    }

    /// A rank-0 (scalar) tensor.
    pub fn scalar(value: f32) -> Self {
        Self::full(&[], value)
    }

    /// The `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Samples every element i.i.d. uniformly from `[lo, hi)`.
    pub fn rand_uniform<R: Rng + ?Sized>(dims: &[usize], lo: f32, hi: f32, rng: &mut R) -> Self {
        let mut t = Self::uninit(dims);
        for v in &mut t.data {
            *v = rng.gen_range(lo..hi);
        }
        t
    }

    /// Samples every element i.i.d. from `N(0, std²)` using Box–Muller.
    pub fn randn<R: Rng + ?Sized>(dims: &[usize], std: f32, rng: &mut R) -> Self {
        let mut t = Self::uninit(dims);
        let n = t.numel();
        let mut i = 0;
        while i < n {
            let (a, b) = box_muller(rng);
            t.data[i] = a * std;
            i += 1;
            if i < n {
                t.data[i] = b * std;
                i += 1;
            }
        }
        t
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension sizes, as a slice.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of dimensions.
    #[inline]
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Read-only view of the underlying row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the flat buffer (the buffer leaves
    /// the pool's custody; dropping it frees normally).
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.data)
    }

    /// Value of a rank-0 or single-element tensor.
    ///
    /// # Panics
    /// If the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.numel(),
            1,
            "item() requires a single-element tensor, got shape {}",
            self.shape
        );
        self.data[0]
    }

    /// Element access for a rank-2 tensor.
    #[inline]
    pub fn at2(&self, i: usize, j: usize) -> f32 {
        debug_assert_eq!(self.rank(), 2);
        self.data[i * self.shape.dim(1) + j]
    }

    /// Element access for a rank-3 tensor.
    #[inline]
    pub fn at3(&self, b: usize, i: usize, j: usize) -> f32 {
        debug_assert_eq!(self.rank(), 3);
        let (d1, d2) = (self.shape.dim(1), self.shape.dim(2));
        self.data[(b * d1 + i) * d2 + j]
    }

    /// Returns a copy with the same data but a different shape.
    ///
    /// # Panics
    /// If the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
        let shape = Shape::new(dims);
        assert_eq!(
            shape.numel(),
            self.numel(),
            "cannot reshape {} ({} elements) to {} ({} elements)",
            self.shape,
            self.numel(),
            shape,
            shape.numel()
        );
        Tensor {
            shape,
            data: pool::take_copy(&self.data),
        }
    }

    /// In-place reshape (no data movement).
    ///
    /// # Panics
    /// If the element counts differ.
    pub fn reshape_in_place(&mut self, dims: &[usize]) {
        let shape = Shape::new(dims);
        assert_eq!(shape.numel(), self.numel(), "reshape element count mismatch");
        self.shape = shape;
    }

    /// Copies row `i` of a rank-≥1 tensor viewed as `[leading, last_dim]`.
    pub fn row(&self, i: usize) -> &[f32] {
        let last = self.shape.last_dim();
        &self.data[i * last..(i + 1) * last]
    }

    /// True if every element is finite (no NaN/±∞).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Maximum absolute elementwise difference against `other`.
    ///
    /// # Panics
    /// If shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert!(
            self.shape.same_as(&other.shape),
            "max_abs_diff shape mismatch: {} vs {}",
            self.shape,
            other.shape
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    }
}

/// One Box–Muller draw: two independent standard-normal samples.
fn box_muller<R: Rng + ?Sized>(rng: &mut R) -> (f32, f32) {
    // Guard against log(0).
    let u1: f32 = rng.gen_range(f32::MIN_POSITIVE..1.0);
    let u2: f32 = rng.gen::<f32>();
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f32::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const PREVIEW: usize = 8;
        write!(f, "Tensor{} [", self.shape)?;
        for (i, v) in self.data.iter().take(PREVIEW).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        if self.numel() > PREVIEW {
            write!(f, ", … {} more", self.numel() - PREVIEW)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn from_vec_round_trip() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.dims(), &[2, 3]);
        assert_eq!(t.at2(1, 2), 6.0);
        assert_eq!(t.row(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_bad_length() {
        let _ = Tensor::from_vec(vec![1.0; 5], &[2, 3]);
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor::eye(3);
        assert_eq!(i.at2(0, 0), 1.0);
        assert_eq!(i.at2(0, 1), 0.0);
        assert_eq!(i.data().iter().sum::<f32>(), 3.0);
    }

    #[test]
    fn randn_moments_are_plausible() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::randn(&[10_000], 1.0, &mut rng);
        let mean = t.data().iter().sum::<f32>() / 10_000.0;
        let var = t.data().iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 10_000.0;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]);
        let r = t.reshape(&[3, 2]);
        assert_eq!(r.data(), t.data());
        assert_eq!(r.at2(2, 1), 5.0);
    }

    #[test]
    fn at3_indexes_row_major() {
        let t = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 4]);
        assert_eq!(t.at3(1, 2, 3), 23.0);
        assert_eq!(t.at3(0, 1, 0), 4.0);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(2.5).item(), 2.5);
    }

    #[test]
    fn max_abs_diff_works() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![1.5, 1.0], &[2]);
        assert_eq!(a.max_abs_diff(&b), 1.0);
    }
}
