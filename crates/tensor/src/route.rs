//! Sparse one-hot routing kernels.
//!
//! ProtoAttn routes each segment to its assigned prototype's attention
//! summary: `out = A · head` with `A: [B, l, k]` one-hot. Materialising `A`
//! and running a dense batched product costs `O(B·l·k·d)`. These kernels
//! carry the assignment as an index vector `[B·l]` instead:
//!
//! * forward ([`route_gather`]) is a row gather — `O(B·l·d)` copies;
//! * backward ([`route_scatter_add`]) is a scatter-add over ascending segment
//!   index within each batch. The dense `Aᵀ · g` walks the same contraction
//!   axis in the same order: its `1.0 · g` terms are the scatter's adds, and
//!   on finite data each zero term adds an exact `±0.0` to a chain that
//!   starts at `+0.0` and so is never `−0.0`. The result is therefore
//!   **bitwise identical** to the dense backward.
//!
//! The loops live in [`crate::exec`]; these wrappers check shapes, and
//! indices through [`check_route`]. Both kernels split work over disjoint
//! output rows (gather) or disjoint batches (scatter), so the determinism
//! contract of [`crate::par`] holds at any thread count.

use crate::exec;
use crate::Tensor;

/// Checks a routing index vector for `b` batches of `l` segment slots
/// against the prototype count `k`: `B·l` indices, each below `k`. The
/// routing kernels index unchecked, so the wrappers here and the autograd
/// tape, when it records a route, check through this first.
///
/// # Panics
/// If `indices.len() != B·l`, or on the first index `≥ k`, naming its
/// position and value.
pub fn check_route(indices: &[u32], b: usize, l: usize, k: usize) {
    assert_eq!(indices.len(), b * l, "route expects B·l = {} indices, got {}", b * l, indices.len());
    for (pos, &j) in indices.iter().enumerate() {
        assert!(
            (j as usize) < k,
            "routing index {j} at position {pos} out of range for k = {k}"
        );
    }
}

/// One-hot routing forward: `out[b, i, :] = head[b, indices[b·l + i], :]`
/// for `head: [B, k, d]`, producing `[B, l, d]`.
///
/// Equivalent to `A · head` with the one-hot `A` built from `indices`
/// (`0.0 + 1.0·h` is exact in IEEE 754, so the gather is bitwise identical
/// to the dense product), at `O(B·l·d)` instead of `O(B·l·k·d)`.
///
/// # Panics
/// If `head` is not rank 3, `indices.len() != B·l`, or an index is `≥ k`.
pub fn route_gather(head: &Tensor, indices: &[u32], l: usize) -> Tensor {
    assert_eq!(head.rank(), 3, "route_gather head must be [B, k, d]");
    let (b, k, d) = (head.dims()[0], head.dims()[1], head.dims()[2]);
    check_route(indices, b, l, k);
    let mut out = Tensor::uninit(&[b, l, d]);
    exec::route_gather(head.data(), indices, b, k, d, l, out.data_mut());
    out
}

/// One-hot routing backward: `dhead[b, indices[b·l + i], :] += dout[b, i, :]`
/// for `dout: [B, l, d]`, producing `[B, k, d]`.
///
/// Within each batch the adds run over ascending segment index `i`, matching
/// the dense `Aᵀ · dout` accumulation chain bit for bit (see module docs).
/// Batches write disjoint output slices and may run in parallel.
///
/// # Panics
/// If `dout` is not rank 3, `indices.len() != B·l`, or an index is `≥ k`.
pub fn route_scatter_add(dout: &Tensor, indices: &[u32], k: usize) -> Tensor {
    assert_eq!(dout.rank(), 3, "route_scatter_add dout must be [B, l, d]");
    let (b, l, d) = (dout.dims()[0], dout.dims()[1], dout.dims()[2]);
    check_route(indices, b, l, k);
    let mut out = Tensor::uninit(&[b, k, d]);
    exec::route_scatter_add(dout.data(), indices, b, l, d, k, out.data_mut());
    out
}

/// Builds the dense one-hot `[B, l, k]` matrix a routing index vector stands
/// for (diagnostics and the dense-path tests; the hot path never calls this).
pub fn one_hot_matrix(indices: &[u32], b: usize, l: usize, k: usize) -> Tensor {
    check_route(indices, b, l, k);
    let mut a = Tensor::zeros(&[b, l, k]);
    for (row, &j) in indices.iter().enumerate() {
        a.data_mut()[row * k + j as usize] = 1.0;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fixture(b: usize, l: usize, k: usize, d: usize, seed: u64) -> (Tensor, Vec<u32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let head = Tensor::randn(&[b, k, d], 1.0, &mut rng);
        let indices: Vec<u32> = (0..b * l).map(|_| rng.gen_range(0..k as u32)).collect();
        (head, indices)
    }

    #[test]
    fn gather_matches_dense_bmm_bitwise() {
        let (b, l, k, d) = (3, 17, 5, 9);
        let (head, indices) = fixture(b, l, k, d, 1);
        let fast = route_gather(&head, &indices, l);
        let dense = one_hot_matrix(&indices, b, l, k).bmm(&head);
        assert_eq!(fast.data(), dense.data());
    }

    #[test]
    fn scatter_add_matches_dense_bmm_tn_bitwise() {
        let (b, l, k, d) = (2, 23, 4, 7);
        let (_, indices) = fixture(b, l, k, d, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let dout = Tensor::randn(&[b, l, d], 1.0, &mut rng);
        let fast = route_scatter_add(&dout, &indices, k);
        let dense = one_hot_matrix(&indices, b, l, k).bmm_tn(&dout);
        assert_eq!(fast.data(), dense.data());
    }

    #[test]
    fn kernels_are_bitwise_identical_across_thread_counts() {
        // The override is process-global; the guard keeps the par/pool tests
        // in this binary from observing our sweep (and vice versa).
        let _g = par::threads_guard();
        let (b, l, k, d) = (4, 64, 8, 16);
        let (head, indices) = fixture(b, l, k, d, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let dout = Tensor::randn(&[b, l, d], 1.0, &mut rng);
        par::set_threads(1);
        let g1 = route_gather(&head, &indices, l);
        let s1 = route_scatter_add(&dout, &indices, k);
        for threads in [2, 4] {
            par::set_threads(threads);
            assert_eq!(route_gather(&head, &indices, l).data(), g1.data());
            assert_eq!(route_scatter_add(&dout, &indices, k).data(), s1.data());
        }
        par::set_threads(0);
    }

    #[test]
    fn scatter_accumulates_shared_buckets() {
        // Two segments routed to the same prototype must sum their grads.
        let dout = Tensor::from_vec(vec![1.0, 2.0, 10.0, 20.0], &[1, 2, 2]);
        let out = route_scatter_add(&dout, &[1, 1], 3);
        assert_eq!(out.dims(), &[1, 3, 2]);
        assert_eq!(out.data(), &[0.0, 0.0, 11.0, 22.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_index() {
        let head = Tensor::zeros(&[1, 2, 3]);
        let _ = route_gather(&head, &[2], 1);
    }

    #[test]
    #[should_panic(expected = "indices")]
    fn rejects_wrong_index_count() {
        let head = Tensor::zeros(&[1, 2, 3]);
        let _ = route_gather(&head, &[0, 1, 0], 2);
    }
}
