//! Finite-difference gradient checking.
//!
//! Every op's backward lowering is validated against a central-difference
//! estimate: [`check`] differentiates through [`Graph::backward`], i.e. the
//! compiled plan on the VM. Because the engine runs in `f32`, comparisons
//! use a combined absolute/relative tolerance.

use crate::{Graph, Var};
use focus_tensor::Tensor;

/// Result of a gradient check: the worst elementwise discrepancy found.
#[derive(Debug, Clone, Copy)]
pub struct CheckReport {
    /// Largest `|analytic − numeric| / max(1, |numeric|)` over all elements.
    pub max_rel_err: f32,
}

/// Checks the analytic gradient of `f` at `inputs` against central
/// differences.
///
/// `f` receives the graph and one leaf per input tensor and must return a
/// scalar node. Each input is treated as trainable.
///
/// # Panics
/// Panics (with context) if `f` does not produce a scalar.
pub fn check<F>(inputs: &[Tensor], eps: f32, f: F) -> CheckReport
where
    F: Fn(&mut Graph, &[Var]) -> Var,
{
    // Analytic gradients.
    let mut g = Graph::new();
    let vars: Vec<Var> = inputs.iter().map(|t| g.leaf(t.clone())).collect();
    let loss = f(&mut g, &vars);
    g.backward(loss);

    let mut max_rel_err = 0.0f32;
    for (idx, input) in inputs.iter().enumerate() {
        let analytic = g
            .grad(vars[idx])
            .cloned()
            .unwrap_or_else(|| Tensor::zeros(input.dims()));
        for j in 0..input.numel() {
            let numeric = central_difference(inputs, idx, j, eps, &f);
            let a = analytic.data()[j];
            let rel = (a - numeric).abs() / numeric.abs().max(1.0);
            if rel > max_rel_err {
                max_rel_err = rel;
            }
        }
    }
    CheckReport { max_rel_err }
}

fn central_difference<F>(inputs: &[Tensor], idx: usize, j: usize, eps: f32, f: &F) -> f32
where
    F: Fn(&mut Graph, &[Var]) -> Var,
{
    let eval = |delta: f32| -> f32 {
        let mut perturbed: Vec<Tensor> = inputs.to_vec();
        perturbed[idx].data_mut()[j] += delta;
        let mut g = Graph::new();
        let vars: Vec<Var> = perturbed.iter().map(|t| g.leaf(t.clone())).collect();
        let loss = f(&mut g, &vars);
        g.value(loss).item()
    };
    (eval(eps) - eval(-eps)) / (2.0 * eps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const EPS: f32 = 1e-2;
    const TOL: f32 = 2e-2;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn check_matmul_chain() {
        let mut r = rng();
        let a = Tensor::randn(&[3, 4], 0.5, &mut r);
        let b = Tensor::randn(&[4, 2], 0.5, &mut r);
        let rep = check(&[a, b], EPS, |g, v| {
            let m = g.matmul(v[0], v[1]);
            g.mean_all(m)
        });
        assert!(rep.max_rel_err < TOL, "rel err {}", rep.max_rel_err);
    }

    #[test]
    fn check_bmm() {
        let mut r = rng();
        let a = Tensor::randn(&[2, 3, 4], 0.5, &mut r);
        let b = Tensor::randn(&[2, 4, 2], 0.5, &mut r);
        let rep = check(&[a, b], EPS, |g, v| {
            let m = g.bmm(v[0], v[1]);
            let s = g.mul(m, m);
            g.mean_all(s)
        });
        assert!(rep.max_rel_err < TOL, "rel err {}", rep.max_rel_err);
    }

    #[test]
    fn check_matmul_broadcast_nt() {
        let mut r = rng();
        let a = Tensor::randn(&[3, 4], 0.5, &mut r);
        let x = Tensor::randn(&[2, 5, 4], 0.5, &mut r);
        let rep = check(&[a, x], EPS, |g, v| {
            let s = g.matmul_broadcast_nt(v[0], v[1]);
            let sq = g.mul(s, s);
            g.mean_all(sq)
        });
        assert!(rep.max_rel_err < TOL, "rel err {}", rep.max_rel_err);
    }

    #[test]
    fn check_softmax() {
        let mut r = rng();
        let x = Tensor::randn(&[3, 5], 1.0, &mut r);
        let w = Tensor::randn(&[3, 5], 1.0, &mut r);
        let rep = check(&[x, w.clone()], EPS, |g, v| {
            let s = g.softmax_last(v[0]);
            let weighted = g.mul(s, v[1]);
            g.sum_all(weighted)
        });
        assert!(rep.max_rel_err < TOL, "rel err {}", rep.max_rel_err);
    }

    #[test]
    fn check_layer_norm() {
        let mut r = rng();
        let x = Tensor::randn(&[4, 6], 1.0, &mut r);
        let gamma = Tensor::rand_uniform(&[6], 0.5, 1.5, &mut r);
        let beta = Tensor::randn(&[6], 0.3, &mut r);
        let w = Tensor::randn(&[4, 6], 1.0, &mut r);
        let rep = check(&[x, gamma, beta, w.clone()], EPS, |g, v| {
            let y = g.layer_norm(v[0], v[1], v[2], 1e-5);
            let weighted = g.mul(y, v[3]);
            g.mean_all(weighted)
        });
        assert!(rep.max_rel_err < TOL, "rel err {}", rep.max_rel_err);
    }

    #[test]
    fn check_nonlinearities() {
        let mut r = rng();
        // Keep away from the ReLU/abs kinks: finite differences misbehave there.
        let base = Tensor::rand_uniform(&[3, 4], 0.2, 2.0, &mut r);
        let neg = base.scale(-1.0);
        for (name, f) in [
            ("relu", 0usize),
            ("gelu", 1),
            ("sigmoid", 2),
            ("tanh", 3),
            ("abs", 4),
        ] {
            for input in [&base, &neg] {
                let rep = check(std::slice::from_ref(input), EPS, |g, v| {
                    let y = match f {
                        0 => g.relu(v[0]),
                        1 => g.gelu(v[0]),
                        2 => g.sigmoid(v[0]),
                        3 => g.tanh(v[0]),
                        _ => g.abs(v[0]),
                    };
                    g.mean_all(y)
                });
                assert!(rep.max_rel_err < TOL, "{name}: rel err {}", rep.max_rel_err);
            }
        }
    }

    #[test]
    fn check_structure_ops() {
        let mut r = rng();
        let a = Tensor::randn(&[3, 4], 0.5, &mut r);
        let b = Tensor::randn(&[3, 2], 0.5, &mut r);
        let rep = check(&[a, b], EPS, |g, v| {
            let c = g.concat_last(v[0], v[1]);
            let t = g.transpose(c);
            let sq = g.mul(t, t);
            g.mean_all(sq)
        });
        assert!(rep.max_rel_err < TOL, "rel err {}", rep.max_rel_err);
    }

    #[test]
    fn check_broadcast_bias_and_reshape() {
        let mut r = rng();
        let x = Tensor::randn(&[4, 3], 0.5, &mut r);
        let bias = Tensor::randn(&[3], 0.5, &mut r);
        let rep = check(&[x, bias], EPS, |g, v| {
            let y = g.add_row_broadcast(v[0], v[1]);
            let z = g.reshape(y, &[2, 6]);
            let sq = g.mul(z, z);
            g.mean_all(sq)
        });
        assert!(rep.max_rel_err < TOL, "rel err {}", rep.max_rel_err);
    }

    #[test]
    fn check_swap_axes01() {
        let mut r = rng();
        let x = Tensor::randn(&[2, 3, 4], 0.5, &mut r);
        let w = Tensor::randn(&[3, 2, 4], 0.5, &mut r);
        let rep = check(&[x, w], EPS, |g, v| {
            let s = g.swap_axes01(v[0]);
            let m = g.mul(s, v[1]);
            g.mean_all(m)
        });
        assert!(rep.max_rel_err < TOL, "rel err {}", rep.max_rel_err);
    }

    #[test]
    fn check_transpose_last2() {
        let mut r = rng();
        let x = Tensor::randn(&[2, 3, 4], 0.5, &mut r);
        let rep = check(&[x], EPS, |g, v| {
            let t = g.transpose_last2(v[0]);
            let sq = g.mul(t, t);
            g.mean_all(sq)
        });
        assert!(rep.max_rel_err < TOL, "rel err {}", rep.max_rel_err);
    }

    #[test]
    fn check_slice_last() {
        let mut r = rng();
        let x = Tensor::randn(&[3, 6], 0.5, &mut r);
        let rep = check(&[x], EPS, |g, v| {
            let a = g.slice_last(v[0], 1, 4);
            let sq = g.mul(a, a);
            g.mean_all(sq)
        });
        assert!(rep.max_rel_err < TOL, "rel err {}", rep.max_rel_err);
    }

    #[test]
    fn check_route_one_hot() {
        let mut r = rng();
        let head = Tensor::randn(&[2, 3, 4], 0.5, &mut r);
        let indices: Vec<u32> = vec![0, 2, 1, 1, 0, 2, 2, 1, 0, 0]; // [B=2, l=5]
        let rep = check(&[head], EPS, |g, v| {
            let route = g.route(indices.clone());
            let routed = g.route_one_hot(v[0], route, 5);
            let sq = g.mul(routed, routed);
            g.mean_all(sq)
        });
        assert!(rep.max_rel_err < TOL, "rel err {}", rep.max_rel_err);
    }

    /// The sparse routing op must be indistinguishable from the dense
    /// one-hot `bmm` it replaces — forward and gradient, bit for bit, at
    /// every thread count (the determinism + sparsity contract of PR 1's
    /// kernels carried over to the index-vector fast path).
    #[test]
    fn route_one_hot_matches_dense_bmm_bitwise_across_threads() {
        use focus_tensor::{par, route};
        let mut r = rng();
        let (b, l, k, d) = (3usize, 32usize, 6usize, 8usize);
        let head = Tensor::randn(&[b, k, d], 0.7, &mut r);
        let w = Tensor::randn(&[b, l, d], 0.5, &mut r);
        let indices: Vec<u32> = (0..b * l).map(|i| ((i * 7 + 3) % k) as u32).collect();
        let dense_a = route::one_hot_matrix(&indices, b, l, k);
        let run = |sparse: bool| -> (Vec<f32>, Vec<f32>) {
            let mut g = Graph::new();
            let h = g.leaf(head.clone());
            let wv = g.constant(w.clone());
            let routed = if sparse {
                let route = g.route(indices.clone());
                g.route_one_hot(h, route, l)
            } else {
                let a = g.constant(dense_a.clone());
                g.bmm(a, h)
            };
            let m = g.mul(routed, wv);
            let loss = g.sum_all(m);
            g.backward(loss);
            (
                g.value(routed).data().to_vec(),
                g.grad(h).expect("head is a trainable leaf").data().to_vec(),
            )
        };
        // Serialise the process-global thread override against other tests.
        let _g = par::threads_guard();
        par::set_threads(1);
        let (fwd_ref, grad_ref) = run(false);
        for threads in [1usize, 2, 4] {
            par::set_threads(threads);
            let (fwd, grad) = run(true);
            assert_eq!(fwd, fwd_ref, "forward diverged at {threads} threads");
            assert_eq!(grad, grad_ref, "gradient diverged at {threads} threads");
        }
        par::set_threads(0);
    }

    #[test]
    fn check_composite_attention_block() {
        // A miniature ProtoAttn-shaped computation exercises op interplay.
        let mut r = rng();
        let c = Tensor::randn(&[2, 3], 0.5, &mut r); // prototypes [k, d]
        let k = Tensor::randn(&[2, 4, 3], 0.5, &mut r); // keys [B, l, d]
        let v = Tensor::randn(&[2, 4, 3], 0.5, &mut r); // values [B, l, d]
        let rep = check(&[c, k, v], EPS, |g, vars| {
            let scores = g.matmul_broadcast_nt(vars[0], vars[1]); // [B, k, l]
            let scaled = g.scale(scores, 1.0 / (3.0f32).sqrt());
            let attn = g.softmax_last(scaled);
            let out = g.bmm(attn, vars[2]); // [B, k, d]
            let sq = g.mul(out, out);
            g.mean_all(sq)
        });
        assert!(rep.max_rel_err < TOL, "rel err {}", rep.max_rel_err);
    }
}
