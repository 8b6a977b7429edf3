//! Layer normalisation with learnable affine parameters.

use focus_autograd::{Graph, ParamId, ParamStore, ParamVars, Var};
use focus_tensor::Tensor;

/// LayerNorm over the trailing axis, `y = γ ⊙ (x − μ)/√(σ² + ε) + β`.
///
/// Used after every ProtoAttn block (Algorithm 3 wraps the online modeling
/// output in `LayerNorm(· + residual)`).
pub struct LayerNorm {
    gamma: ParamId,
    beta: ParamId,
    dim: usize,
    eps: f32,
}

impl LayerNorm {
    /// LayerNorm over a trailing axis of width `dim` (γ=1, β=0, ε=1e−5).
    pub fn new(ps: &mut ParamStore, name: &str, dim: usize) -> Self {
        let gamma = ps.add(format!("{name}.gamma"), Tensor::ones(&[dim]));
        let beta = ps.add(format!("{name}.beta"), Tensor::zeros(&[dim]));
        LayerNorm {
            gamma,
            beta,
            dim,
            eps: 1e-5,
        }
    }

    /// Normalised feature width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Applies the normalisation.
    pub fn forward(&self, g: &mut Graph, pv: &ParamVars, x: Var) -> Var {
        let n = g.dims(x).last().copied().unwrap_or(1);
        assert_eq!(n, self.dim, "LayerNorm: trailing dim {n} != {}", self.dim);
        g.layer_norm(x, pv.var(self.gamma), pv.var(self.beta), self.eps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_rows_are_standardised_at_init() {
        let mut ps = ParamStore::new();
        let ln = LayerNorm::new(&mut ps, "ln", 8);
        let mut g = Graph::new();
        let pv = ps.register(&mut g);
        let x = g.constant(Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[2, 8]));
        let y = ln.forward(&mut g, &pv, x);
        let y = g.value(y);
        for i in 0..2 {
            let row = y.row(i);
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-5);
        }
    }

    #[test]
    fn affine_params_are_trainable() {
        use focus_autograd::Sgd;
        let mut ps = ParamStore::new();
        let ln = LayerNorm::new(&mut ps, "ln", 4);
        let mut opt = Sgd::new(0.5);
        // Two rows whose normalised values differ at every feature make
        // (γ_j, β_j) identifiable per feature.
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 2.0, 2.0, 5.0, 3.0], &[2, 4]);
        // Target: the initial normalised output shifted by +2 — the optimum
        // is γ = 1, β = 2.
        let target = {
            let mut g = Graph::new();
            let pv = ps.register(&mut g);
            let xv = g.constant(x.clone());
            let y = ln.forward(&mut g, &pv, xv);
            g.value(y).add_scalar(2.0)
        };
        for _ in 0..300 {
            let mut g = Graph::new();
            let pv = ps.register(&mut g);
            let xv = g.constant(x.clone());
            let y = ln.forward(&mut g, &pv, xv);
            let tv = g.constant(target.clone());
            let loss = g.mse(y, tv);
            g.backward(loss);
            ps.step(&mut opt, &g, &pv);
        }
        // β should be near 2; γ near 1.
        let (_, _, beta) = ps.iter().nth(1).expect("LayerNorm exposes gamma and beta");
        assert!((beta.mean_all() - 2.0).abs() < 0.1, "beta {:?}", beta);
    }
}
