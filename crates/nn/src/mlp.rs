//! Two-layer feed-forward block.

use crate::linear::Linear;
use focus_autograd::{Graph, ParamStore, ParamVars, Var};
use rand::Rng;

/// Nonlinearity choice for [`Mlp`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// GELU (tanh approximation).
    Gelu,
    /// Hyperbolic tangent.
    Tanh,
}

/// `y = act(x·W₁ + b₁)·W₂ + b₂` over the trailing axis.
pub struct Mlp {
    fc1: Linear,
    fc2: Linear,
    act: Activation,
}

impl Mlp {
    /// An MLP `in_dim → hidden → out_dim` with the given activation.
    pub fn new<R: Rng + ?Sized>(
        ps: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        act: Activation,
        rng: &mut R,
    ) -> Self {
        Mlp {
            fc1: Linear::new(ps, &format!("{name}.fc1"), in_dim, hidden, rng),
            fc2: Linear::new(ps, &format!("{name}.fc2"), hidden, out_dim, rng),
            act,
        }
    }

    /// Output feature width.
    pub fn out_dim(&self) -> usize {
        self.fc2.out_dim()
    }

    /// Applies the block.
    pub fn forward(&self, g: &mut Graph, pv: &ParamVars, x: Var) -> Var {
        let h = self.fc1.forward(g, pv, x);
        let a = match self.act {
            Activation::Relu => g.relu(h),
            Activation::Gelu => g.gelu(h),
            Activation::Tanh => g.tanh(h),
        };
        self.fc2.forward(g, pv, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_autograd::AdamW;
    use focus_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fits_a_nonlinear_function() {
        // y = x² on [-1, 1]: impossible for a linear map, easy for a small MLP.
        let mut rng = StdRng::seed_from_u64(3);
        let mut ps = ParamStore::new();
        let mlp = Mlp::new(&mut ps, "mlp", 1, 16, 1, Activation::Gelu, &mut rng);
        let mut opt = AdamW::new(0.01, 0.0);
        let xs: Vec<f32> = (0..64).map(|i| -1.0 + 2.0 * i as f32 / 63.0).collect();
        let ys: Vec<f32> = xs.iter().map(|v| v * v).collect();
        let x = Tensor::from_vec(xs, &[64, 1]);
        let y = Tensor::from_vec(ys, &[64, 1]);
        let mut last = f32::MAX;
        for _ in 0..500 {
            let mut g = Graph::new();
            let pv = ps.register(&mut g);
            let xv = g.constant(x.clone());
            let yv = g.constant(y.clone());
            let pred = mlp.forward(&mut g, &pv, xv);
            let loss = g.mse(pred, yv);
            g.backward(loss);
            ps.step(&mut opt, &g, &pv);
            last = g.value(loss).item();
        }
        assert!(last < 5e-3, "loss {last}");
    }

    #[test]
    fn all_activations_run() {
        let mut rng = StdRng::seed_from_u64(4);
        for act in [Activation::Relu, Activation::Gelu, Activation::Tanh] {
            let mut ps = ParamStore::new();
            let mlp = Mlp::new(&mut ps, "mlp", 3, 5, 2, act, &mut rng);
            let mut g = Graph::new();
            let pv = ps.register(&mut g);
            let x = g.constant(Tensor::randn(&[4, 3], 1.0, &mut rng));
            let y = mlp.forward(&mut g, &pv, x);
            assert_eq!(g.dims(y), &[4, 2]);
            assert!(g.value(y).all_finite());
        }
    }
}
