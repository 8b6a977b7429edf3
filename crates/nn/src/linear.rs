//! Fully connected layer.

use crate::init;
use focus_autograd::{Graph, ParamId, ParamStore, ParamVars, Var};
use rand::Rng;

use focus_tensor::Tensor;

/// An affine map `y = x·W + b` over the trailing axis.
///
/// Accepts inputs of any rank; the trailing axis must equal `in_dim`. Inputs
/// of rank ≥ 3 are flattened to `[rows, in_dim]` for the matmul and restored
/// afterwards.
pub struct Linear {
    w: ParamId,
    b: Option<ParamId>,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// A linear layer with bias, Xavier-initialised.
    pub fn new<R: Rng + ?Sized>(
        ps: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut R,
    ) -> Self {
        let w = ps.add(format!("{name}.w"), init::xavier_uniform(in_dim, out_dim, rng));
        let b = ps.add(format!("{name}.b"), Tensor::zeros(&[out_dim]));
        Linear {
            w,
            b: Some(b),
            in_dim,
            out_dim,
        }
    }

    /// A bias-free linear layer (used for the Q/K/V projections, matching
    /// Eq. 14's plain projection matrices).
    pub fn new_no_bias<R: Rng + ?Sized>(
        ps: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut R,
    ) -> Self {
        let w = ps.add(format!("{name}.w"), init::xavier_uniform(in_dim, out_dim, rng));
        Linear {
            w,
            b: None,
            in_dim,
            out_dim,
        }
    }

    /// Input feature width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The weight `W: [in_dim, out_dim]`, for callers that fold it into
    /// another product instead of applying the layer.
    pub fn weight(&self) -> ParamId {
        self.w
    }

    /// Applies the layer to `x` (trailing axis = `in_dim`).
    pub fn forward(&self, g: &mut Graph, pv: &ParamVars, x: Var) -> Var {
        let dims = g.dims(x).to_vec();
        let rank = dims.len();
        assert_eq!(
            dims[rank - 1],
            self.in_dim,
            "Linear: input trailing dim {} != in_dim {}",
            dims[rank - 1],
            self.in_dim
        );
        let rows: usize = dims[..rank - 1].iter().product();
        let flat = if rank == 2 {
            x
        } else {
            g.reshape(x, &[rows, self.in_dim])
        };
        let mut y = g.matmul(flat, pv.var(self.w));
        if let Some(b) = self.b {
            y = g.add_row_broadcast(y, pv.var(b));
        }
        if rank == 2 {
            y
        } else {
            let mut out_dims = dims;
            out_dims[rank - 1] = self.out_dim;
            g.reshape(y, &out_dims)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_autograd::Sgd;
    use focus_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape_rank2_and_rank3() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ps = ParamStore::new();
        let lin = Linear::new(&mut ps, "l", 4, 3, &mut rng);
        let mut g = Graph::new();
        let pv = ps.register(&mut g);
        let x2 = g.constant(Tensor::ones(&[5, 4]));
        let y2 = lin.forward(&mut g, &pv, x2);
        assert_eq!(g.dims(y2), &[5, 3]);
        let x3 = g.constant(Tensor::ones(&[2, 5, 4]));
        let y3 = lin.forward(&mut g, &pv, x3);
        assert_eq!(g.dims(y3), &[2, 5, 3]);
        // Rank-3 application must equal per-slice rank-2 application.
        let y3b = g.value(y3).index_axis0(0);
        assert!(y3b.max_abs_diff(&g.value(y2)) < 1e-6);
    }

    #[test]
    fn trains_to_fit_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ps = ParamStore::new();
        let lin = Linear::new(&mut ps, "l", 3, 3, &mut rng);
        let mut opt = Sgd::new(0.3);
        let x = Tensor::from_vec(
            (0..30).map(|v| ((v * 7 % 13) as f32 - 6.0) / 6.0).collect(),
            &[10, 3],
        );
        let mut last = f32::MAX;
        for _ in 0..200 {
            let mut g = Graph::new();
            let pv = ps.register(&mut g);
            let xv = g.constant(x.clone());
            let y = lin.forward(&mut g, &pv, xv);
            let loss = g.mse(y, xv);
            g.backward(loss);
            ps.step(&mut opt, &g, &pv);
            last = g.value(loss).item();
        }
        assert!(last < 1e-3, "loss {last}");
    }

    #[test]
    fn cost_counts_macs_and_params() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut ps = ParamStore::new();
        let lin = Linear::new(&mut ps, "l", 10, 20, &mut rng);
        let mut g = Graph::new();
        let pv = ps.register(&mut g);
        let x = g.input(Tensor::randn(&[5, 10], 1.0, &mut rng));
        let y = lin.forward(&mut g, &pv, x);
        let (_, counted) = focus_tensor::work::measure(|| g.value(y));
        // 2 FLOPs per multiply–accumulate, plus the bias adds.
        assert_eq!(counted.flops, 2 * 5 * 10 * 20 + 5 * 20);
        assert_eq!(ps.scalar_count(), 10 * 20 + 20);
    }
}
