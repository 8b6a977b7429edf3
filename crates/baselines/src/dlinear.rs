//! DLinear (Zeng et al., AAAI 2023): "Are Transformers Effective for Time
//! Series Forecasting?" — moving-average decomposition plus one linear map
//! per component, shared across channels.

use crate::common::decompose;
use focus_autograd::{Graph, ParamStore, ParamVars, Var};
use focus_core::{Forecaster, OperandVars, WindowOperands};
use focus_nn::Linear;
use focus_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The DLinear forecaster: `ŷ = W_t·trend + W_s·seasonal`.
pub struct DLinear {
    lookback: usize,
    horizon: usize,
    kernel: usize,
    ps: ParamStore,
    trend: Linear,
    seasonal: Linear,
}

impl DLinear {
    /// Builds a DLinear with the classic moving-average kernel of 25
    /// (clamped to the lookback).
    pub fn new(lookback: usize, horizon: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xd11e);
        let mut ps = ParamStore::new();
        let trend = Linear::new(&mut ps, "trend", lookback, horizon, &mut rng);
        let seasonal = Linear::new(&mut ps, "seasonal", lookback, horizon, &mut rng);
        DLinear {
            lookback,
            horizon,
            kernel: 25.min(lookback.max(1)),
            ps,
            trend,
            seasonal,
        }
    }
}

impl Forecaster for DLinear {
    fn name(&self) -> &str {
        "DLinear"
    }

    fn lookback(&self) -> usize {
        self.lookback
    }

    fn horizon(&self) -> usize {
        self.horizon
    }

    fn params(&self) -> &ParamStore {
        &self.ps
    }

    fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.ps
    }

    fn forward_window(&self, g: &mut Graph, pv: &ParamVars, _: Var, operands: &OperandVars) -> Var {
        // The trend and seasonal components `window_operands` decomposed.
        let yt = self.trend.forward(g, pv, operands.tensors[0]); // [N, horizon]
        let ys = self.seasonal.forward(g, pv, operands.tensors[1]);
        g.add(yt, ys)
    }

    fn window_operands(&self, x_norm: &Tensor) -> WindowOperands {
        let (trend, seasonal) = decompose(x_norm, self.kernel);
        WindowOperands { routes: Vec::new(), tensors: vec![trend, seasonal] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window;
    use focus_core::{count_predict, TrainOptions};
    use focus_data::{Benchmark, MtsDataset, Split};

    #[test]
    fn forward_shape() {
        let model = DLinear::new(48, 12, 0);
        let x = Tensor::from_vec((0..96).map(|v| (v as f32 * 0.2).sin()).collect(), &[2, 48]);
        let y = model.predict(&x);
        assert_eq!(y.dims(), &[2, 12]);
        assert!(y.all_finite());
    }

    #[test]
    fn learns_a_linear_continuation() {
        // DLinear should fit smooth periodic data well.
        let ds = MtsDataset::generate(Benchmark::Etth1.scaled(4, 1_200), 5);
        let mut model = DLinear::new(48, 12, 1);
        let before = model.evaluate(&ds, Split::Test, 48);
        model.train(
            &ds,
            &TrainOptions {
                epochs: 6,
                max_windows: 64,
                ..Default::default()
            },
        );
        let after = model.evaluate(&ds, Split::Test, 48);
        assert!(after.mse() < before.mse(), "{} vs {}", after.mse(), before.mse());
    }

    #[test]
    fn cost_is_quadratic_in_window_product_only() {
        let m = DLinear::new(96, 24, 2);
        // Two L×L_f weight matrices dominate the parameter count.
        assert_eq!(m.params().scalar_count(), 2 * (96 * 24 + 24));
        assert!(count_predict(&m, &window(10, 96)).flops > 0);
    }
}
