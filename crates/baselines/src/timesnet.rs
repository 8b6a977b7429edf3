//! TimesNet-lite (Wu et al., ICLR 2023): temporal 2-D variation modelling —
//! fold the 1-D series into a `[periods, period]` grid at its dominant
//! period and model intra-/inter-period variation with 2-D blocks. The lite
//! variant estimates one dominant period by autocorrelation and applies one
//! MLP along each grid axis.

use crate::common::dominant_period;
use focus_autograd::{Graph, ParamStore, ParamVars, Var};
use focus_core::{Forecaster, OperandVars};
use focus_nn::mlp::{Activation, Mlp};
use focus_nn::Linear;
use focus_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The TimesNet-lite forecaster.
///
/// The period is fixed at construction (estimated from a calibration window
/// or supplied directly) so the parameter shapes are static; the original
/// re-detects periods per batch, but its inception blocks are likewise built
/// for a fixed top-k of period lengths.
pub struct TimesNet {
    lookback: usize,
    horizon: usize,
    period: usize,
    ps: ParamStore,
    intra: Mlp,
    inter: Mlp,
    proj: Linear,
    head: Linear,
}

impl TimesNet {
    /// Builds a TimesNet-lite with an explicit period.
    ///
    /// # Panics
    /// If `period` does not divide `lookback`.
    pub fn new(lookback: usize, horizon: usize, period: usize, d: usize, seed: u64) -> Self {
        assert_eq!(
            lookback % period,
            0,
            "period {period} must divide lookback {lookback}"
        );
        let cycles = lookback / period;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7155);
        let mut ps = ParamStore::new();
        TimesNet {
            lookback,
            horizon,
            period,
            intra: Mlp::new(&mut ps, "intra", period, d, period, Activation::Gelu, &mut rng),
            inter: Mlp::new(&mut ps, "inter", cycles, d, cycles, Activation::Gelu, &mut rng),
            proj: Linear::new(&mut ps, "proj", lookback, d, &mut rng),
            head: Linear::new(&mut ps, "head", d, horizon, &mut rng),
            ps,
        }
    }

    /// Builds a TimesNet-lite whose period is estimated from a calibration
    /// window by lag autocorrelation (the paper's FFT top-1 equivalent).
    pub fn with_estimated_period(
        calibration: &Tensor,
        lookback: usize,
        horizon: usize,
        d: usize,
        seed: u64,
    ) -> Self {
        let period = dominant_period(calibration, 4.min(lookback / 2).max(2));
        let period = if lookback.is_multiple_of(period) { period } else { lookback / 2 };
        Self::new(lookback, horizon, period.max(1), d, seed)
    }

    /// The period used for the 2-D reshape.
    pub fn period(&self) -> usize {
        self.period
    }
}

impl Forecaster for TimesNet {
    fn name(&self) -> &str {
        "TimesNet"
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

    fn forward_window(&self, g: &mut Graph, pv: &ParamVars, x: Var, _: &OperandVars) -> Var {
        let n = g.dims(x)[0];
        let cycles = self.lookback / self.period;

        // Intra-period variation: rows of the [cycles, period] grid.
        let grid = g.reshape(x, &[n, cycles, self.period]);
        let intra = self.intra.forward(g, pv, grid); // [N, cycles, period]

        // Inter-period variation: columns of the grid.
        let cols = g.transpose_last2(intra); // [N, period, cycles]
        let inter = self.inter.forward(g, pv, cols); // [N, period, cycles]
        let back = g.transpose_last2(inter); // [N, cycles, period]

        // Residual in the original layout, then project and forecast.
        let flat_in = g.reshape(back, &[n, self.lookback]);
        let res = g.add(flat_in, x);
        let feat = self.proj.forward(g, pv, res); // [N, d]
        let act = g.gelu(feat);
        self.head.forward(g, pv, act)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_core::TrainOptions;
    use focus_data::{Benchmark, MtsDataset, Split};

    #[test]
    fn forward_shape() {
        let model = TimesNet::new(48, 12, 12, 16, 0);
        let x = Tensor::from_vec((0..96).map(|v| (v as f32 * 0.2).sin()).collect(), &[2, 48]);
        let y = model.predict(&x);
        assert_eq!(y.dims(), &[2, 12]);
        assert!(y.all_finite());
    }

    #[test]
    fn estimated_period_divides_lookback() {
        let x = Tensor::from_vec(
            (0..192)
                .map(|t| (2.0 * std::f32::consts::PI * (t % 12) as f32 / 12.0).sin())
                .collect(),
            &[1, 192],
        );
        let model = TimesNet::with_estimated_period(&x, 48, 12, 8, 1);
        assert_eq!(48 % model.period(), 0);
        assert_eq!(model.period(), 12);
    }

    #[test]
    fn trains() {
        let ds = MtsDataset::generate(Benchmark::Weather.scaled(4, 1_200), 6);
        let mut model = TimesNet::new(48, 12, 12, 12, 2);
        let r = model.train(
            &ds,
            &TrainOptions {
                epochs: 3,
                max_windows: 24,
                ..Default::default()
            },
        );
        assert!(r.epoch_losses.last().expect("training ran at least one epoch") < &r.epoch_losses[0]);
        assert!(model.evaluate(&ds, Split::Test, 48).mse().is_finite());
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn rejects_bad_period() {
        let _ = TimesNet::new(48, 12, 7, 8, 3);
    }
}
