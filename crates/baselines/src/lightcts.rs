//! LightCTS-lite (Lai et al., SIGMOD 2023): a deliberately *light* stack for
//! correlated time series — plain temporal convolutions/linears plus a
//! single lightweight attention over entities (their "L-TFormer"), chosen to
//! minimise FLOPs and parameters. The lite variant keeps the
//! light-temporal + single-entity-attention shape.

use focus_autograd::{Graph, ParamStore, ParamVars, Var};
use focus_core::{Forecaster, OperandVars};
use focus_nn::{LayerNorm, Linear, SelfAttention};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The LightCTS-lite forecaster.
pub struct LightCts {
    lookback: usize,
    horizon: usize,
    patch: usize,
    d: usize,
    ps: ParamStore,
    embed: Linear,
    temporal: Linear,
    entity_attn: SelfAttention,
    ln: LayerNorm,
    head: Linear,
}

impl LightCts {
    /// Builds a LightCTS-lite.
    ///
    /// # Panics
    /// If `patch` does not divide `lookback`.
    pub fn new(lookback: usize, horizon: usize, patch: usize, d: usize, seed: u64) -> Self {
        assert_eq!(lookback % patch, 0, "patch {patch} must divide lookback {lookback}");
        let l = lookback / patch;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x11c7);
        let mut ps = ParamStore::new();
        LightCts {
            lookback,
            horizon,
            patch,
            d,
            embed: Linear::new(&mut ps, "embed", patch, d, &mut rng),
            temporal: Linear::new(&mut ps, "temporal", l * d, d, &mut rng),
            entity_attn: SelfAttention::new(&mut ps, "entity_attn", d, &mut rng),
            ln: LayerNorm::new(&mut ps, "ln", d),
            head: Linear::new(&mut ps, "head", d, horizon, &mut rng),
            ps,
        }
    }
}

impl Forecaster for LightCts {
    fn name(&self) -> &str {
        "LightCTS"
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
        let l = self.lookback / self.patch;
        let patches = g.reshape(x, &[n, l, self.patch]);
        let emb = self.embed.forward(g, pv, patches); // [N, l, d]
        let flat = g.reshape(emb, &[n, l * self.d]);
        let temporal = self.temporal.forward(g, pv, flat); // [N, d]
        let act = g.relu(temporal);

        // One lightweight attention over entities (batch of one "sequence"
        // whose tokens are the N entities).
        let tokens = g.reshape(act, &[1, n, self.d]);
        let mixed = self.entity_attn.forward(g, pv, tokens);
        let res = g.add(mixed, tokens);
        let normed = self.ln.forward(g, pv, res);
        let back = g.reshape(normed, &[n, self.d]);
        self.head.forward(g, pv, back)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window;
    use focus_tensor::Tensor;
    use focus_core::{count_predict, TrainOptions};
    use focus_data::{Benchmark, MtsDataset, Split};

    #[test]
    fn forward_shape() {
        let model = LightCts::new(32, 8, 8, 12, 0);
        let x = Tensor::from_vec((0..96).map(|v| (v as f32 * 0.25).cos()).collect(), &[3, 32]);
        let y = model.predict(&x);
        assert_eq!(y.dims(), &[3, 8]);
        assert!(y.all_finite());
    }

    #[test]
    fn trains() {
        let ds = MtsDataset::generate(Benchmark::Electricity.scaled(4, 1_000), 2);
        let mut model = LightCts::new(48, 12, 8, 10, 1);
        let r = model.train(
            &ds,
            &TrainOptions {
                epochs: 3,
                max_windows: 16,
                ..Default::default()
            },
        );
        assert!(r.epoch_losses.last().expect("training ran at least one epoch") < &r.epoch_losses[0]);
        assert!(model.evaluate(&ds, Split::Test, 48).mse().is_finite());
    }

    #[test]
    fn is_lighter_than_patchtst_in_flops() {
        // The design goal of LightCTS: fewer FLOPs than the transformer
        // baselines at the same window.
        let light = LightCts::new(128, 24, 8, 16, 2);
        let heavy = crate::patchtst::PatchTst::new(128, 24, 8, 16, 2);
        let x = window(32, 128);
        assert!(count_predict(&light, &x).flops < count_predict(&heavy, &x).flops);
    }
}
