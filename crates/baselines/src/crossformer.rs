//! Crossformer-lite (Zhang & Yan, ICLR 2023): attention along *both* the
//! temporal and the entity dimension. The lite variant keeps the
//! two-stage-attention signature — `O(l²)` across segments plus `O(N²)`
//! across entities — which is exactly the cost profile Fig. 6 contrasts
//! with FOCUS.

use focus_autograd::{Graph, ParamStore, ParamVars, Var};
use focus_core::{Forecaster, OperandVars};
use focus_nn::{LayerNorm, Linear, SelfAttention};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The Crossformer-lite forecaster.
pub struct Crossformer {
    lookback: usize,
    horizon: usize,
    patch: usize,
    d: usize,
    ps: ParamStore,
    embed: Linear,
    time_attn: SelfAttention,
    ln_t: LayerNorm,
    dim_attn: SelfAttention,
    ln_d: LayerNorm,
    head: Linear,
}

impl Crossformer {
    /// Builds a Crossformer-lite.
    ///
    /// # Panics
    /// If `patch` does not divide `lookback`.
    pub fn new(lookback: usize, horizon: usize, patch: usize, d: usize, seed: u64) -> Self {
        assert_eq!(lookback % patch, 0, "patch {patch} must divide lookback {lookback}");
        let l = lookback / patch;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc405);
        let mut ps = ParamStore::new();
        Crossformer {
            lookback,
            horizon,
            patch,
            d,
            embed: Linear::new(&mut ps, "embed", patch, d, &mut rng),
            time_attn: SelfAttention::new(&mut ps, "time_attn", d, &mut rng),
            ln_t: LayerNorm::new(&mut ps, "ln_t", d),
            dim_attn: SelfAttention::new(&mut ps, "dim_attn", d, &mut rng),
            ln_d: LayerNorm::new(&mut ps, "ln_d", d),
            head: Linear::new(&mut ps, "head", l * d, horizon, &mut rng),
            ps,
        }
    }

    fn n_patches(&self) -> usize {
        self.lookback / self.patch
    }
}

impl Forecaster for Crossformer {
    fn name(&self) -> &str {
        "Crossformer"
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
        let l = self.n_patches();
        let patches = g.reshape(x, &[n, l, self.patch]); // [N, l, p]
        let emb = self.embed.forward(g, pv, patches); // [N, l, d]

        // Stage 1: cross-time attention (per entity).
        let at = self.time_attn.forward(g, pv, emb);
        let s1 = g.add(at, emb);
        let h_t = self.ln_t.forward(g, pv, s1); // [N, l, d]

        // Stage 2: cross-dimension attention (per segment, across entities).
        let h_swapped = g.swap_axes01(h_t); // [l, N, d]
        let ad = self.dim_attn.forward(g, pv, h_swapped);
        let s2 = g.add(ad, h_swapped);
        let h_d = self.ln_d.forward(g, pv, s2);
        let h = g.swap_axes01(h_d); // [N, l, d]

        let flat = g.reshape(h, &[n, l * self.d]);
        self.head.forward(g, pv, flat)
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
        let model = Crossformer::new(32, 8, 8, 12, 0);
        let x = Tensor::from_vec((0..128).map(|v| (v as f32 * 0.15).sin()).collect(), &[4, 32]);
        let y = model.predict(&x);
        assert_eq!(y.dims(), &[4, 8]);
        assert!(y.all_finite());
    }

    #[test]
    fn trains() {
        let ds = MtsDataset::generate(Benchmark::Pems08.scaled(4, 1_000), 3);
        let mut model = Crossformer::new(48, 12, 8, 10, 1);
        let r = model.train(
            &ds,
            &TrainOptions {
                epochs: 3,
                max_windows: 16,
                ..Default::default()
            },
        );
        assert!(r.epoch_losses.last().expect("training ran at least one epoch") < &r.epoch_losses[0]);
        let m = model.evaluate(&ds, Split::Test, 48);
        assert!(m.mse().is_finite());
    }

    #[test]
    fn cost_is_quadratic_in_entities() {
        let model = Crossformer::new(64, 16, 8, 8, 2);
        let c16 = count_predict(&model, &window(16, 64));
        let c64 = count_predict(&model, &window(64, 64));
        // The entity-attention term is O(N²·d): growth must exceed linear.
        let ratio = c64.flops as f64 / c16.flops as f64;
        assert!(ratio > 5.0, "ratio {ratio} not superlinear in N");
    }
}
