//! PatchTST-lite (Nie et al., ICLR 2023): channel-independent patching with
//! full self-attention over patches — the strongest transformer baseline in
//! the paper and the architecture FOCUS's linear ProtoAttn is measured
//! against.

use focus_autograd::{Graph, ParamStore, ParamVars, Var};
use focus_core::{Forecaster, OperandVars};
use focus_nn::mlp::{Activation, Mlp};
use focus_nn::{LayerNorm, Linear, SelfAttention};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The PatchTST-lite forecaster.
///
/// Pipeline per entity (channel-independent, batched over entities):
/// patch → linear embedding → self-attention block (+LN, residual) →
/// feed-forward (+LN, residual) → flatten → linear head.
pub struct PatchTst {
    lookback: usize,
    horizon: usize,
    patch: usize,
    d: usize,
    ps: ParamStore,
    embed: Linear,
    attn: SelfAttention,
    ln1: LayerNorm,
    ffn: Mlp,
    ln2: LayerNorm,
    head: Linear,
}

impl PatchTst {
    /// Builds a PatchTST-lite with the given patch length and width.
    ///
    /// # Panics
    /// If `patch` does not divide `lookback`.
    pub fn new(lookback: usize, horizon: usize, patch: usize, d: usize, seed: u64) -> Self {
        assert_eq!(lookback % patch, 0, "patch {patch} must divide lookback {lookback}");
        let l = lookback / patch;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9a7c);
        let mut ps = ParamStore::new();
        let embed = Linear::new(&mut ps, "embed", patch, d, &mut rng);
        let attn = SelfAttention::new(&mut ps, "attn", d, &mut rng);
        let ln1 = LayerNorm::new(&mut ps, "ln1", d);
        let ffn = Mlp::new(&mut ps, "ffn", d, 2 * d, d, Activation::Gelu, &mut rng);
        let ln2 = LayerNorm::new(&mut ps, "ln2", d);
        let head = Linear::new(&mut ps, "head", l * d, horizon, &mut rng);
        PatchTst {
            lookback,
            horizon,
            patch,
            d,
            ps,
            embed,
            attn,
            ln1,
            ffn,
            ln2,
            head,
        }
    }

    /// Number of patches per entity.
    pub fn n_patches(&self) -> usize {
        self.lookback / self.patch
    }
}

impl Forecaster for PatchTst {
    fn name(&self) -> &str {
        "PatchTST"
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
        let att = self.attn.forward(g, pv, emb);
        let sum1 = g.add(att, emb);
        let h1 = self.ln1.forward(g, pv, sum1);
        let ff = self.ffn.forward(g, pv, h1);
        let sum2 = g.add(ff, h1);
        let h2 = self.ln2.forward(g, pv, sum2);
        let flat = g.reshape(h2, &[n, l * self.d]);
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
        let model = PatchTst::new(48, 12, 8, 16, 0);
        let x = Tensor::from_vec((0..144).map(|v| (v as f32 * 0.1).cos()).collect(), &[3, 48]);
        let y = model.predict(&x);
        assert_eq!(y.dims(), &[3, 12]);
        assert!(y.all_finite());
    }

    #[test]
    fn training_improves_accuracy() {
        let ds = MtsDataset::generate(Benchmark::Pems08.scaled(4, 1_200), 9);
        let mut model = PatchTst::new(48, 12, 8, 12, 1);
        let before = model.evaluate(&ds, Split::Test, 48);
        model.train(
            &ds,
            &TrainOptions {
                epochs: 4,
                max_windows: 32,
                ..Default::default()
            },
        );
        let after = model.evaluate(&ds, Split::Test, 48);
        assert!(after.mse() < before.mse());
    }

    #[test]
    fn flops_grow_quadratically_with_lookback() {
        // The attention term is O(l²): quadrupling is expected when the
        // patch count doubles and l ≫ d is approached.
        let short = PatchTst::new(128, 24, 8, 8, 2);
        let long = PatchTst::new(256, 24, 8, 8, 2);
        let short = count_predict(&short, &window(1, 128)).flops;
        let long = count_predict(&long, &window(1, 256)).flops;
        let ratio = long as f64 / short as f64;
        assert!(ratio > 2.0, "ratio {ratio} not superlinear");
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn rejects_bad_patch() {
        let _ = PatchTst::new(50, 12, 8, 16, 3);
    }
}
