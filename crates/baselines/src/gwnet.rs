//! Graph WaveNet-lite (Wu et al., IJCAI 2019): adaptive adjacency plus
//! *gated* temporal units (`tanh ⊙ sigmoid`), WaveNet's gating applied to
//! traffic graphs. The lite variant keeps the self-adaptive adjacency and
//! the gated temporal activation with two graph hops.

use focus_autograd::{Graph, ParamId, ParamStore, ParamVars, Var};
use focus_core::{Forecaster, OperandVars};
use focus_nn::{init, Linear};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The Graph WaveNet-lite forecaster.
pub struct GraphWavenet {
    lookback: usize,
    horizon: usize,
    entities: usize,
    patch: usize,
    d: usize,
    ps: ParamStore,
    e1: ParamId,
    e2: ParamId,
    embed: Linear,
    gate_filter: Linear,
    gate_gate: Linear,
    hop1: Linear,
    hop2: Linear,
    head: Linear,
}

impl GraphWavenet {
    /// Builds a Graph WaveNet-lite for a fixed entity count.
    ///
    /// # Panics
    /// If `patch` does not divide `lookback`.
    pub fn new(
        lookback: usize,
        horizon: usize,
        entities: usize,
        patch: usize,
        d: usize,
        seed: u64,
    ) -> Self {
        assert_eq!(lookback % patch, 0, "patch {patch} must divide lookback {lookback}");
        let l = lookback / patch;
        let node_rank = 8.min(entities.max(2));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x67e7);
        let mut ps = ParamStore::new();
        let e1 = ps.add("e1", init::normal(&[entities, node_rank], 0.5, &mut rng));
        let e2 = ps.add("e2", init::normal(&[entities, node_rank], 0.5, &mut rng));
        GraphWavenet {
            lookback,
            horizon,
            entities,
            patch,
            d,
            e1,
            e2,
            embed: Linear::new(&mut ps, "embed", patch, d, &mut rng),
            gate_filter: Linear::new(&mut ps, "gate_filter", l * d, d, &mut rng),
            gate_gate: Linear::new(&mut ps, "gate_gate", l * d, d, &mut rng),
            hop1: Linear::new(&mut ps, "hop1", d, d, &mut rng),
            hop2: Linear::new(&mut ps, "hop2", d, d, &mut rng),
            head: Linear::new(&mut ps, "head", d, horizon, &mut rng),
            ps,
        }
    }
}

impl Forecaster for GraphWavenet {
    fn name(&self) -> &str {
        "GraphWavenet"
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
        assert_eq!(
            n, self.entities,
            "GraphWavenet adjacency built for {} entities, window has {n}",
            self.entities
        );
        let l = self.lookback / self.patch;
        let patches = g.reshape(x, &[n, l, self.patch]);
        let emb = self.embed.forward(g, pv, patches); // [N, l, d]
        let flat = g.reshape(emb, &[n, l * self.d]);

        // WaveNet gated temporal unit: tanh(filter) ⊙ σ(gate).
        let f = self.gate_filter.forward(g, pv, flat);
        let f_act = g.tanh(f);
        let s = self.gate_gate.forward(g, pv, flat);
        let s_act = g.sigmoid(s);
        let gated = g.mul(f_act, s_act); // [N, d]

        // Self-adaptive adjacency and two diffusion hops.
        let e1 = pv.var(self.e1);
        let e2 = pv.var(self.e2);
        let e2t = g.transpose(e2);
        let logits = g.matmul(e1, e2t);
        let pos = g.relu(logits);
        let adj = g.softmax_last(pos); // [N, N]

        let m1 = g.matmul(adj, gated);
        let h1 = self.hop1.forward(g, pv, m1);
        let h1_act = g.relu(h1);
        let m2 = g.matmul(adj, h1_act);
        let h2 = self.hop2.forward(g, pv, m2);

        let fused = g.add(gated, h2); // skip connection
        self.head.forward(g, pv, fused)
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
        let model = GraphWavenet::new(32, 8, 4, 8, 10, 0);
        let x = Tensor::from_vec((0..128).map(|v| (v as f32 * 0.3).sin()).collect(), &[4, 32]);
        let y = model.predict(&x);
        assert_eq!(y.dims(), &[4, 8]);
        assert!(y.all_finite());
    }

    #[test]
    fn trains() {
        let ds = MtsDataset::generate(Benchmark::Pems04.scaled(4, 1_000), 4);
        let mut model = GraphWavenet::new(48, 12, 4, 8, 8, 1);
        let r = model.train(
            &ds,
            &TrainOptions {
                epochs: 3,
                max_windows: 16,
                ..Default::default()
            },
        );
        assert!(r.epoch_losses.iter().all(|l| l.is_finite()));
        let m = model.evaluate(&ds, Split::Test, 48);
        assert!(m.mse().is_finite());
    }

    #[test]
    fn adjacency_memory_grows_quadratically() {
        let count = |n: usize| count_predict(&GraphWavenet::new(32, 8, n, 8, 8, 2), &window(n, 32));
        let (small, large) = (count(4), count(64));
        // 16× more entities: a purely linear model would grow memory 16×;
        // the N×N adjacency pushes it beyond that.
        let ratio = large.peak_bytes as f64 / small.peak_bytes as f64;
        assert!(ratio > 16.0, "ratio {ratio} not superlinear");
    }
}
