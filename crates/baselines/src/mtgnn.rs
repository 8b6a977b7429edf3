//! MTGNN-lite (Wu et al., KDD 2020): "Connecting the Dots" — a spatial-
//! temporal GNN whose signature is a *learned adaptive adjacency matrix*
//! (from node embeddings) combined with temporal convolution. The lite
//! variant keeps adaptive-adjacency graph convolution over entities plus a
//! temporal mixing MLP.

use focus_autograd::{Graph, ParamId, ParamStore, ParamVars, Var};
use focus_core::{Forecaster, OperandVars};
use focus_nn::mlp::{Activation, Mlp};
use focus_nn::{init, Linear};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The MTGNN-lite forecaster.
pub struct Mtgnn {
    lookback: usize,
    horizon: usize,
    entities: usize,
    patch: usize,
    d: usize,
    ps: ParamStore,
    /// Source/target node embeddings for the adaptive adjacency
    /// `A = softmax(relu(E₁·E₂ᵀ))`.
    e1: ParamId,
    e2: ParamId,
    embed: Linear,
    temporal: Mlp,
    graph_proj: Linear,
    head: Linear,
}

impl Mtgnn {
    /// Builds an MTGNN-lite for a fixed entity count (the adjacency is per
    /// node, as in the original).
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
        let mut rng = StdRng::seed_from_u64(seed ^ 0x317c);
        let mut ps = ParamStore::new();
        let e1 = ps.add("e1", init::normal(&[entities, node_rank], 0.5, &mut rng));
        let e2 = ps.add("e2", init::normal(&[entities, node_rank], 0.5, &mut rng));
        Mtgnn {
            lookback,
            horizon,
            entities,
            patch,
            d,
            e1,
            e2,
            embed: Linear::new(&mut ps, "embed", patch, d, &mut rng),
            temporal: Mlp::new(&mut ps, "temporal", l * d, d, d, Activation::Relu, &mut rng),
            graph_proj: Linear::new(&mut ps, "graph_proj", d, d, &mut rng),
            head: Linear::new(&mut ps, "head", 2 * d, horizon, &mut rng),
            ps,
        }
    }

    /// Builds the adaptive adjacency inside the graph:
    /// `A = softmax(relu(E₁·E₂ᵀ))`, rows normalised.
    fn adjacency(&self, g: &mut Graph, pv: &ParamVars) -> Var {
        let e1 = pv.var(self.e1);
        let e2 = pv.var(self.e2);
        let e2t = g.transpose(e2);
        let logits = g.matmul(e1, e2t); // [N, N]
        let pos = g.relu(logits);
        g.softmax_last(pos)
    }
}

impl Forecaster for Mtgnn {
    fn name(&self) -> &str {
        "MTGNN"
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
            "MTGNN adjacency built for {} entities, window has {n}",
            self.entities
        );
        let l = self.lookback / self.patch;
        let patches = g.reshape(x, &[n, l, self.patch]); // [N, l, p]
        let emb = self.embed.forward(g, pv, patches); // [N, l, d]
        let flat = g.reshape(emb, &[n, l * self.d]);
        let temporal = self.temporal.forward(g, pv, flat); // [N, d]

        // One graph-convolution hop over the learned adjacency.
        let adj = self.adjacency(g, pv); // [N, N]
        let mixed = g.matmul(adj, temporal); // [N, d]
        let mixed_proj = self.graph_proj.forward(g, pv, mixed);
        let both = g.concat_last(temporal, mixed_proj); // [N, 2d]
        self.head.forward(g, pv, both)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_tensor::Tensor;
    use focus_core::TrainOptions;
    use focus_data::{Benchmark, MtsDataset, Split};

    #[test]
    fn forward_shape() {
        let model = Mtgnn::new(32, 8, 5, 8, 12, 0);
        let x = Tensor::from_vec((0..160).map(|v| (v as f32 * 0.2).sin()).collect(), &[5, 32]);
        let y = model.predict(&x);
        assert_eq!(y.dims(), &[5, 8]);
        assert!(y.all_finite());
    }

    #[test]
    #[should_panic(expected = "adjacency built for")]
    fn rejects_wrong_entity_count() {
        let model = Mtgnn::new(32, 8, 5, 8, 12, 1);
        let x = Tensor::zeros(&[3, 32]);
        let _ = model.predict(&x);
    }

    #[test]
    fn trains_and_adjacency_adapts() {
        let ds = MtsDataset::generate(Benchmark::Pems08.scaled(4, 1_000), 8);
        let mut model = Mtgnn::new(48, 12, 4, 8, 8, 2);
        let e1_before = model.ps.get(model.e1).clone();
        model.train(
            &ds,
            &TrainOptions {
                epochs: 3,
                max_windows: 16,
                ..Default::default()
            },
        );
        let e1_after = model.ps.get(model.e1);
        assert!(
            e1_before.max_abs_diff(e1_after) > 1e-5,
            "node embeddings did not move"
        );
        let m = model.evaluate(&ds, Split::Test, 48);
        assert!(m.mse().is_finite());
    }

    #[test]
    fn adjacency_rows_are_stochastic() {
        let model = Mtgnn::new(32, 8, 6, 8, 8, 3);
        let mut g = Graph::new();
        let pv = model.ps.register(&mut g);
        let adj = model.adjacency(&mut g, &pv);
        let a = g.value(adj);
        assert_eq!(a.dims(), &[6, 6]);
        for i in 0..6 {
            let sum: f32 = a.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(a.row(i).iter().all(|&v| v >= 0.0));
        }
    }
}
