//! The Parallel Fusion Module (paper §VII-B, Algorithm 4).
//!
//! A fixed number `m` of learnable readout queries attend over each branch's
//! features, producing `m × d` summaries `F_t` and `F_e`; a gating network
//! mixes them and a projection head maps the result to the forecast horizon.
//! Because `m` is fixed, the module is linear in both `l` and `N`.
//!
//! Note on Algorithm 4's dimensions: the paper writes
//! `A_t = softmax(H_t·Qᵀ/√d)` followed by `F_t = A_t·H_t`, whose shapes
//! (`[l, m]` × `[l, d]`) do not compose; the intended Perceiver-style readout
//! is `F_t = softmax(Q·H_tᵀ/√d)·H_t ∈ R^{m×d}`, which is what we implement.

use focus_autograd::{Graph, ParamId, ParamStore, ParamVars, Var};
use focus_nn::{init, Linear};
use rand::Rng;

/// Readout-query fusion of the two branch feature tensors.
pub struct ParallelFusion {
    queries: ParamId,
    gate: Linear,
    head: Linear,
    m: usize,
    d: usize,
    horizon: usize,
}

impl ParallelFusion {
    /// Builds a fusion module with `m` readout queries over feature width
    /// `d`, projecting to `horizon` future steps per entity.
    pub fn new<R: Rng + ?Sized>(
        ps: &mut ParamStore,
        name: &str,
        m: usize,
        d: usize,
        horizon: usize,
        rng: &mut R,
    ) -> Self {
        let queries = ps.add(format!("{name}.queries"), init::normal(&[m, d], 0.5, rng));
        ParallelFusion {
            queries,
            gate: Linear::new(ps, &format!("{name}.gate"), 2 * d, d, rng),
            head: Linear::new(ps, &format!("{name}.head"), m * d, horizon, rng),
            m,
            d,
            horizon,
        }
    }

    /// Forecast horizon.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// One branch's readout: `F = softmax(Q·Hᵀ/√d)·H ∈ [N, m, d]`.
    fn readout(&self, g: &mut Graph, q: Var, h: Var) -> Var {
        let scores = g.matmul_broadcast_nt(q, h); // [N, m, l]
        let scaled = g.scale(scores, 1.0 / (self.d as f32).sqrt());
        let attn = g.softmax_last(scaled);
        g.bmm(attn, h) // [N, m, d]
    }

    /// Fuses `h_t` and `h_e` (both `[N, l, d]`) into a forecast `[N, horizon]`.
    pub fn forward(&self, g: &mut Graph, pv: &ParamVars, h_t: Var, h_e: Var) -> Var {
        focus_trace::span!("model/fusion");
        let n = g.dims(h_t)[0];
        assert_eq!(g.dims(h_t), g.dims(h_e), "branch shape mismatch");
        assert_eq!(g.dims(h_t)[2], self.d, "feature width mismatch");

        let q = pv.var(self.queries); // [m, d]
        let f_t = self.readout(g, q, h_t); // [N, m, d]
        let f_e = self.readout(g, q, h_e); // [N, m, d]

        // Gating (Algorithm 4 lines 5–7).
        let f_proj = g.concat_last(f_t, f_e); // [N, m, 2d]
        let gate_logits = self.gate.forward(g, pv, f_proj); // [N, m, d]
        let gate = g.sigmoid(gate_logits);
        let gated_t = g.mul(gate, f_t);
        let neg_gate = g.neg(gate);
        let one_minus = g.add_scalar(neg_gate, 1.0);
        let gated_e = g.mul(one_minus, f_e);
        let fused = g.add(gated_t, gated_e); // [N, m, d]

        // Projection to the horizon (Algorithm 4 line 8).
        let flat = g.reshape(fused, &[n, self.m * self.d]);
        self.head.forward(g, pv, flat) // [N, horizon]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_autograd::AdamW;
    use focus_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture(m: usize, d: usize, horizon: usize) -> (ParamStore, ParallelFusion) {
        let mut rng = StdRng::seed_from_u64(31);
        let mut ps = ParamStore::new();
        let fusion = ParallelFusion::new(&mut ps, "fusion", m, d, horizon, &mut rng);
        (ps, fusion)
    }

    #[test]
    fn forward_shape() {
        let (ps, fusion) = fixture(3, 8, 12);
        let mut rng = StdRng::seed_from_u64(32);
        let mut g = Graph::new();
        let pv = ps.register(&mut g);
        let h_t = g.constant(Tensor::randn(&[5, 7, 8], 1.0, &mut rng));
        let h_e = g.constant(Tensor::randn(&[5, 7, 8], 1.0, &mut rng));
        let y = fusion.forward(&mut g, &pv, h_t, h_e);
        assert_eq!(g.dims(y), &[5, 12]);
        assert!(g.value(y).all_finite());
    }

    #[test]
    fn gate_mixes_branches() {
        // With identical branches the output must equal the single-branch
        // readout regardless of the gate (g·F + (1−g)·F = F): a sanity check
        // of the mixing algebra.
        let (ps, fusion) = fixture(2, 4, 6);
        let mut rng = StdRng::seed_from_u64(33);
        let h = Tensor::randn(&[3, 5, 4], 1.0, &mut rng);
        let mut g = Graph::new();
        let pv = ps.register(&mut g);
        let h_t = g.constant(h.clone());
        let h_e = g.constant(h.clone());
        let y_same = fusion.forward(&mut g, &pv, h_t, h_e);
        // Recompute with a perturbed second branch: output must change.
        let h_e2 = g.constant(h.add_scalar(1.0));
        let y_diff = fusion.forward(&mut g, &pv, h_t, h_e2);
        assert!(g.value(y_same).max_abs_diff(&g.value(y_diff)) > 1e-4);
    }

    #[test]
    fn trains_toward_target() {
        let (mut ps, fusion) = fixture(2, 4, 3);
        let mut rng = StdRng::seed_from_u64(34);
        let h_t = Tensor::randn(&[2, 6, 4], 1.0, &mut rng);
        let h_e = Tensor::randn(&[2, 6, 4], 1.0, &mut rng);
        let target = Tensor::randn(&[2, 3], 1.0, &mut rng);
        let mut opt = AdamW::new(0.02, 0.0);
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..200 {
            let mut g = Graph::new();
            let pv = ps.register(&mut g);
            let ht = g.constant(h_t.clone());
            let he = g.constant(h_e.clone());
            let tv = g.constant(target.clone());
            let y = fusion.forward(&mut g, &pv, ht, he);
            let loss = g.mse(y, tv);
            g.backward(loss);
            ps.step(&mut opt, &g, &pv);
            if step == 0 {
                first = g.value(loss).item();
            }
            last = g.value(loss).item();
        }
        assert!(last < first * 0.1, "first {first}, last {last}");
    }

    #[test]
    fn cost_linear_in_l_and_n() {
        let (ps, fusion) = fixture(4, 16, 24);
        let mut rng = StdRng::seed_from_u64(34);
        let mut count = |n: usize, l: usize| {
            let mut g = Graph::new();
            let pv = ps.register(&mut g);
            let h_t = g.input(Tensor::randn(&[n, l, 16], 1.0, &mut rng));
            let h_e = g.input(Tensor::randn(&[n, l, 16], 1.0, &mut rng));
            let y = fusion.forward(&mut g, &pv, h_t, h_e);
            focus_tensor::work::measure(|| g.value(y)).1
        };
        let (base, double_l, double_n) = (count(8, 16), count(8, 32), count(16, 16));
        // The head is per-entity constant; readouts are linear. Ratios must
        // be well under quadratic.
        assert!((double_l.flops as f64) < 2.2 * base.flops as f64);
        assert!((double_n.flops as f64) < 2.2 * base.flops as f64);
    }
}
