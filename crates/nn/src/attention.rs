//! Full softmax self-attention — the quadratic mechanism ProtoAttn replaces.
//!
//! Kept here because (a) the FOCUS-Attn ablation swaps it back in (Table IV),
//! and (b) the attention baselines (PatchTST, Crossformer, LightCTS) are
//! built from it.

use crate::linear::Linear;
use focus_autograd::{Graph, ParamStore, ParamVars, Var};
use rand::Rng;

/// Single-head scaled-dot-product self-attention with output projection: the
/// attention block of PatchTST, Crossformer, LightCTS and FOCUS-Attn.
///
/// Input/output shape `[B, l, d]`. Complexity is `O(B·l²·d)` — quadratic in
/// the sequence length, which is exactly the bottleneck the paper's offline
/// clustering removes.
pub struct SelfAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    d: usize,
}

impl SelfAttention {
    /// A self-attention block over feature width `d`.
    pub fn new<R: Rng + ?Sized>(ps: &mut ParamStore, name: &str, d: usize, rng: &mut R) -> Self {
        SelfAttention {
            wq: Linear::new_no_bias(ps, &format!("{name}.wq"), d, d, rng),
            wk: Linear::new_no_bias(ps, &format!("{name}.wk"), d, d, rng),
            wv: Linear::new_no_bias(ps, &format!("{name}.wv"), d, d, rng),
            wo: Linear::new_no_bias(ps, &format!("{name}.wo"), d, d, rng),
            d,
        }
    }

    /// Feature width.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// Applies attention to `x: [B, l, d]`, returning `[B, l, d]`.
    pub fn forward(&self, g: &mut Graph, pv: &ParamVars, x: Var) -> Var {
        assert_eq!(g.dims(x).len(), 3, "SelfAttention expects [B, l, d]");
        let q = self.wq.forward(g, pv, x);
        let k = self.wk.forward(g, pv, x);
        let v = self.wv.forward(g, pv, x);
        let scores = g.bmm_nt(q, k); // q·kᵀ → [B, l, l], no transposed copy
        let scaled = g.scale(scores, 1.0 / (self.d as f32).sqrt());
        let attn = g.softmax_last(scaled);
        let ctx = g.bmm(attn, v); // [B, l, d]
        self.wo.forward(g, pv, ctx)
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
    fn forward_preserves_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ps = ParamStore::new();
        let attn = SelfAttention::new(&mut ps, "attn", 8, &mut rng);
        let mut g = Graph::new();
        let pv = ps.register(&mut g);
        let x = g.constant(Tensor::randn(&[2, 5, 8], 1.0, &mut rng));
        let y = attn.forward(&mut g, &pv, x);
        assert_eq!(g.dims(y), &[2, 5, 8]);
        assert!(g.value(y).all_finite());
    }

    #[test]
    fn attention_can_learn_to_copy() {
        // A single attention layer can learn a near-identity map.
        let mut rng = StdRng::seed_from_u64(1);
        let mut ps = ParamStore::new();
        let attn = SelfAttention::new(&mut ps, "attn", 4, &mut rng);
        let mut opt = Sgd::new(0.1);
        let x = Tensor::randn(&[1, 6, 4], 1.0, &mut rng);
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..150 {
            let mut g = Graph::new();
            let pv = ps.register(&mut g);
            let xv = g.constant(x.clone());
            let y = attn.forward(&mut g, &pv, xv);
            let loss = g.mse(y, xv);
            g.backward(loss);
            ps.step(&mut opt, &g, &pv);
            if step == 0 {
                first = g.value(loss).item();
            }
            last = g.value(loss).item();
        }
        assert!(last < first * 0.5, "first {first}, last {last}");
    }

    #[test]
    fn cost_is_quadratic_in_length() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut ps = ParamStore::new();
        let attn = SelfAttention::new(&mut ps, "attn", 16, &mut rng);
        let mut count = |l: usize| {
            let mut g = Graph::new();
            let pv = ps.register(&mut g);
            let x = g.input(Tensor::randn(&[1, l, 16], 1.0, &mut rng));
            let y = attn.forward(&mut g, &pv, x);
            focus_tensor::work::measure(|| g.value(y)).1
        };
        let (c1, c2) = (count(32), count(64));
        // Attention term dominates for l >> d; ratio should approach 4.
        let growth = c2.flops as f64 / c1.flops as f64;
        assert!(growth > 2.5, "growth {growth}");
        // So do the l×l score buffers in the pass's memory.
        let mem_growth = c2.peak_bytes as f64 / c1.peak_bytes as f64;
        assert!(mem_growth > 3.0, "memory growth {mem_growth}");
    }
}
