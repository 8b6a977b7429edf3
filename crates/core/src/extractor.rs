//! The dual-branch feature extractor (paper §VII-A, Algorithm 3).
//!
//! Given a lookback window `X: [N, L]` cut into `l = L/p` segments per
//! entity:
//!
//! * the **temporal branch** runs ProtoAttn over each entity's `l` segments,
//!   modelling dependencies *across time* within an entity;
//! * the **entity branch** runs ProtoAttn over the `N` entities' segments at
//!   each segment position, modelling dependencies *across entities* at the
//!   same time.
//!
//! Both are wrapped in `LayerNorm(OnlineModeling(P) + Embed(P))`. The paper's
//! Algorithm 3 writes the residual as `+ P`, with `P ∈ R^{l×p}` and the
//! attention output in `R^{l×d}`; since those widths differ, the standard
//! resolution — a shared linear input embedding `p → d` providing the
//! residual path — is used here (this is also what PatchTST does with its
//! patch embedding).

use crate::forecaster::{OperandVars, WindowOperands};
use crate::protoattn::{Assignment, ProtoAttn, Routing, RoutingPlan};
use focus_autograd::{Graph, ParamId, ParamStore, ParamVars, Var};
use focus_cluster::Prototypes;
use focus_nn::{init, LayerNorm, Linear};
use focus_tensor::Tensor;
use rand::Rng;

/// Segment embedding with learnable temporal positional encodings:
/// `E[n, i, :] = P[n, i, :]·W + b + pos[i, :]`.
///
/// ProtoAttn's readout (and the downstream Parallel Fusion) is otherwise
/// permutation-invariant over segments — without a positional term the model
/// cannot tell *when* a motif occurred, which forecasting obviously needs.
/// The paper does not spell this out, but every patch-transformer it builds
/// on (PatchTST, Crossformer) carries positional embeddings.
pub struct SegmentEmbedding {
    linear: Linear,
    pos: ParamId,
    n_segments: usize,
    d: usize,
}

impl SegmentEmbedding {
    /// An embedding `p → d` for windows of exactly `n_segments` segments.
    pub fn new<R: Rng + ?Sized>(
        ps: &mut ParamStore,
        name: &str,
        p: usize,
        d: usize,
        n_segments: usize,
        rng: &mut R,
    ) -> Self {
        SegmentEmbedding {
            linear: Linear::new(ps, &format!("{name}.linear"), p, d, rng),
            pos: ps.add(format!("{name}.pos"), init::normal(&[n_segments, d], 0.1, rng)),
            n_segments,
            d,
        }
    }

    /// Embeds `segments: [N, l, p]` into `[N, l, d]`, adding the positional
    /// table (broadcast over entities).
    pub fn forward(&self, g: &mut Graph, pv: &ParamVars, segments: Var) -> Var {
        let dims = g.dims(segments).to_vec();
        assert_eq!(dims.len(), 3, "SegmentEmbedding expects [N, l, p]");
        assert_eq!(
            dims[1], self.n_segments,
            "window has {} segments, embedding built for {}",
            dims[1], self.n_segments
        );
        let emb = self.linear.forward(g, pv, segments); // [N, l, d]
        let flat = g.reshape(emb, &[dims[0], self.n_segments * self.d]);
        let pos = g.reshape(pv.var(self.pos), &[self.n_segments * self.d]);
        let with_pos = g.add_row_broadcast(flat, pos);
        g.reshape(with_pos, &[dims[0], self.n_segments, self.d])
    }
}

/// Dual-branch extractor producing aligned `[N, l, d]` temporal and entity
/// feature tensors, with one ProtoAttn layer per branch as in the paper
/// (§VIII-A).
pub struct DualBranchExtractor {
    embed: SegmentEmbedding,
    temporal: ProtoAttn,
    entity: ProtoAttn,
    ln_t: LayerNorm,
    ln_e: LayerNorm,
    assignment: Assignment,
    prototypes: Prototypes,
    segment_len: usize,
    d: usize,
}

impl DualBranchExtractor {
    /// Builds the extractor around an offline prototype set, for windows of
    /// exactly `n_segments` segments.
    pub fn new<R: Rng + ?Sized>(
        ps: &mut ParamStore,
        name: &str,
        prototypes: &Prototypes,
        d: usize,
        n_segments: usize,
        assignment: Assignment,
        rng: &mut R,
    ) -> Self {
        let p = prototypes.segment_len();
        DualBranchExtractor {
            embed: SegmentEmbedding::new(ps, &format!("{name}.embed"), p, d, n_segments, rng),
            temporal: ProtoAttn::new(ps, &format!("{name}.temporal"), prototypes, d, rng),
            entity: ProtoAttn::new(ps, &format!("{name}.entity"), prototypes, d, rng),
            ln_t: LayerNorm::new(ps, &format!("{name}.ln_t"), d),
            ln_e: LayerNorm::new(ps, &format!("{name}.ln_e"), d),
            assignment,
            prototypes: prototypes.clone(),
            segment_len: p,
            d,
        }
    }

    /// Feature width `d`.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// Segment length `p`.
    pub fn segment_len(&self) -> usize {
        self.segment_len
    }

    /// The temporal-branch ProtoAttn (exposed for the Fig. 13 case study).
    pub fn temporal_attn(&self) -> &ProtoAttn {
        &self.temporal
    }

    /// Computes the temporal routing plan for a window `x: [N, L]` (the
    /// entity branch reuses it with axes swapped, since both views contain
    /// the same segments). Hard assignment stays sparse end to end.
    pub fn routing(&self, x: &Tensor) -> RoutingPlan {
        let (n, l) = self.segment_dims(x);
        self.assignment.plan_rows(x.data(), n, l, &self.prototypes)
    }

    /// The per-window operands [`DualBranchExtractor::forward`] reads for
    /// window `x`: the temporal and entity route indices under hard
    /// assignment, the temporal and entity mixture matrices under soft
    /// assignment.
    pub fn window_operands(&self, x: &Tensor) -> WindowOperands {
        let routing = self.routing(x);
        let swapped = routing.swap01();
        match (routing, swapped) {
            (RoutingPlan::Hard { indices: t, .. }, RoutingPlan::Hard { indices: e, .. }) => {
                WindowOperands { routes: vec![t, e], tensors: Vec::new() }
            }
            (RoutingPlan::Soft { matrix: t }, RoutingPlan::Soft { matrix: e }) => {
                WindowOperands { routes: Vec::new(), tensors: vec![t, e] }
            }
            _ => unreachable!("swap01 keeps the routing kind"),
        }
    }

    /// The dense temporal assignment matrix `A_t: [N, l, k]` — kept for the
    /// Fig. 13 dependency matrix and diagnostics; the forward path uses
    /// [`DualBranchExtractor::routing`].
    pub fn assignments(&self, x: &Tensor) -> Tensor {
        self.routing(x).to_matrix()
    }

    /// Reshapes a window `[N, L]` into the temporal segment view `[N, l, p]`.
    pub fn segment_view(&self, x: &Tensor) -> Tensor {
        let (n, l) = self.segment_dims(x);
        x.reshape(&[n, l, self.segment_len])
    }

    /// The `(N, l)` of a window `x: [N, L]`, `l = L/p`.
    fn segment_dims(&self, x: &Tensor) -> (usize, usize) {
        assert_eq!(x.rank(), 2, "window must be [N, L]");
        let (n, len) = (x.dims()[0], x.dims()[1]);
        let p = self.segment_len;
        assert_eq!(len % p, 0, "lookback {len} not divisible by segment length {p}");
        (n, len / p)
    }

    /// Runs both branches on the window `x: [N, L]`, a tape input, under the
    /// temporal and entity routing recorded from
    /// [`DualBranchExtractor::window_operands`], returning `(H_t, H_e)`,
    /// each `[N, l, d]`.
    pub fn forward(
        &self,
        g: &mut Graph,
        pv: &ParamVars,
        x: Var,
        operands: &OperandVars,
    ) -> (Var, Var) {
        let (routing_t, routing_e) = match self.assignment {
            Assignment::Hard => {
                (Routing::Hard(operands.routes[0]), Routing::Hard(operands.routes[1]))
            }
            Assignment::Soft { .. } => {
                (Routing::Soft(operands.tensors[0]), Routing::Soft(operands.tensors[1]))
            }
        };
        let (n, len) = (g.dims(x)[0], g.dims(x)[1]);
        let p_t = g.reshape(x, &[n, len / self.segment_len, self.segment_len]); // [N, l, p]

        // Shared input embedding provides the residual path.
        let emb_t = self.embed.forward(g, pv, p_t); // [N, l, d]

        // Temporal branch.
        let attn_t = self.temporal.forward(g, pv, p_t, routing_t);
        let sum_t = g.add(attn_t, emb_t);
        let h_t = self.ln_t.forward(g, pv, sum_t); // [N, l, d]

        // Entity branch: same segments viewed as [l, N, p] with swapped
        // routing (a pure index permutation on the hard path).
        let p_e = g.swap_axes01(p_t); // [l, N, p]
        let emb_e = g.swap_axes01(emb_t); // [l, N, d] (embedding is pointwise per segment)
        let attn_e = self.entity.forward(g, pv, p_e, routing_e);
        let sum_e = g.add(attn_e, emb_e);
        let h_e_raw = self.ln_e.forward(g, pv, sum_e); // [l, N, d]
        let h_e = g.swap_axes01(h_e_raw); // [N, l, d]

        (h_t, h_e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_cluster::{segment_matrix, ClusterConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Records window `x` and the extractor's operands for it on `g`.
    fn record(ext: &DualBranchExtractor, g: &mut Graph, x: &Tensor) -> (Var, OperandVars) {
        let operands = ext.window_operands(x);
        let xv = g.input(x.clone());
        let vars = OperandVars {
            routes: operands.routes.into_iter().map(|r| g.route(r)).collect(),
            tensors: operands.tensors.into_iter().map(|t| g.input(t)).collect(),
        };
        (xv, vars)
    }

    fn fixture() -> (ParamStore, DualBranchExtractor, Tensor) {
        let mut rng = StdRng::seed_from_u64(21);
        // A small periodic multivariate window.
        let n = 4;
        let len = 32;
        let data: Vec<f32> = (0..n * len)
            .map(|i| {
                let e = i / len;
                let t = i % len;
                ((t as f32 * 0.4) + e as f32).sin()
            })
            .collect();
        let x = Tensor::from_vec(data, &[n, len]);
        let segs = segment_matrix(&x, 8);
        let protos = ClusterConfig::new(3, 8).fit(&segs, 1);
        let mut ps = ParamStore::new();
        let ext =
            DualBranchExtractor::new(&mut ps, "ext", &protos, 6, 4, Assignment::Hard, &mut rng);
        (ps, ext, x)
    }

    #[test]
    fn forward_produces_aligned_branches() {
        let (ps, ext, x) = fixture();
        assert_eq!(ext.routing(&x).dims(), (4, 4, 3));
        assert_eq!(ext.assignments(&x).dims(), &[4, 4, 3]);
        let mut g = Graph::new();
        let pv = ps.register(&mut g);
        let (xv, ops) = record(&ext, &mut g, &x);
        let (h_t, h_e) = ext.forward(&mut g, &pv, xv, &ops);
        assert_eq!(g.dims(h_t), &[4, 4, 6]);
        assert_eq!(g.dims(h_e), &[4, 4, 6]);
        assert!(g.value(h_t).all_finite());
        assert!(g.value(h_e).all_finite());
    }

    #[test]
    fn branches_differ() {
        // Temporal and entity branches have separate parameters and views,
        // so their features should not coincide.
        let (ps, ext, x) = fixture();
        let mut g = Graph::new();
        let pv = ps.register(&mut g);
        let (xv, ops) = record(&ext, &mut g, &x);
        let (h_t, h_e) = ext.forward(&mut g, &pv, xv, &ops);
        let diff = g.value(h_t).max_abs_diff(&g.value(h_e));
        assert!(diff > 1e-3, "branches coincide (diff {diff})");
    }

    #[test]
    fn segment_view_is_pure_reshape() {
        let (_, ext, x) = fixture();
        let v = ext.segment_view(&x);
        assert_eq!(v.dims(), &[4, 4, 8]);
        // Row-major reshape: segment 1 of entity 0 is x[0, 8..16].
        let expect = &x.row(0)[8..16];
        let got: Vec<f32> = (0..8).map(|j| v.at3(0, 1, j)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn rejects_indivisible_lookback() {
        let (_, ext, _) = fixture();
        let bad = Tensor::zeros(&[4, 30]);
        let _ = ext.segment_view(&bad);
    }

    #[test]
    fn full_gradient_flow() {
        let (mut ps, ext, x) = fixture();
        let mut opt = focus_autograd::AdamW::new(0.01, 0.0);
        let mut g = Graph::new();
        let pv = ps.register(&mut g);
        let (xv, ops) = record(&ext, &mut g, &x);
        let (h_t, h_e) = ext.forward(&mut g, &pv, xv, &ops);
        let s = g.add(h_t, h_e);
        let sq = g.mul(s, s);
        let loss = g.mean_all(sq);
        g.backward(loss);
        let norm = ps
            .iter()
            .filter_map(|(id, _, _)| g.grad(pv.var(id)))
            .flat_map(|grad| grad.data().iter().map(|&v| f64::from(v) * f64::from(v)))
            .sum::<f64>()
            .sqrt() as f32;
        assert!(norm > 0.0 && norm.is_finite());
        ps.step(&mut opt, &g, &pv); // must not panic
    }
}
