//! Prototypes Attentive Modeling — ProtoAttn (paper §VI, Algorithm 2).
//!
//! Instead of all-pairs attention between `l` segments (`O(l²)`), ProtoAttn
//! computes attention between the `k` *prototype queries* and the `l` segment
//! keys, then routes each segment to its assigned prototype's output through
//! the one-hot assignment matrix `A`. The paper writes it as
//!
//! ```text
//! C_Q = C·W_E          (k × d)   prototype queries          (Eq. 14)
//! K   = P·W_K,  V = P·W_V  (l × d)
//! α   = softmax(C_Q·Kᵀ / √d)    (k × l)                     (Eq. 16)
//! out = A · (α · V)             (l × d)                     (Eq. 18)
//! ```
//!
//! **As computed.** `W_K` and `W_V` are bias-free linear maps of the
//! `p`-wide segments `P`, so both products reassociate, and ProtoAttn runs
//! at width `p` without building a per-segment key:
//!
//! ```text
//! M   = C·W_E·W_Kᵀ / √d                  (k × p)   so C_Q·Kᵀ/√d = M·Pᵀ
//! α   = softmax(M·Pᵀ)                    (k × l)
//! α·V = (α·P)·W_V   if k·p·(l + d) < l·d·(p + k)   (readout first)
//!     = α·(P·W_V)   otherwise                       (project first)
//! out = A · (α·V)                        (l × d)
//! ```
//!
//! The scores side has no choice to make: `M` costs `k·p·d` once per
//! window and the scores `k·l·p` per batch, against `l·p·d + k·l·d` per
//! batch for the keys and the scores at width `d`, fewer whenever `p ≤ d`.
//! Eq. 18 takes whichever association counts
//! fewer multiply–accumulates at the branch's static dims, so one plan keeps
//! one form. Per branch of `B` batches of `l` segments the MACs are
//!
//! | product | MACs |
//! |---|---|
//! | `C·W_E`, then `·W_Kᵀ` | `2·k·p·d` |
//! | scores `M·Pᵀ` | `B·k·l·p` |
//! | readout first: `α·P`, then `·W_V` | `B·k·p·(l + d)` |
//! | project first: `P·W_V`, then `α·V` | `B·l·d·(p + k)` |
//!
//! where Eqs. 14–18 as written count `k·p·d + 2·B·l·d·(p + k)`. At
//! `k = p = 8`, `d = 32`, the temporal branch of a 32 × 96 window
//! (`B = 32`, `l = 12`) falls from 395 264 to 118 784 MACs and the entity
//! branch (`B = 12`, `l = 32`) from 395 264 to 77 824; both read out first.
//! The backward loses the same `d`-wide products: no `dK` or `dV`, and the
//! `W_K` and `W_V` gradients no longer sum over `B·l` rows.
//!
//! Segments sharing a prototype receive identical attention summaries
//! (Eq. 19); either way the cost is linear in `l`.

use focus_autograd::{Graph, ParamStore, ParamVars, Route, Var};
use focus_cluster::Prototypes;
use focus_nn::Linear;
use focus_tensor::Tensor;
use rand::Rng;

/// How input segments are mapped onto prototype buckets.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Assignment {
    /// One-hot nearest-prototype assignment (the paper's choice, Eq. 15).
    Hard,
    /// Softmax over negative composite distances with the given temperature —
    /// a design-ablation alternative benchmarked in `focus-bench`.
    Soft {
        /// Softmax temperature; smaller is closer to hard assignment.
        temperature: f32,
    },
}

/// A routing decision for one window, computed outside the graph.
///
/// Hard assignment is carried as a flat prototype-index vector: the forward
/// pass gathers each segment's prototype summary (`O(B·l·d)`) instead of
/// multiplying by a materialised `[B, l, k]` one-hot matrix
/// (`O(B·l·k·d)` plus a wasted `O(B·l·k·d)` backward for the constant
/// matrix's gradient). Soft assignment keeps the dense mixture matrix.
/// Forwards read it as a [`Routing`] recorded on the tape.
#[derive(Clone, Debug)]
pub enum RoutingPlan {
    /// One-hot routing as `indices[bi·l + i] = j` — the dense matrix is
    /// never built on this path.
    Hard {
        /// Assigned prototype per segment slot, `[B·l]`.
        indices: Vec<u32>,
        /// Batch size `B`.
        b: usize,
        /// Segments per batch element `l`.
        l: usize,
        /// Number of prototypes `k`.
        k: usize,
    },
    /// Dense soft-mixture routing.
    Soft {
        /// The mixture matrix `[B, l, k]`; rows are distributions.
        matrix: Tensor,
    },
}

/// A [`RoutingPlan`] as recorded on the tape, the form
/// [`ProtoAttn::forward`] reads.
#[derive(Clone, Copy, Debug)]
pub enum Routing {
    /// Hard assignment: the index vector, registered with `Graph::route`.
    Hard(Route),
    /// Soft assignment: the `[B, l, k]` mixture matrix, a tape input.
    Soft(Var),
}

impl RoutingPlan {
    /// The `(B, l, k)` routing dimensions.
    pub fn dims(&self) -> (usize, usize, usize) {
        match self {
            RoutingPlan::Hard { b, l, k, .. } => (*b, *l, *k),
            RoutingPlan::Soft { matrix } => {
                let d = matrix.dims();
                (d[0], d[1], d[2])
            }
        }
    }

    /// Materialises the dense `[B, l, k]` assignment matrix (diagnostics,
    /// the Fig. 13 dependency matrix, tests).
    pub fn to_matrix(&self) -> Tensor {
        match self {
            RoutingPlan::Hard { indices, b, l, k } => {
                focus_tensor::route::one_hot_matrix(indices, *b, *l, *k)
            }
            RoutingPlan::Soft { matrix } => matrix.clone(),
        }
    }

    /// The routing for the axes-swapped view `[l, B, ·]` used by the entity
    /// branch — a pure index permutation on the hard path.
    pub fn swap01(&self) -> RoutingPlan {
        match self {
            RoutingPlan::Hard { indices, b, l, k } => {
                let mut swapped = vec![0u32; indices.len()];
                for bi in 0..*b {
                    for i in 0..*l {
                        swapped[i * b + bi] = indices[bi * l + i];
                    }
                }
                RoutingPlan::Hard {
                    indices: swapped,
                    b: *l,
                    l: *b,
                    k: *k,
                }
            }
            RoutingPlan::Soft { matrix } => {
                let (b, l, k) = (matrix.dims()[0], matrix.dims()[1], matrix.dims()[2]);
                let mut out = Tensor::zeros(&[l, b, k]);
                for bi in 0..b {
                    for i in 0..l {
                        out.data_mut()[(i * b + bi) * k..(i * b + bi + 1) * k]
                            .copy_from_slice(&matrix.data()[(bi * l + i) * k..(bi * l + i + 1) * k]);
                    }
                }
                RoutingPlan::Soft { matrix: out }
            }
        }
    }
}

impl Assignment {
    /// Panics unless a soft assignment's temperature is positive; NaN, zero
    /// and negative temperatures are rejected with the value named.
    pub(crate) fn validate(&self) {
        if let Assignment::Soft { temperature } = *self {
            assert!(
                temperature > 0.0,
                "soft assignment temperature must be positive, got {temperature}"
            );
        }
    }

    /// Nearest-prototype index per segment slot of `segments: [B, l, p]`,
    /// flat `[B·l]` — the sparse form of the hard one-hot matrix, computed
    /// with the fused Eq. 6 sweep kernel.
    pub fn indices(segments: &Tensor, prototypes: &Prototypes) -> Vec<u32> {
        check_segments(segments, prototypes);
        hard_indices(segments.data(), prototypes)
    }

    /// Builds the routing plan for `segments: [B, l, p]` against the offline
    /// prototypes (Algorithm 2, lines 1–4).
    ///
    /// This runs outside the autograd graph: routing is data, not a
    /// trainable quantity. Both variants evaluate Eq. 6 through the batched
    /// GEMM distance kernel rather than a per-pair scalar loop.
    ///
    /// # Panics
    /// If a soft temperature is NaN or not positive.
    pub fn plan(&self, segments: &Tensor, prototypes: &Prototypes) -> RoutingPlan {
        let (b, l, _) = check_segments(segments, prototypes);
        self.plan_rows(segments.data(), b, l, prototypes)
    }

    /// [`Assignment::plan`] for `B·l` segments held row-major in `rows`, read
    /// in place: a window `[N, L]` is its `[N, L/p, p]` segment view.
    pub(crate) fn plan_rows(&self, rows: &[f32], b: usize, l: usize, prototypes: &Prototypes) -> RoutingPlan {
        focus_trace::span!("model/routing");
        let k = prototypes.k();
        assert_eq!(
            rows.len(),
            b * l * prototypes.segment_len(),
            "routing {} values as {b} × {l} segments of length {}",
            rows.len(),
            prototypes.segment_len()
        );
        match self {
            Assignment::Hard => {
                focus_trace::counter_add("route/hard_plans", 1);
                RoutingPlan::Hard {
                    indices: hard_indices(rows, prototypes),
                    b,
                    l,
                    k,
                }
            }
            Assignment::Soft { temperature } => {
                focus_trace::counter_add("route/soft_plans", 1);
                self.validate();
                let t = *temperature;
                let mut d = prototypes.distance_rows(rows);
                for slot in d.data_mut().iter_mut() {
                    *slot = -*slot / t;
                }
                // Shared max-subtract softmax kernel — one definition for
                // every softmax in the workspace.
                focus_tensor::fused::softmax_rows(d.data_mut(), k);
                d.reshape_in_place(&[b, l, k]);
                RoutingPlan::Soft { matrix: d }
            }
        }
    }

    /// The dense assignment matrix `A: [B, l, k]` — [`Assignment::plan`]
    /// materialised, kept for diagnostics and the dependency matrix.
    pub fn matrix(&self, segments: &Tensor, prototypes: &Prototypes) -> Tensor {
        self.plan(segments, prototypes).to_matrix()
    }
}

/// Nearest-prototype index per `p`-wide segment of `rows`.
fn hard_indices(rows: &[f32], prototypes: &Prototypes) -> Vec<u32> {
    prototypes.assign_rows(rows).into_iter().map(|j| j as u32).collect()
}

/// Validates `segments: [B, l, p]` against the prototype set, returning
/// `(B, l, p)`.
fn check_segments(segments: &Tensor, prototypes: &Prototypes) -> (usize, usize, usize) {
    assert_eq!(segments.rank(), 3, "segments must be [B, l, p]");
    let (b, l, p) = (segments.dims()[0], segments.dims()[1], segments.dims()[2]);
    assert_eq!(
        p,
        prototypes.segment_len(),
        "segment length {p} != prototype length {}",
        prototypes.segment_len()
    );
    (b, l, p)
}

/// The ProtoAttn block: learnable projections around a fixed prototype set.
pub struct ProtoAttn {
    w_e: Linear,
    w_k: Linear,
    w_v: Linear,
    prototypes: Tensor,
    d: usize,
}

impl ProtoAttn {
    /// Builds a block for prototypes of shape `[k, p]`, embedding into
    /// feature width `d`. `W_K` and `W_V` map the raw `p`-wide segments
    /// (Eq. 14), which is what lets the forward fold them (module docs).
    pub fn new<R: Rng + ?Sized>(
        ps: &mut ParamStore,
        name: &str,
        prototypes: &Prototypes,
        d: usize,
        rng: &mut R,
    ) -> Self {
        let p = prototypes.segment_len();
        ProtoAttn {
            w_e: Linear::new_no_bias(ps, &format!("{name}.w_e"), p, d, rng),
            w_k: Linear::new_no_bias(ps, &format!("{name}.w_k"), p, d, rng),
            w_v: Linear::new_no_bias(ps, &format!("{name}.w_v"), p, d, rng),
            prototypes: prototypes.centers().clone(),
            d,
        }
    }

    /// Feature width `d`.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// Number of prototypes `k`.
    pub fn k(&self) -> usize {
        self.prototypes.dims()[0]
    }

    /// Segment length `p`.
    pub fn segment_len(&self) -> usize {
        self.prototypes.dims()[1]
    }

    /// Applies ProtoAttn to `segments: [B, l, p]` under `routing`,
    /// returning `[B, l, d]` (Algorithm 2), computed in prototype space as
    /// the module docs set out.
    ///
    /// Hard routing gathers each segment's prototype summary through the
    /// sparse `RouteOneHot` op; soft routing multiplies by the dense mixture
    /// matrix. The hard path is bitwise-identical to the dense one-hot
    /// `bmm` at any thread count (see `focus_tensor::route`).
    ///
    /// # Panics
    /// If `segments` is not `[B, l, p]`, a hard route does not hold
    /// `B·l` indices below `k`, or a soft matrix is not `[B, l, k]`.
    pub fn forward(&self, g: &mut Graph, pv: &ParamVars, segments: Var, routing: Routing) -> Var {
        focus_trace::span!("model/protoattn");
        let dims = g.dims(segments).to_vec();
        assert_eq!(dims.len(), 3, "ProtoAttn expects [B, l, p] inputs");
        assert_eq!(dims[2], self.segment_len(), "ProtoAttn input width mismatch");

        let alpha = self.attention(g, pv, segments); // [B, k, l]
        let head = if reads_out_first(self.k(), dims[2], dims[1], self.d) {
            let summary = g.bmm(alpha, segments); // [B, k, p]
            self.w_v.forward(g, pv, summary)
        } else {
            let values = self.w_v.forward(g, pv, segments); // [B, l, d]
            g.bmm(alpha, values)
        }; // [B, k, d]
        match routing {
            Routing::Hard(route) => g.route_one_hot(head, route, dims[1]),
            Routing::Soft(a) => {
                assert_eq!(
                    g.dims(a),
                    &[dims[0], dims[1], self.k()],
                    "soft routing must cover [B, l, k]"
                );
                g.bmm(a, head) // [B, l, d]
            }
        }
    }

    /// The attention weights `α = softmax(M·Pᵀ)` over `segments: [B, l, p]`,
    /// `[B, k, l]`, with `M = C·W_E·W_Kᵀ/√d` (Eqs. 14–16 in prototype
    /// space): `W_K` is read as `[1, p, d]`, so `C_Q·W_Kᵀ` is one broadcast
    /// product and no transposed copy is made.
    fn attention(&self, g: &mut Graph, pv: &ParamVars, segments: Var) -> Var {
        let (k, p) = (self.k(), self.segment_len());
        let c = g.constant(self.prototypes.clone());
        let c_q = self.w_e.forward(g, pv, c); // [k, d]
        let w_k = g.reshape(pv.var(self.w_k.weight()), &[1, p, self.d]);
        let m = g.matmul_broadcast_nt(c_q, w_k); // [1, k, p]
        let m = g.reshape(m, &[k, p]);
        let m = g.scale(m, 1.0 / (self.d as f32).sqrt());
        let scores = g.matmul_broadcast_nt(m, segments); // [B, k, l]
        g.softmax_last(scores)
    }

    /// The learned long-range dependency matrix `A · α ∈ [B, l, l]` of
    /// Fig. 13: row `i` shows how much segment `i`'s summary attends to each
    /// other segment. `α` comes from the helper the forward runs, so it is
    /// the forward's bit for bit.
    pub fn dependency_matrix(
        &self,
        ps: &ParamStore,
        segments: &Tensor,
        assign: &Tensor,
    ) -> Tensor {
        let mut g = Graph::new();
        let pv = ps.register(&mut g);
        let seg_v = g.constant(segments.clone());
        let alpha = self.attention(&mut g, &pv, seg_v); // [B, k, l]
        let a_v = g.constant(assign.clone());
        let dep = g.bmm(a_v, alpha); // [B, l, l]
        g.value(dep)
    }
}

/// Whether Eq. 18 reads out before projecting, `(α·P)·W_V`, rather than
/// projecting every segment first, `α·(P·W_V)`: the association with fewer
/// multiply–accumulates per batch of `l` segments of width `p`, for `k`
/// prototypes and feature width `d` (ties project first).
fn reads_out_first(k: usize, p: usize, l: usize, d: usize) -> bool {
    k * p * (l + d) < l * d * (p + k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_cluster::Objective;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Records a routing plan on `g` the way a window's operands are.
    fn record(g: &mut Graph, plan: &RoutingPlan) -> Routing {
        match plan {
            RoutingPlan::Hard { indices, .. } => Routing::Hard(g.route(indices.clone())),
            RoutingPlan::Soft { matrix } => Routing::Soft(g.input(matrix.clone())),
        }
    }

    fn proto_fixture() -> Prototypes {
        // Two orthogonal "shapes": rising ramp and falling ramp.
        Prototypes::from_centers(
            Tensor::from_vec(vec![-1.0, -0.33, 0.33, 1.0, 1.0, 0.33, -0.33, -1.0], &[2, 4]),
            Objective::rec_corr(0.2),
        )
    }

    #[test]
    fn hard_assignment_is_one_hot_and_correct() {
        let protos = proto_fixture();
        // Segment 0 rises, segment 1 falls.
        let segs = Tensor::from_vec(
            vec![-2.0, -0.7, 0.7, 2.0, 0.5, 0.2, -0.2, -0.5],
            &[1, 2, 4],
        );
        let a = Assignment::Hard.matrix(&segs, &protos);
        assert_eq!(a.dims(), &[1, 2, 2]);
        assert_eq!(a.at3(0, 0, 0), 1.0);
        assert_eq!(a.at3(0, 0, 1), 0.0);
        assert_eq!(a.at3(0, 1, 1), 1.0);
    }

    #[test]
    fn soft_assignment_rows_are_distributions() {
        let protos = proto_fixture();
        let segs = Tensor::from_vec(
            vec![-2.0, -0.7, 0.7, 2.0, 0.5, 0.2, -0.2, -0.5],
            &[1, 2, 4],
        );
        let a = Assignment::Soft { temperature: 1.0 }.matrix(&segs, &protos);
        for i in 0..2 {
            let sum: f32 = (0..2).map(|j| a.at3(0, i, j)).sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // The rising segment must still prefer the rising prototype.
        assert!(a.at3(0, 0, 0) > a.at3(0, 0, 1));
    }

    #[test]
    fn forward_shape_and_eq19_property() {
        // Segments assigned to the same prototype get identical outputs
        // (Eq. 19).
        let mut rng = StdRng::seed_from_u64(5);
        let protos = proto_fixture();
        let mut ps = ParamStore::new();
        let pa = ProtoAttn::new(&mut ps, "pa", &protos, 8, &mut rng);
        // Three segments; 0 and 2 are both rising → same bucket.
        let segs = Tensor::from_vec(
            vec![
                -2.0, -0.7, 0.7, 2.0, // rising
                0.5, 0.2, -0.2, -0.5, // falling
                -1.0, -0.3, 0.3, 1.0, // rising
            ],
            &[1, 3, 4],
        );
        let plan = Assignment::Hard.plan(&segs, &protos);
        let mut g = Graph::new();
        let pv = ps.register(&mut g);
        let seg_v = g.input(segs);
        let routing = record(&mut g, &plan);
        let out = pa.forward(&mut g, &pv, seg_v, routing);
        assert_eq!(g.dims(out), &[1, 3, 8]);
        let out = g.value(out);
        let row0: Vec<f32> = (0..8).map(|j| out.at3(0, 0, j)).collect();
        let row2: Vec<f32> = (0..8).map(|j| out.at3(0, 2, j)).collect();
        assert_eq!(row0, row2, "same-bucket segments must share outputs");
    }

    #[test]
    fn gradients_flow_to_all_projections() {
        let mut rng = StdRng::seed_from_u64(6);
        let protos = proto_fixture();
        let mut ps = ParamStore::new();
        let pa = ProtoAttn::new(&mut ps, "pa", &protos, 4, &mut rng);
        let segs = Tensor::randn(&[2, 3, 4], 1.0, &mut rng);
        let plan = Assignment::Hard.plan(&segs, &protos);
        let mut g = Graph::new();
        let pv = ps.register(&mut g);
        let seg_v = g.input(segs);
        let routing = record(&mut g, &plan);
        let out = pa.forward(&mut g, &pv, seg_v, routing);
        let sq = g.mul(out, out);
        let loss = g.mean_all(sq);
        g.backward(loss);
        // All three projection weights must receive gradients.
        let mut sum_sq = 0.0f64;
        for (id, name, _) in ps.iter() {
            let grad = g.grad(pv.var(id));
            assert!(grad.is_some(), "{name} has no gradient");
            sum_sq += grad.map_or(0.0, |t| t.data().iter().map(|&v| f64::from(v) * f64::from(v)).sum());
        }
        let norm = sum_sq.sqrt() as f32;
        assert!(norm > 0.0);
    }

    #[test]
    fn hard_plan_indices_agree_with_dense_matrix() {
        let protos = proto_fixture();
        let mut rng = StdRng::seed_from_u64(11);
        let segs = Tensor::randn(&[3, 5, 4], 1.0, &mut rng);
        let plan = Assignment::Hard.plan(&segs, &protos);
        let dense = plan.to_matrix();
        let RoutingPlan::Hard { ref indices, b, l, k } = plan else {
            panic!("hard assignment must produce a Hard plan");
        };
        assert_eq!((b, l, k), (3, 5, 2));
        assert_eq!(indices.len(), 15);
        for bi in 0..3 {
            for i in 0..5 {
                for j in 0..2 {
                    let expect = if indices[bi * 5 + i] as usize == j { 1.0 } else { 0.0 };
                    assert_eq!(dense.at3(bi, i, j), expect);
                }
            }
        }
        // swap01 permutes indices exactly like a dense axis swap.
        let swapped = plan.swap01();
        let RoutingPlan::Hard { indices: ref si, b: sb, l: sl, .. } = swapped else {
            panic!("swap01 must stay hard");
        };
        assert_eq!((sb, sl), (5, 3));
        for bi in 0..3 {
            for i in 0..5 {
                assert_eq!(si[i * 3 + bi], indices[bi * 5 + i]);
            }
        }
    }

    #[test]
    fn sparse_routing_matches_dense_bmm_forward_and_backward() {
        // The hard path (RouteOneHot gather) must be bitwise-identical to
        // routing through the materialised one-hot matrix — outputs and
        // parameter gradients alike.
        let mut rng = StdRng::seed_from_u64(12);
        let protos = proto_fixture();
        let mut ps = ParamStore::new();
        let pa = ProtoAttn::new(&mut ps, "pa", &protos, 8, &mut rng);
        let segs = Tensor::randn(&[2, 6, 4], 1.0, &mut rng);
        let hard = Assignment::Hard.plan(&segs, &protos);
        let dense = RoutingPlan::Soft { matrix: hard.to_matrix() };

        let run = |routing: &RoutingPlan| {
            let mut g = Graph::new();
            let pv = ps.register(&mut g);
            let seg_v = g.input(segs.clone());
            let routing = record(&mut g, routing);
            let out = pa.forward(&mut g, &pv, seg_v, routing);
            let sq = g.mul(out, out);
            let loss = g.mean_all(sq);
            g.backward(loss);
            let grads: Vec<Vec<f32>> = ps
                .iter()
                .map(|(id, name, _)| {
                    g.grad(pv.var(id))
                        .unwrap_or_else(|| panic!("{name} has no gradient"))
                        .data()
                        .to_vec()
                })
                .collect();
            (g.value(out).data().to_vec(), grads)
        };
        let (out_sparse, grads_sparse) = run(&hard);
        let (out_dense, grads_dense) = run(&dense);
        assert_eq!(out_sparse, out_dense, "forward diverged");
        assert_eq!(grads_sparse, grads_dense, "parameter gradients diverged");
    }

    #[test]
    fn dependency_matrix_rows_are_distributions() {
        let mut rng = StdRng::seed_from_u64(7);
        let protos = proto_fixture();
        let mut ps = ParamStore::new();
        let pa = ProtoAttn::new(&mut ps, "pa", &protos, 4, &mut rng);
        let segs = Tensor::randn(&[1, 5, 4], 1.0, &mut rng);
        let a = Assignment::Hard.matrix(&segs, &protos);
        let dep = pa.dependency_matrix(&ps, &segs, &a);
        assert_eq!(dep.dims(), &[1, 5, 5]);
        for i in 0..5 {
            let sum: f32 = (0..5).map(|j| dep.at3(0, i, j)).sum();
            assert!((sum - 1.0).abs() < 1e-4, "row {i} sums to {sum}");
        }
    }

    /// Eqs. 14–18 as the paper writes them, with the keys `K = P·W_K` and
    /// values `V = P·W_V` materialised: the reference the prototype-space
    /// forward reassociates.
    fn literal_forward(pa: &ProtoAttn, g: &mut Graph, pv: &ParamVars, segments: Var, routing: Routing) -> Var {
        let l = g.dims(segments)[1];
        let c = g.constant(pa.prototypes.clone());
        let c_q = pa.w_e.forward(g, pv, c); // [k, d]
        let keys = pa.w_k.forward(g, pv, segments); // [B, l, d]
        let values = pa.w_v.forward(g, pv, segments); // [B, l, d]
        let scores = g.matmul_broadcast_nt(c_q, keys); // [B, k, l]
        let scaled = g.scale(scores, 1.0 / (pa.d as f32).sqrt());
        let alpha = g.softmax_last(scaled);
        let head = g.bmm(alpha, values); // [B, k, d]
        match routing {
            Routing::Hard(route) => g.route_one_hot(head, route, l),
            Routing::Soft(a) => g.bmm(a, head),
        }
    }

    /// A block with `k` random prototypes of length 4 and width `d`, and
    /// random segments `[b, l, 4]`.
    fn shape_fixture(k: usize, (b, l): (usize, usize), d: usize, seed: u64) -> (ParamStore, ProtoAttn, Prototypes, Tensor) {
        let mut rng = StdRng::seed_from_u64(seed);
        let protos = Prototypes::from_centers(Tensor::randn(&[k, 4], 1.0, &mut rng), Objective::rec_corr(0.2));
        let mut ps = ParamStore::new();
        let pa = ProtoAttn::new(&mut ps, "pa", &protos, d, &mut rng);
        (ps, pa, protos, Tensor::randn(&[b, l, 4], 1.0, &mut rng))
    }

    /// One shape per side of the Eq. 18 rule: `k < l` reads out first,
    /// `k ≥ l` projects first (`(k, (B, l), d)`, `p = 4`).
    const RULE_SIDES: [(usize, (usize, usize), usize); 2] = [(2, (3, 6), 8), (6, (2, 3), 8)];

    #[test]
    fn prototype_space_matches_literal_eqs_14_to_18() {
        // The reassociated products round differently, so outputs and the
        // W_E, W_K, W_V gradients agree to f32 roundoff, not bit for bit:
        // max |Δ| within REL_TOL of the reference's largest magnitude.
        const REL_TOL: f32 = 1e-5;
        for (si, &(k, bl, d)) in RULE_SIDES.iter().enumerate() {
            let (ps, pa, protos, segs) = shape_fixture(k, bl, d, 40 + si as u64);
            for assignment in [Assignment::Hard, Assignment::Soft { temperature: 0.5 }] {
                let plan = assignment.plan(&segs, &protos);
                let run = |literal: bool| {
                    let mut g = Graph::new();
                    let pv = ps.register(&mut g);
                    let seg_v = g.input(segs.clone());
                    let routing = record(&mut g, &plan);
                    let out = if literal {
                        literal_forward(&pa, &mut g, &pv, seg_v, routing)
                    } else {
                        pa.forward(&mut g, &pv, seg_v, routing)
                    };
                    let sq = g.mul(out, out);
                    let loss = g.mean_all(sq);
                    g.backward(loss);
                    let grads: Vec<Tensor> =
                        [&pa.w_e, &pa.w_k, &pa.w_v].iter().map(|w| g.grad(pv.var(w.weight())).unwrap().clone()).collect();
                    (g.value(out), grads)
                };
                let ((out, grads), (want, want_grads)) = (run(false), run(true));
                let close = |what: &str, got: &Tensor, want: &Tensor| {
                    let scale = want.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
                    let diff = got.max_abs_diff(want);
                    assert!(
                        diff <= REL_TOL * scale,
                        "{what} at k = {k}, (B, l) = {bl:?}, {assignment:?}: max |Δ| {diff} vs scale {scale}"
                    );
                };
                close("output", &out, &want);
                for (name, (got, want)) in ["W_E", "W_K", "W_V"].iter().zip(grads.iter().zip(&want_grads)) {
                    close(&format!("{name} gradient"), got, want);
                }
            }
        }
    }

    #[test]
    fn counted_forward_flops_follow_the_closed_form() {
        for (si, &(k, (b, l), d)) in RULE_SIDES.iter().enumerate() {
            let (ps, pa, protos, segs) = shape_fixture(k, (b, l), d, 50 + si as u64);
            let plan = Assignment::Hard.plan(&segs, &protos);
            let mut g = Graph::new();
            let pv = ps.register(&mut g);
            let seg_v = g.input(segs.clone());
            let routing = record(&mut g, &plan);
            let out = pa.forward(&mut g, &pv, seg_v, routing);
            let (_, counted) = focus_tensor::work::measure(|| g.value(out));
            let p = 4;
            // 2 FLOPs per MAC: C·W_E and ·W_Kᵀ, the scores, then Eq. 18 read
            // out first at k < l and projected first at k ≥ l; k·p for the
            // 1/√d scale of M and 5 per softmax element. The one-hot gather
            // counts none.
            let eq18 = if si == 0 { b * k * p * (l + d) } else { b * l * d * (p + k) };
            let closed = 2 * (2 * k * p * d + b * k * l * p + eq18) + k * p + 5 * b * k * l;
            assert_eq!(counted.flops, closed as u64, "k = {k}, (B, l) = {:?}", (b, l));
        }
    }

    #[test]
    fn dependency_matrix_reads_the_forward_alpha() {
        // A one-hot A copies α's rows: each product is `1·α` plus exact
        // zeros, so the dependency matrix holds the forward's α bit for bit.
        let (ps, pa, protos, segs) = shape_fixture(3, (2, 7), 8, 60);
        let plan = Assignment::Hard.plan(&segs, &protos);
        let mut g = Graph::new();
        let pv = ps.register(&mut g);
        let seg_v = g.input(segs.clone());
        let alpha = pa.attention(&mut g, &pv, seg_v);
        let alpha = g.value(alpha); // [B, k, l]
        let dep = pa.dependency_matrix(&ps, &segs, &plan.to_matrix()); // [B, l, l]
        let RoutingPlan::Hard { indices, .. } = plan else { panic!("hard plan") };
        for bi in 0..2 {
            for i in 0..7 {
                let j = indices[bi * 7 + i] as usize;
                for t in 0..7 {
                    assert_eq!(dep.at3(bi, i, t).to_bits(), alpha.at3(bi, j, t).to_bits(), "b {bi}, segment {i}, column {t}");
                }
            }
        }
    }

    #[test]
    fn cost_is_linear_in_sequence_length() {
        let mut rng = StdRng::seed_from_u64(8);
        let protos = proto_fixture();
        let mut ps = ParamStore::new();
        let pa = ProtoAttn::new(&mut ps, "pa", &protos, 16, &mut rng);
        // Routing and attention together, as a forward pass runs them.
        let mut count = |l: usize| {
            let segs = Tensor::randn(&[1, l, 4], 1.0, &mut rng);
            let ((), counted) = focus_tensor::work::measure(|| {
                let plan = Assignment::Hard.plan(&segs, &protos);
                let mut g = Graph::new();
                let pv = ps.register(&mut g);
                let seg_v = g.input(segs.clone());
                let routing = record(&mut g, &plan);
                let out = pa.forward(&mut g, &pv, seg_v, routing);
                g.value(out);
            });
            counted
        };
        let (c1, c2) = (count(64), count(128));
        let ratio = c2.flops as f64 / c1.flops as f64;
        assert!(
            (ratio - 2.0).abs() < 0.2,
            "doubling l should ~double FLOPs, ratio {ratio}"
        );
    }
}
