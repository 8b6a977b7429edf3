//! The tape: a record-only node arena. Each op checks its operands' dims and
//! records a node carrying its own dims; only leaves and inputs hold a
//! tensor. Every value comes from the plan VM (`crate::vm`).

use focus_tensor::{Shape, Tensor};

/// Index of a node in a [`Graph`]. Cheap to copy; only valid for the graph
/// that created it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// Handle of a route index vector registered with [`Graph::route`]: its
/// position in the graph's route table, which is also the route a compiled
/// plan binds. Only valid for the graph that created it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Route(pub(crate) usize);

/// Operation record: which rule produced a node and from which inputs.
#[derive(Clone, Debug)]
pub(crate) enum Op {
    /// Parameter or constant tensor (`requires_grad` on the node
    /// distinguishes them). A constant compiles into the plan as a static.
    Leaf,
    /// The `k`-th per-step input, numbered in record order. A plan binds it
    /// to the caller's `k`-th input on every run instead of baking it in.
    Input(usize),
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Neg(Var),
    Scale(Var, f32),
    AddScalar(Var, f32),
    /// 2-D `a · b`.
    Matmul(Var, Var),
    /// Batched 3-D `a · b`.
    Bmm(Var, Var),
    /// Batched 3-D `a · bᵀ` without materialising the transpose:
    /// `[B, m, k] · [B, n, k]ᵀ → [B, m, n]`.
    BmmNt(Var, Var),
    /// Sparse one-hot routing `A · head` carried as a `[B·l]` index vector
    /// instead of the dense `[B, l, k]` one-hot matrix: forward is a row
    /// gather, backward a deterministic scatter-add (ProtoAttn Eq. 18 on the
    /// hard-assignment path).
    RouteOneHot {
        /// The `[B, k, d]` attention summaries being routed.
        head: Var,
        /// The registered row-major `[B, l]` prototype index per segment
        /// slot.
        route: Route,
    },
    /// `out[b] = a · x[b]ᵀ` with a shared 2-D LHS `a: [k, d]` and a batched
    /// RHS `x: [B, l, d]`, producing `[B, k, l]`. This is the prototype-query
    /// score computation of ProtoAttn (Eq. 16) batched over entities.
    MatmulBroadcastNt(Var, Var),
    Transpose2(Var),
    TransposeLast2(Var),
    /// Swap the first two axes of a rank-3 tensor: `[a, b, c] → [b, a, c]`.
    SwapAxes01(Var),
    /// Shape change, data untouched.
    Reshape(Var),
    /// `x + bias` where `bias` has the length of `x`'s trailing axis.
    AddRowBroadcast(Var, Var),
    SoftmaxLast(Var),
    /// LayerNorm over the trailing axis with affine `gamma`/`beta`.
    LayerNormLast {
        x: Var,
        gamma: Var,
        beta: Var,
        eps: f32,
    },
    Relu(Var),
    Gelu(Var),
    Sigmoid(Var),
    Tanh(Var),
    Abs(Var),
    /// Concatenation along the trailing axis; `split` is the LHS width.
    ConcatLast(Var, Var, usize),
    /// Columns `[start, end)` of the trailing axis.
    SliceLast(Var, usize, usize),
    MeanAll(Var),
    SumAll(Var),
}

pub(crate) struct Node {
    pub op: Op,
    pub shape: Shape,
    /// The tensor of a leaf or an input; a computed node holds none.
    pub value: Option<Tensor>,
    pub requires_grad: bool,
}

/// An append-only recording tape.
///
/// Build the forward pass with the op methods: each checks its operands'
/// dims and records a node that carries only its own dims, so recording
/// runs no kernel and takes no pool buffer. Values come from the plan VM:
/// [`Graph::value`] runs a forward plan up to a node, and
/// [`Graph::backward`] runs the lowered forward + backward on a scalar node,
/// after which [`Graph::grad`] reads the trainable leaves' gradients.
#[derive(Default)]
pub struct Graph {
    pub(crate) nodes: Vec<Node>,
    pub(crate) grads: Vec<Option<Tensor>>,
    /// The `Op::Input` nodes in record order.
    pub(crate) inputs: Vec<Var>,
    /// Route index vectors in registration order.
    pub(crate) routes: Vec<Vec<u32>>,
}

impl Graph {
    /// An empty tape.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Clears the tape for reuse, keeping the node and gradient arena
    /// allocations.
    ///
    /// Per-step training loops build a fresh graph every window; resetting
    /// instead of re-allocating lets the arenas reach steady-state capacity
    /// once and stay there. All `Var` handles from before the reset are
    /// invalidated.
    pub fn reset(&mut self) {
        // Dropping the leaf, input and gradient tensors hands their buffers
        // back to the pool, so this span is where per-step reclamation cost
        // shows up.
        focus_trace::span!("pool/reclaim");
        self.nodes.clear();
        self.grads.clear();
        self.inputs.clear();
        self.routes.clear();
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the tape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, op: Op, shape: Shape, value: Option<Tensor>, requires_grad: bool) -> Var {
        self.nodes.push(Node {
            op,
            shape,
            value,
            requires_grad,
        });
        Var(self.nodes.len() - 1)
    }

    /// Records a computed node of `dims` that needs a gradient if any of
    /// `operands` does.
    fn record(&mut self, op: Op, dims: &[usize], operands: &[Var]) -> Var {
        let rg = operands.iter().any(|&v| self.rg(v));
        self.push(op, Shape::new(dims), None, rg)
    }

    /// Records a computed node with the dims of `a` that needs a gradient
    /// if any of `operands` does.
    fn like(&mut self, op: Op, a: Var, operands: &[Var]) -> Var {
        let rg = operands.iter().any(|&v| self.rg(v));
        let shape = self.nodes[a.0].shape.clone();
        self.push(op, shape, None, rg)
    }

    /// Records an elementwise op over the same-dims operands `a` and `b`.
    fn zip(&mut self, op: Op, a: Var, b: Var) -> Var {
        let (sa, sb) = (&self.nodes[a.0].shape, &self.nodes[b.0].shape);
        assert!(sa.same_as(sb), "elementwise op shape mismatch: {sa} vs {sb}");
        self.like(op, a, &[a, b])
    }

    #[inline]
    pub(crate) fn rg(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    /// The tensor a leaf or an input node holds.
    pub(crate) fn held(&self, v: Var) -> &Tensor {
        self.nodes[v.0].value.as_ref().expect("leaves and inputs hold their tensor")
    }

    /// Registers a trainable leaf (a parameter). Its gradient is available
    /// after [`Graph::backward`].
    pub fn leaf(&mut self, t: Tensor) -> Var {
        self.push(Op::Leaf, t.shape().clone(), Some(t), true)
    }

    /// Registers a constant leaf: data that is the same for every step, such
    /// as prototypes. No gradient is computed for it, and a compiled plan
    /// bakes it in; record per-step data with [`Graph::input`] instead.
    pub fn constant(&mut self, t: Tensor) -> Var {
        self.push(Op::Leaf, t.shape().clone(), Some(t), false)
    }

    /// Records the next per-step input (a window, a target, a per-window
    /// operand). Inputs are numbered in record order, and a plan compiled
    /// from this tape binds its `k`-th input to the `k`-th recorded one, so a
    /// replay reads each step's own data. No gradient is computed for it.
    pub fn input(&mut self, t: Tensor) -> Var {
        let v = self.push(Op::Input(self.inputs.len()), t.shape().clone(), Some(t), false);
        self.inputs.push(v);
        v
    }

    /// Registers a per-step route index vector for [`Graph::route_one_hot`].
    /// Routes are numbered in registration order, and a plan compiled from
    /// this tape binds route `k` to the `k`-th registered one.
    pub fn route(&mut self, indices: Vec<u32>) -> Route {
        self.routes.push(indices);
        Route(self.routes.len() - 1)
    }

    /// The data a plan compiled from this tape binds: the recorded inputs
    /// and the registered routes, in order.
    pub(crate) fn bindings(&self) -> (Vec<&[f32]>, Vec<&[u32]>) {
        let inputs = self.inputs.iter().map(|&v| self.held(v).data()).collect();
        (inputs, self.routes.iter().map(Vec::as_slice).collect())
    }

    /// The dims of a node's value.
    pub fn dims(&self, v: Var) -> &[usize] {
        self.nodes[v.0].shape.dims()
    }

    /// The forward value of a node. A leaf or an input returns a copy of its
    /// own data; any other node's value comes from a forward plan compiled
    /// up to it and run once on the plan VM.
    ///
    /// # Panics
    /// If the lowered plan fails verification (a compiler bug; the message
    /// names the instruction).
    pub fn value(&self, v: Var) -> Tensor {
        if let Some(t) = &self.nodes[v.0].value {
            return t.clone();
        }
        crate::plan::node_value(self, v).unwrap_or_else(|e| {
            // focus-lint: allow(panic-hygiene) -- documented panic: there is no other executor, and the message names the verifier's position
            panic!("value: the tape did not lower: {e}")
        })
    }

    /// The gradient of the loss w.r.t. the trainable leaf `v`, if the last
    /// [`Graph::backward`] computed one (`None` for constants, intermediate
    /// nodes and leaves the loss does not depend on).
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.grads.get(v.0).and_then(|g| g.as_ref())
    }

    /// Differentiates the scalar node `loss` with respect to every trainable
    /// leaf; read the results with [`Graph::grad`]. Calling `backward` again
    /// replaces the previous call's gradients.
    ///
    /// The tape is lowered by the plan compiler — the one definition of how
    /// each op differentiates — verified, and run once on the plan VM.
    /// Trainable leaves bind as the plan's parameters, and the tape's own
    /// inputs and routes as the plan's inputs and routes.
    ///
    /// # Panics
    /// If `loss` is not a single-element tensor, or if the lowered plan fails
    /// verification (a compiler bug; the message names the instruction).
    pub fn backward(&mut self, loss: Var) {
        focus_trace::span!("autograd/backward");
        let shape = &self.nodes[loss.0].shape;
        assert_eq!(shape.numel(), 1, "backward requires a scalar loss, got shape {shape}");
        let grads = crate::plan::leaf_gradients(self, loss).unwrap_or_else(|e| {
            // focus-lint: allow(panic-hygiene) -- documented panic: there is no other executor, and the message names the verifier's position
            panic!("backward: the tape did not lower: {e}")
        });
        // Reuse the gradient arena across calls (and across `Graph::reset`):
        // clear + resize keeps the Vec's capacity.
        self.grads.clear();
        self.grads.resize(self.nodes.len(), None);
        for (v, grad) in grads {
            self.grads[v.0] = Some(grad);
        }
    }

    // ---- arithmetic ----

    /// Elementwise `a + b` (same shape).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.zip(Op::Add(a, b), a, b)
    }

    /// Elementwise `a - b` (same shape).
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.zip(Op::Sub(a, b), a, b)
    }

    /// Elementwise `a ⊙ b` (same shape).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.zip(Op::Mul(a, b), a, b)
    }

    /// Elementwise negation.
    pub fn neg(&mut self, a: Var) -> Var {
        self.like(Op::Neg(a), a, &[a])
    }

    /// Multiplies every element by the constant `c`.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        self.like(Op::Scale(a, c), a, &[a])
    }

    /// Adds the constant `c` to every element.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        self.like(Op::AddScalar(a, c), a, &[a])
    }

    // ---- linear algebra ----

    /// 2-D matrix product `[m, k] · [k, n] → [m, n]`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (ad, bd) = (self.dims(a), self.dims(b));
        assert_eq!(ad.len(), 2, "matmul lhs must be rank 2, got {ad:?}");
        assert_eq!(bd.len(), 2, "matmul rhs must be rank 2, got {bd:?}");
        assert_eq!(ad[1], bd[0], "matmul inner dims: {ad:?} vs {bd:?}");
        let dims = [ad[0], bd[1]];
        self.record(Op::Matmul(a, b), &dims, &[a, b])
    }

    /// Batched 3-D matrix product `[B, m, k] · [B, k, n] → [B, m, n]`.
    pub fn bmm(&mut self, a: Var, b: Var) -> Var {
        let (ad, bd) = (self.dims(a), self.dims(b));
        assert_eq!(ad.len(), 3, "bmm lhs must be rank 3, got {ad:?}");
        assert_eq!(bd.len(), 3, "bmm rhs must be rank 3, got {bd:?}");
        assert_eq!(ad[0], bd[0], "bmm batch dims: {ad:?} vs {bd:?}");
        assert_eq!(ad[2], bd[1], "bmm inner dims: {ad:?} vs {bd:?}");
        let dims = [ad[0], ad[1], bd[2]];
        self.record(Op::Bmm(a, b), &dims, &[a, b])
    }

    /// Batched product against a transposed RHS, `[B, m, k] · [B, n, k]ᵀ →
    /// [B, m, n]`, reading `b` in its stored layout — use instead of
    /// `transpose_last2` + [`Graph::bmm`] (same result, no transposed copy
    /// on the tape and no `TransposeLast2` backward step).
    pub fn bmm_nt(&mut self, a: Var, b: Var) -> Var {
        let (ad, bd) = (self.dims(a), self.dims(b));
        assert_eq!(ad.len(), 3, "bmm_nt lhs must be rank 3, got {ad:?}");
        assert_eq!(bd.len(), 3, "bmm_nt rhs must be rank 3, got {bd:?}");
        assert_eq!(ad[0], bd[0], "bmm_nt batch dims: {ad:?} vs {bd:?}");
        assert_eq!(ad[2], bd[2], "bmm_nt inner dims: {ad:?} vs {bd:?}");
        let dims = [ad[0], ad[1], bd[1]];
        self.record(Op::BmmNt(a, b), &dims, &[a, b])
    }

    /// Sparse one-hot routing: `out[b, i, :] = head[b, indices[b·l + i], :]`
    /// for `head: [B, k, d]` and the registered `route`, producing
    /// `[B, l, d]`.
    ///
    /// Bitwise-equivalent to `bmm(A, head)` with the one-hot `A` the indices
    /// stand for — forward and backward both (see `focus_tensor::route`) —
    /// at `O(B·l·d)` instead of `O(B·l·k·d)`. The indices are data, not a
    /// differentiable input; only `head` receives a gradient.
    ///
    /// # Panics
    /// If `head` is not rank 3, or the route does not hold `B·l` indices
    /// below `k` (the message names the first bad index's position and
    /// value): the kernels index unchecked, so this is the check every
    /// never-cached run relies on.
    pub fn route_one_hot(&mut self, head: Var, route: Route, l: usize) -> Var {
        let hd = self.dims(head);
        assert_eq!(hd.len(), 3, "route_one_hot head must be [B, k, d], got {hd:?}");
        let (b, k, d) = (hd[0], hd[1], hd[2]);
        focus_tensor::route::check_route(&self.routes[route.0], b, l, k);
        self.record(Op::RouteOneHot { head, route }, &[b, l, d], &[head])
    }

    /// Broadcast score kernel: `out[b] = a · x[b]ᵀ` for 2-D `a: [k, d]` and
    /// 3-D `x: [B, l, d]`, producing `[B, k, l]`.
    pub fn matmul_broadcast_nt(&mut self, a: Var, x: Var) -> Var {
        let (ad, xd) = (self.dims(a), self.dims(x));
        assert_eq!(ad.len(), 2, "matmul_broadcast_nt lhs must be rank 2");
        assert_eq!(xd.len(), 3, "matmul_broadcast_nt rhs must be rank 3");
        let (k, d) = (ad[0], ad[1]);
        let (bsz, l, d2) = (xd[0], xd[1], xd[2]);
        assert_eq!(d, d2, "matmul_broadcast_nt inner dims: {d} vs {d2}");
        self.record(Op::MatmulBroadcastNt(a, x), &[bsz, k, l], &[a, x])
    }

    /// Transpose of a rank-2 node.
    pub fn transpose(&mut self, a: Var) -> Var {
        let ad = self.dims(a);
        assert_eq!(ad.len(), 2, "transpose requires rank 2, got {ad:?}");
        let dims = [ad[1], ad[0]];
        self.record(Op::Transpose2(a), &dims, &[a])
    }

    /// Swap the last two axes of a rank-3 node.
    pub fn transpose_last2(&mut self, a: Var) -> Var {
        let ad = self.dims(a);
        assert_eq!(ad.len(), 3, "transpose_last2 requires rank 3, got {ad:?}");
        let dims = [ad[0], ad[2], ad[1]];
        self.record(Op::TransposeLast2(a), &dims, &[a])
    }

    /// Swaps the first two axes of a rank-3 node: `[a, b, c] → [b, a, c]`.
    pub fn swap_axes01(&mut self, a: Var) -> Var {
        let ad = self.dims(a);
        assert_eq!(ad.len(), 3, "swap_axes01 requires rank 3, got {ad:?}");
        let dims = [ad[1], ad[0], ad[2]];
        self.record(Op::SwapAxes01(a), &dims, &[a])
    }

    /// Shape change without data movement.
    pub fn reshape(&mut self, a: Var, dims: &[usize]) -> Var {
        let (from, to) = (self.nodes[a.0].shape.numel(), dims.iter().product::<usize>());
        assert_eq!(
            from,
            to,
            "cannot reshape {:?} ({from} elements) to {dims:?} ({to} elements)",
            self.dims(a)
        );
        self.record(Op::Reshape(a), dims, &[a])
    }

    /// Adds a trailing-axis-length `bias` vector to every row of `x`.
    pub fn add_row_broadcast(&mut self, x: Var, bias: Var) -> Var {
        let (n, len) = (self.nodes[x.0].shape.last_dim(), self.nodes[bias.0].shape.numel());
        assert_eq!(len, n, "broadcast row has {len} elements, last dim is {n}");
        self.like(Op::AddRowBroadcast(x, bias), x, &[x, bias])
    }

    // ---- normalisation / attention ----

    /// Numerically stable softmax over the trailing axis.
    pub fn softmax_last(&mut self, a: Var) -> Var {
        assert!(self.nodes[a.0].shape.last_dim() > 0, "softmax over an empty trailing axis");
        self.like(Op::SoftmaxLast(a), a, &[a])
    }

    /// LayerNorm over the trailing axis with affine parameters.
    ///
    /// `gamma`/`beta` must have the length of `x`'s trailing axis.
    pub fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let n = self.nodes[x.0].shape.last_dim();
        assert_eq!(self.nodes[gamma.0].shape.numel(), n, "layer_norm gamma length");
        assert_eq!(self.nodes[beta.0].shape.numel(), n, "layer_norm beta length");
        self.like(Op::LayerNormLast { x, gamma, beta, eps }, x, &[x, gamma, beta])
    }

    // ---- nonlinearities ----

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        self.like(Op::Relu(a), a, &[a])
    }

    /// GELU with the tanh approximation.
    pub fn gelu(&mut self, a: Var) -> Var {
        self.like(Op::Gelu(a), a, &[a])
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        self.like(Op::Sigmoid(a), a, &[a])
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        self.like(Op::Tanh(a), a, &[a])
    }

    /// Elementwise absolute value (subgradient 0 at the kink).
    pub fn abs(&mut self, a: Var) -> Var {
        self.like(Op::Abs(a), a, &[a])
    }

    // ---- structure ----

    /// Concatenates along the trailing axis. All leading dimensions must
    /// match.
    pub fn concat_last(&mut self, a: Var, b: Var) -> Var {
        let (ad, bd) = (self.dims(a), self.dims(b));
        let r = ad.len();
        assert_eq!(r, bd.len(), "concat_last rank mismatch: {ad:?} vs {bd:?}");
        assert!(r >= 1, "concat_last requires rank >= 1");
        assert_eq!(ad[..r - 1], bd[..r - 1], "concat_last leading dims mismatch: {ad:?} vs {bd:?}");
        let split = ad[r - 1];
        let mut dims = ad.to_vec();
        dims[r - 1] += bd[r - 1];
        self.record(Op::ConcatLast(a, b, split), &dims, &[a, b])
    }

    /// Slices columns `[start, end)` of the trailing axis.
    pub fn slice_last(&mut self, a: Var, start: usize, end: usize) -> Var {
        let n = self.nodes[a.0].shape.last_dim();
        assert!(start < end && end <= n, "slice [{start}, {end}) out of trailing dim {n}");
        let mut dims = self.dims(a).to_vec();
        let r = dims.len();
        dims[r - 1] = end - start;
        self.record(Op::SliceLast(a, start, end), &dims, &[a])
    }

    // ---- reductions / losses ----

    /// Scalar mean of all elements.
    pub fn mean_all(&mut self, a: Var) -> Var {
        assert!(self.nodes[a.0].shape.numel() > 0, "mean of an empty tensor");
        self.record(Op::MeanAll(a), &[], &[a])
    }

    /// Scalar sum of all elements.
    pub fn sum_all(&mut self, a: Var) -> Var {
        self.record(Op::SumAll(a), &[], &[a])
    }

    /// Mean squared error between two same-shape nodes (scalar).
    pub fn mse(&mut self, pred: Var, target: Var) -> Var {
        let d = self.sub(pred, target);
        let sq = self.mul(d, d);
        self.mean_all(sq)
    }

    /// Mean absolute error between two same-shape nodes (scalar).
    pub fn mae(&mut self, pred: Var, target: Var) -> Var {
        let d = self.sub(pred, target);
        let a = self.abs(d);
        self.mean_all(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_tensor::fused::gelu_fwd;

    #[test]
    fn forward_values_match_tensor_ops() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let b = g.constant(Tensor::eye(2));
        let c = g.matmul(a, b);
        assert_eq!(g.value(c).data(), g.value(a).data());
        let s = g.softmax_last(a);
        assert!((g.value(s).row(0).iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn requires_grad_propagates() {
        let mut g = Graph::new();
        let c = g.constant(Tensor::ones(&[2]));
        let p = g.leaf(Tensor::ones(&[2]));
        let s1 = g.add(c, c);
        let s2 = g.add(c, p);
        assert!(!g.rg(s1));
        assert!(g.rg(s2));
    }

    #[test]
    fn broadcast_nt_matches_per_batch() {
        let a = Tensor::from_vec((0..6).map(|v| v as f32 * 0.1).collect(), &[2, 3]);
        let x = Tensor::from_vec((0..24).map(|v| v as f32 * 0.05).collect(), &[2, 4, 3]);
        let mut g = Graph::new();
        let av = g.constant(a.clone());
        let xv = g.constant(x.clone());
        let s = g.matmul_broadcast_nt(av, xv);
        assert_eq!(g.dims(s), &[2, 2, 4]);
        for b in 0..2 {
            let expect = a.matmul_nt(&x.index_axis0(b));
            assert!(g.value(s).index_axis0(b).max_abs_diff(&expect) < 1e-6);
        }
    }

    #[test]
    fn layer_norm_rows_are_normalised() {
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0], &[2, 4]));
        let gamma = g.constant(Tensor::ones(&[4]));
        let beta = g.constant(Tensor::zeros(&[4]));
        let y = g.layer_norm(x, gamma, beta, 1e-5);
        let y = g.value(y);
        for i in 0..2 {
            let row = y.row(i);
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn reset_clears_state_and_tape_is_reusable() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![2.0], &[1]));
        let sq = g.mul(x, x);
        let loss = g.mean_all(sq);
        g.backward(loss);
        assert!(g.grad(x).is_some());
        g.reset();
        assert!(g.is_empty());
        // A fresh pass on the reset tape behaves exactly like a new graph.
        let y = g.leaf(Tensor::from_vec(vec![3.0], &[1]));
        let sq = g.mul(y, y);
        let loss = g.mean_all(sq);
        g.backward(loss);
        assert_eq!(g.grad(y).expect("y is a trainable leaf").data(), &[6.0]);
    }

    #[test]
    fn linear_regression_gradient() {
        // L = mean((w·x - y)²); with w = 0, x = [1, 2], y = [1, 2]:
        // dL/dw = mean over samples of 2(wx−y)x = -(1·1 + 2·2) = -5.
        let mut g = Graph::new();
        let w = g.leaf(Tensor::zeros(&[1, 1]));
        let x = g.constant(Tensor::from_vec(vec![1.0, 2.0], &[1, 2]));
        let y = g.constant(Tensor::from_vec(vec![1.0, 2.0], &[1, 2]));
        let pred = g.matmul(w, x);
        let loss = g.mse(pred, y);
        g.backward(loss);
        let dw = g.grad(w).expect("w is a trainable leaf in the graph");
        assert!((dw.data()[0] + 5.0).abs() < 1e-5);
    }

    #[test]
    fn gradient_accumulates_across_paths() {
        // L = mean(x + x) ⇒ dL/dx = 2/n each.
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let s = g.add(x, x);
        let loss = g.mean_all(s);
        g.backward(loss);
        assert_eq!(g.grad(x).expect("x is a trainable leaf in the graph").data(), &[1.0, 1.0]);
    }

    #[test]
    fn parameters_sharing_a_gradient_each_get_their_own() {
        // L = Σ (p + q)·c: the sum's gradient register reaches both leaves,
        // and each update reads a slot of its own.
        let mut g = Graph::new();
        let p = g.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let q = g.leaf(Tensor::from_vec(vec![3.0, 4.0], &[2]));
        let c = g.constant(Tensor::from_vec(vec![0.5, -2.0], &[2]));
        let s = g.add(p, q);
        let y = g.mul(s, c);
        let loss = g.sum_all(y);
        g.backward(loss);
        assert_eq!(g.grad(p).expect("p is a trainable leaf in the graph").data(), &[0.5, -2.0]);
        assert_eq!(g.grad(q).expect("q is a trainable leaf in the graph").data(), &[0.5, -2.0]);
    }

    #[test]
    fn constants_get_no_gradient() {
        let mut g = Graph::new();
        let c = g.constant(Tensor::ones(&[2]));
        let p = g.leaf(Tensor::ones(&[2]));
        let s = g.mul(c, p);
        let loss = g.sum_all(s);
        g.backward(loss);
        assert!(g.grad(c).is_none());
        assert_eq!(g.grad(p).expect("p is a trainable leaf in the graph").data(), &[1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_rejects_non_scalar() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::ones(&[2]));
        g.backward(x);
    }

    #[test]
    fn second_backward_replaces_gradients() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![2.0], &[1]));
        let sq = g.mul(x, x);
        let l1 = g.mean_all(sq);
        g.backward(l1);
        let first = g.grad(x).expect("x is a trainable leaf in the graph").data()[0];
        assert!((first - 4.0).abs() < 1e-6);
        // Extend the graph and backward from a different loss: gradients are
        // replaced, not accumulated across calls.
        let tripled = g.scale(sq, 3.0);
        let l2 = g.mean_all(tripled);
        g.backward(l2);
        let second = g.grad(x).expect("x is a trainable leaf in the graph").data()[0];
        assert!((second - 12.0).abs() < 1e-6, "got {second}");
    }

    #[test]
    fn disconnected_leaf_has_no_gradient() {
        let mut g = Graph::new();
        let used = g.leaf(Tensor::ones(&[2]));
        let unused = g.leaf(Tensor::ones(&[2]));
        let loss = g.sum_all(used);
        g.backward(loss);
        assert!(g.grad(used).is_some());
        assert!(g.grad(unused).is_none());
    }

    #[test]
    fn mae_gradient_is_sign_over_n() {
        let mut g = Graph::new();
        let p = g.leaf(Tensor::from_vec(vec![2.0, -1.0, 0.0], &[3]));
        let t = g.constant(Tensor::zeros(&[3]));
        let loss = g.mae(p, t);
        g.backward(loss);
        let gr = g.grad(p).expect("p is a trainable leaf in the graph");
        let third = 1.0 / 3.0;
        assert!((gr.data()[0] - third).abs() < 1e-6);
        assert!((gr.data()[1] + third).abs() < 1e-6);
        assert_eq!(gr.data()[2], 0.0);
    }

    #[test]
    fn gelu_matches_reference_points() {
        // Reference values from the tanh approximation.
        assert!((gelu_fwd(0.0)).abs() < 1e-7);
        assert!((gelu_fwd(1.0) - 0.8412).abs() < 1e-3);
        assert!((gelu_fwd(-1.0) + 0.1588).abs() < 1e-3);
    }
}
