//! The tape: node arena, op records and forward evaluation.

use focus_tensor::{exec, pool, Tensor};

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
    pub value: Tensor,
    pub op: Op,
    pub requires_grad: bool,
}

/// An append-only computation tape.
///
/// Build the forward pass with the op methods, call [`Graph::backward`] on a
/// scalar node, then read the trainable leaves' gradients with
/// [`Graph::grad`].
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
        // Dropping the node tensors hands their buffers back to the pool, so
        // this span is where per-step reclamation cost shows up.
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

    fn push(&mut self, value: Tensor, op: Op, requires_grad: bool) -> Var {
        self.nodes.push(Node {
            value,
            op,
            requires_grad,
        });
        Var(self.nodes.len() - 1)
    }

    #[inline]
    pub(crate) fn rg(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    /// Registers a trainable leaf (a parameter). Its gradient is available
    /// after [`Graph::backward`].
    pub fn leaf(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Leaf, true)
    }

    /// Registers a constant leaf: data that is the same for every step, such
    /// as prototypes. No gradient is computed for it, and a compiled plan
    /// bakes it in; record per-step data with [`Graph::input`] instead.
    pub fn constant(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Leaf, false)
    }

    /// Records the next per-step input (a window, a target, a per-window
    /// operand). Inputs are numbered in record order, and a plan compiled
    /// from this tape binds its `k`-th input to the `k`-th recorded one, so a
    /// replay reads each step's own data. No gradient is computed for it.
    pub fn input(&mut self, t: Tensor) -> Var {
        let v = self.push(t, Op::Input(self.inputs.len()), false);
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
        let inputs = self.inputs.iter().map(|v| self.nodes[v.0].value.data()).collect();
        (inputs, self.routes.iter().map(Vec::as_slice).collect())
    }

    /// The forward value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
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
        assert_eq!(
            self.nodes[loss.0].value.numel(),
            1,
            "backward requires a scalar loss, got shape {}",
            self.nodes[loss.0].value.shape()
        );
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
        let v = self.value(a).add(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::Add(a, b), rg)
    }

    /// Elementwise `a - b` (same shape).
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).sub(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::Sub(a, b), rg)
    }

    /// Elementwise `a ⊙ b` (same shape).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).mul(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::Mul(a, b), rg)
    }

    /// Elementwise negation.
    pub fn neg(&mut self, a: Var) -> Var {
        let v = self.value(a).scale(-1.0);
        let rg = self.rg(a);
        self.push(v, Op::Neg(a), rg)
    }

    /// Multiplies every element by the constant `c`.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let v = self.value(a).scale(c);
        let rg = self.rg(a);
        self.push(v, Op::Scale(a, c), rg)
    }

    /// Adds the constant `c` to every element.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let v = self.value(a).add_scalar(c);
        let rg = self.rg(a);
        self.push(v, Op::AddScalar(a, c), rg)
    }

    // ---- linear algebra ----

    /// 2-D matrix product `[m, k] · [k, n] → [m, n]`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::Matmul(a, b), rg)
    }

    /// Batched 3-D matrix product `[B, m, k] · [B, k, n] → [B, m, n]`.
    pub fn bmm(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).bmm(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::Bmm(a, b), rg)
    }

    /// Batched product against a transposed RHS, `[B, m, k] · [B, n, k]ᵀ →
    /// [B, m, n]`, reading `b` in its stored layout — use instead of
    /// `transpose_last2` + [`Graph::bmm`] (same result, no transposed copy
    /// on the tape and no `TransposeLast2` backward step).
    pub fn bmm_nt(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).bmm_nt(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::BmmNt(a, b), rg)
    }

    /// Sparse one-hot routing: `out[b, i, :] = head[b, indices[b·l + i], :]`
    /// for `head: [B, k, d]` and the registered `route`, producing
    /// `[B, l, d]`.
    ///
    /// Bitwise-equivalent to `bmm(A, head)` with the one-hot `A` the indices
    /// stand for — forward and backward both (see `focus_tensor::route`) —
    /// at `O(B·l·d)` instead of `O(B·l·k·d)`. The indices are data, not a
    /// differentiable input; only `head` receives a gradient.
    pub fn route_one_hot(&mut self, head: Var, route: Route, l: usize) -> Var {
        let v = focus_tensor::route::route_gather(self.value(head), &self.routes[route.0], l);
        let rg = self.rg(head);
        self.push(v, Op::RouteOneHot { head, route }, rg)
    }

    /// Broadcast score kernel: `out[b] = a · x[b]ᵀ` for 2-D `a: [k, d]` and
    /// 3-D `x: [B, l, d]`, producing `[B, k, l]`.
    pub fn matmul_broadcast_nt(&mut self, a: Var, x: Var) -> Var {
        let at = self.value(a);
        let xt = self.value(x);
        assert_eq!(at.rank(), 2, "matmul_broadcast_nt lhs must be rank 2");
        assert_eq!(xt.rank(), 3, "matmul_broadcast_nt rhs must be rank 3");
        let (k, d) = (at.dims()[0], at.dims()[1]);
        let (bsz, l, d2) = (xt.dims()[0], xt.dims()[1], xt.dims()[2]);
        assert_eq!(d, d2, "matmul_broadcast_nt inner dims: {d} vs {d2}");
        // One batched sweep straight over slices of `x` and `out`: no
        // per-batch index copy, shared packing scratch across batches.
        let mut out = uninit(&[bsz, k, l]);
        exec::bcast_nt(bsz, k, d, l, at.data(), xt.data(), out.data_mut());
        let rg = self.rg(a) || self.rg(x);
        self.push(out, Op::MatmulBroadcastNt(a, x), rg)
    }

    /// Transpose of a rank-2 node.
    pub fn transpose(&mut self, a: Var) -> Var {
        let v = self.value(a).transpose();
        let rg = self.rg(a);
        self.push(v, Op::Transpose2(a), rg)
    }

    /// Swap the last two axes of a rank-3 node.
    pub fn transpose_last2(&mut self, a: Var) -> Var {
        let v = self.value(a).transpose_last2();
        let rg = self.rg(a);
        self.push(v, Op::TransposeLast2(a), rg)
    }

    /// Swaps the first two axes of a rank-3 node: `[a, b, c] → [b, a, c]`.
    pub fn swap_axes01(&mut self, a: Var) -> Var {
        let v = swap01(self.value(a));
        let rg = self.rg(a);
        self.push(v, Op::SwapAxes01(a), rg)
    }

    /// Shape change without data movement.
    pub fn reshape(&mut self, a: Var, dims: &[usize]) -> Var {
        let v = self.value(a).reshape(dims);
        let rg = self.rg(a);
        self.push(v, Op::Reshape(a), rg)
    }

    /// Adds a trailing-axis-length `bias` vector to every row of `x`.
    pub fn add_row_broadcast(&mut self, x: Var, bias: Var) -> Var {
        let v = self.value(x).add_row_broadcast(self.value(bias));
        let rg = self.rg(x) || self.rg(bias);
        self.push(v, Op::AddRowBroadcast(x, bias), rg)
    }

    // ---- normalisation / attention ----

    /// Numerically stable softmax over the trailing axis.
    pub fn softmax_last(&mut self, a: Var) -> Var {
        let v = self.value(a).softmax_last();
        let rg = self.rg(a);
        self.push(v, Op::SoftmaxLast(a), rg)
    }

    /// LayerNorm over the trailing axis with affine parameters.
    ///
    /// `gamma`/`beta` must be rank-1 with the length of `x`'s trailing axis.
    pub fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let xt = self.value(x);
        let n = xt.shape().last_dim();
        assert_eq!(self.value(gamma).numel(), n, "layer_norm gamma length");
        assert_eq!(self.value(beta).numel(), n, "layer_norm beta length");
        let (out, _) = focus_tensor::fused::layer_norm_fwd(
            xt,
            self.value(gamma).data(),
            self.value(beta).data(),
            eps,
        );
        let rg = self.rg(x) || self.rg(gamma) || self.rg(beta);
        self.push(
            out,
            Op::LayerNormLast { x, gamma, beta, eps },
            rg,
        )
    }

    // ---- nonlinearities ----

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = mapped(self.value(a), exec::map_relu);
        let rg = self.rg(a);
        self.push(v, Op::Relu(a), rg)
    }

    /// GELU with the tanh approximation.
    pub fn gelu(&mut self, a: Var) -> Var {
        let v = mapped(self.value(a), exec::map_gelu);
        let rg = self.rg(a);
        self.push(v, Op::Gelu(a), rg)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = mapped(self.value(a), exec::map_sigmoid);
        let rg = self.rg(a);
        self.push(v, Op::Sigmoid(a), rg)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = mapped(self.value(a), exec::map_tanh);
        let rg = self.rg(a);
        self.push(v, Op::Tanh(a), rg)
    }

    /// Elementwise absolute value (subgradient 0 at the kink).
    pub fn abs(&mut self, a: Var) -> Var {
        let v = mapped(self.value(a), exec::map_abs);
        let rg = self.rg(a);
        self.push(v, Op::Abs(a), rg)
    }

    // ---- structure ----

    /// Concatenates along the trailing axis.
    pub fn concat_last(&mut self, a: Var, b: Var) -> Var {
        let split = self.value(a).shape().last_dim();
        let v = self.value(a).concat_last(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::ConcatLast(a, b, split), rg)
    }

    /// Slices columns `[start, end)` of the trailing axis.
    pub fn slice_last(&mut self, a: Var, start: usize, end: usize) -> Var {
        let at = self.value(a);
        let n = at.shape().last_dim();
        assert!(start < end && end <= n, "slice [{start}, {end}) out of trailing dim {n}");
        let mut dims = at.dims().to_vec();
        dims[at.rank() - 1] = end - start;
        let mut v = uninit(&dims);
        exec::slice_cols(at.data(), n, start, end, at.shape().leading(), v.data_mut());
        let rg = self.rg(a);
        self.push(v, Op::SliceLast(a, start, end), rg)
    }

    // ---- reductions / losses ----

    /// Scalar mean of all elements.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(self.value(a).mean_all());
        let rg = self.rg(a);
        self.push(v, Op::MeanAll(a), rg)
    }

    /// Scalar sum of all elements.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(self.value(a).sum_all());
        let rg = self.rg(a);
        self.push(v, Op::SumAll(a), rg)
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

/// Swap the first two axes of a rank-3 tensor (shared by forward/backward).
pub(crate) fn swap01(t: &Tensor) -> Tensor {
    assert_eq!(t.rank(), 3, "swap_axes01 requires rank 3, got {}", t.shape());
    let (a, b, c) = (t.dims()[0], t.dims()[1], t.dims()[2]);
    let mut out = uninit(&[b, a, c]);
    exec::swap01(t.data(), a, b, c, out.data_mut());
    out
}

/// A pooled tensor of shape `dims` with unspecified contents, for a kernel
/// that overwrites every element.
fn uninit(dims: &[usize]) -> Tensor {
    Tensor::from_vec(pool::take(dims.iter().product()), dims)
}

/// `kernel(src, out)` into a fresh tensor of `src`'s shape: an activation's
/// forward, through the kernel its VM opcode calls.
fn mapped(src: &Tensor, kernel: fn(&[f32], &mut [f32])) -> Tensor {
    let mut out = uninit(src.dims());
    kernel(src.data(), out.data_mut());
    out
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
        assert_eq!(g.value(s).dims(), &[2, 2, 4]);
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
        for i in 0..2 {
            let row = g.value(y).row(i);
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
