//! The reference oracle: the definition of every op's forward and backward
//! rule and of the Adam/AdamW update — kept only so tests can hold the plan
//! VM to it bit for bit.
//!
//! Production code never calls this module. The plan VM computes every
//! value the tape's users see ([`Graph::value`], [`Graph::backward`], the
//! training loop and `predict`), lowered by the plan emitter
//! (`crate::plan`), the one place that decides how each op runs and
//! differentiates. [`forward`] and [`backward`] evaluate the same tape
//! without a plan, so the parity suites compare the VM's values, gradients
//! and updates with this module at any thread count. The LayerNorm and
//! broadcast-score forwards, the axis swap, the softmax, bias, pointwise and
//! slice backward rules and AdamW are plain serial loops here, so the
//! suites check those kernels too. The other rules compose `Tensor` ops,
//! which run the same `focus_tensor::exec` kernels as the VM: for them the
//! suites check the lowering (which product, which operands, which
//! accumulation order), and focus-tensor's own tests check the kernels
//! against serial loops and `focus_tensor::reference`. The `opcode-coverage`
//! lint requires every tape `Op` to have a rule here as well as a lowering
//! in the emitter.

use crate::graph::{Graph, Op, Var};
use crate::optim::Optimizer;
use focus_tensor::fused::{combine_lanes, gelu_bwd, gelu_fwd, sigmoid, LANES};
use focus_tensor::Tensor;

/// LayerNorm over the trailing axis: the output and a `[rows, 2]` tensor of
/// interleaved `(mean, rstd)` per row. Row statistics follow the fused
/// kernel's fixed-lane order: element `j` feeds lane `j % LANES`, and the
/// lanes combine by one tree.
pub fn layer_norm(x: &Tensor, gamma: &[f32], beta: &[f32], eps: f32) -> (Tensor, Tensor) {
    let n = x.shape().last_dim();
    let rows = x.shape().leading();
    let mut cache = Tensor::zeros(&[rows, 2]);
    let mut out = x.clone();
    for i in 0..rows {
        let row = &mut out.data_mut()[i * n..(i + 1) * n];
        let (mut s, mut q) = ([0.0f32; LANES], [0.0f32; LANES]);
        for (j, v) in row.iter().enumerate() {
            s[j % LANES] += v;
        }
        let mean = combine_lanes(s) / n as f32;
        for (j, v) in row.iter().enumerate() {
            q[j % LANES] += (v - mean) * (v - mean);
        }
        let var = combine_lanes(q) / n as f32;
        let rstd = 1.0 / (var + eps).sqrt();
        for (j, v) in row.iter_mut().enumerate() {
            *v = (*v - mean) * rstd * gamma[j] + beta[j];
        }
        cache.data_mut()[2 * i] = mean;
        cache.data_mut()[2 * i + 1] = rstd;
    }
    (out, cache)
}

/// The prototype-score product `out[b] = a · x[b]ᵀ` for `a: [k, d]` and
/// `x: [B, l, d]`, one 2-D product per batch.
pub fn matmul_broadcast_nt(a: &Tensor, x: &Tensor) -> Tensor {
    let (k, bsz, l) = (a.dims()[0], x.dims()[0], x.dims()[1]);
    let mut out = Tensor::zeros(&[bsz, k, l]);
    for b in 0..bsz {
        let s = a.matmul_nt(&x.index_axis0(b));
        out.data_mut()[b * k * l..(b + 1) * k * l].copy_from_slice(s.data());
    }
    out
}

/// Swaps the first two axes of a rank-3 tensor: `[a, b, c] → [b, a, c]`.
fn swap01(t: &Tensor) -> Tensor {
    let (a, b, c) = (t.dims()[0], t.dims()[1], t.dims()[2]);
    let mut out = Tensor::zeros(&[b, a, c]);
    for i in 0..a {
        for j in 0..b {
            let src = &t.data()[(i * b + j) * c..(i * b + j + 1) * c];
            out.data_mut()[(j * a + i) * c..(j * a + i + 1) * c].copy_from_slice(src);
        }
    }
    out
}

/// Reference forward: the value of node `v` of `g`, computed without a
/// plan. Leaves and inputs give their own data; LayerNorm, the broadcast
/// score product and the axis swap run the serial loops above, and every
/// other op the `Tensor` op of the same meaning.
pub fn forward(g: &Graph, v: Var) -> Tensor {
    values(g, v.0 + 1).swap_remove(v.0)
}

/// The reference values of the first `n` nodes of `g`, in tape order.
fn values(g: &Graph, n: usize) -> Vec<Tensor> {
    let mut vals: Vec<Tensor> = Vec::with_capacity(n);
    for (i, node) in g.nodes[..n].iter().enumerate() {
        let val = |v: &Var| &vals[v.0];
        let y = match &node.op {
            Op::Leaf | Op::Input(_) => g.held(Var(i)).clone(),
            Op::Add(a, b) => val(a).add(val(b)),
            Op::Sub(a, b) => val(a).sub(val(b)),
            Op::Mul(a, b) => val(a).mul(val(b)),
            Op::Neg(a) => val(a).scale(-1.0),
            Op::Scale(a, c) => val(a).scale(*c),
            Op::AddScalar(a, c) => val(a).add_scalar(*c),
            Op::Matmul(a, b) => val(a).matmul(val(b)),
            Op::Bmm(a, b) => val(a).bmm(val(b)),
            Op::BmmNt(a, b) => val(a).bmm_nt(val(b)),
            Op::RouteOneHot { head, route } => {
                focus_tensor::route::route_gather(val(head), &g.routes[route.0], node.shape.dims()[1])
            }
            Op::MatmulBroadcastNt(a, x) => matmul_broadcast_nt(val(a), val(x)),
            Op::Transpose2(a) => val(a).transpose(),
            Op::TransposeLast2(a) => val(a).transpose_last2(),
            Op::SwapAxes01(a) => swap01(val(a)),
            Op::Reshape(a) => val(a).reshape(node.shape.dims()),
            Op::AddRowBroadcast(x, bias) => val(x).add_row_broadcast(val(bias)),
            Op::SoftmaxLast(a) => val(a).softmax_last(),
            Op::LayerNormLast { x, gamma, beta, eps } => {
                layer_norm(val(x), val(gamma).data(), val(beta).data(), *eps).0
            }
            Op::Relu(a) => val(a).map(|x| x.max(0.0)),
            Op::Gelu(a) => val(a).map(gelu_fwd),
            Op::Sigmoid(a) => val(a).map(sigmoid),
            Op::Tanh(a) => val(a).map(f32::tanh),
            Op::Abs(a) => val(a).map(f32::abs),
            Op::ConcatLast(a, b, _) => val(a).concat_last(val(b)),
            Op::SliceLast(a, start, end) => val(a).split_last(*end).0.split_last(*start).1,
            Op::MeanAll(a) => Tensor::scalar(val(a).mean_all()),
            Op::SumAll(a) => Tensor::scalar(val(a).sum_all()),
        };
        vals.push(y);
    }
    vals
}

/// Reference reverse pass from the scalar node `loss`, over the values of
/// [`forward`]; returns the loss's value.
///
/// Fills `g`'s gradient of *every* node on a path from a trainable leaf to
/// `loss` (where [`Graph::backward`] keeps only the leaves'), so
/// [`Graph::grad`] and [`crate::ParamStore::step`] read the oracle's
/// gradients exactly as they read the VM's.
///
/// # Panics
/// If `loss` is not a single-element tensor.
pub fn backward(g: &mut Graph, loss: Var) -> Tensor {
    assert_eq!(g.nodes[loss.0].shape.numel(), 1, "backward requires a scalar loss");
    let mut vals = values(g, loss.0 + 1);
    g.grads.clear();
    g.grads.resize(g.nodes.len(), None);
    g.grads[loss.0] = Some(Tensor::full(vals[loss.0].dims(), 1.0));
    for i in (0..=loss.0).rev() {
        if !g.nodes[i].requires_grad {
            continue;
        }
        let Some(grad) = g.grads[i].take() else {
            continue;
        };
        for (v, delta) in rule(g, &vals, i, &grad) {
            if !g.nodes[v.0].requires_grad {
                continue;
            }
            match &mut g.grads[v.0] {
                Some(existing) => existing.axpy(1.0, &delta),
                slot @ None => *slot = Some(delta),
            }
        }
        g.grads[i] = Some(grad);
    }
    vals.swap_remove(loss.0)
}

/// Node `i`'s adjoint: the gradient contribution `gr` sends to each input,
/// given every node's value `vals`.
fn rule(g: &Graph, vals: &[Tensor], i: usize, gr: &Tensor) -> Vec<(Var, Tensor)> {
    let val = |v: Var| &vals[v.0];
    let y = &vals[i];
    // Pointwise rule over the op's input `x` (or output `y`) and `gr`.
    let pointwise = |x: &Tensor, f: fn(f32, f32) -> f32| {
        let data = x
            .data()
            .iter()
            .zip(gr.data())
            .map(|(&x, &g)| f(x, g))
            .collect();
        Tensor::from_vec(data, x.dims())
    };
    match &g.nodes[i].op {
        Op::Leaf | Op::Input(_) => vec![],
        Op::Add(a, b) => vec![(*a, gr.clone()), (*b, gr.clone())],
        Op::Sub(a, b) => vec![(*a, gr.clone()), (*b, gr.scale(-1.0))],
        Op::Mul(a, b) => vec![(*a, gr.mul(val(*b))), (*b, gr.mul(val(*a)))],
        Op::Neg(a) => vec![(*a, gr.scale(-1.0))],
        Op::Scale(a, c) => vec![(*a, gr.scale(*c))],
        Op::AddScalar(a, _) => vec![(*a, gr.clone())],
        // y = a·b  ⇒  da = g·bᵀ, db = aᵀ·g
        Op::Matmul(a, b) => vec![(*a, gr.matmul_nt(val(*b))), (*b, val(*a).matmul_tn(gr))],
        Op::Bmm(a, b) => vec![(*a, gr.bmm_nt(val(*b))), (*b, val(*a).bmm_tn(gr))],
        // y[b] = a[b]·b[b]ᵀ  ⇒  da = g·b, db = gᵀ·a
        Op::BmmNt(a, b) => vec![(*a, gr.bmm(val(*b))), (*b, gr.bmm_tn(val(*a)))],
        // dhead[b, j, :] = Σ_{i: idx=i} g[b, i, :], ascending i.
        Op::RouteOneHot { head, route } => {
            let k = val(*head).dims()[1];
            vec![(
                *head,
                focus_tensor::route::route_scatter_add(gr, &g.routes[route.0], k),
            )]
        }
        // out[b] = a · x[b]ᵀ  ⇒  da = Σ_b g[b]·x[b], dx[b] = g[b]ᵀ·a
        Op::MatmulBroadcastNt(a, x) => {
            let (av, xv) = (val(*a), val(*x));
            let (bsz, l, d) = (xv.dims()[0], xv.dims()[1], xv.dims()[2]);
            let mut da = Tensor::zeros(av.dims());
            let mut dx = Tensor::zeros(&[bsz, l, d]);
            for b in 0..bsz {
                let gb = gr.index_axis0(b);
                da.axpy(1.0, &gb.matmul(&xv.index_axis0(b)));
                dx.data_mut()[b * l * d..(b + 1) * l * d].copy_from_slice(gb.matmul_tn(av).data());
            }
            vec![(*a, da), (*x, dx)]
        }
        Op::Transpose2(a) => vec![(*a, gr.transpose())],
        Op::TransposeLast2(a) => vec![(*a, gr.transpose_last2())],
        Op::SwapAxes01(a) => vec![(*a, swap01(gr))],
        Op::Reshape(a) => vec![(*a, gr.reshape(val(*a).dims()))],
        Op::AddRowBroadcast(x, bias) => {
            let n = gr.shape().last_dim();
            let mut db = Tensor::zeros(val(*bias).dims());
            for row in gr.data().chunks_exact(n) {
                for (o, &v) in db.data_mut().iter_mut().zip(row) {
                    *o += v;
                }
            }
            vec![(*x, gr.clone()), (*bias, db)]
        }
        // dx = y ⊙ (g − ⟨g, y⟩_row)
        Op::SoftmaxLast(a) => {
            let n = y.shape().last_dim();
            let mut dx = Tensor::zeros(y.dims());
            for ((o, yr), gr) in dx
                .data_mut()
                .chunks_exact_mut(n)
                .zip(y.data().chunks_exact(n))
                .zip(gr.data().chunks_exact(n))
            {
                let dot: f32 = yr.iter().zip(gr).map(|(a, b)| a * b).sum();
                for (o, (yv, gv)) in o.iter_mut().zip(yr.iter().zip(gr)) {
                    *o = yv * (gv - dot);
                }
            }
            vec![(*a, dx)]
        }
        Op::LayerNormLast {
            x,
            gamma,
            beta,
            eps,
        } => {
            let (xv, gv) = (val(*x), val(*gamma).data());
            let (_, cache) = layer_norm(xv, gv, val(*beta).data(), *eps);
            let (n, rows) = (xv.shape().last_dim(), xv.shape().leading());
            let cd = cache.data();
            let mut dgamma = Tensor::zeros(&[n]);
            let mut dbeta = Tensor::zeros(&[n]);
            let mut dx = Tensor::zeros(xv.dims());
            let inv_n = 1.0 / n as f32;
            for r in 0..rows {
                let xr = &xv.data()[r * n..(r + 1) * n];
                let g_r = &gr.data()[r * n..(r + 1) * n];
                let (mu, rstd) = (cd[2 * r], cd[2 * r + 1]);
                // dŷ = g ⊙ γ; row statistics for dx in the fixed-lane order.
                let mut sum_dy = [0.0f32; LANES];
                let mut sum_dy_xhat = [0.0f32; LANES];
                for j in 0..n {
                    let xhat = (xr[j] - mu) * rstd;
                    let dy = g_r[j] * gv[j];
                    sum_dy[j % LANES] += dy;
                    sum_dy_xhat[j % LANES] += dy * xhat;
                    dgamma.data_mut()[j] += g_r[j] * xhat;
                    dbeta.data_mut()[j] += g_r[j];
                }
                let (sum_dy, sum_dy_xhat) = (combine_lanes(sum_dy), combine_lanes(sum_dy_xhat));
                for j in 0..n {
                    let xhat = (xr[j] - mu) * rstd;
                    let dy = g_r[j] * gv[j];
                    dx.data_mut()[r * n + j] =
                        rstd * (dy - sum_dy * inv_n - xhat * sum_dy_xhat * inv_n);
                }
            }
            vec![(*x, dx), (*gamma, dgamma), (*beta, dbeta)]
        }
        Op::Relu(a) => vec![(*a, pointwise(val(*a), |x, g| if x > 0.0 { g } else { 0.0 }))],
        Op::Gelu(a) => vec![(*a, pointwise(val(*a), |x, g| g * gelu_bwd(x)))],
        Op::Sigmoid(a) => vec![(*a, pointwise(y, |y, g| g * y * (1.0 - y)))],
        Op::Tanh(a) => vec![(*a, pointwise(y, |y, g| g * (1.0 - y * y)))],
        Op::Abs(a) => {
            let sign = |x: f32, g: f32| {
                if x > 0.0 {
                    g
                } else if x < 0.0 {
                    -g
                } else {
                    0.0
                }
            };
            vec![(*a, pointwise(val(*a), sign))]
        }
        Op::ConcatLast(a, b, split) => {
            let (ga, gb) = gr.split_last(*split);
            vec![(*a, ga), (*b, gb)]
        }
        Op::SliceLast(a, start, end) => {
            let av = val(*a);
            let (n, width) = (av.shape().last_dim(), end - start);
            let mut dx = Tensor::zeros(av.dims());
            for (r, src) in gr.data().chunks_exact(width).enumerate() {
                dx.data_mut()[r * n + start..r * n + end].copy_from_slice(src);
            }
            vec![(*a, dx)]
        }
        Op::MeanAll(a) => {
            let n = val(*a).numel();
            vec![(*a, Tensor::full(val(*a).dims(), gr.item() / n as f32))]
        }
        Op::SumAll(a) => vec![(*a, Tensor::full(val(*a).dims(), gr.item()))],
    }
}

/// Reference AdamW: decoupled decay, then the moment updates, bias
/// correction and step as separate serial passes — the definition that
/// `focus_tensor::fused::adamw_step` reproduces in one pass. A zero
/// `weight_decay` is plain Adam.
pub struct AdamW {
    lr: f32,
    weight_decay: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
    t: u64,
}

impl AdamW {
    /// The reference twin of [`crate::AdamW::new`].
    pub fn new(lr: f32, weight_decay: f32) -> AdamW {
        AdamW {
            lr,
            weight_decay,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            m: vec![],
            v: vec![],
            t: 0,
        }
    }
}

impl Optimizer for AdamW {
    fn begin_step(&mut self, n: usize) {
        self.m
            .resize_with(n.max(self.m.len()), || Tensor::zeros(&[0]));
        self.v
            .resize_with(n.max(self.v.len()), || Tensor::zeros(&[0]));
        self.t += 1;
    }

    fn update(&mut self, idx: usize, param: &mut Tensor, grad: &Tensor) {
        let (b1, b2) = (self.beta1, self.beta2);
        if self.m[idx].numel() != grad.numel() {
            self.m[idx] = Tensor::zeros(grad.dims());
            self.v[idx] = Tensor::zeros(grad.dims());
        }
        // Decoupled decay first (does not enter the moment estimates).
        if self.weight_decay > 0.0 {
            let shrink = 1.0 - self.lr * self.weight_decay;
            for p in param.data_mut() {
                *p *= shrink;
            }
        }
        for (mv, &gv) in self.m[idx].data_mut().iter_mut().zip(grad.data()) {
            *mv = b1 * *mv + (1.0 - b1) * gv;
        }
        for (vv, &gv) in self.v[idx].data_mut().iter_mut().zip(grad.data()) {
            *vv = b2 * *vv + (1.0 - b2) * gv * gv;
        }
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        let mut dir = Tensor::zeros(grad.dims());
        for ((d, mv), vv) in dir
            .data_mut()
            .iter_mut()
            .zip(self.m[idx].data())
            .zip(self.v[idx].data())
        {
            *d = (mv / bc1) / ((vv / bc2).sqrt() + self.eps);
        }
        param.axpy(-self.lr, &dir);
    }
}
