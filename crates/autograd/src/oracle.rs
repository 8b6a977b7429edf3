//! The reference oracle: the plain serial definition of every op's backward
//! rule, of the LayerNorm and broadcast-score forward loops, and of the
//! Adam/AdamW update — kept only so tests can hold the plan VM to it bit for
//! bit.
//!
//! Production code never calls this module. [`Graph::backward`] and the
//! training loop lower the tape with the plan emitter (`crate::plan`), the
//! one place that decides how each op differentiates, and the fused kernels
//! the VM dispatches promise to reproduce these loops exactly — same
//! operations, same accumulation order — at any thread count. The parity
//! suites compare the two, and the `opcode-coverage` lint requires every
//! tape `Op` to have a rule here as well as a lowering in the emitter.

use crate::graph::{swap01, Graph, Op, Var};
use crate::optim::Optimizer;
use focus_tensor::fused::{combine_lanes, gelu_bwd, LANES};
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

/// Reference reverse pass from the scalar node `loss`.
///
/// Fills `g`'s gradient of *every* node on a path from a trainable leaf to
/// `loss` (where [`Graph::backward`] keeps only the leaves'), so
/// [`Graph::grad`] and [`crate::ParamStore::step`] read the oracle's
/// gradients exactly as they read the VM's.
///
/// # Panics
/// If `loss` is not a single-element tensor.
pub fn backward(g: &mut Graph, loss: Var) {
    let dims = g.value(loss).dims().to_vec();
    assert_eq!(g.value(loss).numel(), 1, "backward requires a scalar loss");
    g.grads.clear();
    g.grads.resize(g.nodes.len(), None);
    g.grads[loss.0] = Some(Tensor::full(&dims, 1.0));
    for i in (0..g.nodes.len()).rev() {
        if !g.nodes[i].requires_grad {
            continue;
        }
        let Some(grad) = g.grads[i].take() else {
            continue;
        };
        for (v, delta) in rule(g, i, &grad) {
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
}

/// Node `i`'s adjoint: the gradient contribution `gr` sends to each input.
fn rule(g: &Graph, i: usize, gr: &Tensor) -> Vec<(Var, Tensor)> {
    let val = |v: Var| &g.nodes[v.0].value;
    let y = &g.nodes[i].value;
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
