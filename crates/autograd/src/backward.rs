//! The reverse pass: one adjoint rule per op.
//!
//! Each rule has two implementations selected by [`crate::set_fused`]: the
//! fused path calls the single-pass parallel kernels in
//! [`focus_tensor::fused`] (and the pooled elementwise helpers), the
//! reference path keeps the original serial loops. The parity tests pin the
//! two bitwise-equal; the reference path also serves as the "before"
//! configuration of the train-step benchmark.

use crate::graph::{gelu_bwd, Graph, Op, Var};
use focus_tensor::fused::{combine_lanes, LANES};
use focus_tensor::{fused, par, Tensor};

impl Graph {
    /// Runs reverse-mode differentiation from the scalar node `loss`.
    ///
    /// Gradients are accumulated for every node on a path from a
    /// gradient-requiring leaf to `loss`; read them with [`Graph::grad`].
    /// Calling `backward` replaces any gradients from a previous call.
    ///
    /// # Panics
    /// If `loss` is not a single-element tensor.
    pub fn backward(&mut self, loss: Var) {
        focus_trace::span!("autograd/backward");
        assert_eq!(
            self.nodes[loss.0].value.numel(),
            1,
            "backward requires a scalar loss, got shape {}",
            self.nodes[loss.0].value.shape()
        );
        // Reuse the gradient arena across calls (and across `Graph::reset`):
        // clear + resize keeps the Vec's capacity.
        self.grads.clear();
        self.grads.resize(self.nodes.len(), None);
        self.grads[loss.0] = Some(Tensor::full(self.nodes[loss.0].value.dims(), 1.0));

        for i in (0..self.nodes.len()).rev() {
            if !self.nodes[i].requires_grad {
                continue;
            }
            let Some(g) = self.grads[i].take() else {
                continue;
            };
            self.apply_rule(i, &g);
            self.grads[i] = Some(g);
        }
    }

    /// Accumulates `delta` into the gradient slot of `v`, if `v` needs one.
    fn accum(&mut self, v: Var, delta: Tensor) {
        if !self.nodes[v.0].requires_grad {
            return;
        }
        match &mut self.grads[v.0] {
            Some(existing) => existing.axpy(1.0, &delta),
            slot @ None => *slot = Some(delta),
        }
    }

    /// Accumulates `alpha · g` into the gradient slot of `v` without
    /// materialising the scaled temporary when a slot already exists (fused
    /// path only — the reference path always builds it, like the pre-fusion
    /// engine did). `axpy(alpha, g)` and `axpy(1.0, scale(alpha, g))` round
    /// each element once in the same place, so the bits agree.
    fn accum_scaled(&mut self, v: Var, alpha: f32, g: &Tensor) {
        // focus-lint: allow(float-hygiene) -- exact-literal test picks memcpy over a multiply pass; `scale(1.0)` yields the same bits
        let copy = |g: &Tensor| if alpha == 1.0 { g.clone() } else { g.scale(alpha) };
        if !crate::fused_enabled() {
            self.accum(v, copy(g));
            return;
        }
        if !self.nodes[v.0].requires_grad {
            return;
        }
        match &mut self.grads[v.0] {
            Some(existing) => existing.axpy(alpha, g),
            slot @ None => *slot = Some(copy(g)),
        }
    }

    fn apply_rule(&mut self, i: usize, g: &Tensor) {
        // Take the op out of the arena for the duration of the rule so it can
        // be matched by reference — no per-node clone of cached state (the
        // LayerNorm statistics, the routing indices) on every backward.
        let op = std::mem::replace(&mut self.nodes[i].op, Op::Leaf);
        self.run_rule(i, &op, g);
        self.nodes[i].op = op;
    }

    fn run_rule(&mut self, i: usize, op: &Op, g: &Tensor) {
        match op {
            Op::Leaf => {}
            Op::Add(a, b) => {
                self.accum_scaled(*a, 1.0, g);
                self.accum_scaled(*b, 1.0, g);
            }
            Op::Sub(a, b) => {
                self.accum_scaled(*a, 1.0, g);
                self.accum_scaled(*b, -1.0, g);
            }
            Op::Mul(a, b) => {
                let da = g.mul(&self.nodes[b.0].value);
                let db = g.mul(&self.nodes[a.0].value);
                self.accum(*a, da);
                self.accum(*b, db);
            }
            Op::Neg(a) => self.accum_scaled(*a, -1.0, g),
            Op::Scale(a, c) => self.accum_scaled(*a, *c, g),
            Op::AddScalar(a, _) => self.accum_scaled(*a, 1.0, g),
            Op::Matmul(a, b) => {
                // y = a·b  ⇒  da = g·bᵀ, db = aᵀ·g. On the fused path a
                // product whose input doesn't require grad (the data side of
                // an embedding, say) is skipped outright — `accum` would drop
                // it unused, after paying for the GEMM.
                let fused_on = crate::fused_enabled();
                if !fused_on || self.nodes[a.0].requires_grad {
                    let da = g.matmul_nt(&self.nodes[b.0].value);
                    self.accum(*a, da);
                }
                if !fused_on || self.nodes[b.0].requires_grad {
                    let db = self.nodes[a.0].value.matmul_tn(g);
                    self.accum(*b, db);
                }
            }
            Op::Bmm(a, b) => {
                let fused_on = crate::fused_enabled();
                if !fused_on || self.nodes[a.0].requires_grad {
                    let da = g.bmm_nt(&self.nodes[b.0].value);
                    self.accum(*a, da);
                }
                if !fused_on || self.nodes[b.0].requires_grad {
                    let db = self.nodes[a.0].value.bmm_tn(g);
                    self.accum(*b, db);
                }
            }
            Op::BmmNt(a, b) => {
                // y[b] = a[b]·b[b]ᵀ  ⇒  da = g·b, db = gᵀ·a
                let fused_on = crate::fused_enabled();
                if !fused_on || self.nodes[a.0].requires_grad {
                    let da = g.bmm(&self.nodes[b.0].value);
                    self.accum(*a, da);
                }
                if !fused_on || self.nodes[b.0].requires_grad {
                    let db = g.bmm_tn(&self.nodes[a.0].value);
                    self.accum(*b, db);
                }
            }
            Op::RouteOneHot { head, indices } => {
                // Indices are data; only the routed summaries get a gradient:
                // dhead[b, j, :] = Σ_{i: idx=j} g[b, i, :], ascending i — the
                // dense `Aᵀ·g` chain, without materialising A or computing dA.
                let k = self.nodes[head.0].value.dims()[1];
                self.accum(*head, focus_tensor::route::route_scatter_add(g, indices, k));
            }
            Op::MatmulBroadcastNt(a, x) => {
                // out[b] = a · x[b]ᵀ, a: [k,d], x: [B,l,d], g: [B,k,l]
                // da += Σ_b g[b]·x[b];  dx[b] = g[b]ᵀ·a
                let (a, x) = (*a, *x);
                let (da, dx) = {
                    let aval = &self.nodes[a.0].value;
                    let xval = &self.nodes[x.0].value;
                    let (bsz, l, d) = (xval.dims()[0], xval.dims()[1], xval.dims()[2]);
                    let k = aval.dims()[0];
                    let fused_on = crate::fused_enabled();
                    let da = self.nodes[a.0].requires_grad.then(|| {
                        let mut da = Tensor::zeros(&[k, d]);
                        if fused_on {
                            // Per-batch GEMMs on slices of `g`/`x` — no index
                            // copies. The per-batch product still lands in a
                            // (reused) zeroed temporary before the axpy merge,
                            // preserving the reference accumulation chain
                            // `da += (gᵦ·xᵦ)` bit for bit.
                            let mut tmp = Tensor::zeros(&[k, d]);
                            for b in 0..bsz {
                                tmp.data_mut().fill(0.0);
                                focus_tensor::raw::gemm(
                                    k,
                                    l,
                                    d,
                                    &g.data()[b * k * l..(b + 1) * k * l],
                                    &xval.data()[b * l * d..(b + 1) * l * d],
                                    tmp.data_mut(),
                                );
                                da.axpy(1.0, &tmp);
                            }
                        } else {
                            for b in 0..bsz {
                                let gb = g.index_axis0(b); // [k, l]
                                let xb = xval.index_axis0(b); // [l, d]
                                da.axpy(1.0, &gb.matmul(&xb));
                            }
                        }
                        da
                    });
                    let dx = self.nodes[x.0].requires_grad.then(|| {
                        let mut dx = Tensor::zeros(&[bsz, l, d]);
                        if fused_on {
                            // gᵦᵀ·a written straight into the batched output:
                            // the same zero-initialised gemm_tn chain as the
                            // reference's temporary-then-copy. Delegates to
                            // the plan VM's slice mirror, which parallelises
                            // over the disjoint per-batch outputs.
                            focus_tensor::exec::bcast_nt_dx(
                                g.data(),
                                aval.data(),
                                bsz,
                                k,
                                l,
                                d,
                                dx.data_mut(),
                            );
                        } else {
                            for b in 0..bsz {
                                let gb = g.index_axis0(b); // [k, l]
                                let slice = gb.matmul_tn(aval); // gbᵀ·a → [l, d]
                                dx.data_mut()[b * l * d..(b + 1) * l * d]
                                    .copy_from_slice(slice.data());
                            }
                        }
                        dx
                    });
                    (da, dx)
                };
                if let Some(da) = da {
                    self.accum(a, da);
                }
                if let Some(dx) = dx {
                    self.accum(x, dx);
                }
            }
            Op::Transpose2(a) => self.accum(*a, g.transpose()),
            Op::TransposeLast2(a) => self.accum(*a, g.transpose_last2()),
            Op::SwapAxes01(a) => self.accum(*a, crate::graph::swap01(g)),
            Op::Reshape(a) => {
                // A reshape preserves the flat element order, so on the fused
                // path an existing accumulator takes the gradient directly —
                // no reshaped copy. A fresh slot still materialises one (it
                // owns the tensor), matching the reference bit-for-bit.
                if !crate::fused_enabled() {
                    let dg = g.reshape(self.nodes[a.0].value.dims());
                    self.accum(*a, dg);
                } else if self.nodes[a.0].requires_grad {
                    match &mut self.grads[a.0] {
                        Some(existing) => existing.axpy_flat(1.0, g),
                        slot @ None => *slot = Some(g.reshape(self.nodes[a.0].value.dims())),
                    }
                }
            }
            Op::AddRowBroadcast(x, bias) => {
                self.accum_scaled(*x, 1.0, g);
                if self.nodes[bias.0].requires_grad {
                    let n = g.shape().last_dim();
                    let rows = g.shape().leading();
                    let db = if crate::fused_enabled() {
                        // Column-parallel: each bias element keeps the serial
                        // row-ascending accumulation chain, so the split is
                        // bitwise-identical to the reference at any thread
                        // count.
                        let mut db = Tensor::zeros(self.nodes[bias.0].value.dims());
                        let col_grain = (16 * 1024 / rows.max(1)).max(1);
                        par::parallel_rows(db.data_mut(), 1, col_grain, 1, |col0, chunk| {
                            // Row-major sweep, chunk as accumulator: each
                            // column keeps its ascending-row chain.
                            let w = chunk.len();
                            for r in 0..rows {
                                let gr = &g.data()[r * n + col0..r * n + col0 + w];
                                for (o, &v) in chunk.iter_mut().zip(gr) {
                                    *o += v;
                                }
                            }
                        });
                        db
                    } else {
                        let mut db = vec![0.0f32; n]; // focus-lint: allow(pool-bypass) -- reference path, deliberately heap-allocated for parity with pre-pool code
                        for r in 0..rows {
                            for (o, &v) in db.iter_mut().zip(&g.data()[r * n..(r + 1) * n]) {
                                *o += v;
                            }
                        }
                        Tensor::from_vec(db, self.nodes[bias.0].value.dims())
                    };
                    self.accum(*bias, db);
                }
            }
            Op::SoftmaxLast(a) => {
                // dx = y ⊙ (g − ⟨g, y⟩_row)
                let y = &self.nodes[i].value;
                let dx = if crate::fused_enabled() {
                    fused::softmax_last_bwd(y, g)
                } else {
                    let n = y.shape().last_dim();
                    let rows = y.shape().leading();
                    let mut dx = Tensor::zeros(y.dims());
                    for r in 0..rows {
                        let yr = &y.data()[r * n..(r + 1) * n];
                        let gr = &g.data()[r * n..(r + 1) * n];
                        let dot: f32 = yr.iter().zip(gr).map(|(a, b)| a * b).sum();
                        for (o, (yv, gv)) in dx.data_mut()[r * n..(r + 1) * n]
                            .iter_mut()
                            .zip(yr.iter().zip(gr))
                        {
                            *o = yv * (gv - dot);
                        }
                    }
                    dx
                };
                self.accum(*a, dx);
            }
            Op::LayerNormLast { x, gamma, beta, cache, .. } => {
                let (x, gamma, beta) = (*x, *gamma, *beta);
                let (dx, dgamma, dbeta) = {
                    let xval = &self.nodes[x.0].value;
                    let gval = self.nodes[gamma.0].value.data();
                    if crate::fused_enabled() {
                        fused::layer_norm_bwd(xval, gval, cache, g)
                    } else {
                        let n = xval.shape().last_dim();
                        let rows = xval.shape().leading();
                        let cd = cache.data();
                        let mut dgamma = vec![0.0f32; n]; // focus-lint: allow(pool-bypass) -- reference path, deliberately heap-allocated for parity with pre-pool code
                        let mut dbeta = vec![0.0f32; n]; // focus-lint: allow(pool-bypass) -- reference path, deliberately heap-allocated for parity with pre-pool code
                        let mut dx = Tensor::zeros(xval.dims());
                        for r in 0..rows {
                            let xr = &xval.data()[r * n..(r + 1) * n];
                            let gr = &g.data()[r * n..(r + 1) * n];
                            let (mu, rstd) = (cd[2 * r], cd[2 * r + 1]);
                            // dŷ = g ⊙ γ; accumulate row statistics for dx
                            // in the fused kernel's fixed-lane order.
                            let mut sum_dy = [0.0f32; LANES];
                            let mut sum_dy_xhat = [0.0f32; LANES];
                            for j in 0..n {
                                let xhat = (xr[j] - mu) * rstd;
                                let dy = gr[j] * gval[j];
                                sum_dy[j % LANES] += dy;
                                sum_dy_xhat[j % LANES] += dy * xhat;
                                dgamma[j] += gr[j] * xhat;
                                dbeta[j] += gr[j];
                            }
                            let sum_dy = combine_lanes(sum_dy);
                            let sum_dy_xhat = combine_lanes(sum_dy_xhat);
                            let inv_n = 1.0 / n as f32;
                            for j in 0..n {
                                let xhat = (xr[j] - mu) * rstd;
                                let dy = gr[j] * gval[j];
                                dx.data_mut()[r * n + j] =
                                    rstd * (dy - sum_dy * inv_n - xhat * sum_dy_xhat * inv_n);
                            }
                        }
                        let n_dims = [n];
                        (
                            dx,
                            Tensor::from_vec(dgamma, &n_dims),
                            Tensor::from_vec(dbeta, &n_dims),
                        )
                    }
                };
                self.accum(x, dx);
                if self.nodes[gamma.0].requires_grad {
                    self.accum(gamma, dgamma);
                }
                if self.nodes[beta.0].requires_grad {
                    self.accum(beta, dbeta);
                }
            }
            Op::Relu(a) => {
                let dx = self.activation_bwd(*a, i, g, |x, g| if x > 0.0 { g } else { 0.0 }, true);
                self.accum(*a, dx);
            }
            Op::Gelu(a) => {
                let dx = self.activation_bwd(*a, i, g, |x, g| g * gelu_bwd(x), true);
                self.accum(*a, dx);
            }
            Op::Sigmoid(a) => {
                let dx = self.activation_bwd(*a, i, g, |y, g| g * y * (1.0 - y), false);
                self.accum(*a, dx);
            }
            Op::Tanh(a) => {
                let dx = self.activation_bwd(*a, i, g, |y, g| g * (1.0 - y * y), false);
                self.accum(*a, dx);
            }
            Op::Abs(a) => {
                let rule = |x: f32, g: f32| {
                    if x > 0.0 {
                        g
                    } else if x < 0.0 {
                        -g
                    } else {
                        0.0
                    }
                };
                let dx = self.activation_bwd(*a, i, g, rule, true);
                self.accum(*a, dx);
            }
            Op::ConcatLast(a, b, split) => {
                let (ga, gb) = g.split_last(*split);
                // split_last keeps the leading dims; reshape to exact input dims
                // (identical by construction).
                self.accum(*a, ga);
                self.accum(*b, gb);
            }
            Op::SliceLast(a, start, end) => {
                // Scatter the gradient back into a zero tensor of the input
                // shape.
                let (a, start, end) = (*a, *start, *end);
                let n = self.nodes[a.0].value.shape().last_dim();
                let width = end - start;
                let rows = self.nodes[a.0].value.shape().leading();
                let mut dx = Tensor::zeros(self.nodes[a.0].value.dims());
                for r in 0..rows {
                    dx.data_mut()[r * n + start..r * n + end]
                        .copy_from_slice(&g.data()[r * width..(r + 1) * width]);
                }
                self.accum(a, dx);
            }
            Op::MeanAll(a) => {
                let n = self.nodes[a.0].value.numel();
                let dg = Tensor::full(self.nodes[a.0].value.dims(), g.item() / n as f32);
                self.accum(*a, dg);
            }
            Op::SumAll(a) => {
                let dg = Tensor::full(self.nodes[a.0].value.dims(), g.item());
                self.accum(*a, dg);
            }
        }
    }

    /// Backward for a pointwise nonlinearity: `dx = rule(v, g)` element by
    /// element, where `v` is the op's *input* (`from_input`) or its cached
    /// *output* (for sigmoid/tanh, whose derivatives are cheapest in terms of
    /// `y`). The fused path streams through the pooled parallel `zip_with`;
    /// the reference path keeps the original collect-into-Vec loop.
    fn activation_bwd(
        &self,
        a: Var,
        node: usize,
        g: &Tensor,
        rule: impl Fn(f32, f32) -> f32 + Sync,
        from_input: bool,
    ) -> Tensor {
        let v = if from_input {
            &self.nodes[a.0].value
        } else {
            &self.nodes[node].value
        };
        if crate::fused_enabled() {
            v.zip_with(g, rule)
        } else {
            let data = v.data().iter().zip(g.data()).map(|(&v, &g)| rule(v, g)).collect();
            Tensor::from_vec(data, v.dims())
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::Graph;
    use focus_tensor::Tensor;

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
}
