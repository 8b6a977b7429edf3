//! Plan VM: runs a compiled [`Plan`] through a compact opcode dispatch.
//!
//! Every instruction calls a `focus_tensor::exec` slice kernel, so the VM
//! is the one executor: the tape only records, and every forward value and
//! every gradient comes from here — [`crate::Graph::value`],
//! [`crate::Graph::backward`], uncached training steps and forward passes,
//! and replays alike. Each kernel is bitwise-identical at any thread count,
//! and the parity suites hold the VM's forward and backward to the
//! reference oracle (`crate::oracle`), which runs no plan, bit for bit.
//!
//! Slot buffers are plain `Vec<f32>`s owned by the caller (sized once when a
//! plan is compiled); the dispatch `mem::take`s an instruction's destinations,
//! borrows its arguments immutably, runs the kernel, and puts the
//! destinations back. No tensor-pool traffic happens in the dispatch —
//! `replay_train` measures the pool-lookup delta around the whole step and
//! `replay_forward` around its sweep, and both publish it as
//! `plan/pool_lookups_steady` (expected: 0). A forward replay then takes
//! one pooled buffer for the output it returns.

use focus_tensor::{exec, pool, Tensor};

use crate::optim::{Optimizer, ParamStore};
use crate::plan::{Instr, Loc, OpCode, Plan};

/// Where `Loc::Param` operands live: the [`ParamStore`] on the training and
/// forward paths, the tape's own trainable leaves under
/// [`crate::Graph::backward`] and [`crate::Graph::value`].
pub(crate) trait Params {
    fn param(&self, i: usize) -> &[f32];
}

impl Params for ParamStore {
    fn param(&self, i: usize) -> &[f32] {
        self.tensor_at(i).data()
    }
}

impl Params for [&Tensor] {
    fn param(&self, i: usize) -> &[f32] {
        self[i].data()
    }
}

/// Resolves an argument location to a slice of exactly `n` elements.
#[inline]
fn arg<'s, P: Params + ?Sized>(
    loc: Loc,
    n: usize,
    slots: &'s [Vec<f32>],
    plan: &'s Plan,
    inputs: &'s [&'s [f32]],
    store: &'s P,
) -> &'s [f32] {
    match loc {
        Loc::Slot(i) => &slots[i as usize][..n],
        Loc::Param(i) => &store.param(i as usize)[..n],
        Loc::Input(i) => &inputs[i as usize][..n],
        Loc::Static(i) => &plan.statics[i as usize].1[..n],
    }
}

#[inline]
fn take(slots: &mut [Vec<f32>], slot: u32) -> Vec<f32> {
    std::mem::take(&mut slots[slot as usize])
}

#[inline]
fn put(slots: &mut [Vec<f32>], slot: u32, buf: Vec<f32>) {
    slots[slot as usize] = buf;
}

/// Executes one instruction. `dims` semantics per opcode match what the
/// compiler emitted (kernel-call geometry, not tape-node shape).
fn exec_instr<P: Params + ?Sized>(
    instr: &Instr,
    plan: &Plan,
    slots: &mut [Vec<f32>],
    inputs: &[&[f32]],
    routes: &[&[u32]],
    store: &P,
) {
    let d = &instr.dims;
    let du = |i: usize| d[i] as usize;
    match instr.op {
        // dims [numel]
        OpCode::ZipAdd
        | OpCode::ZipSub
        | OpCode::ZipMul
        | OpCode::ZipReluBwd
        | OpCode::ZipGeluBwd
        | OpCode::ZipAbsBwd
        | OpCode::ZipSigmoidBwd
        | OpCode::ZipTanhBwd => {
            let n = du(0);
            let mut dst = take(slots, instr.dsts[0]);
            {
                let a = arg(instr.args[0], n, slots, plan, inputs, store);
                let b = arg(instr.args[1], n, slots, plan, inputs, store);
                let out = &mut dst[..n];
                match instr.op {
                    OpCode::ZipAdd => exec::zip_add(a, b, out),
                    OpCode::ZipSub => exec::zip_sub(a, b, out),
                    OpCode::ZipMul => exec::zip_mul(a, b, out),
                    OpCode::ZipReluBwd => exec::zip_relu_bwd(a, b, out),
                    OpCode::ZipGeluBwd => exec::zip_gelu_bwd(a, b, out),
                    OpCode::ZipAbsBwd => exec::zip_abs_bwd(a, b, out),
                    OpCode::ZipSigmoidBwd => exec::zip_sigmoid_bwd(a, b, out),
                    OpCode::ZipTanhBwd => exec::zip_tanh_bwd(a, b, out),
                    _ => unreachable!(),
                }
            }
            put(slots, instr.dsts[0], dst);
        }
        // dims [numel]
        OpCode::MapScale
        | OpCode::MapAddScalar
        | OpCode::MapRelu
        | OpCode::MapGelu
        | OpCode::MapSigmoid
        | OpCode::MapTanh
        | OpCode::MapAbs
        | OpCode::Copy => {
            let n = du(0);
            let mut dst = take(slots, instr.dsts[0]);
            {
                let src = arg(instr.args[0], n, slots, plan, inputs, store);
                let out = &mut dst[..n];
                match instr.op {
                    OpCode::MapScale => exec::map_scale(src, instr.imm, out),
                    OpCode::MapAddScalar => exec::map_add_scalar(src, instr.imm, out),
                    OpCode::MapRelu => exec::map_relu(src, out),
                    OpCode::MapGelu => exec::map_gelu(src, out),
                    OpCode::MapSigmoid => exec::map_sigmoid(src, out),
                    OpCode::MapTanh => exec::map_tanh(src, out),
                    OpCode::MapAbs => exec::map_abs(src, out),
                    OpCode::Copy => exec::copy(src, out),
                    _ => unreachable!(),
                }
            }
            put(slots, instr.dsts[0], dst);
        }
        // dims [numel]; imm = alpha; destination is read-modify-write
        OpCode::Axpy => {
            let n = du(0);
            let mut dst = take(slots, instr.dsts[0]);
            {
                let src = arg(instr.args[0], n, slots, plan, inputs, store);
                exec::axpy(&mut dst[..n], instr.imm, src);
            }
            put(slots, instr.dsts[0], dst);
        }
        // dims [numel]; imm = value; no args
        OpCode::Fill => {
            let n = du(0);
            let mut dst = take(slots, instr.dsts[0]);
            exec::fill(&mut dst[..n], instr.imm);
            put(slots, instr.dsts[0], dst);
        }
        // dims [numel]; imm = divisor: arg [scalar: 1] -> dst numel
        OpCode::Splat => {
            let n = du(0);
            let mut dst = take(slots, instr.dsts[0]);
            let v = arg(instr.args[0], 1, slots, plan, inputs, store)[0] / instr.imm;
            exec::fill(&mut dst[..n], v);
            put(slots, instr.dsts[0], dst);
        }
        // dims [m, k, n] in dispatch order
        OpCode::GemmNn | OpCode::GemmNt | OpCode::GemmTn => {
            let (m, k, n) = (du(0), du(1), du(2));
            let (an, bn, trans) = match instr.op {
                OpCode::GemmNn => (m * k, k * n, exec::Trans::Nn),
                OpCode::GemmNt => (m * k, n * k, exec::Trans::Nt),
                OpCode::GemmTn => (k * m, k * n, exec::Trans::Tn),
                _ => unreachable!(),
            };
            let mut dst = take(slots, instr.dsts[0]);
            {
                let a = arg(instr.args[0], an, slots, plan, inputs, store);
                let b = arg(instr.args[1], bn, slots, plan, inputs, store);
                exec::gemm(trans, m, k, n, a, b, &mut dst[..m * n]);
            }
            put(slots, instr.dsts[0], dst);
        }
        // dims [bt, m, k, n] in dispatch order
        OpCode::BmmNn | OpCode::BmmNt | OpCode::BmmTn => {
            let (bt, m, k, n) = (du(0), du(1), du(2), du(3));
            let (an, bn, trans) = match instr.op {
                OpCode::BmmNn => (bt * m * k, bt * k * n, exec::Trans::Nn),
                OpCode::BmmNt => (bt * m * k, bt * n * k, exec::Trans::Nt),
                OpCode::BmmTn => (bt * k * m, bt * k * n, exec::Trans::Tn),
                _ => unreachable!(),
            };
            let mut dst = take(slots, instr.dsts[0]);
            {
                let a = arg(instr.args[0], an, slots, plan, inputs, store);
                let b = arg(instr.args[1], bn, slots, plan, inputs, store);
                exec::bmm(trans, bt, m, k, n, a, b, &mut dst[..bt * m * n]);
            }
            put(slots, instr.dsts[0], dst);
        }
        // dims [bsz, k, d, l]: args [a: k*d, x: bsz*l*d] -> dst bsz*k*l
        OpCode::BcastNt => {
            let (bsz, k, dd, l) = (du(0), du(1), du(2), du(3));
            let mut dst = take(slots, instr.dsts[0]);
            {
                let a = arg(instr.args[0], k * dd, slots, plan, inputs, store);
                let x = arg(instr.args[1], bsz * l * dd, slots, plan, inputs, store);
                exec::bcast_nt(bsz, k, dd, l, a, x, &mut dst[..bsz * k * l]);
            }
            put(slots, instr.dsts[0], dst);
        }
        // dims [bsz, k, l, d]: args [g: bsz*k*l, x: bsz*l*d] -> dst da: k*d
        OpCode::BcastNtDa => {
            let (bsz, k, l, dd) = (du(0), du(1), du(2), du(3));
            let mut da = take(slots, instr.dsts[0]);
            {
                let g = arg(instr.args[0], bsz * k * l, slots, plan, inputs, store);
                let x = arg(instr.args[1], bsz * l * dd, slots, plan, inputs, store);
                exec::bcast_nt_da(g, x, bsz, k, l, dd, &mut da[..k * dd]);
            }
            put(slots, instr.dsts[0], da);
        }
        // dims [bsz, k, l, d]: args [g: bsz*k*l, a: k*d] -> dst bsz*l*d
        OpCode::BcastNtDx => {
            let (bsz, k, l, dd) = (du(0), du(1), du(2), du(3));
            let mut dst = take(slots, instr.dsts[0]);
            {
                let g = arg(instr.args[0], bsz * k * l, slots, plan, inputs, store);
                let a = arg(instr.args[1], k * dd, slots, plan, inputs, store);
                exec::bcast_nt_dx(g, a, bsz, k, l, dd, &mut dst[..bsz * l * dd]);
            }
            put(slots, instr.dsts[0], dst);
        }
        // dims [route_src, b, k, d, l]: arg [head: b*k*d] -> dst b*l*d
        OpCode::RouteGather => {
            let (src, b, k, dd, l) = (du(0), du(1), du(2), du(3), du(4));
            let mut dst = take(slots, instr.dsts[0]);
            {
                let head = arg(instr.args[0], b * k * dd, slots, plan, inputs, store);
                exec::route_gather(head, routes[src], b, k, dd, l, &mut dst[..b * l * dd]);
            }
            put(slots, instr.dsts[0], dst);
        }
        // dims [route_src, b, l, d, k]: arg [g: b*l*d] -> dst b*k*d
        OpCode::RouteScatter => {
            let (src, b, l, dd, k) = (du(0), du(1), du(2), du(3), du(4));
            let mut dst = take(slots, instr.dsts[0]);
            {
                let g = arg(instr.args[0], b * l * dd, slots, plan, inputs, store);
                exec::route_scatter_add(g, routes[src], b, l, dd, k, &mut dst[..b * k * dd]);
            }
            put(slots, instr.dsts[0], dst);
        }
        // dims [rows, n]: args [x: rows*n, row: n]
        OpCode::AddRowBcast => {
            let (rows, n) = (du(0), du(1));
            let mut dst = take(slots, instr.dsts[0]);
            {
                let x = arg(instr.args[0], rows * n, slots, plan, inputs, store);
                let row = arg(instr.args[1], n, slots, plan, inputs, store);
                exec::add_row_broadcast(x, row, n, &mut dst[..rows * n]);
            }
            put(slots, instr.dsts[0], dst);
        }
        // dims [rows, n]: arg [g: rows*n] -> dst n
        OpCode::BiasGrad => {
            let (rows, n) = (du(0), du(1));
            let mut dst = take(slots, instr.dsts[0]);
            {
                let g = arg(instr.args[0], rows * n, slots, plan, inputs, store);
                exec::bias_grad(g, rows, n, &mut dst[..n]);
            }
            put(slots, instr.dsts[0], dst);
        }
        // dims [rows, n]
        OpCode::Softmax => {
            let (rows, n) = (du(0), du(1));
            let mut dst = take(slots, instr.dsts[0]);
            {
                let src = arg(instr.args[0], rows * n, slots, plan, inputs, store);
                exec::softmax_last(src, n, &mut dst[..rows * n]);
            }
            put(slots, instr.dsts[0], dst);
        }
        // dims [rows, n]: args [y, g]
        OpCode::SoftmaxBwd => {
            let (rows, n) = (du(0), du(1));
            let mut dst = take(slots, instr.dsts[0]);
            {
                let y = arg(instr.args[0], rows * n, slots, plan, inputs, store);
                let g = arg(instr.args[1], rows * n, slots, plan, inputs, store);
                exec::softmax_last_bwd(y, g, n, &mut dst[..rows * n]);
            }
            put(slots, instr.dsts[0], dst);
        }
        // dims [rows, n]; imm = eps: args [x, gamma, beta] -> dsts [y, cache]
        OpCode::LayerNormFwd => {
            let (rows, n) = (du(0), du(1));
            let mut y = take(slots, instr.dsts[0]);
            let mut cache = take(slots, instr.dsts[1]);
            {
                let x = arg(instr.args[0], rows * n, slots, plan, inputs, store);
                let gamma = arg(instr.args[1], n, slots, plan, inputs, store);
                let beta = arg(instr.args[2], n, slots, plan, inputs, store);
                exec::layer_norm_fwd(
                    x,
                    n,
                    gamma,
                    beta,
                    instr.imm,
                    &mut y[..rows * n],
                    &mut cache[..rows * 2],
                );
            }
            put(slots, instr.dsts[0], y);
            put(slots, instr.dsts[1], cache);
        }
        // dims [rows, n]: args [x, gamma, cache, g] -> dsts [dx, dgamma, dbeta]
        OpCode::LayerNormBwd => {
            let (rows, n) = (du(0), du(1));
            let mut dx = take(slots, instr.dsts[0]);
            let mut dgamma = take(slots, instr.dsts[1]);
            let mut dbeta = take(slots, instr.dsts[2]);
            {
                let x = arg(instr.args[0], rows * n, slots, plan, inputs, store);
                let gamma = arg(instr.args[1], n, slots, plan, inputs, store);
                let cache = arg(instr.args[2], rows * 2, slots, plan, inputs, store);
                let g = arg(instr.args[3], rows * n, slots, plan, inputs, store);
                exec::layer_norm_bwd(
                    x,
                    n,
                    gamma,
                    cache,
                    g,
                    &mut dx[..rows * n],
                    &mut dgamma[..n],
                    &mut dbeta[..n],
                );
            }
            put(slots, instr.dsts[0], dx);
            put(slots, instr.dsts[1], dgamma);
            put(slots, instr.dsts[2], dbeta);
        }
        // dims [m, n] of the source
        OpCode::Transpose2 => {
            let (m, n) = (du(0), du(1));
            let mut dst = take(slots, instr.dsts[0]);
            {
                let src = arg(instr.args[0], m * n, slots, plan, inputs, store);
                exec::transpose2(src, m, n, &mut dst[..m * n]);
            }
            put(slots, instr.dsts[0], dst);
        }
        // dims [b, m, n] of the source
        OpCode::TransposeLast2 => {
            let (b, m, n) = (du(0), du(1), du(2));
            let mut dst = take(slots, instr.dsts[0]);
            {
                let src = arg(instr.args[0], b * m * n, slots, plan, inputs, store);
                exec::transpose_last2(src, b, m, n, &mut dst[..b * m * n]);
            }
            put(slots, instr.dsts[0], dst);
        }
        // dims [a, b, c] of the source
        OpCode::Swap01 => {
            let (a0, b0, c0) = (du(0), du(1), du(2));
            let mut dst = take(slots, instr.dsts[0]);
            {
                let src = arg(instr.args[0], a0 * b0 * c0, slots, plan, inputs, store);
                exec::swap01(src, a0, b0, c0, &mut dst[..a0 * b0 * c0]);
            }
            put(slots, instr.dsts[0], dst);
        }
        // dims [rows, na, nb]: args [a: rows*na, b: rows*nb]
        OpCode::ConcatLast => {
            let (rows, na, nb) = (du(0), du(1), du(2));
            let mut dst = take(slots, instr.dsts[0]);
            {
                let a = arg(instr.args[0], rows * na, slots, plan, inputs, store);
                let b = arg(instr.args[1], rows * nb, slots, plan, inputs, store);
                exec::concat_last(a, b, na, nb, rows, &mut dst[..rows * (na + nb)]);
            }
            put(slots, instr.dsts[0], dst);
        }
        // dims [rows, n, from, to]: arg [src: rows*n] -> dst rows*(to-from)
        OpCode::SliceCols => {
            let (rows, n, from, to) = (du(0), du(1), du(2), du(3));
            let mut dst = take(slots, instr.dsts[0]);
            {
                let src = arg(instr.args[0], rows * n, slots, plan, inputs, store);
                exec::slice_cols(src, n, from, to, rows, &mut dst[..rows * (to - from)]);
            }
            put(slots, instr.dsts[0], dst);
        }
        // dims [rows, n, start, w]: arg [g: rows*w] -> dst rows*n
        OpCode::ScatterCols => {
            let (rows, n, start, w) = (du(0), du(1), du(2), du(3));
            let mut dst = take(slots, instr.dsts[0]);
            {
                let g = arg(instr.args[0], rows * w, slots, plan, inputs, store);
                exec::scatter_cols(g, n, start, w, rows, &mut dst[..rows * n]);
            }
            put(slots, instr.dsts[0], dst);
        }
        // dims [numel] -> dst 1
        OpCode::MeanAll | OpCode::SumAll => {
            let n = du(0);
            let mut dst = take(slots, instr.dsts[0]);
            {
                let src = arg(instr.args[0], n, slots, plan, inputs, store);
                dst[0] = match instr.op {
                    OpCode::MeanAll => exec::mean_all(src),
                    OpCode::SumAll => exec::sum_all(src),
                    _ => unreachable!(),
                };
            }
            put(slots, instr.dsts[0], dst);
        }
    }
}

/// Runs every instruction of `plan` once: the forward pass, and for a
/// training plan the backward pass, leaving each gradient in its update slot.
pub(crate) fn run<P: Params + ?Sized>(
    plan: &Plan,
    slots: &mut [Vec<f32>],
    inputs: &[&[f32]],
    routes: &[&[u32]],
    params: &P,
) {
    for instr in &plan.instrs {
        exec_instr(instr, plan, slots, inputs, routes, params);
    }
}

/// Runs one full training step — forward, backward and optimizer updates —
/// returning the loss.
///
/// The pool-lookup delta across the whole step (kernels *and* updates) is
/// published as `plan/pool_lookups_steady`; on the steady-state path it is
/// zero, which is the whole point of pre-resolved slots.
pub(crate) fn replay_train<O: Optimizer>(
    plan: &Plan,
    slots: &mut [Vec<f32>],
    inputs: &[&[f32]],
    routes: &[&[u32]],
    store: &mut ParamStore,
    opt: &mut O,
) -> f32 {
    let lookups0 = pool::lookups();
    {
        focus_trace::span!("plan/replay");
        run(plan, slots, inputs, routes, &*store);
    }
    let loss = slots[plan.loss_slot.expect("replay_train on a forward plan") as usize][0];
    {
        focus_trace::span!("autograd/optimizer");
        opt.begin_step(plan.params.len());
        for u in &plan.updates {
            // Move the gradient slot into a Tensor without touching the
            // pool: `from_vec`/`into_vec` wrap and unwrap the same buffer,
            // and the emptied slot Vec has capacity 0, so nothing is
            // reclaimed when it is shadowed.
            let mut gv = take(slots, u.grad_slot);
            let cap = gv.len();
            let numel: usize = u.dims.iter().product();
            gv.truncate(numel);
            let gt = Tensor::from_vec(gv, &u.dims);
            opt.update(u.param as usize, store.tensor_mut_at(u.param as usize), &gt);
            let mut gv = gt.into_vec();
            gv.resize(cap, 0.0);
            put(slots, u.grad_slot, gv);
        }
    }
    focus_trace::counter_set("plan/pool_lookups_steady", pool::lookups() - lookups0);
    loss
}

/// Runs a forward-only plan, returning the output tensor in a pooled
/// buffer. `plan/pool_lookups_steady` covers the instruction sweep only, not
/// the output's one pool lookup.
pub(crate) fn replay_forward(
    plan: &Plan,
    slots: &mut [Vec<f32>],
    inputs: &[&[f32]],
    routes: &[&[u32]],
    store: &ParamStore,
) -> Tensor {
    let lookups0 = pool::lookups();
    {
        focus_trace::span!("plan/replay");
        run(plan, slots, inputs, routes, store);
    }
    focus_trace::counter_set("plan/pool_lookups_steady", pool::lookups() - lookups0);
    let (slot, dims) = plan.output.as_ref().expect("replay_forward on a train plan");
    let numel: usize = dims.iter().product();
    Tensor::from_vec(pool::take_copy(&slots[*slot as usize][..numel]), dims)
}
