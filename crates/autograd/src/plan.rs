//! Tape → plan compiler: lowers one recorded forward/backward step into a
//! flat instruction stream with pre-resolved buffer slots. This module's
//! emitter is the one definition of how each tape op differentiates:
//! [`Graph::backward`], every uncached training step and every replayed step
//! all run the plans it lowers.
//!
//! 1. **Forward emission** walks the recorded nodes once and emits one
//!    [`Instr`] per kernel call (`Op::Reshape` emits nothing — it is a
//!    location alias).
//! 2. **Symbolic backward** emits each op's adjoint kernels in reverse tape
//!    order. Gradients of scalar nodes on the loss chain stay compile-time
//!    `f32` constants, folded with the same arithmetic a runtime pass would
//!    do, so they cost no instructions.
//! 3. **Liveness + slot allocation** assigns every virtual register to a
//!    pool-class-sized slot (`numel.next_power_of_two()`) with a per-class
//!    free list, destinations allocated before dying operands are released.
//!    Replay then performs zero pool lookups and zero graph traversal: the
//!    VM (`crate::vm`) just dispatches the opcode match.
//!
//! Every compiled plan passes the static verifier ([`verify::verify_plan`])
//! before it runs; a rejection is a compiler bug and surfaces as
//! [`CompileError::Rejected`], naming the instruction.
//!
//! # Binding and caching
//!
//! A tape records ops and dims; its only data are the tensors its leaves and
//! inputs hold. The compiler must know which of those are the same on every
//! step and which are per-step data, and the tape says so itself: a node
//! recorded with [`Graph::input`] lowers to [`Loc::Input`]`(k)`, `k` its
//! record order, and a `RouteOneHot` reads the route its
//! [`Route`](crate::Route) handle registered; a constant leaf only ever
//! becomes a static, deduplicated by bits. So a plan compiled from one
//! window replays every later window of the same shapes. [`PlanCache`]
//! keeps that plan: a step that cannot replay records its tape, compiles it,
//! runs it and keeps the plan; a shape change drops it. Each model's
//! [`ParamStore`] keeps one such cache for its forward pass
//! ([`ParamStore::run_forward`]).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

use focus_tensor::{pool, work, Tensor};

use crate::graph::{Graph, Op, Var};
use crate::optim::{Optimizer, ParamStore, ParamVars};
use crate::vm;

pub use crate::verify;

// ---------------------------------------------------------------------------
// Global toggle
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Enables or disables plan caching process-wide.
///
/// With caching disabled, [`PlanCache`] never keeps a plan and never
/// replays: every training step records its tape, compiles it and runs that
/// plan once. Used by the benchmarks and parity tests to compare the
/// never-cached path with replay under otherwise identical settings.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// True if plan caching and replay are enabled (the default).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Plan IR
// ---------------------------------------------------------------------------

/// Operand location, pre-resolved at compile time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Loc {
    /// A scratch slot owned by the plan (`slots[i]`).
    Slot(u32),
    /// A parameter tensor in the [`ParamStore`], read at its current value.
    Param(u32),
    /// The caller's `k`-th input slice: the tape's `k`-th
    /// [`Graph::input`] (a window, a target, a per-window operand).
    Input(u8),
    /// A constant snapshot baked into the plan (e.g. prototypes).
    Static(u32),
}

/// The flat opcode set: one variant per tensor kernel the training step uses.
///
/// `dims` semantics per opcode are documented on the VM dispatch
/// (`crate::vm`); they always describe the *kernel call*, e.g. GEMM opcodes
/// carry `[m, k, n]` in dispatch order, not the tape node's shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpCode {
    ZipAdd,
    ZipSub,
    ZipMul,
    ZipReluBwd,
    ZipGeluBwd,
    ZipAbsBwd,
    ZipSigmoidBwd,
    ZipTanhBwd,
    MapScale,
    MapAddScalar,
    MapRelu,
    MapGelu,
    MapSigmoid,
    MapTanh,
    MapAbs,
    GemmNn,
    GemmNt,
    GemmTn,
    BmmNn,
    BmmNt,
    BmmTn,
    BcastNt,
    BcastNtDa,
    BcastNtDx,
    RouteGather,
    RouteScatter,
    AddRowBcast,
    BiasGrad,
    Softmax,
    SoftmaxBwd,
    LayerNormFwd,
    LayerNormBwd,
    Transpose2,
    TransposeLast2,
    Swap01,
    ConcatLast,
    SliceCols,
    ScatterCols,
    MeanAll,
    SumAll,
    Fill,
    Splat,
    Copy,
    Axpy,
}

impl OpCode {
    /// Every opcode, in declaration order. Public so the verifier, the parity
    /// corpus and coverage tooling can enumerate the instruction set.
    pub const ALL: [OpCode; 44] = [
        OpCode::ZipAdd,
        OpCode::ZipSub,
        OpCode::ZipMul,
        OpCode::ZipReluBwd,
        OpCode::ZipGeluBwd,
        OpCode::ZipAbsBwd,
        OpCode::ZipSigmoidBwd,
        OpCode::ZipTanhBwd,
        OpCode::MapScale,
        OpCode::MapAddScalar,
        OpCode::MapRelu,
        OpCode::MapGelu,
        OpCode::MapSigmoid,
        OpCode::MapTanh,
        OpCode::MapAbs,
        OpCode::GemmNn,
        OpCode::GemmNt,
        OpCode::GemmTn,
        OpCode::BmmNn,
        OpCode::BmmNt,
        OpCode::BmmTn,
        OpCode::BcastNt,
        OpCode::BcastNtDa,
        OpCode::BcastNtDx,
        OpCode::RouteGather,
        OpCode::RouteScatter,
        OpCode::AddRowBcast,
        OpCode::BiasGrad,
        OpCode::Softmax,
        OpCode::SoftmaxBwd,
        OpCode::LayerNormFwd,
        OpCode::LayerNormBwd,
        OpCode::Transpose2,
        OpCode::TransposeLast2,
        OpCode::Swap01,
        OpCode::ConcatLast,
        OpCode::SliceCols,
        OpCode::ScatterCols,
        OpCode::MeanAll,
        OpCode::SumAll,
        OpCode::Fill,
        OpCode::Splat,
        OpCode::Copy,
        OpCode::Axpy,
    ];

    /// Stable snake_case mnemonic used by diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            OpCode::ZipAdd => "zip_add",
            OpCode::ZipSub => "zip_sub",
            OpCode::ZipMul => "zip_mul",
            OpCode::ZipReluBwd => "zip_relu_bwd",
            OpCode::ZipGeluBwd => "zip_gelu_bwd",
            OpCode::ZipAbsBwd => "zip_abs_bwd",
            OpCode::ZipSigmoidBwd => "zip_sigmoid_bwd",
            OpCode::ZipTanhBwd => "zip_tanh_bwd",
            OpCode::MapScale => "map_scale",
            OpCode::MapAddScalar => "map_add_scalar",
            OpCode::MapRelu => "map_relu",
            OpCode::MapGelu => "map_gelu",
            OpCode::MapSigmoid => "map_sigmoid",
            OpCode::MapTanh => "map_tanh",
            OpCode::MapAbs => "map_abs",
            OpCode::GemmNn => "gemm_nn",
            OpCode::GemmNt => "gemm_nt",
            OpCode::GemmTn => "gemm_tn",
            OpCode::BmmNn => "bmm_nn",
            OpCode::BmmNt => "bmm_nt",
            OpCode::BmmTn => "bmm_tn",
            OpCode::BcastNt => "bcast_nt",
            OpCode::BcastNtDa => "bcast_nt_da",
            OpCode::BcastNtDx => "bcast_nt_dx",
            OpCode::RouteGather => "route_gather",
            OpCode::RouteScatter => "route_scatter",
            OpCode::AddRowBcast => "add_row_bcast",
            OpCode::BiasGrad => "bias_grad",
            OpCode::Softmax => "softmax",
            OpCode::SoftmaxBwd => "softmax_bwd",
            OpCode::LayerNormFwd => "layer_norm_fwd",
            OpCode::LayerNormBwd => "layer_norm_bwd",
            OpCode::Transpose2 => "transpose2",
            OpCode::TransposeLast2 => "transpose_last2",
            OpCode::Swap01 => "swap01",
            OpCode::ConcatLast => "concat_last",
            OpCode::SliceCols => "slice_cols",
            OpCode::ScatterCols => "scatter_cols",
            OpCode::MeanAll => "mean_all",
            OpCode::SumAll => "sum_all",
            OpCode::Fill => "fill",
            OpCode::Splat => "splat",
            OpCode::Copy => "copy",
            OpCode::Axpy => "axpy",
        }
    }
}

/// One kernel call with pre-resolved operand locations.
#[derive(Clone, Debug)]
pub struct Instr {
    pub op: OpCode,
    /// Destination slot ids. Most opcodes have one; `LayerNormFwd` has
    /// `[y, cache]`, `LayerNormBwd` has `[dx, dgamma, dbeta]`. `Axpy` reads
    /// *and* writes its destination.
    pub dsts: Vec<u32>,
    pub args: Vec<Loc>,
    /// Kernel-call geometry (see `crate::vm` dispatch for the per-opcode
    /// meaning).
    pub dims: Vec<u32>,
    /// Immediate scalar (scale factor, fill value, axpy alpha, LN epsilon).
    pub imm: f32,
}

impl PartialEq for Instr {
    fn eq(&self, other: &Self) -> bool {
        // Bitwise on the immediate: two plans are equal only if they bake in
        // the same constants, including NaN payloads and signed zero.
        self.op == other.op
            && self.dsts == other.dsts
            && self.args == other.args
            && self.dims == other.dims
            && self.imm.to_bits() == other.imm.to_bits()
    }
}

/// One parameter update: which slot holds the accumulated gradient for which
/// parameter, and the dims the optimizer sees.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpdateSpec {
    pub param: u32,
    pub grad_slot: u32,
    pub dims: Vec<usize>,
}

/// A compiled execution plan: flat instruction stream plus everything the VM
/// needs to replay it — slot capacities, baked constants, expected input /
/// route / parameter geometry, and the update list (train plans) or output
/// location (forward plans).
///
/// Equality is bitwise, baked constants included: two windows of one model
/// compile to equal plans unless the model records window data as a
/// constant.
#[derive(Clone, Debug)]
pub struct Plan {
    pub(crate) instrs: Vec<Instr>,
    pub(crate) slot_caps: Vec<usize>,
    pub(crate) statics: Vec<(Vec<usize>, Vec<f32>)>,
    pub(crate) inputs: Vec<Vec<usize>>,
    /// Per route: its index count, and the bound every index must stay
    /// under — the smallest prototype count `k` among the instructions that
    /// read it (`u32::MAX` when none does).
    pub(crate) routes: Vec<(usize, u32)>,
    pub(crate) params: Vec<Vec<usize>>,
    pub(crate) updates: Vec<UpdateSpec>,
    pub(crate) loss_slot: Option<u32>,
    pub(crate) output: Option<(u32, Vec<usize>)>,
    /// The most elements the plan's values hold at once (see
    /// [`Plan::live_peak_bytes`]).
    pub(crate) live_peak: usize,
}

impl PartialEq for Plan {
    fn eq(&self, other: &Self) -> bool {
        fn statics_eq(a: &[(Vec<usize>, Vec<f32>)], b: &[(Vec<usize>, Vec<f32>)]) -> bool {
            a.len() == b.len()
                && a.iter().zip(b).all(|((da, va), (db, vb))| {
                    da == db
                        && va.len() == vb.len()
                        && va.iter().zip(vb).all(|(x, y)| x.to_bits() == y.to_bits())
                })
        }
        self.instrs == other.instrs
            && self.slot_caps == other.slot_caps
            && statics_eq(&self.statics, &other.statics)
            && self.inputs == other.inputs
            && self.routes == other.routes
            && self.params == other.params
            && self.updates == other.updates
            && self.loss_slot == other.loss_slot
            && self.output == other.output
    }
}

impl Plan {
    /// The flat instruction stream, in execution order.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Bytes of the slot buffers the plan runs on: one buffer per slot, each
    /// sized to the power-of-two class of the values it holds.
    pub fn slot_bytes(&self) -> usize {
        self.slot_caps.iter().sum::<usize>() * std::mem::size_of::<f32>()
    }

    /// The most bytes the plan's values hold at once, each at its exact size
    /// from its first write to its last read. What [`Plan::slot_bytes`]
    /// adds on top is the allocator's rounding and class-wise reuse.
    pub fn live_peak_bytes(&self) -> usize {
        self.live_peak * std::mem::size_of::<f32>()
    }

    /// True if the caller-side geometry still matches what the plan was
    /// compiled against: input dims, route index counts and parameter dims.
    pub fn matches(&self, inputs: &[&Tensor], routes: &[&[u32]], store: &ParamStore) -> bool {
        inputs.len() == self.inputs.len()
            && inputs.iter().zip(&self.inputs).all(|(t, d)| t.dims() == &d[..])
            && routes.len() == self.routes.len()
            && routes.iter().zip(&self.routes).all(|(r, &(len, _))| r.len() == len)
            && store.len() == self.params.len()
            && (0..store.len()).all(|i| store.tensor_at(i).dims() == &self.params[i][..])
    }

    /// Checks every route index against its route's bound, once per replay:
    /// the kernels index with them unchecked, so an out-of-range value would
    /// read another batch's row.
    ///
    /// # Panics
    /// On the first index at or above its bound, naming the route, the
    /// position and the value.
    fn check_routes(&self, routes: &[&[u32]]) {
        for (r, (indices, &(_, k))) in routes.iter().zip(&self.routes).enumerate() {
            if let Some((pos, j)) = indices.iter().enumerate().find(|&(_, &j)| j >= k) {
                // focus-lint: allow(panic-hygiene) -- documented panic: replaying would silently read the wrong row, and the message names the route, position and value
                panic!("route {r}: routing index {j} at position {pos} out of range for k = {k}");
            }
        }
    }

    /// Sizes `slots` as this plan's slot buffers, keeping the ones a
    /// previous plan left at the right size and trading the rest with the
    /// tensor pool. Contents are unspecified: the verifier guarantees every
    /// slot is written before it is read. Replay itself never touches the
    /// pool; only this (re)sizing does.
    pub(crate) fn fit_slots(&self, slots: &mut Vec<Vec<f32>>) {
        let n = self.slot_caps.len();
        slots.drain(n.min(slots.len())..).for_each(pool::give);
        slots.resize_with(n, Vec::new);
        for (slot, &cap) in slots.iter_mut().zip(&self.slot_caps) {
            if slot.len() != cap {
                pool::give(std::mem::replace(slot, pool::take(cap)));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Compile errors
// ---------------------------------------------------------------------------

/// Why a tape could not be lowered to a plan. There is no other executor to
/// fall back to, so callers report these as errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// A trainable leaf on the tape is not registered in the [`ParamStore`].
    UntrackedParamLeaf(usize),
    /// The loss node is not scalar.
    NonScalarLoss,
    /// More tape inputs than the `Input(u8)` encoding supports.
    TooManyInputs,
    /// The compiled plan failed the static dataflow verifier — a compiler
    /// bug, not a property of the tape. See [`verify::verify_plan`].
    Rejected(verify::VerifyError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UntrackedParamLeaf(i) => {
                write!(f, "trainable leaf at node {i} is not in the parameter store")
            }
            CompileError::NonScalarLoss => write!(f, "loss node is not scalar"),
            CompileError::TooManyInputs => write!(f, "more than 255 plan inputs"),
            CompileError::Rejected(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}

// ---------------------------------------------------------------------------
// Emitter: tape -> virtual-register instruction stream
// ---------------------------------------------------------------------------

/// Operand location before slot allocation: virtual register or external.
#[derive(Clone, Copy, Debug)]
enum VLoc {
    V(u32),
    Param(u32),
    Input(u8),
    Static(u32),
}

/// Gradient representation during the symbolic backward pass.
///
/// Scalar-valued nodes (the loss chain) keep their gradient as a compile-time
/// `f32` constant, folded with the exact arithmetic a runtime pass would do;
/// everything else lives in a virtual register.
#[derive(Clone, Copy, Debug)]
enum GradRepr {
    Const(f32),
    V(u32),
}

struct VInstr {
    op: OpCode,
    outs: Vec<u32>,
    ins: Vec<VLoc>,
    dims: Vec<u32>,
    imm: f32,
}

struct Emitter<'a> {
    g: &'a Graph,
    /// node id -> param index, from the order of the trainable leaves.
    param_of: BTreeMap<usize, u32>,
    statics: Vec<(Vec<usize>, Vec<f32>)>,
    vnumel: Vec<usize>,
    instrs: Vec<VInstr>,
    node_loc: Vec<Option<VLoc>>,
    grad: Vec<Option<GradRepr>>,
    /// LayerNorm node id -> (mean, rstd) cache vreg from the forward pass.
    ln_cache: BTreeMap<usize, u32>,
}

fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl<'a> Emitter<'a> {
    fn new(g: &'a Graph, params: &[Var]) -> Emitter<'a> {
        let mut param_of = BTreeMap::new();
        for (pi, var) in params.iter().enumerate() {
            param_of.insert(var.0, pi as u32);
        }
        Emitter {
            g,
            param_of,
            statics: Vec::new(),
            vnumel: Vec::new(),
            instrs: Vec::new(),
            node_loc: vec![None; g.nodes.len()],
            grad: vec![None; g.nodes.len()],
            ln_cache: BTreeMap::new(),
        }
    }

    fn fresh(&mut self, numel: usize) -> u32 {
        self.vnumel.push(numel);
        (self.vnumel.len() - 1) as u32
    }

    fn emit(&mut self, op: OpCode, outs: Vec<u32>, ins: Vec<VLoc>, dims: Vec<u32>, imm: f32) {
        self.instrs.push(VInstr { op, outs, ins, dims, imm });
    }

    fn loc(&self, v: Var) -> VLoc {
        self.node_loc[v.0].expect("plan emitter: operand node not yet lowered")
    }

    fn rg(&self, v: Var) -> bool {
        self.g.nodes[v.0].requires_grad
    }

    fn numel(&self, v: Var) -> usize {
        self.g.nodes[v.0].shape.numel()
    }

    fn dims_of(&self, v: Var) -> &'a [usize] {
        // `self.g` outlives the emitter, so the borrow is 'a, not tied to
        // &self — the backward arms hold these across &mut self calls.
        self.g.nodes[v.0].shape.dims()
    }

    /// Bakes a constant leaf into the plan as a static, deduplicated by bits.
    fn static_of(&mut self, value: &Tensor) -> VLoc {
        for (ci, (_, data)) in self.statics.iter().enumerate() {
            if bits_eq(value.data(), data) {
                return VLoc::Static(ci as u32);
            }
        }
        self.statics.push((value.dims().to_vec(), value.data().to_vec()));
        VLoc::Static((self.statics.len() - 1) as u32)
    }

    /// Materializes a node's gradient into a virtual register (emitting a
    /// `Fill` if it is currently a folded constant).
    fn grad_vreg(&mut self, i: usize) -> u32 {
        match self.grad[i].expect("plan emitter: gradient requested but absent") {
            GradRepr::V(r) => r,
            GradRepr::Const(c) => {
                let n = self.g.nodes[i].shape.numel();
                let r = self.fresh(n);
                self.emit(OpCode::Fill, vec![r], vec![], vec![n as u32], c);
                self.grad[i] = Some(GradRepr::V(r));
                r
            }
        }
    }

    /// Propagates `alpha × grad(gi)` into `v`'s gradient: copy/scale on the
    /// first contribution, `axpy(alpha)` thereafter, folding through
    /// compile-time constants when the gradient is scalar. `axpy(alpha, g)`
    /// and `axpy(1, scale(alpha, g))` round each element once in the same
    /// place, so no scaled temporary is materialised.
    fn accum_scaled(&mut self, v: Var, alpha: f32, gi: usize) {
        if !self.rg(v) {
            return;
        }
        let gnumel = self.g.nodes[gi].shape.numel();
        let gl = gnumel as u32;
        match self.grad[gi].expect("accum_scaled without a source gradient") {
            GradRepr::Const(c) => match self.grad[v.0] {
                None => {
                    // focus-lint: allow(float-hygiene) -- exact-literal test folds `1·c` to `c`, the same bits as the multiply
                    let folded = if alpha == 1.0 { c } else { c * alpha };
                    self.grad[v.0] = Some(GradRepr::Const(folded));
                }
                Some(GradRepr::Const(e)) => {
                    self.grad[v.0] = Some(GradRepr::Const(e + alpha * c));
                }
                Some(GradRepr::V(acc)) => {
                    let gr = self.grad_vreg(gi);
                    self.emit(OpCode::Axpy, vec![acc], vec![VLoc::V(gr)], vec![gl], alpha);
                }
            },
            GradRepr::V(gr) => match self.grad[v.0] {
                None => {
                    let r = self.fresh(gnumel);
                    // focus-lint: allow(float-hygiene) -- exact-literal test picks a copy over a multiply pass; `scale(1.0)` yields the same bits
                    if alpha == 1.0 {
                        self.emit(OpCode::Copy, vec![r], vec![VLoc::V(gr)], vec![gl], 0.0);
                    } else {
                        self.emit(OpCode::MapScale, vec![r], vec![VLoc::V(gr)], vec![gl], alpha);
                    }
                    self.grad[v.0] = Some(GradRepr::V(r));
                }
                Some(GradRepr::V(acc)) => {
                    self.emit(OpCode::Axpy, vec![acc], vec![VLoc::V(gr)], vec![gl], alpha);
                }
                Some(GradRepr::Const(e)) => {
                    let acc = self.fresh(gnumel);
                    self.emit(OpCode::Fill, vec![acc], vec![], vec![gl], e);
                    self.grad[v.0] = Some(GradRepr::V(acc));
                    self.emit(OpCode::Axpy, vec![acc], vec![VLoc::V(gr)], vec![gl], alpha);
                }
            },
        }
    }

    /// Folds a freshly computed contribution `r` into `v`'s gradient: the
    /// first contribution becomes the gradient (register alias, no copy),
    /// later ones `axpy(1.0)` on top.
    fn accum_own(&mut self, v: Var, r: u32, numel: usize) {
        let nl = numel as u32;
        match self.grad[v.0] {
            None => self.grad[v.0] = Some(GradRepr::V(r)),
            Some(GradRepr::V(acc)) => {
                self.emit(OpCode::Axpy, vec![acc], vec![VLoc::V(r)], vec![nl], 1.0);
            }
            Some(GradRepr::Const(e)) => {
                let acc = self.fresh(numel);
                self.emit(OpCode::Fill, vec![acc], vec![], vec![nl], e);
                self.grad[v.0] = Some(GradRepr::V(acc));
                self.emit(OpCode::Axpy, vec![acc], vec![VLoc::V(r)], vec![nl], 1.0);
            }
        }
    }

    /// Lowers the first `end` nodes of the tape: one instruction per kernel,
    /// `Reshape` as a pure location alias, leaves classified as params /
    /// inputs / statics.
    fn forward_pass(&mut self, end: usize) -> Result<(), CompileError> {
        let g = self.g;
        for i in 0..end {
            let node = &g.nodes[i];
            let vd = node.shape.dims();
            let nl = node.shape.numel();
            let out = match &node.op {
                Op::Leaf => {
                    if node.requires_grad {
                        match self.param_of.get(&i) {
                            Some(&pi) => VLoc::Param(pi),
                            None => return Err(CompileError::UntrackedParamLeaf(i)),
                        }
                    } else {
                        self.static_of(g.held(Var(i)))
                    }
                }
                Op::Input(k) => {
                    VLoc::Input(u8::try_from(*k).map_err(|_| CompileError::TooManyInputs)?)
                }
                Op::Add(a, b) => self.zip(OpCode::ZipAdd, *a, *b, nl),
                Op::Sub(a, b) => self.zip(OpCode::ZipSub, *a, *b, nl),
                Op::Mul(a, b) => self.zip(OpCode::ZipMul, *a, *b, nl),
                Op::Neg(a) => self.map(OpCode::MapScale, *a, nl, -1.0),
                Op::Scale(a, c) => self.map(OpCode::MapScale, *a, nl, *c),
                Op::AddScalar(a, c) => self.map(OpCode::MapAddScalar, *a, nl, *c),
                Op::Relu(a) => self.map(OpCode::MapRelu, *a, nl, 0.0),
                Op::Gelu(a) => self.map(OpCode::MapGelu, *a, nl, 0.0),
                Op::Sigmoid(a) => self.map(OpCode::MapSigmoid, *a, nl, 0.0),
                Op::Tanh(a) => self.map(OpCode::MapTanh, *a, nl, 0.0),
                Op::Abs(a) => self.map(OpCode::MapAbs, *a, nl, 0.0),
                Op::Matmul(a, b) => {
                    let (m, k) = (self.dims_of(*a)[0], self.dims_of(*a)[1]);
                    let n = self.dims_of(*b)[1];
                    let (la, lb) = (self.loc(*a), self.loc(*b));
                    let r = self.fresh(m * n);
                    self.emit(
                        OpCode::GemmNn,
                        vec![r],
                        vec![la, lb],
                        vec![m as u32, k as u32, n as u32],
                        0.0,
                    );
                    VLoc::V(r)
                }
                Op::Bmm(a, b) => {
                    let ad = self.dims_of(*a);
                    let n = self.dims_of(*b)[2];
                    let (bt, m, k) = (ad[0], ad[1], ad[2]);
                    let (la, lb) = (self.loc(*a), self.loc(*b));
                    let r = self.fresh(bt * m * n);
                    self.emit(
                        OpCode::BmmNn,
                        vec![r],
                        vec![la, lb],
                        vec![bt as u32, m as u32, k as u32, n as u32],
                        0.0,
                    );
                    VLoc::V(r)
                }
                Op::BmmNt(a, b) => {
                    let ad = self.dims_of(*a);
                    let n = self.dims_of(*b)[1];
                    let (bt, m, k) = (ad[0], ad[1], ad[2]);
                    let (la, lb) = (self.loc(*a), self.loc(*b));
                    let r = self.fresh(bt * m * n);
                    self.emit(
                        OpCode::BmmNt,
                        vec![r],
                        vec![la, lb],
                        vec![bt as u32, m as u32, k as u32, n as u32],
                        0.0,
                    );
                    VLoc::V(r)
                }
                Op::RouteOneHot { head, route } => {
                    let src = route.0 as u32;
                    let hd = self.dims_of(*head);
                    let (b, k, d) = (hd[0], hd[1], hd[2]);
                    let l = vd[1];
                    let lh = self.loc(*head);
                    let r = self.fresh(b * l * d);
                    self.emit(
                        OpCode::RouteGather,
                        vec![r],
                        vec![lh],
                        vec![src, b as u32, k as u32, d as u32, l as u32],
                        0.0,
                    );
                    VLoc::V(r)
                }
                Op::MatmulBroadcastNt(a, x) => {
                    let ad = self.dims_of(*a);
                    let xd = self.dims_of(*x);
                    let (k, d) = (ad[0], ad[1]);
                    let (bsz, l) = (xd[0], xd[1]);
                    let (la, lx) = (self.loc(*a), self.loc(*x));
                    let r = self.fresh(bsz * k * l);
                    self.emit(
                        OpCode::BcastNt,
                        vec![r],
                        vec![la, lx],
                        vec![bsz as u32, k as u32, d as u32, l as u32],
                        0.0,
                    );
                    VLoc::V(r)
                }
                Op::Transpose2(a) => {
                    let ad = self.dims_of(*a);
                    let la = self.loc(*a);
                    let r = self.fresh(nl);
                    self.emit(
                        OpCode::Transpose2,
                        vec![r],
                        vec![la],
                        vec![ad[0] as u32, ad[1] as u32],
                        0.0,
                    );
                    VLoc::V(r)
                }
                Op::TransposeLast2(a) => {
                    let ad = self.dims_of(*a);
                    let la = self.loc(*a);
                    let r = self.fresh(nl);
                    self.emit(
                        OpCode::TransposeLast2,
                        vec![r],
                        vec![la],
                        vec![ad[0] as u32, ad[1] as u32, ad[2] as u32],
                        0.0,
                    );
                    VLoc::V(r)
                }
                Op::SwapAxes01(a) => {
                    let ad = self.dims_of(*a);
                    let la = self.loc(*a);
                    let r = self.fresh(nl);
                    self.emit(
                        OpCode::Swap01,
                        vec![r],
                        vec![la],
                        vec![ad[0] as u32, ad[1] as u32, ad[2] as u32],
                        0.0,
                    );
                    VLoc::V(r)
                }
                Op::Reshape(a) => self.loc(*a),
                Op::AddRowBroadcast(x, bias) => {
                    let n = self.numel(*bias);
                    let rows = nl / n;
                    let (lx, lb) = (self.loc(*x), self.loc(*bias));
                    let r = self.fresh(nl);
                    self.emit(
                        OpCode::AddRowBcast,
                        vec![r],
                        vec![lx, lb],
                        vec![rows as u32, n as u32],
                        0.0,
                    );
                    VLoc::V(r)
                }
                Op::SoftmaxLast(a) => {
                    let n = *self.dims_of(*a).last().expect("tensor dims are never empty");
                    let rows = nl / n;
                    let la = self.loc(*a);
                    let r = self.fresh(nl);
                    self.emit(
                        OpCode::Softmax,
                        vec![r],
                        vec![la],
                        vec![rows as u32, n as u32],
                        0.0,
                    );
                    VLoc::V(r)
                }
                Op::LayerNormLast { x, gamma, beta, eps } => {
                    let n = *self.dims_of(*x).last().expect("tensor dims are never empty");
                    let rows = nl / n;
                    let (lx, lg, lb) = (self.loc(*x), self.loc(*gamma), self.loc(*beta));
                    let y = self.fresh(nl);
                    let cache = self.fresh(rows * 2);
                    let eps = *eps;
                    self.emit(
                        OpCode::LayerNormFwd,
                        vec![y, cache],
                        vec![lx, lg, lb],
                        vec![rows as u32, n as u32],
                        eps,
                    );
                    self.ln_cache.insert(i, cache);
                    VLoc::V(y)
                }
                Op::ConcatLast(a, b, split) => {
                    let na = *split;
                    let nb = *self.dims_of(*b).last().expect("tensor dims are never empty");
                    let rows = self.numel(*a) / na;
                    let (la, lb) = (self.loc(*a), self.loc(*b));
                    let r = self.fresh(nl);
                    self.emit(
                        OpCode::ConcatLast,
                        vec![r],
                        vec![la, lb],
                        vec![rows as u32, na as u32, nb as u32],
                        0.0,
                    );
                    VLoc::V(r)
                }
                Op::SliceLast(a, start, end) => {
                    let n = *self.dims_of(*a).last().expect("tensor dims are never empty");
                    let rows = self.numel(*a) / n;
                    let (start, end) = (*start, *end);
                    let la = self.loc(*a);
                    let r = self.fresh(nl);
                    self.emit(
                        OpCode::SliceCols,
                        vec![r],
                        vec![la],
                        vec![rows as u32, n as u32, start as u32, end as u32],
                        0.0,
                    );
                    VLoc::V(r)
                }
                Op::MeanAll(a) => {
                    let n = self.numel(*a);
                    let la = self.loc(*a);
                    let r = self.fresh(1);
                    self.emit(OpCode::MeanAll, vec![r], vec![la], vec![n as u32], 0.0);
                    VLoc::V(r)
                }
                Op::SumAll(a) => {
                    let n = self.numel(*a);
                    let la = self.loc(*a);
                    let r = self.fresh(1);
                    self.emit(OpCode::SumAll, vec![r], vec![la], vec![n as u32], 0.0);
                    VLoc::V(r)
                }
            };
            self.node_loc[i] = Some(out);
        }
        Ok(())
    }

    fn zip(&mut self, op: OpCode, a: Var, b: Var, nl: usize) -> VLoc {
        let (la, lb) = (self.loc(a), self.loc(b));
        let r = self.fresh(nl);
        self.emit(op, vec![r], vec![la, lb], vec![nl as u32], 0.0);
        VLoc::V(r)
    }

    fn map(&mut self, op: OpCode, a: Var, nl: usize, imm: f32) -> VLoc {
        let la = self.loc(a);
        let r = self.fresh(nl);
        self.emit(op, vec![r], vec![la], vec![nl as u32], imm);
        VLoc::V(r)
    }

    /// The virtual register holding `v`'s value for a plan sink (loss or
    /// output). A node that lowered to an external location — a parameter or
    /// constant used directly — is copied into one.
    fn sink_vreg(&mut self, v: Var) -> u32 {
        match self.loc(v) {
            VLoc::V(r) => r,
            loc => {
                let n = self.numel(v);
                let r = self.fresh(n);
                self.emit(OpCode::Copy, vec![r], vec![loc], vec![n as u32], 0.0);
                r
            }
        }
    }

    /// Emits a fresh-register gradient contribution: `op(ins) -> r`, then
    /// folds `r` into `v`'s gradient.
    fn contrib(&mut self, v: Var, op: OpCode, ins: Vec<VLoc>, dims: Vec<u32>, numel: usize) {
        let r = self.fresh(numel);
        self.emit(op, vec![r], ins, dims, 0.0);
        self.accum_own(v, r, numel);
    }

    /// Symbolic backward: each op's adjoint kernels, in reverse tape order.
    /// Operand and accumulation order are part of the numerics contract —
    /// `crate::oracle` holds the reference rules these must reproduce bit
    /// for bit.
    fn backward_pass(&mut self, loss: Var) -> Result<(), CompileError> {
        let g = self.g;
        if g.nodes[loss.0].shape.numel() != 1 {
            return Err(CompileError::NonScalarLoss);
        }
        self.grad[loss.0] = Some(GradRepr::Const(1.0));
        for i in (0..g.nodes.len()).rev() {
            if !g.nodes[i].requires_grad || self.grad[i].is_none() {
                continue;
            }
            let nl = g.nodes[i].shape.numel();
            let vd = g.nodes[i].shape.dims();
            match &g.nodes[i].op {
                Op::Leaf | Op::Input(_) => {}
                Op::Add(a, b) => {
                    let (a, b) = (*a, *b);
                    self.accum_scaled(a, 1.0, i);
                    self.accum_scaled(b, 1.0, i);
                }
                Op::Sub(a, b) => {
                    let (a, b) = (*a, *b);
                    self.accum_scaled(a, 1.0, i);
                    self.accum_scaled(b, -1.0, i);
                }
                Op::Mul(a, b) => {
                    let (a, b) = (*a, *b);
                    let gr = self.grad_vreg(i);
                    let da = if self.rg(a) {
                        let lb = self.loc(b);
                        let r = self.fresh(nl);
                        self.emit(
                            OpCode::ZipMul,
                            vec![r],
                            vec![VLoc::V(gr), lb],
                            vec![nl as u32],
                            0.0,
                        );
                        Some(r)
                    } else {
                        None
                    };
                    let db = if self.rg(b) {
                        let la = self.loc(a);
                        let r = self.fresh(nl);
                        self.emit(
                            OpCode::ZipMul,
                            vec![r],
                            vec![VLoc::V(gr), la],
                            vec![nl as u32],
                            0.0,
                        );
                        Some(r)
                    } else {
                        None
                    };
                    if let Some(r) = da {
                        self.accum_own(a, r, nl);
                    }
                    if let Some(r) = db {
                        self.accum_own(b, r, nl);
                    }
                }
                Op::Neg(a) => self.accum_scaled(*a, -1.0, i),
                Op::Scale(a, c) => {
                    let (a, c) = (*a, *c);
                    self.accum_scaled(a, c, i);
                }
                Op::AddScalar(a, _) => self.accum_scaled(*a, 1.0, i),
                Op::Relu(a) => {
                    let a = *a;
                    if self.rg(a) {
                        let (la, gr) = (self.loc(a), self.grad_vreg(i));
                        self.contrib(a, OpCode::ZipReluBwd, vec![la, VLoc::V(gr)], vec![nl as u32], nl);
                    }
                }
                Op::Gelu(a) => {
                    let a = *a;
                    if self.rg(a) {
                        let (la, gr) = (self.loc(a), self.grad_vreg(i));
                        self.contrib(a, OpCode::ZipGeluBwd, vec![la, VLoc::V(gr)], vec![nl as u32], nl);
                    }
                }
                Op::Abs(a) => {
                    let a = *a;
                    if self.rg(a) {
                        let (la, gr) = (self.loc(a), self.grad_vreg(i));
                        self.contrib(a, OpCode::ZipAbsBwd, vec![la, VLoc::V(gr)], vec![nl as u32], nl);
                    }
                }
                Op::Sigmoid(a) => {
                    let a = *a;
                    if self.rg(a) {
                        // The rule reads the op's *output*, not its input.
                        let ly = self.node_loc[i].expect("forward pass locates every live node");
                        let gr = self.grad_vreg(i);
                        self.contrib(a, OpCode::ZipSigmoidBwd, vec![ly, VLoc::V(gr)], vec![nl as u32], nl);
                    }
                }
                Op::Tanh(a) => {
                    let a = *a;
                    if self.rg(a) {
                        let ly = self.node_loc[i].expect("forward pass locates every live node");
                        let gr = self.grad_vreg(i);
                        self.contrib(a, OpCode::ZipTanhBwd, vec![ly, VLoc::V(gr)], vec![nl as u32], nl);
                    }
                }
                Op::Matmul(a, b) => {
                    let (a, b) = (*a, *b);
                    let (m, k) = (self.dims_of(a)[0], self.dims_of(a)[1]);
                    let n = self.dims_of(b)[1];
                    let gr = self.grad_vreg(i);
                    let da = if self.rg(a) {
                        let lb = self.loc(b);
                        let r = self.fresh(m * k);
                        // da = g · bᵀ : dispatch (Nt, m, n, k).
                        self.emit(
                            OpCode::GemmNt,
                            vec![r],
                            vec![VLoc::V(gr), lb],
                            vec![m as u32, n as u32, k as u32],
                            0.0,
                        );
                        Some(r)
                    } else {
                        None
                    };
                    let db = if self.rg(b) {
                        let la = self.loc(a);
                        let r = self.fresh(k * n);
                        // db = aᵀ · g : dispatch (Tn, k, m, n).
                        self.emit(
                            OpCode::GemmTn,
                            vec![r],
                            vec![la, VLoc::V(gr)],
                            vec![k as u32, m as u32, n as u32],
                            0.0,
                        );
                        Some(r)
                    } else {
                        None
                    };
                    if let Some(r) = da {
                        self.accum_own(a, r, m * k);
                    }
                    if let Some(r) = db {
                        self.accum_own(b, r, k * n);
                    }
                }
                Op::Bmm(a, b) => {
                    let (a, b) = (*a, *b);
                    let ad = self.dims_of(a);
                    let (bt, m, k) = (ad[0], ad[1], ad[2]);
                    let n = self.dims_of(b)[2];
                    let gr = self.grad_vreg(i);
                    let da = if self.rg(a) {
                        let lb = self.loc(b);
                        let r = self.fresh(bt * m * k);
                        // da = g ·ᵇ bᵀ : dispatch (Nt, bt, m, n, k).
                        self.emit(
                            OpCode::BmmNt,
                            vec![r],
                            vec![VLoc::V(gr), lb],
                            vec![bt as u32, m as u32, n as u32, k as u32],
                            0.0,
                        );
                        Some(r)
                    } else {
                        None
                    };
                    let db = if self.rg(b) {
                        let la = self.loc(a);
                        let r = self.fresh(bt * k * n);
                        // db = aᵀ ·ᵇ g : dispatch (Tn, bt, k, m, n).
                        self.emit(
                            OpCode::BmmTn,
                            vec![r],
                            vec![la, VLoc::V(gr)],
                            vec![bt as u32, k as u32, m as u32, n as u32],
                            0.0,
                        );
                        Some(r)
                    } else {
                        None
                    };
                    if let Some(r) = da {
                        self.accum_own(a, r, bt * m * k);
                    }
                    if let Some(r) = db {
                        self.accum_own(b, r, bt * k * n);
                    }
                }
                Op::BmmNt(a, b) => {
                    let (a, b) = (*a, *b);
                    let ad = self.dims_of(a);
                    let (bt, m, k) = (ad[0], ad[1], ad[2]);
                    let n = self.dims_of(b)[1];
                    let gr = self.grad_vreg(i);
                    let da = if self.rg(a) {
                        let lb = self.loc(b);
                        let r = self.fresh(bt * m * k);
                        // da = g ·ᵇ b : dispatch (Nn, bt, m, n, k).
                        self.emit(
                            OpCode::BmmNn,
                            vec![r],
                            vec![VLoc::V(gr), lb],
                            vec![bt as u32, m as u32, n as u32, k as u32],
                            0.0,
                        );
                        Some(r)
                    } else {
                        None
                    };
                    let db = if self.rg(b) {
                        let la = self.loc(a);
                        let r = self.fresh(bt * n * k);
                        // db = gᵀ ·ᵇ a : dispatch (Tn, bt, n, m, k).
                        self.emit(
                            OpCode::BmmTn,
                            vec![r],
                            vec![VLoc::V(gr), la],
                            vec![bt as u32, n as u32, m as u32, k as u32],
                            0.0,
                        );
                        Some(r)
                    } else {
                        None
                    };
                    if let Some(r) = da {
                        self.accum_own(a, r, bt * m * k);
                    }
                    if let Some(r) = db {
                        self.accum_own(b, r, bt * n * k);
                    }
                }
                Op::RouteOneHot { head, route } => {
                    let head = *head;
                    if self.rg(head) {
                        let src = route.0 as u32;
                        let hd = self.dims_of(head);
                        let (b, k, d) = (hd[0], hd[1], hd[2]);
                        let l = vd[1];
                        let gr = self.grad_vreg(i);
                        self.contrib(
                            head,
                            OpCode::RouteScatter,
                            vec![VLoc::V(gr)],
                            vec![src, b as u32, l as u32, d as u32, k as u32],
                            b * k * d,
                        );
                    }
                }
                Op::MatmulBroadcastNt(a, x) => {
                    let (a, x) = (*a, *x);
                    let ad = self.dims_of(a);
                    let xd = self.dims_of(x);
                    let (k, d) = (ad[0], ad[1]);
                    let (bsz, l) = (xd[0], xd[1]);
                    let bdims = vec![bsz as u32, k as u32, l as u32, d as u32];
                    let gr = self.grad_vreg(i);
                    let da = if self.rg(a) {
                        let lx = self.loc(x);
                        let r = self.fresh(k * d);
                        self.emit(
                            OpCode::BcastNtDa,
                            vec![r],
                            vec![VLoc::V(gr), lx],
                            bdims.clone(),
                            0.0,
                        );
                        Some(r)
                    } else {
                        None
                    };
                    let dx = if self.rg(x) {
                        let la = self.loc(a);
                        let r = self.fresh(bsz * l * d);
                        self.emit(
                            OpCode::BcastNtDx,
                            vec![r],
                            vec![VLoc::V(gr), la],
                            bdims,
                            0.0,
                        );
                        Some(r)
                    } else {
                        None
                    };
                    if let Some(r) = da {
                        self.accum_own(a, r, k * d);
                    }
                    if let Some(r) = dx {
                        self.accum_own(x, r, bsz * l * d);
                    }
                }
                Op::Transpose2(a) => {
                    let a = *a;
                    if self.rg(a) {
                        let gr = self.grad_vreg(i);
                        self.contrib(
                            a,
                            OpCode::Transpose2,
                            vec![VLoc::V(gr)],
                            vec![vd[0] as u32, vd[1] as u32],
                            nl,
                        );
                    }
                }
                Op::TransposeLast2(a) => {
                    let a = *a;
                    if self.rg(a) {
                        let gr = self.grad_vreg(i);
                        self.contrib(
                            a,
                            OpCode::TransposeLast2,
                            vec![VLoc::V(gr)],
                            vec![vd[0] as u32, vd[1] as u32, vd[2] as u32],
                            nl,
                        );
                    }
                }
                Op::SwapAxes01(a) => {
                    let a = *a;
                    if self.rg(a) {
                        let gr = self.grad_vreg(i);
                        self.contrib(
                            a,
                            OpCode::Swap01,
                            vec![VLoc::V(gr)],
                            vec![vd[0] as u32, vd[1] as u32, vd[2] as u32],
                            nl,
                        );
                    }
                }
                // A reshape keeps the flat element order: its adjoint is a
                // flat copy / axpy, i.e. `accum_scaled(·, 1.0)`.
                Op::Reshape(a) => self.accum_scaled(*a, 1.0, i),
                Op::AddRowBroadcast(x, bias) => {
                    let (x, bias) = (*x, *bias);
                    self.accum_scaled(x, 1.0, i);
                    if self.rg(bias) {
                        let n = self.numel(bias);
                        let rows = nl / n;
                        let gr = self.grad_vreg(i);
                        self.contrib(
                            bias,
                            OpCode::BiasGrad,
                            vec![VLoc::V(gr)],
                            vec![rows as u32, n as u32],
                            n,
                        );
                    }
                }
                Op::SoftmaxLast(a) => {
                    let a = *a;
                    if self.rg(a) {
                        let n = *vd.last().expect("tensor dims are never empty");
                        let rows = nl / n;
                        let ly = self.node_loc[i].expect("forward pass locates every live node");
                        let gr = self.grad_vreg(i);
                        self.contrib(
                            a,
                            OpCode::SoftmaxBwd,
                            vec![ly, VLoc::V(gr)],
                            vec![rows as u32, n as u32],
                            nl,
                        );
                    }
                }
                Op::LayerNormLast { x, gamma, beta, .. } => {
                    let (x, gamma, beta) = (*x, *gamma, *beta);
                    if self.rg(x) || self.rg(gamma) || self.rg(beta) {
                        let n = *vd.last().expect("tensor dims are never empty");
                        let rows = nl / n;
                        let cache = self.ln_cache[&i];
                        let (lx, lg) = (self.loc(x), self.loc(gamma));
                        let gr = self.grad_vreg(i);
                        let dx = self.fresh(nl);
                        let dgamma = self.fresh(n);
                        let dbeta = self.fresh(n);
                        self.emit(
                            OpCode::LayerNormBwd,
                            vec![dx, dgamma, dbeta],
                            vec![lx, lg, VLoc::V(cache), VLoc::V(gr)],
                            vec![rows as u32, n as u32],
                            0.0,
                        );
                        if self.rg(x) {
                            self.accum_own(x, dx, nl);
                        }
                        if self.rg(gamma) {
                            self.accum_own(gamma, dgamma, n);
                        }
                        if self.rg(beta) {
                            self.accum_own(beta, dbeta, n);
                        }
                    }
                }
                Op::ConcatLast(a, b, split) => {
                    let (a, b, na) = (*a, *b, *split);
                    let nb = *self.dims_of(b).last().expect("tensor dims are never empty");
                    let rows = self.numel(a) / na;
                    let gr = self.grad_vreg(i);
                    let ga = if self.rg(a) {
                        let r = self.fresh(rows * na);
                        self.emit(
                            OpCode::SliceCols,
                            vec![r],
                            vec![VLoc::V(gr)],
                            vec![rows as u32, (na + nb) as u32, 0, na as u32],
                            0.0,
                        );
                        Some(r)
                    } else {
                        None
                    };
                    let gb = if self.rg(b) {
                        let r = self.fresh(rows * nb);
                        self.emit(
                            OpCode::SliceCols,
                            vec![r],
                            vec![VLoc::V(gr)],
                            vec![rows as u32, (na + nb) as u32, na as u32, (na + nb) as u32],
                            0.0,
                        );
                        Some(r)
                    } else {
                        None
                    };
                    if let Some(r) = ga {
                        self.accum_own(a, r, rows * na);
                    }
                    if let Some(r) = gb {
                        self.accum_own(b, r, rows * nb);
                    }
                }
                Op::SliceLast(a, start, end) => {
                    let (a, start, end) = (*a, *start, *end);
                    if self.rg(a) {
                        let n = *self.dims_of(a).last().expect("tensor dims are never empty");
                        let an = self.numel(a);
                        let rows = an / n;
                        let gr = self.grad_vreg(i);
                        self.contrib(
                            a,
                            OpCode::ScatterCols,
                            vec![VLoc::V(gr)],
                            vec![rows as u32, n as u32, start as u32, (end - start) as u32],
                            an,
                        );
                    }
                }
                Op::MeanAll(a) | Op::SumAll(a) => {
                    let a = *a;
                    if self.rg(a) {
                        // da = g / n for the mean, g / 1 (exactly g) for the
                        // sum: folded into a `Fill` when g is a compile-time
                        // constant, a runtime `Splat` when it is computed.
                        let an = self.numel(a);
                        let div = if matches!(g.nodes[i].op, Op::MeanAll(_)) { an as f32 } else { 1.0 };
                        let r = self.fresh(an);
                        match self.grad[i].expect("backward walk only visits nodes with a gradient") {
                            GradRepr::Const(c) => {
                                self.emit(OpCode::Fill, vec![r], vec![], vec![an as u32], c / div);
                            }
                            GradRepr::V(gr) => {
                                self.emit(OpCode::Splat, vec![r], vec![VLoc::V(gr)], vec![an as u32], div);
                            }
                        }
                        self.accum_own(a, r, an);
                    }
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Dead-code elimination
// ---------------------------------------------------------------------------

/// Drops instructions whose results are not transitively needed by any
/// pinned sink (the loss, the update gradients, the output).
///
/// The forward emitter lowers *every* tape node, so a forward-only plan for a
/// mid-tape output — or any tape with computed-but-unconsumed values — would
/// otherwise carry dead kernels. Dead results are never read, so dropping
/// them cannot change any live value, only skip work. This sweep is also
/// what makes the verifier's dead-instruction check an invariant of compiled
/// plans rather than a heuristic.
///
/// Accumulator vregs are written by several instructions (`Fill`/`Copy` then
/// `Axpy`s); a vreg marked needed keeps all of its writers, which is exactly
/// right for read-modify-write accumulation.
fn eliminate_dead(vinstrs: Vec<VInstr>, nv: usize, pinned: &[u32]) -> Vec<VInstr> {
    let mut needed = vec![false; nv];
    for &p in pinned {
        needed[p as usize] = true;
    }
    let mut live = vec![false; vinstrs.len()];
    for (ii, vi) in vinstrs.iter().enumerate().rev() {
        if vi.outs.iter().any(|&o| needed[o as usize]) {
            live[ii] = true;
            for l in &vi.ins {
                if let VLoc::V(r) = *l {
                    needed[r as usize] = true;
                }
            }
        }
    }
    let mut keep = live.into_iter();
    let mut vinstrs = vinstrs;
    vinstrs.retain(|_| keep.next().expect("one liveness flag per instruction"));
    vinstrs
}

// ---------------------------------------------------------------------------
// Liveness + slot allocation
// ---------------------------------------------------------------------------

/// Linear-scan register allocation over pool-class-sized slots.
///
/// Classes are `numel.next_power_of_two()` element capacities with one free
/// list each. Destinations are assigned *before* an instruction's dying
/// operands are released, so a destination can never alias a same-instruction
/// argument. `pinned` vregs (parameter gradients, the loss, the output) are
/// never recycled.
///
/// Before returning, the assignment is checked against the virtual-register
/// live intervals it was derived from ([`verify::check_intervals`]): no two
/// vregs sharing a slot may have overlapping lifetimes. This is the one
/// lifetime property the plan-level verifier cannot reconstruct, because at
/// the slot level reads always attach to the most recent definition.
/// Allocation result: the lowered instructions, per-slot capacities, the
/// vreg → slot map, and the most elements live at once.
type Allocation = (Vec<Instr>, Vec<usize>, Vec<u32>, usize);

fn allocate(
    vinstrs: &[VInstr],
    vnumel: &[usize],
    pinned: &[u32],
) -> Result<Allocation, verify::VerifyError> {
    let nv = vnumel.len();
    let mut last = vec![0usize; nv];
    for (ii, vi) in vinstrs.iter().enumerate() {
        for &o in &vi.outs {
            last[o as usize] = ii;
        }
        for l in &vi.ins {
            if let VLoc::V(r) = *l {
                last[r as usize] = ii;
            }
        }
    }
    for &p in pinned {
        last[p as usize] = usize::MAX;
    }

    let class = |numel: usize| numel.next_power_of_two().max(1);
    let mut slot_of = vec![u32::MAX; nv];
    let mut caps: Vec<usize> = Vec::new();
    let mut free: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
    let mut instrs = Vec::with_capacity(vinstrs.len());
    for (ii, vi) in vinstrs.iter().enumerate() {
        for &o in &vi.outs {
            let oi = o as usize;
            if slot_of[oi] == u32::MAX {
                let cap = class(vnumel[oi]);
                let s = free.get_mut(&cap).and_then(|v| v.pop()).unwrap_or_else(|| {
                    caps.push(cap);
                    (caps.len() - 1) as u32
                });
                slot_of[oi] = s;
            }
        }
        instrs.push(Instr {
            op: vi.op,
            dsts: vi.outs.iter().map(|&o| slot_of[o as usize]).collect(),
            args: vi
                .ins
                .iter()
                .map(|l| match *l {
                    VLoc::V(r) => Loc::Slot(slot_of[r as usize]),
                    VLoc::Param(p) => Loc::Param(p),
                    VLoc::Input(j) => Loc::Input(j),
                    VLoc::Static(s) => Loc::Static(s),
                })
                .collect(),
            dims: vi.dims.clone(),
            imm: vi.imm,
        });
        let mut dying: Vec<u32> = Vec::new();
        for l in &vi.ins {
            if let VLoc::V(r) = *l {
                if last[r as usize] == ii {
                    dying.push(r);
                }
            }
        }
        for &o in &vi.outs {
            if last[o as usize] == ii {
                dying.push(o);
            }
        }
        dying.sort_unstable();
        dying.dedup();
        for r in dying {
            free.entry(class(vnumel[r as usize])).or_default().push(slot_of[r as usize]);
        }
    }

    let mut first_def = vec![None; nv];
    for (ii, vi) in vinstrs.iter().enumerate() {
        for &o in &vi.outs {
            let oi = o as usize;
            if first_def[oi].is_none() {
                first_def[oi] = Some(ii);
            }
        }
    }
    verify::check_intervals(&slot_of, &first_def, &last)?;
    // Each value is live from its first write through its last use; pinned
    // ones to the end.
    let mut change = vec![0i64; vinstrs.len() + 1];
    for (v, def) in first_def.iter().enumerate() {
        if let Some(d) = *def {
            change[d] += vnumel[v] as i64;
            if let Some(end) = last[v].checked_add(1) {
                change[end] -= vnumel[v] as i64;
            }
        }
    }
    let live_peak = change.iter().scan(0i64, |live, &c| {
        *live += c;
        Some(*live)
    });
    Ok((instrs, caps, slot_of, live_peak.max().unwrap_or(0) as usize))
}

// ---------------------------------------------------------------------------
// Compile entry points
// ---------------------------------------------------------------------------

fn compile(
    g: &Graph,
    params: &[Var],
    loss: Option<Var>,
    output: Option<Var>,
) -> Result<Plan, CompileError> {
    focus_trace::span!("plan/compile");
    let mut em = Emitter::new(g, params);
    // A forward plan lowers the tape up to its output: no later node feeds it.
    let end = output.filter(|_| loss.is_none()).map_or(g.nodes.len(), |out| out.0 + 1);
    em.forward_pass(end)?;

    let mut pinned: Vec<u32> = Vec::new();
    let mut update_vregs: Vec<(u32, u32)> = Vec::new();
    let mut loss_vreg = None;
    let mut output_vreg = None;

    if let Some(loss) = loss {
        em.backward_pass(loss)?;
        for (pi, var) in params.iter().enumerate() {
            match em.grad[var.0] {
                None => {}
                Some(GradRepr::V(r)) => update_vregs.push((pi as u32, r)),
                Some(GradRepr::Const(c)) => {
                    let n = em.numel(*var);
                    let r = em.fresh(n);
                    em.emit(OpCode::Fill, vec![r], vec![], vec![n as u32], c);
                    update_vregs.push((pi as u32, r));
                }
            }
        }
        let lv = em.sink_vreg(loss);
        loss_vreg = Some(lv);
        pinned.push(lv);
        pinned.extend(update_vregs.iter().map(|&(_, r)| r));
    }
    if let Some(out) = output {
        let ov = em.sink_vreg(out);
        output_vreg = Some((ov, g.nodes[out.0].shape.dims().to_vec()));
        pinned.push(ov);
    }

    let reject = |e: verify::VerifyError| {
        focus_trace::counter_add("plan/verify_rejects", 1);
        CompileError::Rejected(e)
    };
    let nv = em.vnumel.len();
    let vinstrs = eliminate_dead(std::mem::take(&mut em.instrs), nv, &pinned);
    let (instrs, slot_caps, slot_of, live_peak) =
        allocate(&vinstrs, &em.vnumel, &pinned).map_err(reject)?;
    let dims_of = |v: &Var| g.nodes[v.0].shape.dims().to_vec();
    let mut routes: Vec<(usize, u32)> = g.routes.iter().map(|r| (r.len(), u32::MAX)).collect();
    for ins in &instrs {
        // dims: RouteGather [src, b, k, d, l], RouteScatter [src, b, l, d, k].
        let k = match ins.op {
            OpCode::RouteGather => ins.dims[2],
            OpCode::RouteScatter => ins.dims[4],
            _ => continue,
        };
        let bound = &mut routes[ins.dims[0] as usize].1;
        *bound = (*bound).min(k);
    }
    let plan = Plan {
        instrs,
        slot_caps,
        statics: em.statics,
        inputs: g.inputs.iter().map(dims_of).collect(),
        routes,
        params: params.iter().map(dims_of).collect(),
        updates: update_vregs
            .into_iter()
            .map(|(pi, r)| UpdateSpec {
                param: pi,
                grad_slot: slot_of[r as usize],
                dims: dims_of(&params[pi as usize]),
            })
            .collect(),
        loss_slot: loss_vreg.map(|v| slot_of[v as usize]),
        output: output_vreg.map(|(v, dims)| (slot_of[v as usize], dims)),
        live_peak,
    };
    // Static verification gates every compile: a plan that cannot be proven
    // safe never runs, and the cost stays inside this `plan/compile` span —
    // replay never pays it.
    verify::verify_plan(&plan).map_err(reject)?;
    focus_trace::counter_set("plan/instrs", plan.instrs.len() as u64);
    focus_trace::counter_set("plan/slots", plan.slot_caps.len() as u64);
    Ok(plan)
}

/// Compiles a recorded training step (forward + backward + updates) into a
/// plan. `pv` is the registration of the [`ParamStore`] the plan will update;
/// the tape's inputs and routes are the per-step operands the plan binds at
/// run time.
pub fn compile_train(g: &Graph, loss: Var, pv: &ParamVars) -> Result<Plan, CompileError> {
    compile(g, pv.raw(), Some(loss), None)
}

/// Compiles a recorded forward pass into an inference-only plan producing
/// the value of `output`.
pub fn compile_forward(g: &Graph, output: Var, pv: &ParamVars) -> Result<Plan, CompileError> {
    compile(g, pv.raw(), None, Some(output))
}

/// Compiles `g` with its trainable leaves as the plan's parameters, in tape
/// order, runs the plan once on the VM over the tape's own leaves, inputs
/// and routes, and returns what `read` takes from its slots: the engine
/// behind [`Graph::backward`] and [`Graph::value`]. The slots then go back
/// to the pool, so a loop of such calls allocates nothing fresh.
fn run_once<T>(
    g: &Graph,
    loss: Option<Var>,
    output: Option<Var>,
    read: impl FnOnce(&Plan, &mut [Vec<f32>], &[Var]) -> T,
) -> Result<T, CompileError> {
    let leaves: Vec<Var> = (0..g.nodes.len())
        .filter(|&i| g.nodes[i].requires_grad && matches!(g.nodes[i].op, Op::Leaf))
        .map(Var)
        .collect();
    let plan = compile(g, &leaves, loss, output)?;
    let values: Vec<&Tensor> = leaves.iter().map(|&v| g.held(v)).collect();
    let (inputs, routes) = g.bindings();
    let mut slots = Vec::new();
    plan.fit_slots(&mut slots);
    vm::run(&plan, &mut slots, &inputs, &routes, &values[..]);
    let out = read(&plan, &mut slots, &leaves);
    slots.into_iter().for_each(pool::give);
    Ok(out)
}

/// Moves slot `slot` out as a tensor of `dims`, leaving it empty.
fn slot_tensor(slots: &mut [Vec<f32>], slot: u32, dims: &[usize]) -> Tensor {
    let mut buf = std::mem::take(&mut slots[slot as usize]);
    buf.truncate(dims.iter().product());
    Tensor::from_vec(buf, dims)
}

/// The gradient of `loss` with respect to every trainable leaf of `g` that
/// it depends on — the engine behind [`Graph::backward`].
pub(crate) fn leaf_gradients(g: &Graph, loss: Var) -> Result<Vec<(Var, Tensor)>, CompileError> {
    run_once(g, Some(loss), None, |plan, slots, leaves| {
        plan.updates
            .iter()
            .map(|u| (leaves[u.param as usize], slot_tensor(slots, u.grad_slot, &u.dims)))
            .collect()
    })
}

/// The value of the computed node `v` — the engine behind [`Graph::value`].
pub(crate) fn node_value(g: &Graph, v: Var) -> Result<Tensor, CompileError> {
    run_once(g, None, Some(v), |plan, slots, _| {
        let (slot, dims) = plan.output.as_ref().expect("a forward plan has an output");
        slot_tensor(slots, *slot, dims)
    })
}

// ---------------------------------------------------------------------------
// PlanCache: compile once per shape, replay
// ---------------------------------------------------------------------------

/// Keeps the plan compiled for the current shapes and replays it.
///
/// Usage per training step: first try [`PlanCache::try_replay_train`]; on
/// `None`, record the tape and hand it to [`PlanCache::run_train`], which
/// compiles it, runs that plan and keeps it for the following steps. The
/// forward plan lives in the [`ParamStore`] instead, one per model (see
/// [`ParamStore::run_forward`]). A replay whose shapes differ from the kept
/// plan's drops it. With caching disabled ([`set_enabled`]) the cache never
/// keeps a plan.
pub struct PlanCache {
    plan: Option<Box<Plan>>,
    /// Slot buffers of the last plan run, reused by the next one and
    /// returned to the tensor pool when the cache drops, so back-to-back
    /// loops recycle them.
    slots: Vec<Vec<f32>>,
}

impl Drop for PlanCache {
    fn drop(&mut self) {
        self.slots.drain(..).for_each(pool::give);
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

impl PlanCache {
    pub fn new() -> PlanCache {
        PlanCache { plan: None, slots: Vec::new() }
    }

    /// True while a plan is kept.
    pub fn is_ready(&self) -> bool {
        self.plan.is_some()
    }

    /// Replays one training step if the kept plan matches the current
    /// geometry. Returns the loss, or `None` if the caller must record and
    /// compile this step.
    ///
    /// # Panics
    /// If a route index is out of range for the plan's prototype count.
    pub fn try_replay_train<O: Optimizer>(
        &mut self,
        inputs: &[&Tensor],
        routes: &[&[u32]],
        store: &mut ParamStore,
        opt: &mut O,
    ) -> Option<f32> {
        let plan = replayable(&mut self.plan, inputs, routes, store)?;
        let data: Vec<&[f32]> = inputs.iter().map(|t| t.data()).collect();
        let slots = &mut self.slots;
        Some(holding_slots(plan, || vm::replay_train(plan, slots, &data, routes, store, opt)))
    }

    /// Runs one uncached training step from its recorded tape: compiles the
    /// tape, runs that plan over the tape's inputs and routes (forward,
    /// backward and the optimizer update), and keeps it for later steps.
    /// Returns the loss.
    ///
    /// # Errors
    /// If the tape does not lower, or the lowered plan fails verification.
    /// Nothing has been updated when this returns an error.
    pub fn run_train<O: Optimizer>(
        &mut self,
        g: &Graph,
        loss: Var,
        pv: &ParamVars,
        store: &mut ParamStore,
        opt: &mut O,
    ) -> Result<f32, CompileError> {
        focus_trace::span!("autograd/backward");
        let plan = compile_train(g, loss, pv)?;
        let (inputs, routes) = g.bindings();
        plan.fit_slots(&mut self.slots);
        let loss = vm::replay_train(&plan, &mut self.slots, &inputs, &routes, store, opt);
        if enabled() {
            self.plan = Some(Box::new(plan));
        }
        Ok(loss)
    }

    /// One forward pass: replays the kept plan if it matches, otherwise
    /// records the pass with `record`, compiles it, runs that plan and keeps
    /// it. See [`ParamStore::run_forward`], which owns the one forward cache
    /// per store; `store` is that owner.
    ///
    /// # Errors
    /// If the tape does not lower, or the lowered plan fails verification.
    pub(crate) fn run_forward(
        &mut self,
        inputs: &[&Tensor],
        routes: &[&[u32]],
        store: &ParamStore,
        record: impl FnOnce(&mut Graph) -> (Var, ParamVars),
    ) -> Result<Tensor, CompileError> {
        if let Some(plan) = replayable(&mut self.plan, inputs, routes, store) {
            let data: Vec<&[f32]> = inputs.iter().map(|t| t.data()).collect();
            let slots = &mut self.slots;
            return Ok(holding_slots(plan, || vm::replay_forward(plan, slots, &data, routes, store)));
        }
        let mut g = Graph::new();
        let (output, pv) = record(&mut g);
        let plan = compile_forward(&g, output, &pv)?;
        let (inputs, routes) = g.bindings();
        // A plan that is not kept runs on slots of its own: the kept plan's
        // must still fit it when caching comes back on.
        let keep = enabled();
        let mut own = Vec::new();
        let slots = if keep { &mut self.slots } else { &mut own };
        plan.fit_slots(slots);
        let value = vm::replay_forward(&plan, slots, &inputs, &routes, store);
        own.into_iter().for_each(pool::give);
        if keep {
            self.plan = Some(Box::new(plan));
        }
        Ok(value)
    }
}

/// Runs a replay of the kept `plan`, counting its slot buffers as held by
/// this thread meanwhile ([`focus_tensor::work`]). A plan compiled in the
/// same call needs no such count: it took its slots from the tensor pool,
/// which counts them.
fn holding_slots<R>(plan: &Plan, replay: impl FnOnce() -> R) -> R {
    work::hold(plan.slot_bytes());
    let out = replay();
    work::release(plan.slot_bytes());
    out
}

/// The kept plan if caching is enabled and it was compiled for these
/// shapes; a kept plan for other shapes is dropped.
///
/// # Panics
/// If a route index is out of range for the plan (see [`Plan::check_routes`]).
fn replayable<'p>(
    kept: &'p mut Option<Box<Plan>>,
    inputs: &[&Tensor],
    routes: &[&[u32]],
    store: &ParamStore,
) -> Option<&'p Plan> {
    if !enabled() {
        return None;
    }
    if !kept.as_ref()?.matches(inputs, routes, store) {
        *kept = None;
        return None;
    }
    let plan = kept.as_deref()?;
    plan.check_routes(routes);
    focus_trace::counter_add("plan/replays", 1);
    Some(plan)
}
