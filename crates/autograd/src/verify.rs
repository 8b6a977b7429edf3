//! Static dataflow verifier over the flat [`Plan`] IR.
//!
//! The compiler lowers every tape op by rule, and a bug in those rules or in
//! slot allocation would not raise an error on its own: a use-before-def
//! slot, a stale read whose bytes happen to be in bounds, a leaked buffer, a
//! shape the allocator sized wrong. This module closes that gap with a linear
//! abstract interpretation of the instruction stream that every plan must
//! pass before it runs. It runs at compile time, so the cost lands under the
//! `plan/compile` span, never on the replay path.
//!
//! What each analysis proves:
//!
//! 1. **Def-before-use / single initialization.** Every slot read must see a
//!    value previously written by a full (defining) write; `Axpy` is the one
//!    read-modify-write opcode and *requires* an existing definition. A slot
//!    definition is the unique owner of the live value until it is overwritten.
//! 2. **Abstract shape interpretation.** Each instruction's operand and
//!    result element counts are re-derived from its `dims` using the exact
//!    per-opcode kernel geometry the VM dispatches with. A slot read must
//!    match the live value's element count bitwise-for-bitwise (no partial or
//!    oversized reads); external reads (params / inputs / statics) must match
//!    the recorded geometry tables; every write must agree with the
//!    allocator's recorded slot capacity (`numel.next_power_of_two()` — the
//!    pool-class invariant).
//! 3. **Slot lifetime.** At the virtual-register layer (inside
//!    `check_intervals`, run during compilation where liveness is known),
//!    no two values assigned to one slot may have overlapping live intervals,
//!    and a freed slot can only be redefined strictly after its previous
//!    value's last use. At the plan layer, nothing may be read after its
//!    defining value was overwritten (the overwrite installs a new value, and
//!    the element-count equality pins reads to the value they were compiled
//!    against).
//! 4. **Dead / leaked results.** An instruction none of whose results are
//!    ever consumed — by a later instruction or by a plan sink (the loss
//!    scalar, the declared output, an update's gradient slot) — is reported
//!    through the `plan/verify_dead` trace counter and rejects the plan,
//!    positioned at the offending instruction. A slot that no instruction
//!    ever defines is a leak of the allocator itself and is likewise
//!    rejected.
//!
//! The verifier is deliberately pessimistic: anything it cannot prove safe is
//! an error, and every error carries the offending instruction index so a
//! corrupted plan names its own corruption site.

use std::fmt;

use crate::plan::{Instr, Loc, OpCode, Plan};

// ---------------------------------------------------------------------------
// Failpoint (tests only)
// ---------------------------------------------------------------------------

use std::cell::Cell;

thread_local! {
    static FAIL_ALL: Cell<bool> = const { Cell::new(false) };
}

/// Test-only failpoint: while enabled, [`verify_plan`] rejects every plan
/// compiled on the calling thread at instruction 0, as if the compiler had
/// emitted an unverifiable stream. Lets tests prove that a rejection fails
/// the step loudly without corrupting a real compile in-process. The flag is
/// per thread, so concurrently running tests never see each other's
/// failpoint.
pub fn set_fail_all(on: bool) {
    FAIL_ALL.with(|f| f.set(on));
}

// ---------------------------------------------------------------------------
// Error type
// ---------------------------------------------------------------------------

/// Classification of a verification failure (stable across message edits, so
/// tests assert on the kind and humans read the message).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerifyErrorKind {
    /// A slot was read before any instruction defined it (`Axpy` on an
    /// undefined accumulator counts: it is a read).
    UseBeforeDef,
    /// A slot / param / input / static / route index is outside the plan's
    /// recorded tables.
    OutOfRange,
    /// Wrong number of destinations, arguments or dims for the opcode.
    Arity,
    /// A derived operand or result element count disagrees with the live
    /// value, an external's recorded dims, or the dims themselves are
    /// degenerate (zero-sized, overflowing, or a batch flag other than 0 or
    /// 1).
    ShapeMismatch,
    /// A written value's pool class does not equal the allocator's recorded
    /// slot capacity — the slot is hosting a value it was never sized for.
    CapMismatch,
    /// An instruction's argument aliases one of its destinations (the VM
    /// `mem::take`s destinations, so such a read would see an empty buffer).
    Aliasing,
    /// An instruction's results are never consumed and the stream overwrites
    /// them — pure wasted work that the emitter should never produce.
    DeadInstr,
    /// An instruction's results are never consumed and survive to plan exit
    /// without being a declared sink.
    LeakedValue,
    /// A slot in the capacity table that no instruction ever defines.
    UnwrittenSlot,
    /// The loss / output / update sink declarations are inconsistent with
    /// the instruction stream (missing value, wrong size, duplicate slots).
    BadSink,
    /// Two virtual registers with overlapping live intervals were assigned
    /// the same slot (compile-time check; see `check_intervals`).
    OverlappingLiveRange,
    /// The [`set_fail_all`] test failpoint is enabled.
    Injected,
}

/// A verification failure: the offending instruction index (when one exists
/// — table-level failures like an unwritten slot have none), a stable kind,
/// and a human-readable diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyError {
    /// Index into the plan's instruction stream, when the failure is
    /// attributable to one instruction.
    pub instr: Option<usize>,
    pub kind: VerifyErrorKind,
    pub msg: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.instr {
            Some(i) => write!(f, "plan verify: instr {i}: {}", self.msg),
            None => write!(f, "plan verify: {}", self.msg),
        }
    }
}

impl std::error::Error for VerifyError {}

fn verr(instr: Option<usize>, kind: VerifyErrorKind, msg: impl Into<String>) -> VerifyError {
    VerifyError { instr, kind, msg: msg.into() }
}

// ---------------------------------------------------------------------------
// Per-opcode kernel geometry
// ---------------------------------------------------------------------------

/// The abstract effect of one instruction: how many elements each argument
/// reads and each destination writes, whether the first destination is
/// read-modify-write, and which route source the kernel consumes, with its
/// expected index count and the prototype count it indexes into. Mirrors the
/// VM dispatch geometry exactly.
struct Effects {
    arg_n: Vec<usize>,
    dst_n: Vec<usize>,
    rmw: bool,
    route: Option<(usize, usize, u32)>,
}

/// Overflow-checked product of kernel dims (a corrupted plan must produce a
/// diagnostic, not a wrapped multiply).
fn prod(ii: usize, ds: &[u32]) -> Result<usize, VerifyError> {
    let mut n = 1usize;
    for &d in ds {
        n = n
            .checked_mul(d as usize)
            .ok_or_else(|| verr(Some(ii), VerifyErrorKind::ShapeMismatch, "dims product overflows"))?;
    }
    Ok(n)
}

fn arity(
    ii: usize,
    instr: &Instr,
    dsts: usize,
    args: usize,
    dims: usize,
) -> Result<(), VerifyError> {
    if instr.dsts.len() != dsts || instr.args.len() != args || instr.dims.len() != dims {
        return Err(verr(
            Some(ii),
            VerifyErrorKind::Arity,
            format!(
                "{} expects {dsts} dsts / {args} args / {dims} dims, got {} / {} / {}",
                instr.op.name(),
                instr.dsts.len(),
                instr.args.len(),
                instr.dims.len()
            ),
        ));
    }
    Ok(())
}

/// Derives the kernel-call geometry for one instruction, checking operand
/// arity and dims validity. The arm order and formulas mirror
/// `crate::vm::exec_instr` one-for-one; a divergence here is a divergence in
/// what the VM would actually touch.
fn effects(ii: usize, instr: &Instr) -> Result<Effects, VerifyError> {
    let d = &instr.dims;
    let du = |i: usize| d[i] as usize;
    let eff = match instr.op {
        OpCode::ZipAdd
        | OpCode::ZipSub
        | OpCode::ZipMul
        | OpCode::ZipReluBwd
        | OpCode::ZipGeluBwd
        | OpCode::ZipAbsBwd
        | OpCode::ZipSigmoidBwd
        | OpCode::ZipTanhBwd => {
            arity(ii, instr, 1, 2, 1)?;
            let n = du(0);
            Effects { arg_n: vec![n, n], dst_n: vec![n], rmw: false, route: None }
        }
        OpCode::MapScale
        | OpCode::MapAddScalar
        | OpCode::MapRelu
        | OpCode::MapGelu
        | OpCode::MapSigmoid
        | OpCode::MapTanh
        | OpCode::MapAbs
        | OpCode::Copy => {
            arity(ii, instr, 1, 1, 1)?;
            let n = du(0);
            Effects { arg_n: vec![n], dst_n: vec![n], rmw: false, route: None }
        }
        OpCode::Axpy => {
            arity(ii, instr, 1, 1, 1)?;
            let n = du(0);
            Effects { arg_n: vec![n], dst_n: vec![n], rmw: true, route: None }
        }
        OpCode::Fill => {
            arity(ii, instr, 1, 0, 1)?;
            Effects { arg_n: vec![], dst_n: vec![du(0)], rmw: false, route: None }
        }
        OpCode::Splat => {
            arity(ii, instr, 1, 1, 1)?;
            Effects { arg_n: vec![1], dst_n: vec![du(0)], rmw: false, route: None }
        }
        OpCode::BmmNn | OpCode::BmmNt | OpCode::BmmTn => {
            arity(ii, instr, 1, 2, 6)?;
            let (bt, m, k, n) = (d[0], d[1], d[2], d[3]);
            // An operand's batch flag: 1 holds `bt` matrices, 0 one matrix
            // that every batch shares.
            let matrices = |flag: u32| match flag {
                0 => Ok(1),
                1 => Ok(bt),
                _ => Err(verr(
                    Some(ii),
                    VerifyErrorKind::ShapeMismatch,
                    format!("{} batch flag {flag} is neither 0 nor 1", instr.op.name()),
                )),
            };
            Effects {
                arg_n: vec![prod(ii, &[matrices(d[4])?, m, k])?, prod(ii, &[matrices(d[5])?, k, n])?],
                dst_n: vec![prod(ii, &[bt, m, n])?],
                rmw: false,
                route: None,
            }
        }
        OpCode::BcastNtDa => {
            arity(ii, instr, 1, 2, 4)?;
            let (bsz, k, l, dd) = (d[0], d[1], d[2], d[3]);
            Effects {
                arg_n: vec![prod(ii, &[bsz, k, l])?, prod(ii, &[bsz, l, dd])?],
                dst_n: vec![prod(ii, &[k, dd])?],
                rmw: false,
                route: None,
            }
        }
        OpCode::RouteGather => {
            arity(ii, instr, 1, 1, 5)?;
            let (src, b, k, dd, l) = (du(0), d[1], d[2], d[3], d[4]);
            Effects {
                arg_n: vec![prod(ii, &[b, k, dd])?],
                dst_n: vec![prod(ii, &[b, l, dd])?],
                rmw: false,
                route: Some((src, prod(ii, &[b, l])?, k)),
            }
        }
        OpCode::RouteScatter => {
            arity(ii, instr, 1, 1, 5)?;
            let (src, b, l, dd, k) = (du(0), d[1], d[2], d[3], d[4]);
            Effects {
                arg_n: vec![prod(ii, &[b, l, dd])?],
                dst_n: vec![prod(ii, &[b, k, dd])?],
                rmw: false,
                route: Some((src, prod(ii, &[b, l])?, k)),
            }
        }
        OpCode::AddRowBcast => {
            arity(ii, instr, 1, 2, 2)?;
            let (rows, n) = (d[0], d[1]);
            let rn = prod(ii, &[rows, n])?;
            Effects { arg_n: vec![rn, n as usize], dst_n: vec![rn], rmw: false, route: None }
        }
        OpCode::BiasGrad => {
            arity(ii, instr, 1, 1, 2)?;
            let (rows, n) = (d[0], d[1]);
            Effects {
                arg_n: vec![prod(ii, &[rows, n])?],
                dst_n: vec![n as usize],
                rmw: false,
                route: None,
            }
        }
        OpCode::Softmax => {
            arity(ii, instr, 1, 1, 2)?;
            let rn = prod(ii, &[d[0], d[1]])?;
            Effects { arg_n: vec![rn], dst_n: vec![rn], rmw: false, route: None }
        }
        OpCode::SoftmaxBwd => {
            arity(ii, instr, 1, 2, 2)?;
            let rn = prod(ii, &[d[0], d[1]])?;
            Effects { arg_n: vec![rn, rn], dst_n: vec![rn], rmw: false, route: None }
        }
        OpCode::LayerNormFwd => {
            arity(ii, instr, 2, 3, 2)?;
            let (rows, n) = (d[0], d[1]);
            let rn = prod(ii, &[rows, n])?;
            Effects {
                arg_n: vec![rn, n as usize, n as usize],
                dst_n: vec![rn, prod(ii, &[rows, 2])?],
                rmw: false,
                route: None,
            }
        }
        OpCode::LayerNormBwd => {
            arity(ii, instr, 3, 4, 2)?;
            let (rows, n) = (d[0], d[1]);
            let rn = prod(ii, &[rows, n])?;
            Effects {
                arg_n: vec![rn, n as usize, prod(ii, &[rows, 2])?, rn],
                dst_n: vec![rn, n as usize, n as usize],
                rmw: false,
                route: None,
            }
        }
        OpCode::TransposeLast2 | OpCode::Swap01 => {
            arity(ii, instr, 1, 1, 3)?;
            let n = prod(ii, &[d[0], d[1], d[2]])?;
            Effects { arg_n: vec![n], dst_n: vec![n], rmw: false, route: None }
        }
        OpCode::ConcatLast => {
            arity(ii, instr, 1, 2, 3)?;
            let (rows, na, nb) = (d[0], d[1], d[2]);
            let total = (na as usize)
                .checked_add(nb as usize)
                .and_then(|w| w.checked_mul(rows as usize))
                .ok_or_else(|| {
                    verr(Some(ii), VerifyErrorKind::ShapeMismatch, "dims product overflows")
                })?;
            Effects {
                arg_n: vec![prod(ii, &[rows, na])?, prod(ii, &[rows, nb])?],
                dst_n: vec![total],
                rmw: false,
                route: None,
            }
        }
        OpCode::SliceCols => {
            arity(ii, instr, 1, 1, 4)?;
            let (rows, n, from, to) = (d[0], d[1], d[2], d[3]);
            if from > to || to > n {
                return Err(verr(
                    Some(ii),
                    VerifyErrorKind::ShapeMismatch,
                    format!("slice_cols range {from}..{to} out of 0..{n}"),
                ));
            }
            Effects {
                arg_n: vec![prod(ii, &[rows, n])?],
                dst_n: vec![prod(ii, &[rows, to - from])?],
                rmw: false,
                route: None,
            }
        }
        OpCode::ScatterCols => {
            arity(ii, instr, 1, 1, 4)?;
            let (rows, n, start, w) = (d[0], d[1], d[2], d[3]);
            if start.checked_add(w).is_none_or(|end| end > n) {
                return Err(verr(
                    Some(ii),
                    VerifyErrorKind::ShapeMismatch,
                    format!("scatter_cols window {start}+{w} out of 0..{n}"),
                ));
            }
            Effects {
                arg_n: vec![prod(ii, &[rows, w])?],
                dst_n: vec![prod(ii, &[rows, n])?],
                rmw: false,
                route: None,
            }
        }
        OpCode::MeanAll | OpCode::SumAll => {
            arity(ii, instr, 1, 1, 1)?;
            Effects { arg_n: vec![du(0)], dst_n: vec![1], rmw: false, route: None }
        }
    };
    for (&n, what) in eff.arg_n.iter().zip(std::iter::repeat("argument")).chain(
        eff.dst_n.iter().zip(std::iter::repeat("result")),
    ) {
        if n == 0 {
            return Err(verr(
                Some(ii),
                VerifyErrorKind::ShapeMismatch,
                format!("{} {what} is zero-sized", instr.op.name()),
            ));
        }
    }
    Ok(eff)
}

// ---------------------------------------------------------------------------
// Plan-level dataflow walk
// ---------------------------------------------------------------------------

/// The live value held by a slot during the abstract walk.
#[derive(Clone, Copy)]
struct Value {
    numel: usize,
    def_instr: usize,
}

/// Pool-class capacity for a value: the allocator's sizing rule.
fn class(numel: usize) -> usize {
    numel.next_power_of_two().max(1)
}

fn dims_numel(dims: &[usize]) -> Option<usize> {
    dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d))
}

/// Verifies a plan with the static dataflow analysis described in the module
/// docs. On success the plan is safe for the VM to replay: every read sees a
/// defined value of exactly the size the kernel will touch, every write fits
/// its slot, the declared sinks exist, and no instruction is wasted work.
///
/// Emits the `plan/verify_dead` trace counter (number of dead instructions
/// found, normally 0) and runs under a `plan/verify` span; callers invoke it
/// from `plan/compile`, keeping the cost off the replay path.
pub fn verify_plan(plan: &Plan) -> Result<(), VerifyError> {
    focus_trace::span!("plan/verify");
    if FAIL_ALL.with(Cell::get) {
        return Err(verr(Some(0), VerifyErrorKind::Injected, "verification failpoint enabled"));
    }

    let n_slots = plan.slot_caps.len();
    for (s, &cap) in plan.slot_caps.iter().enumerate() {
        if cap == 0 || !cap.is_power_of_two() {
            return Err(verr(
                None,
                VerifyErrorKind::CapMismatch,
                format!("slot {s} capacity {cap} is not a pool class (power of two)"),
            ));
        }
    }
    for (ci, (dims, data)) in plan.statics.iter().enumerate() {
        if dims_numel(dims) != Some(data.len()) {
            return Err(verr(
                None,
                VerifyErrorKind::ShapeMismatch,
                format!("static {ci} data length {} does not match its dims", data.len()),
            ));
        }
    }

    let mut slot_val: Vec<Option<Value>> = vec![None; n_slots];
    let mut ever_written = vec![false; n_slots];
    let mut instr_used = vec![false; plan.instrs.len()];

    for (ii, instr) in plan.instrs.iter().enumerate() {
        let eff = effects(ii, instr)?;

        // No argument may alias a destination: the VM `mem::take`s every
        // destination buffer before resolving arguments, so an aliased read
        // would see an empty slice. Destinations must also be distinct.
        for (di, &ds) in instr.dsts.iter().enumerate() {
            if instr.dsts[..di].contains(&ds) {
                return Err(verr(
                    Some(ii),
                    VerifyErrorKind::Aliasing,
                    format!("{} writes slot {ds} twice", instr.op.name()),
                ));
            }
            if instr.args.contains(&Loc::Slot(ds)) {
                return Err(verr(
                    Some(ii),
                    VerifyErrorKind::Aliasing,
                    format!("{} reads slot {ds} it is also writing", instr.op.name()),
                ));
            }
        }

        // Route geometry against the recorded route table. Replay checks
        // every index against the route's bound, so a bound above this
        // kernel's prototype count would let an index read past `head`.
        if let Some((src, want, k)) = eff.route {
            let &(got, bound) = plan.routes.get(src).ok_or_else(|| {
                verr(
                    Some(ii),
                    VerifyErrorKind::OutOfRange,
                    format!("{} route source {src} out of range", instr.op.name()),
                )
            })?;
            if got != want {
                return Err(verr(
                    Some(ii),
                    VerifyErrorKind::ShapeMismatch,
                    format!(
                        "{} needs {want} route indices from source {src}, table records {got}",
                        instr.op.name()
                    ),
                ));
            }
            if k < bound {
                return Err(verr(
                    Some(ii),
                    VerifyErrorKind::ShapeMismatch,
                    format!(
                        "{} indexes {k} prototypes through route {src}, whose bound is {bound}",
                        instr.op.name()
                    ),
                ));
            }
        }

        // Argument reads: defined, in range, and exactly the size the kernel
        // will slice.
        for (ai, (&loc, &need)) in instr.args.iter().zip(&eff.arg_n).enumerate() {
            let have = match loc {
                Loc::Slot(s) => {
                    let si = s as usize;
                    if si >= n_slots {
                        return Err(verr(
                            Some(ii),
                            VerifyErrorKind::OutOfRange,
                            format!("{} arg {ai} slot {s} out of range", instr.op.name()),
                        ));
                    }
                    let val = slot_val[si].ok_or_else(|| {
                        verr(
                            Some(ii),
                            VerifyErrorKind::UseBeforeDef,
                            format!("{} arg {ai} reads slot {s} before any write", instr.op.name()),
                        )
                    })?;
                    instr_used[val.def_instr] = true;
                    val.numel
                }
                Loc::Param(p) => {
                    let dims = plan.params.get(p as usize).ok_or_else(|| {
                        verr(
                            Some(ii),
                            VerifyErrorKind::OutOfRange,
                            format!("{} arg {ai} param {p} out of range", instr.op.name()),
                        )
                    })?;
                    dims_numel(dims).unwrap_or(0)
                }
                Loc::Input(j) => {
                    let dims = plan.inputs.get(j as usize).ok_or_else(|| {
                        verr(
                            Some(ii),
                            VerifyErrorKind::OutOfRange,
                            format!("{} arg {ai} input {j} out of range", instr.op.name()),
                        )
                    })?;
                    dims_numel(dims).unwrap_or(0)
                }
                Loc::Static(c) => {
                    let (_, data) = plan.statics.get(c as usize).ok_or_else(|| {
                        verr(
                            Some(ii),
                            VerifyErrorKind::OutOfRange,
                            format!("{} arg {ai} static {c} out of range", instr.op.name()),
                        )
                    })?;
                    data.len()
                }
            };
            if have != need {
                return Err(verr(
                    Some(ii),
                    VerifyErrorKind::ShapeMismatch,
                    format!(
                        "{} arg {ai} needs {need} elements, {} holds {have}",
                        instr.op.name(),
                        loc_desc(loc),
                    ),
                ));
            }
        }

        // Destination writes. `Axpy` reads-modifies-writes: the accumulator
        // must already hold a value of the same size, and the instruction
        // takes over ownership of it (so an accumulation nobody reads is
        // still flagged dead).
        for (di, (&ds, &numel)) in instr.dsts.iter().zip(&eff.dst_n).enumerate() {
            let si = ds as usize;
            if si >= n_slots {
                return Err(verr(
                    Some(ii),
                    VerifyErrorKind::OutOfRange,
                    format!("{} dst {di} slot {ds} out of range", instr.op.name()),
                ));
            }
            if eff.rmw {
                let val = slot_val[si].ok_or_else(|| {
                    verr(
                        Some(ii),
                        VerifyErrorKind::UseBeforeDef,
                        format!("{} accumulates into slot {ds} before any write", instr.op.name()),
                    )
                })?;
                if val.numel != numel {
                    return Err(verr(
                        Some(ii),
                        VerifyErrorKind::ShapeMismatch,
                        format!(
                            "{} accumulates {numel} elements into slot {ds} holding {}",
                            instr.op.name(),
                            val.numel
                        ),
                    ));
                }
                instr_used[val.def_instr] = true;
            }
            if class(numel) != plan.slot_caps[si] {
                return Err(verr(
                    Some(ii),
                    VerifyErrorKind::CapMismatch,
                    format!(
                        "{} writes {numel} elements (class {}) into slot {ds} of capacity {}",
                        instr.op.name(),
                        class(numel),
                        plan.slot_caps[si]
                    ),
                ));
            }
            ever_written[si] = true;
            slot_val[si] = Some(Value { numel, def_instr: ii });
        }
    }

    check_sinks(plan, &slot_val, &mut instr_used)?;

    // Dead / leaked results. `instr_used` now covers instruction-stream reads
    // and sink reads; anything unmarked produced a value nobody will ever
    // look at.
    let dead: Vec<usize> =
        (0..plan.instrs.len()).filter(|&ii| !instr_used[ii]).collect();
    focus_trace::counter_set("plan/verify_dead", dead.len() as u64);
    if let Some(&ii) = dead.first() {
        let at_exit = plan.instrs[ii]
            .dsts
            .iter()
            .any(|&ds| slot_val[ds as usize].is_some_and(|v| v.def_instr == ii));
        let (kind, how) = if at_exit {
            (VerifyErrorKind::LeakedValue, "leaked live at plan exit")
        } else {
            (VerifyErrorKind::DeadInstr, "overwritten without ever being read")
        };
        return Err(verr(
            Some(ii),
            kind,
            format!(
                "{} result is never consumed and is not a plan sink ({how})",
                plan.instrs[ii].op.name()
            ),
        ));
    }

    if let Some(s) = ever_written.iter().position(|&w| !w) {
        return Err(verr(
            None,
            VerifyErrorKind::UnwrittenSlot,
            format!("slot {s} is allocated but no instruction ever defines it"),
        ));
    }
    Ok(())
}

fn loc_desc(loc: Loc) -> String {
    match loc {
        Loc::Slot(i) => format!("slot {i}"),
        Loc::Param(i) => format!("param {i}"),
        Loc::Input(i) => format!("input {i}"),
        Loc::Static(i) => format!("static {i}"),
    }
}

/// Validates the plan's declared sinks against the final abstract state and
/// marks their defining instructions as consumed.
fn check_sinks(
    plan: &Plan,
    slot_val: &[Option<Value>],
    instr_used: &mut [bool],
) -> Result<(), VerifyError> {
    let sink_err = |msg: String| verr(None, VerifyErrorKind::BadSink, msg);
    let live = |slot: u32, what: &str| -> Result<Value, VerifyError> {
        slot_val
            .get(slot as usize)
            .copied()
            .ok_or_else(|| sink_err(format!("{what} slot {slot} out of range")))?
            .ok_or_else(|| sink_err(format!("{what} slot {slot} holds no value at plan exit")))
    };

    match (plan.loss_slot, &plan.output) {
        (Some(_), Some(_)) => {
            return Err(sink_err("plan declares both a loss and an output sink".into()))
        }
        (None, None) => {
            return Err(sink_err("plan declares neither a loss nor an output sink".into()))
        }
        (Some(loss), None) => {
            let val = live(loss, "loss")?;
            if val.numel != 1 {
                return Err(sink_err(format!(
                    "loss slot {loss} holds {} elements, expected a scalar",
                    val.numel
                )));
            }
            instr_used[val.def_instr] = true;
        }
        (None, Some((out, dims))) => {
            if !plan.updates.is_empty() {
                return Err(sink_err("forward plan declares parameter updates".into()));
            }
            let val = live(*out, "output")?;
            if dims_numel(dims) != Some(val.numel) {
                return Err(sink_err(format!(
                    "output slot {out} holds {} elements, dims want {dims:?}",
                    val.numel
                )));
            }
            instr_used[val.def_instr] = true;
        }
    }

    let mut sink_slots: Vec<u32> = plan.loss_slot.into_iter().collect();
    let mut seen_params: Vec<u32> = Vec::new();
    for u in &plan.updates {
        let pdims = plan
            .params
            .get(u.param as usize)
            .ok_or_else(|| sink_err(format!("update param {} out of range", u.param)))?;
        if seen_params.contains(&u.param) {
            return Err(sink_err(format!("param {} updated twice", u.param)));
        }
        seen_params.push(u.param);
        let want = dims_numel(&u.dims).unwrap_or(0);
        if dims_numel(pdims) != Some(want) {
            return Err(sink_err(format!(
                "update for param {} disagrees with the parameter's recorded dims",
                u.param
            )));
        }
        let val = live(u.grad_slot, "gradient")?;
        if val.numel != want {
            return Err(sink_err(format!(
                "gradient slot {} holds {} elements, param {} wants {want}",
                u.grad_slot, val.numel, u.param
            )));
        }
        if sink_slots.contains(&u.grad_slot) {
            return Err(sink_err(format!("sink slot {} declared twice", u.grad_slot)));
        }
        sink_slots.push(u.grad_slot);
        instr_used[val.def_instr] = true;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Compile-time interval check
// ---------------------------------------------------------------------------

/// Checks that no two virtual registers assigned to the same slot have
/// overlapping live intervals, and that a slot is only recycled *strictly
/// after* its previous occupant's last use.
///
/// This is the one lifetime property the plan-level walk cannot observe: at
/// the slot level, a read always attaches to the most recent definition, so
/// an overwrite-while-live is indistinguishable from a legitimate recycle.
/// Only the compiler knows the virtual-register liveness it allocated from,
/// so this check runs during compilation, on that data.
pub(crate) fn check_intervals(
    slot_of: &[u32],
    first_def: &[Option<usize>],
    last_use: &[usize],
) -> Result<(), VerifyError> {
    // Group vreg intervals per slot, ordered by first definition.
    let mut by_slot: std::collections::BTreeMap<u32, Vec<(usize, usize, usize)>> =
        std::collections::BTreeMap::new();
    for (v, &s) in slot_of.iter().enumerate() {
        if s == u32::MAX {
            continue;
        }
        let Some(def) = first_def[v] else { continue };
        by_slot.entry(s).or_default().push((def, last_use[v], v));
    }
    for (slot, mut ivs) in by_slot {
        ivs.sort_unstable();
        for w in ivs.windows(2) {
            let (_, prev_end, prev_v) = w[0];
            let (next_def, _, next_v) = w[1];
            if next_def <= prev_end {
                return Err(verr(
                    Some(next_def),
                    VerifyErrorKind::OverlappingLiveRange,
                    format!(
                        "slot {slot} rebound to v{next_v} at instr {next_def} while v{prev_v} \
                         is live until instr {prev_end}"
                    ),
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    //! The corrupted-plan corpus. The compiler verifies everything it emits,
    //! so these tests compile real plans and corrupt them the way a buggy
    //! compiler would, then require each corruption to come back as the
    //! expected [`VerifyErrorKind`] naming the offending instruction — a
    //! corrupted plan names its own corruption site.

    use super::*;
    use crate::plan::{compile_forward, compile_train};
    use crate::{Graph, ParamStore, ParamVars, Var};
    use focus_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::Rng;

    const N: usize = 4;
    const D: usize = 3;
    const H: usize = 8;

    fn pseudo(n: usize, seed: u32) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let h = (i as u32)
                    .wrapping_mul(2_654_435_761)
                    .wrapping_add(seed.wrapping_mul(0x9e37_79b9));
                let h = h ^ (h >> 13);
                (((h % 2000) as f32 / 1000.0) - 1.0) * 0.4
            })
            .collect()
    }

    /// Records a small MLP (matmul → bias → gelu → matmul) over an input
    /// window, returning the graph, its parameter registration and the
    /// prediction `[N]`.
    fn small_mlp() -> (Graph, ParamVars, Var) {
        let mut store = ParamStore::new();
        store.add("w1", Tensor::from_vec(pseudo(D * H, 1), &[D, H]));
        store.add("b1", Tensor::from_vec(pseudo(H, 2), &[H]));
        store.add("w2", Tensor::from_vec(pseudo(H, 3), &[H, 1]));
        let mut g = Graph::new();
        let pv = store.register(&mut g);
        let p = pv.raw();
        let x = g.input(Tensor::from_vec(pseudo(N * D, 10), &[N, D]));
        let h = g.matmul(x, p[0]);
        let h = g.add_row_broadcast(h, p[1]);
        let h = g.gelu(h);
        let out = g.matmul(h, p[2]);
        let pred = g.reshape(out, &[N]);
        (g, pv, pred)
    }

    /// A training plan of the small MLP against an input target: enough
    /// instructions to host every corruption below while staying readable in
    /// a failing-test dump.
    fn small_train_plan() -> Plan {
        let (mut g, pv, pred) = small_mlp();
        let tgt = g.input(Tensor::from_vec(pseudo(N, 11), &[N]));
        let loss = g.mse(pred, tgt);
        compile_train(&g, loss, &pv).expect("small model compiles")
    }

    /// A forward plan that also bakes a static and routes through a route,
    /// so the structural fuzz reaches every table a plan carries.
    fn routed_forward_plan() -> Plan {
        let (mut g, pv, pred) = small_mlp();
        let shift = g.constant(Tensor::from_vec(pseudo(N, 12), &[N]));
        let y = g.add(pred, shift);
        let head = g.reshape(y, &[1, N, 1]);
        let route = g.route(vec![3, 0, 1, 1, 2, 0]);
        let out = g.route_one_hot(head, route, 6);
        compile_forward(&g, out, &pv).expect("routed model compiles")
    }

    /// Per-slot index of the first instruction that defines it.
    fn first_defs(plan: &Plan) -> Vec<Option<usize>> {
        let mut first = vec![None; plan.slot_caps.len()];
        for (ii, ins) in plan.instrs.iter().enumerate() {
            for &d in &ins.dsts {
                first[d as usize].get_or_insert(ii);
            }
        }
        first
    }

    /// The first instruction reading a slot, and which argument reads it.
    fn first_slot_read(plan: &Plan) -> (usize, usize) {
        plan.instrs
            .iter()
            .enumerate()
            .find_map(|(ii, ins)| {
                ins.args.iter().position(|a| matches!(a, Loc::Slot(_))).map(|ai| (ii, ai))
            })
            .expect("some instruction reads a slot")
    }

    fn fill(slot: u32, n: usize) -> Instr {
        Instr { op: OpCode::Fill, dsts: vec![slot], args: vec![], dims: vec![n as u32], imm: 0.0 }
    }

    #[test]
    fn compiler_emitted_plans_pass() {
        verify_plan(&small_train_plan()).expect("compiled train plan verifies");
        verify_plan(&routed_forward_plan()).expect("compiled forward plan verifies");
    }

    /// Retargets an early instruction's slot argument at a slot that is only
    /// defined later in the stream.
    #[test]
    fn use_before_def_is_rejected() {
        let mut plan = small_train_plan();
        let first = first_defs(&plan);
        let (ii, ai) = first_slot_read(&plan);
        let late = first
            .iter()
            .enumerate()
            .find(|(s, d)| {
                d.is_some_and(|d| d > ii) && !plan.instrs[ii].dsts.contains(&(*s as u32))
            })
            .map(|(s, _)| s as u32)
            .expect("some slot is first defined later");
        plan.instrs[ii].args[ai] = Loc::Slot(late);
        let err = verify_plan(&plan).expect_err("use-before-def must be rejected");
        assert_eq!(err.kind, VerifyErrorKind::UseBeforeDef, "{err}");
        assert_eq!(err.instr, Some(ii), "diagnostic names the offending instruction: {err}");
    }

    /// Bumps a zip kernel's element count by one: the abstract shape
    /// interpretation disagrees with the operands' real sizes.
    #[test]
    fn shape_mismatch_is_rejected() {
        let mut plan = small_train_plan();
        let ii = plan
            .instrs
            .iter()
            .position(|ins| ins.op.name().starts_with("zip_") && ins.dims == [(N * H) as u32])
            .expect("a zip over the hidden activation exists");
        plan.instrs[ii].dims[0] += 1;
        let err = verify_plan(&plan).expect_err("shape mismatch must be rejected");
        assert_eq!(err.kind, VerifyErrorKind::ShapeMismatch, "{err}");
        assert_eq!(err.instr, Some(ii), "diagnostic names the offending instruction: {err}");
    }

    /// Retargets a multi-element result at the (capacity-1) loss slot: two
    /// live values forced into one slot the allocator never sized for it.
    #[test]
    fn double_assigned_slot_is_rejected() {
        let mut plan = small_train_plan();
        let loss_slot = plan.loss_slot.expect("train plan has a loss sink");
        let ii = plan
            .instrs
            .iter()
            .position(|ins| {
                ins.op.name().starts_with("zip_")
                    && ins.dims == [(N * H) as u32]
                    && !ins.args.contains(&Loc::Slot(loss_slot))
            })
            .expect("a wide zip not reading the loss slot exists");
        plan.instrs[ii].dsts[0] = loss_slot;
        let err = verify_plan(&plan).expect_err("double-assigned slot must be rejected");
        assert_eq!(err.kind, VerifyErrorKind::CapMismatch, "{err}");
        assert_eq!(err.instr, Some(ii), "diagnostic names the offending instruction: {err}");
    }

    /// Inserts a fill whose result is immediately overwritten: pure wasted
    /// work the dead-instruction analysis must flag.
    #[test]
    fn dead_instruction_is_rejected() {
        let mut plan = small_train_plan();
        // The slot defined latest: a fill right before its first definition
        // is read by nothing in between.
        let (slot, jj) = first_defs(&plan)
            .iter()
            .enumerate()
            .filter_map(|(s, d)| d.map(|d| (s, d)))
            .max_by_key(|&(_, d)| d)
            .expect("plan defines at least one slot");
        let cap = plan.slot_caps[slot];
        plan.instrs.insert(jj, fill(slot as u32, cap));
        let err = verify_plan(&plan).expect_err("dead instruction must be rejected");
        assert_eq!(err.kind, VerifyErrorKind::DeadInstr, "{err}");
        assert_eq!(err.instr, Some(jj), "diagnostic names the inserted instruction: {err}");
    }

    /// Appends a slot plus a fill into it at plan exit: the value survives
    /// the stream without being a declared sink — a leak.
    #[test]
    fn leaked_slot_is_rejected() {
        let mut plan = small_train_plan();
        let (n_slots, n_instrs) = (plan.slot_caps.len(), plan.instrs.len());
        plan.slot_caps.push(4);
        plan.instrs.push(fill(n_slots as u32, 4));
        let err = verify_plan(&plan).expect_err("leaked slot must be rejected");
        assert_eq!(err.kind, VerifyErrorKind::LeakedValue, "{err}");
        assert_eq!(err.instr, Some(n_instrs), "diagnostic names the leaking instruction: {err}");
    }

    /// A slot in the capacity table no instruction ever writes is the
    /// allocator leaking a buffer for nothing — rejected even though no
    /// instruction is at fault (table-level diagnostic, no index).
    #[test]
    fn unwritten_slot_is_rejected() {
        let mut plan = small_train_plan();
        plan.slot_caps.push(8);
        let err = verify_plan(&plan).expect_err("unwritten slot must be rejected");
        assert_eq!(err.kind, VerifyErrorKind::UnwrittenSlot, "{err}");
        assert_eq!(err.instr, None, "{err}");
    }

    /// A slot index past the capacity table is rejected with the
    /// instruction index.
    #[test]
    fn out_of_range_slot_is_rejected() {
        let mut plan = small_train_plan();
        let (ii, ai) = first_slot_read(&plan);
        plan.instrs[ii].args[ai] = Loc::Slot(9999);
        let err = verify_plan(&plan).expect_err("out-of-range slot must be rejected");
        assert_eq!(err.kind, VerifyErrorKind::OutOfRange, "{err}");
        assert_eq!(err.instr, Some(ii), "diagnostic names the offending instruction: {err}");
    }

    /// A batch flag other than 0 or 1 names no operand layout: either
    /// operand's flag set to 2 is rejected at its instruction.
    #[test]
    fn a_batch_flag_of_two_is_rejected() {
        let base = small_train_plan();
        let ii = base
            .instrs
            .iter()
            .position(|ins| ins.op == OpCode::BmmNn)
            .expect("the MLP's forward multiplies");
        for flag in [4, 5] {
            let mut plan = base.clone();
            plan.instrs[ii].dims[flag] = 2;
            let err = verify_plan(&plan).expect_err("a batch flag of 2 must be rejected");
            assert_eq!(err.kind, VerifyErrorKind::ShapeMismatch, "{err}");
            assert_eq!(err.instr, Some(ii), "diagnostic names the offending instruction: {err}");
            assert!(err.msg.contains("batch flag 2"), "{err}");
        }
    }

    /// Values a corrupted dim or index plausibly takes: boundaries, an
    /// off-by-one and powers of two.
    const NASTY: [u32; 8] = [0, 1, 2, 3, 1 << 16, 1 << 31, u32::MAX - 1, u32::MAX];

    /// An index near the table of size `n`: in range, just past it, or
    /// nasty.
    fn near(rng: &mut StdRng, n: usize) -> u32 {
        match rng.gen_range(0..3u32) {
            0 => rng.gen_range(0..n.max(1) as u32),
            1 => n as u32,
            _ => NASTY[rng.gen_range(0..NASTY.len())],
        }
    }

    /// One structural corruption: retarget a location, change a dim or a
    /// destination, drop, duplicate or insert an instruction, or add a slot.
    fn mutate(plan: &mut Plan, rng: &mut StdRng) {
        let n = plan.instrs.len();
        let ii = rng.gen_range(0..n);
        match rng.gen_range(0..7u32) {
            0 if !plan.instrs[ii].args.is_empty() => {
                let ai = rng.gen_range(0..plan.instrs[ii].args.len());
                plan.instrs[ii].args[ai] = match rng.gen_range(0..4u32) {
                    0 => Loc::Slot(near(rng, plan.slot_caps.len())),
                    1 => Loc::Param(near(rng, plan.params.len())),
                    2 => Loc::Input(near(rng, plan.inputs.len()) as u8),
                    _ => Loc::Static(near(rng, plan.statics.len())),
                };
            }
            1 if !plan.instrs[ii].dims.is_empty() => {
                let di = rng.gen_range(0..plan.instrs[ii].dims.len());
                let old = plan.instrs[ii].dims[di];
                plan.instrs[ii].dims[di] = match rng.gen_range(0..2u32) {
                    0 => old.wrapping_add(rng.gen_range(0..3u32)).wrapping_sub(1),
                    _ => NASTY[rng.gen_range(0..NASTY.len())],
                };
            }
            2 if !plan.instrs[ii].dsts.is_empty() => {
                let di = rng.gen_range(0..plan.instrs[ii].dsts.len());
                plan.instrs[ii].dsts[di] = near(rng, plan.slot_caps.len());
            }
            3 => {
                plan.instrs.remove(ii);
            }
            4 => {
                let dup = plan.instrs[ii].clone();
                plan.instrs.insert(ii, dup);
            }
            5 => {
                let other = plan.instrs[rng.gen_range(0..n)].clone();
                plan.instrs.insert(ii, other);
            }
            _ => plan.slot_caps.push(NASTY[rng.gen_range(0..NASTY.len())] as usize),
        }
    }

    /// Every rejection names its position: the offending instruction, or
    /// for a table-level failure the slot it concerns.
    fn check_positioned(plan: &Plan) -> Result<(), String> {
        let verdict = std::panic::catch_unwind(|| verify_plan(plan))
            .map_err(|_| format!("verify_plan panicked on {plan:?}"))?;
        match verdict {
            Ok(()) => Ok(()),
            Err(e) if e.instr.map_or(e.msg.contains("slot"), |i| i < plan.instrs.len()) => Ok(()),
            Err(e) => Err(format!("rejection not positioned: {e}")),
        }
    }

    #[test]
    fn structurally_mutated_plans_never_panic_the_verifier() {
        let corpus = [small_train_plan(), routed_forward_plan()];
        assert!(!corpus[1].statics.is_empty() && !corpus[1].routes.is_empty());
        let mut rejected = 0usize;
        let mut runner = proptest::test_runner::TestRunner::new(
            proptest::test_runner::ProptestConfig::with_cases(512),
            "structurally_mutated_plans_never_panic_the_verifier",
        );
        runner.run(|rng| {
            for base in &corpus {
                let mut plan = base.clone();
                for _ in 0..rng.gen_range(1..3u32) {
                    mutate(&mut plan, rng);
                }
                rejected += usize::from(verify_plan(&plan).is_err());
                check_positioned(&plan).map_err(proptest::test_runner::TestCaseError::fail)?;
            }
            Ok(())
        });
        // Most corruptions must be caught; a few (a no-op dim change, a
        // duplicated pure instruction over dead data) are harmless.
        assert!(rejected > 512, "only {rejected} of 1024 mutated plans were rejected");
    }

    #[test]
    fn a_route_bound_above_the_kernel_k_is_rejected() {
        let mut plan = routed_forward_plan();
        let ii = plan
            .instrs
            .iter()
            .position(|ins| ins.op == OpCode::RouteGather)
            .expect("the routed plan gathers");
        plan.routes[0].1 += 1;
        let err = verify_plan(&plan).expect_err("a bound above k must be rejected");
        assert_eq!(err.kind, VerifyErrorKind::ShapeMismatch, "{err}");
        assert_eq!(err.instr, Some(ii), "{err}");
    }
}
