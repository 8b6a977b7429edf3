//! Corpus tests for the plan IR static verifier.
//!
//! The compiler runs `verify_plan` on everything it emits, so the only way to
//! exercise the verifier's rejection paths from outside the crate is the text
//! format: compile a real plan, serialize it, corrupt one line the way a
//! buggy compiler (or a bit-flipped plan file) would, re-parse and verify.
//! Each corruption must come back as the expected [`VerifyErrorKind`] *with
//! the offending instruction index* — a corrupted plan names its own
//! corruption site. The same file also covers malformed `focus-plan v1` text
//! (truncated stream, bad f32 hex bits, unknown opcode, out-of-range slot,
//! huge counts), fuzzes the parser and verifier with random and mutated plan
//! text, and proves that a verifier rejection fails the step with the
//! verifier's positioned message instead of running anything.

use std::sync::{Mutex, MutexGuard, OnceLock};

use focus_autograd::plan::{self, Loc, Plan, PlanCache};
use focus_autograd::verify::{self, VerifyErrorKind};
use focus_autograd::{Graph, ParamStore, Sgd};
use focus_tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;

const N: usize = 4;
const D: usize = 3;
const H: usize = 8;

/// The fused flag, the plan gate and the verifier failpoint are
/// process-global; serialize the tests in this binary.
fn guard() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|p| p.into_inner())
}

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

fn small_store() -> (ParamStore, Vec<focus_autograd::ParamId>) {
    let mut store = ParamStore::new();
    let ids = vec![
        store.add("w1", Tensor::from_vec(pseudo(D * H, 1), &[D, H])),
        store.add("b1", Tensor::from_vec(pseudo(H, 2), &[H])),
        store.add("w2", Tensor::from_vec(pseudo(H, 3), &[H, 1])),
    ];
    (store, ids)
}

fn sample() -> (Tensor, Tensor) {
    let x = Tensor::from_vec(pseudo(N * D, 10), &[N, D]);
    let t = Tensor::from_vec(pseudo(N, 11), &[N]);
    (x, t)
}

/// Records a small MLP (matmul → bias → gelu → matmul → mse) and compiles a
/// training plan: enough instructions to host every corruption below while
/// staying readable in a failing-test dump.
fn small_train_plan() -> Plan {
    let (store, ids) = small_store();
    let (x_t, tgt_t) = sample();
    let mut g = Graph::new();
    let pv = store.register(&mut g);
    let (w1, b1, w2) = (pv.var(ids[0]), pv.var(ids[1]), pv.var(ids[2]));
    let x = g.constant(x_t.clone());
    let tgt = g.constant(tgt_t.clone());
    let h = g.matmul(x, w1);
    let h = g.add_row_broadcast(h, b1);
    let h = g.gelu(h);
    let p = g.matmul(h, w2);
    let pf = g.reshape(p, &[N]);
    let loss = g.mse(pf, tgt);
    plan::compile_train(&g, loss, &pv, &[&x_t, &tgt_t], &[]).expect("small model compiles")
}

fn small_forward_plan() -> Plan {
    let (store, ids) = small_store();
    let (x_t, tgt_t) = sample();
    let mut g = Graph::new();
    let pv = store.register(&mut g);
    let (w1, b1, w2) = (pv.var(ids[0]), pv.var(ids[1]), pv.var(ids[2]));
    let x = g.constant(x_t.clone());
    let _tgt = g.constant(tgt_t.clone());
    let h = g.matmul(x, w1);
    let h = g.add_row_broadcast(h, b1);
    let h = g.gelu(h);
    let p = g.matmul(h, w2);
    plan::compile_forward(&g, p, &pv, &[&x_t, &tgt_t], &[]).expect("compiles")
}

// ---------------------------------------------------------------------------
// Text-surgery helpers
// ---------------------------------------------------------------------------

fn lines_of(p: &Plan) -> Vec<String> {
    p.to_text().lines().map(String::from).collect()
}

fn reparse(lines: &[String]) -> Plan {
    let text = lines.join("\n") + "\n";
    Plan::from_text(&text).expect("corrupted plan must still parse; verification is separate")
}

/// 0-based line index of the k-th instruction line (`i ...`).
fn instr_line(lines: &[String], k: usize) -> usize {
    lines
        .iter()
        .enumerate()
        .filter(|(_, l)| l.starts_with("i "))
        .nth(k)
        .map(|(i, _)| i)
        .expect("instruction line exists")
}

/// 0-based line index of the section header `<key> <count>`.
fn header_line(lines: &[String], key: &str) -> usize {
    lines
        .iter()
        .position(|l| l.split_whitespace().next() == Some(key))
        .expect("section header exists")
}

fn bump_header(lines: &mut [String], key: &str, delta: usize) {
    let idx = header_line(lines, key);
    let count: usize = lines[idx]
        .split_whitespace()
        .nth(1)
        .and_then(|t| t.parse().ok())
        .expect("header count parses");
    lines[idx] = format!("{key} {}", count + delta);
}

/// Replaces one whitespace token of a line; `sect` is the section tag
/// (`"d"`, `"a"` or `"m"`) and `k` the operand index within that section.
fn set_operand(line: &str, sect: &str, k: usize, new_tok: &str) -> String {
    let mut toks: Vec<String> = line.split_whitespace().map(String::from).collect();
    let at = toks.iter().position(|t| t == sect).expect("section tag present");
    toks[at + 2 + k] = new_tok.to_string();
    toks.join(" ")
}

/// Replaces the count after a section tag (`"d"`, `"a"` or `"m"`).
fn set_count(line: &str, sect: &str, count: &str) -> String {
    let mut toks: Vec<&str> = line.split_whitespace().collect();
    let at = toks.iter().position(|&t| t == sect).expect("section tag present");
    toks[at + 1] = count;
    toks.join(" ")
}

/// Per-slot index of the first instruction that defines it.
fn first_defs(plan: &Plan) -> Vec<Option<usize>> {
    let n_slots = lines_between_headers(plan);
    let mut first = vec![None; n_slots];
    for (ii, ins) in plan.instrs().iter().enumerate() {
        for &d in &ins.dsts {
            let slot = &mut first[d as usize];
            if slot.is_none() {
                *slot = Some(ii);
            }
        }
    }
    first
}

/// Slot count read back through the text format (slot tables are
/// crate-private; the serialized form is the public window onto them).
fn lines_between_headers(plan: &Plan) -> usize {
    let lines = lines_of(plan);
    let idx = header_line(&lines, "slots");
    lines[idx].split_whitespace().nth(1).and_then(|t| t.parse().ok()).expect("slot count")
}

fn slot_cap(lines: &[String], slot: usize) -> usize {
    let base = header_line(lines, "slots");
    lines[base + 1 + slot]
        .split_whitespace()
        .nth(1)
        .and_then(|t| t.parse().ok())
        .expect("slot cap parses")
}

// ---------------------------------------------------------------------------
// Acceptance: everything the compiler emits passes
// ---------------------------------------------------------------------------

/// The compiler already verifies internally (a `Rejected` compile error would
/// fail the `expect` above, and the plan-parity suite compiles far bigger
/// tapes). This re-checks explicitly through the public entry point, and —
/// more importantly — verifies the *deserialized* plan, which never went
/// through `compile`.
#[test]
fn compiler_emitted_plans_pass_the_verifier() {
    let _lock = guard();
    let train = small_train_plan();
    train.verify().expect("compiled train plan verifies");
    let round = Plan::from_text(&train.to_text()).expect("parses");
    round.verify().expect("deserialized train plan verifies");

    let fwd = small_forward_plan();
    fwd.verify().expect("compiled forward plan verifies");
    let round = Plan::from_text(&fwd.to_text()).expect("parses");
    round.verify().expect("deserialized forward plan verifies");
}

// ---------------------------------------------------------------------------
// Corrupted-plan corpus: each case is rejected with the offending index
// ---------------------------------------------------------------------------

/// Retargets an early instruction's slot argument at a slot that is only
/// defined later in the stream.
#[test]
fn corrupted_use_before_def_is_rejected() {
    let _lock = guard();
    let plan = small_train_plan();
    let first = first_defs(&plan);
    let (ii, ai) = plan
        .instrs()
        .iter()
        .enumerate()
        .find_map(|(ii, ins)| {
            ins.args
                .iter()
                .position(|a| matches!(a, Loc::Slot(_)))
                .map(|ai| (ii, ai))
        })
        .expect("some instruction reads a slot");
    let late = first
        .iter()
        .enumerate()
        .find(|(s, d)| {
            d.is_some_and(|d| d > ii) && !plan.instrs()[ii].dsts.contains(&(*s as u32))
        })
        .map(|(s, _)| s)
        .expect("some slot is first defined later");

    let mut lines = lines_of(&plan);
    let li = instr_line(&lines, ii);
    lines[li] = set_operand(&lines[li], "a", ai, &format!("s{late}"));
    let err = reparse(&lines).verify().expect_err("use-before-def must be rejected");
    assert_eq!(err.kind, VerifyErrorKind::UseBeforeDef, "{err}");
    assert_eq!(err.instr, Some(ii), "diagnostic names the offending instruction: {err}");
}

/// Bumps a zip kernel's element count by one: the abstract shape
/// interpretation disagrees with the operands' real sizes.
#[test]
fn corrupted_shape_mismatch_is_rejected() {
    let _lock = guard();
    let plan = small_train_plan();
    let ii = plan
        .instrs()
        .iter()
        .position(|ins| ins.op.name().starts_with("zip_") && ins.dims == [(N * H) as u32])
        .expect("a zip over the hidden activation exists");

    let mut lines = lines_of(&plan);
    let li = instr_line(&lines, ii);
    lines[li] = set_operand(&lines[li], "m", 0, &format!("{}", N * H + 1));
    let err = reparse(&lines).verify().expect_err("shape mismatch must be rejected");
    assert_eq!(err.kind, VerifyErrorKind::ShapeMismatch, "{err}");
    assert_eq!(err.instr, Some(ii), "diagnostic names the offending instruction: {err}");
}

/// Retargets a multi-element result at the (capacity-1) loss slot: two live
/// values forced into one slot the allocator never sized for it.
#[test]
fn corrupted_double_assigned_slot_is_rejected() {
    let _lock = guard();
    let plan = small_train_plan();
    let lines = lines_of(&plan);
    let loss_slot: u32 = lines[header_line(&lines, "loss")]
        .split_whitespace()
        .nth(1)
        .and_then(|t| t.parse().ok())
        .expect("train plan has a loss sink");
    let ii = plan
        .instrs()
        .iter()
        .position(|ins| {
            ins.op.name().starts_with("zip_")
                && ins.dims == [(N * H) as u32]
                && !ins.args.contains(&Loc::Slot(loss_slot))
        })
        .expect("a wide zip not reading the loss slot exists");

    let mut lines = lines;
    let li = instr_line(&lines, ii);
    lines[li] = set_operand(&lines[li], "d", 0, &format!("{loss_slot}"));
    let err = reparse(&lines).verify().expect_err("double-assigned slot must be rejected");
    assert_eq!(err.kind, VerifyErrorKind::CapMismatch, "{err}");
    assert_eq!(err.instr, Some(ii), "diagnostic names the offending instruction: {err}");
}

/// Inserts a fill whose result is immediately overwritten: pure wasted work
/// the dead-instruction analysis must flag.
#[test]
fn corrupted_dead_instruction_is_rejected() {
    let _lock = guard();
    let plan = small_train_plan();
    let first = first_defs(&plan);
    // The slot defined latest: inserting a fill right before its first def
    // guarantees nothing reads the fill's value in between.
    let (slot, jj) = first
        .iter()
        .enumerate()
        .filter_map(|(s, d)| d.map(|d| (s, d)))
        .max_by_key(|&(_, d)| d)
        .expect("plan defines at least one slot");

    let mut lines = lines_of(&plan);
    let cap = slot_cap(&lines, slot);
    let li = instr_line(&lines, jj);
    lines.insert(li, format!("i fill d 1 {slot} a 0 m 1 {cap} imm 00000000"));
    bump_header(&mut lines, "instrs", 1);
    let err = reparse(&lines).verify().expect_err("dead instruction must be rejected");
    assert_eq!(err.kind, VerifyErrorKind::DeadInstr, "{err}");
    assert_eq!(err.instr, Some(jj), "diagnostic names the inserted instruction: {err}");
}

/// Appends a slot plus a fill into it at plan exit: the value survives the
/// stream without being a declared sink — a leak.
#[test]
fn corrupted_leaked_slot_is_rejected() {
    let _lock = guard();
    let plan = small_train_plan();
    let mut lines = lines_of(&plan);
    let n_slots: usize = lines[header_line(&lines, "slots")]
        .split_whitespace()
        .nth(1)
        .and_then(|t| t.parse().ok())
        .expect("slot count");
    let n_instrs = plan.instrs().len();

    let slots_at = header_line(&lines, "slots");
    lines.insert(slots_at + 1 + n_slots, "slot 4".to_string());
    bump_header(&mut lines, "slots", 1);
    let last_instr = instr_line(&lines, n_instrs - 1);
    lines.insert(last_instr + 1, format!("i fill d 1 {n_slots} a 0 m 1 4 imm 00000000"));
    bump_header(&mut lines, "instrs", 1);

    let err = reparse(&lines).verify().expect_err("leaked slot must be rejected");
    assert_eq!(err.kind, VerifyErrorKind::LeakedValue, "{err}");
    assert_eq!(err.instr, Some(n_instrs), "diagnostic names the leaking instruction: {err}");
}

/// A slot in the capacity table no instruction ever writes is the allocator
/// leaking a buffer for nothing — rejected even though no instruction is at
/// fault (table-level diagnostic, no index).
#[test]
fn corrupted_unwritten_slot_is_rejected() {
    let _lock = guard();
    let plan = small_train_plan();
    let mut lines = lines_of(&plan);
    let n_slots: usize = lines[header_line(&lines, "slots")]
        .split_whitespace()
        .nth(1)
        .and_then(|t| t.parse().ok())
        .expect("slot count");
    let slots_at = header_line(&lines, "slots");
    lines.insert(slots_at + 1 + n_slots, "slot 8".to_string());
    bump_header(&mut lines, "slots", 1);

    let err = reparse(&lines).verify().expect_err("unwritten slot must be rejected");
    assert_eq!(err.kind, VerifyErrorKind::UnwrittenSlot, "{err}");
    assert_eq!(err.instr, None, "{err}");
}

// ---------------------------------------------------------------------------
// Malformed `focus-plan v1` text: positioned errors, not panics
// ---------------------------------------------------------------------------

/// A slot index past the capacity table parses (the text format is purely
/// syntactic) but the verifier rejects it with the instruction index.
#[test]
fn out_of_range_slot_is_rejected_by_the_verifier() {
    let _lock = guard();
    let plan = small_train_plan();
    let (ii, ai) = plan
        .instrs()
        .iter()
        .enumerate()
        .find_map(|(ii, ins)| {
            ins.args
                .iter()
                .position(|a| matches!(a, Loc::Slot(_)))
                .map(|ai| (ii, ai))
        })
        .expect("some instruction reads a slot");
    let mut lines = lines_of(&plan);
    let li = instr_line(&lines, ii);
    lines[li] = set_operand(&lines[li], "a", ai, "s9999");
    let err = reparse(&lines).verify().expect_err("out-of-range slot must be rejected");
    assert_eq!(err.kind, VerifyErrorKind::OutOfRange, "{err}");
    assert_eq!(err.instr, Some(ii), "diagnostic names the offending instruction: {err}");
}

#[test]
fn truncated_stream_reports_the_eof_line() {
    let _lock = guard();
    let plan = small_train_plan();
    let lines = lines_of(&plan);
    // Cut mid-instruction-stream: the parser still owes the header's count.
    let keep = instr_line(&lines, 2) + 1;
    let text = lines[..keep].join("\n") + "\n";
    let err = Plan::from_text(&text).expect_err("truncated stream must fail");
    assert_eq!(err.line, keep + 1, "error positioned where input ran out: {err}");
    assert!(err.msg.contains("unexpected end"), "{err}");
}

#[test]
fn bad_f32_hex_bits_report_their_line() {
    let _lock = guard();
    let plan = small_train_plan();
    let mut lines = lines_of(&plan);
    let li = instr_line(&lines, 0);
    let n_toks = lines[li].split_whitespace().count();
    // The immediate is the last token of every instruction line.
    let mut toks: Vec<&str> = lines[li].split_whitespace().collect();
    toks[n_toks - 1] = "zzzzzzzz";
    lines[li] = toks.join(" ");
    let text = lines.join("\n") + "\n";
    let err = Plan::from_text(&text).expect_err("bad f32 bits must fail");
    assert_eq!(err.line, li + 1, "{err}");
    assert!(err.msg.contains("imm bits"), "{err}");
}

#[test]
fn unknown_opcode_reports_its_line() {
    let _lock = guard();
    let plan = small_train_plan();
    let mut lines = lines_of(&plan);
    let li = instr_line(&lines, 0);
    let mut toks: Vec<&str> = lines[li].split_whitespace().collect();
    toks[1] = "warp_drive";
    lines[li] = toks.join(" ");
    let text = lines.join("\n") + "\n";
    let err = Plan::from_text(&text).expect_err("unknown opcode must fail");
    assert_eq!(err.line, li + 1, "{err}");
    assert!(err.msg.contains("unknown opcode"), "{err}");
}

// ---------------------------------------------------------------------------
// Untrusted counts and fuzzed text
// ---------------------------------------------------------------------------

/// A forward plan that also bakes one constant into a `static` line, so the
/// fuzz corpus covers every section of the format.
fn static_plan() -> Plan {
    let (store, ids) = small_store();
    let (x_t, _) = sample();
    let mut g = Graph::new();
    let pv = store.register(&mut g);
    let x = g.constant(x_t.clone());
    let shift = g.constant(Tensor::from_vec(pseudo(H, 12), &[H]));
    let h = g.matmul(x, pv.var(ids[0]));
    let h = g.add_row_broadcast(h, shift);
    let h = g.sigmoid(h);
    let p = g.matmul(h, pv.var(ids[2]));
    plan::compile_forward(&g, p, &pv, &[&x_t], &[]).expect("static plan compiles")
}

/// Parses `text` and, when it parses, verifies the plan. Neither step may
/// panic, and a parse error must name a line of the input (or the line
/// after it, for a truncated stream).
fn parse_and_verify_never_panics(text: &str) -> Result<(), String> {
    let parsed = std::panic::catch_unwind(|| Plan::from_text(text))
        .map_err(|_| format!("from_text panicked on {text:?}"))?;
    match parsed {
        Err(e) if e.line == 0 || e.line > text.lines().count() + 1 => {
            Err(format!("error not positioned in the input: {e} for {text:?}"))
        }
        Err(_) => Ok(()),
        Ok(plan) => std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = plan.verify();
        }))
        .map_err(|_| format!("verify panicked on a parsed plan: {text:?}")),
    }
}

#[test]
fn huge_counts_are_positioned_errors_not_aborts() {
    let _lock = guard();
    let lines = lines_of(&small_train_plan());
    // Every counted section header, a dims count, and the three per-instr
    // counts, each set to u64::MAX: the parser used to `with_capacity` them.
    let max = u64::MAX.to_string();
    for key in ["slots", "statics", "inputs", "routes", "params", "instrs", "updates"] {
        let mut bad = lines.clone();
        bad[header_line(&lines, key)] = format!("{key} {max}");
        let err = Plan::from_text(&(bad.join("\n") + "\n")).expect_err("huge count must fail");
        assert!(err.line > header_line(&lines, key), "{key}: {err}");
    }
    let first_input = header_line(&lines, "inputs") + 1;
    let li = instr_line(&lines, 0);
    let edits = [
        (first_input, format!("input {max}")),
        (li, set_count(&lines[li], "d", &max)),
        (li, set_count(&lines[li], "a", &max)),
        (li, set_count(&lines[li], "m", &max)),
    ];
    for (at, line) in edits {
        let mut bad = lines.clone();
        bad[at] = line;
        let err = Plan::from_text(&(bad.join("\n") + "\n")).expect_err("huge count must fail");
        assert_eq!(err.line, at + 1, "{err}");
    }
    // A dims product that wraps to 0 in release builds used to accept a
    // static with no data.
    let mut bad = lines.clone();
    let st = header_line(&lines, "statics");
    bad[st] = "statics 1".into();
    bad.insert(st + 1, "static 2 4294967296 4294967296 :".into());
    let err = Plan::from_text(&(bad.join("\n") + "\n")).expect_err("overflowing dims must fail");
    assert_eq!(err.line, st + 2, "{err}");
    assert!(err.msg.contains("overflow"), "{err}");
}

/// Tokens a corrupted plan file plausibly carries: boundary integers, float
/// bit patterns, section keywords and operand tags.
const NASTY: [&str; 24] = [
    "0", "1", "2", "-1", "4294967295", "4294967296", "18446744073709551615",
    "99999999999999999999", "ffffffff", "7fc00000", "NaN", ":", "i", "d", "a", "m",
    "s0", "s4294967295", "p9", "i255", "c0", "imm", "end", "\u{e9}1",
];

/// One random corruption of `text`: a truncation, a token replaced by a
/// nasty token or by another token of the text, or a line dropped or
/// duplicated.
fn mutate(text: &str, rng: &mut StdRng) -> String {
    let mut lines: Vec<Vec<&str>> = text.lines().map(|l| l.split_whitespace().collect()).collect();
    if lines.is_empty() {
        return text.to_string();
    }
    match rng.gen_range(0..4u32) {
        0 => {
            let mut cut = rng.gen_range(0..text.len());
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            return text[..cut].to_string();
        }
        1 | 2 => {
            let li = rng.gen_range(0..lines.len());
            if !lines[li].is_empty() {
                let ti = rng.gen_range(0..lines[li].len());
                lines[li][ti] = if rng.gen_range(0..2u32) == 0 {
                    NASTY[rng.gen_range(0..NASTY.len())]
                } else {
                    let other = &lines[rng.gen_range(0..lines.len())];
                    other.get(ti).copied().unwrap_or("0")
                };
            }
        }
        _ => {
            let li = rng.gen_range(0..lines.len());
            if rng.gen_range(0..2u32) == 0 {
                lines.remove(li);
            } else {
                lines.insert(li, lines[li].clone());
            }
        }
    }
    lines.iter().map(|l| l.join(" ") + "\n").collect()
}

#[test]
fn fuzzed_plan_text_never_panics() {
    let _lock = guard();
    let corpus =
        [small_train_plan().to_text(), small_forward_plan().to_text(), static_plan().to_text()];
    assert!(corpus[2].contains("\nstatic "), "static_plan bakes a static");
    for text in &corpus {
        parse_and_verify_never_panics(text).expect("real plans parse and verify");
    }
    let mut runner = proptest::test_runner::TestRunner::new(
        proptest::test_runner::ProptestConfig::with_cases(512),
        "fuzzed_plan_text_never_panics",
    );
    runner.run(|rng| {
        let bytes: Vec<u8> =
            (0..rng.gen_range(0..96usize)).map(|_| rng.gen_range(0..256u32) as u8).collect();
        let noise = String::from_utf8_lossy(&bytes).into_owned();
        parse_and_verify_never_panics(&noise).map_err(proptest::test_runner::TestCaseError::fail)?;
        for text in &corpus {
            let mut t = mutate(text, rng);
            if rng.gen_range(0..4u32) == 0 {
                t = mutate(&t, rng);
            }
            parse_and_verify_never_panics(&t).map_err(proptest::test_runner::TestCaseError::fail)?;
        }
        Ok(())
    });
}

// ---------------------------------------------------------------------------
// Verifier rejection is a positioned error
// ---------------------------------------------------------------------------

#[test]
fn verifier_rejection_fails_the_step_with_its_position() {
    let _lock = guard();
    plan::set_enabled(true);
    let (mut store, ids) = small_store();
    let (x_t, tgt_t) = sample();
    let mut cache = PlanCache::new();
    let mut opt = Sgd::new(1e-2);

    let mut g = Graph::new();
    let pv = store.register(&mut g);
    let (w1, b1, w2) = (pv.var(ids[0]), pv.var(ids[1]), pv.var(ids[2]));
    let x = g.constant(x_t.clone());
    let tgt = g.constant(tgt_t.clone());
    let h = g.matmul(x, w1);
    let h = g.add_row_broadcast(h, b1);
    let h = g.gelu(h);
    let p = g.matmul(h, w2);
    let pf = g.reshape(p, &[N]);
    let loss = g.mse(pf, tgt);
    let before = store.snapshot();

    // The failpoint is per thread; it is cleared before any assertion can
    // unwind past it.
    verify::set_fail_all(true);
    let res = cache.run_train(&g, loss, &pv, &mut store, &mut opt, &[&x_t, &tgt_t], &[]);
    verify::set_fail_all(false);

    let err = res.expect_err("an armed failpoint rejects the plan");
    assert!(
        matches!(&err, plan::CompileError::Rejected(e) if e.instr == Some(0)),
        "rejection carries the verifier's position: {err:?}"
    );
    assert_eq!(err.to_string(), "plan verify: instr 0: verification failpoint enabled");
    // Nothing ran and nothing was cached: no executor is left to fall back
    // to, so the step fails instead of quietly taking another path.
    assert_eq!(cache.state_name(), "cold");
    for (a, b) in before.iter().zip(&store.snapshot()) {
        assert_eq!(a.data(), b.data(), "a rejected step must not update parameters");
    }
    // With the failpoint cleared the same tape compiles and runs.
    let lv = cache
        .run_train(&g, loss, &pv, &mut store, &mut opt, &[&x_t, &tgt_t], &[])
        .expect("the small model lowers");
    assert!(lv.is_finite());
    assert_eq!(cache.state_name(), "verify");
    plan::set_enabled(false);
}

#[test]
#[should_panic(expected = "plan verify: instr 0: verification failpoint enabled")]
fn graph_backward_panics_with_the_rejection() {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            verify::set_fail_all(false);
        }
    }
    let _reset = Reset;
    let mut g = Graph::new();
    let x = g.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2]));
    let loss = g.sum_all(x);
    verify::set_fail_all(true);
    g.backward(loss);
}
