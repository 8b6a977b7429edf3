//! The invariant rules. Each one is a token-shape matcher over the
//! comment-free [`CodeView`]; none of them require type information, which is
//! what keeps the whole tool dependency-free and fast enough to run on every
//! `scripts/verify.sh` invocation.
//!
//! | rule            | invariant it guards                                        |
//! |-----------------|------------------------------------------------------------|
//! | `determinism`   | bitwise-identical runs: no hash-order iteration, thread    |
//! |                 | spawning only in `focus_tensor::par`; clock reads are      |
//! |                 | banned *workspace-wide* (not just in the numeric crates)   |
//! |                 | with `crates/trace/src/clock.rs` as the sole exemption     |
//! | `panic-hygiene` | library code fails with context: no bare `.unwrap()`,      |
//! |                 | `panic!`, `todo!`, `unimplemented!`, or empty `.expect("")`|
//! | `float-hygiene` | no `==`/`!=` against float literals (and no                |
//! |                 | `.contains(&0.0)`) without an allow-marked reason          |
//! | `unsafe-forbid` | every crate root carries `#![forbid(unsafe_code)]`; the    |
//! |                 | `tensor` root may carry `#![deny(unsafe_code)]` instead,   |
//! |                 | because the worker pool in `crates/tensor/src/par.rs` is   |
//! |                 | the one audited `unsafe` island — an `unsafe` token in any |
//! |                 | other non-test file is flagged                             |
//! | `allow-marker`  | suppressions themselves are well-formed and justified      |
//! | `stale-allow`   | *(cross-pass)* an allow marker that no longer suppresses   |
//! |                 | any finding is itself a finding: a stale license is cover  |
//! |                 | for the next regression                                    |
//! | `opcode-coverage`| *(cross-file)* every `OpCode` variant appears in the VM   |
//! |                 | dispatch, the verifier and the plan-parity corpus; every   |
//! |                 | tape `Op` has both a lowering in the plan compiler and a   |
//! |                 | rule in the reference oracle (of these, only the parity    |
//! |                 | corpus is not already checked by the compiler); every      |
//! |                 | `impl Forecaster` type is named in the plan-replay guard,  |
//! |                 | `tests/plan_replays.rs`                                    |
//! | `pool-bypass`   | float buffers in `tensor`/`autograd` library code come     |
//! |                 | from `focus_tensor::pool`, not the heap; enforced now that |
//! |                 | every deliberate heap-allocation site carries an allow     |
//! |                 | marker                                                     |

use crate::engine::{CodeView, FileCtx, FileScan, Finding};
use crate::lexer::{Kind, Token};

/// Every rule the engine knows, in reporting order. `allow-marker` findings
/// are emitted by the marker parser in [`crate::engine::collect_allows`];
/// `stale-allow` and `opcode-coverage` by the second pass
/// ([`crate::engine::finish`]).
pub const RULES: [&str; 8] = [
    "determinism",
    "panic-hygiene",
    "float-hygiene",
    "unsafe-forbid",
    "allow-marker",
    "stale-allow",
    "opcode-coverage",
    "pool-bypass",
];

/// Advisory rules: their findings are printed (and reported with
/// `"advisory": true`) but do not fail the CLI. No rule is advisory today.
pub const ADVISORY: [&str; 0] = [];

/// Crates whose numeric paths underwrite the bitwise-determinism promise of
/// PR 1; only these are in scope for the `determinism` rule.
const DETERMINISM_CRATES: [&str; 5] = ["tensor", "cluster", "nn", "core", "autograd"];

/// Crates whose steady-state training paths promise zero fresh heap
/// allocations (PR 4); only these are in scope for the `pool-bypass` rule.
const POOL_CRATES: [&str; 2] = ["tensor", "autograd"];

/// Runs every applicable rule for this file over the code view.
pub fn check(ctx: &FileCtx, view: &CodeView<'_>, findings: &mut Vec<Finding>) {
    if ctx.is_crate_root {
        unsafe_forbid(ctx, view, findings);
    }
    if ctx.is_test_path {
        // integration tests / benches / examples: hygiene rules do not apply
        return;
    }
    if !ctx.is_par_module {
        unsafe_island(ctx, view, findings);
    }
    panic_hygiene(ctx, view, findings);
    float_hygiene(ctx, view, findings);
    if !ctx.is_clock_module {
        clock_discipline(ctx, view, findings);
    }
    if DETERMINISM_CRATES.contains(&ctx.crate_name.as_str()) {
        determinism(ctx, view, findings);
    }
    if POOL_CRATES.contains(&ctx.crate_name.as_str()) && !ctx.is_pool_module {
        pool_bypass(ctx, view, findings);
    }
}

fn emit(ctx: &FileCtx, rule: &'static str, line: u32, message: String, out: &mut Vec<Finding>) {
    out.push(Finding { file: ctx.path.clone(), line, rule, message });
}

/// Iterator over code-token indices that are *not* inside test regions.
fn live<'v>(view: &'v CodeView<'_>) -> impl Iterator<Item = (usize, &'v Token)> + 'v {
    view.code
        .iter()
        .enumerate()
        .filter(|(j, _)| !view.in_test[*j])
        .map(|(j, t)| (j, *t))
}

/// Clock reads (`Instant::now`, `SystemTime`) are banned in *every*
/// non-test file of the workspace, not just the determinism crates: a
/// stray timestamp anywhere can leak into a numeric path or break run
/// reproducibility. The single exemption is `crates/trace/src/clock.rs`
/// ([`FileCtx::is_clock_module`]), the workspace's one audited clock —
/// everything else reads time through `focus_trace::clock::now_ns`.
/// Emits under the `determinism` rule name.
fn clock_discipline(ctx: &FileCtx, view: &CodeView<'_>, out: &mut Vec<Finding>) {
    let c = &view.code;
    for (j, t) in live(view) {
        if t.kind != Kind::Ident {
            continue;
        }
        match t.text.as_str() {
            "Instant"
                if c.get(j + 1).is_some_and(|n| n.is_op("::"))
                    && c.get(j + 2).is_some_and(|n| n.is_ident("now")) =>
            {
                emit(
                    ctx,
                    "determinism",
                    t.line,
                    "clock read (Instant::now): route timing through focus_trace::clock::now_ns".into(),
                    out,
                )
            }
            "SystemTime" => emit(
                ctx,
                "determinism",
                t.line,
                "clock read (SystemTime): route timing through focus_trace::clock::now_ns".into(),
                out,
            ),
            _ => {}
        }
    }
}

/// `determinism`: no `HashMap`/`HashSet` (iteration order is seeded per
/// process), and `thread::spawn`/`thread::scope` only inside
/// `crates/tensor/src/par.rs` — the one audited fan-out point. (Clock reads
/// are handled by [`clock_discipline`], which covers the whole workspace.)
fn determinism(ctx: &FileCtx, view: &CodeView<'_>, out: &mut Vec<Finding>) {
    let c = &view.code;
    for (j, t) in live(view) {
        if t.kind != Kind::Ident {
            continue;
        }
        match t.text.as_str() {
            name @ ("HashMap" | "HashSet") => emit(
                ctx,
                "determinism",
                t.line,
                format!("{name} has seeded iteration order; use BTreeMap/BTreeSet/Vec in numeric paths"),
                out,
            ),
            "spawn" | "scope"
                if !ctx.is_par_module
                    && j >= 2
                    && c[j - 1].is_op("::")
                    && c[j - 2].is_ident("thread") =>
            {
                emit(
                    ctx,
                    "determinism",
                    t.line,
                    format!("thread::{} outside focus_tensor::par — all fan-out goes through the audited pool", t.text),
                    out,
                )
            }
            _ => {}
        }
    }
}

/// `panic-hygiene`: library code must fail with an invariant message
/// (`.expect("…")`) or propagate a `Result` — a bare `.unwrap()` backtrace in
/// a 40-epoch training run tells the user nothing.
fn panic_hygiene(ctx: &FileCtx, view: &CodeView<'_>, out: &mut Vec<Finding>) {
    let c = &view.code;
    for (j, t) in live(view) {
        if t.kind != Kind::Ident {
            continue;
        }
        let preceded_by_dot = j >= 1 && c[j - 1].is_op(".");
        let called_empty = c.get(j + 1).is_some_and(|n| n.is_op("("))
            && c.get(j + 2).is_some_and(|n| n.is_op(")"));
        match t.text.as_str() {
            "unwrap" if preceded_by_dot && called_empty => emit(
                ctx,
                "panic-hygiene",
                t.line,
                "bare .unwrap(): use .expect(\"<invariant>\") or propagate the error".into(),
                out,
            ),
            "expect"
                if preceded_by_dot
                    && c.get(j + 1).is_some_and(|n| n.is_op("("))
                    && c.get(j + 2).is_some_and(|n| n.kind == Kind::Str && str_is_empty(&n.text)) =>
            {
                emit(ctx, "panic-hygiene", t.line, "empty .expect(\"\"): state the invariant that held".into(), out)
            }
            name @ ("panic" | "todo" | "unimplemented")
                if c.get(j + 1).is_some_and(|n| n.is_op("!")) && !preceded_by_dot =>
            {
                emit(
                    ctx,
                    "panic-hygiene",
                    t.line,
                    format!("{name}! in library code: return an error or .expect with context"),
                    out,
                )
            }
            _ => {}
        }
    }
}

/// Is a string literal's content empty (`""`, `r""`, `b""`)?
fn str_is_empty(text: &str) -> bool {
    text.trim_start_matches(['r', 'b', '#']).trim_end_matches('#') == "\"\""
}

/// `float-hygiene`: `==`/`!=` where either operand is a float literal, plus
/// `.contains(&<float>)` (element-wise exact equality in disguise). Exact
/// float comparison is occasionally *correct* — `plan.rs`'s exact-literal
/// folds test `alpha == 1.0` on purpose — so intentional sites carry an
/// allow marker with the reason spelled out.
fn float_hygiene(ctx: &FileCtx, view: &CodeView<'_>, out: &mut Vec<Finding>) {
    let c = &view.code;
    for (j, t) in live(view) {
        let cmp = t.kind == Kind::Op && (t.text == "==" || t.text == "!=");
        if cmp {
            let prev_float = j >= 1 && c[j - 1].kind == Kind::Float;
            // allow one unary minus before the right operand
            let rhs = if c.get(j + 1).is_some_and(|n| n.is_op("-")) { j + 2 } else { j + 1 };
            let next_float = c.get(rhs).is_some_and(|n| n.kind == Kind::Float);
            if prev_float || next_float {
                emit(
                    ctx,
                    "float-hygiene",
                    t.line,
                    format!("float `{}` comparison: use to_bits()/epsilon, or allow-mark the intent", t.text),
                    out,
                );
            }
        } else if t.is_ident("contains")
            && c.get(j + 1).is_some_and(|n| n.is_op("("))
            && c.get(j + 2).is_some_and(|n| n.is_op("&"))
            && c.get(j + 3).is_some_and(|n| n.kind == Kind::Float)
        {
            emit(
                ctx,
                "float-hygiene",
                t.line,
                "contains(&<float>) is exact float equality per element: allow-mark or compare bits".into(),
                out,
            );
        }
    }
}

/// `pool-bypass` (advisory): a float buffer allocated straight from the heap
/// — `vec![<float>; len]` or `Vec::<f32>::with_capacity` — in `tensor` /
/// `autograd` library code outside `pool.rs`. Steady-state training promises
/// zero fresh allocations (guarded end-to-end by the pool regression test);
/// hot-path buffers should come from `pool::take` / `take_zeroed`, and
/// deliberate heap allocations (cold reference paths, setup-time code) carry
/// an allow marker saying so.
fn pool_bypass(ctx: &FileCtx, view: &CodeView<'_>, out: &mut Vec<Finding>) {
    let c = &view.code;
    for (j, t) in live(view) {
        if t.is_ident("vec")
            && c.get(j + 1).is_some_and(|n| n.is_op("!"))
            && c.get(j + 2).is_some_and(|n| n.is_op("["))
        {
            // repeat form only: `vec![0.0f32; n]` — allow a unary minus
            let elem = if c.get(j + 3).is_some_and(|n| n.is_op("-")) { j + 4 } else { j + 3 };
            if c.get(elem).is_some_and(|n| n.kind == Kind::Float)
                && c.get(elem + 1).is_some_and(|n| n.is_op(";"))
            {
                emit(
                    ctx,
                    "pool-bypass",
                    t.line,
                    "float buffer from the heap: use focus_tensor::pool (take/take_zeroed), or allow-mark a cold path".into(),
                    out,
                );
            }
        } else if t.is_ident("with_capacity")
            && j >= 5
            && c[j - 1].is_op("::")
            && c[j - 2].is_op(">")
            && c[j - 3].is_ident("f32")
            && c[j - 4].is_op("<")
        {
            // `Vec::<f32>::with_capacity(..)`
            emit(
                ctx,
                "pool-bypass",
                t.line,
                "f32 buffer from the heap: use focus_tensor::pool (take/take_zeroed), or allow-mark a cold path".into(),
                out,
            );
        }
    }
}

/// One cross-file coverage contract: every variant of `enum_name` (declared
/// in the file whose path ends with `decl`) must be referenced as
/// `Enum::Variant` in each of the `require`d files. Required files absent
/// from the scan set are skipped — linting a subtree only checks the
/// contracts visible inside it, which also lets fixtures model a single
/// missing arm without replicating the whole workspace.
struct CoverageTarget {
    enum_name: &'static str,
    decl: &'static str,
    require: &'static [(&'static str, &'static str)],
}

/// The workspace's coverage contracts. `OpCode` is the VM instruction set
/// and `Op` the tape node set. A missing arm in the VM dispatch, the
/// verifier, the plan compiler or the oracle is already a compile error,
/// because their matches on these enums have no wildcard arm; the contract
/// there only keeps a wildcard added later from hiding a variant. Its own
/// reach is the parity corpus: an `OpCode` no test emits is an untested
/// kernel.
const COVERAGE: [CoverageTarget; 2] = [
    CoverageTarget {
        enum_name: "OpCode",
        decl: "crates/autograd/src/plan.rs",
        require: &[
            ("crates/autograd/src/vm.rs", "the VM dispatch"),
            ("crates/autograd/src/verify.rs", "the verifier's kernel geometry"),
            ("crates/autograd/tests/plan_parity.rs", "the plan-parity test corpus"),
        ],
    },
    CoverageTarget {
        enum_name: "Op",
        decl: "crates/autograd/src/graph.rs",
        require: &[
            ("crates/autograd/src/plan.rs", "the plan compiler's lowering"),
            ("crates/autograd/src/oracle.rs", "the reference oracle's rules"),
        ],
    },
];

/// One cross-file implementor contract: every type implementing
/// `trait_name` outside test code must be named in the `require`d file.
/// Like [`CoverageTarget`], a required file outside the scan set is skipped.
struct ImplTarget {
    trait_name: &'static str,
    require: (&'static str, &'static str),
}

/// The workspace's implementor contracts. Plan replay binds a window's data
/// by what the tape records, and nothing at run time checks that a model
/// records no window data as a constant: the plan-replay guard compiles
/// every forecaster on two windows and requires equal plans, so it must
/// list every forecaster.
const IMPLEMENTORS: [ImplTarget; 1] = [ImplTarget {
    trait_name: "Forecaster",
    require: ("tests/plan_replays.rs", "the plan-replay guard"),
}];

/// Component-aligned path suffix match (`…/plan.rs` must not be matched by
/// `myplan.rs`), tolerant of Windows separators.
fn path_matches(path: &str, suffix: &str) -> bool {
    let p = path.replace('\\', "/");
    p.ends_with(suffix)
        && (p.len() == suffix.len() || p.as_bytes()[p.len() - suffix.len() - 1] == b'/')
}

/// `opcode-coverage` (cross-file): runs over the whole scan set. Findings
/// land at the variant's declaration line in the declaring file, or at the
/// uncovered `impl` line, so the fix site (extend the dispatch/corpus/guard,
/// or consciously allow-mark the variant) is one jump away.
pub fn cross_file(scans: &[FileScan], findings: &mut Vec<Finding>) {
    for tgt in &IMPLEMENTORS {
        let (suffix, role) = tgt.require;
        let Some(req) = scans.iter().find(|s| path_matches(&s.ctx.path, suffix)) else {
            continue;
        };
        for scan in scans.iter().filter(|s| !s.ctx.is_test_path) {
            for (tr, ty, line) in &scan.facts.impls {
                if tr == tgt.trait_name && !req.facts.idents.contains(ty) {
                    findings.push(Finding {
                        file: scan.ctx.path.clone(),
                        line: *line,
                        rule: "opcode-coverage",
                        message: format!(
                            "{ty} implements {tr} but is not named in {role} ({suffix}): the guard does not cover it"
                        ),
                    });
                }
            }
        }
    }
    for tgt in &COVERAGE {
        let Some(decl_scan) = scans.iter().find(|s| path_matches(&s.ctx.path, tgt.decl)) else {
            continue;
        };
        let Some(decl) = decl_scan.facts.enums.iter().find(|e| e.name == tgt.enum_name) else {
            continue;
        };
        for (suffix, role) in tgt.require {
            let Some(req) = scans.iter().find(|s| path_matches(&s.ctx.path, suffix)) else {
                continue;
            };
            for (variant, line) in &decl.variants {
                let key = (tgt.enum_name.to_string(), variant.clone());
                if !req.facts.path_pairs.contains(&key) {
                    findings.push(Finding {
                        file: decl_scan.ctx.path.clone(),
                        line: *line,
                        rule: "opcode-coverage",
                        message: format!(
                            "{}::{variant} is not referenced in {role} ({suffix})",
                            tgt.enum_name
                        ),
                    });
                }
            }
        }
    }
}

/// `unsafe-forbid`, crate-root half: the root must carry
/// `#![forbid(unsafe_code)]`, so the workspace's no-`unsafe` status quo is a
/// compile error to regress, not a convention. The `tensor` root alone may
/// carry `#![deny(unsafe_code)]` instead: the persistent worker pool in
/// `crates/tensor/src/par.rs` needs item-level `#[allow(unsafe_code)]`
/// opt-ins, which `forbid` would reject. `deny` there is still a hard error
/// everywhere an item does not explicitly opt in — and [`unsafe_island`]
/// flags any opt-in outside `par.rs` — so removing the pool restores `forbid`
/// with no lint change.
fn unsafe_forbid(ctx: &FileCtx, view: &CodeView<'_>, out: &mut Vec<Finding>) {
    let c = &view.code;
    let attr = |lint: &str| {
        c.windows(8).any(|w| {
            w[0].is_op("#")
                && w[1].is_op("!")
                && w[2].is_op("[")
                && w[3].is_ident(lint)
                && w[4].is_op("(")
                && w[5].is_ident("unsafe_code")
                && w[6].is_op(")")
                && w[7].is_op("]")
        })
    };
    if attr("forbid") {
        return;
    }
    if ctx.crate_name == "tensor" && attr("deny") {
        return;
    }
    let wanted = if ctx.crate_name == "tensor" {
        "#![forbid(unsafe_code)] or #![deny(unsafe_code)]"
    } else {
        "#![forbid(unsafe_code)]"
    };
    emit(ctx, "unsafe-forbid", 1, format!("crate root missing {wanted}"), out);
}

/// `unsafe-forbid`, token half: an `unsafe` keyword in any non-test file
/// other than the audited worker-pool island (`crates/tensor/src/par.rs`) is
/// a finding. Item-level `#[allow(unsafe_code)]` escapes the compiler's
/// `deny`, so the lint keeps the island's boundary honest.
fn unsafe_island(ctx: &FileCtx, view: &CodeView<'_>, out: &mut Vec<Finding>) {
    for (_, t) in live(view) {
        if t.is_ident("unsafe") {
            emit(
                ctx,
                "unsafe-forbid",
                t.line,
                "`unsafe` outside the audited worker-pool island (crates/tensor/src/par.rs)"
                    .into(),
                out,
            );
        }
    }
}
