//! The rule-engine plumbing: file classification, test-region masking,
//! `// focus-lint: allow(..)` markers, the deterministic workspace walker,
//! and diagnostic plumbing shared by every rule in [`crate::rules`].
//!
//! Since the two-pass upgrade the engine runs in two phases:
//!
//! 1. **Scan** ([`scan_source`]) — per file: lex, classify, run the per-file
//!    rules, parse allow markers, and extract the *symbol facts* the
//!    cross-file rules need (enum declarations, `Type::Variant` path pairs).
//! 2. **Finish** ([`finish`]) — with every [`FileScan`] in hand: run the
//!    cross-file rules over the workspace symbol index, apply allow-marker
//!    suppression while tracking which grants actually fired, and report
//!    grants that fired nothing as `stale-allow` findings.
//!
//! [`lint_source`] / [`lint_file`] keep the old single-file semantics (no
//! cross-file rules, no staleness) for callers that look at one file in
//! isolation; [`run_workspace`] is the two-pass entry the CLI uses.

use crate::lexer::{self, Kind, Token};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// One diagnostic: `file:line: rule: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Display path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name (one of [`crate::rules::RULES`]).
    pub rule: &'static str,
    /// Human-readable explanation with the fix direction.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}: {}", self.file, self.line, self.rule, self.message)
    }
}

/// Everything the rules need to know about a file that the token stream
/// cannot tell them: which crate it belongs to and whether it is test-only.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Display path (as passed / discovered, not canonicalised).
    pub path: String,
    /// Crate directory name (`tensor`, `cluster`, …); `focus` for the
    /// umbrella crate's `src/`, empty when undeterminable.
    pub crate_name: String,
    /// Under a `tests/`, `benches/` or `examples/` directory: integration
    /// tests and harnesses, exempt from the code-hygiene rules.
    pub is_test_path: bool,
    /// `src/lib.rs` or `src/main.rs` — where `#![forbid(unsafe_code)]` must
    /// live.
    pub is_crate_root: bool,
    /// `crates/tensor/src/par.rs`, the one file allowed to spawn threads.
    pub is_par_module: bool,
    /// `crates/tensor/src/pool.rs`, the one file allowed to allocate float
    /// buffers straight from the heap.
    pub is_pool_module: bool,
    /// `crates/trace/src/clock.rs`, the one file allowed to read the wall
    /// clock — every other crate routes timing through
    /// `focus_trace::clock::now_ns`.
    pub is_clock_module: bool,
}

impl FileCtx {
    /// Classifies a path purely lexically (no I/O), so fixtures laid out as
    /// `fixtures/crates/<crate>/src/<file>.rs` classify exactly like the real
    /// workspace tree.
    pub fn from_path(path: &Path) -> FileCtx {
        let comps: Vec<String> = path
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect();
        let crates_at = comps.iter().rposition(|c| c == "crates");
        let crate_name = match crates_at {
            Some(i) if i + 1 < comps.len() => comps[i + 1].clone(),
            // outside any `crates/` dir, a `src/` file belongs to the
            // umbrella `focus` package
            _ if comps.iter().any(|c| c == "src") => "focus".to_string(),
            _ => String::new(),
        };
        let file_name = comps.last().cloned().unwrap_or_default();
        let after_crate = crates_at.map_or(0, |i| i + 2);
        let is_test_path = comps[after_crate.min(comps.len())..]
            .iter()
            .any(|c| c == "tests" || c == "benches" || c == "examples");
        let under_src = comps.len() >= 2 && comps[comps.len() - 2] == "src";
        FileCtx {
            path: path.display().to_string(),
            is_crate_root: under_src && (file_name == "lib.rs" || file_name == "main.rs"),
            is_par_module: crate_name == "tensor" && under_src && file_name == "par.rs",
            is_pool_module: crate_name == "tensor" && under_src && file_name == "pool.rs",
            is_clock_module: crate_name == "trace" && under_src && file_name == "clock.rs",
            crate_name,
            is_test_path,
        }
    }
}

/// A comment-free view of the token stream: rules do sequence matching on
/// `code[j]`, `code[j+1]`, … without tripping over interleaved comments.
pub struct CodeView<'a> {
    /// Non-comment tokens in order.
    pub code: Vec<&'a Token>,
    /// `in_test[j]` — token `j` sits inside a `#[cfg(test)]` module or a
    /// `#[test]` function body.
    pub in_test: Vec<bool>,
}

/// Builds the comment-free view and marks test regions.
///
/// Test regions are found structurally: a `#[test]`-like or `#[cfg(test)]`
/// attribute, any further attributes/visibility, then either a `mod name {…}`
/// or an `fn …{…}` item — the region runs to the matching close brace.
/// `#[cfg(not(test))]` is deliberately *not* a test region.
pub fn code_view(tokens: &[Token]) -> CodeView<'_> {
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut in_test = vec![false; code.len()];
    let mut j = 0usize;
    while j < code.len() {
        if code[j].is_op("#") && code.get(j + 1).is_some_and(|t| t.is_op("[")) {
            let close = match matching(&code, j + 1, "[", "]") {
                Some(c) => c,
                None => break, // unterminated attribute: nothing more to mark
            };
            if attr_is_test(&code[j + 2..close]) {
                if let Some(end) = item_body_end(&code, close + 1) {
                    for flag in in_test.iter_mut().take(end + 1).skip(j) {
                        *flag = true;
                    }
                }
            }
            j = close + 1;
        } else {
            j += 1;
        }
    }
    CodeView { code, in_test }
}

/// Is the attribute body (`test`, `cfg(test)`, `cfg(all(test, …))`) a marker
/// of test-only code?
fn attr_is_test(body: &[&Token]) -> bool {
    let first_is = |s: &str| body.first().is_some_and(|t| t.is_ident(s));
    let has = |s: &str| body.iter().any(|t| t.is_ident(s));
    first_is("test") || (first_is("cfg") && has("test") && !has("not"))
}

/// Index of the close delimiter matching the open one at `open_at`.
fn matching(code: &[&Token], open_at: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in code.iter().enumerate().skip(open_at) {
        if t.is_op(open) {
            depth += 1;
        } else if t.is_op(close) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// From the token after a test attribute, skip trailing attributes and find
/// the end of the annotated item's `{…}` body. Returns `None` for bodiless
/// items (`mod tests;`), which we cannot see into anyway.
fn item_body_end(code: &[&Token], mut j: usize) -> Option<usize> {
    // skip any further attributes stacked on the same item
    while code.get(j).is_some_and(|t| t.is_op("#"))
        && code.get(j + 1).is_some_and(|t| t.is_op("["))
    {
        j = matching(code, j + 1, "[", "]")? + 1;
    }
    // find the body's opening brace: the first `{` at paren/bracket depth 0
    // (skipping e.g. an fn's parameter list); a depth-0 `;` means no body
    let mut depth = 0usize;
    while let Some(t) = code.get(j) {
        match t.text.as_str() {
            "(" | "[" if t.kind == Kind::Op => depth += 1,
            ")" | "]" if t.kind == Kind::Op => depth = depth.saturating_sub(1),
            "{" if t.kind == Kind::Op && depth == 0 => return matching(code, j, "{", "}"),
            ";" if t.kind == Kind::Op && depth == 0 => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

/// Per-file allow markers: `// focus-lint: allow(rule[, rule]) -- reason`.
///
/// A marker suppresses findings of the named rules on its own line and on the
/// line directly below, covering both the trailing style
/// (`x != 0.0 { // focus-lint: allow(float-hygiene) -- …`) and the
/// own-line style above the offending statement.
pub struct Allows {
    granted: Vec<(String, u32)>,
}

impl Allows {
    /// Does a marker cover this (rule, line)?
    pub fn covers(&self, rule: &str, line: u32) -> bool {
        self.index_of(rule, line).is_some()
    }

    /// Index of the grant covering this (rule, line) — pass 2 uses the index
    /// to record that the grant earned its keep. A same-line (trailing)
    /// marker wins over one on the line above, so two adjacent trailing
    /// markers each claim their own finding instead of the first claiming
    /// both and the second reading as stale.
    fn index_of(&self, rule: &str, line: u32) -> Option<usize> {
        self.granted
            .iter()
            .position(|(r, l)| r == rule && line == *l)
            .or_else(|| self.granted.iter().position(|(r, l)| r == rule && line == *l + 1))
    }
}

/// The marker keyword scanned for inside comments.
const MARKER: &str = "focus-lint:";

/// Parses every allow marker in the file's comments. Malformed markers — an
/// unknown rule name, or a missing `-- <reason>` — are themselves findings
/// (rule `allow-marker`): an unexplained suppression is a silent hole in the
/// invariant the lint exists to enforce.
pub fn collect_allows(ctx: &FileCtx, tokens: &[Token], findings: &mut Vec<Finding>) -> Allows {
    let mut granted = Vec::new();
    for t in tokens.iter().filter(|t| t.is_comment()) {
        // markers live in plain comments only; doc comments merely *describe*
        // the grammar and must not grant (or fail to grant) suppressions
        if ["///", "//!", "/**", "/*!"].iter().any(|d| t.text.starts_with(d)) {
            continue;
        }
        let Some(at) = t.text.find(MARKER) else { continue };
        let rest = t.text[at + MARKER.len()..].trim_start();
        let mut bad = |msg: String| {
            findings.push(Finding {
                file: ctx.path.clone(),
                line: t.line,
                rule: "allow-marker",
                message: msg,
            });
        };
        let Some(inner) = rest.strip_prefix("allow(").and_then(|r| r.split_once(')')) else {
            bad(format!("malformed marker: expected `{MARKER} allow(<rule>) -- <reason>`"));
            continue;
        };
        let (rules_csv, tail) = inner;
        let reason = tail.trim_start().strip_prefix("--").map(str::trim).unwrap_or("");
        if reason.is_empty() {
            bad("allow marker missing `-- <reason>`: say why the suppression is sound".into());
            continue;
        }
        for rule in rules_csv.split(',').map(str::trim) {
            if !crate::rules::RULES.contains(&rule) {
                bad(format!("unknown rule `{rule}` in allow marker"));
            } else if rule == "allow-marker" || rule == "stale-allow" {
                // suppressing the marker-hygiene rules would be circular:
                // a marker excusing its own malformedness or staleness
                bad(format!("rule `{rule}` cannot be allow-marked"));
            } else {
                granted.push((rule.to_string(), t.line));
            }
        }
    }
    Allows { granted }
}

// ---------------------------------------------------------------------------
// Pass 1: per-file scan + symbol facts
// ---------------------------------------------------------------------------

/// Workspace symbol facts extracted during pass 1, the raw material of the
/// cross-file rules: which enums a file declares (with per-variant lines for
/// positioned diagnostics) and which `Type::Variant` paths it references.
#[derive(Debug, Default)]
pub struct SymbolFacts {
    /// Enum declarations in this file.
    pub enums: Vec<EnumDecl>,
    /// `Upper::Upper` path pairs referenced anywhere in the file. Test
    /// regions are included on purpose: the plan-parity corpus is a test,
    /// and "the corpus exercises this opcode" is exactly the fact the
    /// `opcode-coverage` rule consumes.
    pub path_pairs: BTreeSet<(String, String)>,
    /// `impl Trait for Type` headers outside test regions, as
    /// `(trait, type, line)`.
    pub impls: Vec<(String, String, u32)>,
    /// Every capitalised identifier in the file, test regions included.
    pub idents: BTreeSet<String>,
}

/// One `enum` declaration: its name and each variant with its 1-based line.
#[derive(Debug)]
pub struct EnumDecl {
    pub name: String,
    pub variants: Vec<(String, u32)>,
}

fn starts_upper(t: &Token) -> bool {
    t.kind == Kind::Ident && t.text.chars().next().is_some_and(|c| c.is_ascii_uppercase())
}

/// Extracts the symbol facts from a code view. Purely lexical, like the
/// rules: enough to resolve "every `OpCode` variant appears in the VM
/// dispatch" without a type checker.
pub fn extract_facts(view: &CodeView<'_>) -> SymbolFacts {
    let c = &view.code;
    let mut facts = SymbolFacts::default();
    for j in 0..c.len() {
        if starts_upper(c[j]) {
            facts.idents.insert(c[j].text.clone());
        }
        if starts_upper(c[j])
            && c.get(j + 1).is_some_and(|t| t.is_op("::"))
            && c.get(j + 2).is_some_and(|t| starts_upper(t))
        {
            facts.path_pairs.insert((c[j].text.clone(), c[j + 2].text.clone()));
        }
        if c[j].is_ident("impl") && !view.in_test[j] {
            if let Some(imp) = parse_impl_for(c, j) {
                facts.impls.push(imp);
            }
        }
        if c[j].is_ident("enum") && c.get(j + 1).is_some_and(|t| t.kind == Kind::Ident) {
            if let Some(decl) = parse_enum(c, j) {
                facts.enums.push(decl);
            }
        }
    }
    facts
}

/// Parses a trait impl header `impl[<…>] path::Trait for Type` whose
/// keyword sits at `c[at]`, returning `(Trait, Type, line)`; `None` for an
/// inherent impl.
fn parse_impl_for(c: &[&Token], at: usize) -> Option<(String, String, u32)> {
    let mut depth = 0i32;
    let mut last_ident: Option<&Token> = None;
    for (k, t) in c.iter().enumerate().skip(at + 1) {
        match t.text.as_str() {
            "<" if t.kind == Kind::Op => depth += 1,
            ">" if t.kind == Kind::Op => depth -= 1,
            ">>" if t.kind == Kind::Op => depth -= 2,
            "{" | ";" if t.kind == Kind::Op && depth == 0 => return None,
            "for" if depth == 0 => {
                let ty = c.get(k + 1).filter(|t| t.kind == Kind::Ident)?;
                return Some((last_ident?.text.clone(), ty.text.clone(), ty.line));
            }
            _ if t.kind == Kind::Ident && depth == 0 => last_ident = Some(t),
            _ => {}
        }
    }
    None
}

/// Parses the variant list of the `enum` whose keyword sits at `c[at]`.
/// Variants are capitalised idents at body depth 1 in head position (after
/// `{` or a depth-1 `,`); payloads, discriminants and variant attributes sit
/// at deeper nesting or after the head and are skipped.
fn parse_enum(c: &[&Token], at: usize) -> Option<EnumDecl> {
    let name = c[at + 1].text.clone();
    let mut j = at + 2;
    // find the body's `{`, skipping generics; a `;` first means an opaque
    // (or not actually a) declaration
    loop {
        let t = c.get(j)?;
        if t.is_op("{") {
            break;
        }
        if t.is_op(";") {
            return None;
        }
        j += 1;
    }
    let mut variants = Vec::new();
    let mut depth = 0usize;
    let mut head = true;
    for t in &c[j..] {
        match t.text.as_str() {
            "{" | "(" | "[" if t.kind == Kind::Op => depth += 1,
            "}" | ")" | "]" if t.kind == Kind::Op => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "," if t.kind == Kind::Op && depth == 1 => head = true,
            _ => {
                if head && depth == 1 && starts_upper(t) {
                    variants.push((t.text.clone(), t.line));
                    head = false;
                }
            }
        }
    }
    Some(EnumDecl { name, variants })
}

/// Pass-1 result for one file: classification, the *raw* (pre-suppression)
/// findings, the parsed allow grants, and the symbol facts. [`finish`]
/// consumes a batch of these.
pub struct FileScan {
    pub ctx: FileCtx,
    raw: Vec<Finding>,
    allows: Allows,
    pub facts: SymbolFacts,
}

/// Pass 1 over one file's source text. Pure: no I/O.
pub fn scan_source(ctx: FileCtx, src: &str) -> FileScan {
    let tokens = lexer::lex(src);
    let mut raw = Vec::new();
    let allows = collect_allows(&ctx, &tokens, &mut raw);
    let view = code_view(&tokens);
    crate::rules::check(&ctx, &view, &mut raw);
    let facts = extract_facts(&view);
    FileScan { ctx, raw, allows, facts }
}

// ---------------------------------------------------------------------------
// Pass 2: cross-file rules, suppression accounting, staleness
// ---------------------------------------------------------------------------

/// Pass 2: runs the cross-file rules over the whole scan set, applies
/// allow-marker suppression while tracking which grants fired, and turns
/// grants that fired nothing into `stale-allow` findings — an unexplained
/// suppression is a hole in the invariant, and a suppression excusing
/// *nothing* is a stale license for the next regression. Returns the
/// surviving findings, unsorted.
pub fn finish(scans: Vec<FileScan>) -> Vec<Finding> {
    let mut used: Vec<Vec<bool>> =
        scans.iter().map(|s| vec![false; s.allows.granted.len()]).collect();
    let mut findings = Vec::new();

    // Cross-file findings pass through the target file's markers like any
    // local finding: a consciously-uncovered enum variant can be allow-marked
    // at its declaration line.
    let mut cross = Vec::new();
    crate::rules::cross_file(&scans, &mut cross);
    for f in cross {
        let grant = scans
            .iter()
            .position(|s| s.ctx.path == f.file)
            .and_then(|i| scans[i].allows.index_of(f.rule, f.line).map(|g| (i, g)));
        match grant {
            Some((i, g)) => used[i][g] = true,
            None => findings.push(f),
        }
    }

    for (i, scan) in scans.iter().enumerate() {
        for f in &scan.raw {
            if f.rule != "allow-marker" {
                if let Some(g) = scan.allows.index_of(f.rule, f.line) {
                    used[i][g] = true;
                    continue;
                }
            }
            findings.push(f.clone());
        }
        for (g, (rule, line)) in scan.allows.granted.iter().enumerate() {
            if !used[i][g] {
                findings.push(Finding {
                    file: scan.ctx.path.clone(),
                    line: *line,
                    rule: "stale-allow",
                    message: format!(
                        "allow({rule}) no longer suppresses anything: remove the marker or restore the reason it existed"
                    ),
                });
            }
        }
    }
    findings
}

/// Lints one file's source text. Pure: no I/O, so fixture tests and proptests
/// drive it directly.
pub fn lint_source(ctx: &FileCtx, src: &str) -> Vec<Finding> {
    let tokens = lexer::lex(src);
    let mut findings = Vec::new();
    let allows = collect_allows(ctx, &tokens, &mut findings);
    let view = code_view(&tokens);
    crate::rules::check(ctx, &view, &mut findings);
    findings.retain(|f| f.rule == "allow-marker" || !allows.covers(f.rule, f.line));
    findings.sort_by_key(|f| f.line);
    findings
}

/// Lints one file from disk. An unreadable file is itself a finding rather
/// than a crash or a silent skip.
pub fn lint_file(path: &Path) -> Vec<Finding> {
    let ctx = FileCtx::from_path(path);
    match std::fs::read_to_string(path) {
        Ok(src) => lint_source(&ctx, &src),
        Err(e) => vec![Finding {
            file: ctx.path,
            line: 1,
            rule: "allow-marker",
            message: format!("unreadable file: {e}"),
        }],
    }
}

/// Directories never descended into: build output, VCS metadata, and the
/// lint's own seeded-violation fixtures.
const SKIP_DIRS: [&str; 3] = ["target", ".git", "fixtures"];

/// Collects every `.rs` file under `paths`, depth-first with entries sorted
/// by name — `read_dir` order is filesystem-dependent, and the lint holds
/// itself to the determinism bar it enforces.
pub fn walk(paths: &[PathBuf]) -> Vec<PathBuf> {
    let mut files = Vec::new();
    // (path, explicit): paths the caller named are walked unconditionally;
    // SKIP_DIRS only prunes directories *discovered* during the walk
    let mut stack: Vec<(PathBuf, bool)> = paths.iter().map(|p| (p.clone(), true)).collect();
    stack.reverse();
    while let Some((p, explicit)) = stack.pop() {
        if p.is_dir() {
            let name = p.file_name().map(|n| n.to_string_lossy().into_owned());
            if !explicit && name.as_deref().is_some_and(|n| SKIP_DIRS.contains(&n)) {
                continue;
            }
            let mut entries: Vec<PathBuf> = match std::fs::read_dir(&p) {
                Ok(rd) => rd.filter_map(|e| e.ok().map(|e| e.path())).collect(),
                Err(_) => continue,
            };
            entries.sort();
            entries.reverse();
            stack.extend(entries.into_iter().map(|e| (e, false)));
        } else if p.extension().is_some_and(|e| e == "rs") {
            files.push(p);
        }
    }
    files
}

/// Result of a two-pass workspace run. `io_errors` counts unreadable files
/// (also reported as findings) — the CLI maps any to exit code 2, because an
/// unreadable file is a broken run, not a finding-free one.
pub struct RunResult {
    pub files: usize,
    pub findings: Vec<Finding>,
    pub io_errors: usize,
}

/// Two-pass lint of every `.rs` file under `paths`: scan each file, then
/// [`finish`] the batch (cross-file rules, suppression accounting,
/// staleness). Findings are ordered by (file, line, rule).
pub fn run_workspace(paths: &[PathBuf]) -> RunResult {
    let files = walk(paths);
    let mut scans = Vec::new();
    let mut findings = Vec::new();
    let mut io_errors = 0usize;
    for f in &files {
        let ctx = FileCtx::from_path(f);
        match std::fs::read_to_string(f) {
            Ok(src) => scans.push(scan_source(ctx, &src)),
            Err(e) => {
                io_errors += 1;
                findings.push(Finding {
                    file: ctx.path,
                    line: 1,
                    rule: "allow-marker",
                    message: format!("unreadable file: {e}"),
                });
            }
        }
    }
    findings.extend(finish(scans));
    findings.sort_by(|a, b| {
        a.file.cmp(&b.file).then(a.line.cmp(&b.line)).then(a.rule.cmp(b.rule))
    });
    RunResult { files: files.len(), findings, io_errors }
}

/// Lints every `.rs` file under `paths`; returns `(files_checked, findings)`
/// with findings ordered by (file, line). Thin wrapper over
/// [`run_workspace`] for callers that don't care about I/O errors.
pub fn run(paths: &[PathBuf]) -> (usize, Vec<Finding>) {
    let r = run_workspace(paths);
    (r.files, r.findings)
}
