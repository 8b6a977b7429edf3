//! Fixture-backed self-tests: every rule has a fixture with seeded
//! violations that must be caught at exact lines, negative fixtures that must
//! stay silent, and the binary's exit code is asserted end-to-end via
//! `CARGO_BIN_EXE_focus-lint`.

use focus_lint::engine::{lint_file, run, Finding};
use std::path::PathBuf;
use std::process::Command;

fn fixture(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(rel)
}

/// (rule, line) pairs in file order, for compact comparison.
fn hits(findings: &[Finding]) -> Vec<(&'static str, u32)> {
    findings.iter().map(|f| (f.rule, f.line)).collect()
}

#[test]
fn determinism_fixture_catches_every_seeded_violation() {
    let f = lint_file(&fixture("crates/tensor/src/determinism.rs"));
    assert_eq!(
        hits(&f),
        vec![
            ("determinism", 4),  // use … HashMap
            ("determinism", 5),  // use … HashSet
            ("determinism", 6),  // use … SystemTime
            ("determinism", 9),  // HashSet type annotation
            ("determinism", 9),  // HashSet::new()
            ("determinism", 17), // Instant::now()
            ("determinism", 18), // SystemTime::now()
            ("determinism", 23), // thread::spawn
            ("determinism", 24), // thread::scope
            ("determinism", 27), // HashMap return type
            ("determinism", 28), // HashMap::new()
        ]
    );
}

#[test]
fn clock_reads_fire_outside_determinism_crates_too() {
    // `data` is not in DETERMINISM_CRATES; the clock discipline is
    // workspace-wide, so the reads must be flagged anyway (test regions
    // stay exempt).
    let f = lint_file(&fixture("crates/data/src/clockuse.rs"));
    assert_eq!(
        hits(&f),
        vec![
            ("determinism", 6),  // Instant::now()
            ("determinism", 10), // SystemTime return type
            ("determinism", 11), // SystemTime::now()
        ]
    );
}

#[test]
fn clock_module_is_exempt_from_clock_rule() {
    let f = lint_file(&fixture("crates/trace/src/clock.rs"));
    assert!(f.is_empty(), "crates/trace/src/clock.rs is the audited clock: {f:?}");
}

#[test]
fn par_module_is_exempt_from_thread_and_unsafe_rules() {
    let f = lint_file(&fixture("crates/tensor/src/par.rs"));
    assert!(f.is_empty(), "par.rs must be allowed to spawn and use unsafe: {f:?}");
}

#[test]
fn unsafe_tokens_are_flagged_outside_the_par_island() {
    let f = lint_file(&fixture("crates/tensor/src/unsafe_use.rs"));
    assert_eq!(
        hits(&f),
        vec![
            ("unsafe-forbid", 6), // unsafe block
            ("unsafe-forbid", 9), // unsafe fn
        ]
    );
}

#[test]
fn tensor_root_may_deny_instead_of_forbid() {
    let f = lint_file(&fixture("crates/tensor/src/lib.rs"));
    assert!(f.is_empty(), "tensor root with #![deny(unsafe_code)] is the pool carve-out: {f:?}");
}

#[test]
fn panic_hygiene_fixture_catches_every_seeded_violation() {
    let f = lint_file(&fixture("crates/cluster/src/panic_hygiene.rs"));
    assert_eq!(
        hits(&f),
        vec![
            ("panic-hygiene", 4),  // bare .unwrap()
            ("panic-hygiene", 9),  // panic!
            ("panic-hygiene", 15), // todo!
            ("panic-hygiene", 19), // unimplemented!
            ("panic-hygiene", 23), // .expect("")
        ]
    );
}

#[test]
fn float_hygiene_fixture_catches_every_seeded_violation() {
    let f = lint_file(&fixture("crates/nn/src/float_hygiene.rs"));
    assert_eq!(
        hits(&f),
        vec![
            ("float-hygiene", 4),  // a != 0.0
            ("float-hygiene", 8),  // 1.0 == w
            ("float-hygiene", 12), // x == -1.0
            ("float-hygiene", 16), // contains(&0.0)
        ]
    );
}

#[test]
fn pool_bypass_fixture_catches_every_seeded_violation() {
    let f = lint_file(&fixture("crates/tensor/src/pool_bypass.rs"));
    assert_eq!(
        hits(&f),
        vec![
            ("pool-bypass", 4), // vec![0.0f32; n]
            ("pool-bypass", 5), // vec![-1.0; n]
            ("pool-bypass", 6), // Vec::<f32>::with_capacity
        ]
    );
}

#[test]
fn backward_calls_are_no_finding_anywhere() {
    for file in ["crates/core/src/forecaster.rs", "crates/core/src/clean.rs"] {
        let f = lint_file(&fixture(file));
        assert!(f.is_empty(), "{file}: {f:?}");
    }
}

#[test]
fn pool_module_is_exempt_from_pool_bypass() {
    let f = lint_file(&fixture("crates/tensor/src/pool.rs"));
    assert!(f.is_empty(), "pool.rs must be allowed to allocate: {f:?}");
}

#[test]
fn unsafe_forbid_fixture_flags_missing_attribute() {
    let f = lint_file(&fixture("crates/badcrate/src/lib.rs"));
    assert_eq!(hits(&f), vec![("unsafe-forbid", 1)]);
}

#[test]
fn allow_marker_fixture_flags_malformed_suppressions() {
    let f = lint_file(&fixture("crates/cluster/src/markers.rs"));
    assert_eq!(
        hits(&f),
        vec![
            ("allow-marker", 5),   // marker without `-- <reason>`
            ("float-hygiene", 6),  // …so the finding below it survives
            ("allow-marker", 10),  // typo'd rule name
            ("float-hygiene", 11), // …suppresses nothing either
            ("allow-marker", 15),  // not even the allow(…) keyword
        ]
    );
}

#[test]
fn clean_fixtures_are_silent() {
    for rel in ["crates/core/src/clean.rs", "crates/goodcrate/src/lib.rs"] {
        let f = lint_file(&fixture(rel));
        assert!(f.is_empty(), "{rel} must be finding-free: {f:?}");
    }
}

#[test]
fn stale_allow_fires_only_for_unused_grants() {
    let (_, f) = run(&[fixture("crates/data/src/stale.rs")]);
    assert_eq!(
        hits(&f),
        vec![("stale-allow", 6)],
        "the line-6 marker suppresses nothing; the line-11 marker still earns its keep: {f:?}"
    );
}

#[test]
fn opcode_coverage_flags_the_variant_missing_from_the_dispatch() {
    let (_, f) = run(&[fixture("crates/autograd")]);
    assert_eq!(hits(&f), vec![("opcode-coverage", 7)], "ZipSub hides behind the catch-all: {f:?}");
    let only = &f[0];
    assert!(only.file.ends_with("plan.rs"), "finding lands at the declaration: {only}");
    assert!(only.message.contains("OpCode::ZipSub"), "{only}");
    assert!(only.message.contains("vm.rs"), "names the file missing the arm: {only}");
}

#[test]
fn opcode_coverage_skips_absent_required_files() {
    // Linting just the declaring file: every required sibling is outside the
    // scan set, so the contract is vacuously met (subtree runs stay usable).
    let (_, f) = run(&[fixture("crates/autograd/src/plan.rs")]);
    assert!(f.is_empty(), "no required files in scope, no findings: {f:?}");
}

#[test]
fn replay_guard_flags_the_forecaster_it_does_not_name() {
    let (_, f) = run(&[fixture("replay_guard/uncovered")]);
    assert_eq!(hits(&f), vec![("opcode-coverage", 8)], "Unnamed is missing from the guard: {f:?}");
    let only = &f[0];
    assert!(only.file.ends_with("model.rs"), "finding lands at the impl: {only}");
    assert!(only.message.contains("Unnamed implements Forecaster"), "{only}");
    assert!(only.message.contains("tests/plan_replays.rs"), "names the guard file: {only}");
}

#[test]
fn replay_guard_is_silent_when_every_forecaster_is_named() {
    let (_, f) = run(&[fixture("replay_guard/covered")]);
    assert!(f.is_empty(), "named forecasters and test-only impls pass: {f:?}");
}

#[test]
fn engine_run_walks_fixture_tree_deterministically() {
    let (files, findings) = run(&[fixture("crates")]);
    assert_eq!(files, 18, "all fixture files reached");
    // one positive fixture per rule keeps the suite honest
    for rule in focus_lint::rules::RULES {
        assert!(findings.iter().any(|f| f.rule == rule), "no fixture finding for rule {rule}");
    }
    let (_, again) = run(&[fixture("crates")]);
    assert_eq!(hits(&findings), hits(&again), "walk order must be deterministic");
}

/// End-to-end: the binary exits nonzero on each rule's seeded fixture and
/// zero on a clean tree.
#[test]
fn binary_exit_codes_match_findings() {
    let bin = env!("CARGO_BIN_EXE_focus-lint");
    let status = |p: PathBuf| {
        Command::new(bin)
            .arg(&p)
            .output()
            .expect("focus-lint binary runs")
    };
    for dirty in [
        "crates/tensor/src/determinism.rs",
        "crates/cluster/src/panic_hygiene.rs",
        "crates/nn/src/float_hygiene.rs",
        "crates/badcrate/src/lib.rs",
        "crates/tensor/src/unsafe_use.rs",
        "crates/cluster/src/markers.rs",
        // promoted from advisory: every deliberate heap allocation in the
        // real workspace now carries an allow marker, so a bare one fails
        "crates/tensor/src/pool_bypass.rs",
        "crates/data/src/stale.rs",
    ] {
        let out = status(fixture(dirty));
        assert_eq!(out.status.code(), Some(1), "{dirty} must fail the lint");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("8 rules"), "summary line present: {stdout}");
    }
    let out = status(fixture("crates/goodcrate"));
    assert_eq!(out.status.code(), Some(0), "clean tree must pass");
    let out = status(fixture("crates/core/src/forecaster.rs"));
    assert_eq!(out.status.code(), Some(0), "the retired rule's fixture passes");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 findings (0 advisory)"), "{stdout}");
}

/// `--json` emits the machine-readable report with the same exit-code
/// contract, and an unknown flag is an internal error (exit 2), not a silent
/// success CI would wave through.
#[test]
fn json_mode_and_exit_code_contract() {
    let bin = env!("CARGO_BIN_EXE_focus-lint");
    let run_args = |args: &[&str]| {
        Command::new(bin).args(args).output().expect("focus-lint binary runs")
    };

    let clean = fixture("crates/goodcrate");
    let out = run_args(&["--json", clean.to_str().expect("utf-8 fixture path")]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"schema\":\"focus-lint-report v1\""), "{stdout}");
    assert!(stdout.contains("\"findings\":[]"), "clean tree, empty findings: {stdout}");
    assert!(stdout.contains("\"io_errors\":0"), "{stdout}");

    let dirty = fixture("crates/nn/src/float_hygiene.rs");
    let out = run_args(&["--json", dirty.to_str().expect("utf-8 fixture path")]);
    assert_eq!(out.status.code(), Some(1), "enforced findings fail in JSON mode too");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"rule\":\"float-hygiene\""), "{stdout}");
    assert!(stdout.contains("\"advisory\":false"), "{stdout}");

    let retired = fixture("crates/core/src/forecaster.rs");
    let out = run_args(&["--json", retired.to_str().expect("utf-8 fixture path")]);
    assert_eq!(out.status.code(), Some(0), "the retired rule's fixture stays clean");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"enforced\":0,\"advisory\":0"), "{stdout}");

    let out = run_args(&["--definitely-not-a-flag"]);
    assert_eq!(out.status.code(), Some(2), "unknown flag is an internal error");
}

/// The real workspace stays lint-clean: this is the same invariant
/// `scripts/verify.sh` enforces, kept here so `cargo test` alone catches
/// regressions too.
#[test]
fn workspace_is_lint_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/lint sits two levels under the workspace root")
        .to_path_buf();
    let (files, findings) = run(&[root.join("crates"), root.join("src"), root.join("tests")]);
    assert!(files > 80, "walked the whole workspace, saw {files} files");
    assert!(
        findings.is_empty(),
        "workspace must be lint-clean:\n{}",
        findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
}
