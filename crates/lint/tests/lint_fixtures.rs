//! Fixture-corpus tests for every gdp-lint rule, the suppression
//! mechanism, the JSON output contract, and the binary's exit codes.
//!
//! The corpus lives in `tests/fixtures/<rule>/{bad.rs,good.rs}`; fixture
//! files are data, not compiled code. Assertions are line-accurate: a
//! lexer or rule regression that shifts a diagnostic by one line fails
//! here.

use gdp_lint::{engine, LintConfig, Report};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Workspace-relative fixture root (`crates/lint/tests`). Lint paths are
/// reported relative to this, so findings read `fixtures/ct01/bad.rs`.
fn tests_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests")
}

/// Lints one fixture directory with the default workspace policy.
fn lint_fixture(sub: &str) -> Report {
    let root = tests_root();
    let dir = root.join("fixtures").join(sub);
    assert!(dir.is_dir(), "missing fixture dir {}", dir.display());
    engine::lint_paths(&root, &[dir], &LintConfig::default(), false).expect("lint fixtures")
}

/// (rule, file, line) triples of a report's findings, sorted.
fn triples(report: &Report) -> Vec<(String, String, usize)> {
    report.findings.iter().map(|f| (f.rule.to_string(), f.path.clone(), f.line)).collect()
}

fn expect(rule: &str, file: &str, lines: &[usize]) -> Vec<(String, String, usize)> {
    lines.iter().map(|&l| (rule.to_string(), file.to_string(), l)).collect()
}

#[test]
fn ct01_flags_bad_and_passes_good() {
    let report = lint_fixture("ct01");
    assert_eq!(
        triples(&report),
        expect("CT01", "fixtures/ct01/bad.rs", &[4, 8, 12]),
        "CT01 fixture drift"
    );
}

#[test]
fn sk01_flags_bad_and_passes_good() {
    let report = lint_fixture("sk01");
    // Line 3: derive(Debug) on a struct with a raw seed field.
    // Lines 10/14: inline format captures of secret-named values.
    assert_eq!(
        triples(&report),
        expect("SK01", "fixtures/sk01/bad.rs", &[3, 10, 14]),
        "SK01 fixture drift"
    );
}

#[test]
fn lk01_flags_cross_file_cycle_and_self_deadlock() {
    let report = lint_fixture("lk01");
    // Line 13: anchor of the two-file cycle (bad.rs takes alpha→beta,
    // bad_peer.rs takes beta→alpha). Line 20: re-entrant self-cycle.
    assert_eq!(
        triples(&report),
        expect("LK01", "fixtures/lk01/bad.rs", &[13, 20]),
        "LK01 fixture drift"
    );
    // The cycle message must carry both edges' acquisition sites — the
    // proof that the analysis is workspace-wide, not per-file.
    let msg = &report.findings[0].message;
    assert!(msg.contains("fixtures/lk01/bad.rs:13"), "missing local edge in: {msg}");
    assert!(msg.contains("fixtures/lk01/bad_peer.rs:8"), "missing cross-file edge in: {msg}");
    assert!(msg.contains("`PairA.alpha` → `PairA.beta`"), "missing cycle path in: {msg}");
    assert!(report.findings[1].message.contains("self-deadlock"));
}

#[test]
fn lk02_flags_direct_and_interprocedural_blocking() {
    let report = lint_fixture("lk02");
    // Line 14: fsync directly under the guard. Line 24: a call whose
    // may-block witness chain reaches thread::sleep. Line 33: a read
    // through the store's file layer.
    assert_eq!(
        triples(&report),
        expect("LK02", "fixtures/lk02/bad.rs", &[14, 24, 33]),
        "LK02 fixture drift"
    );
    let msg = &report.findings[1].message;
    assert!(msg.contains("`sleep` (fixtures/lk02/bad.rs:19)"), "missing witness chain in: {msg}");
}

#[test]
fn ch01_flags_unbounded_send_drain_order_and_shutdown_gap() {
    let report = lint_fixture("ch01");
    // Line 8: send on an unbounded data lane. Line 14: data polled
    // before control in a dual loop. Line 25: cloned sender with no
    // visible shutdown path (anchored at its construction).
    assert_eq!(
        triples(&report),
        expect("CH01", "fixtures/ch01/bad.rs", &[8, 14, 25]),
        "CH01 fixture drift"
    );
}

#[test]
fn ob02_flags_drift_in_both_directions_and_vacuous_laws() {
    let report = lint_fixture("ob02");
    // DESIGN.md line 10: documented-but-unregistered row. bad.rs line 6:
    // registered-but-undocumented metric. bad.rs line 11: conservation
    // law asserting a ghost counter.
    let mut want = expect("OB02", "fixtures/ob02/DESIGN.md", &[10]);
    want.extend(expect("OB02", "fixtures/ob02/bad.rs", &[6, 11]));
    assert_eq!(triples(&report), want, "OB02 fixture drift");
}

#[test]
fn workspace_rules_suppression_round_trip() {
    // Each new-rule fixture dir carries one reasoned allow; all four
    // must land in the suppressed list (auditable), never in findings.
    for (sub, file, line) in [
        ("lk01", "fixtures/lk01/allowed.rs", 12usize),
        ("lk02", "fixtures/lk02/allowed.rs", 14),
        ("ch01", "fixtures/ch01/allowed.rs", 9),
        ("ob02", "fixtures/ob02/allowed.rs", 6),
    ] {
        let report = lint_fixture(sub);
        let hit = report.suppressed.iter().any(|s| s.path == file && s.line == line);
        assert!(hit, "{sub}: expected a suppressed finding at {file}:{line}");
        assert!(
            !report.findings.iter().any(|f| f.path == file),
            "{sub}: allowed fixture must not produce findings"
        );
    }
}

#[test]
fn binary_mixed_per_file_and_workspace_findings() {
    // One per-file rule dir (ct01) plus one workspace rule dir (lk01)
    // in the same invocation: exit 1, and the JSON by_rule block counts
    // both families.
    let root = tests_root();
    let out = Command::new(env!("CARGO_BIN_EXE_gdp-lint"))
        .args(["--format", "json", "--root"])
        .arg(&root)
        .arg(root.join("fixtures/ct01"))
        .arg(root.join("fixtures/lk01"))
        .output()
        .expect("run gdp-lint");
    assert_eq!(out.status.code(), Some(1), "mixed corpus must fail the lint");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    gdp_obs::json::validate(&stdout).expect("binary JSON must validate");
    assert!(stdout.contains("\"CT01\": 3"), "per-file rule count missing: {stdout}");
    assert!(stdout.contains("\"LK01\": 2"), "workspace rule count missing: {stdout}");
}

#[test]
fn suppression_round_trip() {
    let report = lint_fixture("suppress");
    // valid.rs: both findings carry a reasoned allow — suppressed, and
    // *recorded* as suppressed (auditable, not invisible).
    // invalid.rs: a reason-less allow (line 6) and a wrong-rule allow
    // (line 11) must NOT suppress.
    assert_eq!(
        triples(&report),
        expect("CT01", "fixtures/suppress/invalid.rs", &[6, 11]),
        "invalid suppressions must not silence findings"
    );
    let mut suppressed: Vec<(String, usize)> =
        report.suppressed.iter().map(|s| (s.path.clone(), s.line)).collect();
    suppressed.sort();
    assert_eq!(
        suppressed,
        vec![
            ("fixtures/suppress/valid.rs".to_string(), 5),
            ("fixtures/suppress/valid.rs".to_string(), 9)
        ],
        "valid suppressions must be recorded"
    );
}

#[test]
fn all_rule_ids_covered_by_fixture_corpus() {
    let root = tests_root();
    let report = engine::lint_paths(&root, &[root.join("fixtures")], &LintConfig::default(), false)
        .expect("lint fixtures");
    let by_rule = report.by_rule();
    for rule in gdp_lint::rules::RULE_IDS {
        assert!(
            by_rule.get(rule).copied().unwrap_or(0) > 0,
            "fixture corpus has no {rule} finding — a rule with no known-bad \
             fixture is untested"
        );
    }
}

#[test]
fn json_output_is_valid_and_has_adjacent_totals() {
    let root = tests_root();
    let report = engine::lint_paths(&root, &[root.join("fixtures")], &LintConfig::default(), false)
        .expect("lint fixtures");
    let doc = gdp_lint::report::json(&report);
    gdp_obs::json::validate(&doc).expect("gdp-lint JSON must pass the gdp_obs validator");
    // verify.sh extracts these with sed; keep them present and adjacent.
    let f_at = doc.find("\"findings_total\"").expect("findings_total key");
    let s_at = doc.find("\"suppressed_total\"").expect("suppressed_total key");
    assert!(f_at < s_at, "findings_total must precede suppressed_total");
    // Empty-report JSON must be valid too.
    let empty = gdp_lint::report::json(&Report::default());
    gdp_obs::json::validate(&empty).expect("empty report JSON");
}

#[test]
fn binary_exits_nonzero_on_fixture_corpus() {
    let root = tests_root();
    let out = Command::new(env!("CARGO_BIN_EXE_gdp-lint"))
        .args(["--format", "json", "--root"])
        .arg(&root)
        .arg(root.join("fixtures"))
        .output()
        .expect("run gdp-lint");
    assert_eq!(out.status.code(), Some(1), "fixtures must fail the lint");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    gdp_obs::json::validate(&stdout).expect("binary JSON must validate");
    assert!(stdout.contains("\"findings_total\""));
}

#[test]
fn binary_is_clean_on_the_workspace() {
    // The acceptance bar for the whole PR: the production tree has zero
    // unsuppressed findings. Runs the same default scan as verify.sh.
    let ws_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let out = Command::new(env!("CARGO_BIN_EXE_gdp-lint"))
        .args(["--format", "text", "--root"])
        .arg(&ws_root)
        .output()
        .expect("run gdp-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "workspace must be lint-clean; findings:\n{stdout}");
}

#[test]
fn reports_are_deterministic() {
    let a = lint_fixture("ct01");
    let b = lint_fixture("ct01");
    assert_eq!(triples(&a), triples(&b));
    assert_eq!(gdp_lint::report::json(&a), gdp_lint::report::json(&b));
}
