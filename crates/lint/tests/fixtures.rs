//! Fixture-driven end-to-end coverage: every rule has at least one
//! positive and one negative snippet under `tests/fixtures/`, each linted
//! through the library API and through the compiled binary; plus the
//! baseline-minimality contract — the committed `sss-lint.baseline` must
//! grandfather exactly the findings a baseline-free workspace run emits.
//! U001 reads a whole workspace, so its fixture is a small workspace tree,
//! `tests/fixtures/u001/`.

use std::path::{Path, PathBuf};
use std::process::Command;

use sss_lint::rules::{lint_source, FileContext};
use sss_lint::{lint_workspace, Finding};

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels under the workspace root")
        .to_path_buf()
}

fn lint_fixture(name: &str, crate_ctx: &str) -> Vec<Finding> {
    let path = fixture_path(name);
    let source =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading fixture {name}: {e}"));
    lint_source(name, &source, &FileContext::for_crate(crate_ctx))
}

fn rules_of(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule.as_str()).collect()
}

struct BinaryRun {
    code: i32,
    stdout: String,
    stderr: String,
}

fn run_binary(args: &[&str]) -> BinaryRun {
    let out = Command::new(env!("CARGO_BIN_EXE_sss-lint"))
        .args(args)
        .output()
        .expect("spawning sss-lint");
    BinaryRun {
        code: out.status.code().unwrap_or(-1),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

/// `(rule, "file:line")` anchors from `file:line: RULE: message` text
/// output, skipping the trailing summary line.
fn text_anchors(stdout: &str) -> Vec<(String, String)> {
    let mut anchors = Vec::new();
    for line in stdout.lines() {
        if line.starts_with("sss-lint:") {
            continue;
        }
        // rsplit: paths never contain ": " but messages may contain ':'.
        let mut parts = line.splitn(3, ": ");
        let (Some(anchor), Some(rule), Some(_msg)) = (parts.next(), parts.next(), parts.next())
        else {
            panic!("unparseable diagnostic line {line:?}");
        };
        anchors.push((rule.to_string(), anchor.to_string()));
    }
    anchors
}

// ---- library API: one positive and one negative fixture per rule -------

#[test]
fn d001_fires_on_hash_iteration_and_only_there() {
    let findings = lint_fixture("d001_violation.rs", "core");
    assert_eq!(rules_of(&findings), ["D001", "D001"], "{findings:?}");
    assert_eq!(findings[0].line, 6, "`.iter()` call");
    assert_eq!(findings[1].line, 14, "for-loop");
    assert!(lint_fixture("d001_clean.rs", "core").is_empty());
    // Scope: D001 only covers output-producing crates.
    assert!(lint_fixture("d001_violation.rs", "sim").is_empty());
}

#[test]
fn d002_fires_on_wall_clock_everywhere() {
    let findings = lint_fixture("d002_violation.rs", "sim");
    assert_eq!(rules_of(&findings), ["D002", "D002"], "{findings:?}");
    assert!(lint_fixture("d002_clean.rs", "sim").is_empty());
    // D002 is universal: the same source violates in any crate context.
    assert_eq!(lint_fixture("d002_violation.rs", "bench").len(), 2);
}

#[test]
fn d003_fires_on_ambient_entropy_outside_entry_points() {
    let findings = lint_fixture("d003_violation.rs", "stats");
    assert_eq!(rules_of(&findings), ["D003", "D003"], "{findings:?}");
    assert!(lint_fixture("d003_clean.rs", "stats").is_empty());
    // Entry points (bench, the CLI crate) may use ambient entropy.
    assert!(lint_fixture("d003_violation.rs", "bench").is_empty());
    assert!(lint_fixture("d003_violation.rs", "stream-score").is_empty());
}

#[test]
fn d004_fires_on_exact_float_comparison() {
    let findings = lint_fixture("d004_violation.rs", "units");
    assert_eq!(rules_of(&findings), ["D004", "D004"], "{findings:?}");
    assert!(lint_fixture("d004_clean.rs", "units").is_empty());
}

#[test]
fn p001_fires_on_request_path_panics_in_scope() {
    let findings = lint_fixture("p001_violation.rs", "server");
    assert_eq!(rules_of(&findings), ["P001", "P001"], "{findings:?}");
    assert_eq!(
        rules_of(&lint_fixture("p001_violation.rs", "loadgen")),
        ["P001", "P001"]
    );
    assert!(lint_fixture("p001_clean.rs", "server").is_empty());
    // Panicking is allowed below the service layer.
    assert!(lint_fixture("p001_violation.rs", "core").is_empty());
}

#[test]
fn l001_fires_on_upward_and_lateral_references() {
    let findings = lint_fixture("l001_violation.rs", "core");
    assert_eq!(rules_of(&findings), ["L001", "L001"], "{findings:?}");
    assert!(lint_fixture("l001_clean.rs", "server").is_empty());
    // From the top of the stack the same references point downward.
    assert!(lint_fixture("l001_violation.rs", "stream-score").is_empty());
}

#[test]
fn tokens_inside_strings_and_comments_never_fire() {
    let findings = lint_fixture("tricky_tokens.rs", "sim");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn malformed_pragmas_are_x001_and_do_not_suppress() {
    let findings = lint_fixture("pragma_errors.rs", "units");
    assert_eq!(
        rules_of(&findings),
        ["X001", "D004", "X001", "D004"],
        "{findings:?}"
    );
}

// ---- U001: a fixture workspace -------------------------------------------

/// `(rule, "file:line")` of every finding the U001 fixture workspace must
/// produce, sorted: a U001 on each line marked `// flagged` and an X001
/// on the pragma that has no reason.
fn u001_expected() -> Vec<(String, String)> {
    let root = fixture_path("u001");
    let mut want = Vec::new();
    for file in ["crates/alpha/src/lib.rs", "crates/alpha/src/shapes.rs"] {
        let text = std::fs::read_to_string(root.join(file)).expect("fixture source");
        for (idx, line) in text.lines().enumerate() {
            let rule = if line.ends_with("// flagged") {
                "U001"
            } else if line.ends_with("allow(U001)") {
                "X001"
            } else {
                continue;
            };
            want.push((rule.to_string(), format!("{file}:{}", idx + 1)));
        }
    }
    want
}

#[test]
fn u001_flags_pub_items_that_only_they_name() {
    let findings = lint_workspace(&fixture_path("u001")).expect("fixture workspace lints");
    let found: Vec<(String, String)> = findings
        .iter()
        .map(|f| (f.rule.clone(), format!("{}:{}", f.file, f.line)))
        .collect();
    // Flagged: a dead `pub fn`; a type named only inside its own impls; a
    // trait named only by its impl; an item named only by a `pub use`;
    // one named only in its own crate's tests; one named only in a
    // comment and a string; one whose pragma has no reason. Not flagged:
    // users in another crate's tests, `tests/`, `crates/*/tests/`,
    // `examples/` and `perfbench/src/`, a pragma'd API, test code,
    // `pub(crate)` and binaries.
    assert_eq!(found, u001_expected(), "{findings:#?}");
    assert_eq!(found.len(), 8, "{findings:#?}");
    for f in findings.iter().filter(|f| f.rule == "U001") {
        assert!(f.message.contains("is named nowhere"), "{f:?}");
    }
}

#[test]
fn binary_runs_u001_in_workspace_mode_only() {
    let root = fixture_path("u001");
    let run = run_binary(&["--workspace", "--root", root.to_str().unwrap()]);
    assert_eq!(run.code, 1, "stderr: {}", run.stderr);
    assert_eq!(text_anchors(&run.stdout), u001_expected(), "{}", run.stdout);
    // One file alone has no users to search, so U001 stays silent; the
    // reasonless pragma is still X001.
    let lib = root.join("crates/alpha/src/lib.rs");
    let run = run_binary(&["--context", "alpha", lib.to_str().unwrap()]);
    assert_eq!(run.code, 1, "stderr: {}", run.stderr);
    let rules: Vec<String> = text_anchors(&run.stdout)
        .into_iter()
        .map(|(r, _)| r)
        .collect();
    assert_eq!(rules, ["X001"], "{}", run.stdout);
}

// ---- binary: formats, exit codes, --context ----------------------------

#[test]
fn binary_reports_fixture_violations_in_text() {
    let path = fixture_path("p001_violation.rs");
    let run = run_binary(&["--context", "server", path.to_str().unwrap()]);
    assert_eq!(run.code, 1, "stderr: {}", run.stderr);
    let anchors = text_anchors(&run.stdout);
    assert_eq!(anchors.len(), 2, "{}", run.stdout);
    for (rule, anchor) in &anchors {
        assert_eq!(rule, "P001");
        assert!(anchor.contains("p001_violation.rs:"), "{anchor}");
    }
    assert!(run.stdout.contains("2 finding(s)"), "{}", run.stdout);
}

#[test]
fn binary_reports_fixture_violations_in_json() {
    let path = fixture_path("d004_violation.rs");
    let run = run_binary(&[
        "--context",
        "units",
        "--format",
        "json",
        path.to_str().unwrap(),
    ]);
    assert_eq!(run.code, 1);
    assert!(run.stdout.contains("\"rule\":\"D004\""), "{}", run.stdout);
    assert!(run.stdout.contains("\"line\":3"), "{}", run.stdout);
    assert!(run.stdout.contains("\"line\":7"), "{}", run.stdout);
    assert!(run.stdout.contains("\"total\":2"), "{}", run.stdout);
}

#[test]
fn binary_exits_zero_on_clean_fixture() {
    let path = fixture_path("tricky_tokens.rs");
    let run = run_binary(&["--context", "sim", path.to_str().unwrap()]);
    assert_eq!(run.code, 0, "{} {}", run.stdout, run.stderr);
    assert!(run.stdout.contains("clean"), "{}", run.stdout);
}

#[test]
fn binary_rejects_bad_usage_with_exit_two() {
    let run = run_binary(&[]);
    assert_eq!(run.code, 2);
    assert!(run.stderr.contains("nothing to lint"), "{}", run.stderr);
    let run = run_binary(&["--format", "yaml", "x.rs"]);
    assert_eq!(run.code, 2);
}

#[test]
fn binary_lists_every_rule() {
    let run = run_binary(&["--list-rules"]);
    assert_eq!(run.code, 0);
    for code in ["D001", "D002", "D003", "D004", "P001", "L001", "U001"] {
        assert!(run.stdout.contains(code), "missing {code}: {}", run.stdout);
    }
}

// ---- the workspace itself ----------------------------------------------

#[test]
fn workspace_is_clean_under_the_committed_baseline() {
    let root = workspace_root();
    let run = run_binary(&["--workspace", "--root", root.to_str().unwrap()]);
    assert_eq!(run.code, 0, "{} {}", run.stdout, run.stderr);
}

#[test]
fn baseline_is_minimal() {
    // Without the baseline the workspace must produce *exactly* the
    // grandfathered set: no stale entries hiding fixed sites, no fresh
    // violations hiding behind the summary count.
    let root = workspace_root();
    let run = run_binary(&[
        "--workspace",
        "--root",
        root.to_str().unwrap(),
        "--no-baseline",
    ]);
    let mut found = text_anchors(&run.stdout);
    found.sort();

    let text = std::fs::read_to_string(root.join("sss-lint.baseline"))
        .expect("committed sss-lint.baseline");
    let mut grandfathered: Vec<(String, String)> = text
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut cols = l.split('\t');
            let rule = cols.next().expect("rule column").to_string();
            let anchor = cols.next().expect("anchor column").to_string();
            (rule, anchor)
        })
        .collect();
    grandfathered.sort();

    assert_eq!(
        found, grandfathered,
        "baseline out of sync: regenerate with --write-baseline and review"
    );
    let expected_exit = if grandfathered.is_empty() { 0 } else { 1 };
    assert_eq!(run.code, expected_exit);
}
