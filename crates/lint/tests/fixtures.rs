//! Fixture-driven end-to-end coverage: every rule has at least one
//! positive and one negative snippet under `tests/fixtures/`, each linted
//! through the library API and through the compiled binary, and pragmas
//! in sources and manifests must each suppress a live finding; plus the
//! workspace itself must lint clean. L001 reads crate manifests, so its
//! fixtures are manifests; U001 reads a whole workspace, so its fixture is
//! a small workspace tree, `tests/fixtures/u001/`. The invariants clippy
//! and rustc enforce in place of retired rules are pinned by their
//! configuration.

use std::path::{Path, PathBuf};
use std::process::Command;

use sss_lint::rules::{lint_manifest, lint_source, FileContext};
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

fn anchors_of(findings: &[Finding]) -> Vec<(&str, u32)> {
    findings.iter().map(|f| (f.rule.as_str(), f.line)).collect()
}

/// 1-based numbers of the lines of `text` that `marked` accepts.
fn marked_lines(text: &str, marked: impl Fn(&str) -> bool) -> Vec<u32> {
    (1..)
        .zip(text.lines())
        .filter(|(_, line)| marked(line))
        .map(|(number, _)| number)
        .collect()
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
fn d004_fires_on_exact_float_comparison() {
    let findings = lint_fixture("d004_violation.rs", "units");
    assert_eq!(rules_of(&findings), ["D004", "D004"], "{findings:?}");
    assert!(lint_fixture("d004_clean.rs", "units").is_empty());
}

#[test]
fn l001_fires_on_upward_manifest_dependencies_in_every_form() {
    let text = std::fs::read_to_string(fixture_path("l001_manifest.toml")).expect("fixture");
    let flagged = marked_lines(&text, |line| line.ends_with("# flagged"));
    let findings = lint_manifest("Cargo.toml", &text, &FileContext::for_crate("core"));
    assert_eq!(rules_of(&findings), ["L001"; 5], "{findings:?}");
    let lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, flagged, "{findings:?}");
    // From the top of the stack the same dependencies point downward.
    assert!(lint_manifest("Cargo.toml", &text, &FileContext::for_crate("server")).is_empty());
}

#[test]
fn manifest_pragmas_suppress_l001_on_their_line_only() {
    let text = std::fs::read_to_string(fixture_path("manifest_pragmas.toml")).expect("fixture");
    let findings = lint_manifest("Cargo.toml", &text, &FileContext::for_crate("core"));
    assert_eq!(
        anchors_of(&findings),
        [
            ("L001", 11),
            ("L001", 15),
            ("L001", 16),
            ("X001", 16),
            ("X002", 17)
        ],
        "{findings:#?}"
    );
    // Outside the layered stack nothing is L001, so every pragma is stale.
    let findings = lint_manifest("Cargo.toml", &text, &FileContext::default());
    assert_eq!(
        anchors_of(&findings),
        [("X002", 10), ("X002", 12), ("X001", 16), ("X002", 17)],
        "{findings:#?}"
    );
}

#[test]
fn pragmas_that_suppress_nothing_are_x002() {
    let text = std::fs::read_to_string(fixture_path("stale_pragmas.rs")).expect("fixture");
    let findings = lint_fixture("stale_pragmas.rs", "units");
    // One in code, one trailing, one in test code.
    let stale = marked_lines(&text, |line| line.contains(", stale:"));
    assert_eq!(stale.len(), 3);
    let want: Vec<(&str, u32)> = stale.into_iter().map(|line| ("X002", line)).collect();
    assert_eq!(anchors_of(&findings), want, "{findings:#?}");
    assert!(findings[0].message.contains("suppresses nothing"));
}

#[test]
fn tokens_inside_strings_and_comments_never_fire() {
    let findings = lint_fixture("tricky_tokens.rs", "core");
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
/// produce, sorted: a U001 on each line marked `// flagged`, an X001 on
/// the pragma that has no reason and an X002 on the pragma of a used item.
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
            } else if line.contains("allow(U001, stale:") {
                "X002"
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
    // comment and a string; one whose pragma has no reason; the pragma of
    // a used item. Not flagged: users in another crate's tests, `tests/`,
    // `crates/*/tests/`, `examples/` and `perfbench/src/`, a pragma'd
    // API, test code, `pub(crate)` and binaries.
    assert_eq!(found, u001_expected(), "{findings:#?}");
    assert_eq!(found.len(), 9, "{findings:#?}");
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
    // One file alone has no users to search, so U001 stays silent and
    // its pragmas go unjudged; the reasonless pragma is still X001.
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
    let path = fixture_path("d004_violation.rs");
    let run = run_binary(&["--context", "units", path.to_str().unwrap()]);
    assert_eq!(run.code, 1, "stderr: {}", run.stderr);
    let anchors = text_anchors(&run.stdout);
    assert_eq!(anchors.len(), 2, "{}", run.stdout);
    for (rule, anchor) in &anchors {
        assert_eq!(rule, "D004");
        assert!(anchor.contains("d004_violation.rs:"), "{anchor}");
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
    let run = run_binary(&["--context", "core", path.to_str().unwrap()]);
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
    for flag in ["--baseline", "--no-baseline", "--write-baseline"] {
        let run = run_binary(&["--workspace", flag]);
        assert_eq!(run.code, 2, "{flag}: {}", run.stdout);
        assert!(
            run.stderr.contains("unknown flag"),
            "{flag}: {}",
            run.stderr
        );
    }
}

#[test]
fn binary_lists_every_rule() {
    let run = run_binary(&["--list-rules"]);
    assert_eq!(run.code, 0);
    let codes: Vec<&str> = run
        .stdout
        .lines()
        .filter_map(|line| line.split_whitespace().next())
        .collect();
    assert_eq!(codes, ["D001", "D004", "L001", "U001"], "{}", run.stdout);
}

// ---- where the retired rules went ----------------------------------------

/// Lines of `text` that are not comments, trimmed.
fn live_lines<'t>(text: &'t str, comment: &str) -> Vec<&'t str> {
    text.lines()
        .map(str::trim)
        .filter(|line| !line.starts_with(comment))
        .collect()
}

#[test]
fn clippy_configuration_keeps_the_retired_invariants() {
    let root = workspace_root();
    // The wall clock is clippy's `disallowed-methods`; tests may unwrap.
    let clippy = std::fs::read_to_string(root.join("clippy.toml")).expect("clippy.toml");
    let clippy = live_lines(&clippy, "#");
    for method in ["std::time::Instant::now", "std::time::SystemTime::now"] {
        let entry = format!("{{ path = \"{method}\"");
        assert!(
            clippy.iter().any(|line| line.starts_with(&entry)),
            "clippy.toml no longer disallows {method}"
        );
    }
    for key in [
        "allow-unwrap-in-tests = true",
        "allow-expect-in-tests = true",
    ] {
        assert!(clippy.contains(&key), "clippy.toml lost `{key}`");
    }
    // Request-path panics are clippy's `unwrap_used`/`expect_used`.
    for krate in ["server", "loadgen"] {
        let lib = std::fs::read_to_string(root.join(format!("crates/{krate}/src/lib.rs")))
            .expect("crate root");
        assert!(
            live_lines(&lib, "//").contains(&"#![warn(clippy::unwrap_used, clippy::expect_used)]"),
            "crates/{krate}/src/lib.rs lost its unwrap_used/expect_used attribute"
        );
    }
}

// ---- the workspace itself ----------------------------------------------

#[test]
fn workspace_is_clean() {
    let root = workspace_root();
    let run = run_binary(&["--workspace", "--root", root.to_str().unwrap()]);
    assert_eq!(run.code, 0, "{} {}", run.stdout, run.stderr);
    assert_eq!(run.stdout, "sss-lint: clean\n");
}
