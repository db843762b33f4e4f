//! `sss-lint`: a workspace-native determinism & robustness analyzer.
//!
//! Every load-bearing guarantee in this repository — bit-identical
//! sequential/parallel suite output, seeded position-derived Monte-Carlo
//! jitter, FIFO-tie-break event ordering in `sss-sim`, byte-identical
//! cached server responses — is dynamic: CI byte-compare jobs catch a
//! regression only after it ships. This crate rejects the whole bug class
//! at the source level instead. It is a self-contained static analyzer
//! (pure std, hand-rolled lexer — no `syn`) that walks all non-vendor
//! workspace sources and enforces seven invariants; see [`rules::RULES`].
//! Six are per file; the seventh, U001 ([`unused`]), reads the whole
//! workspace for `pub` items that nothing names.
//!
//! Suppression is explicit and auditable: an inline
//! `// sss-lint: allow(RULE, reason)` pragma (reason mandatory) clears one
//! line, and the checked-in `sss-lint.baseline` file grandfathers legacy
//! sites — stale entries fail the lint, so the baseline stays minimal.
//!
//! # Example
//!
//! ```
//! use sss_lint::rules::{lint_source, FileContext};
//!
//! // A wall-clock read inside a simulation crate is a determinism bug…
//! let findings = lint_source(
//!     "crates/sim/src/demo.rs",
//!     "fn stamp() -> std::time::Instant { Instant::now() }",
//!     &FileContext::for_crate("sim"),
//! );
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule, "D002");
//!
//! // …but the same tokens inside a string literal are data, not code.
//! let clean = lint_source(
//!     "crates/sim/src/demo.rs",
//!     r#"const DOC: &str = "never call Instant::now() here";"#,
//!     &FileContext::for_crate("sim"),
//! );
//! assert!(clean.is_empty());
//! ```
#![warn(missing_docs)]

pub mod baseline;
pub mod lexer;
pub mod pragma;
pub mod rules;
pub mod unused;
pub mod walk;

pub use rules::{lint_source, FileContext};

use std::path::Path;

/// One diagnostic: a rule violated at a `file:line` anchor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule code (`D001`…`D004`, `P001`, `L001`, `U001`) or meta code (`X001` bad
    /// pragma, `X002` stale baseline entry).
    pub rule: String,
    /// Workspace-relative file path with forward slashes.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable explanation of the violation.
    pub message: String,
}

/// Lint every non-vendor source file and crate manifest under `root`,
/// then run U001 over those sources and the [`walk::user_files`].
/// Findings come back sorted by `(file, line, rule)`.
pub fn lint_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let read = |file: &walk::SourceFile| {
        std::fs::read_to_string(&file.path)
            .map_err(|e| format!("reading {}: {e}", file.path.display()))
    };
    let mut findings = Vec::new();
    let mut sources = Vec::new();
    for file in walk::workspace_files(root)? {
        let text = read(&file)?;
        let ctx = FileContext::for_path(&file.rel);
        if file.manifest {
            findings.extend(rules::lint_manifest(&file.rel, &text, &ctx));
        } else {
            let tokens = lexer::lex(&text);
            findings.extend(rules::lint_tokens(&file.rel, &tokens, &ctx));
            sources.push((file.rel, tokens));
        }
    }
    for file in walk::user_files(root)? {
        let tokens = lexer::lex(&read(&file)?);
        sources.push((file.rel, tokens));
    }
    findings.extend(unused::check(&sources));
    findings.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    Ok(findings)
}

/// Render findings as `file:line: RULE: message` lines plus a summary.
pub fn render_text(findings: &[Finding], grandfathered: usize) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "{}:{}: {}: {}\n",
            f.file, f.line, f.rule, f.message
        ));
    }
    if findings.is_empty() {
        out.push_str(&format!(
            "sss-lint: clean ({grandfathered} grandfathered in baseline)\n"
        ));
    } else {
        out.push_str(&format!(
            "sss-lint: {} finding(s), {} grandfathered in baseline\n",
            findings.len(),
            grandfathered
        ));
    }
    out
}

/// Render findings as a stable JSON document:
/// `{"findings":[{"rule","file","line","message"}…],"total":N,"grandfathered":M}`.
pub fn render_json(findings: &[Finding], grandfathered: usize) -> String {
    let mut out = String::from("{\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":{},\"file\":{},\"line\":{},\"message\":{}}}",
            json_str(&f.rule),
            json_str(&f.file),
            f.line,
            json_str(&f.message)
        ));
    }
    out.push_str(&format!(
        "],\"total\":{},\"grandfathered\":{}}}",
        findings.len(),
        grandfathered
    ));
    out.push('\n');
    out
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_quotes_and_controls() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn text_and_json_render_anchor() {
        let f = vec![Finding {
            rule: "D002".into(),
            file: "crates/sim/src/x.rs".into(),
            line: 7,
            message: "wall clock".into(),
        }];
        let text = render_text(&f, 2);
        assert!(text.contains("crates/sim/src/x.rs:7: D002: wall clock"));
        assert!(text.contains("1 finding(s), 2 grandfathered"));
        let json = render_json(&f, 2);
        assert!(json.contains("\"file\":\"crates/sim/src/x.rs\""));
        assert!(json.contains("\"line\":7"));
        assert!(json.contains("\"grandfathered\":2"));
    }
}
