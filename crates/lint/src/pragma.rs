//! `sss-lint: allow(RULE, reason)` pragmas, in Rust and TOML comments.
//!
//! A pragma suppresses one rule on one line. It is written in any Rust
//! comment (line or block) or in a manifest's `#` comment; the reason is
//! **mandatory** — an allow without a reason, or naming an unknown rule,
//! is itself reported under the meta-rule `X001` so suppressions stay
//! auditable.
//!
//! Binding: a pragma in a trailing comment applies to the line it sits
//! on; a pragma on a line of its own applies to the next line that holds
//! code, in a manifest a key or table header (intervening comment-only
//! and blank lines are skipped, so pragma stacks work).
//!
//! A pragma that suppresses no finding is reported as `X002`, so an
//! exception cannot outlive the site it excused. Only a pass that ran the
//! pragma's rule judges it: U001 runs in `--workspace` mode alone, so only
//! that mode reports a U001 pragma that suppressed nothing.

use std::collections::BTreeSet;

use crate::lexer::{Token, TokenKind};
use crate::rules::{rule_exists, split_comment};
use crate::Finding;

/// All pragma information extracted from one file's comments.
#[derive(Debug, Default)]
pub struct Pragmas {
    /// Well-formed pragmas, in comment order.
    allows: Vec<Allow>,
    /// Malformed pragmas, reported as `X001` findings.
    errors: Vec<(u32, String)>,
}

/// One well-formed pragma.
#[derive(Debug)]
struct Allow {
    rule: String,
    /// The line of the comment holding it.
    line: u32,
    /// The line it suppresses `rule` on.
    target: u32,
    /// Whether it has suppressed a finding.
    used: bool,
}

impl Pragmas {
    /// Is `rule` suppressed on `line`? Every pragma that says so counts as
    /// used.
    pub fn allows(&mut self, rule: &str, line: u32) -> bool {
        let mut allowed = false;
        for allow in &mut self.allows {
            if allow.target == line && allow.rule == rule {
                allow.used = true;
                allowed = true;
            }
        }
        allowed
    }

    /// Convert accumulated pragma errors into `X001` findings for `file`.
    pub fn error_findings(&self, file: &str) -> Vec<Finding> {
        self.errors
            .iter()
            .map(|(line, message)| Finding {
                rule: "X001".to_string(),
                file: file.to_string(),
                line: *line,
                message: message.clone(),
            })
            .collect()
    }

    /// An `X002` finding for `file` on each pragma that has suppressed
    /// nothing, among those whose rule `judged` accepts: the rules the
    /// calling pass ran.
    pub fn stale(&self, file: &str, judged: impl Fn(&str) -> bool) -> Vec<Finding> {
        self.allows
            .iter()
            .filter(|allow| !allow.used && judged(&allow.rule))
            .map(|allow| Finding {
                rule: "X002".to_string(),
                file: file.to_string(),
                line: allow.line,
                message: format!(
                    "pragma allow({}, …) suppresses nothing: line {} has no {} finding — \
                     delete the pragma",
                    allow.rule, allow.target, allow.rule
                ),
            })
            .collect()
    }
}

/// The marker every pragma starts with inside a comment.
const MARKER: &str = "sss-lint:";

/// Extract pragmas from a Rust token stream (comments carry their text).
pub fn collect(tokens: &[Token]) -> Pragmas {
    let code_lines = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::Comment(_)))
        .map(|t| t.line)
        .collect();
    let comments = tokens.iter().filter_map(|t| match &t.kind {
        TokenKind::Comment(text) => Some((t.line, text.as_str())),
        _ => None,
    });
    bind(comments, &code_lines)
}

/// Extract pragmas from a TOML manifest's `#` comments.
pub fn collect_toml(text: &str) -> Pragmas {
    let mut code_lines = BTreeSet::new();
    let mut comments = Vec::new();
    for (line, raw) in (1..).zip(text.lines()) {
        let (code, comment) = split_comment(raw);
        if !code.trim().is_empty() {
            code_lines.insert(line);
        }
        comments.extend(comment.map(|comment| (line, comment)));
    }
    bind(comments, &code_lines)
}

/// Bind each pragma among `comments`, `(line, text)` pairs, to the line it
/// covers; `code_lines` are the lines that hold code.
fn bind<'c>(
    comments: impl IntoIterator<Item = (u32, &'c str)>,
    code_lines: &BTreeSet<u32>,
) -> Pragmas {
    let mut pragmas = Pragmas::default();
    for (line, text) in comments {
        // Only a comment that *starts* with the marker (after `//`, the
        // doc sigils `/`/`!`, block-comment `/*` or TOML's `#`) is a
        // pragma: prose that merely mentions the syntax is left alone.
        let head = text.trim_start_matches(['/', '*', '!', ' ', '\t']);
        let Some(rest) = head.strip_prefix(MARKER) else {
            continue;
        };
        let rule = match parse_allow(rest.trim()) {
            Ok(rule) => rule,
            Err(message) => {
                pragmas.errors.push((line, message));
                continue;
            }
        };
        let target = if code_lines.contains(&line) {
            // Trailing comment: applies to its own line.
            line
        } else {
            // Own-line comment: applies to the next code line.
            match code_lines.range(line + 1..).next() {
                Some(&target) => target,
                None => {
                    pragmas.errors.push((
                        line,
                        "pragma has no following code line to apply to".to_string(),
                    ));
                    continue;
                }
            }
        };
        pragmas.allows.push(Allow {
            rule,
            line,
            target,
            used: false,
        });
    }
    pragmas
}

/// Parse `allow(RULE, reason…)` into its rule; the reason must be
/// non-empty.
fn parse_allow(body: &str) -> Result<String, String> {
    let rest = body
        .strip_prefix("allow(")
        .ok_or_else(|| format!("malformed pragma {body:?}: expected `allow(RULE, reason)`"))?;
    let rest = rest
        .strip_suffix(')')
        .ok_or_else(|| format!("malformed pragma {body:?}: missing closing `)`"))?;
    let (rule, reason) = rest.split_once(',').ok_or_else(|| {
        format!("pragma allow({rest}) is missing its mandatory reason: `allow(RULE, reason)`")
    })?;
    let rule = rule.trim();
    if !rule_exists(rule) {
        return Err(format!("pragma names unknown rule {rule:?}"));
    }
    if reason.trim().is_empty() {
        return Err(format!("pragma allow({rule}) has an empty reason"));
    }
    Ok(rule.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn trailing_pragma_binds_to_its_line() {
        let toks = lex("let idle = rate == 0.0; // sss-lint: allow(D004, exact-zero guard)\n");
        let mut pragmas = collect(&toks);
        assert!(pragmas.allows("D004", 1));
        assert!(!pragmas.allows("D004", 2));
        assert!(pragmas.errors.is_empty());
    }

    #[test]
    fn own_line_pragma_binds_to_next_code_line() {
        let src = "// sss-lint: allow(D004, exact-zero guard)\n// another comment\n\nx == 0.0;\n";
        let mut pragmas = collect(&lex(src));
        assert!(pragmas.allows("D004", 4));
    }

    #[test]
    fn stacked_pragmas_accumulate() {
        let src = "// sss-lint: allow(D004, a)\n// sss-lint: allow(D001, b)\nwork();\n";
        let mut pragmas = collect(&lex(src));
        assert!(pragmas.allows("D004", 3));
        assert!(pragmas.allows("D001", 3));
    }

    #[test]
    fn missing_reason_is_an_error() {
        let mut pragmas = collect(&lex("x(); // sss-lint: allow(D004)\n"));
        assert!(!pragmas.allows("D004", 1));
        assert_eq!(pragmas.errors.len(), 1);
        assert!(pragmas.errors[0].1.contains("reason"));
    }

    #[test]
    fn unknown_rule_is_an_error() {
        let pragmas = collect(&lex("x(); // sss-lint: allow(Z999, because)\n"));
        assert_eq!(pragmas.errors.len(), 1);
        assert!(pragmas.errors[0].1.contains("unknown rule"));
    }

    #[test]
    fn only_an_unused_pragma_of_a_judged_rule_is_stale() {
        let src = "a(); // sss-lint: allow(D004, used)\n\
                   b(); // sss-lint: allow(D004, unused)\n\
                   c(); // sss-lint: allow(U001, not judged)\n";
        let mut pragmas = collect(&lex(src));
        assert!(pragmas.allows("D004", 1));
        let stale = pragmas.stale("x.rs", |rule| rule != "U001");
        let anchors: Vec<(&str, u32)> = stale.iter().map(|f| (f.rule.as_str(), f.line)).collect();
        assert_eq!(anchors, [("X002", 2)], "{stale:?}");
    }

    #[test]
    fn manifest_comments_bind_but_a_hash_in_a_string_is_no_comment() {
        let text = "[dependencies]\n\
                    # sss-lint: allow(L001, own line)\n\
                    \n\
                    a = \"1\" # sss-lint: allow(L001, trailing)\n\
                    b = \"\\\"# sss-lint: allow(L001, a string)\"\n";
        let mut pragmas = collect_toml(text);
        assert!(pragmas.allows("L001", 4));
        assert!(!pragmas.allows("L001", 5));
        assert!(pragmas.errors.is_empty());
        assert!(pragmas.stale("Cargo.toml", |_| true).is_empty());
    }
}
