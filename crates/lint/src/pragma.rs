//! Inline `// sss-lint: allow(RULE, reason)` pragmas.
//!
//! A pragma suppresses one rule on one source line. It is written in any
//! comment (line or block); the reason is **mandatory** — an allow without
//! a reason, or naming an unknown rule, is itself reported under the
//! meta-rule `X001` so suppressions stay auditable.
//!
//! Binding: a pragma in a trailing comment applies to the line it sits
//! on; a pragma on a line of its own applies to the next line that holds
//! code (intervening comment-only and blank lines are skipped, so pragma
//! stacks work).

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Token, TokenKind};
use crate::rules::rule_exists;
use crate::Finding;

/// All pragma information extracted from one file's token stream.
#[derive(Debug, Default)]
pub struct Pragmas {
    /// `line -> rules allowed on that line`.
    allowed: BTreeMap<u32, BTreeSet<String>>,
    /// Malformed pragmas, reported as `X001` findings.
    pub errors: Vec<(u32, String)>,
}

impl Pragmas {
    /// Is `rule` suppressed on `line`?
    pub fn allows(&self, rule: &str, line: u32) -> bool {
        self.allowed
            .get(&line)
            .map(|rules| rules.contains(rule))
            .unwrap_or(false)
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
}

/// The marker every pragma starts with inside a comment.
const MARKER: &str = "sss-lint:";

/// Extract pragmas from a token stream (comments carry their text).
pub fn collect(tokens: &[Token]) -> Pragmas {
    // Lines that hold at least one non-comment token, for binding
    // own-line pragmas to the next code line.
    let code_lines: BTreeSet<u32> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::Comment(_)))
        .map(|t| t.line)
        .collect();

    let mut pragmas = Pragmas::default();
    for token in tokens {
        let TokenKind::Comment(text) = &token.kind else {
            continue;
        };
        // Only a comment that *starts* with the marker (after `//`, the
        // doc sigils `/`/`!`, or block-comment `/*`) is a pragma: prose
        // that merely mentions the syntax is left alone.
        let head = text.trim_start_matches(['/', '*', '!', ' ', '\t']);
        let Some(rest) = head.strip_prefix(MARKER) else {
            continue;
        };
        let body = rest.trim();
        match parse_allow(body) {
            Ok((rule, _reason)) => {
                let target = if code_lines.contains(&token.line) {
                    // Trailing comment: applies to its own line.
                    token.line
                } else {
                    // Own-line comment: applies to the next code line.
                    match code_lines.range(token.line + 1..).next() {
                        Some(&line) => line,
                        None => {
                            pragmas.errors.push((
                                token.line,
                                "pragma has no following code line to apply to".to_string(),
                            ));
                            continue;
                        }
                    }
                };
                pragmas.allowed.entry(target).or_default().insert(rule);
            }
            Err(message) => pragmas.errors.push((token.line, message)),
        }
    }
    pragmas
}

/// Parse `allow(RULE, reason…)`; the reason must be non-empty.
fn parse_allow(body: &str) -> Result<(String, String), String> {
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
    let reason = reason.trim();
    if !rule_exists(rule) {
        return Err(format!("pragma names unknown rule {rule:?}"));
    }
    if reason.is_empty() {
        return Err(format!("pragma allow({rule}) has an empty reason"));
    }
    Ok((rule.to_string(), reason.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn trailing_pragma_binds_to_its_line() {
        let toks = lex("let idle = rate == 0.0; // sss-lint: allow(D004, exact-zero guard)\n");
        let pragmas = collect(&toks);
        assert!(pragmas.allows("D004", 1));
        assert!(!pragmas.allows("D004", 2));
        assert!(pragmas.errors.is_empty());
    }

    #[test]
    fn own_line_pragma_binds_to_next_code_line() {
        let src = "// sss-lint: allow(D004, exact-zero guard)\n// another comment\n\nx == 0.0;\n";
        let pragmas = collect(&lex(src));
        assert!(pragmas.allows("D004", 4));
    }

    #[test]
    fn stacked_pragmas_accumulate() {
        let src = "// sss-lint: allow(D004, a)\n// sss-lint: allow(D001, b)\nwork();\n";
        let pragmas = collect(&lex(src));
        assert!(pragmas.allows("D004", 3));
        assert!(pragmas.allows("D001", 3));
    }

    #[test]
    fn missing_reason_is_an_error() {
        let pragmas = collect(&lex("x(); // sss-lint: allow(D004)\n"));
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
}
