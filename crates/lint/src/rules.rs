//! The rule engine: determinism invariants over token streams and crate
//! manifests.
//!
//! | Rule | Invariant |
//! |------|-----------|
//! | D001 | no `HashMap`/`HashSet` iteration in `core`/`loadgen`/`report`/`server` (order nondeterminism on output paths) |
//! | D004 | no float `==`/`!=` (use `to_bits` parity or an explicit tolerance) |
//! | L001 | crate layering: `units→stats→sim→core→{netsim,iosim}→exec→loadgen→report→server`; an upward or lateral dependency in a crate's `Cargo.toml` is an error |
//! | U001 | no `pub` item that nothing outside its declaration, re-exports, own `impl` blocks and own crate's tests names (see [`crate::unused`]; `--workspace` only) |
//!
//! Invariants a compiler pass already sees are not repeated here: the
//! wall clock is clippy's `disallowed-methods` (`clippy.toml`),
//! request-path panics are `clippy::unwrap_used`/`expect_used` in
//! `sss-server` and `sss-loadgen`, and the vendored `rand` has no
//! entropy source to call. A crate names only the crates its manifest
//! declares, so L001 reads manifests alone.
//!
//! Code under `#[cfg(test)]`/`#[test]` is exempt from D001 and D004:
//! tests may compare floats exactly. The workspace walker never feeds
//! `tests/` directories to these per-file rules; U001 reads them only as
//! users of the library crates.

use crate::lexer::{lex, Token, TokenKind};
use crate::pragma;
use crate::Finding;

/// Static description of one rule, for `--list-rules` and the docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleInfo {
    /// Rule code (`D001`…).
    pub code: &'static str,
    /// One-line summary of the invariant.
    pub summary: &'static str,
}

/// Every suppressible rule the engine knows.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        code: "D001",
        summary:
            "no HashMap/HashSet iteration in core/loadgen/report/server (order nondeterminism)",
    },
    RuleInfo {
        code: "D004",
        summary: "no float ==/!= (use to_bits parity or an explicit tolerance)",
    },
    RuleInfo {
        code: "L001",
        summary: "crate layering units→stats→sim→core→{netsim,iosim}→exec→loadgen→report→server \
                  in Cargo.toml dependencies",
    },
    RuleInfo {
        code: "U001",
        summary: "no pub item that only its declaration, re-exports, own impls and own tests name",
    },
];

/// Does a suppressible rule with this code exist?
pub fn rule_exists(code: &str) -> bool {
    RULES.iter().any(|r| r.code == code)
}

/// Layer rank of a workspace crate; `None` for crates outside the layered
/// stack (the analyzer itself, vendored stand-ins).
pub fn layer_rank(crate_name: &str) -> Option<u32> {
    Some(match crate_name {
        "units" => 0,
        "stats" => 1,
        "sim" => 2,
        "core" => 3,
        "netsim" | "iosim" => 4,
        "exec" => 5,
        "loadgen" => 6,
        "report" => 7,
        "server" => 8,
        "bench" => 9,
        _ => return None,
    })
}

/// Which workspace crate a file belongs to, for scoping D001 and L001.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FileContext {
    /// Short crate name (`core`, `server`, …). `None` disables D001 and
    /// L001 but keeps D004.
    pub crate_name: Option<String>,
}

impl FileContext {
    /// Infer the owning crate from a workspace-relative path:
    /// `crates/<name>/…` maps to `<name>`; any other path has no crate.
    pub fn for_path(path: &str) -> Self {
        let path = path.replace('\\', "/");
        let crate_name = path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .map(str::to_string);
        FileContext { crate_name }
    }

    /// Context for an explicit crate name (fixture tests, `--context`).
    pub fn for_crate(name: &str) -> Self {
        FileContext {
            crate_name: Some(name.to_string()),
        }
    }

    fn d001_applies(&self) -> bool {
        matches!(
            self.crate_name.as_deref(),
            Some("core" | "loadgen" | "report" | "server")
        )
    }
}

/// Lint one file's source text. `path` is used verbatim in diagnostics.
pub fn lint_source(path: &str, source: &str, ctx: &FileContext) -> Vec<Finding> {
    lint_tokens(path, &lex(source), ctx)
}

/// [`lint_source`] on an already lexed file, so the workspace pass lexes
/// each file once for the per-file rules and U001.
pub(crate) fn lint_tokens(path: &str, tokens: &[Token], ctx: &FileContext) -> Vec<Finding> {
    let mut pragmas = pragma::collect(tokens);
    // Comments only matter for pragmas; rule patterns match adjacent
    // code tokens.
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::Comment(_)))
        .collect();
    let test_regions = test_regions(&code);
    let in_test = |line: u32| {
        test_regions
            .iter()
            .any(|&(lo, hi)| lo <= line && line <= hi)
    };

    let mut findings = pragmas.error_findings(path);
    let mut emit = |rule: &str, line: u32, message: String| {
        if !in_test(line) && !pragmas.allows(rule, line) {
            findings.push(Finding {
                rule: rule.to_string(),
                file: path.to_string(),
                line,
                message,
            });
        }
    };

    check_d001(&code, ctx, &mut emit);
    check_d004(&code, &mut emit);
    // U001 reads the whole workspace, so its pragmas are its own to judge.
    findings.extend(pragmas.stale(path, |rule| rule != "U001"));

    findings.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    findings
}

pub(crate) fn ident<'t>(tok: Option<&&'t Token>) -> Option<&'t str> {
    match tok.map(|t| &t.kind) {
        Some(TokenKind::Ident(name)) => Some(name.as_str()),
        _ => None,
    }
}

pub(crate) fn is_op(tok: Option<&&Token>, op: &str) -> bool {
    matches!(tok.map(|t| &t.kind), Some(TokenKind::Op(o)) if *o == op)
}

fn is_float(tok: Option<&&Token>) -> bool {
    matches!(tok.map(|t| &t.kind), Some(TokenKind::Float))
}

/// Line spans covered by `#[cfg(test)]` / `#[test]` items.
pub(crate) fn test_regions(code: &[&Token]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if is_op(code.get(i), "#") && is_op(code.get(i + 1), "[") {
            // Collect the attribute body up to its matching `]`.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut attr: Vec<&str> = Vec::new();
            while j < code.len() && depth > 0 {
                match &code[j].kind {
                    TokenKind::Op("[") => depth += 1,
                    TokenKind::Op("]") => depth -= 1,
                    TokenKind::Ident(name) => attr.push(name.as_str()),
                    _ => {}
                }
                j += 1;
            }
            let is_test_attr = attr.first() == Some(&"test")
                || (attr.first() == Some(&"cfg") && attr.contains(&"test"));
            if is_test_attr {
                // Find the item's block: first `{` outside parens; a `;`
                // first means a braceless item (nothing more to mark).
                let mut paren = 0i32;
                while j < code.len() {
                    match &code[j].kind {
                        TokenKind::Op("(") => paren += 1,
                        TokenKind::Op(")") => paren -= 1,
                        TokenKind::Op(";") if paren == 0 => break,
                        TokenKind::Op("{") if paren == 0 => {
                            let start = code[j].line;
                            let mut braces = 1i32;
                            j += 1;
                            while j < code.len() && braces > 0 {
                                match &code[j].kind {
                                    TokenKind::Op("{") => braces += 1,
                                    TokenKind::Op("}") => braces -= 1,
                                    _ => {}
                                }
                                j += 1;
                            }
                            let end = code.get(j - 1).map(|t| t.line).unwrap_or(start);
                            regions.push((start, end));
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            i = j;
        } else {
            i += 1;
        }
    }
    regions
}

/// Methods whose call on a hash collection observes iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

fn check_d001(code: &[&Token], ctx: &FileContext, emit: &mut impl FnMut(&str, u32, String)) {
    if !ctx.d001_applies() {
        return;
    }
    // Pass 1: names bound to a HashMap/HashSet in this file, via a type
    // ascription (`name: HashMap<…>`, fields included) or a direct
    // construction (`name = HashMap::new()`).
    let mut bound: Vec<(String, &'static str)> = Vec::new();
    for i in 0..code.len() {
        let Some(kind @ ("HashMap" | "HashSet")) = ident(code.get(i)) else {
            continue;
        };
        if (is_op(code.get(i.wrapping_sub(1)), ":") || is_op(code.get(i.wrapping_sub(1)), "="))
            && i >= 2
        {
            if let Some(name) = ident(code.get(i - 2)) {
                let label = if kind == "HashMap" {
                    "HashMap"
                } else {
                    "HashSet"
                };
                bound.push((name.to_string(), label));
            }
        }
    }
    let kind_of = |name: &str| bound.iter().find(|(n, _)| n == name).map(|(_, k)| *k);
    // Pass 2: iteration over a bound name.
    for i in 0..code.len() {
        if let Some(name) = ident(code.get(i)) {
            if let Some(kind) = kind_of(name) {
                if is_op(code.get(i + 1), ".") {
                    if let Some(method) = ident(code.get(i + 2)) {
                        if ITER_METHODS.contains(&method) && is_op(code.get(i + 3), "(") {
                            emit(
                                "D001",
                                code[i + 2].line,
                                format!(
                                    "iteration over {kind} `{name}` (`.{method}()`): \
                                     hash order is nondeterministic — sort first or use a BTree collection"
                                ),
                            );
                        }
                    }
                }
            }
            // `for x in [&][mut] name { … }`
            if name == "in" {
                let mut j = i + 1;
                while is_op(code.get(j), "&") || ident(code.get(j)) == Some("mut") {
                    j += 1;
                }
                if let Some(target) = ident(code.get(j)) {
                    if let Some(kind) = kind_of(target) {
                        if is_op(code.get(j + 1), "{") {
                            emit(
                                "D001",
                                code[j].line,
                                format!(
                                    "for-loop over {kind} `{target}`: hash order is \
                                     nondeterministic — sort first or use a BTree collection"
                                ),
                            );
                        }
                    }
                }
            }
        }
    }
}

fn check_d004(code: &[&Token], emit: &mut impl FnMut(&str, u32, String)) {
    for i in 0..code.len() {
        let op = match &code[i].kind {
            TokenKind::Op(o @ ("==" | "!=")) => *o,
            _ => continue,
        };
        let prev_float = i > 0 && is_float(code.get(i - 1));
        let next_float =
            is_float(code.get(i + 1)) || (is_op(code.get(i + 1), "-") && is_float(code.get(i + 2)));
        if prev_float || next_float {
            emit(
                "D004",
                code[i].line,
                format!(
                    "float `{op}` against a literal: exact float equality is fragile — \
                     compare `to_bits()`, use a tolerance, or pragma an intentional exact guard"
                ),
            );
        }
    }
}

/// Lint a crate manifest: every normal dependency on an `sss-*` crate
/// must point strictly down the stack (L001). It reads each form Cargo
/// accepts for one: a key under `[dependencies]` or
/// `[target.'…'.dependencies]`, and a `[dependencies.x]` or
/// `[target.'…'.dependencies.x]` table. A dependency renamed with
/// `package = "sss-x"`, in an inline table or in a table's body, is
/// `sss-x`, reported on the line that says so. `[dev-dependencies]` and
/// `[build-dependencies]` are not layered. An exception is a
/// `# sss-lint: allow(L001, reason)` comment, bound like a source pragma.
pub fn lint_manifest(path: &str, text: &str, ctx: &FileContext) -> Vec<Finding> {
    let mut pragmas = pragma::collect_toml(text);
    let mut findings = pragmas.error_findings(path);
    let own = ctx.crate_name.as_deref().unwrap_or_default();
    let own_rank = layer_rank(own);
    for (idx, name) in normal_dependencies(text) {
        let Some(dep) = name.strip_prefix("sss-") else {
            continue;
        };
        let (Some(own_rank), Some(dep_rank)) = (own_rank, layer_rank(dep)) else {
            continue;
        };
        let line = (idx + 1) as u32;
        if dep != own && dep_rank >= own_rank && !pragmas.allows("L001", line) {
            findings.push(Finding {
                rule: "L001".to_string(),
                file: path.to_string(),
                line,
                message: format!(
                    "layering violation in manifest: `{own}` (layer {own_rank}) depends \
                     on `sss-{dep}` (layer {dep_rank}) — dependencies must point strictly \
                     down the stack"
                ),
            });
        }
    }
    // No other pass reads a manifest, so every pragma in one is judged here.
    findings.extend(pragmas.stale(path, |_| true));
    findings.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    findings
}

/// Every key under a normal dependencies section of `text`, as `(line
/// index, crate name)` in line order; non-dependency keys come along and
/// match no crate. A `[dependencies.x]` table is `x` on its header line
/// until a `package` line in its body renames it.
fn normal_dependencies(text: &str) -> Vec<(usize, &str)> {
    let mut deps = Vec::new();
    let mut in_dependencies = false;
    let mut table = None;
    for (idx, raw) in text.lines().enumerate() {
        // A comment is free text (a pragma's reason holds commas), never
        // keys.
        let line = split_comment(raw).0.trim();
        if let Some(header) = line.strip_prefix('[') {
            deps.extend(table.take());
            // Up to the first `]`, so `[[bin]]`'s second bracket is
            // dropped; no target spec holds a `]`.
            let keys = dotted_keys(header.split(']').next().unwrap_or(""));
            let section = match keys.as_slice() {
                ["target", _, rest @ ..] => rest,
                all => all,
            };
            in_dependencies = section == ["dependencies"];
            if let ["dependencies", name] = section {
                table = Some((idx, *name));
            }
        } else if in_dependencies {
            // `sss-x = …`, `sss-x.workspace = true`, `"sss-x" = …` or
            // `x = { package = "sss-x", … }`.
            let key = dotted_keys(line.split('=').next().unwrap_or(""))[0];
            deps.push((idx, package_in(line).unwrap_or(key)));
        } else if let (Some(dep), Some(package)) = (&mut table, package_in(line)) {
            *dep = (idx, package);
        }
    }
    deps.extend(table);
    deps
}

/// The quoted value of a `package` key among `entries`: one `key = value`
/// line, or a key line with an inline table.
fn package_in(entries: &str) -> Option<&str> {
    entries.split([',', '{', '}']).find_map(|entry| {
        let (key, value) = entry.split_once('=')?;
        if dotted_keys(key) != ["package"] {
            return None;
        }
        let value = value.trim_start();
        let quote = value.chars().next().filter(|c| matches!(c, '"' | '\''))?;
        value[1..].split(quote).next()
    })
}

/// Split one TOML line at its comment, the first `#` outside a quoted
/// string, into the code before it and the comment text after it. Lines
/// are read one at a time, so a multi-line string's inner lines read as
/// code.
pub(crate) fn split_comment(line: &str) -> (&str, Option<&str>) {
    let mut quote = None;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match quote {
            None if c == '#' => return (&line[..i], Some(&line[i + 1..])),
            None if matches!(c, '"' | '\'') => quote = Some(c),
            // Only a basic (`"`) string has escapes.
            Some('"') if escaped => escaped = false,
            Some('"') if c == '\\' => escaped = true,
            Some(open) if c == open => quote = None,
            _ => {}
        }
    }
    (line, None)
}

/// Split a TOML dotted key (`target.'cfg(unix)'.dependencies`) into its
/// parts, unquoted and trimmed; a `.` inside quotes does not split.
fn dotted_keys(key: &str) -> Vec<&str> {
    let mut keys = Vec::new();
    let mut quote = None;
    let mut start = 0;
    for (i, c) in key.char_indices() {
        match (quote, c) {
            (None, '"' | '\'') => quote = Some(c),
            (Some(open), _) if c == open => quote = None,
            (None, '.') => {
                keys.push(&key[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    keys.push(&key[start..]);
    keys.into_iter()
        .map(|k| k.trim().trim_matches(['"', '\'']))
        .collect()
}
