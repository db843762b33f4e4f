//! The rule engine: determinism & robustness invariants over token streams.
//!
//! | Rule | Invariant |
//! |------|-----------|
//! | D001 | no `HashMap`/`HashSet` iteration in `core`/`loadgen`/`report`/`server` (order nondeterminism on output paths) |
//! | D002 | no wall-clock (`Instant::now`, `SystemTime`) anywhere without a justifying pragma — it breaks replay in the simulation crates and must be intentional elsewhere |
//! | D003 | no unseeded RNG (`thread_rng`, `from_entropy`, `OsRng`) outside bench/CLI entry points |
//! | D004 | no float `==`/`!=` (use `to_bits` parity or an explicit tolerance) |
//! | P001 | no `.unwrap()`/`.expect(` in the `server`/`loadgen` crates — a panic on a request path is a silently dropped connection |
//! | L001 | crate layering: `units→stats→sim→core→{netsim,iosim}→exec→loadgen→report→server`; upward or lateral imports are errors |
//! | U001 | no `pub` item that nothing outside its declaration, re-exports, own `impl` blocks and own crate's tests names (see [`crate::unused`]; `--workspace` only) |
//!
//! Code under `#[cfg(test)]`/`#[test]` is exempt from every rule: tests
//! may compare floats exactly, unwrap freely and measure wall-clock. The
//! workspace walker never feeds `tests/` directories to these per-file
//! rules; U001 reads them only as users of the library crates.

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
        code: "D002",
        summary: "no wall-clock (Instant::now/SystemTime) without a justifying pragma",
    },
    RuleInfo {
        code: "D003",
        summary: "no unseeded RNG (thread_rng/from_entropy/OsRng) outside bench/CLI entry points",
    },
    RuleInfo {
        code: "D004",
        summary: "no float ==/!= (use to_bits parity or an explicit tolerance)",
    },
    RuleInfo {
        code: "P001",
        summary:
            "no .unwrap()/.expect( in server/loadgen non-test code (panic drops the connection)",
    },
    RuleInfo {
        code: "L001",
        summary: "crate layering units→stats→sim→core→{netsim,iosim}→exec→loadgen→report→server",
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
        // The root binary/library sits on top of everything.
        "stream-score" => 10,
        _ => return None,
    })
}

/// Which workspace crate a file belongs to, for scoping the rules.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FileContext {
    /// Short crate name (`core`, `server`, …; `stream-score` for the root
    /// crate). `None` disables the crate-scoped rules (D001, D003 scope,
    /// P001, L001) but keeps the universal ones (D002, D004).
    pub crate_name: Option<String>,
}

impl FileContext {
    /// Infer the owning crate from a workspace-relative path:
    /// `crates/<name>/…` maps to `<name>`; `src/…`, `examples/…` and
    /// `tests/…` map to the root `stream-score` crate.
    pub fn for_path(path: &str) -> Self {
        let path = path.replace('\\', "/");
        let crate_name = if let Some(rest) = path.strip_prefix("crates/") {
            rest.split('/').next().map(str::to_string)
        } else if path.starts_with("src/")
            || path.starts_with("examples/")
            || path.starts_with("tests/")
        {
            Some("stream-score".to_string())
        } else {
            None
        };
        FileContext { crate_name }
    }

    /// Context for an explicit crate name (fixture tests, `--context`).
    pub fn for_crate(name: &str) -> Self {
        FileContext {
            crate_name: Some(name.to_string()),
        }
    }

    fn name(&self) -> &str {
        self.crate_name.as_deref().unwrap_or("")
    }

    fn d001_applies(&self) -> bool {
        matches!(self.name(), "core" | "loadgen" | "report" | "server")
    }

    fn p001_applies(&self) -> bool {
        matches!(self.name(), "server" | "loadgen")
    }

    /// Bench binaries and the CLI are entry points: ambient entropy is
    /// acceptable there (and only there).
    fn d003_exempt(&self) -> bool {
        matches!(self.name(), "bench" | "stream-score")
    }
}

/// Lint one file's source text. `path` is used verbatim in diagnostics.
pub fn lint_source(path: &str, source: &str, ctx: &FileContext) -> Vec<Finding> {
    lint_tokens(path, &lex(source), ctx)
}

/// [`lint_source`] on an already lexed file, so the workspace pass lexes
/// each file once for the per-file rules and U001.
pub(crate) fn lint_tokens(path: &str, tokens: &[Token], ctx: &FileContext) -> Vec<Finding> {
    let pragmas = pragma::collect(tokens);
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
    check_d002(&code, &mut emit);
    check_d003(&code, ctx, &mut emit);
    check_d004(&code, &mut emit);
    check_p001(&code, ctx, &mut emit);
    check_l001(&code, ctx, &mut emit);

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

fn check_d002(code: &[&Token], emit: &mut impl FnMut(&str, u32, String)) {
    for i in 0..code.len() {
        match ident(code.get(i)) {
            Some("Instant")
                if is_op(code.get(i + 1), "::") && ident(code.get(i + 2)) == Some("now") =>
            {
                emit(
                    "D002",
                    code[i].line,
                    "wall-clock read (`Instant::now`): nondeterministic across runs — \
                     simulation time must come from the sim clock; measurement sites need a pragma"
                        .to_string(),
                );
            }
            Some("SystemTime") => {
                emit(
                    "D002",
                    code[i].line,
                    "wall-clock type `SystemTime`: nondeterministic across runs".to_string(),
                );
            }
            _ => {}
        }
    }
}

fn check_d003(code: &[&Token], ctx: &FileContext, emit: &mut impl FnMut(&str, u32, String)) {
    if ctx.d003_exempt() {
        return;
    }
    for tok in code {
        if let TokenKind::Ident(name) = &tok.kind {
            if matches!(name.as_str(), "thread_rng" | "from_entropy" | "OsRng") {
                emit(
                    "D003",
                    tok.line,
                    format!(
                        "unseeded RNG (`{name}`): draws are irreproducible — derive seeds \
                         from `sss_exec::SeedSequence` instead"
                    ),
                );
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

fn check_p001(code: &[&Token], ctx: &FileContext, emit: &mut impl FnMut(&str, u32, String)) {
    if !ctx.p001_applies() {
        return;
    }
    for i in 0..code.len() {
        if !is_op(code.get(i), ".") {
            continue;
        }
        match ident(code.get(i + 1)) {
            Some("unwrap") if is_op(code.get(i + 2), "(") && is_op(code.get(i + 3), ")") => {
                emit(
                    "P001",
                    code[i + 1].line,
                    "`.unwrap()` on a request-handling path: a panic here silently drops \
                     the connection — handle the error or return a 4xx/5xx body"
                        .to_string(),
                );
            }
            Some("expect") if is_op(code.get(i + 2), "(") => {
                emit(
                    "P001",
                    code[i + 1].line,
                    "`.expect(…)` on a request-handling path: a panic here silently drops \
                     the connection — handle the error or return a 4xx/5xx body"
                        .to_string(),
                );
            }
            _ => {}
        }
    }
}

fn check_l001(code: &[&Token], ctx: &FileContext, emit: &mut impl FnMut(&str, u32, String)) {
    let Some(own) = ctx.crate_name.as_deref() else {
        return;
    };
    let Some(own_rank) = layer_rank(own) else {
        return;
    };
    for tok in code {
        let TokenKind::Ident(name) = &tok.kind else {
            continue;
        };
        let Some(dep) = name.strip_prefix("sss_") else {
            continue;
        };
        if dep == own {
            continue;
        }
        if let Some(dep_rank) = layer_rank(dep) {
            if dep_rank >= own_rank {
                emit(
                    "L001",
                    tok.line,
                    format!(
                        "layering violation: `{own}` (layer {own_rank}) references \
                         `sss_{dep}` (layer {dep_rank}) — dependencies must point strictly \
                         down the stack units→stats→sim→core→{{netsim,iosim}}→exec→loadgen→report→server"
                    ),
                );
            }
        }
    }
}

/// Lint a crate manifest: `[dependencies]` entries on `sss-*` crates must
/// point strictly down the stack, mirroring the source-level L001 check
/// for the edges
/// Cargo sees. Manifest findings cannot be pragma'd — baseline them.
pub fn lint_manifest(path: &str, text: &str, ctx: &FileContext) -> Vec<Finding> {
    let Some(own) = ctx.crate_name.as_deref() else {
        return Vec::new();
    };
    let Some(own_rank) = layer_rank(own) else {
        return Vec::new();
    };
    let mut findings = Vec::new();
    let mut in_dependencies = false;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_dependencies = line == "[dependencies]";
            continue;
        }
        if !in_dependencies {
            continue;
        }
        let Some(rest) = line.strip_prefix("sss-") else {
            continue;
        };
        let dep: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
            .collect();
        if dep == own {
            continue;
        }
        if let Some(dep_rank) = layer_rank(&dep) {
            if dep_rank >= own_rank {
                findings.push(Finding {
                    rule: "L001".to_string(),
                    file: path.to_string(),
                    line: (idx + 1) as u32,
                    message: format!(
                        "layering violation in manifest: `{own}` (layer {own_rank}) depends \
                         on `sss-{dep}` (layer {dep_rank}) — dependencies must point strictly \
                         down the stack"
                    ),
                });
            }
        }
    }
    findings
}
