//! U001: `pub` items that nothing names.
//!
//! rustc's `dead_code` lint presumes that a `pub` item is API and never
//! reports one. The library crates here serve each other, the root
//! crate's binary, tests and examples, and perfbench, so a `pub` item none
//! of those names is dead code that `pub` hides. U001 is the one
//! cross-file rule, so it runs in `--workspace` mode only.
//!
//! It checks every bare-`pub` `fn`, `struct`, `enum`, `trait`, `const`,
//! `static` or `type` declared outside test code in a library source file
//! (under `crates/<name>/src/` or `src/`, minus a binary's `main.rs` and
//! `bin/`). The item is used if its name occurs as an identifier token
//! anywhere except:
//!
//! * its own declaration, body included;
//! * a `pub use` re-export;
//! * the header or body of its own `impl` blocks: for a type or trait,
//!   the blocks that implement it or implement something for it;
//! * its own crate's `#[cfg(test)]`/`#[test]` code.
//!
//! Every other walked file is a user, and so is every file
//! [`crate::walk::user_files`] lists: the integration tests and perfbench.
//! Another crate's test code counts, because only `pub` reaches it.
//! Comments and strings are not code, so a name mentioned only there is
//! unused. An intentional public API takes a
//! `// sss-lint: allow(U001, reason)` pragma on its declaration line; a
//! U001 pragma on an item that is used is stale (`X002`).
//!
//! Two blind spots follow from matching names, not reachability:
//!
//! * a dead item that shares its name with a used one goes unreported;
//! * dead items that name each other (two dead functions that call each
//!   other, two dead structs whose fields hold each other) are each
//!   other's users, so none of them is reported, however often the lint
//!   is rerun after deletions.
//!
//! A `pub trait` whose methods are called only where it is already in
//! scope is never named outside its own `impl` blocks, so it is flagged
//! although deleting it would not compile; narrowing it to `pub(crate)`
//! hands it back to rustc's `dead_code`.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Token, TokenKind};
use crate::pragma::{self, Pragmas};
use crate::rules::{ident, is_op, test_regions};
use crate::Finding;

/// Item keywords whose `impl` blocks are their own: a type or trait named
/// in its impls is not thereby used.
const TYPE_ITEMS: &[&str] = &["struct", "enum", "trait", "type"];

/// One file as U001 reads it.
struct File<'t> {
    rel: &'t str,
    /// The crate whose source this is (`crates/<name>/src/…`, or the root
    /// crate's `src/…`); `None` for a file that only uses.
    owner: Option<&'t str>,
    code: Vec<&'t Token>,
    pragmas: Pragmas,
    tests: Vec<(u32, u32)>,
    /// Code-token spans of `pub use` re-exports.
    reexports: Vec<(usize, usize)>,
    /// Code-token spans of `impl` blocks, with the type and trait each
    /// implements.
    impls: Vec<((usize, usize), Vec<&'t str>)>,
}

/// One checked `pub` item.
struct Decl<'t> {
    file: usize,
    keyword: &'t str,
    name: &'t str,
    line: u32,
    /// Code-token span from `pub` to the item's closing `}` or `;`.
    span: (usize, usize),
}

/// Run U001 over lexed files `(workspace-relative path, tokens)`.
pub(crate) fn check(sources: &[(String, Vec<Token>)]) -> Vec<Finding> {
    let mut files: Vec<File> = sources
        .iter()
        .map(|(rel, tokens)| File::new(rel, tokens))
        .collect();
    let mut decls = Vec::new();
    for (idx, file) in files.iter().enumerate() {
        if file.is_library() {
            file.declarations(idx, &mut decls);
        }
    }

    let names: BTreeSet<&str> = decls.iter().map(|d| d.name).collect();
    let mut occurrences: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    for (f, file) in files.iter().enumerate() {
        for (t, tok) in file.code.iter().enumerate() {
            if let TokenKind::Ident(name) = &tok.kind {
                if let Some(&name) = names.get(name.as_str()) {
                    occurrences.entry(name).or_default().push((f, t));
                }
            }
        }
    }

    let mut findings = Vec::new();
    for decl in &decls {
        let used = occurrences[decl.name]
            .iter()
            .any(|&(f, t)| is_use(decl, &files, f, t));
        let file = &mut files[decl.file];
        if !used && !file.pragmas.allows("U001", decl.line) {
            findings.push(Finding {
                rule: "U001".to_string(),
                file: file.rel.to_string(),
                line: decl.line,
                message: format!(
                    "`pub {} {}` is named nowhere but its declaration, re-exports, own impls \
                     and own crate's tests: delete it, make it pub(crate), or pragma the \
                     public API with the consumer outside the workspace",
                    decl.keyword, decl.name
                ),
            });
        }
    }
    for file in &files {
        findings.extend(file.pragmas.stale(file.rel, |rule| rule == "U001"));
    }
    findings
}

/// Is the occurrence of `decl`'s name at code token `t` of file `f` a use?
fn is_use(decl: &Decl, files: &[File], f: usize, t: usize) -> bool {
    let file = &files[f];
    let within = |&(lo, hi): &(usize, usize)| lo <= t && t <= hi;
    let own_declaration = f == decl.file && within(&decl.span);
    let reexport = file.reexports.iter().any(within);
    let own_impl = TYPE_ITEMS.contains(&decl.keyword)
        && file
            .impls
            .iter()
            .any(|(span, owners)| within(span) && owners.contains(&decl.name));
    let own_tests = file.owner.is_some()
        && file.owner == files[decl.file].owner
        && file.in_test(file.code[t].line);
    !(own_declaration || reexport || own_impl || own_tests)
}

impl<'t> File<'t> {
    fn new(rel: &'t str, tokens: &'t [Token]) -> Self {
        let code: Vec<&Token> = tokens
            .iter()
            .filter(|t| !matches!(t.kind, TokenKind::Comment(_)))
            .collect();
        let tests = test_regions(&code);
        let mut file = File {
            rel,
            owner: owner(rel),
            pragmas: pragma::collect(tokens),
            tests,
            reexports: Vec::new(),
            impls: Vec::new(),
            code,
        };
        for i in 0..file.code.len() {
            match ident(file.code.get(i)) {
                Some("pub") if ident(file.code.get(i + 1)) == Some("use") => {
                    file.reexports.push((i, item_end(&file.code, i)));
                }
                Some("impl") if item_position(&file.code, i) => {
                    let (owners, end) = impl_block(&file.code, i);
                    file.impls.push(((i, end), owners));
                }
                _ => {}
            }
        }
        file
    }

    /// Library source: a crate's `src/`, minus its binaries.
    fn is_library(&self) -> bool {
        self.owner.is_some() && !self.rel.ends_with("src/main.rs") && !self.rel.contains("src/bin/")
    }

    fn in_test(&self, line: u32) -> bool {
        self.tests.iter().any(|&(lo, hi)| lo <= line && line <= hi)
    }

    /// Push every checked `pub` item of this file onto `out`.
    fn declarations(&self, file: usize, out: &mut Vec<Decl<'t>>) {
        let code = &self.code;
        for i in 0..code.len() {
            if ident(code.get(i)) != Some("pub") || self.in_test(code[i].line) {
                continue;
            }
            // Skip the qualifiers of `pub const fn`, `pub unsafe fn`,
            // `pub extern "C" fn`; `pub(crate)` and friends never match
            // an item keyword, and are rustc's to check.
            let mut k = i + 1;
            while matches!(ident(code.get(k)), Some("unsafe" | "async" | "extern"))
                || matches!(code.get(k).map(|t| &t.kind), Some(TokenKind::Str))
                || (ident(code.get(k)) == Some("const") && ident(code.get(k + 1)) == Some("fn"))
            {
                k += 1;
            }
            let Some(keyword @ ("fn" | "struct" | "enum" | "trait" | "const" | "static" | "type")) =
                ident(code.get(k))
            else {
                continue;
            };
            if keyword == "static" && ident(code.get(k + 1)) == Some("mut") {
                k += 1;
            }
            let Some(name) = ident(code.get(k + 1)).filter(|&name| name != "_") else {
                continue;
            };
            out.push(Decl {
                file,
                keyword,
                name,
                line: code[k + 1].line,
                span: (i, item_end(code, k + 1)),
            });
        }
    }
}

/// The crate whose source `rel` is: `crates/<name>/src/…` or the root
/// crate's `src/…`.
fn owner(rel: &str) -> Option<&str> {
    match rel.strip_prefix("crates/") {
        Some(rest) => {
            let (name, path) = rest.split_once('/')?;
            path.starts_with("src/").then_some(name)
        }
        None => rel.starts_with("src/").then_some("stream-score"),
    }
}

/// Index of the token that ends the item starting at `start`: a `;` at
/// nesting depth 0, or the `}` that closes its first top-level brace.
fn item_end(code: &[&Token], start: usize) -> usize {
    let mut depth = 0i32;
    for (j, tok) in code.iter().enumerate().skip(start) {
        match &tok.kind {
            TokenKind::Op("(" | "[" | "{") => depth += 1,
            TokenKind::Op(")" | "]") => depth -= 1,
            TokenKind::Op("}") => {
                depth -= 1;
                if depth <= 0 {
                    return j;
                }
            }
            TokenKind::Op(";") if depth == 0 => return j,
            _ => {}
        }
    }
    code.len().saturating_sub(1)
}

/// Does the `impl` at `i` open an impl block, rather than an
/// `impl Trait` type in argument or return position?
fn item_position(code: &[&Token], i: usize) -> bool {
    i == 0
        || ["{", "}", ";", "]"]
            .iter()
            .any(|op| is_op(code.get(i - 1), op))
        || ident(code.get(i - 1)) == Some("unsafe")
}

/// The names an impl block at `i` implements (the trait, if any, and the
/// type: the last path segment outside generics), and its closing token.
fn impl_block<'t>(code: &[&'t Token], i: usize) -> (Vec<&'t str>, usize) {
    let mut owners = Vec::new();
    let mut last = None;
    let mut angle = 0i32;
    let mut j = i + 1;
    while j < code.len() && !is_op(code.get(j), "{") {
        match &code[j].kind {
            TokenKind::Op("<") => angle += 1,
            TokenKind::Op(">") => angle -= 1,
            TokenKind::Op(">>") => angle -= 2,
            TokenKind::Ident(word) if angle == 0 && word == "where" => break,
            TokenKind::Ident(word) if angle == 0 && word == "for" => owners.extend(last.take()),
            TokenKind::Ident(word) if angle == 0 => last = Some(word.as_str()),
            _ => {}
        }
        j += 1;
    }
    owners.extend(last);
    (owners, item_end(code, i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    /// The names U001 flags in a one-file library crate.
    fn flagged(src: &str) -> Vec<String> {
        check(&[("crates/demo/src/lib.rs".to_string(), lex(src))])
            .into_iter()
            .map(|f| f.message.split('`').nth(1).unwrap_or_default().to_string())
            .collect()
    }

    #[test]
    fn a_generic_argument_of_the_trait_is_a_use_not_an_owner() {
        let src = "pub struct Foo;\npub struct Bar;\nimpl From<Foo> for Bar {\n    fn from(_: Foo) -> Bar { Bar }\n}\n";
        assert_eq!(flagged(src), ["pub struct Bar"]);
    }

    /// Calling a trait's methods never names the trait, so a `pub trait`
    /// used only that way is flagged; `pub(crate)` clears it.
    #[test]
    fn a_trait_called_only_through_its_methods_is_flagged_until_pub_crate() {
        let src = "pub trait Area {\n    fn area(&self) -> f64;\n}\npub struct Square(pub f64);\nimpl Area for Square {\n    fn area(&self) -> f64 { self.0 * self.0 }\n}\nfn main() { Square(2.0).area(); }\n";
        let findings = check(&[("crates/demo/src/lib.rs".to_string(), lex(src))]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 1);
        assert!(findings[0].message.starts_with("`pub trait Area`"));
        assert!(findings[0].message.contains("make it pub(crate)"));
        assert!(flagged(&src.replace("pub trait", "pub(crate) trait")).is_empty());
    }

    #[test]
    fn impl_trait_in_return_position_is_a_use() {
        let src = "pub trait Shape {}\nstruct Circle;\nimpl Shape for Circle {}\nfn any() -> impl Shape { Circle }\nfn main() { any(); }\n";
        assert!(flagged(src).is_empty(), "{:?}", flagged(src));
    }
}
