//! A small hand-rolled Rust lexer.
//!
//! The analyzer only needs a *token-accurate* view of a source file —
//! enough to know that `"Instant::now"` inside a string literal is data,
//! not code, and that a `==` sits next to a float literal. This lexer
//! therefore classifies the token kinds the rules care about and lumps
//! everything else into generic operators. It correctly skips:
//!
//! * line comments and (nested) block comments — surfaced as
//!   [`TokenKind::Comment`] tokens so the pragma layer can read them,
//! * string literals, byte strings, raw strings (`r"…"`, `r#"…"#`, any
//!   hash depth) and raw byte strings,
//! * char and byte-char literals, disambiguated from lifetimes,
//! * numeric literals, classifying floats (decimal point, exponent or
//!   `f32`/`f64` suffix) apart from integers (including `0x`/`0o`/`0b`).
//!
//! Every token carries the 1-based source line it starts on, which is all
//! the diagnostics need for `file:line` anchors.

/// What a token is, as far as the rule engine cares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`HashMap`, `for`, `unwrap`, …).
    Ident(String),
    /// Integer literal (`42`, `0xFF`, `1_000u64`).
    Int,
    /// Float literal (`0.0`, `1e-9`, `2f64`).
    Float,
    /// String literal of any flavour (plain, byte, raw); contents dropped.
    Str,
    /// Char or byte-char literal.
    Char,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
    /// Operator or punctuation (`==`, `::`, `.`, `{`, …).
    Op(&'static str),
    /// Any punctuation the rules never inspect, kept for adjacency.
    OtherOp,
    /// Line or block comment, text preserved for pragma parsing.
    Comment(String),
}

/// One lexed token with its 1-based starting line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// 1-based line the token starts on.
    pub line: u32,
    /// The classified kind.
    pub kind: TokenKind,
}

/// The multi-character operators the rules inspect; matched longest-first
/// so `==` never lexes as two `=`.
const OPS2: &[&str] = &[
    "::", "==", "!=", "<=", ">=", "->", "=>", "&&", "||", "..", "+=", "-=", "*=", "/=", "%=", "^=",
    "&=", "|=", "<<", ">>",
];

/// Single characters surfaced as named operators.
const OPS1: &str = "=!<>.,;:#&|(){}[]?+-*/%^@";

/// Lex `src` into tokens. Never fails: unrecognized bytes become
/// [`TokenKind::OtherOp`], and unterminated literals end at end-of-file —
/// the analyzer degrades gracefully on mid-edit files.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Vec<Token>,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn push(&mut self, line: u32, kind: TokenKind) {
        self.out.push(Token { line, kind });
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(line),
                '/' if self.peek(1) == Some('*') => self.block_comment(line),
                '"' => {
                    self.string();
                    self.push(line, TokenKind::Str);
                }
                '\'' => self.char_or_lifetime(line),
                c if c.is_ascii_digit() => self.number(line),
                c if c == '_' || c.is_alphabetic() => self.ident_or_prefixed_literal(line),
                _ => self.operator(line),
            }
        }
        self.out
    }

    fn line_comment(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.push(line, TokenKind::Comment(text));
    }

    /// Block comment with Rust's *nested* `/* /* */ */` semantics.
    fn block_comment(&mut self, line: u32) {
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                text.push_str("/*");
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                text.push_str("*/");
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.push(line, TokenKind::Comment(text));
    }

    /// Plain (escaped) string body; the opening `"` is at `pos`.
    fn string(&mut self) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump(); // whatever is escaped, including \" and \\
                }
                '"' => break,
                _ => {}
            }
        }
    }

    /// Raw string body `r##"…"##` with `hashes` hash marks; cursor sits on
    /// the opening quote.
    fn raw_string(&mut self, hashes: usize) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            if c == '"' && (0..hashes).all(|i| self.peek(i) == Some('#')) {
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
        }
    }

    /// `'a` (lifetime) vs `'x'` / `'\n'` (char literal).
    fn char_or_lifetime(&mut self, line: u32) {
        self.bump(); // the quote
        match (self.peek(0), self.peek(1)) {
            (Some('\\'), _) => {
                // Escaped char literal: consume escape then to closing quote.
                while let Some(c) = self.bump() {
                    if c == '\\' {
                        self.bump();
                    } else if c == '\'' {
                        break;
                    }
                }
                self.push(line, TokenKind::Char);
            }
            (Some(_), Some('\'')) => {
                self.bump();
                self.bump();
                self.push(line, TokenKind::Char);
            }
            _ => {
                // Lifetime: consume identifier characters.
                while let Some(c) = self.peek(0) {
                    if c == '_' || c.is_alphanumeric() {
                        self.bump();
                    } else {
                        break;
                    }
                }
                self.push(line, TokenKind::Lifetime);
            }
        }
    }

    /// Numeric literal starting at a digit. Classifies float vs int:
    /// a decimal point followed by a digit, an exponent part, or an
    /// `f32`/`f64` suffix makes it a float; `1.max(2)` and tuple indexes
    /// stay integers (the dot is not consumed).
    fn number(&mut self, line: u32) {
        let mut is_float = false;
        if self.peek(0) == Some('0') && matches!(self.peek(1), Some('x' | 'o' | 'b')) {
            self.bump();
            self.bump();
            while let Some(c) = self.peek(0) {
                if c == '_' || c.is_ascii_alphanumeric() {
                    self.bump();
                } else {
                    break;
                }
            }
            self.push(line, TokenKind::Int);
            return;
        }
        let digits = |lexer: &mut Self| {
            while let Some(c) = lexer.peek(0) {
                if c == '_' || c.is_ascii_digit() {
                    lexer.bump();
                } else {
                    break;
                }
            }
        };
        digits(self);
        // Fractional part: only if the dot is followed by a digit or by
        // nothing number-like (Rust allows `1.`, but `1.max(2)` is a
        // method call on an integer — leave the dot alone there).
        if self.peek(0) == Some('.') {
            match self.peek(1) {
                Some(c) if c.is_ascii_digit() => {
                    is_float = true;
                    self.bump();
                    digits(self);
                }
                Some(c) if c == '_' || c.is_alphabetic() || c == '.' => {}
                _ => {
                    // `1.` at end of expression: trailing-dot float.
                    is_float = true;
                    self.bump();
                }
            }
        }
        if matches!(self.peek(0), Some('e' | 'E')) {
            let sign = usize::from(matches!(self.peek(1), Some('+' | '-')));
            if self
                .peek(1 + sign)
                .map(|c| c.is_ascii_digit())
                .unwrap_or(false)
            {
                is_float = true;
                self.bump();
                if sign == 1 {
                    self.bump();
                }
                digits(self);
            }
        }
        // Suffix (`u64`, `f32`, `usize`, …).
        let mut suffix = String::new();
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_ascii_alphanumeric() {
                suffix.push(c);
                self.bump();
            } else {
                break;
            }
        }
        if suffix == "f32" || suffix == "f64" {
            is_float = true;
        }
        self.push(
            line,
            if is_float {
                TokenKind::Float
            } else {
                TokenKind::Int
            },
        );
    }

    /// Identifier — or, when the identifier is a string prefix (`r`, `b`,
    /// `br`) directly followed by a quote or raw-string hashes, the
    /// corresponding literal.
    fn ident_or_prefixed_literal(&mut self, line: u32) {
        let start = self.pos;
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                self.bump();
            } else {
                break;
            }
        }
        let ident: String = self.chars[start..self.pos].iter().collect();
        match ident.as_str() {
            "r" | "br" | "b" | "rb" => {
                // Raw string: optional hashes then a quote.
                let mut hashes = 0usize;
                while self.peek(hashes) == Some('#') {
                    hashes += 1;
                }
                if self.peek(hashes) == Some('"') {
                    for _ in 0..hashes {
                        self.bump();
                    }
                    if hashes == 0 {
                        self.string();
                    } else {
                        self.raw_string(hashes);
                    }
                    self.push(line, TokenKind::Str);
                    return;
                }
                if ident == "b" && self.peek(0) == Some('\'') {
                    self.char_or_lifetime(line);
                    return;
                }
                self.push(line, TokenKind::Ident(ident));
            }
            _ => self.push(line, TokenKind::Ident(ident)),
        }
    }

    fn operator(&mut self, line: u32) {
        if let (Some(a), Some(b)) = (self.peek(0), self.peek(1)) {
            let pair: String = [a, b].iter().collect();
            if let Some(op) = OPS2.iter().find(|o| **o == pair) {
                self.bump();
                self.bump();
                self.push(line, TokenKind::Op(op));
                return;
            }
        }
        let c = self.bump().unwrap_or(' ');
        if let Some(idx) = OPS1.find(c) {
            // Safety of the slice: OPS1 is ASCII, so byte index == char index.
            self.push(line, TokenKind::Op(&OPS1[idx..idx + c.len_utf8()]));
        } else {
            self.push(line, TokenKind::OtherOp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn idents_and_ops() {
        assert_eq!(
            kinds("a == b.c"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Op("=="),
                TokenKind::Ident("b".into()),
                TokenKind::Op("."),
                TokenKind::Ident("c".into()),
            ]
        );
    }

    #[test]
    fn floats_vs_ints() {
        assert_eq!(kinds("1.0"), vec![TokenKind::Float]);
        assert_eq!(kinds("1e-9"), vec![TokenKind::Float]);
        assert_eq!(kinds("2f64"), vec![TokenKind::Float]);
        assert_eq!(kinds("42"), vec![TokenKind::Int]);
        assert_eq!(kinds("0xFF"), vec![TokenKind::Int]);
        // `1.max(2)`: integer, method call — the dot survives as an op.
        assert_eq!(
            kinds("1.max(2)")[..3],
            [
                TokenKind::Int,
                TokenKind::Op("."),
                TokenKind::Ident("max".into())
            ]
        );
        // Tuple indexing after a call chain stays integral.
        assert_eq!(
            kinds("x.0 != 0.0"),
            vec![
                TokenKind::Ident("x".into()),
                TokenKind::Op("."),
                TokenKind::Int,
                TokenKind::Op("!="),
                TokenKind::Float,
            ]
        );
    }

    #[test]
    fn strings_hide_their_contents() {
        assert_eq!(kinds(r#""Instant::now()""#), vec![TokenKind::Str]);
        assert_eq!(kinds(r##"r#"HashMap.iter()"#"##), vec![TokenKind::Str]);
        assert_eq!(kinds(r#"b"thread_rng""#), vec![TokenKind::Str]);
        assert_eq!(
            kinds("\"a \\\" still string == 0.0\""),
            vec![TokenKind::Str]
        );
    }

    #[test]
    fn chars_and_lifetimes() {
        assert_eq!(kinds("'x'"), vec![TokenKind::Char]);
        assert_eq!(kinds(r"'\n'"), vec![TokenKind::Char]);
        assert_eq!(kinds("b'q'"), vec![TokenKind::Char]);
        assert_eq!(
            kinds("&'static str")[..2],
            [TokenKind::Op("&"), TokenKind::Lifetime]
        );
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("/* outer /* inner == 0.0 */ still outer */ code");
        assert_eq!(toks.len(), 2);
        assert!(matches!(toks[0], TokenKind::Comment(_)));
        assert_eq!(toks[1], TokenKind::Ident("code".into()));
    }

    #[test]
    fn line_numbers_track_newlines() {
        let toks = lex("a\n\"multi\nline\"\nb");
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2); // string starts on line 2
        assert_eq!(toks[2].line, 4); // ...and spans to line 3
    }

    #[test]
    fn comments_preserve_text_for_pragmas() {
        let toks = lex("// sss-lint: allow(D004, exact guard)\nx");
        match &toks[0].kind {
            TokenKind::Comment(text) => assert!(text.contains("allow(D004")),
            other => panic!("expected comment, got {other:?}"),
        }
    }
}
