//! A token-level Rust lexer shared by every static-analysis pass.
//!
//! The PR 3 lint was line-oriented: each rule re-derived just enough
//! lexical state (strings, comments) to avoid false positives, and the
//! cross-line corner cases — a lifetime `'a` vs a char literal `'}'`,
//! raw-string hashes `r##"..."##`, *nested* block comments — were handled
//! slightly differently in each place. This module lexes a whole file
//! once into a [`Token`] stream with line numbers, which the item
//! parser, the call graph and the panic-reachability pass all consume.
//!
//! The lexer is deliberately smaller than rustc's: it does not
//! distinguish keywords from identifiers (passes match on the ident
//! text), merges only the multi-char operators the passes care about
//! (`::`, `->`, `=>`, `..`), and keeps string-literal *content*, so a
//! pass can match on a literal.
//! It never errors: unterminated literals lex to end-of-file, because a
//! lint must degrade gracefully on code mid-edit.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// 1-based line the token starts on.
    pub line: usize,
}

/// Token classes relevant to the passes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `unwrap`, `KernelKind`, …).
    Ident(String),
    /// Lifetime (`'a`, `'static`) — text excludes the quote.
    Lifetime(String),
    /// String literal (plain, raw, byte, or byte-raw); the unescaped-ish
    /// content is kept verbatim as written between the quotes.
    Str(String),
    /// Char or byte-char literal (`'x'`, `b'\n'`); content not kept.
    Char,
    /// Numeric literal, text kept (`0x1f`, `1e-9`, `16usize`).
    Num(String),
    /// Punctuation. Single chars, plus the merged pairs `::`, `->`,
    /// `=>`, `..` (and `..=` lexes as `..` then `=`).
    Punct(&'static str),
}

impl TokenKind {
    /// The identifier text, if this is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match self {
            TokenKind::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Whether this token is the exact punctuation `p`.
    pub fn is_punct(&self, p: &str) -> bool {
        matches!(self, TokenKind::Punct(q) if *q == p)
    }

    /// Whether this token is the exact identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        matches!(self, TokenKind::Ident(s) if s == name)
    }
}

/// Punctuation characters emitted as single-char tokens.
const SINGLE: &str = "{}()[]<>,;#!?&|+-*/%^=@.:$'\"\\~";

/// Lexes `text` into tokens. Whitespace and non-doc comments vanish;
/// everything else becomes a [`Token`] carrying its starting line.
pub fn lex(text: &str) -> Vec<Token> {
    Lexer {
        bytes: text.as_bytes(),
        text,
        i: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer<'t> {
    bytes: &'t [u8],
    text: &'t str,
    i: usize,
    line: usize,
    out: Vec<Token>,
}

impl<'t> Lexer<'t> {
    fn run(mut self) -> Vec<Token> {
        while self.i < self.bytes.len() {
            let b = self.bytes[self.i];
            match b {
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                b if b.is_ascii_whitespace() => self.i += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'r' | b'b' if self.raw_string() => {}
                b'b' if self.peek(1) == Some(b'\'') => {
                    // Byte-char literal b'x'.
                    self.i += 1;
                    self.char_literal();
                }
                b'b' if self.peek(1) == Some(b'"') => {
                    self.i += 1;
                    self.string_literal();
                }
                b'"' => self.string_literal(),
                b'\'' => self.quote(),
                b if b.is_ascii_digit() => self.number(),
                b if b == b'_' || b.is_ascii_alphabetic() || b >= 0x80 => self.ident(),
                _ => self.punct(),
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.i + ahead).copied()
    }

    fn push(&mut self, kind: TokenKind, line: usize) {
        self.out.push(Token { kind, line });
    }

    /// Advances past `n` bytes, counting newlines.
    fn advance(&mut self, n: usize) {
        for _ in 0..n {
            if self.bytes.get(self.i) == Some(&b'\n') {
                self.line += 1;
            }
            self.i += 1;
        }
    }

    fn line_comment(&mut self) {
        while self.i < self.bytes.len() && self.bytes[self.i] != b'\n' {
            self.i += 1;
        }
    }

    /// Block comments nest, per the Rust grammar — the seed lexer got
    /// `/* /* */ */` wrong and resumed code one `*/` early.
    fn block_comment(&mut self) {
        self.advance(2);
        let mut depth = 1usize;
        while self.i < self.bytes.len() && depth > 0 {
            if self.bytes[self.i] == b'/' && self.peek(1) == Some(b'*') {
                depth += 1;
                self.advance(2);
            } else if self.bytes[self.i] == b'*' && self.peek(1) == Some(b'/') {
                depth -= 1;
                self.advance(2);
            } else {
                self.advance(1);
            }
        }
    }

    /// Tries to lex a raw (or byte-raw) string at the cursor; returns
    /// `false` (consuming nothing) if the cursor isn't at one.
    fn raw_string(&mut self) -> bool {
        let mut j = self.i;
        if self.bytes[j] == b'b' {
            j += 1;
        }
        if self.bytes.get(j) != Some(&b'r') {
            return false;
        }
        j += 1;
        let mut hashes = 0usize;
        while self.bytes.get(j) == Some(&b'#') {
            hashes += 1;
            j += 1;
        }
        if self.bytes.get(j) != Some(&b'"') {
            return false;
        }
        let line = self.line;
        self.advance(j + 1 - self.i); // past the opening quote
        let start = self.i;
        loop {
            match self.bytes.get(self.i) {
                None => break, // unterminated: content runs to EOF
                Some(b'"') => {
                    let after = &self.bytes[self.i + 1..];
                    if after.len() >= hashes && after[..hashes].iter().all(|&b| b == b'#') {
                        let content = self.text[start..self.i].to_string();
                        self.advance(1 + hashes);
                        self.push(TokenKind::Str(content), line);
                        return true;
                    }
                    self.advance(1);
                }
                _ => self.advance(1),
            }
        }
        let content = self.text[start..].to_string();
        self.push(TokenKind::Str(content), line);
        true
    }

    fn string_literal(&mut self) {
        let line = self.line;
        self.advance(1); // opening quote
        let start = self.i;
        while self.i < self.bytes.len() {
            match self.bytes[self.i] {
                b'\\' => self.advance(2.min(self.bytes.len() - self.i)),
                b'"' => {
                    let content = self.text[start..self.i].to_string();
                    self.advance(1);
                    self.push(TokenKind::Str(content), line);
                    return;
                }
                _ => self.advance(1),
            }
        }
        let content = self.text[start..].to_string();
        self.push(TokenKind::Str(content), line);
    }

    /// A `'` is a lifetime, a char literal, or (after an escape or an
    /// exotic char) still a char literal. The seed scanner disambiguated
    /// per-line and mistook `'}'` for a lifetime when the closing quote
    /// sat on the next line of a multi-byte char; lexing bytes directly
    /// makes the distinction exact:
    ///
    /// * `'` ident-start, then ident chars, **no** closing `'` → lifetime;
    /// * anything else → char literal up to the closing `'`.
    fn quote(&mut self) {
        let line = self.line;
        if let Some(b) = self.peek(1) {
            if (b == b'_' || b.is_ascii_alphabetic()) && self.peek(2) != Some(b'\'') {
                // Lifetime: consume ident chars after the quote.
                self.advance(1);
                let start = self.i;
                while self
                    .peek(0)
                    .is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric())
                {
                    self.advance(1);
                }
                let name = self.text[start..self.i].to_string();
                self.push(TokenKind::Lifetime(name), line);
                return;
            }
        }
        self.char_literal();
    }

    /// Char literal starting at the cursor's `'`.
    fn char_literal(&mut self) {
        let line = self.line;
        self.advance(1); // opening quote
        if self.peek(0) == Some(b'\\') {
            self.advance(2.min(self.bytes.len() - self.i));
            // Multi-char escapes (\u{..}, \x7f): scan to the close quote.
            while self.i < self.bytes.len() && self.bytes[self.i] != b'\'' {
                self.advance(1);
            }
            self.advance(1);
        } else {
            // One (possibly multi-byte) char, then the close quote.
            while self.i < self.bytes.len() && self.bytes[self.i] != b'\'' {
                self.advance(1);
            }
            self.advance(1);
        }
        self.push(TokenKind::Char, line);
    }

    fn number(&mut self) {
        let line = self.line;
        let start = self.i;
        while let Some(b) = self.peek(0) {
            if b == b'_' || b.is_ascii_alphanumeric() {
                self.advance(1);
            } else if b == b'.'
                && self.peek(1).is_some_and(|c| c.is_ascii_digit())
                && !self.text[start..self.i].contains('.')
            {
                // `1.5` continues the number; `1..n` and `1.method()` don't.
                self.advance(1);
            } else if (b == b'+' || b == b'-')
                && matches!(self.bytes.get(self.i - 1), Some(b'e') | Some(b'E'))
                && self.peek(1).is_some_and(|c| c.is_ascii_digit())
            {
                // Exponent sign: 1e-9.
                self.advance(1);
            } else {
                break;
            }
        }
        let text = self.text[start..self.i].to_string();
        self.push(TokenKind::Num(text), line);
    }

    fn ident(&mut self) {
        let line = self.line;
        let start = self.i;
        while self
            .peek(0)
            .is_some_and(|b| b == b'_' || b.is_ascii_alphanumeric() || b >= 0x80)
        {
            self.advance(1);
        }
        let text = self.text[start..self.i].to_string();
        self.push(TokenKind::Ident(text), line);
    }

    fn punct(&mut self) {
        let line = self.line;
        let b = self.bytes[self.i];
        let merged: Option<&'static str> = match (b, self.peek(1)) {
            (b':', Some(b':')) => Some("::"),
            (b'-', Some(b'>')) => Some("->"),
            (b'=', Some(b'>')) => Some("=>"),
            (b'.', Some(b'.')) => Some(".."),
            _ => None,
        };
        if let Some(p) = merged {
            self.advance(2);
            self.push(TokenKind::Punct(p), line);
            return;
        }
        self.advance(1);
        let s: &'static str = match b {
            b'{' => "{",
            b'}' => "}",
            b'(' => "(",
            b')' => ")",
            b'[' => "[",
            b']' => "]",
            b'<' => "<",
            b'>' => ">",
            b',' => ",",
            b';' => ";",
            b'#' => "#",
            b'!' => "!",
            b'?' => "?",
            b'&' => "&",
            b'|' => "|",
            b'+' => "+",
            b'-' => "-",
            b'*' => "*",
            b'/' => "/",
            b'%' => "%",
            b'^' => "^",
            b'=' => "=",
            b'@' => "@",
            b'.' => ".",
            b':' => ":",
            b'$' => "$",
            b'~' => "~",
            _ => "?",
        };
        debug_assert!(SINGLE.contains(b as char) || s == "?");
        self.push(TokenKind::Punct(s), line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).into_iter().map(|t| t.kind).collect()
    }

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter_map(|t| match t.kind {
                TokenKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn basic_stream() {
        use TokenKind::*;
        assert_eq!(
            kinds("fn f(x: u32) -> u32 { x.unwrap() }"),
            vec![
                Ident("fn".into()),
                Ident("f".into()),
                Punct("("),
                Ident("x".into()),
                Punct(":"),
                Ident("u32".into()),
                Punct(")"),
                Punct("->"),
                Ident("u32".into()),
                Punct("{"),
                Ident("x".into()),
                Punct("."),
                Ident("unwrap".into()),
                Punct("("),
                Punct(")"),
                Punct("}"),
            ]
        );
    }

    #[test]
    fn lifetime_vs_char_literal() {
        // `'a` (lifetime) vs `'a'` (char) vs `'}'` (punct-char literal):
        // the seed lexer's per-line heuristic confused the last two.
        use TokenKind::*;
        assert_eq!(
            kinds("<'a> 'a' '}' '\\'' b'x'"),
            vec![
                Punct("<"),
                Lifetime("a".into()),
                Punct(">"),
                Char,
                Char,
                Char,
                Char
            ]
        );
        // A lifetime in a where-clause followed by code with quotes.
        assert_eq!(
            kinds("impl<'t> X<'t> { }"),
            vec![
                Ident("impl".into()),
                Punct("<"),
                Lifetime("t".into()),
                Punct(">"),
                Ident("X".into()),
                Punct("<"),
                Lifetime("t".into()),
                Punct(">"),
                Punct("{"),
                Punct("}"),
            ]
        );
    }

    #[test]
    fn strings_raw_strings_and_hashes() {
        let toks = lex(r####"let s = r#"inner "quoted" {}"# ; let t = "a\"b";"####);
        let strs: Vec<String> = toks
            .into_iter()
            .filter_map(|t| match t.kind {
                TokenKind::Str(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(
            strs,
            vec!["inner \"quoted\" {}".to_string(), "a\\\"b".into()]
        );
        // Raw string whose content contains a `"#` that must NOT close
        // an `r##`-delimited literal.
        let toks = lex("r##\"has \"# inside\"## trailing");
        assert_eq!(toks[0].kind, TokenKind::Str("has \"# inside".into()));
        assert!(toks[1].kind.is_ident("trailing"));
        // Byte strings and byte-raw strings.
        let toks = lex(r#"b"bytes" br"raw" x"#);
        assert_eq!(toks[0].kind, TokenKind::Str("bytes".into()));
        assert_eq!(toks[1].kind, TokenKind::Str("raw".into()));
        assert!(toks[2].kind.is_ident("x"));
    }

    #[test]
    fn multiline_raw_string_keeps_line_numbers() {
        let src = "a\nlet s = r#\"line2\nline3 \"}}{{\"\nline4\"#;\nb";
        let toks = lex(src);
        let b = toks.iter().find(|t| t.kind.is_ident("b")).unwrap();
        assert_eq!(b.line, 5);
        // No brace tokens leaked out of the raw string.
        assert!(!toks.iter().any(|t| t.kind.is_punct("{")));
    }

    #[test]
    fn nested_block_comments() {
        // The unwrap is inside the outer comment even after the inner
        // `*/` — nesting must be honored.
        let src = "/* outer /* inner */ still.unwrap() */ real";
        assert_eq!(idents(src), vec!["real"]);
    }

    #[test]
    fn comments_of_every_kind_vanish() {
        let src = "/// docs\n// plain\n//! inner doc\n//// divider\n/** block */ fn f() {}";
        let toks = lex(src);
        assert!(toks[0].kind.is_ident("fn"));
        assert_eq!(toks[0].line, 5);
    }

    #[test]
    fn numbers_do_not_eat_ranges_or_methods() {
        use TokenKind::*;
        assert_eq!(
            kinds("0..n 1.5 0x1f 1e-9 2usize"),
            vec![
                Num("0".into()),
                Punct(".."),
                Ident("n".into()),
                Num("1.5".into()),
                Num("0x1f".into()),
                Num("1e-9".into()),
                Num("2usize".into()),
            ]
        );
    }

    #[test]
    fn merged_punct_and_macro_bang() {
        use TokenKind::*;
        assert_eq!(
            kinds("a::b => c -> d..e panic!(x)"),
            vec![
                Ident("a".into()),
                Punct("::"),
                Ident("b".into()),
                Punct("=>"),
                Ident("c".into()),
                Punct("->"),
                Ident("d".into()),
                Punct(".."),
                Ident("e".into()),
                Ident("panic".into()),
                Punct("!"),
                Punct("("),
                Ident("x".into()),
                Punct(")"),
            ]
        );
    }

    #[test]
    fn macro_bodies_lex_through() {
        // Tokens inside macro invocations are ordinary tokens.
        let src = "assert_eq!(v[0], r#\"x\"#); vec![1, 2]";
        let ids = idents(src);
        assert_eq!(ids, vec!["assert_eq", "v", "vec"]);
    }

    #[test]
    fn unterminated_literals_do_not_panic() {
        assert!(!lex("let s = \"never closed").is_empty());
        assert!(!lex("let s = r#\"never closed").is_empty());
        assert!(!lex("let c = '").is_empty());
        // An unterminated comment swallows the rest of the input — no
        // tokens is the correct (non-panicking) outcome.
        assert!(lex("/* never closed").is_empty());
        assert!(!lex("x /* never closed").is_empty());
    }
}
