//! The rule pass over the shared token streams, item lists, and call graph.
//!
//! [`Workspace`] is the analysis input: every file lexed once
//! ([`crate::lexer`]), items parsed once ([`crate::items`]), the call
//! graph built once ([`crate::callgraph`]), waiver comments collected
//! once. The one pass, [`panic_reach`], follows calls across functions,
//! which rustc and clippy cannot: transitive can-panic analysis from
//! declared boundary roots, with call-chain witnesses. Its
//! `run(&Workspace) -> Vec<Finding>` is what the driver in
//! [`crate::lint`] sorts and reports.

pub mod panic_reach;

use crate::callgraph::CallGraph;
use crate::items::{parse_items, FnItem};
use crate::lexer::{lex, Token, TokenKind};
use std::collections::BTreeMap;

/// One analyzed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Token stream.
    pub tokens: Vec<Token>,
    /// Parsed `fn` items.
    pub items: Vec<FnItem>,
    /// Waivers: 1-based line → rule names from `lint: allow(...)`.
    pub waivers: BTreeMap<usize, Vec<String>>,
    /// Raw source lines (for excerpts).
    pub lines: Vec<String>,
}

/// The analyzed workspace: all files plus the cross-file call graph.
#[derive(Debug)]
pub struct Workspace {
    /// Analyzed files, in walk order.
    pub files: Vec<SourceFile>,
    /// The intra-workspace call graph (fn ids index [`CallGraph::fns`]).
    pub graph: CallGraph,
    /// path → index into `files`.
    by_path: BTreeMap<String, usize>,
}

impl Workspace {
    /// Builds the workspace model from `(path, source)` pairs. Paths
    /// should be workspace-relative with `/` separators — the passes
    /// scope rules by path substring.
    pub fn from_sources(sources: &[(String, String)]) -> Workspace {
        // per-file (line → waived rules, raw lines)
        type FileMeta = (BTreeMap<usize, Vec<String>>, Vec<String>);
        let mut tuples: Vec<(String, Vec<Token>, Vec<FnItem>)> = Vec::new();
        let mut metas: Vec<FileMeta> = Vec::new();
        for (path, text) in sources {
            let tokens = lex(text);
            let items = parse_items(&tokens);
            let mut waivers = BTreeMap::new();
            let mut lines = Vec::new();
            for (i, raw) in text.lines().enumerate() {
                let rules = waiver_rules(raw);
                if !rules.is_empty() {
                    waivers.insert(i + 1, rules);
                }
                lines.push(raw.to_string());
            }
            tuples.push((path.clone(), tokens, items));
            metas.push((waivers, lines));
        }
        let graph = CallGraph::build(&tuples);
        let mut by_path = BTreeMap::new();
        let files: Vec<SourceFile> = tuples
            .into_iter()
            .zip(metas)
            .enumerate()
            .map(|(i, ((path, tokens, items), (waivers, lines)))| {
                by_path.insert(path.clone(), i);
                SourceFile {
                    path,
                    tokens,
                    items,
                    waivers,
                    lines,
                }
            })
            .collect();
        Workspace {
            files,
            graph,
            by_path,
        }
    }

    /// Index of the file at `path`, if analyzed.
    pub fn file_index(&self, path: &str) -> Option<usize> {
        self.by_path.get(path).copied()
    }

    /// The trimmed source line for an excerpt (empty when out of range).
    pub fn excerpt(&self, file: usize, line: usize) -> String {
        self.files[file]
            .lines
            .get(line.wrapping_sub(1))
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    /// Whether a waiver for `rule` covers `line` of `file`.
    pub fn is_waived(&self, file: usize, line: usize, rule: &str) -> bool {
        let hit = |l: usize| {
            self.files[file]
                .waivers
                .get(&l)
                .is_some_and(|rules| rules.iter().any(|r| r == rule))
        };
        // A waiver covers its own line or, written as a standalone
        // comment, the line directly below it.
        hit(line) || (line > 1 && hit(line - 1))
    }
}

/// Whether a path belongs to the compatibility shims (exempt from all
/// rules — they exist to encapsulate the exceptions).
pub fn is_shim(path: &str) -> bool {
    path.contains("shims/") || path.ends_with("sync.rs")
}

/// Whether a path is test-only (integration `tests/` trees, benches).
pub fn is_test_path(path: &str) -> bool {
    path.contains("/tests/") || path.starts_with("tests/") || path.contains("/benches/")
}

/// Extracts waived rule names from a `lint: allow(a, b)` marker, if any.
pub fn waiver_rules(raw_line: &str) -> Vec<String> {
    let Some(pos) = raw_line.find("lint: allow(") else {
        return Vec::new();
    };
    let rest = &raw_line[pos + "lint: allow(".len()..];
    let Some(close) = rest.find(')') else {
        return Vec::new();
    };
    rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect()
}

/// A syntactic site that can panic.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// 1-based source line.
    pub line: usize,
    /// What it is (`panic!`, `.unwrap()`, `index []`, …).
    pub desc: String,
    /// True for sites only the *strict* tier treats as panics: asserts
    /// (declared preconditions) and `[i]` indexing. The relaxed tier —
    /// kernel and serve roots — skips these; the strict ingest tier
    /// (untrusted input) counts them.
    pub strict_only: bool,
}

/// Macros that always abort the caller's contract.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
/// Assertion macros: strict-tier panic sources only.
const ASSERT_MACROS: &[&str] = &[
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
];

/// Scans a fn body for direct panic sites. Returns an empty list for
/// bodiless items and for fns containing `catch_unwind` (they are
/// treated as panic boundaries: whatever happens inside is caught).
pub fn panic_sites(tokens: &[Token], item: &FnItem) -> Vec<PanicSite> {
    let (open, close) = item.body;
    if open == usize::MAX || close >= tokens.len() {
        return Vec::new();
    }
    let body = &tokens[open..=close];
    if body.iter().any(|t| t.kind.is_ident("catch_unwind")) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, tok) in body.iter().enumerate() {
        match &tok.kind {
            TokenKind::Ident(name) => {
                let next_bang = body.get(i + 1).is_some_and(|t| t.kind.is_punct("!"));
                if next_bang && PANIC_MACROS.contains(&name.as_str()) {
                    out.push(PanicSite {
                        line: tok.line,
                        desc: format!("{name}!"),
                        strict_only: false,
                    });
                } else if next_bang && ASSERT_MACROS.contains(&name.as_str()) {
                    out.push(PanicSite {
                        line: tok.line,
                        desc: format!("{name}!"),
                        strict_only: true,
                    });
                } else if (name == "unwrap" || name == "expect")
                    && i > 0
                    && body[i - 1].kind.is_punct(".")
                    && body.get(i + 1).is_some_and(|t| t.kind.is_punct("("))
                {
                    out.push(PanicSite {
                        line: tok.line,
                        desc: format!(".{name}()"),
                        strict_only: false,
                    });
                }
            }
            TokenKind::Punct("[") if i > 0 => {
                // Expression-position `[` (indexing/slicing): previous
                // token ends an expression. `#[attr]`, array literals
                // `[0; n]`, and patterns don't.
                let expr_before = matches!(
                    &body[i - 1].kind,
                    TokenKind::Ident(_) | TokenKind::Punct(")") | TokenKind::Punct("]")
                ) && !body[i - 1].kind.ident().is_some_and(|w| {
                    matches!(
                        w,
                        "in" | "return" | "else" | "match" | "mut" | "ref" | "let"
                    )
                });
                if expr_before {
                    out.push(PanicSite {
                        line: tok.line,
                        desc: "index []".to_string(),
                        strict_only: true,
                    });
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::test_util::ws;

    #[test]
    fn panic_sites_by_tier() {
        let w = ws(&[(
            "a.rs",
            "fn f(v: &[u32], o: Option<u32>) -> u32 {
                assert!(v.len() > 1);
                let a = v[0];
                let b = o.unwrap();
                if a > b { panic!(\"no\"); }
                o.unwrap_or(0) + a
            }",
        )]);
        let f = &w.files[0];
        let sites = panic_sites(&f.tokens, &f.items[0]);
        let descs: Vec<(&str, bool)> = sites
            .iter()
            .map(|s| (s.desc.as_str(), s.strict_only))
            .collect();
        assert_eq!(
            descs,
            vec![
                ("assert!", true),
                ("index []", true),
                (".unwrap()", false),
                ("panic!", false),
            ]
        );
    }

    #[test]
    fn catch_unwind_is_a_boundary() {
        let w = ws(&[(
            "a.rs",
            "fn f() { let r = std::panic::catch_unwind(|| x.unwrap()); drop(r); }",
        )]);
        let f = &w.files[0];
        assert!(panic_sites(&f.tokens, &f.items[0]).is_empty());
    }

    #[test]
    fn attribute_and_array_literal_brackets_are_not_indexing() {
        let w = ws(&[(
            "a.rs",
            "fn f() { #[cfg(unix)] let v = [0u8; 4]; for _x in [1, 2] {} let [_a, ..] = v; }",
        )]);
        let f = &w.files[0];
        assert!(panic_sites(&f.tokens, &f.items[0]).is_empty());
    }

    #[test]
    fn waiver_parsing_multi_rule() {
        assert_eq!(
            waiver_rules("x[i * n] // lint: allow(other-rule, panic-reach)"),
            vec!["other-rule", "panic-reach"]
        );
        assert!(waiver_rules("plain line").is_empty());
    }

    #[test]
    fn waiver_on_preceding_comment_line_covers_the_site() {
        let w = ws(&[(
            "a.rs",
            "fn f(v: &[u32]) -> u32 {
                // justification — lint: allow(panic-reach)
                v[0]
            }
            fn g(v: &[u32]) -> u32 { v[0] }",
        )]);
        // site on line 3 is covered by the comment on line 2
        assert!(w.is_waived(0, 3, "panic-reach"));
        // same-line coverage still works
        assert!(w.is_waived(0, 2, "panic-reach"));
        // an unrelated rule is not waived
        assert!(!w.is_waived(0, 3, "other-rule"));
        // g's site (line 5) has no waiver anywhere near it
        assert!(!w.is_waived(0, 5, "panic-reach"));
    }
}
