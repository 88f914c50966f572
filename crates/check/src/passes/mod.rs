//! Rule passes over the shared token streams, item lists, and call graph.
//!
//! [`Workspace`] is the one analysis input: every file lexed once
//! ([`crate::lexer`]), items parsed once ([`crate::items`]), the call
//! graph built once ([`crate::callgraph`]), waiver comments collected
//! once. Each pass is a function `fn run(&Workspace) -> Vec<Finding>`;
//! the driver in [`crate::lint`] concatenates them and applies waivers.
//!
//! Passes:
//! - [`line_rules`] — the v1 rules ported onto the token stream
//!   (`no-unwrap`, `pub-fn-doc`, `no-lock-unwrap`).
//! - [`panic_reach`] — transitive can-panic analysis from declared
//!   boundary roots, with call-chain witnesses.
//! - [`lock_discipline`] — no I/O while a `sync.rs` guard is live, and
//!   the global lock-acquisition order.
//! - [`index_overflow`] — unchecked multiplies in block-coordinate and
//!   tile-extent arithmetic in `crates/tensor`.
//! - [`atomic_persist`] — durable files in persistence modules are
//!   published via temp-file + rename, never written in place.

pub mod atomic_persist;
pub mod index_overflow;
pub mod line_rules;
pub mod lock_discipline;
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

/// Qualifier types/modules whose associated calls perform file or
/// socket I/O.
const IO_QUALIFIERS: &[&str] = &[
    "fs",
    "File",
    "OpenOptions",
    "TcpStream",
    "TcpListener",
    "UnixStream",
    "UnixListener",
];
/// Method names that perform I/O on readers/writers/sockets.
const IO_METHODS: &[&str] = &[
    "write_all",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "read_line",
    "flush",
    "sync_all",
    "sync_data",
    "set_len",
    "accept",
    "shutdown",
];

/// Scans a fn body for direct file/socket I/O call sites: `fs::…`,
/// `File::…`, socket constructors, and reader/writer methods.
pub fn io_sites(tokens: &[Token], item: &FnItem) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for call in crate::callgraph::extract_calls(tokens, item) {
        let is_io = match &call.kind {
            crate::callgraph::CallKind::Qualified(owner) => IO_QUALIFIERS.contains(&owner.as_str()),
            crate::callgraph::CallKind::Method { .. } => IO_METHODS.contains(&call.name.as_str()),
            crate::callgraph::CallKind::Bare => false,
        };
        if is_io {
            let label = match &call.kind {
                crate::callgraph::CallKind::Qualified(owner) => {
                    format!("{owner}::{}", call.name)
                }
                _ => format!(".{}()", call.name),
            };
            out.push((call.line, label));
        }
    }
    out
}

/// A binary multiplication site: `a * b` in expression position.
#[derive(Debug, Clone)]
pub struct MulSite {
    /// 1-based source line.
    pub line: usize,
    /// Identifiers in the ±4-token window around the `*` (operand
    /// vocabulary for the index-overflow pass).
    pub window_idents: Vec<String>,
}

/// Scans a fn body for binary `*` operators (excluding derefs, raw
/// pointers, and `*=`'s read side — `*=` still counts as a multiply).
pub fn mul_sites(tokens: &[Token], item: &FnItem) -> Vec<MulSite> {
    let (open, close) = item.body;
    if open == usize::MAX || close >= tokens.len() {
        return Vec::new();
    }
    let body = &tokens[open..=close];
    let mut out = Vec::new();
    for (i, tok) in body.iter().enumerate() {
        if !tok.kind.is_punct("*") || i == 0 {
            continue;
        }
        // Binary `*`: an expression ends right before it.
        let prev_ends_expr = matches!(
            &body[i - 1].kind,
            TokenKind::Ident(_) | TokenKind::Num(_) | TokenKind::Punct(")") | TokenKind::Punct("]")
        ) && !body[i - 1]
            .kind
            .ident()
            .is_some_and(|w| matches!(w, "in" | "return" | "as" | "else" | "mut" | "const"));
        if !prev_ends_expr {
            continue;
        }
        let lo = i.saturating_sub(4);
        let hi = (i + 5).min(body.len());
        let window_idents = body[lo..hi]
            .iter()
            .filter_map(|t| t.kind.ident())
            .map(|s| s.to_string())
            .collect();
        out.push(MulSite {
            line: tok.line,
            window_idents,
        });
    }
    out
}

/// A `(expr) as u32/u16/u8` cast whose parenthesized operand performs
/// top-level `*`/`+` arithmetic — the shape that silently truncates a
/// freshly linearized id (the BCOO block-tag bug class).
#[derive(Debug, Clone)]
pub struct CastSite {
    /// 1-based source line (of the `as`).
    pub line: usize,
    /// The narrow target type name (`u32`, `u16`, `u8`).
    pub target: String,
    /// Every identifier inside the parenthesized operand.
    pub operand_idents: Vec<String>,
}

/// Target types narrow enough to truncate a linearized coordinate.
const NARROW_TARGETS: &[&str] = &["u32", "u16", "u8"];

/// Scans a fn body for narrowing casts of parenthesized arithmetic:
/// `(a * nb + b) as u32`. Only group parens count — `f(...) as u32` is
/// a call (the callee owns its arithmetic), and a bare `x as u32` casts
/// a finished value. Arithmetic must appear at the group's top level, so
/// decodes like `(id % nc) as u32` or `(id / (nb * nc)) as u32` — whose
/// results are bounded by the divisor/modulus — stay clean.
pub fn narrowing_cast_sites(tokens: &[Token], item: &FnItem) -> Vec<CastSite> {
    let (open, close) = item.body;
    if open == usize::MAX || close >= tokens.len() {
        return Vec::new();
    }
    let body = &tokens[open..=close];
    let mut out = Vec::new();
    for (i, tok) in body.iter().enumerate() {
        if !tok.kind.is_ident("as") {
            continue;
        }
        let Some(target) = body.get(i + 1).and_then(|t| t.kind.ident()) else {
            continue;
        };
        if !NARROW_TARGETS.contains(&target) {
            continue;
        }
        if i == 0 || !body[i - 1].kind.is_punct(")") {
            continue;
        }
        // Match the operand's opening paren.
        let mut depth = 0usize;
        let mut start = None;
        for j in (0..i).rev() {
            if body[j].kind.is_punct(")") {
                depth += 1;
            } else if body[j].kind.is_punct("(") {
                depth -= 1;
                if depth == 0 {
                    start = Some(j);
                    break;
                }
            }
        }
        let Some(start) = start else { continue };
        // An identifier right before `(` makes it a call or tuple-struct
        // argument list, not a grouping paren.
        if start > 0 && matches!(body[start - 1].kind, TokenKind::Ident(_)) {
            continue;
        }
        let inner = &body[start + 1..i - 1];
        let mut level = 0usize;
        let mut arith = false;
        for (j, t) in inner.iter().enumerate() {
            match &t.kind {
                TokenKind::Punct("(") | TokenKind::Punct("[") | TokenKind::Punct("{") => level += 1,
                TokenKind::Punct(")") | TokenKind::Punct("]") | TokenKind::Punct("}") => {
                    level = level.saturating_sub(1)
                }
                TokenKind::Punct("*") | TokenKind::Punct("+") if level == 0 && j > 0 => {
                    // Binary only: an expression must end right before
                    // (excludes derefs like `*e`).
                    let prev_ends_expr = matches!(
                        &inner[j - 1].kind,
                        TokenKind::Ident(_)
                            | TokenKind::Num(_)
                            | TokenKind::Punct(")")
                            | TokenKind::Punct("]")
                    ) && !inner[j - 1].kind.ident().is_some_and(|w| {
                        matches!(w, "in" | "return" | "as" | "else" | "mut" | "const")
                    });
                    if prev_ends_expr {
                        arith = true;
                    }
                }
                _ => {}
            }
        }
        if !arith {
            continue;
        }
        out.push(CastSite {
            line: tok.line,
            target: target.to_string(),
            operand_idents: inner
                .iter()
                .filter_map(|t| t.kind.ident())
                .map(|s| s.to_string())
                .collect(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::from_sources(
            &files
                .iter()
                .map(|(p, s)| (p.to_string(), s.to_string()))
                .collect::<Vec<_>>(),
        )
    }

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
    fn io_sites_found() {
        let w = ws(&[(
            "a.rs",
            "fn f(mut s: TcpStream) {
                std::fs::write(\"p\", b\"x\").ok();
                let _f = File::open(\"p\");
                s.write_all(b\"hi\").ok();
                s.flush().ok();
                compute();
            }
            fn compute() {}",
        )]);
        let f = &w.files[0];
        let labels: Vec<String> = io_sites(&f.tokens, &f.items[0])
            .into_iter()
            .map(|(_, l)| l)
            .collect();
        assert_eq!(
            labels,
            vec!["fs::write", "File::open", ".write_all()", ".flush()"]
        );
    }

    #[test]
    fn mul_sites_exclude_derefs() {
        let w = ws(&[(
            "a.rs",
            "fn f(p: &u32, nb: usize, nc: usize) -> usize {
                let x = *p as usize;
                let id = nb * nc + x;
                id * 2
            }",
        )]);
        let f = &w.files[0];
        let sites = mul_sites(&f.tokens, &f.items[0]);
        assert_eq!(sites.len(), 2);
        assert!(sites[0].window_idents.iter().any(|i| i == "nb"));
    }

    #[test]
    fn waiver_parsing_multi_rule() {
        assert_eq!(
            waiver_rules("x.unwrap() // lint: allow(no-unwrap, panic-reach)"),
            vec!["no-unwrap", "panic-reach"]
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
        assert!(!w.is_waived(0, 3, "no-unwrap"));
        // g's site (line 5) has no waiver anywhere near it
        assert!(!w.is_waived(0, 5, "panic-reach"));
    }
}
