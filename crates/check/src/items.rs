//! A lightweight item parser over the token stream: extracts `fn` items
//! with their impl context, receiver, and body token range, plus the
//! `#[cfg(test)]` regions that scope every rule.
//!
//! This is not a Rust parser. It walks the token stream once, tracking
//! brace depth and a stack of contexts (`mod`, `impl`, test regions),
//! and records just enough structure for the passes: *who* is this
//! function (name, owning impl type, implemented trait), *where* is it
//! (file line, body token span), and *what scope* is it in (test or
//! production). Everything the passes then do — call extraction, panic
//! sites, guard scopes — reads the recorded body spans.

use crate::lexer::{Token, TokenKind};

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// The `impl` type the fn sits in, when inside an `impl` block
    /// (`impl Foo { … }` or `impl Trait for Foo { … }` → `Foo`).
    pub owner: Option<String>,
    /// The trait being implemented, for `impl Trait for Type` blocks.
    pub trait_name: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token-index range of the body: `tokens[body.0]` is the opening
    /// `{`, `tokens[body.1]` the matching `}`. Bodiless fns (trait
    /// declarations) are not recorded.
    pub body: (usize, usize),
    /// Whether the first parameter is a `self` receiver.
    pub has_self: bool,
    /// Whether the fn sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

impl FnItem {
    /// `Owner::name` when owned, else just `name`.
    pub fn qualified(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Context pushed for each `{` that opens a tracked construct.
#[derive(Debug, Clone)]
enum Scope {
    /// A brace we don't care about (fn bodies, blocks, match arms…).
    Plain,
    /// An `impl` block: (type, trait).
    Impl(String, Option<String>),
    /// A `#[cfg(test)]`-gated item's brace (mod or fn or impl).
    Test,
}

/// Parses the `fn` items of one file's token stream.
pub fn parse_items(tokens: &[Token]) -> Vec<FnItem> {
    let mut items = Vec::new();
    let mut scopes: Vec<Scope> = Vec::new();
    // Attribute state, reset at each item keyword: did a `#[cfg(test)]`
    // occur since the last item boundary?
    let mut pending_cfg_test = false;

    let mut i = 0usize;
    while i < tokens.len() {
        match &tokens[i].kind {
            TokenKind::Punct("#") => {
                // Attribute: #[...] or #![...]; scan the bracket group.
                let mut j = i + 1;
                if j < tokens.len() && tokens[j].kind.is_punct("!") {
                    j += 1;
                }
                if j < tokens.len() && tokens[j].kind.is_punct("[") {
                    let close = match_bracket(tokens, j, "[", "]");
                    let attr = &tokens[j + 1..close.min(tokens.len())];
                    if is_cfg_test(attr) {
                        pending_cfg_test = true;
                    }
                    i = close + 1;
                } else {
                    i += 1;
                }
            }
            TokenKind::Punct("{") => {
                scopes.push(if pending_cfg_test {
                    Scope::Test
                } else {
                    Scope::Plain
                });
                pending_cfg_test = false;
                i += 1;
            }
            TokenKind::Punct("}") => {
                scopes.pop();
                i += 1;
            }
            TokenKind::Ident(word) => match word.as_str() {
                "impl" => {
                    let (ty, tr, brace) = parse_impl_header(tokens, i);
                    match brace {
                        Some(b) => {
                            scopes.push(if pending_cfg_test {
                                Scope::Test
                            } else {
                                match ty {
                                    Some(ty) => Scope::Impl(ty, tr),
                                    None => Scope::Plain,
                                }
                            });
                            pending_cfg_test = false;
                            i = b + 1;
                        }
                        None => i += 1,
                    }
                }
                "fn" => {
                    let in_test = scopes.iter().any(|s| matches!(s, Scope::Test));
                    let (owner, trait_name) = scopes
                        .iter()
                        .rev()
                        .find_map(|s| match s {
                            Scope::Impl(t, tr) => Some((Some(t.clone()), tr.clone())),
                            _ => None,
                        })
                        .unwrap_or((None, None));
                    if let Some(mut item) = parse_fn(tokens, i) {
                        item.owner = owner;
                        item.trait_name = trait_name;
                        item.in_test = in_test || pending_cfg_test;
                        let body_open = item.body.0;
                        let has_body = body_open != usize::MAX;
                        if has_body {
                            // The fn body's brace enters the scope stack as
                            // Plain (or Test if the fn itself was gated);
                            // nested fns inside it are still found.
                            scopes.push(if pending_cfg_test || item.in_test {
                                Scope::Test
                            } else {
                                Scope::Plain
                            });
                            items.push(item);
                            i = body_open + 1;
                        } else {
                            // Bodiless declarations (trait requirements)
                            // are still recorded: passes skip them, but
                            // the contract pass can see the trait shape.
                            items.push(item);
                            i += 1;
                        }
                    } else {
                        i += 1;
                    }
                    pending_cfg_test = false;
                }
                // Other keywords leave `cfg(test)` pending: it gates the
                // next brace (`mod tests {`) and survives modifier chains
                // like `pub const unsafe extern "C" fn`.
                _ => i += 1,
            },
            _ => i += 1,
        }
    }
    items
}

/// Whether attribute tokens (between `[` and `]`) are `cfg(test)` or a
/// `cfg(all(test, …))`-style conjunction mentioning `test`.
fn is_cfg_test(attr: &[Token]) -> bool {
    attr.first().is_some_and(|t| t.kind.is_ident("cfg"))
        && attr.iter().any(|t| t.kind.is_ident("test"))
}

/// Finds the matching close bracket for `tokens[open]`; returns the index
/// of the closer, or `tokens.len()` when unbalanced.
pub fn match_bracket(tokens: &[Token], open: usize, op: &str, cl: &str) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < tokens.len() {
        if tokens[i].kind.is_punct(op) {
            depth += 1;
        } else if tokens[i].kind.is_punct(cl) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    tokens.len()
}

/// Parses `impl …` from the `impl` keyword: returns (type, trait, index
/// of the opening `{`). `impl<T> Trait for Type<T> where … {`.
fn parse_impl_header(
    tokens: &[Token],
    at: usize,
) -> (Option<String>, Option<String>, Option<usize>) {
    let mut i = at + 1;
    // Skip generic params.
    if tokens.get(i).is_some_and(|t| t.kind.is_punct("<")) {
        i = skip_angles(tokens, i);
    }
    // Collect path segments until `for`, `where`, or `{`.
    let mut first_path: Option<String> = None; // trait or the type itself
    let mut second_path: Option<String> = None; // type, when `for` appears
    let mut saw_for = false;
    let mut last_ident: Option<String> = None;
    while i < tokens.len() {
        match &tokens[i].kind {
            TokenKind::Punct("{") => {
                let (target, _) = (last_ident.take(), ());
                let path = if saw_for {
                    &mut second_path
                } else {
                    &mut first_path
                };
                if path.is_none() {
                    *path = target;
                }
                let (ty, tr) = if saw_for {
                    (second_path, first_path)
                } else {
                    (first_path, None)
                };
                return (ty, tr, Some(i));
            }
            TokenKind::Punct(";") => return (None, None, None), // impl Trait for Type;
            TokenKind::Ident(w) if w == "for" => {
                if first_path.is_none() {
                    first_path = last_ident.take();
                }
                saw_for = true;
                last_ident = None;
                i += 1;
            }
            TokenKind::Ident(w) if w == "where" => {
                let path = if saw_for {
                    &mut second_path
                } else {
                    &mut first_path
                };
                if path.is_none() {
                    *path = last_ident.take();
                }
                i += 1;
            }
            TokenKind::Ident(w) => {
                last_ident = Some(w.clone());
                i += 1;
            }
            TokenKind::Punct("<") => i = skip_angles(tokens, i),
            _ => i += 1,
        }
    }
    (None, None, None)
}

/// Public alias of [`skip_angles`] for the call-graph's turbofish
/// handling: returns the index just past the `>` closing the group
/// opened at `tokens[at]`.
pub fn match_bracket_angle(tokens: &[Token], at: usize) -> usize {
    skip_angles(tokens, at)
}

/// Skips a `<…>` group starting at `tokens[at]` (a `<`), tolerant of
/// nested angles; returns the index just past the matching `>`.
fn skip_angles(tokens: &[Token], at: usize) -> usize {
    let mut depth = 0i64;
    let mut i = at;
    while i < tokens.len() {
        match &tokens[i].kind {
            TokenKind::Punct("<") => depth += 1,
            TokenKind::Punct(">") => {
                depth -= 1;
                if depth <= 0 {
                    return i + 1;
                }
            }
            // `->` inside fn-pointer types would confuse a naive scan;
            // the merged token dodges it. `>>` lexes as two `>`s. A `{`
            // means we overran (malformed) — bail.
            TokenKind::Punct("{") => return i,
            _ => {}
        }
        i += 1;
    }
    i
}

/// Parses a `fn` at `tokens[at]` (the `fn` keyword). Returns the item with
/// `owner`/`trait_name`/`in_test` left default. The
/// body span is `(usize::MAX, usize::MAX)` for bodiless declarations.
fn parse_fn(tokens: &[Token], at: usize) -> Option<FnItem> {
    let name_tok = tokens.get(at + 1)?;
    let name = name_tok.kind.ident()?.to_string();
    let line = tokens[at].line;
    let mut i = at + 2;
    if tokens.get(i).is_some_and(|t| t.kind.is_punct("<")) {
        i = skip_angles(tokens, i);
    }
    if !tokens.get(i).is_some_and(|t| t.kind.is_punct("(")) {
        return None;
    }
    let params_close = match_bracket(tokens, i, "(", ")");
    // Receiver: the first tokens of the params are some prefix of
    // `& 'a mut self` / `mut self` / `self`.
    let mut has_self = false;
    for t in &tokens[i + 1..params_close.min(tokens.len())] {
        match &t.kind {
            TokenKind::Punct("&") | TokenKind::Lifetime(_) => continue,
            TokenKind::Ident(w) if w == "mut" => continue,
            TokenKind::Ident(w) if w == "self" => {
                has_self = true;
                break;
            }
            _ => break,
        }
    }
    // Find the body `{` or a terminating `;` (skipping the return type
    // and where clause; `->` and generic bounds may contain idents but
    // no stray `{` before the body except in `where T: Fn() -> X` —
    // angle groups are skipped, and `Fn() -> impl` braces don't occur in
    // this codebase's signatures).
    let mut j = params_close + 1;
    while j < tokens.len() {
        match &tokens[j].kind {
            TokenKind::Punct("{") => {
                let close = match_bracket(tokens, j, "{", "}");
                return Some(FnItem {
                    name,
                    owner: None,
                    trait_name: None,
                    line,
                    body: (j, close),
                    has_self,
                    in_test: false,
                });
            }
            TokenKind::Punct(";") => {
                return Some(FnItem {
                    name,
                    owner: None,
                    trait_name: None,
                    line,
                    body: (usize::MAX, usize::MAX),
                    has_self,
                    in_test: false,
                })
            }
            TokenKind::Punct("<") => j = skip_angles(tokens, j),
            // An array return type (`-> &[f64; 16]`) contains a `;` that
            // must not read as a bodiless declaration — skip the group.
            TokenKind::Punct("[") => j = match_bracket(tokens, j, "[", "]") + 1,
            TokenKind::Punct("(") => j = match_bracket(tokens, j, "(", ")") + 1,
            _ => j += 1,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn items_of(src: &str) -> Vec<FnItem> {
        parse_items(&lex(src))
    }

    #[test]
    fn free_and_method_fns() {
        let src = "
            pub fn free(x: u32) -> u32 { x }
            struct S;
            impl S {
                fn method(&self) -> u32 { 1 }
                pub fn assoc() -> S { S }
            }
            impl Clone for S {
                fn clone(&self) -> S { S }
            }
        ";
        let items = items_of(src);
        let names: Vec<String> = items.iter().map(|f| f.qualified()).collect();
        assert_eq!(names, vec!["free", "S::method", "S::assoc", "S::clone"]);
        assert!(!items[0].has_self && items[1].has_self && !items[2].has_self);
        assert_eq!(items[3].trait_name.as_deref(), Some("Clone"));
        assert_eq!(items[1].trait_name, None);
    }

    #[test]
    fn impl_headers_with_generics_and_paths() {
        let src = "
            impl<'m> RowWindow for DenseWindow<'m> {
                fn window(&self, r: usize) -> &[f64] { self.x }
            }
            impl std::fmt::Display for Finding {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }
            }
            impl<T: Clone> Holder<T> where T: Send {
                fn get(&self) -> T { self.t.clone() }
            }
        ";
        let items = items_of(src);
        assert_eq!(items[0].owner.as_deref(), Some("DenseWindow"));
        assert_eq!(items[0].trait_name.as_deref(), Some("RowWindow"));
        assert_eq!(items[1].owner.as_deref(), Some("Finding"));
        assert_eq!(items[1].trait_name.as_deref(), Some("Display"));
        assert_eq!(items[2].owner.as_deref(), Some("Holder"));
        assert_eq!(items[2].trait_name, None);
    }

    #[test]
    fn cfg_test_regions_scope_items() {
        let src = "
            fn prod() {}
            #[cfg(test)]
            mod tests {
                fn helper() {}
                #[test]
                fn case() {}
            }
            fn prod2() {}
            #[cfg(test)]
            fn gated() {}
        ";
        let items = items_of(src);
        let by_name = |n: &str| items.iter().find(|f| f.name == n).unwrap();
        assert!(!by_name("prod").in_test);
        assert!(by_name("helper").in_test);
        assert!(by_name("case").in_test);
        assert!(!by_name("prod2").in_test);
        assert!(by_name("gated").in_test);
    }

    #[test]
    fn bodies_span_the_right_tokens() {
        let src = "fn f() { let x = \"}}}\"; g(); } fn g() {}";
        let toks = lex(src);
        let items = parse_items(&toks);
        assert_eq!(items.len(), 2);
        let (open, close) = items[0].body;
        assert!(toks[open].kind.is_punct("{") && toks[close].kind.is_punct("}"));
        // `g` must NOT be inside f's body span bounds incorrectly: check
        // the second item's fn line exists and body is after f's close.
        assert!(items[1].body.0 > close);
        // Trait declarations without bodies are recorded bodiless.
        let decl = items_of("trait T { fn required(&self) -> u32; }");
        assert_eq!(decl.len(), 1);
        assert_eq!(decl[0].body.0, usize::MAX);
    }

    #[test]
    fn nested_fns_are_found() {
        let src = "fn outer() { fn inner() { x.unwrap(); } inner(); }";
        let items = items_of(src);
        assert_eq!(items.len(), 2);
        assert_eq!(items[1].name, "inner");
    }

    #[test]
    fn array_return_type_does_not_hide_the_body() {
        // The `;` inside `-> &[f64; 16]` must not read as a bodiless
        // declaration (regression: reg_chunk was invisible to panic-reach).
        let src = "fn reg_chunk(row: &[f64], col: usize) -> &[f64; 16] { row[col..col + 16].try_into().unwrap() }";
        let items = items_of(src);
        assert_eq!(items.len(), 1);
        assert_ne!(items[0].body.0, usize::MAX, "body must be found");
        // Same for a `;` hidden in a parenthesized type.
        let items = items_of("fn g() -> ([u8; 4], u32) { h() }");
        assert_eq!(items.len(), 1);
        assert_ne!(items[0].body.0, usize::MAX);
    }

    #[test]
    fn generic_fn_with_where_clause() {
        let src = "pub fn read_file<T: Decode, P: AsRef<Path>>(path: P) -> Result<T, BinError> where T: Sized { body() }";
        let items = items_of(src);
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].name, "read_file");
        assert!(!items[0].has_self);
    }
}
