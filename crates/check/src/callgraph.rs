//! A conservative intra-workspace call graph over the parsed items.
//!
//! Resolution is name-based and deliberately over-approximate in the
//! directions that matter for the passes:
//!
//! - `foo(` (bare, not preceded by `.` or `::`) resolves to every free
//!   fn named `foo` in the workspace.
//! - `.foo(` (method syntax) resolves to every `self`-receiver method
//!   named `foo` on any impl type in the workspace.
//! - `Type::foo(` resolves *only* within `Type`'s impl blocks when the
//!   workspace defines any method on `Type`; when the qualifier is an
//!   unknown type (e.g. `std::io::Error::new`), the call is external
//!   and resolves to nothing. This keeps `Vec::new(` from aliasing every
//!   `new` in the tree.
//! - `Self::foo(` substitutes the enclosing impl type.
//!
//! Callers iterate edges via [`CallGraph::callees`]; each edge carries
//! the source line of the call site so reachability witnesses can point
//! at real code.

use crate::items::FnItem;
use crate::lexer::{Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};

/// A function node: index into [`CallGraph::fns`].
pub type FnId = usize;

/// One resolved call edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallEdge {
    /// The callee function.
    pub callee: FnId,
    /// 1-based source line of the call site (in the caller's file).
    pub line: usize,
}

/// A function known to the graph, with its file of origin.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// The parsed item.
    pub item: FnItem,
    /// Workspace-relative path of the defining file.
    pub path: String,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All known functions.
    pub fns: Vec<FnNode>,
    /// Outgoing edges per function.
    edges: Vec<Vec<CallEdge>>,
    /// Free fns by name.
    free_by_name: BTreeMap<String, Vec<FnId>>,
    /// Self-receiver methods by name.
    methods_by_name: BTreeMap<String, Vec<FnId>>,
    /// All fns by (owner, name) for qualified calls.
    by_owner: BTreeMap<(String, String), Vec<FnId>>,
    /// Every type that has at least one impl in the workspace.
    known_owners: BTreeSet<String>,
}

impl CallGraph {
    /// Builds the graph from per-file token streams and their items.
    /// `files` pairs a workspace-relative path with its tokens and the
    /// items parsed from exactly those tokens.
    pub fn build(files: &[(String, Vec<Token>, Vec<FnItem>)]) -> CallGraph {
        let mut g = CallGraph::default();
        for (path, _, items) in files {
            for item in items {
                let id = g.fns.len();
                g.fns.push(FnNode {
                    item: item.clone(),
                    path: path.clone(),
                });
                match &item.owner {
                    None => g
                        .free_by_name
                        .entry(item.name.clone())
                        .or_default()
                        .push(id),
                    Some(owner) => {
                        g.known_owners.insert(owner.clone());
                        if item.has_self {
                            g.methods_by_name
                                .entry(item.name.clone())
                                .or_default()
                                .push(id);
                        }
                        g.by_owner
                            .entry((owner.clone(), item.name.clone()))
                            .or_default()
                            .push(id);
                    }
                }
            }
        }
        g.edges = vec![Vec::new(); g.fns.len()];
        // Second pass: extract call sites from each body and resolve.
        let mut id = 0usize;
        for (_, tokens, items) in files {
            for item in items {
                let calls = extract_calls(tokens, item);
                for c in calls {
                    for callee in g.resolve(&c, item) {
                        if callee != id {
                            g.edges[id].push(CallEdge {
                                callee,
                                line: c.line,
                            });
                        }
                    }
                }
                id += 1;
            }
        }
        g
    }

    /// Outgoing edges of `f`.
    pub fn callees(&self, f: FnId) -> &[CallEdge] {
        &self.edges[f]
    }

    fn resolve(&self, call: &CallSite, caller: &FnItem) -> Vec<FnId> {
        match &call.kind {
            CallKind::Bare => self
                .free_by_name
                .get(&call.name)
                .cloned()
                .unwrap_or_default(),
            CallKind::Method { on_self } => {
                if COMMON_METHODS.contains(&call.name.as_str()) {
                    // Names shared with std containers (`get`, `insert`,
                    // `len`, …) would alias every workspace type carrying
                    // one. Resolve only the unambiguous shape — a literal
                    // `self.name(…)` inside an impl — to the enclosing
                    // owner's method; any other receiver is presumed to
                    // be a std container and produces no edge.
                    if !on_self {
                        return Vec::new();
                    }
                    match &caller.owner {
                        Some(owner) => self
                            .by_owner
                            .get(&(owner.clone(), call.name.clone()))
                            .cloned()
                            .unwrap_or_default(),
                        None => Vec::new(),
                    }
                } else {
                    self.methods_by_name
                        .get(&call.name)
                        .cloned()
                        .unwrap_or_default()
                }
            }
            CallKind::Qualified(owner) => {
                let owner = if owner == "Self" {
                    match &caller.owner {
                        Some(o) => o.clone(),
                        None => return Vec::new(),
                    }
                } else {
                    owner.clone()
                };
                if self.known_owners.contains(&owner) {
                    self.by_owner
                        .get(&(owner, call.name.clone()))
                        .cloned()
                        .unwrap_or_default()
                } else {
                    Vec::new() // external type — not ours to resolve
                }
            }
        }
    }
}

/// How a call site was written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `foo(...)`
    Bare,
    /// `.foo(...)`; `on_self` records a literal `self.foo(...)` receiver.
    Method { on_self: bool },
    /// `Owner::foo(...)` (Owner may be `Self`).
    Qualified(String),
}

/// Method names shared with the std containers/iterators. A `.get(` on
/// an arbitrary receiver is far more likely a `HashMap` lookup than a
/// workspace method; resolving it globally manufactures edges between
/// unrelated types. These names resolve only through a literal
/// `self.name(…)` receiver (see [`CallGraph::resolve`]).
const COMMON_METHODS: &[&str] = &[
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "len",
    "is_empty",
    "contains",
    "contains_key",
    "entry",
    "keys",
    "values",
    "iter",
    "clear",
    "extend",
    "sort",
    "clone",
    "next",
    "take",
    "replace",
    "find",
    "position",
    "parse",
    "min",
    "max",
    "write",
    "read",
    "lock",
    "join",
    "split",
    "sum",
    "get_or_insert_with",
    "drain",
    "retain",
    // Atomics (`hits.load(Ordering::…)`) alias `Registry::load`; obs
    // `Span::counters` aliases `PlanCache::counters`; nearly every
    // tensor type carries a `dims` accessor.
    "load",
    "store",
    "swap",
    "counters",
    "dims",
];

/// One syntactic call site inside a fn body.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub name: String,
    pub kind: CallKind,
    pub line: usize,
}

/// Keywords that look like `ident (` but aren't calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "in", "as", "let", "else", "loop", "fn", "move",
    "ref", "mut", "pub", "use", "where", "impl", "dyn", "box", "await", "unsafe",
];

/// Extracts the call sites in `item`'s body from the file's tokens.
pub fn extract_calls(tokens: &[Token], item: &FnItem) -> Vec<CallSite> {
    let (open, close) = item.body;
    if open == usize::MAX || close >= tokens.len() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let body = &tokens[open..=close];
    let mut i = 0usize;
    while i + 1 < body.len() {
        let name = match body[i].kind.ident() {
            Some(n) => n,
            None => {
                i += 1;
                continue;
            }
        };
        // Macro invocation `name!(` is not a fn call (handled by panic
        // sites separately); generic turbofish `name::<T>(` is a call.
        let mut j = i + 1;
        if body[j].kind.is_punct("!") {
            i = j + 1;
            continue;
        }
        let qualifier_next = body[j].kind.is_punct("::");
        if qualifier_next {
            // Either `Owner::name(` — we'll pick this up when the cursor
            // reaches the rightmost segment — or turbofish `name::<`.
            if body.get(j + 1).is_some_and(|t| t.kind.is_punct("<")) {
                j += 1; // step onto `::`, then skip the angles
                let rel = crate::items::match_bracket_angle(body, j + 1);
                j = rel;
            } else {
                i += 1;
                continue;
            }
        }
        if !body.get(j).is_some_and(|t| t.kind.is_punct("(")) {
            i += 1;
            continue;
        }
        if NON_CALL_KEYWORDS.contains(&name) {
            i += 1;
            continue;
        }
        // Classify by what precedes the (possibly path-qualified) name.
        let prev = if i == 0 {
            None
        } else {
            Some(&body[i - 1].kind)
        };
        let kind = match prev {
            Some(TokenKind::Punct(".")) => CallKind::Method {
                on_self: i >= 2 && body[i - 2].kind.ident() == Some("self"),
            },
            Some(TokenKind::Punct("::")) => {
                // Walk the path left: the segment immediately left of the
                // final `::` is the owner; longer std paths make the owner
                // that last segment (`std::io::Error::new` → `Error`).
                match body.get(i.wrapping_sub(2)).and_then(|t| t.kind.ident()) {
                    Some(owner) => CallKind::Qualified(owner.to_string()),
                    None => CallKind::Bare, // `::foo(` — crate-root path
                }
            }
            _ => CallKind::Bare,
        };
        out.push(CallSite {
            name: name.to_string(),
            kind,
            line: body[i].line,
        });
        i = j + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_items;
    use crate::lexer::lex;

    fn graph_of(files: &[(&str, &str)]) -> CallGraph {
        let prepared: Vec<(String, Vec<Token>, Vec<FnItem>)> = files
            .iter()
            .map(|(path, src)| {
                let toks = lex(src);
                let items = parse_items(&toks);
                (path.to_string(), toks, items)
            })
            .collect();
        CallGraph::build(&prepared)
    }

    fn callee_names(g: &CallGraph, from: &str) -> Vec<String> {
        let id = g
            .fns
            .iter()
            .position(|f| f.item.qualified() == from)
            .unwrap_or_else(|| panic!("no fn {from}"));
        let mut names: Vec<String> = g
            .callees(id)
            .iter()
            .map(|e| g.fns[e.callee].item.qualified())
            .collect();
        names.sort();
        names.dedup();
        names
    }

    #[test]
    fn bare_calls_resolve_to_free_fns() {
        let g = graph_of(&[("a.rs", "fn helper() {} fn top() { helper(); missing(); }")]);
        assert_eq!(callee_names(&g, "top"), vec!["helper"]);
    }

    #[test]
    fn method_calls_resolve_to_self_methods() {
        let g = graph_of(&[(
            "a.rs",
            "struct K; impl K { fn run(&self) {} fn assoc() {} }
             fn top(k: &K) { k.run(); K::assoc(); }",
        )]);
        assert_eq!(callee_names(&g, "top"), vec!["K::assoc", "K::run"]);
    }

    #[test]
    fn qualified_calls_do_not_leak_to_unknown_types() {
        // `Vec::new` must not resolve to our `Plan::new`.
        let g = graph_of(&[(
            "a.rs",
            "struct Plan; impl Plan { fn new() -> Plan { Plan } }
             fn top() { let v: Vec<u32> = Vec::new(); let p = Plan::new(); v.len(); drop(p); }",
        )]);
        assert_eq!(callee_names(&g, "top"), vec!["Plan::new"]);
    }

    #[test]
    fn self_qualifier_substitutes_owner() {
        let g = graph_of(&[(
            "a.rs",
            "struct S; impl S { fn a(&self) { Self::b(); } fn b() {} }",
        )]);
        assert_eq!(callee_names(&g, "S::a"), vec!["S::b"]);
    }

    #[test]
    fn macro_invocations_are_not_calls() {
        let g = graph_of(&[(
            "a.rs",
            "fn log() {} fn top() { println!(\"log()\"); log(); }",
        )]);
        // The `log()` inside the string and the `println!` macro are not
        // edges; the real `log()` call is.
        assert_eq!(callee_names(&g, "top"), vec!["log"]);
    }

    #[test]
    fn cross_file_resolution_through_registry_dispatch() {
        // Mirrors the kernel registry: a trait method dispatched via
        // `.mttkrp(` resolves to every implementor's method.
        let g = graph_of(&[
            (
                "core/kernel.rs",
                "pub trait MttkrpKernel { fn mttkrp(&self); }
                 pub struct CooKernel; impl MttkrpKernel for CooKernel { fn mttkrp(&self) { inner_coo(); } }
                 fn inner_coo() {}",
            ),
            (
                "core/bcoo.rs",
                "pub struct BcooKernel; impl MttkrpKernel for BcooKernel { fn mttkrp(&self) { inner_bcoo(); } }
                 fn inner_bcoo() {}
                 fn dispatch(k: &dyn MttkrpKernel) { k.mttkrp(); }",
            ),
        ]);
        assert_eq!(
            callee_names(&g, "dispatch"),
            vec!["BcooKernel::mttkrp", "CooKernel::mttkrp"]
        );
    }

    #[test]
    fn common_method_names_resolve_only_on_self() {
        // `nd.dims()` on a foreign receiver must NOT produce an edge to
        // some other type's `dims` (regression: CooTensor::decode falsely
        // reached KruskalTensor::dims). `self.dims()` still resolves to
        // the enclosing owner's method.
        let g = graph_of(&[(
            "a.rs",
            "struct Kruskal; impl Kruskal { fn dims(&self) {} }
             struct Nd; impl Nd {
                 fn dims(&self) {}
                 fn decode(&self) { self.dims(); }
             }
             fn top(nd: &Nd) { nd.dims(); }",
        )]);
        assert_eq!(callee_names(&g, "top"), Vec::<String>::new());
        assert_eq!(callee_names(&g, "Nd::decode"), vec!["Nd::dims"]);
    }

    #[test]
    fn turbofish_is_still_a_call() {
        let g = graph_of(&[(
            "a.rs",
            "fn parse_num<T>() -> T { todo!() } fn top() { let _x = parse_num::<u32>(); }",
        )]);
        assert_eq!(callee_names(&g, "top"), vec!["parse_num"]);
    }
}
