//! Panic-reachability: computes the transitive can-panic set over the
//! call graph and requires the declared boundary roots to be panic-free
//! modulo per-site waivers. Replaces the v1 file-scoped
//! `no-panic-ingest` rule with a call-graph analysis that follows
//! helpers wherever they live.
//!
//! Two root tiers with different panic vocabularies:
//!
//! - **Strict** (untrusted input — `.tns`/`.tnsb` parsing and the tile
//!   store's header/tile validation): panic macros, `.unwrap()` /
//!   `.expect()`, assertion macros, *and* explicit `[i]` indexing. A
//!   malformed file must never abort the process, so even "impossible"
//!   index arithmetic counts.
//! - **Relaxed** (the kernel launch and the serve request loop): panic
//!   macros and `.unwrap()`/`.expect()` only. Assertions there are
//!   declared preconditions on in-memory structures the ingest layer
//!   already validated, and indexing is the hot loop's job — the
//!   dynamic write-set checker owns those bounds.
//!
//! Roots are named, not matched by shape, and a named root missing from
//! its file is itself a finding: a renamed or deleted root must fail the
//! pass rather than quietly stop checking everything below it.
//!
//! Functions whose body mentions `catch_unwind` are panic *boundaries*:
//! nothing inside them propagates out (the serve worker catches job
//! panics at the job boundary).
//!
//! Findings carry a full witness chain `root → … → fn → site` so a
//! reviewer can audit the path, and are deduplicated per panic site —
//! the first (breadth-first, i.e. shortest) chain wins.

use super::{is_shim, is_test_path, panic_sites, PanicSite, Workspace};
use crate::callgraph::FnId;
use crate::lint::{ChainHop, Finding, Rule};
use std::collections::{BTreeMap, VecDeque};

/// Root tier: which panic vocabulary applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Untrusted-input boundary: all sites count.
    Strict,
    /// Kernel/serve boundary: asserts and indexing are exempt.
    Relaxed,
}

/// Strict-tier roots as `(path suffix, fn name)` pairs.
const STRICT_ROOTS: &[(&str, &str)] = &[
    ("crates/tensor/src/io.rs", "read_tns"),
    ("crates/tensor/src/io.rs", "read_tns_file"),
    ("crates/tensor/src/io_bin.rs", "read_header"),
    ("crates/tensor/src/io_bin.rs", "read_bin_header_file"),
    ("crates/tensor/src/io_bin.rs", "read_file"),
    ("crates/tensor/src/io_bin.rs", "read_bin_nd"),
    ("crates/tensor/src/io_bin.rs", "read_bin"),
    ("crates/tensor/src/io_bin.rs", "read_bin_file"),
    ("crates/tensor/src/tile_store.rs", "open"),
    ("crates/tensor/src/tile_store.rs", "validate_bytes"),
    ("crates/tensor/src/tile_store.rs", "load_tile"),
];

/// Relaxed-tier roots: the one MTTKRP launch every kernel runs through
/// (task bodies are reached by their `run_task` calls) and the serve
/// request handler.
const RELAXED_ROOTS: &[(&str, &str)] = &[
    ("crates/core/src/kernel.rs", "launch"),
    ("crates/serve/src/proto.rs", "handle"),
];

/// The declared boundary roots present in this workspace.
pub fn roots(ws: &Workspace) -> Vec<(FnId, Tier)> {
    let mut out = Vec::new();
    for (id, node) in ws.graph.fns.iter().enumerate() {
        if node.item.in_test {
            continue;
        }
        let listed = |specs: &[(&str, &str)]| {
            specs
                .iter()
                .any(|(path, name)| node.path.ends_with(path) && node.item.name == *name)
        };
        if listed(STRICT_ROOTS) {
            out.push((id, Tier::Strict));
        } else if listed(RELAXED_ROOTS) {
            out.push((id, Tier::Relaxed));
        }
    }
    out
}

/// One finding per declared root whose file is in the workspace but which
/// that file no longer defines.
fn missing_roots(ws: &Workspace) -> Vec<Finding> {
    STRICT_ROOTS
        .iter()
        .chain(RELAXED_ROOTS)
        .filter_map(|&(path, name)| {
            let file = ws.files.iter().find(|f| f.path.ends_with(path))?;
            let defined = file.items.iter().any(|it| it.name == name && !it.in_test);
            (!defined).then(|| Finding {
                rule: Rule::PanicReach,
                file: file.path.clone(),
                line: 1,
                func: None,
                excerpt: format!("declared root `{name}` is not defined here"),
                chain: Vec::new(),
                waived: false,
            })
        })
        .collect()
}

/// Runs the pass: BFS from every root, reporting each reachable panic
/// site once with its shortest witness chain.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    // Per-fn direct panic sites (empty for shims/tests/boundaries).
    let sites: Vec<Vec<PanicSite>> = ws
        .graph
        .fns
        .iter()
        .map(|node| {
            if is_shim(&node.path) || is_test_path(&node.path) || node.item.in_test {
                return Vec::new();
            }
            let fi = match ws.file_index(&node.path) {
                Some(fi) => fi,
                None => return Vec::new(),
            };
            panic_sites(&ws.files[fi].tokens, &node.item)
        })
        .collect();
    let is_boundary: Vec<bool> = ws
        .graph
        .fns
        .iter()
        .map(|node| {
            let (open, close) = node.item.body;
            let fi = ws.file_index(&node.path);
            match fi {
                Some(fi) if open != usize::MAX && close < ws.files[fi].tokens.len() => ws.files[fi]
                    .tokens[open..=close]
                    .iter()
                    .any(|t| t.kind.is_ident("catch_unwind")),
                _ => false,
            }
        })
        .collect();

    // Dedup key: (file, line, desc). First root to reach a site claims it.
    let mut reported: BTreeMap<(String, usize, String), Finding> = BTreeMap::new();

    for (root, tier) in roots(ws) {
        // BFS with parent pointers for witness reconstruction.
        let mut parent: BTreeMap<FnId, (FnId, usize)> = BTreeMap::new();
        let mut queue = VecDeque::new();
        queue.push_back(root);
        let mut visited = vec![false; ws.graph.fns.len()];
        visited[root] = true;
        while let Some(f) = queue.pop_front() {
            let node = &ws.graph.fns[f];
            for site in &sites[f] {
                if tier == Tier::Relaxed && site.strict_only {
                    continue;
                }
                let key = (node.path.clone(), site.line, site.desc.clone());
                if reported.contains_key(&key) {
                    continue;
                }
                let chain = witness(ws, root, f, &parent, site.line);
                let fi = ws.file_index(&node.path);
                let waived =
                    fi.is_some_and(|fi| ws.is_waived(fi, site.line, Rule::PanicReach.name()));
                let excerpt = fi.map(|fi| ws.excerpt(fi, site.line)).unwrap_or_default();
                reported.insert(
                    key,
                    Finding {
                        rule: Rule::PanicReach,
                        file: node.path.clone(),
                        line: site.line,
                        func: Some(node.item.qualified()),
                        excerpt,
                        chain,
                        waived,
                    },
                );
            }
            if is_boundary[f] {
                continue; // panics below are caught here
            }
            for edge in ws.graph.callees(f) {
                let callee = &ws.graph.fns[edge.callee];
                if callee.item.in_test || is_shim(&callee.path) || is_test_path(&callee.path) {
                    continue;
                }
                if !visited[edge.callee] {
                    visited[edge.callee] = true;
                    parent.insert(edge.callee, (f, edge.line));
                    queue.push_back(edge.callee);
                }
            }
        }
    }
    let mut findings = missing_roots(ws);
    findings.extend(reported.into_values());
    findings
}

/// Reconstructs the witness chain `root → … → containing fn → site`.
fn witness(
    ws: &Workspace,
    root: FnId,
    site_fn: FnId,
    parent: &BTreeMap<FnId, (FnId, usize)>,
    site_line: usize,
) -> Vec<ChainHop> {
    // Walk site_fn → root, collecting (fn, line-of-call-into-next).
    let mut rev = vec![(site_fn, site_line)];
    let mut cur = site_fn;
    while cur != root {
        let Some(&(p, call_line)) = parent.get(&cur) else {
            break;
        };
        rev.push((p, call_line));
        cur = p;
    }
    rev.reverse();
    rev.into_iter()
        .map(|(f, line)| {
            let node = &ws.graph.fns[f];
            ChainHop {
                func: node.item.qualified(),
                file: node.path.clone(),
                line,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::test_util::ws;

    /// `crates/tensor/src/io.rs` with `body` and the io root no test here
    /// exercises, so only the test's own sites are findings.
    fn io_rs(body: &str) -> (&'static str, String) {
        (
            "crates/tensor/src/io.rs",
            format!("{body}\npub fn read_tns_file() {{}}"),
        )
    }

    fn ws_of(files: &[(&'static str, String)]) -> Workspace {
        let files: Vec<(&str, &str)> = files.iter().map(|(p, s)| (*p, s.as_str())).collect();
        ws(&files)
    }

    #[test]
    fn ingest_root_reaches_panicking_helper_with_witness() {
        let w = ws_of(&[io_rs(
            "pub fn read_tns(text: &str) -> u32 { parse_line(text) }
             fn parse_line(t: &str) -> u32 { t.parse().unwrap() }",
        )]);
        let f = run(&w);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule.name(), "panic-reach");
        assert_eq!(f[0].func.as_deref(), Some("parse_line"));
        let hops: Vec<&str> = f[0].chain.iter().map(|h| h.func.as_str()).collect();
        assert_eq!(hops, vec!["read_tns", "parse_line"]);
        // The root hop's line is its call into the helper; the last
        // hop's line is the panic site itself.
        assert_eq!(f[0].chain.last().unwrap().line, f[0].line);
    }

    #[test]
    fn strict_tier_counts_indexing_and_asserts() {
        let w = ws_of(&[io_rs(
            "pub fn read_tns(v: &[u8]) -> u8 { assert!(!v.is_empty()); v[0] }",
        )]);
        let f = run(&w);
        let descs: Vec<&str> = f.iter().map(|x| x.excerpt.as_str()).collect();
        assert_eq!(f.len(), 2, "assert + index, got {descs:?}");
    }

    #[test]
    fn relaxed_tier_ignores_asserts_and_indexing_but_not_unwrap() {
        let w = ws(&[(
            "crates/core/src/kernel.rs",
            "pub(crate) fn launch(out: &mut [f64], o: Option<u32>) {
                 assert_eq!(out.len(), 4);
                 out[0] = 1.0;
                 helper(o);
             }
             fn helper(o: Option<u32>) { o.unwrap(); }",
        )]);
        let f = run(&w);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].func.as_deref(), Some("helper"));
    }

    /// Every kernel's body is reached from the one launch through its
    /// `run_task` call, whichever kernel defines it.
    #[test]
    fn a_panic_in_a_task_body_is_reported_through_the_launch() {
        let w = ws(&[
            (
                "crates/core/src/kernel.rs",
                "pub(crate) fn launch<K: RowKernel>(k: &K) { try_launch(k); }
                 fn try_launch<K: RowKernel>(k: &K) { k.run_task(); }",
            ),
            (
                "crates/core/src/mttkrp/coo.rs",
                "impl crate::kernel::RowKernel for CooKernel { fn run_task(&self) { body(None); } }
                 fn body(o: Option<u32>) -> u32 { o.unwrap() }",
            ),
        ]);
        let f = run(&w);
        assert_eq!(f.len(), 1);
        let hops: Vec<&str> = f[0].chain.iter().map(|h| h.func.as_str()).collect();
        assert_eq!(
            hops,
            ["launch", "try_launch", "CooKernel::run_task", "body"]
        );
    }

    #[test]
    fn a_root_missing_from_its_file_is_a_finding() {
        // The launch renamed: nothing below it would be checked any more.
        let w = ws(&[(
            "crates/core/src/kernel.rs",
            "pub(crate) fn start(o: Option<u32>) -> u32 { o.unwrap() }",
        )]);
        let f = run(&w);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].file, "crates/core/src/kernel.rs");
        assert!(f[0].excerpt.contains("`launch`"), "{}", f[0].excerpt);
        assert!(!f[0].waived);
    }

    #[test]
    fn catch_unwind_stops_propagation() {
        let w = ws(&[(
            "crates/serve/src/proto.rs",
            "pub struct Service; impl Service {
                 pub fn handle(&self) { self.guarded(); }
                 fn guarded(&self) { let _ = std::panic::catch_unwind(|| risky()); }
             }
             fn risky() { panic!(\"inside the boundary\"); }",
        )]);
        assert!(run(&w).is_empty());
    }

    #[test]
    fn waived_site_is_reported_but_waived() {
        let w = ws_of(&[io_rs(
            "pub fn read_tns(o: Option<u32>) -> u32 {\n    o.unwrap() // invariant: checked by caller — lint: allow(panic-reach)\n}",
        )]);
        let f = run(&w);
        assert_eq!(f.len(), 1);
        assert!(f[0].waived);
    }

    #[test]
    fn unreached_panics_are_not_findings() {
        let w = ws_of(&[io_rs(
            "pub fn read_tns() -> u32 { 7 }
             pub fn unrelated(o: Option<u32>) -> u32 { o.unwrap() }",
        )]);
        assert!(run(&w).is_empty());
    }
}
