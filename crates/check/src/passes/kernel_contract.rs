//! Kernel-contract completeness: every `KernelKind` variant must be
//! fully wired — registered in `KernelKind::ALL`, named in `as_str`,
//! dispatched in `build_validated`, and its kernel type's defining file
//! must show a write-set derivation (a `*_write_sets` helper from
//! `checked.rs` or direct `WriteSet` construction), obs span
//! instrumentation (`"mttkrp/…"`), and a fuzz differential hook (the
//! fuzz crate iterating `KernelKind::ALL`, or naming the variant).
//!
//! The point: adding kernel #8 as a bare enum variant + `mttkrp` impl
//! compiles — `ALL` is a hand-maintained const, the write-set
//! derivation and span are conventions, and the fuzzer only exercises
//! what `ALL` lists. This pass turns each convention into a CI failure.

use super::Workspace;
use crate::lexer::TokenKind;
use crate::lint::{Finding, Rule};

/// Path of the kernel registry file.
const KERNEL_RS: &str = "crates/core/src/kernel.rs";

/// Runs the pass. No-op when the workspace has no kernel registry.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let Some(kfi) = ws.files.iter().position(|f| f.path.ends_with(KERNEL_RS)) else {
        return Vec::new();
    };
    let kfile = &ws.files[kfi];
    let Some((variants, enum_line)) = enum_variants(&kfile.tokens) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let kf = |line: usize, excerpt: String| Finding {
        rule: Rule::KernelContract,
        file: kfile.path.clone(),
        line,
        func: None,
        excerpt,
        chain: Vec::new(),
        waived: ws.is_waived(kfi, line, Rule::KernelContract.name()),
    };

    // `ALL` const must list every variant.
    let all_range = const_all_range(&kfile.tokens);
    // `as_str` / `build_validated` bodies.
    // `as_str` is a `KernelKind` method; `build_validated` is a free fn
    // in the real tree — accept either shape.
    let body_of = |name: &str| {
        kfile
            .items
            .iter()
            .find(|it| {
                it.name == name && (it.owner.as_deref() == Some("KernelKind") || it.owner.is_none())
            })
            .map(|it| (it.body, it.line))
    };
    let as_str = body_of("as_str");
    let build = body_of("build_validated");

    // Fuzz hook evidence: the fuzz crate iterating KernelKind::ALL
    // covers every variant at once.
    let fuzz_files: Vec<&super::SourceFile> = ws
        .files
        .iter()
        .filter(|f| f.path.contains("crates/fuzz/src"))
        .collect();
    let fuzz_iterates_all = fuzz_files.iter().any(|f| {
        f.tokens.windows(3).any(|w| {
            w[0].kind.is_ident("KernelKind")
                && w[1].kind.is_punct("::")
                && w[2].kind.is_ident("ALL")
        })
    });

    for (variant, vline) in &variants {
        match &all_range {
            Some((lo, hi, all_line)) => {
                let listed = kfile.tokens[*lo..*hi]
                    .iter()
                    .any(|t| t.kind.is_ident(variant));
                if !listed {
                    out.push(kf(
                        *all_line,
                        format!("KernelKind::{variant} is missing from KernelKind::ALL"),
                    ));
                }
            }
            None => out.push(kf(enum_line, "KernelKind::ALL const not found".to_string())),
        }
        for (fn_name, slot) in [("as_str", &as_str), ("build_validated", &build)] {
            match slot {
                Some(((open, close), fn_line)) if *open != usize::MAX => {
                    let covered = kfile.tokens[*open..=*close]
                        .iter()
                        .any(|t| t.kind.is_ident(variant));
                    if !covered {
                        out.push(kf(
                            *fn_line,
                            format!("KernelKind::{variant} has no arm in {fn_name}"),
                        ));
                    }
                }
                _ => out.push(kf(
                    enum_line,
                    format!("KernelKind::{fn_name} not found (needed for {variant})"),
                )),
            }
        }
        // Kernel type from the dispatch arm → defining file obligations.
        let Some(kernel_ty) = build.as_ref().and_then(|((open, close), _)| {
            kernel_type_of(
                &kfile.tokens[*open..=(*close).min(kfile.tokens.len() - 1)],
                variant,
            )
        }) else {
            continue; // missing dispatch arm already reported
        };
        let impl_file = ws.graph.fns.iter().find(|n| {
            n.item.name == "mttkrp"
                && n.item.owner.as_deref() == Some(kernel_ty.as_str())
                && n.item.trait_name.as_deref() == Some("MttkrpKernel")
        });
        let Some(impl_node) = impl_file else {
            out.push(kf(
                *vline,
                format!("{kernel_ty} (KernelKind::{variant}) has no MttkrpKernel::mttkrp impl"),
            ));
            continue;
        };
        let ifi = ws.file_index(&impl_node.path).unwrap_or(kfi);
        let itokens = &ws.files[ifi].tokens;
        let has_span = itokens.iter().any(|t| match &t.kind {
            TokenKind::Str(s) => s.contains("mttkrp/"),
            _ => false,
        });
        let has_write_sets = itokens.iter().any(|t| {
            t.kind
                .ident()
                .is_some_and(|w| w == "WriteSet" || w.ends_with("_write_sets"))
        });
        let iline = impl_node.item.line;
        let impl_finding = |excerpt: String| Finding {
            rule: Rule::KernelContract,
            file: impl_node.path.clone(),
            line: iline,
            func: Some(impl_node.item.qualified()),
            excerpt,
            chain: Vec::new(),
            waived: ws.is_waived(ifi, iline, Rule::KernelContract.name()),
        };
        if !has_span {
            out.push(impl_finding(format!(
                "{kernel_ty} (KernelKind::{variant}) has no \"mttkrp/…\" obs span"
            )));
        }
        if !has_write_sets {
            out.push(impl_finding(format!(
                "{kernel_ty} (KernelKind::{variant}) has no write-set derivation (checked.rs helper or WriteSet)"
            )));
        }
        if !fuzz_iterates_all {
            let named = fuzz_files
                .iter()
                .any(|f| f.tokens.iter().any(|t| t.kind.is_ident(variant)));
            if !named && !fuzz_files.is_empty() {
                out.push(kf(
                    *vline,
                    format!(
                        "KernelKind::{variant} has no fuzz differential hook (fuzz crate neither iterates ALL nor names it)"
                    ),
                ));
            }
        }
    }
    out
}

/// Finds `enum KernelKind { … }`: returns the unit-variant names with
/// their lines, and the enum's line.
fn enum_variants(tokens: &[crate::lexer::Token]) -> Option<(Vec<(String, usize)>, usize)> {
    let pos = tokens
        .windows(2)
        .position(|w| w[0].kind.is_ident("enum") && w[1].kind.is_ident("KernelKind"))?;
    let open = (pos..tokens.len()).find(|&i| tokens[i].kind.is_punct("{"))?;
    let close = crate::items::match_bracket(tokens, open, "{", "}");
    let mut variants = Vec::new();
    let mut i = open + 1;
    while i < close.min(tokens.len()) {
        match &tokens[i].kind {
            // Skip attributes on variants.
            TokenKind::Punct("#") if tokens.get(i + 1).is_some_and(|t| t.kind.is_punct("[")) => {
                i = crate::items::match_bracket(tokens, i + 1, "[", "]") + 1;
                continue;
            }
            TokenKind::Ident(name) => {
                let next = tokens.get(i + 1).map(|t| &t.kind);
                if matches!(
                    next,
                    Some(TokenKind::Punct(",")) | Some(TokenKind::Punct("}"))
                ) {
                    variants.push((name.clone(), tokens[i].line));
                }
            }
            _ => {}
        }
        i += 1;
    }
    Some((variants, tokens[pos].line))
}

/// Finds the token range of `const ALL … ;` and its line.
fn const_all_range(tokens: &[crate::lexer::Token]) -> Option<(usize, usize, usize)> {
    let pos = tokens
        .windows(2)
        .position(|w| w[0].kind.is_ident("const") && w[1].kind.is_ident("ALL"))?;
    // The terminating `;` is the first one outside brackets — the array
    // type `[KernelKind; N]` has one inside.
    let mut depth = 0i64;
    let mut end = tokens.len();
    for (i, tok) in tokens.iter().enumerate().skip(pos) {
        match &tok.kind {
            k if k.is_punct("[") || k.is_punct("(") => depth += 1,
            k if k.is_punct("]") || k.is_punct(")") => depth -= 1,
            k if k.is_punct(";") && depth == 0 => {
                end = i;
                break;
            }
            _ => {}
        }
    }
    Some((pos, end, tokens[pos].line))
}

/// In `build_validated`'s body, finds the `…Kernel` type constructed in
/// the arm whose pattern names `variant` — alone, or in an or-pattern
/// (`A | B => { … }`) when several variants dispatch to one type.
fn kernel_type_of(body: &[crate::lexer::Token], variant: &str) -> Option<String> {
    // The occurrence in pattern position: nothing but path segments and
    // `|` between it and the arm's `=>`.
    let arrow = (0..body.len())
        .filter(|&pos| body[pos].kind.is_ident(variant))
        .find_map(|pos| {
            let arrow = pos + body[pos..].iter().position(|t| t.kind.is_punct("=>"))?;
            body[pos..arrow]
                .iter()
                .all(|t| t.kind.ident().is_some() || t.kind.is_punct("::") || t.kind.is_punct("|"))
                .then_some(arrow)
        })?;
    // The arm: a brace block, or the expression up to the next arm's `=>`.
    let end = if body.get(arrow + 1).is_some_and(|t| t.kind.is_punct("{")) {
        crate::items::match_bracket(body, arrow + 1, "{", "}")
    } else {
        body[arrow + 1..]
            .iter()
            .position(|t| t.kind.is_punct("=>"))
            .map_or(body.len(), |p| arrow + 1 + p)
    };
    body[arrow + 1..end.min(body.len())]
        .iter()
        .filter_map(|t| t.kind.ident())
        .find(|w| w.ends_with("Kernel") && *w != "MttkrpKernel")
        .map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal two-variant registry with full wiring.
    fn wired() -> Vec<(&'static str, String)> {
        vec![
            (
                "crates/core/src/kernel.rs",
                "pub enum KernelKind { Coo, Bcoo }
                 impl KernelKind {
                     pub const ALL: [KernelKind; 2] = [KernelKind::Coo, KernelKind::Bcoo];
                     pub fn as_str(&self) -> &str { match self { KernelKind::Coo => \"coo\", KernelKind::Bcoo => \"bcoo\" } }
                     pub fn build_validated(&self) -> Box<dyn MttkrpKernel> {
                         match self {
                             KernelKind::Coo => Box::new(CooKernel),
                             KernelKind::Bcoo => Box::new(BcooKernel),
                         }
                     }
                 }"
                .to_string(),
            ),
            (
                "crates/core/src/coo.rs",
                "pub struct CooKernel; impl MttkrpKernel for CooKernel {
                     fn mttkrp(&self) { let _s = obs::span(\"mttkrp/coo\"); let w = WriteSet::new(0, 0..4); drop(w); }
                 }"
                .to_string(),
            ),
            (
                "crates/core/src/bcoo.rs",
                "pub struct BcooKernel; impl MttkrpKernel for BcooKernel {
                     fn mttkrp(&self) { let _s = obs::span(\"mttkrp/bcoo\"); let v = bcoo_row_write_sets(); drop(v); }
                 }"
                .to_string(),
            ),
            (
                "crates/fuzz/src/diff.rs",
                "pub fn sweep() { for kind in KernelKind::ALL { run(kind); } } fn run(_k: KernelKind) {}"
                    .to_string(),
            ),
        ]
    }

    fn ws_of(files: Vec<(&str, String)>) -> crate::passes::Workspace {
        crate::passes::Workspace::from_sources(
            &files
                .into_iter()
                .map(|(p, s)| (p.to_string(), s))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn fully_wired_registry_is_clean() {
        let f = run(&ws_of(wired()));
        assert!(f.is_empty(), "unexpected findings: {f:?}");
    }

    #[test]
    fn variant_missing_from_all_is_flagged() {
        let mut files = wired();
        files[0].1 = files[0].1.replace(
            "[KernelKind; 2] = [KernelKind::Coo, KernelKind::Bcoo]",
            "[KernelKind; 1] = [KernelKind::Coo]",
        );
        let f = run(&ws_of(files));
        assert!(f
            .iter()
            .any(|x| x.excerpt.contains("missing from KernelKind::ALL")));
    }

    #[test]
    fn missing_write_set_derivation_is_flagged() {
        let mut files = wired();
        files[2].1 = files[2]
            .1
            .replace("let v = bcoo_row_write_sets(); drop(v);", "");
        let f = run(&ws_of(files));
        assert_eq!(f.len(), 1);
        assert!(f[0].excerpt.contains("no write-set derivation"));
        assert_eq!(f[0].file, "crates/core/src/bcoo.rs");
    }

    #[test]
    fn missing_span_is_flagged() {
        let mut files = wired();
        files[1].1 = files[1]
            .1
            .replace("let _s = obs::span(\"mttkrp/coo\");", "");
        let f = run(&ws_of(files));
        assert_eq!(f.len(), 1);
        assert!(f[0].excerpt.contains("no \"mttkrp/…\" obs span"));
    }

    /// Several variants dispatching to one type through an or-pattern arm
    /// whose body is longer than any fixed look-ahead: each variant still
    /// resolves to the type, so each inherits its obligations.
    #[test]
    fn or_pattern_arm_resolves_every_variant_to_the_shared_type() {
        let mut files = wired();
        files[0].1 = files[0]
            .1
            .replace("{ Coo, Bcoo }", "{ Coo, Bcoo, Splatt, Mb }")
            .replace(
                "[KernelKind; 2] = [KernelKind::Coo, KernelKind::Bcoo]",
                "[KernelKind; 4] = [KernelKind::Coo, KernelKind::Bcoo, KernelKind::Splatt, KernelKind::Mb]",
            )
            .replace(
                "KernelKind::Bcoo => \"bcoo\"",
                "KernelKind::Bcoo => \"bcoo\", KernelKind::Splatt => \"splatt\", KernelKind::Mb => \"mb\"",
            )
            .replace(
                "KernelKind::Bcoo => Box::new(BcooKernel),",
                "KernelKind::Bcoo => Box::new(BcooKernel),
                 KernelKind::Splatt | KernelKind::Mb => {
                     let grid = matches!(self, KernelKind::Mb).then_some(cfg.grid);
                     let strip = matches!(self, KernelKind::Mb).then_some(cfg.strip_width);
                     let exec = cfg.exec.clone().with_recorder(cfg.exec.recorder.clone());
                     Box::new(BlockedKernel::new(coo, mode, grid, strip).with_exec(exec))
                 }",
            );
        let blocked = "pub struct BlockedKernel; impl MttkrpKernel for BlockedKernel {
                           fn mttkrp(&self) { let _s = obs::span(\"mttkrp/MB\"); let v = row_task_write_sets(); drop(v); }
                       }";
        files.push(("crates/core/src/blocked.rs", blocked.to_string()));
        let f = run(&ws_of(files.clone()));
        assert!(f.is_empty(), "unexpected findings: {f:?}");

        files[4].1 = blocked.replace("let _s = obs::span(\"mttkrp/MB\");", "");
        let f = run(&ws_of(files));
        assert_eq!(f.len(), 2, "one finding per variant: {f:?}");
        assert!(f[0].excerpt.contains("BlockedKernel (KernelKind::Splatt)"));
        assert!(f[1].excerpt.contains("BlockedKernel (KernelKind::Mb)"));
    }

    #[test]
    fn missing_dispatch_arm_is_flagged() {
        let mut files = wired();
        files[0].1 = files[0]
            .1
            .replace("KernelKind::Bcoo => Box::new(BcooKernel),", "");
        let f = run(&ws_of(files));
        assert!(f
            .iter()
            .any(|x| x.excerpt.contains("no arm in build_validated")));
    }

    #[test]
    fn fuzz_hook_via_named_variant_when_not_iterating_all() {
        let mut files = wired();
        files[3].1 =
            "pub fn sweep() { run(KernelKind::Coo); } fn run(_k: KernelKind) {}".to_string();
        let f = run(&ws_of(files));
        assert_eq!(f.len(), 1);
        assert!(f[0].excerpt.contains("no fuzz differential hook"));
        assert!(f[0].excerpt.contains("Bcoo"));
    }
}
