//! Workspace static-analysis driver.
//!
//! v2 of the lint: instead of a line-oriented scan with ad-hoc lexical
//! state, every `.rs` file is lexed once ([`crate::lexer`]), parsed
//! into `fn` items ([`crate::items`]), and linked into a conservative
//! call graph ([`crate::callgraph`]); the rule passes
//! ([`crate::passes`]) run over that shared model. Still zero
//! dependencies — no `syn`, in the spirit of the `shims/` philosophy.
//!
//! The one enforced rule follows calls across functions, which rustc and
//! clippy cannot:
//!
//! * `panic-reach` — declared boundary roots (ingest parsing, tile
//!   store validation, the kernel launch, the serve request loop) must not
//!   transitively reach a panic site; findings carry the witness chain.
//!   Replaces v1's file-scoped `no-panic-ingest`.
//!
//! The line rules live in the compiler: `#![deny(clippy::unwrap_used,
//! clippy::expect_used)]` (core, serve), `#![deny(missing_docs)]` (core),
//! `#![deny(clippy::cast_possible_truncation)]` (tensor), and
//! `clippy.toml`'s `disallowed-methods` for raw lock calls (workspace)
//! and in-place file writes (tensor, serve). Serve's lock order and its
//! no-I/O-under-a-lock rule are debug assertions in its `sync.rs`.
//!
//! A finding can be waived in place with a trailing
//! `// lint: allow(<rule>[, <rule>…])` comment; waived findings are
//! reported but do not fail the lint. [`to_json`] renders the stable
//! machine-readable schema, and the baseline helpers ([`baseline_json`],
//! [`parse_baseline_keys`], [`diff_baseline`]) implement the CI gate:
//! new findings fail, disappeared baseline entries warn.

use crate::passes::{self, Workspace};
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

/// The enforced rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Boundary roots must not transitively reach a panic site.
    PanicReach,
}

impl Rule {
    /// All rules, in reporting order.
    pub const ALL: [Rule; 1] = [Rule::PanicReach];

    /// Stable rule name, as used in `lint: allow(...)` waivers and the
    /// JSON schema.
    pub fn name(self) -> &'static str {
        match self {
            Rule::PanicReach => "panic-reach",
        }
    }
}

/// One hop of a panic-reachability call-chain witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainHop {
    /// Qualified function name (`Owner::fn` or free `fn`).
    pub func: String,
    /// File defining the function, workspace-relative.
    pub file: String,
    /// Line of the call into the next hop (last hop: the site itself).
    pub line: usize,
}

/// One lint hit.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// File path relative to the linted root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Containing function (qualified), when the finding sits in one.
    pub func: Option<String>,
    /// The offending line (trimmed), or a synthesized description for
    /// structural findings.
    pub excerpt: String,
    /// Witness chain from a boundary root to the site (may be empty).
    pub chain: Vec<ChainHop>,
    /// Whether a `lint: allow(...)` waiver covers this finding.
    pub waived: bool,
}

impl Finding {
    /// Stable identity for baseline matching. Deliberately excludes the
    /// line number so unrelated edits above a legacy finding don't read
    /// as "new finding" in CI.
    pub fn key(&self) -> String {
        format!(
            "{}|{}|{}|{}",
            self.rule.name(),
            self.file,
            self.func.as_deref().unwrap_or(""),
            self.excerpt
        )
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}{}] {}",
            self.file,
            self.line,
            self.rule.name(),
            if self.waived { ", waived" } else { "" },
            self.excerpt
        )?;
        if self.chain.len() > 1 {
            for hop in &self.chain {
                write!(f, "\n    via {}:{}: {}", hop.file, hop.line, hop.func)?;
            }
        }
        Ok(())
    }
}

/// Result of a workspace lint run.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Every finding, waived or not, in file/line order.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// Findings that fail the lint (not waived).
    pub fn failing(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.waived)
    }

    /// Findings covered by a waiver.
    pub fn waived(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.waived)
    }

    /// Whether the lint passes (no unwaived findings).
    pub fn is_clean(&self) -> bool {
        self.failing().next().is_none()
    }
}

impl std::fmt::Display for LintReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for finding in &self.findings {
            writeln!(f, "{finding}")?;
        }
        write!(
            f,
            "{} file(s) scanned, {} finding(s) ({} waived)",
            self.files_scanned,
            self.failing().count(),
            self.waived().count()
        )
    }
}

/// Whether `dir` holds a package that is its own workspace (the lint
/// fixtures): it is not part of the workspace being linted.
fn is_nested_workspace(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml"))
        .is_ok_and(|manifest| manifest.lines().any(|l| l.trim() == "[workspace]"))
}

/// Recursively collects `.rs` files under `root`, skipping build output,
/// VCS metadata, hidden directories, and nested workspaces.
fn rust_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') || is_nested_workspace(&path) {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lints `(path, source)` pairs directly — the testable core of
/// [`lint_workspace`]. Paths should be workspace-relative.
pub fn lint_sources(sources: &[(String, String)]) -> LintReport {
    let ws = Workspace::from_sources(sources);
    let mut findings = passes::panic_reach::run(&ws);
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.name()).cmp(&(b.file.as_str(), b.line, b.rule.name()))
    });
    LintReport {
        findings,
        files_scanned: sources.len(),
    }
}

/// Lints every `.rs` file under `root`.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let mut sources = Vec::new();
    for path in rust_files(root)? {
        let text = std::fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, text));
    }
    Ok(lint_sources(&sources))
}

// ---------------------------------------------------------------------
// JSON output + baseline gate (hand-rolled: the crate stays
// dependency-free).
// ---------------------------------------------------------------------

/// Escapes a string for JSON.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the stable machine-readable report schema (version 1):
///
/// ```json
/// {"version":1,"files_scanned":N,"findings":[
///   {"rule":"…","path":"…","line":N,"func":"…"|null,"excerpt":"…",
///    "waived":bool,"key":"…","chain":[{"func":"…","path":"…","line":N}]}
/// ]}
/// ```
pub fn to_json(report: &LintReport) -> String {
    let mut out = String::from("{\"version\":1,");
    out.push_str(&format!("\"files_scanned\":{},", report.files_scanned));
    out.push_str("\"findings\":[");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"func\":{},\"excerpt\":\"{}\",\"waived\":{},\"key\":\"{}\",\"chain\":[",
            f.rule.name(),
            esc(&f.file),
            f.line,
            match &f.func {
                Some(n) => format!("\"{}\"", esc(n)),
                None => "null".to_string(),
            },
            esc(&f.excerpt),
            f.waived,
            esc(&f.key()),
        ));
        for (j, hop) in f.chain.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"func\":\"{}\",\"path\":\"{}\",\"line\":{}}}",
                esc(&hop.func),
                esc(&hop.file),
                hop.line
            ));
        }
        out.push_str("]}");
    }
    out.push_str("\n]}\n");
    out
}

/// Renders the baseline file for the current report: the keys of every
/// finding (waived ones included — they stay visible until the waiver
/// is removed and the baseline shrunk).
pub fn baseline_json(report: &LintReport) -> String {
    let mut keys: Vec<String> = report.findings.iter().map(|f| f.key()).collect();
    keys.sort();
    keys.dedup();
    let mut out = String::from("{\"version\":1,\"entries\":[");
    for (i, k) in keys.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n  {{\"key\":\"{}\"}}", esc(k)));
    }
    out.push_str("\n]}\n");
    out
}

/// Extracts the entry keys from a baseline file. Tolerant by design: it
/// scans for `"key":"…"` pairs and un-escapes the values, so hand edits
/// that keep that shape keep working.
pub fn parse_baseline_keys(text: &str) -> BTreeSet<String> {
    let mut keys = BTreeSet::new();
    let bytes = text.as_bytes();
    let needle = b"\"key\"";
    let mut i = 0usize;
    while i + needle.len() <= bytes.len() {
        if &bytes[i..i + needle.len()] != needle {
            i += 1;
            continue;
        }
        i += needle.len();
        // Skip `:` and whitespace to the opening quote.
        while i < bytes.len() && (bytes[i] as char).is_whitespace() || bytes.get(i) == Some(&b':') {
            i += 1;
        }
        if bytes.get(i) != Some(&b'"') {
            continue;
        }
        i += 1;
        let mut val = String::new();
        while i < bytes.len() {
            match bytes[i] {
                b'"' => break,
                b'\\' => {
                    match bytes.get(i + 1) {
                        Some(b'n') => val.push('\n'),
                        Some(b't') => val.push('\t'),
                        Some(b'r') => val.push('\r'),
                        Some(&c) => val.push(c as char),
                        None => {}
                    }
                    i += 2;
                    continue;
                }
                _ => {
                    // Multi-byte UTF-8: copy the full scalar.
                    let s = &text[i..];
                    let c = s.chars().next().unwrap_or('\u{fffd}');
                    val.push(c);
                    i += c.len_utf8();
                    continue;
                }
            }
        }
        keys.insert(val);
        i += 1;
    }
    keys
}

/// Result of diffing a report against the checked-in baseline.
#[derive(Debug, Default)]
pub struct BaselineDiff {
    /// Unwaived findings not present in the baseline — these fail CI.
    pub new: Vec<Finding>,
    /// Baseline keys no longer matched by any finding — newly fixed;
    /// warn so the baseline gets shrunk.
    pub fixed: Vec<String>,
}

/// Diffs `report` against `baseline` keys.
pub fn diff_baseline(report: &LintReport, baseline: &BTreeSet<String>) -> BaselineDiff {
    let current: BTreeSet<String> = report.findings.iter().map(|f| f.key()).collect();
    BaselineDiff {
        new: report
            .failing()
            .filter(|f| !baseline.contains(&f.key()))
            .cloned()
            .collect(),
        fixed: baseline.difference(&current).cloned().collect(),
    }
}

/// Test helper: builds a [`Workspace`] from `(path, source)` literals.
#[cfg(test)]
pub mod test_util {
    use crate::passes::Workspace;

    /// Builds a workspace from static `(path, source)` pairs.
    pub fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::from_sources(
            &files
                .iter()
                .map(|(p, s)| (p.to_string(), s.to_string()))
                .collect::<Vec<_>>(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sources(files: &[(&str, &str)]) -> Vec<(String, String)> {
        files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect()
    }

    const KERNEL: &str = "crates/core/src/kernel.rs";
    /// A kernel launch (a boundary root) that unwraps.
    const PANIC_AT_ROOT: &str = "pub fn launch(o: Option<u32>) -> u32 {\n    o.unwrap()\n}\n";

    #[test]
    fn report_lists_findings_and_counts_files() {
        let report = lint_sources(&sources(&[
            (
                "crates/serve/src/registry.rs",
                "impl Registry { fn len(&self) -> usize { self.n.unwrap_or(0) } }\n",
            ),
            (KERNEL, PANIC_AT_ROOT),
        ]));
        let rules: Vec<&str> = report.findings.iter().map(|f| f.rule.name()).collect();
        assert_eq!(rules, vec!["panic-reach"]);
        assert_eq!(report.files_scanned, 2);
        assert!(!report.is_clean());
    }

    #[test]
    fn json_schema_is_stable() {
        let report = lint_sources(&sources(&[(
            "crates/core/src/kernel.rs",
            "// D.\npub fn launch(o: Option<u32>) -> u32 { o.unwrap() }\n",
        )]));
        let json = to_json(&report);
        assert!(json.starts_with("{\"version\":1,"));
        assert!(json.contains("\"rule\":\"panic-reach\""));
        assert!(json.contains("\"path\":\"crates/core/src/kernel.rs\""));
        assert!(json.contains("\"line\":2"));
        assert!(json.contains("\"func\":\"launch\""));
        assert!(json.contains("\"waived\":false"));
        assert!(json.contains("\"key\":\"panic-reach|crates/core/src/kernel.rs|launch|"));
    }

    #[test]
    fn panic_reach_chain_appears_in_json() {
        let report = lint_sources(&sources(&[(
            "crates/tensor/src/io.rs",
            "pub fn read_tns(t: &str) -> u32 { helper(t) }\nfn helper(t: &str) -> u32 { t.parse().unwrap() }\n",
        )]));
        let json = to_json(&report);
        assert!(json.contains("\"rule\":\"panic-reach\""));
        assert!(json.contains("\"chain\":[{\"func\":\"read_tns\""));
    }

    #[test]
    fn baseline_roundtrip_and_diff() {
        let report = lint_sources(&sources(&[(KERNEL, PANIC_AT_ROOT)]));
        let baseline = parse_baseline_keys(&baseline_json(&report));
        assert_eq!(baseline.len(), 1);
        // Same findings → nothing new, nothing fixed.
        let d = diff_baseline(&report, &baseline);
        assert!(d.new.is_empty() && d.fixed.is_empty());
        // Empty report → baseline entry is newly fixed.
        let clean = lint_sources(&sources(&[(
            KERNEL,
            "pub fn launch(o: Option<u32>) -> u32 { o.unwrap_or(0) }\n",
        )]));
        let d = diff_baseline(&clean, &baseline);
        assert!(d.new.is_empty());
        assert_eq!(d.fixed.len(), 1);
        // New finding against empty baseline → fails.
        let d = diff_baseline(&report, &BTreeSet::new());
        assert_eq!(d.new.len(), 1);
    }

    #[test]
    fn baseline_key_survives_line_drift() {
        let before = lint_sources(&sources(&[(KERNEL, PANIC_AT_ROOT)]));
        let drifted = format!("// a new comment shifting everything down\n\n{PANIC_AT_ROOT}");
        let after = lint_sources(&sources(&[(KERNEL, &drifted)]));
        assert_eq!(before.findings[0].key(), after.findings[0].key());
        assert_ne!(before.findings[0].line, after.findings[0].line);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let keys = parse_baseline_keys("{\"entries\":[{\"key\":\"x\\\"y\"}]}");
        assert!(keys.contains("x\"y"));
    }

    #[test]
    fn waived_finding_does_not_fail() {
        let report = lint_sources(&sources(&[(
            "crates/core/src/kernel.rs",
            "pub fn launch(o: Option<u32>) -> u32 { o.unwrap() } // lint: allow(panic-reach)\n",
        )]));
        assert_eq!(report.findings.len(), 1);
        assert!(report.is_clean());
    }

    #[test]
    fn display_includes_chain_hops() {
        let report = lint_sources(&sources(&[(
            "crates/tensor/src/io.rs",
            "pub fn read_tns(t: &str) -> u32 { helper(t) }\nfn helper(t: &str) -> u32 { t.parse().unwrap() }\n",
        )]));
        let text = format!("{report}");
        assert!(text.contains("via crates/tensor/src/io.rs"), "{text}");
    }
}
