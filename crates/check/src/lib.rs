//! # tenblock-check
//!
//! Correctness analysis for the tenblock workspace, in three layers:
//!
//! 1. **Write-set race detection** ([`writeset`]): every parallel MTTKRP
//!    task declares the output-row range it owns plus the rows it will
//!    actually touch; [`check_write_sets`] verifies the claims are pairwise
//!    disjoint, jointly cover the output, and that no task writes outside
//!    its claim. Violations come back as a structured [`RaceReport`]
//!    instead of silently corrupt numbers.
//! 2. **Blocking-invariant oracles** ([`oracle`]): pure functions over
//!    plain data validating an MB grid (bounds tile each axis, every
//!    nonzero sits inside exactly one block), a RankB strip plan (strips
//!    tile `[0, rank)`, register chunks never exceed `N_RegB`), and a
//!    tuner output (block counts achievable for the tensor shape).
//! 3. **Workspace lint** ([`lint`]): a zero-dependency static-analysis
//!    framework. A token-level Rust lexer ([`lexer`]) feeds a lightweight
//!    item parser ([`items`]) and a conservative intra-workspace call
//!    graph ([`callgraph`]); the rule pass ([`passes`]) runs on top of the
//!    shared token streams: panic-reachability with call-chain witnesses.
//!    Rules a single line can decide (unwraps, docs, raw locks, in-place
//!    file writes, narrowing casts) are rustc and clippy lints instead.
//!
//! The crate has no dependencies (not even on `tenblock-tensor`), so
//! `tenblock-core` can depend on it without a cycle: kernels translate
//! their internal state into the plain-data vocabulary here.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod items;
pub mod lexer;
pub mod lint;
pub mod oracle;
pub mod passes;
pub mod writeset;

pub use lint::{
    baseline_json, diff_baseline, lint_sources, lint_workspace, parse_baseline_keys, to_json,
    BaselineDiff, ChainHop, Finding, LintReport, Rule,
};
pub use oracle::{
    check_bounds_tiling, check_grid_blocks, check_strip_plan, check_tune_grid, GridBlock,
    OracleError,
};
pub use writeset::{check_write_sets, write_set_violations, RaceReport, Violation, WriteSet};
