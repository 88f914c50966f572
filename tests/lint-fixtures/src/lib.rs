//! One seeded violation per rule the workspace hands to rustc and clippy.
//! `check.sh` runs clippy over this package under each of the
//! workspace's `clippy.toml` files and fails unless every lint named
//! below fires where it should.

// The lint attributes at the `tenblock-core` root.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(missing_docs)]
// The lint attribute at the `tenblock-tensor` root.
#![deny(clippy::cast_possible_truncation)]

pub mod ingest;

use std::fs::{File, OpenOptions};
use std::sync::Mutex;

/// `clippy::unwrap_used`.
pub fn fixture_unwrap(o: Option<u32>) -> u32 {
    o.unwrap()
}

/// `clippy::expect_used`.
pub fn fixture_expect(o: Option<u32>) -> u32 {
    o.expect("seeded")
}

// `missing_docs`: a public fn without a doc comment.
pub fn fixture_undocumented() {}

/// `clippy::disallowed_methods` under every `clippy.toml`: a raw lock
/// outside a poison-recovering wrapper.
pub fn fixture_raw_lock(m: &Mutex<u32>) -> u32 {
    *m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// `clippy::disallowed_methods` under the tensor and serve `clippy.toml`s
/// only: files written in place instead of through `AtomicFile`.
pub fn fixture_in_place_writes(path: &str) -> std::io::Result<()> {
    std::fs::write(path, b"x")?;
    File::create(path)?;
    OpenOptions::new().append(true).open(path)?;
    Ok(())
}

/// `clippy::cast_possible_truncation`: a linearized block id narrowed
/// unchecked, the shape of a bug that once aliased BCOO blocks on grids
/// of 2^32 cells or more.
pub fn fixture_narrowed_block_id(a: usize, nb: usize, b: usize) -> u32 {
    (a * nb + b) as u32
}

/// `unfulfilled_lint_expectations`: a waiver whose lint no longer fires.
#[expect(clippy::unwrap_used, reason = "stale on purpose")]
pub fn fixture_stale_waiver() -> u32 {
    1
}
