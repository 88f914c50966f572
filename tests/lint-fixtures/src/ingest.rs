//! The untrusted-input denies at the top of `tenblock-tensor`'s `io.rs`,
//! `io_bin.rs` and `cell_grid.rs` (and on the tile store's `open`,
//! `validate_bytes` and `load_tile` path): one seeded violation per lint.

#![deny(
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::unreachable
)]

/// `clippy::indexing_slicing`: a field read by index from a line that may
/// be short.
pub fn fixture_index(fields: &[u64]) -> u64 {
    fields[2]
}

/// `clippy::panic`.
pub fn fixture_panic(version: u32) -> u32 {
    if version > 2 {
        panic!("unsupported version {version}");
    }
    version
}

/// `clippy::unreachable`.
pub fn fixture_unreachable(version: u32) -> u32 {
    match version {
        1 | 2 => version,
        _ => unreachable!("checked by the header reader"),
    }
}

/// `clippy::unwrap_used`.
pub fn fixture_unwrap(token: &str) -> u64 {
    token.parse().unwrap()
}

/// `clippy::expect_used`.
pub fn fixture_expect(token: &str) -> u64 {
    token.parse().expect("a number")
}
