//! Blocking-invariant oracles: pure checks over plain data.
//!
//! The paper's speedups rest on partitions being *exact*: an MB grid must
//! place every nonzero in exactly one block whose factor-row footprint
//! matches the grid bounds (Section V-A), a RankB strip plan must tile the
//! rank with register chunks no wider than `N_RegB` (Algorithm 2), and a
//! tuned configuration must be achievable for the tensor shape. These
//! functions verify those invariants from first principles, independently of
//! the code that built the structures: `BlockGrid::validate` and
//! `TuneResult::validate` translate their internals into the plain slices
//! taken here.

/// A failed oracle check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleError {
    /// Which oracle failed (stable identifier, e.g. `"grid-bounds"`).
    pub check: &'static str,
    /// Human-readable description of the failure.
    pub detail: String,
}

impl std::fmt::Display for OracleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.check, self.detail)
    }
}

impl std::error::Error for OracleError {}

fn fail(check: &'static str, detail: String) -> Result<(), OracleError> {
    Err(OracleError { check, detail })
}

/// Verifies that `bounds` tiles `[0, dim)`: starts at 0, ends at `dim`,
/// and never decreases (empty blocks are legal; reordering is not).
fn check_bounds_tiling(axis: usize, bounds: &[usize], dim: usize) -> Result<(), OracleError> {
    const CHECK: &str = "grid-bounds";
    if bounds.len() < 2 {
        return fail(CHECK, format!("axis {axis}: fewer than two boundaries"));
    }
    if bounds[0] != 0 {
        return fail(
            CHECK,
            format!("axis {axis}: first boundary is {}, not 0", bounds[0]),
        );
    }
    if *bounds.last().unwrap_or(&0) != dim {
        return fail(
            CHECK,
            format!(
                "axis {axis}: last boundary is {}, not the axis length {dim}",
                bounds.last().copied().unwrap_or(0)
            ),
        );
    }
    for w in bounds.windows(2) {
        if w[1] < w[0] {
            return fail(
                CHECK,
                format!("axis {axis}: boundaries decrease ({} -> {})", w[0], w[1]),
            );
        }
    }
    Ok(())
}

/// One MB grid block, flattened to plain data: its grid coordinates and the
/// kernel-axis index triples of every nonzero it holds.
#[derive(Debug, Clone)]
pub struct GridBlock {
    /// Block coordinates `(a, b, c)` in kernel axes.
    pub coords: [usize; 3],
    /// Kernel-axis indices `[slice, j, k]` of each nonzero in the block.
    pub entries: Vec<[usize; 3]>,
}

/// Verifies an MB grid: every axis' bounds tile the axis, every block's
/// nonzeros sit inside that block's box, and the blocks jointly hold
/// exactly `nnz` nonzeros (so, with disjoint boxes, every nonzero maps to
/// exactly one block).
///
/// `dims` are the axis lengths in *kernel* axes (slice, `j`, `k`).
pub fn check_grid_blocks(
    dims: [usize; 3],
    bounds: [&[usize]; 3],
    nnz: usize,
    blocks: &[GridBlock],
) -> Result<(), OracleError> {
    const CHECK: &str = "grid-blocks";
    for ax in 0..3 {
        check_bounds_tiling(ax, bounds[ax], dims[ax])?;
    }
    let mut held = 0usize;
    for block in blocks {
        for (ax, axis_bounds) in bounds.iter().enumerate() {
            if block.coords[ax] + 1 >= axis_bounds.len() {
                return fail(
                    CHECK,
                    format!(
                        "block {:?}: coordinate {} exceeds the axis-{ax} grid",
                        block.coords, block.coords[ax]
                    ),
                );
            }
        }
        held += block.entries.len();
        for e in &block.entries {
            for ax in 0..3 {
                let lo = bounds[ax][block.coords[ax]];
                let hi = bounds[ax][block.coords[ax] + 1];
                if e[ax] < lo || e[ax] >= hi {
                    return fail(
                        CHECK,
                        format!(
                            "block {:?}: nonzero at {:?} falls outside its \
                             axis-{ax} range {lo}..{hi}",
                            block.coords, e
                        ),
                    );
                }
            }
        }
    }
    if held != nnz {
        return fail(
            CHECK,
            format!("blocks hold {held} nonzeros, tensor has {nnz}"),
        );
    }
    Ok(())
}

/// Verifies a RankB strip plan: the `(col0, width)` strips tile `[0, rank)`
/// in order with no gap or overlap, and the register chunks implied by each
/// strip never exceed `reg_block` columns (the paper's `N_RegB`).
pub fn check_strip_plan(
    rank: usize,
    strips: &[(usize, usize)],
    reg_block: usize,
) -> Result<(), OracleError> {
    const CHECK: &str = "strip-plan";
    if reg_block == 0 {
        return fail(CHECK, "register block width is zero".to_string());
    }
    if rank == 0 {
        return if strips.is_empty() {
            Ok(())
        } else {
            fail(CHECK, "strips declared for a zero-rank output".to_string())
        };
    }
    let mut cursor = 0usize;
    for &(col0, width) in strips {
        if col0 != cursor {
            return fail(
                CHECK,
                format!("strip at column {col0} but the previous strip ended at {cursor}"),
            );
        }
        if width == 0 {
            return fail(CHECK, format!("empty strip at column {col0}"));
        }
        // Register chunking: full chunks of `reg_block`, then a remainder.
        let remainder = width % reg_block;
        let widest = if width >= reg_block { reg_block } else { width };
        if widest.max(remainder) > reg_block {
            return fail(
                CHECK,
                format!("strip at column {col0} implies a register chunk wider than {reg_block}"),
            );
        }
        cursor += width;
    }
    if cursor != rank {
        return fail(
            CHECK,
            format!("strips cover columns 0..{cursor}, rank is {rank}"),
        );
    }
    Ok(())
}

/// Verifies a tuner output: every block count must be achievable for the
/// kernel-axis lengths (at least one, at most the axis length), and the
/// strip width must fit the rank it was tuned for.
pub fn check_tune_grid(
    dims: [usize; 3],
    grid: [usize; 3],
    strip_width: usize,
    rank: usize,
) -> Result<(), OracleError> {
    const CHECK: &str = "tune-result";
    for ax in 0..3 {
        if grid[ax] == 0 {
            return fail(CHECK, format!("axis {ax}: zero blocks selected"));
        }
        if grid[ax] > dims[ax].max(1) {
            return fail(
                CHECK,
                format!(
                    "axis {ax}: {} blocks selected for an axis of length {}",
                    grid[ax], dims[ax]
                ),
            );
        }
    }
    if strip_width == 0 {
        return fail(CHECK, "zero strip width selected".to_string());
    }
    if strip_width > rank.max(1) {
        return fail(
            CHECK,
            format!("strip width {strip_width} selected for rank {rank}"),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_tiling_accepts_uniform_and_empty_blocks() {
        assert!(check_bounds_tiling(0, &[0, 3, 6, 10], 10).is_ok());
        assert!(check_bounds_tiling(1, &[0, 4, 4, 9], 9).is_ok());
    }

    #[test]
    fn bounds_tiling_rejects_bad_ends_and_order() {
        assert!(check_bounds_tiling(0, &[1, 5, 10], 10).is_err());
        assert!(check_bounds_tiling(0, &[0, 5, 9], 10).is_err());
        assert!(check_bounds_tiling(0, &[0, 6, 5, 10], 10).is_err());
        assert!(check_bounds_tiling(0, &[0], 0).is_err());
    }

    #[test]
    fn grid_blocks_pass_when_partition_is_exact() {
        let blocks = vec![
            GridBlock {
                coords: [0, 0, 0],
                entries: vec![[0, 1, 0], [1, 0, 1]],
            },
            GridBlock {
                coords: [1, 0, 0],
                entries: vec![[2, 1, 1]],
            },
        ];
        let b0 = [0usize, 2, 4];
        let b1 = [0usize, 2];
        let b2 = [0usize, 2];
        assert!(check_grid_blocks([4, 2, 2], [&b0, &b1, &b2], 3, &blocks).is_ok());
    }

    #[test]
    fn grid_blocks_catch_escaped_nonzero_and_lost_nonzero() {
        let b0 = [0usize, 2, 4];
        let b1 = [0usize, 2];
        let b2 = [0usize, 2];
        // Row 2 inside block row 0 (box is 0..2): escaped.
        let escaped = vec![GridBlock {
            coords: [0, 0, 0],
            entries: vec![[2, 0, 0]],
        }];
        let err = check_grid_blocks([4, 2, 2], [&b0, &b1, &b2], 1, &escaped).unwrap_err();
        assert_eq!(err.check, "grid-blocks");
        assert!(err.detail.contains("outside"), "{err}");
        // Count mismatch: a nonzero fell out of every block.
        let lost = vec![GridBlock {
            coords: [0, 0, 0],
            entries: vec![[0, 0, 0]],
        }];
        let err = check_grid_blocks([4, 2, 2], [&b0, &b1, &b2], 2, &lost).unwrap_err();
        assert!(err.detail.contains("hold 1"), "{err}");
    }

    #[test]
    fn strip_plan_tiles_exactly() {
        assert!(check_strip_plan(37, &[(0, 16), (16, 16), (32, 5)], 16).is_ok());
        assert!(check_strip_plan(8, &[(0, 8)], 16).is_ok());
        assert!(check_strip_plan(0, &[], 16).is_ok());
    }

    #[test]
    fn strip_plan_rejects_gap_overlap_and_short_cover() {
        assert!(check_strip_plan(32, &[(0, 16), (17, 15)], 16).is_err());
        assert!(check_strip_plan(32, &[(0, 16), (15, 17)], 16).is_err());
        assert!(check_strip_plan(32, &[(0, 16)], 16).is_err());
        assert!(check_strip_plan(4, &[(0, 0), (0, 4)], 16).is_err());
    }

    #[test]
    fn tune_grid_achievability() {
        assert!(check_tune_grid([10, 20, 30], [2, 4, 8], 16, 32).is_ok());
        assert!(check_tune_grid([10, 20, 30], [11, 1, 1], 16, 32).is_err());
        assert!(check_tune_grid([10, 20, 30], [0, 1, 1], 16, 32).is_err());
        assert!(check_tune_grid([10, 20, 30], [1, 1, 1], 0, 32).is_err());
        assert!(check_tune_grid([10, 20, 30], [1, 1, 1], 33, 32).is_err());
        // Rank-sized single strip is always legal, even for rank 0 axes.
        assert!(check_tune_grid([10, 0, 30], [1, 1, 1], 1, 1).is_ok());
    }
}
