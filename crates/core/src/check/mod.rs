//! Checked execution: what a launch verifies before any task runs, under
//! [`crate::Threads::Checked`] or through
//! [`crate::MttkrpKernel::mttkrp_checked`].
//!
//! Two layers, both pure functions over plain data:
//!
//! 1. **Write-set race detection** ([`writeset`]): every kernel declares
//!    its launch as row tasks, each owning a contiguous range of output
//!    rows, and says which rows each task's body will actually touch —
//!    read from the tensor data (slice ids, block contents, entry rows),
//!    independently of the partition arithmetic behind the claim.
//!    [`write_sets`] turns both halves into [`WriteSet`]s, so a drifted
//!    boundary in the real structures shows up as a [`Violation`] in a
//!    [`RaceReport`] before any task runs.
//! 2. **Blocking-invariant oracles** ([`oracle`]): an MB grid's bounds tile
//!    each axis and every nonzero sits inside exactly one block; a RankB
//!    strip plan tiles `[0, rank)` with register chunks no wider than
//!    `N_RegB`; a tuner output is achievable for the tensor shape.

pub mod oracle;
pub mod writeset;

pub use oracle::{check_grid_blocks, check_strip_plan, check_tune_grid, GridBlock, OracleError};
pub use writeset::{check_write_sets, write_set_violations, RaceReport, Violation, WriteSet};

use crate::kernel::{RowKernel, RowTask};

/// Verifies a launch of `tasks` into `out_rows` rows at `rank` columns:
/// the kernel's oracle (as a [`Violation::Invariant`], first), then the
/// tasks' write sets.
pub(crate) fn verify<K: RowKernel>(
    k: &K,
    tasks: &[RowTask<K::Payload>],
    out_rows: usize,
    rank: usize,
) -> Result<(), RaceReport> {
    let mut violations: Vec<Violation> = k
        .oracle(rank)
        .err()
        .map(|e| Violation::Invariant {
            detail: e.to_string(),
        })
        .into_iter()
        .collect();
    violations.extend(write_set_violations(out_rows, &write_sets(k, tasks)));
    RaceReport::check(k.name(), violations)
}

/// The write sets of a launch: task `i` owns `tasks[i].rows` and touches
/// [`RowKernel::touched_rows`].
pub(crate) fn write_sets<K: RowKernel>(k: &K, tasks: &[RowTask<K::Payload>]) -> Vec<WriteSet> {
    tasks
        .iter()
        .enumerate()
        .map(|(i, task)| WriteSet::new(i, task.rows.clone()).touch_all(k.touched_rows(task)))
        .collect()
}

/// The `(col0, width)` strips a launch at `rank` columns executes at
/// `strip_width` (`usize::MAX`: one full-rank strip; none at rank 0).
pub(crate) fn effective_strip_plan(rank: usize, strip_width: usize) -> Vec<(usize, usize)> {
    let mut plan = Vec::new();
    let mut col0 = 0usize;
    while col0 < rank {
        let width = strip_width.min(rank - col0);
        plan.push((col0, width));
        col0 += width;
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockGrid, BlockedKernel};
    use crate::exec::ExecPolicy;
    use crate::mttkrp::REG_BLOCK;
    use std::sync::Arc;
    use tenblock_tensor::gen::uniform_tensor;

    /// The write sets a launch of `k` into `out_rows` rows would check.
    fn sets_of<K: RowKernel>(k: &K, out_rows: usize) -> Vec<WriteSet> {
        write_sets(k, &k.row_tasks(out_rows))
    }

    #[test]
    fn one_uncompressed_block_touches_exactly_its_claims() {
        let x = uniform_tensor([10, 6, 6], 100, 3);
        // Three workers: 10 rows in pieces of ceil(10 / 12) = 1 row.
        let k = BlockedKernel::new(&x, 0, None, None).with_exec(ExecPolicy::fixed(3));
        let sets = sets_of(&k, 10);
        assert_eq!(sets.len(), 10);
        assert_eq!(sets[4].owned, 4..5);
        // 100 nonzeros over 10 rows leave no row empty.
        for set in &sets {
            assert_eq!(set.touched, set.owned.clone().collect::<Vec<_>>());
        }
        assert!(check_write_sets("SPLATT", 10, &sets).is_ok());
    }

    #[test]
    fn a_row_stored_outside_its_block_row_is_touched_not_dropped() {
        // Block row 1 of the healthy grid stores rows 4..8. With the
        // boundary moved to 5 its first piece still touches row 4, which
        // is now task 0's — whatever the piece height.
        let x = uniform_tensor([12, 8, 8], 500, 7);
        let kernel = |shifted: bool, exec: &ExecPolicy| {
            let mut grid = BlockGrid::new(&x, 0, [3, 2, 2]);
            assert_eq!(grid.bounds(0), [0, 4, 8, 12]);
            if shifted {
                grid.shift_bound_for_test(0, 1, 1);
            }
            BlockedKernel::over(Arc::new(grid), true, None).with_exec(exec.clone())
        };
        let policies = [
            ExecPolicy::serial(),
            ExecPolicy::fixed(2),
            ExecPolicy::fixed(12),
        ];
        for exec in &policies {
            let healthy = sets_of(&kernel(false, exec), 12);
            assert!(check_write_sets("MB", 12, &healthy).is_ok());
        }
        for exec in &policies {
            let k = kernel(true, exec);
            let tasks = k.row_tasks(12);
            let first_of_band_1 = tasks.iter().position(|t| t.payload.band == 1).unwrap();
            let sets = write_sets(&k, &tasks);
            assert!(sets[first_of_band_1].touched.contains(&4), "{exec:?}");
            let report = check_write_sets("MB", 12, &sets).unwrap_err();
            assert_eq!(report.overlapping_rows(), vec![4], "{exec:?}");
        }
    }

    #[test]
    fn strip_plans_pass_the_oracle() {
        for (rank, width) in [(37, 16), (8, 16), (32, 1), (24, usize::MAX), (0, 16)] {
            let plan = effective_strip_plan(rank, width);
            assert!(
                check_strip_plan(rank, &plan, REG_BLOCK).is_ok(),
                "rank {rank} width {width}"
            );
        }
    }
}
