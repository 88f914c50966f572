//! Bridges from kernel internals to the `tenblock-check` vocabulary.
//!
//! Each kernel's checked path ([`crate::MttkrpKernel::mttkrp_checked`], or
//! `mttkrp` under [`crate::Threads::Checked`]) declares the output-row
//! footprint of every parallel task as a [`WriteSet`]: the contiguous range
//! it *owns* (from the partition arithmetic) and the rows it will actually
//! *touch* (from the tensor data — slice ids, block contents, root fids).
//! The builders here mirror each kernel's partitioning formula exactly, so
//! a drifted boundary in the real structures shows up as a write-set
//! violation before any task runs.

use crate::block::kernel::RowTask;
use crate::block::BlockGrid;
use tenblock_check::{Violation, WriteSet};
use tenblock_tensor::{BcooTensor, CsfTensor};

/// Write sets for the blocked kernel's row partition: task `i` owns
/// `tasks[i].rows` and touches the global row of every slice it will
/// process in every block of its block row — [`RowTask::slices`], the same
/// lookup the launch uses. Compressed blocks store true row ids, so this
/// cross-checks the grid assignment against the claim; with one
/// uncompressed block the touches are the claim itself (SPLATT's slice
/// chunks).
pub(crate) fn row_task_write_sets(grid: &BlockGrid, tasks: &[RowTask]) -> Vec<WriteSet> {
    tasks
        .iter()
        .enumerate()
        .map(|(i, task)| {
            let mut ws = WriteSet::new(i, task.rows.clone());
            for t in grid.row_blocks(task.band) {
                ws = ws.touch_all(task.slices(t).map(|s| t.slice_global(s)));
            }
            ws
        })
        .collect()
}

/// Write sets for the BCOO kernel, parallel over slice-axis block rows:
/// task `a` owns `bounds0[a]..bounds0[a+1]` and touches the global output
/// row of every nonzero in every block of row `a`. Touches decode as
/// `block origin + stored local offset` — independent of the bounds
/// arithmetic — so a drifted boundary shows up as an overlap against the
/// neighboring task's claim.
pub(crate) fn bcoo_row_write_sets(t: &BcooTensor) -> Vec<WriteSet> {
    let bounds0 = t.bounds(0);
    let mut sets = Vec::new();
    for (a, w) in bounds0.windows(2).enumerate() {
        let mut ws = WriteSet::new(a, w[0]..w[1]);
        for i in t.row_blocks(a) {
            ws = ws.touch_all(t.block_slice_rows(i));
        }
        sets.push(ws);
    }
    sets
}

/// Write sets for the CSF strip pass, which splits the output buffer at the
/// first root fid of each root chunk. The skip regions (rows with no root)
/// are never written; they are folded into the preceding task's claim so
/// the claims tile the output exactly as the buffer splits do.
pub(crate) fn csf_root_write_sets(t: &CsfTensor, out_rows: usize, chunk: usize) -> Vec<WriteSet> {
    let n_roots = t.n_nodes(0);
    if n_roots == 0 {
        return vec![WriteSet::new(0, 0..out_rows)];
    }
    let starts: Vec<usize> = (0..n_roots).step_by(chunk).collect();
    let mut sets = Vec::new();
    let mut prev_end = 0usize;
    for (ci, &lo) in starts.iter().enumerate() {
        let hi = (lo + chunk).min(n_roots);
        let row_end = if ci + 1 < starts.len() {
            t.fid(0, starts[ci + 1]) as usize
        } else {
            out_rows
        };
        sets.push(
            WriteSet::new(ci, prev_end..row_end).touch_all((lo..hi).map(|r| t.fid(0, r) as usize)),
        );
        prev_end = row_end;
    }
    sets
}

/// The effective `(col0, width)` strip plan a rank-blocked kernel executes
/// for `rank` columns at `strip_width` (a width of `usize::MAX` means a
/// single full-rank strip, as in the unblocked CSF path).
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

/// Folds an oracle failure into the violation list as an
/// [`Violation::Invariant`].
pub(crate) fn push_oracle(
    violations: &mut Vec<Violation>,
    result: Result<(), tenblock_check::OracleError>,
) {
    if let Err(e) = result {
        violations.push(Violation::Invariant {
            detail: e.to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::kernel::row_tasks;
    use tenblock_tensor::gen::uniform_tensor;
    use tenblock_tensor::NdCooTensor;

    #[test]
    fn row_tasks_tile_and_touch_identity_for_one_uncompressed_block() {
        let x = uniform_tensor([10, 6, 6], 100, 3);
        let grid = BlockGrid::new(&x, 0, [1, 1, 1]);
        let sets = row_task_write_sets(&grid, &row_tasks(grid.bounds(0), 4));
        assert_eq!(sets.len(), 3);
        assert_eq!(sets[0].owned, 0..4);
        assert_eq!(sets[0].touched, vec![0, 1, 2, 3]);
        assert_eq!(sets[2].owned, 8..10);
        assert!(tenblock_check::check_write_sets("SPLATT", 10, &sets).is_ok());
    }

    #[test]
    fn a_row_stored_outside_its_block_row_is_touched_not_dropped() {
        // Block row 1 of the healthy grid stores rows 4..8. With the
        // boundary moved to 5 its first piece still touches row 4, which
        // is now task 0's — whatever the piece height.
        let x = uniform_tensor([12, 8, 8], 500, 7);
        let mut grid = BlockGrid::new(&x, 0, [3, 2, 2]);
        assert_eq!(grid.bounds(0), [0, 4, 8, 12]);
        for chunk in [1, 2, 12] {
            let healthy = row_task_write_sets(&grid, &row_tasks(grid.bounds(0), chunk));
            assert!(tenblock_check::check_write_sets("MB", 12, &healthy).is_ok());
        }
        grid.shift_bound_for_test(0, 1, 1);
        for chunk in [1, 2, 12] {
            let tasks = row_tasks(grid.bounds(0), chunk);
            let first_of_band_1 = tasks.iter().position(|t| t.band == 1).unwrap();
            let sets = row_task_write_sets(&grid, &tasks);
            assert!(sets[first_of_band_1].touched.contains(&4), "chunk {chunk}");
            let report = tenblock_check::check_write_sets("MB", 12, &sets).unwrap_err();
            assert_eq!(report.overlapping_rows(), vec![4], "chunk {chunk}");
        }
    }

    #[test]
    fn csf_roots_fold_skip_regions_into_claims() {
        // Rows 0 and 7 only: the claims must still tile 0..10.
        let x = NdCooTensor::from_coo3(&tenblock_tensor::CooTensor::from_triples(
            [10, 3, 3],
            &[0, 7],
            &[1, 2],
            &[0, 1],
            &[1.0, 2.0],
        ));
        let t = CsfTensor::for_mode(&x, 0);
        let sets = csf_root_write_sets(&t, 10, 1);
        assert!(tenblock_check::check_write_sets("CSF", 10, &sets).is_ok());
    }

    #[test]
    fn strip_plans_pass_the_oracle() {
        for (rank, width) in [(37, 16), (8, 16), (32, 1), (24, usize::MAX), (0, 16)] {
            let plan = effective_strip_plan(rank, width);
            assert!(
                tenblock_check::check_strip_plan(rank, &plan, crate::mttkrp::REG_BLOCK).is_ok(),
                "rank {rank} width {width}"
            );
        }
    }
}
