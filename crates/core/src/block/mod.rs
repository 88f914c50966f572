//! Blocking optimizations (Section V of the paper): the multi-dimensional
//! blocking grid and the one kernel that runs over it, with or without
//! rank strips.

pub(crate) mod grid;
pub(crate) mod kernel;

pub use grid::BlockGrid;
pub use kernel::{BlockedKernel, RankbLayout};

use std::sync::Arc;
use tenblock_tensor::{CooTensor, NMODES};

/// Builds the layout of the mode-`mode` MTTKRP of `coo` at `grid` blocks
/// per kernel axis (`[1, 1, 1]` is the unblocked tensor), ready to share.
///
/// This is the one construction path: [`crate::build_kernel`], the tuner
/// and every cache of layouts (`tenblock-serve`'s registry) build here and
/// wrap the result in per-use [`BlockedKernel`]s, because the sort behind a
/// layout is the cost the paper amortizes over the CPD iterations.
///
/// # Panics
/// As [`BlockGrid::new`]; [`crate::try_build_kernel`] validates first.
pub fn build_layout(coo: &CooTensor, mode: usize, grid: [usize; NMODES]) -> Arc<BlockGrid> {
    Arc::new(BlockGrid::new(coo, mode, grid))
}

/// Splits a row-major matrix buffer into disjoint mutable chunks at the
/// given row `bounds` (length `n + 1`, ascending, covering all rows).
/// Returns `(first_row, rows_data)` per chunk — the safe foundation for
/// handing block rows to rayon workers.
pub(crate) fn split_rows_by_bounds<'a>(
    mut data: &'a mut [f64],
    bounds: &[usize],
    rank: usize,
) -> Vec<(usize, &'a mut [f64])> {
    let mut out = Vec::with_capacity(bounds.len().saturating_sub(1));
    for w in bounds.windows(2) {
        let rows = w[1] - w[0];
        let (head, tail) = data.split_at_mut(rows * rank);
        out.push((w[0], head));
        data = tail;
    }
    debug_assert!(data.is_empty());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_covers_all_rows_disjointly() {
        let mut data = vec![0.0; 10 * 3];
        let chunks = split_rows_by_bounds(&mut data, &[0, 4, 4, 7, 10], 3);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks[0].0, 0);
        assert_eq!(chunks[0].1.len(), 12);
        assert_eq!(chunks[1].0, 4);
        assert_eq!(chunks[1].1.len(), 0); // empty block row is fine
        assert_eq!(chunks[2].0, 4);
        assert_eq!(chunks[2].1.len(), 9);
        assert_eq!(chunks[3].0, 7);
        assert_eq!(chunks[3].1.len(), 9);
    }
}
