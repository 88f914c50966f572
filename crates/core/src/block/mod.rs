//! Blocking optimizations (Section V of the paper): the multi-dimensional
//! blocking grid and the one kernel that runs over it, with or without
//! rank strips.

pub(crate) mod grid;
pub(crate) mod kernel;

pub use grid::BlockGrid;
pub use kernel::BlockedKernel;

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
