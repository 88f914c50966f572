//! Blocking optimizations (Section V of the paper): the multi-dimensional
//! blocking grid and the one kernel that runs over it, with or without
//! rank strips.
//!
//! A grid is built in one of two ways, to the same bytes:
//! [`build_layout`] sorts the COO tensor into its cells, and
//! [`BlockGrid::refine`] derives it from the unblocked `[1, 1, 1]` layout
//! of the same mode in one counting pass. A caller that holds only COO
//! sorts, because one sort into the cells beats a sort into the unblocked
//! layout plus a derivation. A caller that already holds the unblocked
//! layout (the tuner's grid candidates, a served tensor's blocked grids)
//! derives.

pub(crate) mod grid;
pub(crate) mod kernel;

pub use grid::BlockGrid;
pub(crate) use kernel::BlockBody;
pub use kernel::BlockedKernel;

use std::sync::Arc;
use tenblock_tensor::{CooTensor, NMODES};

/// Builds the layout of the mode-`mode` MTTKRP of `coo` at `grid` blocks
/// per kernel axis (`[1, 1, 1]` is the unblocked tensor), ready to share.
///
/// This is the one path from COO: [`crate::build_kernel`], the tuner and
/// every cache of layouts (`tenblock-serve`'s registry) build here and wrap
/// the result in per-use [`BlockedKernel`]s, because the sort behind a
/// layout is the cost the paper amortizes over the CPD iterations. A
/// caller that holds the unblocked layout derives its blocked grids with
/// [`BlockGrid::refine`] instead, without a second sort.
///
/// # Panics
/// As [`BlockGrid::new`]; [`crate::try_build_kernel`] validates first.
pub fn build_layout(coo: &CooTensor, mode: usize, grid: [usize; NMODES]) -> Arc<BlockGrid> {
    Arc::new(BlockGrid::new(coo, mode, grid))
}
