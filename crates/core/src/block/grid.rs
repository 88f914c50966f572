//! The multi-dimensional blocking grid (Section V-A, Figure 3a).
//!
//! The tensor is partitioned into `N_A x N_B x N_C` axis-aligned blocks
//! (counts given in *kernel axes*: slice mode, `j` mode, `k` mode). Each
//! block's nonzeros are stored contiguously as a slice-compressed
//! [`SplattTensor`], so processing block `(a, b, c)` touches only the
//! factor-matrix row ranges of that block — the working set the paper wants
//! to fit in cache. The data reorganization cost is a single sort, "
//! negligible compared to the reordering methods" (Section V-A).

use tenblock_tensor::bcoo::uniform_bounds;
use tenblock_tensor::coo::perm_for_mode;
use tenblock_tensor::fiber_sort::sort_into_cells;
use tenblock_tensor::{CooTensor, SplattTensor, NMODES};

/// A tensor partitioned into a 3-D grid of SPLATT blocks.
///
/// A grid depends only on `(tensor, mode, grid)` and is immutable once
/// built, so any number of [`super::BlockedKernel`]s — whatever their strip
/// width, name or execution policy — run over one shared `Arc<BlockGrid>`.
#[derive(Debug)]
pub struct BlockGrid {
    dims: [usize; NMODES],
    perm: [usize; NMODES],
    grid: [usize; NMODES],
    /// Per kernel axis, `grid[ax] + 1` uniform block boundaries.
    bounds: [Vec<usize>; NMODES],
    /// Blocks in `(a, b, c)` row-major order; empty blocks are `None`.
    blocks: Vec<Option<SplattTensor>>,
    nnz: usize,
}

#[cfg(test)]
thread_local! {
    /// Grids built on this thread, for tests that pin how often a caller
    /// pays for a layout.
    pub(crate) static BUILDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Buckets `coo`'s entries by linear block id `(a * N_B + b) * N_C + c`
/// and builds each non-empty block as a slice-compressed SPLATT tensor.
fn bucket_blocks(
    coo: &CooTensor,
    perm: [usize; NMODES],
    grid: [usize; NMODES],
    bounds: &[Vec<usize>; NMODES],
) -> Vec<Option<SplattTensor>> {
    let entries = coo.entries();
    let sorted = sort_into_cells(
        entries.len(),
        |n| entries[n],
        |e| [e.idx[perm[0]], e.idx[perm[1]], e.idx[perm[2]]],
        bounds,
    );
    let mut blocks = vec![None; grid[0] * grid[1] * grid[2]];
    let mut start = 0;
    for &([a, b, c], end) in &sorted.cells {
        blocks[(a * grid[1] + b) * grid[2] + c] = Some(SplattTensor::from_sorted_compressed(
            coo.dims(),
            perm,
            &sorted.records[start..end],
        ));
        start = end;
    }
    blocks
}

impl BlockGrid {
    /// Partitions `coo` for the mode-`mode` MTTKRP into `grid` blocks per
    /// kernel axis. `grid = [1, 1, 1]` produces a single block equal to the
    /// unblocked tensor, at the cost of [`SplattTensor::for_mode`].
    ///
    /// # Panics
    /// Panics if any grid count is zero or exceeds the axis length
    /// (when the axis is non-empty).
    pub fn new(coo: &CooTensor, mode: usize, grid: [usize; NMODES]) -> Self {
        let perm = perm_for_mode(mode);
        let dims = coo.dims();
        for ax in 0..NMODES {
            assert!(grid[ax] > 0, "grid counts must be positive");
            assert!(
                grid[ax] <= dims[perm[ax]].max(1),
                "grid count {} exceeds axis length {}",
                grid[ax],
                dims[perm[ax]]
            );
        }
        let bounds = [
            uniform_bounds(dims[perm[0]], grid[0]),
            uniform_bounds(dims[perm[1]], grid[1]),
            uniform_bounds(dims[perm[2]], grid[2]),
        ];

        let blocks = if grid == [1, 1, 1] {
            // One block is the whole tensor: build it as plain SPLATT does
            // (one sort, no tags, no per-block copy; uncompressed, so the
            // kernel's row lookup is arithmetic).
            vec![(coo.nnz() > 0).then(|| SplattTensor::for_mode(coo, mode))]
        } else {
            bucket_blocks(coo, perm, grid, &bounds)
        };
        #[cfg(test)]
        BUILDS.with(|n| n.set(n.get() + 1));

        BlockGrid {
            dims,
            perm,
            grid,
            bounds,
            blocks,
            nnz: coo.nnz(),
        }
    }

    /// Global tensor dimensions (original mode order).
    pub fn dims(&self) -> [usize; NMODES] {
        self.dims
    }

    /// The kernel orientation.
    pub fn perm(&self) -> [usize; NMODES] {
        self.perm
    }

    /// Block counts per kernel axis.
    pub fn grid(&self) -> [usize; NMODES] {
        self.grid
    }

    /// Total nonzeros across all blocks.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Block boundaries along kernel axis `ax`.
    pub fn bounds(&self, ax: usize) -> &[usize] {
        &self.bounds[ax]
    }

    /// The block at grid coordinates `(a, b, c)`, or `None` if empty.
    pub fn block(&self, a: usize, b: usize, c: usize) -> Option<&SplattTensor> {
        self.blocks[(a * self.grid[1] + b) * self.grid[2] + c].as_ref()
    }

    /// Iterates the non-empty blocks of slice-axis row `a`, in `(b, c)`
    /// row-major order — `b` outermost so the expensive mode-2 factor block
    /// stays hot across the inner `c` sweep (Section IV conclusion 2).
    pub fn row_blocks(&self, a: usize) -> impl Iterator<Item = &SplattTensor> {
        let (nb, nc) = (self.grid[1], self.grid[2]);
        self.blocks[a * nb * nc..(a + 1) * nb * nc]
            .iter()
            .filter_map(|b| b.as_ref())
    }

    /// Number of non-empty blocks.
    pub fn n_nonempty(&self) -> usize {
        self.blocks.iter().filter(|b| b.is_some()).count()
    }

    /// Fibers summed over the blocks — the traversal a kernel performs.
    /// For the unblocked `[1, 1, 1]` grid this is the tensor's non-empty
    /// fiber count for the mode (the `F` of Equation 1).
    pub fn n_fibers(&self) -> usize {
        self.blocks.iter().flatten().map(|b| b.n_fibers()).sum()
    }

    /// The paper's redundant-access counts (Section V-A): how many times
    /// each factor matrix is traversed, `[A: N_B*N_C, B: N_A*N_C,
    /// C: N_A*N_B]` in kernel-axis order.
    pub fn redundant_accesses(&self) -> [usize; NMODES] {
        [
            self.grid[1] * self.grid[2],
            self.grid[0] * self.grid[2],
            self.grid[0] * self.grid[1],
        ]
    }

    /// Total bytes of all block representations.
    pub fn tensor_bytes(&self) -> usize {
        self.blocks
            .iter()
            .filter_map(|b| b.as_ref())
            .map(|b| b.actual_bytes())
            .sum()
    }

    /// Runs the MB blocking oracle over this grid: the per-axis bounds must
    /// tile each kernel axis, every stored nonzero must sit inside its
    /// block's box, and the blocks must jointly hold exactly [`Self::nnz`]
    /// nonzeros. Independent of the construction code — it re-derives
    /// everything from the stored blocks.
    pub fn validate(&self) -> Result<(), tenblock_check::OracleError> {
        let dims = [
            self.dims[self.perm[0]],
            self.dims[self.perm[1]],
            self.dims[self.perm[2]],
        ];
        let mut blocks = Vec::new();
        for a in 0..self.grid[0] {
            for b in 0..self.grid[1] {
                for c in 0..self.grid[2] {
                    if let Some(t) = self.block(a, b, c) {
                        blocks.push(tenblock_check::GridBlock {
                            coords: [a, b, c],
                            entries: t
                                .to_entries()
                                .iter()
                                .map(|e| {
                                    [
                                        e.idx[self.perm[0]] as usize,
                                        e.idx[self.perm[1]] as usize,
                                        e.idx[self.perm[2]] as usize,
                                    ]
                                })
                                .collect(),
                        });
                    }
                }
            }
        }
        tenblock_check::check_grid_blocks(
            dims,
            [&self.bounds[0], &self.bounds[1], &self.bounds[2]],
            self.nnz,
            &blocks,
        )
    }

    /// Test hook: moves the stored boundary `idx` of kernel axis `ax` by
    /// `delta` *without* re-bucketing the blocks — the canonical seeded bug
    /// for exercising checked execution (an off-by-one block boundary whose
    /// blocks still contain the rows of the old partition).
    pub fn shift_bound_for_test(&mut self, ax: usize, idx: usize, delta: isize) {
        let b = &mut self.bounds[ax][idx];
        *b = b.checked_add_signed(delta).unwrap_or(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenblock_tensor::gen::uniform_tensor;

    #[test]
    fn uniform_bounds_cover_exactly() {
        let b = uniform_bounds(10, 3);
        assert_eq!(b, vec![0, 3, 6, 10]);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn partition_is_exact_and_disjoint() {
        let x = uniform_tensor([20, 30, 40], 800, 5);
        let g = BlockGrid::new(&x, 0, [3, 4, 2]);
        assert_eq!(g.nnz(), 800);
        let mut collected: Vec<_> = (0..3)
            .flat_map(|a| g.row_blocks(a).flat_map(|t| t.to_entries()))
            .collect();
        assert_eq!(collected.len(), 800);
        collected.sort_unstable_by_key(|e| e.idx);
        let mut orig = x.entries().to_vec();
        orig.sort_unstable_by_key(|e| e.idx);
        assert_eq!(collected, orig);
    }

    #[test]
    fn blocks_respect_boundaries() {
        let x = uniform_tensor([12, 12, 12], 300, 7);
        let g = BlockGrid::new(&x, 1, [2, 3, 2]); // mode-2 kernel: perm [1,2,0]
        let perm = g.perm();
        for a in 0..2 {
            for b in 0..3 {
                for c in 0..2 {
                    if let Some(t) = g.block(a, b, c) {
                        for e in t.to_entries() {
                            let ia = e.idx[perm[0]] as usize;
                            let ib = e.idx[perm[1]] as usize;
                            let ic = e.idx[perm[2]] as usize;
                            assert!(g.bounds(0)[a] <= ia && ia < g.bounds(0)[a + 1]);
                            assert!(g.bounds(1)[b] <= ib && ib < g.bounds(1)[b + 1]);
                            assert!(g.bounds(2)[c] <= ic && ic < g.bounds(2)[c + 1]);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn trivial_grid_is_whole_tensor() {
        let x = uniform_tensor([8, 8, 8], 100, 2);
        let g = BlockGrid::new(&x, 0, [1, 1, 1]);
        assert_eq!(g.n_nonempty(), 1);
        assert_eq!(g.block(0, 0, 0).unwrap().nnz(), 100);
        assert_eq!(g.redundant_accesses(), [1, 1, 1]);
    }

    #[test]
    fn redundant_access_formula() {
        let x = uniform_tensor([10, 10, 10], 50, 3);
        let g = BlockGrid::new(&x, 0, [2, 3, 5]);
        assert_eq!(g.redundant_accesses(), [15, 10, 6]);
    }

    #[test]
    fn empty_blocks_are_none() {
        // nonzeros only in slice 0 -> second slice-row of blocks is empty
        let x = CooTensor::from_triples([4, 4, 4], &[0, 0], &[1, 2], &[3, 0], &[1.0, 1.0]);
        let g = BlockGrid::new(&x, 0, [2, 1, 1]);
        assert!(g.block(0, 0, 0).is_some());
        assert!(g.block(1, 0, 0).is_none());
        assert_eq!(g.n_nonempty(), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds axis length")]
    fn oversized_grid_panics() {
        let x = uniform_tensor([4, 4, 4], 10, 1);
        BlockGrid::new(&x, 0, [5, 1, 1]);
    }

    #[test]
    fn validate_passes_then_catches_a_shifted_boundary() {
        let x = uniform_tensor([10, 8, 8], 400, 11);
        for mode in 0..3 {
            assert!(BlockGrid::new(&x, mode, [2, 2, 2]).validate().is_ok());
        }
        let mut g = BlockGrid::new(&x, 0, [2, 2, 2]);
        g.shift_bound_for_test(0, 1, 1);
        let err = g.validate().unwrap_err();
        assert_eq!(err.check, "grid-blocks");
    }
}
