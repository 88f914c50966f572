//! The multi-dimensional blocking grid (Section V-A, Figure 3a).
//!
//! The tensor is partitioned into `N_A x N_B x N_C` axis-aligned blocks
//! (counts given in *kernel axes*: slice mode, `j` mode, `k` mode). Each
//! block's nonzeros are stored contiguously as a slice-compressed
//! [`SplattTensor`], so processing block `(a, b, c)` touches only the
//! factor-matrix row ranges of that block — the working set the paper wants
//! to fit in cache. The data reorganization cost is a single sort, "
//! negligible compared to the reordering methods" (Section V-A). A grid
//! is sorted from COO ([`BlockGrid::new`]) or derived from the unblocked
//! layout ([`BlockGrid::refine`]); the `block` module doc says when each.

use tenblock_tensor::coo::perm_for_mode;
use tenblock_tensor::fiber_sort::sort_into_cells;
use tenblock_tensor::{CellGrid, CooTensor, Idx, SplattTensor, NMODES};

/// A tensor partitioned into a 3-D grid of SPLATT blocks.
///
/// A grid depends only on `(tensor, mode, grid)` and is immutable once
/// built, so any number of [`super::BlockedKernel`]s — whatever their strip
/// width, name or execution policy — run over one shared `Arc<BlockGrid>`.
/// Two grids are equal when they hold the same blocks over the same cells.
#[derive(Debug, PartialEq)]
pub struct BlockGrid {
    dims: [usize; NMODES],
    perm: [usize; NMODES],
    /// The grid over the kernel axes.
    cells: CellGrid,
    /// Blocks in `(a, b, c)` row-major order; empty blocks are `None`.
    blocks: Vec<Option<SplattTensor>>,
    nnz: usize,
}

#[cfg(test)]
thread_local! {
    /// Grids sorted from COO on this thread, for tests that pin how often
    /// a caller pays for a layout.
    pub(crate) static BUILDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Grids derived from an unblocked layout on this thread.
    pub(crate) static DERIVED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The cells of `grid` blocks per kernel axis over the orientation `perm`
/// of a tensor with dimensions `dims`.
///
/// # Panics
/// Panics with the [`tenblock_tensor::GridError`] if `grid` is invalid.
#[expect(
    clippy::panic,
    reason = "documented panic; try_build_kernel checks first"
)]
fn cells_for(dims: [usize; NMODES], perm: [usize; NMODES], grid: [usize; NMODES]) -> CellGrid {
    match CellGrid::new(perm.map(|m| dims[m]), grid) {
        Ok(cells) => cells,
        Err(e) => panic!("{e}"),
    }
}

/// Buckets `coo`'s entries by linear block id and builds each non-empty
/// block as a slice-compressed SPLATT tensor.
fn bucket_blocks(
    coo: &CooTensor,
    perm: [usize; NMODES],
    cells: &CellGrid,
) -> Vec<Option<SplattTensor>> {
    let entries = coo.entries();
    let sorted = sort_into_cells(
        entries.len(),
        |n| entries[n],
        |e| [e.idx[perm[0]], e.idx[perm[1]], e.idx[perm[2]]],
        cells,
    );
    let mut blocks = vec![None; cells.n_cells()];
    let mut start = 0;
    for &(cell, end) in &sorted.cells {
        blocks[cells.id(cell)] = Some(SplattTensor::from_sorted_compressed(
            coo.dims(),
            perm,
            &sorted.records[start..end],
        ));
        start = end;
    }
    blocks
}

/// Coordinate → one kernel axis's term of the linear cell id
/// (cell index × stride).
struct AxisTerms<'g> {
    /// The cell index of every index of the axis, or empty for an axis
    /// longer than the nonzero count (a hyper-sparse axis searches
    /// `bounds` instead of holding an entry per index). A cell index is at
    /// most an index, so it is an `Idx`.
    table: Vec<Idx>,
    bounds: &'g [usize],
    stride: usize,
}

impl<'g> AxisTerms<'g> {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a cell index is below the axis length, at most Idx::MAX + 1"
    )]
    fn new(cells: &'g CellGrid, ax: usize, nnz: usize) -> Self {
        let [_, nb, nc] = cells.counts();
        let stride = [nb * nc, nc, 1][ax];
        let bounds = cells.bounds(ax);
        let len = bounds.last().copied().unwrap_or(0);
        let mut table = Vec::new();
        if len <= nnz {
            table.reserve_exact(len);
            for (c, w) in bounds.windows(2).enumerate() {
                table.resize(w[1], c as Idx);
            }
        }
        AxisTerms {
            table,
            bounds,
            stride,
        }
    }

    #[inline]
    fn of(&self, x: Idx) -> usize {
        let cell = match self.table.get(x as usize) {
            Some(&c) => c as usize,
            None => self.bounds.partition_point(|&b| b <= x as usize) - 1,
        };
        cell * self.stride
    }
}

/// Visits every nonzero of the unblocked layout `t` in layout order with
/// its cell id — the sum of its kernel-axis coordinate's `terms` — that
/// coordinate, and its position in `t`.
#[expect(
    clippy::cast_possible_truncation,
    reason = "a stored slice is the Idx coordinate of its nonzeros"
)]
fn for_each_nonzero(
    t: &SplattTensor,
    [slice_terms, j_terms, k_terms]: &[AxisTerms<'_>; NMODES],
    mut visit: impl FnMut(usize, [Idx; NMODES], usize),
) {
    let (i_ptr, kids, fiber_ptr, j_idx, _) = t.raw();
    for (s, w) in i_ptr.windows(2).enumerate() {
        let s = t.slice_global(s) as Idx;
        let s_term = slice_terms.of(s);
        for f in w[0]..w[1] {
            let k = kids[f];
            let sk = s_term + k_terms.of(k);
            for n in fiber_ptr[f]..fiber_ptr[f + 1] {
                let j = j_idx[n];
                visit(sk + j_terms.of(j), [s, j, k], n);
            }
        }
    }
}

/// Partitions the unblocked layout `t` into the cells of `cells`: a count
/// of nonzeros per cell, a stable scatter of `(slice, j, k, value)` into
/// cell order, and the fiber-pointer pass per cell. `t` is in
/// `(slice, k, j)` fiber order and the scatter keeps that order within a
/// cell, so each cell is built exactly as a sort into it would build it.
fn partition_blocks(t: &SplattTensor, cells: &CellGrid) -> Vec<Option<SplattTensor>> {
    let terms = [0, 1, 2].map(|ax| AxisTerms::new(cells, ax, t.nnz()));
    let mut ends = vec![0usize; cells.n_cells()];
    for_each_nonzero(t, &terms, |cell, _, _| ends[cell] += 1);
    let mut start = 0;
    for end in ends.iter_mut() {
        start += std::mem::replace(end, start);
    }
    // `ends[cell]` is the cell's start; the scatter moves it to its end.
    let vals = t.raw().4;
    let mut coords = vec![[0; NMODES]; vals.len()];
    let mut cell_vals = vec![0.0; vals.len()];
    for_each_nonzero(t, &terms, |cell, c, n| {
        let slot = &mut ends[cell];
        coords[*slot] = c;
        cell_vals[*slot] = vals[n];
        *slot += 1;
    });
    let mut start = 0;
    ends.iter()
        .map(|&end| {
            let range = std::mem::replace(&mut start, end)..end;
            (!range.is_empty()).then(|| {
                SplattTensor::from_sorted_coords(
                    t.dims(),
                    t.perm(),
                    &coords[range.clone()],
                    &cell_vals[range],
                )
            })
        })
        .collect()
}

impl BlockGrid {
    /// Partitions `coo` for the mode-`mode` MTTKRP into `grid` blocks per
    /// kernel axis. `grid = [1, 1, 1]` produces a single block equal to the
    /// unblocked tensor, at the cost of [`SplattTensor::for_mode`].
    ///
    /// # Panics
    /// Panics with the [`tenblock_tensor::GridError`] if `grid` is not a
    /// valid grid over the kernel axes; [`crate::try_build_kernel`] checks
    /// the same precondition and returns it instead.
    pub fn new(coo: &CooTensor, mode: usize, grid: [usize; NMODES]) -> Self {
        let perm = perm_for_mode(mode);
        let dims = coo.dims();
        let cells = cells_for(dims, perm, grid);

        let blocks = if grid == [1, 1, 1] {
            // One block is the whole tensor: build it as plain SPLATT does
            // (one sort, no tags, no per-block copy; uncompressed, so the
            // kernel's row lookup is arithmetic).
            vec![(coo.nnz() > 0).then(|| SplattTensor::for_mode(coo, mode))]
        } else {
            bucket_blocks(coo, perm, &cells)
        };
        #[cfg(test)]
        BUILDS.with(|n| n.set(n.get() + 1));

        BlockGrid {
            dims,
            perm,
            cells,
            blocks,
            nnz: coo.nnz(),
        }
    }

    /// The layout of the same tensor and mode at `grid`, derived from this
    /// unblocked (`[1, 1, 1]`) layout without a sort: equal, block for
    /// block, to [`BlockGrid::new`] at `grid`. Every cell is a product of
    /// index ranges, so a stable partition of the fiber-ordered unblocked
    /// layout leaves each cell in fiber order.
    ///
    /// # Panics
    /// Panics if `self` is blocked, or as [`BlockGrid::new`] if `grid` is
    /// invalid.
    pub fn refine(&self, grid: [usize; NMODES]) -> BlockGrid {
        assert_eq!(
            self.grid(),
            [1, 1, 1],
            "a layout is refined from the unblocked one"
        );
        let cells = cells_for(self.dims, self.perm, grid);
        let blocks = match &self.blocks[0] {
            Some(t) if grid != [1, 1, 1] => partition_blocks(t, &cells),
            Some(_) => self.blocks.clone(),
            None => vec![None; cells.n_cells()],
        };
        #[cfg(test)]
        DERIVED.with(|n| n.set(n.get() + 1));

        BlockGrid {
            dims: self.dims,
            perm: self.perm,
            cells,
            blocks,
            nnz: self.nnz,
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
        self.cells.counts()
    }

    /// Total nonzeros across all blocks.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Block boundaries along kernel axis `ax`.
    pub fn bounds(&self, ax: usize) -> &[usize] {
        self.cells.bounds(ax)
    }

    /// The block at grid coordinates `(a, b, c)`, or `None` if empty.
    pub fn block(&self, a: usize, b: usize, c: usize) -> Option<&SplattTensor> {
        self.blocks[self.cells.id([a, b, c])].as_ref()
    }

    /// Iterates the non-empty blocks of slice-axis row `a`, in `(b, c)`
    /// row-major order — `b` outermost so the expensive mode-2 factor block
    /// stays hot across the inner `c` sweep (Section IV conclusion 2).
    pub fn row_blocks(&self, a: usize) -> impl Iterator<Item = &SplattTensor> {
        let [_, nb, nc] = self.cells.counts();
        let start = self.cells.id([a, 0, 0]);
        self.blocks[start..start + nb * nc]
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
        let [na, nb, nc] = self.cells.counts();
        [nb * nc, na * nc, na * nb]
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
    pub fn validate(&self) -> Result<(), crate::check::OracleError> {
        let dims = self.perm.map(|m| self.dims[m]);
        let blocks: Vec<crate::check::GridBlock> = (self.blocks.iter().enumerate())
            .filter_map(|(id, b)| Some((self.cells.cell(id), b.as_ref()?)))
            .map(|(coords, t)| crate::check::GridBlock {
                coords,
                entries: t
                    .to_entries()
                    .iter()
                    .map(|e| self.perm.map(|m| e.idx[m] as usize))
                    .collect(),
            })
            .collect();
        crate::check::check_grid_blocks(
            dims,
            [self.bounds(0), self.bounds(1), self.bounds(2)],
            self.nnz,
            &blocks,
        )
    }

    /// Test hook: moves the stored boundary `idx` of kernel axis `ax` by
    /// `delta` *without* re-bucketing the blocks — the canonical seeded bug
    /// for exercising checked execution (an off-by-one block boundary whose
    /// blocks still contain the rows of the old partition).
    pub fn shift_bound_for_test(&mut self, ax: usize, idx: usize, delta: isize) {
        self.cells.shift_bound_for_test(ax, idx, delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenblock_tensor::gen::uniform_tensor;

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
    #[should_panic(expected = "refined from the unblocked one")]
    fn refining_a_blocked_layout_panics() {
        let x = uniform_tensor([8, 8, 8], 100, 2);
        BlockGrid::new(&x, 0, [2, 1, 1]).refine([2, 2, 1]);
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
