//! BCOO: block-native coordinate storage — the data-layout form of MB.
//!
//! Where the MB kernel re-partitions *iteration order* over compressed
//! blocks, BCOO changes the bytes on disk: the tensor is a sorted table of
//! nonempty `N_A x N_B x N_C` block coordinates, each owning a contiguous
//! mini-tensor of block-local offsets (one or two bytes per coordinate,
//! with a four-byte escape for giant blocks) plus a dense value slab. The
//! inner loop of a kernel over this layout reads `(local_a, local_j,
//! local_k, val)` straight from the slab — no global index decode, no
//! per-nonzero binary search — and the block table carries the global
//! origin needed to place results.
//!
//! Within a block, entries are sorted by `(local_a, local_k, local_j)`
//! (the same key the MB grid uses), so consecutive entries sharing
//! `(a, k)` form an implicit fiber run: a register-blocked micro-kernel
//! can accumulate a whole run into one register strip before touching the
//! output row, exactly as the SPLATT fiber loop does.
//!
//! The conversion COO → BCOO → COO is lossless: each block records the
//! global index of its first row per axis (`origin`) at construction, and
//! decode is `origin + local`. The origin is deliberately stored
//! *separately* from the grid bounds — a corrupted boundary moves the
//! claims derived from `bounds`, not the rows the data actually touches,
//! which is what lets checked execution catch a drifted boundary.

use crate::coo::{perm_for_mode, CooTensor};
use crate::fiber_sort::sort_into_cells;
use crate::{Entry, Idx, NMODES};
use std::ops::Range;

/// Uniform boundaries splitting `dim` indices into `n` blocks:
/// block `t` covers `[t*dim/n, (t+1)*dim/n)` (the MB grid convention).
/// Shared by the MB/BCOO layouts and the out-of-core tile store, which
/// must agree on cell extents for streamed results to match in-memory
/// kernels bit-for-bit.
pub fn uniform_bounds(dim: usize, n: usize) -> Vec<usize> {
    // t ≤ n ≤ dim and dim is an in-memory mode length; t·dim fits usize — lint: allow(index-overflow)
    (0..=n).map(|t| t * dim / n).collect()
}

/// One nonempty block's table entry: where the block sits in the grid and
/// where its rows start in the global index space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BcooBlock {
    /// Grid coordinates along the kernel axes `[slice, j, k]`.
    pub coords: [u32; NMODES],
    /// Global index of the block's first row along each kernel axis,
    /// recorded at construction. Decoding an entry never consults the
    /// bounds arithmetic — `global = origin + local` — so the stored data
    /// stays truthful even if the bounds are later corrupted.
    pub origin: [Idx; NMODES],
}

/// Storage width of the block-local offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffsetWidth {
    /// Every block side is at most 256 indices: one byte per coordinate.
    U8,
    /// Every block side is at most 65536 indices: two bytes per coordinate.
    U16,
    /// Escape hatch for giant blocks (a barely-blocked huge mode).
    U32,
}

/// Owned local-offset slab at the selected width. Offsets are interleaved
/// `[local_a, local_j, local_k]` per entry, in kernel-axis order.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Offsets {
    U8(Vec<[u8; NMODES]>),
    U16(Vec<[u16; NMODES]>),
    U32(Vec<[u32; NMODES]>),
}

/// Borrowed view of the local-offset slab at its stored width. Kernels
/// match once per call and run a monomorphized inner loop per width.
#[derive(Debug, Clone, Copy)]
pub enum BcooOffsets<'a> {
    /// One-byte offsets.
    U8(&'a [[u8; NMODES]]),
    /// Two-byte offsets.
    U16(&'a [[u16; NMODES]]),
    /// Four-byte offsets.
    U32(&'a [[u32; NMODES]]),
}

/// A sparse tensor stored as a table of nonempty blocks, each owning a
/// contiguous mini-tensor of local offsets and values (see the module
/// docs). Constructed once per `(tensor, mode, grid)` from COO; the block
/// table is sorted slice-axis-major so a kernel can hand whole block rows
/// to parallel workers.
#[derive(Debug, Clone, PartialEq)]
pub struct BcooTensor {
    dims: [usize; NMODES],
    perm: [usize; NMODES],
    grid: [usize; NMODES],
    bounds: [Vec<usize>; NMODES],
    /// Nonempty blocks, sorted by linear block id (slice-axis major).
    blocks: Vec<BcooBlock>,
    /// Entry ranges per block: block `i` owns `ptr[i]..ptr[i+1]`.
    ptr: Vec<usize>,
    /// Block-table ranges per slice-axis row: row `a`'s blocks are
    /// `row_ptr[a]..row_ptr[a+1]`.
    row_ptr: Vec<usize>,
    offsets: Offsets,
    vals: Vec<f64>,
    /// Implicit `(local_a, local_k)` fiber runs, summed over blocks — the
    /// `F` of the paper's Equation 1 as this layout traverses it.
    fibers: usize,
}

impl BcooTensor {
    /// Partitions `coo` for the mode-`mode` MTTKRP into `grid` blocks per
    /// kernel axis and packs each nonempty block into local-offset form.
    ///
    /// # Panics
    /// Panics if any grid count is zero or exceeds the axis length (when
    /// the axis is non-empty) — the same precondition as `BlockGrid::new`.
    pub fn from_coo(coo: &CooTensor, mode: usize, grid: [usize; NMODES]) -> Self {
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

        // The linear cell id is u64 arithmetic over na·nb·nc cells (a u32
        // tag once truncated ids on grids with ≥ 2^32 cells, scattering
        // entries into the wrong blocks); check the cell count up front so
        // it cannot wrap.
        let (nb, nc) = (grid[1], grid[2]);
        assert!(
            (grid[0] as u64)
                .checked_mul(nb as u64)
                .and_then(|x| x.checked_mul(nc as u64))
                .is_some(),
            "block grid {}x{}x{} has more than u64::MAX cells",
            grid[0],
            nb,
            nc
        );
        // Blocks contiguous in id order, each block's entries in the
        // (a, k, j) fiber order the micro-kernel consumes.
        let entries = coo.entries();
        let sorted = sort_into_cells(
            entries.len(),
            |n| entries[n],
            |e| [e.idx[perm[0]], e.idx[perm[1]], e.idx[perm[2]]],
            &bounds,
        );

        let max_side = (0..NMODES)
            .map(|ax| {
                bounds[ax]
                    .windows(2)
                    .map(|w| w[1] - w[0])
                    .max()
                    .unwrap_or(0)
            })
            .max()
            .unwrap_or(0);

        let mut blocks = Vec::with_capacity(sorted.cells.len());
        let mut ptr = vec![0usize];
        let mut locals: Vec<[u32; NMODES]> = Vec::with_capacity(entries.len());
        let mut vals = Vec::with_capacity(entries.len());
        let mut fibers = 0usize;
        for &([a, b, c], end) in &sorted.cells {
            let origin = [
                bounds[0][a] as Idx,
                bounds[1][b] as Idx,
                bounds[2][c] as Idx,
            ];
            let mut prev_fiber = None;
            for e in &sorted.records[locals.len()..end] {
                let la = e.idx[perm[0]] - origin[0];
                let lj = e.idx[perm[1]] - origin[1];
                let lk = e.idx[perm[2]] - origin[2];
                locals.push([la, lj, lk]);
                vals.push(e.val);
                if prev_fiber != Some((la, lk)) {
                    fibers += 1;
                    prev_fiber = Some((la, lk));
                }
            }
            blocks.push(BcooBlock {
                coords: [a as u32, b as u32, c as u32],
                origin,
            });
            ptr.push(end);
        }

        let offsets = if max_side <= 1 << 8 {
            Offsets::U8(locals.iter().map(|l| l.map(|x| x as u8)).collect())
        } else if max_side <= 1 << 16 {
            Offsets::U16(locals.iter().map(|l| l.map(|x| x as u16)).collect())
        } else {
            Offsets::U32(locals)
        };

        let mut row_ptr = vec![0usize; grid[0] + 1];
        for blk in &blocks {
            row_ptr[blk.coords[0] as usize + 1] += 1;
        }
        for a in 0..grid[0] {
            row_ptr[a + 1] += row_ptr[a];
        }

        BcooTensor {
            dims,
            perm,
            grid,
            bounds,
            blocks,
            ptr,
            row_ptr,
            offsets,
            vals,
            fibers,
        }
    }

    /// Global tensor dimensions (original mode order).
    pub fn dims(&self) -> [usize; NMODES] {
        self.dims
    }

    /// The kernel orientation this layout was built for.
    pub fn perm(&self) -> [usize; NMODES] {
        self.perm
    }

    /// Block counts per kernel axis.
    pub fn grid(&self) -> [usize; NMODES] {
        self.grid
    }

    /// Total nonzeros across all blocks.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Block boundaries along kernel axis `ax` (length `grid[ax] + 1`).
    pub fn bounds(&self, ax: usize) -> &[usize] {
        &self.bounds[ax]
    }

    /// Number of nonempty blocks in the table.
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The `i`-th nonempty block's table entry.
    pub fn block(&self, i: usize) -> BcooBlock {
        self.blocks[i]
    }

    /// Entry range of block `i` in the offset/value slabs.
    pub fn block_range(&self, i: usize) -> Range<usize> {
        self.ptr[i]..self.ptr[i + 1]
    }

    /// Block-table index range of slice-axis row `a` (the blocks are
    /// slice-axis major, so each row's blocks are contiguous).
    pub fn row_blocks(&self, a: usize) -> Range<usize> {
        self.row_ptr[a]..self.row_ptr[a + 1]
    }

    /// Length of block `i` along kernel axis `ax`, from the bounds.
    pub fn block_span(&self, i: usize, ax: usize) -> usize {
        let c = self.blocks[i].coords[ax] as usize;
        self.bounds[ax][c + 1] - self.bounds[ax][c]
    }

    /// The local-offset slab at its stored width.
    pub fn offsets(&self) -> BcooOffsets<'_> {
        match &self.offsets {
            Offsets::U8(o) => BcooOffsets::U8(o),
            Offsets::U16(o) => BcooOffsets::U16(o),
            Offsets::U32(o) => BcooOffsets::U32(o),
        }
    }

    /// Selected offset width.
    pub fn offset_width(&self) -> OffsetWidth {
        match self.offsets {
            Offsets::U8(_) => OffsetWidth::U8,
            Offsets::U16(_) => OffsetWidth::U16,
            Offsets::U32(_) => OffsetWidth::U32,
        }
    }

    /// Bytes per coordinate of the stored offsets (1, 2, or 4).
    pub fn offset_bytes(&self) -> usize {
        match self.offsets {
            Offsets::U8(_) => 1,
            Offsets::U16(_) => 2,
            Offsets::U32(_) => 4,
        }
    }

    /// The value slab (all blocks, contiguous).
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Implicit `(a, k)` fiber runs summed over blocks — the `F` this
    /// layout's traversal sees (for the Section IV counter model).
    pub fn n_fibers(&self) -> usize {
        self.fibers
    }

    /// Global slice-axis rows touched by block `i` (decoded from stored
    /// origins + offsets, deduplicated). This is the ground truth checked
    /// execution compares against the bounds-derived claims.
    pub fn block_slice_rows(&self, i: usize) -> Vec<usize> {
        let base = self.blocks[i].origin[0] as usize;
        let range = self.block_range(i);
        let mut rows: Vec<usize> = match &self.offsets {
            Offsets::U8(o) => o[range].iter().map(|l| base + l[0] as usize).collect(),
            Offsets::U16(o) => o[range].iter().map(|l| base + l[0] as usize).collect(),
            Offsets::U32(o) => o[range].iter().map(|l| base + l[0] as usize).collect(),
        };
        rows.dedup(); // entries are sorted by local_a within a block
        rows
    }

    /// Global kernel-axis coordinates of every entry in block `i`
    /// (decoded; for the grid-blocks oracle).
    pub fn block_kernel_coords(&self, i: usize) -> Vec<[usize; NMODES]> {
        let origin = self.blocks[i].origin.map(|o| o as usize);
        let range = self.block_range(i);
        let decode = |l: [usize; NMODES]| [origin[0] + l[0], origin[1] + l[1], origin[2] + l[2]];
        match &self.offsets {
            Offsets::U8(o) => o[range]
                .iter()
                .map(|l| decode(l.map(|x| x as usize)))
                .collect(),
            Offsets::U16(o) => o[range]
                .iter()
                .map(|l| decode(l.map(|x| x as usize)))
                .collect(),
            Offsets::U32(o) => o[range]
                .iter()
                .map(|l| decode(l.map(|x| x as usize)))
                .collect(),
        }
    }

    /// Decodes the whole tensor back to COO entries in original mode
    /// order. Lossless: `CooTensor::from_entries(dims, entries)` rebuilds
    /// the source tensor exactly.
    pub fn to_entries(&self) -> Vec<Entry> {
        let mut out = Vec::with_capacity(self.nnz());
        for i in 0..self.n_blocks() {
            let origin = self.blocks[i].origin;
            let range = self.block_range(i);
            let mut push = |l: [u32; NMODES], val: f64| {
                let mut idx = [0 as Idx; NMODES];
                for ax in 0..NMODES {
                    idx[self.perm[ax]] = origin[ax] + l[ax];
                }
                out.push(Entry { idx, val });
            };
            match &self.offsets {
                Offsets::U8(o) => {
                    for (l, &v) in o[range.clone()].iter().zip(&self.vals[range.clone()]) {
                        push(l.map(|x| x as u32), v);
                    }
                }
                Offsets::U16(o) => {
                    for (l, &v) in o[range.clone()].iter().zip(&self.vals[range.clone()]) {
                        push(l.map(|x| x as u32), v);
                    }
                }
                Offsets::U32(o) => {
                    for (l, &v) in o[range.clone()].iter().zip(&self.vals[range.clone()]) {
                        push(*l, v);
                    }
                }
            }
        }
        out
    }

    /// Round-trips back to a [`CooTensor`].
    pub fn to_coo(&self) -> CooTensor {
        CooTensor::from_entries(self.dims, self.to_entries())
    }

    /// Bytes this representation actually occupies: block table + entry
    /// pointers + offset slab + value slab. For comparison, COO is 20
    /// bytes per nonzero; a u8 BCOO is 11 plus the (small) table.
    pub fn actual_bytes(&self) -> usize {
        self.blocks.len() * std::mem::size_of::<BcooBlock>()
            + (self.ptr.len() + self.row_ptr.len()) * std::mem::size_of::<usize>()
            + self
                .bounds
                .iter()
                .map(|b| b.len() * std::mem::size_of::<usize>())
                .sum::<usize>()
            + self.vals.len() * (NMODES * self.offset_bytes() + std::mem::size_of::<f64>())
    }

    /// Test hook: shifts boundary `idx` of axis `ax` by `delta` *without*
    /// re-bucketing entries or updating block origins, simulating a
    /// corrupted plan. Checked execution must catch the resulting
    /// claim/touch mismatch.
    pub fn shift_bound_for_test(&mut self, ax: usize, idx: usize, delta: isize) {
        let b = &mut self.bounds[ax][idx];
        *b = b.wrapping_add_signed(delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::uniform_tensor;

    #[test]
    fn bcoo_round_trips_across_modes_and_grids() {
        let x = uniform_tensor([13, 17, 11], 300, 5);
        for mode in 0..NMODES {
            for grid in [[1, 1, 1], [3, 2, 2], [4, 4, 4], [13, 1, 1]] {
                let perm = perm_for_mode(mode);
                let g = [
                    grid[0].min(x.dims()[perm[0]]),
                    grid[1].min(x.dims()[perm[1]]),
                    grid[2].min(x.dims()[perm[2]]),
                ];
                let t = BcooTensor::from_coo(&x, mode, g);
                assert_eq!(t.nnz(), x.nnz());
                assert_eq!(t.to_coo(), x, "mode {mode} grid {g:?}");
            }
        }
    }

    #[test]
    fn bcoo_survives_grids_with_more_than_u32_cells() {
        // 2048^3 = 2^33 cells: with the old u32 tag, block (1024, 0, 0)
        // (linear id 1024 * 2048 * 2048 = 2^32) aliased block (0, 0, 0),
        // so both entries landed in one block — and the second entry's
        // local offset (1024) wrapped the narrow offset encoding, silently
        // corrupting its coordinates. The bounds arrays stay tiny (3 ×
        // 2049 usize), so the adversarial grid is cheap to test.
        let dims = [2048, 2048, 2048];
        let x = CooTensor::from_entries(
            dims,
            vec![Entry::new(0, 0, 0, 1.0), Entry::new(1024, 0, 0, 2.0)],
        );
        let t = BcooTensor::from_coo(&x, 0, [2048, 2048, 2048]);
        assert_eq!(t.n_blocks(), 2, "distinct cells must stay distinct");
        assert_eq!(t.to_coo(), x);
    }

    #[test]
    fn bcoo_empty_and_zero_dim_tensors() {
        let e = CooTensor::empty([4, 5, 6]);
        let t = BcooTensor::from_coo(&e, 1, [2, 2, 2]);
        assert_eq!(t.n_blocks(), 0);
        assert_eq!(t.to_coo(), e);

        let z = CooTensor::empty([0, 3, 0]);
        let t = BcooTensor::from_coo(&z, 0, [1, 1, 1]);
        assert_eq!(t.nnz(), 0);
        assert_eq!(t.to_coo(), z);
    }

    #[test]
    fn bcoo_offset_width_tracks_largest_block_side() {
        let small = uniform_tensor([64, 64, 64], 200, 1);
        assert_eq!(
            BcooTensor::from_coo(&small, 0, [1, 1, 1]).offset_width(),
            OffsetWidth::U8
        );
        // One 300-long side forces two-byte offsets; splitting it back
        // under 256 restores one-byte storage.
        let long = uniform_tensor([300, 8, 8], 200, 2);
        let wide = BcooTensor::from_coo(&long, 0, [1, 1, 1]);
        assert_eq!(wide.offset_width(), OffsetWidth::U16);
        assert_eq!(wide.to_coo(), long);
        let split = BcooTensor::from_coo(&long, 0, [2, 1, 1]);
        assert_eq!(split.offset_width(), OffsetWidth::U8);
        assert_eq!(split.to_coo(), long);
        assert!(split.actual_bytes() < wide.actual_bytes());
    }

    #[test]
    fn bcoo_block_table_is_slice_axis_major_and_rows_partition_it() {
        let x = uniform_tensor([20, 15, 10], 400, 9);
        let t = BcooTensor::from_coo(&x, 0, [4, 3, 2]);
        let mut seen = 0;
        for a in 0..4 {
            for i in t.row_blocks(a) {
                assert_eq!(t.block(i).coords[0] as usize, a);
                assert_eq!(i, seen);
                seen += 1;
            }
        }
        assert_eq!(seen, t.n_blocks());
        // Entry ranges partition the slabs and every block is nonempty.
        let total: usize = (0..t.n_blocks()).map(|i| t.block_range(i).len()).sum();
        assert_eq!(total, t.nnz());
        assert!((0..t.n_blocks()).all(|i| !t.block_range(i).is_empty()));
    }

    #[test]
    fn bcoo_block_slice_rows_match_decoded_entries() {
        let x = uniform_tensor([12, 9, 9], 250, 3);
        let t = BcooTensor::from_coo(&x, 0, [3, 2, 2]);
        for i in 0..t.n_blocks() {
            let rows = t.block_slice_rows(i);
            let mut expect: Vec<usize> = t.block_kernel_coords(i).iter().map(|c| c[0]).collect();
            expect.dedup();
            assert_eq!(rows, expect);
            // Healthy bounds contain every touched row.
            let (lo, hi) = {
                let c = t.block(i).coords[0] as usize;
                (t.bounds(0)[c], t.bounds(0)[c + 1])
            };
            assert!(rows.iter().all(|&r| lo <= r && r < hi));
        }
    }

    #[test]
    fn bcoo_shift_bound_moves_claims_not_data() {
        let x = uniform_tensor([12, 8, 8], 300, 7);
        let mut t = BcooTensor::from_coo(&x, 0, [3, 2, 2]);
        let before = t.to_coo();
        t.shift_bound_for_test(0, 1, 1);
        // Decode is origin-based, so the data is untouched...
        assert_eq!(t.to_coo(), before);
        // ...but the claim boundary moved.
        assert_eq!(t.bounds(0)[1], uniform_bounds(12, 3)[1] + 1);
    }

    #[test]
    fn bcoo_fiber_count_matches_splatt_fibers_when_unblocked() {
        let x = uniform_tensor([10, 10, 10], 150, 11);
        let t = BcooTensor::from_coo(&x, 0, [1, 1, 1]);
        assert_eq!(t.n_fibers(), x.count_fibers(perm_for_mode(0)));
    }
}
