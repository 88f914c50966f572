//! `TensorSource`: a tensor exposed as a grid of loadable tiles.
//!
//! The streaming MTTKRP driver in `tenblock-core` iterates tiles instead
//! of entries, so the same execution path runs over an in-memory COO
//! tensor, an already-blocked [`BcooTensor`], or the on-disk
//! [`TileStore`](crate::tile_store::TileStore) — only the last one ever
//! touches disk, and none of them require the full tensor to be decoded
//! at once on the consumer side.
//!
//! All sources speak *original* mode axes: a tile's `cell`, `origin`,
//! and `locals` index modes `0, 1, 2` in tensor order, and the grid uses
//! the same [`uniform_bounds`](crate::bcoo::uniform_bounds) arithmetic as
//! the MB/BCOO layouts. A mode-`m` kernel permutes per tile (cheap —
//! three-element arrays) rather than the source per mode (a full
//! re-shard). Tiles may be served in any order, and so may a tile's
//! entries; drivers that need a deterministic traversal sort tile indices
//! and entries themselves, and hold every offset against its span — a
//! source is not trusted to.

use crate::bcoo::{BcooOffsets, BcooTensor};
use crate::coo::CooTensor;
use crate::fiber_sort::sort_into_cells;
use crate::io_bin::BinError;
use crate::tile_store::{TileStore, TILE_ENTRY_BYTES};
use crate::NMODES;

/// One loaded tile: a block-local COO fragment in original mode axes.
/// Loading into a tile that already served another reuses its buffers, so
/// a driver cycling one `SourceTile` through a pass allocates nothing once
/// the largest tile has been seen.
#[derive(Debug, Clone, Default)]
pub struct SourceTile {
    /// Grid cell per original axis.
    pub cell: [usize; NMODES],
    /// Global index of the tile's first position along each original axis.
    pub origin: [usize; NMODES],
    /// Block-local coordinates per entry, original axis order.
    pub locals: Vec<[u32; NMODES]>,
    /// Entry values, parallel to `locals`.
    pub vals: Vec<f64>,
    /// The encoded payload an on-disk source read this tile from.
    pub(crate) payload: Vec<u8>,
}

impl SourceTile {
    /// An empty tile with room for `nnz` entries (and their encoded
    /// payload), so that loading tiles no larger never reallocates.
    pub fn with_capacity(nnz: usize) -> Self {
        SourceTile {
            locals: Vec::with_capacity(nnz),
            vals: Vec::with_capacity(nnz),
            payload: Vec::with_capacity(nnz.saturating_mul(TILE_ENTRY_BYTES as usize)),
            ..Default::default()
        }
    }

    /// Nonzeros in the tile.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }
}

/// A tensor that can be read one grid-aligned tile at a time.
///
/// `Send + Sync` is part of the contract: the streaming driver loads
/// tiles from a prefetch thread while the compute thread consumes the
/// previous one.
pub trait TensorSource: Send + Sync {
    /// Tensor dimensions (original mode order).
    fn dims(&self) -> [usize; NMODES];
    /// Total nonzeros across all tiles.
    fn nnz(&self) -> usize;
    /// Tile counts per original axis.
    fn grid(&self) -> [usize; NMODES];
    /// Number of nonempty tiles.
    fn n_tiles(&self) -> usize;
    /// Grid cell of tile `i` (original axes).
    fn tile_cell(&self, i: usize) -> [usize; NMODES];
    /// Nonzeros in tile `i`.
    fn tile_nnz(&self, i: usize) -> usize;
    /// Loads tile `i` into `tile`, replacing what it held and reusing its
    /// buffers. In-memory sources copy slices; the tile store reads and
    /// decodes from disk.
    fn load_tile_into(&self, i: usize, tile: &mut SourceTile) -> Result<(), BinError>;

    /// Streaming cost of tile `i` in bytes, as the uniform 20-byte-entry
    /// tile encoding. Budget planning uses this even for in-memory
    /// sources so grid choices transfer to the spilled case.
    fn tile_bytes(&self, i: usize) -> u64 {
        self.tile_nnz(i) as u64 * TILE_ENTRY_BYTES
    }

    /// The largest single-tile streaming cost — what a double-buffered
    /// reader must be able to hold twice.
    fn max_tile_bytes(&self) -> u64 {
        (0..self.n_tiles())
            .map(|i| self.tile_bytes(i))
            .max()
            .unwrap_or(0)
    }

    /// Nonzeros of the largest tile — the capacity a reused
    /// [`SourceTile`] needs.
    fn max_tile_nnz(&self) -> usize {
        (0..self.n_tiles())
            .map(|i| self.tile_nnz(i))
            .max()
            .unwrap_or(0)
    }

    /// Sum of [`tile_bytes`](Self::tile_bytes) over all tiles: the bytes
    /// one full pass streams.
    fn total_tile_bytes(&self) -> u64 {
        (0..self.n_tiles()).map(|i| self.tile_bytes(i)).sum()
    }

    /// Byte offset of tile `i`'s payload in the backing file, when there
    /// is one. In-memory sources report 0; error reports use this to
    /// point at the failing region of an on-disk store.
    fn tile_offset(&self, _i: usize) -> u64 {
        0
    }
}

/// An in-memory COO tensor pre-sharded into grid tiles. Entries are
/// grouped by linear cell id and converted to block-local form once at
/// construction; loading a tile copies one contiguous range.
#[derive(Debug, Clone)]
pub struct CooSource {
    dims: [usize; NMODES],
    grid: [usize; NMODES],
    bounds: [Vec<usize>; NMODES],
    /// `(cell, entry range start)` per nonempty tile, plus one sentinel
    /// start so tile `i` owns `starts[i]..starts[i+1]`.
    cells: Vec<[usize; NMODES]>,
    starts: Vec<usize>,
    locals: Vec<[u32; NMODES]>,
    vals: Vec<f64>,
}

impl CooSource {
    /// Shards `coo` over `grid` tiles per original axis.
    ///
    /// # Panics
    /// Panics if any grid count is zero or exceeds the axis length (when
    /// the axis is non-empty) — the same precondition as `BcooTensor`.
    pub fn new(coo: &CooTensor, grid: [usize; NMODES]) -> Self {
        let dims = coo.dims();
        for ax in 0..NMODES {
            assert!(
                grid[ax] >= 1 && grid[ax] <= dims[ax].max(1),
                "grid count {} invalid for axis {ax} of length {}",
                grid[ax],
                dims[ax]
            );
        }
        let bounds = [
            crate::bcoo::uniform_bounds(dims[0], grid[0]),
            crate::bcoo::uniform_bounds(dims[1], grid[1]),
            crate::bcoo::uniform_bounds(dims[2], grid[2]),
        ];
        // Same cell order and in-tile entry order as a written tile store.
        let entries = coo.entries();
        let sorted = sort_into_cells(entries.len(), |n| &entries[n], |e| e.idx, &bounds);
        let mut cells = Vec::with_capacity(sorted.cells.len());
        let mut starts = Vec::with_capacity(sorted.cells.len() + 1);
        let mut locals = Vec::with_capacity(entries.len());
        let mut vals = Vec::with_capacity(entries.len());
        for &(cell, end) in &sorted.cells {
            cells.push(cell);
            starts.push(locals.len());
            for e in &sorted.records[locals.len()..end] {
                locals.push([
                    e.idx[0] - bounds[0][cell[0]] as u32,
                    e.idx[1] - bounds[1][cell[1]] as u32,
                    e.idx[2] - bounds[2][cell[2]] as u32,
                ]);
                vals.push(e.val);
            }
        }
        starts.push(locals.len());
        CooSource {
            dims,
            grid,
            bounds,
            cells,
            starts,
            locals,
            vals,
        }
    }
}

impl TensorSource for CooSource {
    fn dims(&self) -> [usize; NMODES] {
        self.dims
    }
    fn nnz(&self) -> usize {
        self.vals.len()
    }
    fn grid(&self) -> [usize; NMODES] {
        self.grid
    }
    fn n_tiles(&self) -> usize {
        self.cells.len()
    }
    fn tile_cell(&self, i: usize) -> [usize; NMODES] {
        self.cells[i]
    }
    fn tile_nnz(&self, i: usize) -> usize {
        self.starts[i + 1] - self.starts[i]
    }
    fn load_tile_into(&self, i: usize, tile: &mut SourceTile) -> Result<(), BinError> {
        let cell = self.cells[i];
        let range = self.starts[i]..self.starts[i + 1];
        tile.cell = cell;
        tile.origin = [
            self.bounds[0][cell[0]],
            self.bounds[1][cell[1]],
            self.bounds[2][cell[2]],
        ];
        tile.locals.clear();
        tile.locals.extend_from_slice(&self.locals[range.clone()]);
        tile.vals.clear();
        tile.vals.extend_from_slice(&self.vals[range]);
        Ok(())
    }
}

/// A [`BcooTensor`] served as tiles. The BCOO layout is kernel-axis
/// ordered for one mode; this adapter translates block coordinates and
/// local offsets back to original axes through the layout's `perm`, so
/// the streaming driver can reuse a block-native tensor for all three
/// modes without rebuilding it.
#[derive(Debug, Clone)]
pub struct BcooSource {
    t: BcooTensor,
}

impl BcooSource {
    /// Wraps an existing block-native tensor.
    pub fn new(t: BcooTensor) -> Self {
        BcooSource { t }
    }

    /// The wrapped layout.
    pub fn inner(&self) -> &BcooTensor {
        &self.t
    }
}

impl TensorSource for BcooSource {
    fn dims(&self) -> [usize; NMODES] {
        self.t.dims()
    }
    fn nnz(&self) -> usize {
        self.t.nnz()
    }
    fn grid(&self) -> [usize; NMODES] {
        let perm = self.t.perm();
        let mut g = [0usize; NMODES];
        for ax in 0..NMODES {
            g[perm[ax]] = self.t.grid()[ax];
        }
        g
    }
    fn n_tiles(&self) -> usize {
        self.t.n_blocks()
    }
    fn tile_cell(&self, i: usize) -> [usize; NMODES] {
        let perm = self.t.perm();
        let b = self.t.block(i);
        let mut c = [0usize; NMODES];
        for ax in 0..NMODES {
            c[perm[ax]] = b.coords[ax] as usize;
        }
        c
    }
    fn tile_nnz(&self, i: usize) -> usize {
        self.t.block_range(i).len()
    }
    fn load_tile_into(&self, i: usize, tile: &mut SourceTile) -> Result<(), BinError> {
        let perm = self.t.perm();
        let b = self.t.block(i);
        let range = self.t.block_range(i);
        for ax in 0..NMODES {
            tile.cell[perm[ax]] = b.coords[ax] as usize;
            tile.origin[perm[ax]] = b.origin[ax] as usize;
        }
        let locals = &mut tile.locals;
        locals.clear();
        let to_orig = |l: [u32; NMODES]| {
            let mut o = [0u32; NMODES];
            for ax in 0..NMODES {
                o[perm[ax]] = l[ax];
            }
            o
        };
        match self.t.offsets() {
            BcooOffsets::U8(o) => {
                locals.extend(o[range.clone()].iter().map(|l| to_orig(l.map(u32::from))))
            }
            BcooOffsets::U16(o) => {
                locals.extend(o[range.clone()].iter().map(|l| to_orig(l.map(u32::from))))
            }
            BcooOffsets::U32(o) => locals.extend(o[range.clone()].iter().map(|&l| to_orig(l))),
        }
        tile.vals.clear();
        tile.vals.extend_from_slice(&self.t.vals()[range]);
        Ok(())
    }
}

impl TensorSource for TileStore {
    fn dims(&self) -> [usize; NMODES] {
        TileStore::dims(self)
    }
    fn nnz(&self) -> usize {
        TileStore::nnz(self)
    }
    fn grid(&self) -> [usize; NMODES] {
        TileStore::grid(self)
    }
    fn n_tiles(&self) -> usize {
        TileStore::n_tiles(self)
    }
    fn tile_cell(&self, i: usize) -> [usize; NMODES] {
        self.tile(i).cell.map(|c| c as usize)
    }
    fn tile_nnz(&self, i: usize) -> usize {
        self.tile(i).nnz as usize
    }
    fn tile_bytes(&self, i: usize) -> u64 {
        self.tile(i).len
    }
    fn tile_offset(&self, i: usize) -> u64 {
        self.tile(i).off
    }
    fn load_tile_into(&self, i: usize, tile: &mut SourceTile) -> Result<(), BinError> {
        self.load_tile_reusing(i, tile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{clustered_tensor, uniform_tensor, ClusteredConfig};
    use crate::Entry;

    /// Streams every tile back to entries and compares against the COO.
    fn assert_source_matches(src: &dyn TensorSource, coo: &CooTensor) {
        assert_eq!(src.dims(), coo.dims());
        assert_eq!(src.nnz(), coo.nnz());
        let mut entries = Vec::with_capacity(src.nnz());
        let mut prev_cell = None;
        let mut tile = SourceTile::default();
        for i in 0..src.n_tiles() {
            src.load_tile_into(i, &mut tile).unwrap();
            assert_eq!(tile.cell, src.tile_cell(i));
            assert_eq!(tile.nnz(), src.tile_nnz(i));
            assert!(tile.nnz() > 0, "sources never serve empty tiles");
            assert_ne!(prev_cell, Some(tile.cell), "tile cells are distinct");
            prev_cell = Some(tile.cell);
            for (l, &v) in tile.locals.iter().zip(&tile.vals) {
                entries.push(Entry {
                    idx: [
                        (tile.origin[0] + l[0] as usize) as u32,
                        (tile.origin[1] + l[1] as usize) as u32,
                        (tile.origin[2] + l[2] as usize) as u32,
                    ],
                    val: v,
                });
            }
        }
        assert_eq!(&CooTensor::from_entries(coo.dims(), entries), coo);
    }

    #[test]
    fn coo_source_round_trips() {
        let t = uniform_tensor([40, 30, 20], 800, 7);
        assert_source_matches(&CooSource::new(&t, [4, 3, 2]), &t);
    }

    #[test]
    fn bcoo_source_round_trips_for_every_mode() {
        let cfg = ClusteredConfig::new([48, 36, 24], 1_000);
        let t = clustered_tensor(&cfg, 3);
        for mode in 0..NMODES {
            let b = BcooTensor::from_coo(&t, mode, [3, 3, 2]);
            assert_source_matches(&BcooSource::new(b), &t);
        }
    }

    #[test]
    fn tile_store_source_round_trips() {
        let t = uniform_tensor([32, 32, 32], 600, 9);
        let dir = std::env::temp_dir().join(format!("tenblock_source_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = TileStore::create_from_coo(&t, [2, 4, 2], dir.join("s.tnsb")).unwrap();
        assert_source_matches(&store, &t);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn coo_and_bcoo_sources_agree_on_tile_extents() {
        // For mode 0 the BCOO perm is the identity, so cells and tiles
        // line up one-to-one with the COO sharding of the same grid.
        let t = uniform_tensor([20, 20, 20], 500, 21);
        let coo_src = CooSource::new(&t, [2, 2, 2]);
        let bcoo_src = BcooSource::new(BcooTensor::from_coo(&t, 0, [2, 2, 2]));
        assert_eq!(coo_src.n_tiles(), bcoo_src.n_tiles());
        for i in 0..coo_src.n_tiles() {
            assert_eq!(coo_src.tile_cell(i), bcoo_src.tile_cell(i));
            assert_eq!(coo_src.tile_nnz(i), bcoo_src.tile_nnz(i));
        }
        assert_eq!(coo_src.total_tile_bytes(), bcoo_src.total_tile_bytes());
    }
}
