//! The on-disk tile store: a `.tnsb` v2 payload holding a tensor as a
//! grid of MB-aligned COO tiles, loadable one tile at a time.
//!
//! The grid partitions the *original* axes with the same [`CellGrid`]
//! geometry the blocked layouts use, so one store
//! serves all three MTTKRP orientations: mode `m`'s kernel grid is just
//! the original grid read through `perm_for_mode(m)`. Entries inside a
//! tile are stored block-local (`u32` offset per axis + `f64` value, 20
//! bytes an entry), which is what lets a streaming driver hand a loaded
//! tile to the blocked kernel after a per-mode fiber sort. A tile's
//! entries may be stored in any order; [`TileStore::write_tiles`] writes
//! them in the fiber order of mode 0, which that sort detects and then
//! has nothing (mode 0), one pass (mode 1) or two (mode 2) left to do.
//!
//! Layout after the shared versioned header ([`crate::io_bin`],
//! `version = 2`):
//!
//! ```text
//! grid     u32 * 3                 tiles per original axis
//! n_tiles  u64                     nonempty tiles only
//! table    (cell u32*3, nnz u64, off u64, len u64) * n_tiles
//! payload  (local u32*3, val f64) * nnz   per tile, contiguous
//! ```
//!
//! The reader is an input boundary: tiles must be sorted by linear cell
//! id with no duplicates, payloads must be contiguous and exactly sized
//! (`len == nnz * 20`, offsets tiling the rest of the file), per-tile
//! `nnz` must fit the cell volume, and every local offset must fall
//! inside its tile's span. Anything else is a typed [`BinError`], never
//! a panic — the fuzzer's tile-framing mutants hold it to that.

use crate::cell_grid::{CellGrid, GridError};
use crate::coo::CooTensor;
use crate::fiber_sort::sort_into_cells;
use crate::io_bin::{
    read_header, read_u32, read_u64, to_usize, write_header, write_u32, write_u64, BinError,
    BinHeader, VERSION_COO, VERSION_TILES,
};
use crate::persist::{AtomicFile, FaultRead};
use crate::source::SourceTile;
use crate::{Entry, Idx, NMODES};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use tenblock_faults::FaultPolicy;

/// Bytes per stored tile entry: three `u32` locals plus the `f64` value.
pub const TILE_ENTRY_BYTES: u64 = TILE_ENTRY_LEN as u64;

/// [`TILE_ENTRY_BYTES`] as a buffer length.
pub(crate) const TILE_ENTRY_LEN: usize = 3 * 4 + 8;

/// Bytes per tile-table record: cell, nnz, offset, length.
const TABLE_RECORD_BYTES: u64 = 12 + 8 + 8 + 8;

/// One tile's table record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileMeta {
    /// Grid cell per original axis.
    pub cell: [u32; NMODES],
    /// Nonzeros in the tile.
    pub nnz: u64,
    /// Absolute file offset of the tile's payload.
    pub off: u64,
    /// Payload length in bytes (`nnz * TILE_ENTRY_BYTES`).
    pub len: u64,
}

/// The parsed, validated structure of a tile store (header + table).
#[derive(Debug, Clone)]
struct StoreMeta {
    dims: [usize; NMODES],
    cells: CellGrid,
    nnz: usize,
    tiles: Vec<TileMeta>,
}

/// A spillable on-disk tensor: the table lives in memory (36 bytes per
/// nonempty tile), the payloads stay on disk until [`TileStore::load_tile`].
#[derive(Debug, Clone)]
pub struct TileStore {
    path: PathBuf,
    meta: StoreMeta,
    faults: FaultPolicy,
}

impl From<GridError> for BinError {
    fn from(e: GridError) -> Self {
        BinError::Format(format!("tile {e}"))
    }
}

/// The grid counts as the file stores them, `u32` each.
fn stored_counts(cells: &CellGrid) -> Result<[u32; NMODES], BinError> {
    let mut out = [0u32; NMODES];
    for (o, g) in out.iter_mut().zip(cells.counts()) {
        *o = u32::try_from(g)
            .map_err(|_| BinError::Format(format!("tile grid count {g} does not fit u32")))?;
    }
    Ok(out)
}

// The ingest path (`open`, `validate_bytes`, `load_tile`, `to_coo` and the
// helpers here they call) is under the untrusted-input denies: a malformed
// store is a typed error, never a panic.

/// Parses and validates the header + grid + tile table of a v2 store.
/// `total_len` is the byte length of the whole stream; payload offsets
/// must tile `[table_end, total_len)` exactly, in order.
#[deny(
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::unreachable
)]
fn parse_meta<R: Read>(r: &mut R, total_len: u64) -> Result<StoreMeta, BinError> {
    let h = read_header(r)?;
    if h.version != VERSION_TILES {
        return Err(BinError::Format(format!(
            "unsupported tile-store version {}",
            h.version
        )));
    }
    let dims: [usize; NMODES] = h.dims.as_slice().try_into().map_err(|_| {
        BinError::Format(format!(
            "tile store requires a 3-mode tensor, file has order {}",
            h.dims.len()
        ))
    })?;
    let mut grid = [0usize; NMODES];
    for g in grid.iter_mut() {
        *g = read_u32(r)? as usize;
    }
    let cells = CellGrid::new(dims, grid)?;
    let n_tiles = to_usize(read_u64(r)?, "tile count")?;
    if n_tiles > cells.n_cells() {
        return Err(BinError::Format(format!(
            "tile table lists {n_tiles} tiles but the grid has {} cells",
            cells.n_cells()
        )));
    }
    // n_tiles is untrusted; a wrapped table size would defeat the
    // truncation check below.
    let table_end = (n_tiles as u64)
        .checked_mul(TABLE_RECORD_BYTES)
        .and_then(|t| t.checked_add(h.encoded_len() as u64 + 12 + 8))
        .ok_or_else(|| BinError::Format("tile table size overflows".into()))?;
    if table_end > total_len {
        return Err(BinError::Format("truncated tile table".into()));
    }

    let mut tiles = Vec::with_capacity(n_tiles);
    let mut prev_id = None;
    let mut expected_off = table_end;
    let mut total_nnz: u64 = 0;
    for t in 0..n_tiles {
        let mut cell = [0u32; NMODES];
        for c in cell.iter_mut() {
            *c = read_u32(r)?;
        }
        for (ax, (&c, &g)) in cell.iter().zip(&grid).enumerate() {
            if c as usize >= g {
                return Err(BinError::Format(format!(
                    "tile {t}: cell {c} out of grid range on axis {ax}"
                )));
            }
        }
        let at = cell.map(|c| c as usize);
        let id = cells.id(at);
        if prev_id.is_some_and(|p| id <= p) {
            return Err(BinError::Format(format!(
                "tile {t}: cell {cell:?} duplicates or reorders an earlier tile extent"
            )));
        }
        prev_id = Some(id);
        let nnz = read_u64(r)?;
        let off = read_u64(r)?;
        let len = read_u64(r)?;
        if len != nnz.saturating_mul(TILE_ENTRY_BYTES) {
            return Err(BinError::Format(format!(
                "tile {t}: length {len} disagrees with nnz {nnz}"
            )));
        }
        let volume = (0..NMODES).fold(1u128, |v, ax| v.saturating_mul(cells.span(at, ax) as u128));
        if nnz as u128 > volume {
            return Err(BinError::Format(format!(
                "tile {t}: nnz {nnz} exceeds the cell volume {volume}"
            )));
        }
        if off != expected_off {
            return Err(BinError::Format(format!(
                "tile {t}: payload offset {off} overlaps or skips bytes (expected {expected_off})"
            )));
        }
        expected_off = off.checked_add(len).ok_or_else(|| {
            BinError::Format(format!("tile {t}: payload end overflows a u64 offset"))
        })?;
        total_nnz += nnz;
        tiles.push(TileMeta {
            cell,
            nnz,
            off,
            len,
        });
    }
    if expected_off != total_len {
        return Err(BinError::Format(format!(
            "payloads end at {expected_off} but the file has {total_len} bytes"
        )));
    }
    if total_nnz != h.nnz {
        return Err(BinError::Format(format!(
            "tile nnz sum {total_nnz} disagrees with header nnz {}",
            h.nnz
        )));
    }
    Ok(StoreMeta {
        dims,
        cells,
        nnz: to_usize(h.nnz, "nnz")?,
        tiles,
    })
}

/// Decodes `tile.payload` — tile `t`'s bytes — into `tile`, holding every
/// local offset against the tile's span.
#[deny(
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::unreachable
)]
fn decode_tile(
    cells: &CellGrid,
    t: usize,
    tm: &TileMeta,
    tile: &mut SourceTile,
) -> Result<(), BinError> {
    let SourceTile {
        cell,
        origin,
        locals,
        vals,
        payload,
    } = tile;
    if payload.len() as u64 != tm.len {
        return Err(BinError::Format(format!(
            "tile {t}: payload has {} bytes, table says {}",
            payload.len(),
            tm.len
        )));
    }
    // parse_meta put every cell inside the grid.
    *cell = tm.cell.map(|c| c as usize);
    *origin = cells.origin(*cell);
    let span = [0, 1, 2].map(|ax| cells.span(*cell, ax));
    let decode = |rec: &[u8]| {
        let [a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, v0, v1, v2, v3, v4, v5, v6, v7] = *rec
        else {
            return ([u32::MAX; NMODES], 0.0); // chunks_exact hands out whole records only
        };
        let local = [
            u32::from_le_bytes([a0, a1, a2, a3]),
            u32::from_le_bytes([b0, b1, b2, b3]),
            u32::from_le_bytes([c0, c1, c2, c3]),
        ];
        (local, f64::from_le_bytes([v0, v1, v2, v3, v4, v5, v6, v7]))
    };
    let inside = |l: &[u32; NMODES]| l.iter().zip(&span).all(|(&o, &s)| (o as usize) < s);
    let records = payload.chunks_exact(TILE_ENTRY_LEN);
    locals.clear();
    locals.extend(records.clone().map(|rec| decode(rec).0));
    vals.clear();
    vals.extend(records.map(|rec| decode(rec).1));
    // Checked after the decode so the loops above stay branch-free.
    if !locals.iter().fold(true, |ok, l| ok & inside(l)) {
        let e = locals.iter().position(|l| !inside(l));
        return Err(BinError::Format(format!(
            "tile {t} entry {e:?}: a local offset lies outside the span {span:?}"
        )));
    }
    Ok(())
}

impl TileStore {
    /// Opens and validates an existing tile-store file. Only the header
    /// and tile table are read into memory.
    #[deny(
        clippy::indexing_slicing,
        clippy::panic,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::unreachable
    )]
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, BinError> {
        Self::open_with(path, FaultPolicy::none())
    }

    /// [`TileStore::open`] with fault injection: every read during open
    /// and every later [`TileStore::load_tile`] routes through `faults`.
    #[deny(
        clippy::indexing_slicing,
        clippy::panic,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::unreachable
    )]
    pub fn open_with<P: AsRef<Path>>(path: P, faults: FaultPolicy) -> Result<Self, BinError> {
        let file = std::fs::File::open(&path)?;
        let total_len = file.metadata()?.len();
        let mut r = FaultRead::new(BufReader::new(file), faults.clone());
        let meta = parse_meta(&mut r, total_len)?;
        Ok(TileStore {
            path: path.as_ref().to_path_buf(),
            meta,
            faults,
        })
    }

    /// Fully validates an in-memory tile-store image: structure plus a
    /// decode of every tile. This is the fuzzer's entry point — it must
    /// return a typed error on any malformation, never panic.
    #[deny(
        clippy::indexing_slicing,
        clippy::panic,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::unreachable
    )]
    pub fn validate_bytes(bytes: &[u8]) -> Result<(), BinError> {
        let mut r = bytes;
        let meta = parse_meta(&mut r, bytes.len() as u64)?;
        let mut tile = SourceTile::default();
        for (t, tm) in meta.tiles.iter().enumerate() {
            // parse_meta proved the payloads tile [table_end, total_len).
            let (off, len) = (to_usize(tm.off, "offset")?, to_usize(tm.len, "length")?);
            let payload = bytes
                .get(off..off + len)
                .ok_or_else(|| BinError::Format(format!("tile {t}: payload past the end")))?;
            tile.payload.clear();
            tile.payload.extend_from_slice(payload);
            decode_tile(&meta.cells, t, tm, &mut tile)?;
        }
        Ok(())
    }

    /// Serializes `coo` as a tile store over `grid` (original axes) into
    /// any writer. Sequential — no seeking — so it also targets sockets
    /// and in-memory buffers.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a cell is below its count, which fits u32, and a tile's origin is at \
                  most one of its entries' u32 indices"
    )]
    pub fn write_tiles<W: Write>(
        coo: &CooTensor,
        grid: [usize; NMODES],
        writer: W,
    ) -> Result<(), BinError> {
        let cells = CellGrid::new(coo.dims(), grid)?;
        let counts = stored_counts(&cells)?;
        // Tile table: one record per nonempty cell, payloads contiguous.
        // Within a tile the entries are in the fiber order of mode 0, so
        // a mode-0 pass streams them without reordering.
        let entries = coo.entries();
        let sorted = sort_into_cells(entries.len(), |n| &entries[n], |e| e.idx, &cells);
        let header = BinHeader {
            version: VERSION_TILES,
            dims: coo.dims().to_vec(),
            nnz: coo.nnz() as u64,
        };
        let mut w = BufWriter::new(writer);
        write_header(&mut w, &header)?;
        for g in counts {
            write_u32(&mut w, g)?;
        }
        write_u64(&mut w, sorted.cells.len() as u64)?;
        let mut off =
            header.encoded_len() as u64 + 12 + 8 + sorted.cells.len() as u64 * TABLE_RECORD_BYTES;
        let mut start = 0;
        for &(cell, end) in &sorted.cells {
            let nnz = (end - start) as u64;
            start = end;
            for &c in &cell {
                write_u32(&mut w, c as u32)?;
            }
            let len = nnz * TILE_ENTRY_BYTES;
            write_u64(&mut w, nnz)?;
            write_u64(&mut w, off)?;
            write_u64(&mut w, len)?;
            off += len;
        }
        let mut start = 0;
        for &(cell, end) in &sorted.cells {
            let origin = cells.origin(cell);
            for e in &sorted.records[start..end] {
                for ax in 0..NMODES {
                    write_u32(&mut w, e.idx[ax] - origin[ax] as Idx)?;
                }
                w.write_all(&e.val.to_le_bytes())?;
            }
            start = end;
        }
        w.flush()?;
        Ok(())
    }

    /// Writes `coo` as a tile-store file and opens it (which re-validates
    /// the bytes just written). The write is crash-safe: bytes land in a
    /// same-directory temp file that only a post-`sync_all` rename makes
    /// visible at `path`, so a killed process never leaves a partial
    /// store where `open` can see it.
    pub fn create_from_coo<P: AsRef<Path>>(
        coo: &CooTensor,
        grid: [usize; NMODES],
        path: P,
    ) -> Result<Self, BinError> {
        Self::create_from_coo_with(coo, grid, path, FaultPolicy::none())
    }

    /// [`TileStore::create_from_coo`] with fault injection over every
    /// write, sync, and the committing rename.
    pub fn create_from_coo_with<P: AsRef<Path>>(
        coo: &CooTensor,
        grid: [usize; NMODES],
        path: P,
        faults: FaultPolicy,
    ) -> Result<Self, BinError> {
        let mut out = AtomicFile::create(&path, faults.clone())?;
        Self::write_tiles(coo, grid, &mut out)?;
        out.commit()?;
        Self::open_with(path, faults)
    }

    /// Converts a v1 (flat COO) `.tnsb` file into a tile store at `dst`
    /// in bounded memory: two streaming passes over the source — count
    /// nonzeros per cell, then scatter entries through small per-tile
    /// write buffers — so neither tensor is ever fully resident.
    pub fn build_from_tnsb<P: AsRef<Path>, Q: AsRef<Path>>(
        src: P,
        grid: [usize; NMODES],
        dst: Q,
    ) -> Result<Self, BinError> {
        Self::build_from_tnsb_with(src, grid, dst, FaultPolicy::none())
    }

    /// [`TileStore::build_from_tnsb`] with fault injection. Like
    /// [`TileStore::create_from_coo_with`], the scatter writes target a
    /// temp file and only a post-sync rename publishes `dst`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a cell is below its count, which fits u32, and a local offset is below \
                  a u32 coordinate read from the source"
    )]
    pub fn build_from_tnsb_with<P: AsRef<Path>, Q: AsRef<Path>>(
        src: P,
        grid: [usize; NMODES],
        dst: Q,
        faults: FaultPolicy,
    ) -> Result<Self, BinError> {
        let src = src.as_ref();
        let (header, coords_at) = read_v1_prelude(src)?;
        let dims = [header.dims[0], header.dims[1], header.dims[2]];
        let cells = CellGrid::new(dims, grid)?;
        let stored = stored_counts(&cells)?;
        let nnz = to_usize(header.nnz, "nnz")?;

        // Pass 1: per-cell nonzero counts, O(cells) memory.
        let mut counts = vec![0u64; cells.n_cells()];
        {
            let mut f = std::fs::File::open(src)?;
            f.seek(SeekFrom::Start(coords_at))?;
            let mut coords = BufReader::new(f);
            for n in 0..nnz {
                let idx = read_coord3(&mut coords, dims, n)?;
                counts[cells.id(cells.cell_of(idx))] += 1;
            }
        }

        // Table: nonempty cells in id order, contiguous payload offsets.
        let n_tiles = counts.iter().filter(|&&c| c > 0).count() as u64;
        let table_end = n_tiles
            .checked_mul(TABLE_RECORD_BYTES)
            .and_then(|t| t.checked_add(header.encoded_len() as u64 + 12 + 8))
            .ok_or_else(|| BinError::Format("tile table size overflows".into()))?;
        let mut cursor = vec![0u64; cells.n_cells()]; // per-cell write position
        let mut out = AtomicFile::create(dst.as_ref(), faults.clone())?;
        {
            let mut w = BufWriter::new(&mut out);
            write_header(
                &mut w,
                &BinHeader {
                    version: VERSION_TILES,
                    dims: header.dims.clone(),
                    nnz: header.nnz,
                },
            )?;
            for g in stored {
                write_u32(&mut w, g)?;
            }
            write_u64(&mut w, n_tiles)?;
            let mut off = table_end;
            for (id, &count) in counts.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                for c in cells.cell(id) {
                    write_u32(&mut w, c as u32)?;
                }
                let len = count * TILE_ENTRY_BYTES;
                write_u64(&mut w, count)?;
                write_u64(&mut w, off)?;
                write_u64(&mut w, len)?;
                cursor[id] = off;
                off += len;
            }
            w.flush()?;
        }

        // Pass 2: scatter entries to their tiles through small flush
        // buffers — bounded by FLUSH_AT bytes per nonempty tile.
        const FLUSH_AT: usize = 4096;
        let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); cells.n_cells()];
        let mut coords = {
            let mut f = std::fs::File::open(src)?;
            f.seek(SeekFrom::Start(coords_at))?;
            BufReader::new(f)
        };
        let mut vals = {
            let mut f = std::fs::File::open(src)?;
            // nnz coordinates (12 B each) were just streamed in pass 1,
            // so 12·nnz is within the source file length.
            f.seek(SeekFrom::Start(coords_at + 12 * nnz as u64))?;
            BufReader::new(f)
        };
        let flush = |out: &mut AtomicFile,
                     id: usize,
                     buf: &mut Vec<u8>,
                     cursor: &mut [u64]|
         -> Result<(), BinError> {
            out.seek(SeekFrom::Start(cursor[id]))?;
            out.write_all(buf)?;
            cursor[id] += buf.len() as u64;
            buf.clear();
            Ok(())
        };
        for n in 0..nnz {
            let idx = read_coord3(&mut coords, dims, n)?;
            let mut v = [0u8; 8];
            vals.read_exact(&mut v)?;
            let cell = cells.cell_of(idx);
            let id = cells.id(cell);
            let origin = cells.origin(cell);
            let buf = &mut bufs[id];
            for ax in 0..NMODES {
                buf.extend_from_slice(&((idx[ax] - origin[ax]) as u32).to_le_bytes());
            }
            buf.extend_from_slice(&v);
            if buf.len() >= FLUSH_AT {
                flush(&mut out, id, buf, &mut cursor)?;
            }
        }
        for (id, buf) in bufs.iter_mut().enumerate() {
            if !buf.is_empty() {
                flush(&mut out, id, buf, &mut cursor)?;
            }
        }
        out.flush()?;
        out.commit()?;
        Self::open_with(dst, faults)
    }

    /// Tensor dimensions (original mode order).
    pub fn dims(&self) -> [usize; NMODES] {
        self.meta.dims
    }

    /// Tile counts per original axis.
    pub fn grid(&self) -> [usize; NMODES] {
        self.meta.cells.counts()
    }

    /// Total nonzeros across all tiles.
    pub fn nnz(&self) -> usize {
        self.meta.nnz
    }

    /// Number of nonempty tiles.
    pub fn n_tiles(&self) -> usize {
        self.meta.tiles.len()
    }

    /// The `i`-th tile's table record.
    pub fn tile(&self, i: usize) -> TileMeta {
        self.meta.tiles[i]
    }

    /// Tile boundaries along original axis `ax` (length `grid[ax] + 1`).
    pub fn bounds(&self, ax: usize) -> &[usize] {
        self.meta.cells.bounds(ax)
    }

    /// Payload bytes of the largest tile — what a double-buffered reader
    /// must be able to hold twice.
    pub fn max_tile_bytes(&self) -> u64 {
        self.meta.tiles.iter().map(|t| t.len).max().unwrap_or(0)
    }

    /// The file this store reads from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Loads and decodes one tile from disk into a fresh [`SourceTile`].
    #[deny(
        clippy::indexing_slicing,
        clippy::panic,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::unreachable
    )]
    pub fn load_tile(&self, i: usize) -> Result<SourceTile, BinError> {
        let mut tile = SourceTile::default();
        self.load_tile_reusing(i, &mut tile)?;
        Ok(tile)
    }

    /// Loads and decodes one tile from disk into `tile`, reusing its
    /// buffers (the read buffer included).
    #[deny(
        clippy::indexing_slicing,
        clippy::panic,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::unreachable
    )]
    pub fn load_tile_reusing(&self, i: usize, tile: &mut SourceTile) -> Result<(), BinError> {
        let tm = *self.meta.tiles.get(i).ok_or_else(|| {
            BinError::Format(format!(
                "tile index {i} out of range ({} tiles)",
                self.meta.tiles.len()
            ))
        })?;
        let mut f = std::fs::File::open(&self.path)?;
        f.seek(SeekFrom::Start(tm.off))?;
        tile.payload.resize(to_usize(tm.len, "tile length")?, 0);
        FaultRead::new(f, self.faults.clone()).read_exact(&mut tile.payload)?;
        decode_tile(&self.meta.cells, i, &tm, tile)
    }

    /// Reassembles the whole tensor (one tile at a time). This is the
    /// spill tier's reload path and the round-trip test hook — it holds
    /// the full entry list, so only call it when the tensor is meant to
    /// become resident again.
    #[deny(
        clippy::indexing_slicing,
        clippy::panic,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::unreachable
    )]
    pub fn to_coo(&self) -> Result<CooTensor, BinError> {
        let mut entries = Vec::with_capacity(self.nnz());
        let mut tile = SourceTile::default();
        for i in 0..self.n_tiles() {
            self.load_tile_reusing(i, &mut tile)?;
            for (l, &v) in tile.locals.iter().zip(&tile.vals) {
                let mut idx = [0; NMODES];
                for ((x, &o), &l) in idx.iter_mut().zip(&tile.origin).zip(l) {
                    *x = Idx::try_from(o + l as usize).map_err(|_| {
                        BinError::Format(format!("tile {i}: a coordinate exceeds the index type"))
                    })?;
                }
                entries.push(Entry { idx, val: v });
            }
        }
        // The bytes came from disk: a store that passes tile-framing
        // validation can still carry a corrupted payload (e.g. a bit flip
        // turning a value non-finite), so this must stay a typed error,
        // never the panicking constructor.
        CooTensor::try_from_entries(self.dims(), entries)
            .map_err(|e| BinError::Format(format!("decoded store is not a valid tensor: {e}")))
    }
}

/// Reads a v1 `.tnsb` header and returns it with the byte offset of the
/// coordinate section.
fn read_v1_prelude(path: &Path) -> Result<(BinHeader, u64), BinError> {
    let mut r = BufReader::new(std::fs::File::open(path)?);
    let h = read_header(&mut r)?;
    if h.version != VERSION_COO {
        return Err(BinError::Format(format!(
            "expected a v1 COO .tnsb file, found version {}",
            h.version
        )));
    }
    if h.dims.len() != NMODES {
        return Err(BinError::Format(format!(
            "tile store requires a 3-mode tensor, file has order {}",
            h.dims.len()
        )));
    }
    let at = h.encoded_len() as u64;
    Ok((h, at))
}

/// Reads one 3-mode coordinate triple, validating range.
fn read_coord3<R: Read>(
    r: &mut R,
    dims: [usize; NMODES],
    n: usize,
) -> Result<[usize; NMODES], BinError> {
    let mut idx = [0usize; NMODES];
    for (ax, i) in idx.iter_mut().enumerate() {
        let c = read_u32(r)? as usize;
        if c >= dims[ax] {
            return Err(BinError::Format(format!(
                "entry {n}: coordinate {c} out of range for mode {ax}"
            )));
        }
        *i = c;
    }
    Ok(idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::uniform_tensor;
    use crate::io_bin::write_bin_file;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tenblock_tiles_{}_{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn store_round_trips_through_tiles() {
        let t = uniform_tensor([40, 30, 20], 900, 3);
        let dir = tmpdir("roundtrip");
        let store = TileStore::create_from_coo(&t, [4, 3, 2], dir.join("t.tnsb")).unwrap();
        assert_eq!(store.dims(), t.dims());
        assert_eq!(store.nnz(), t.nnz());
        assert!(store.n_tiles() >= 1);
        assert_eq!(store.to_coo().unwrap(), t);
        // Tile cells are sorted and nnz sums to the total.
        let sum: u64 = (0..store.n_tiles()).map(|i| store.tile(i).nnz).sum();
        assert_eq!(sum, t.nnz() as u64);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn build_from_v1_matches_in_memory_build() {
        let t = uniform_tensor([64, 48, 32], 2_000, 11);
        let dir = tmpdir("fromv1");
        let v1 = dir.join("src.tnsb");
        write_bin_file(&t, &v1).unwrap();
        let streamed = TileStore::build_from_tnsb(&v1, [3, 2, 2], dir.join("a.tnsb")).unwrap();
        let direct = TileStore::create_from_coo(&t, [3, 2, 2], dir.join("b.tnsb")).unwrap();
        assert_eq!(streamed.n_tiles(), direct.n_tiles());
        for i in 0..streamed.n_tiles() {
            let (a, b) = (streamed.tile(i), direct.tile(i));
            assert_eq!(a.cell, b.cell);
            assert_eq!(a.nnz, b.nnz);
        }
        assert_eq!(streamed.to_coo().unwrap(), t);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_tensor_has_no_tiles() {
        let t = CooTensor::empty([5, 5, 5]);
        let dir = tmpdir("empty");
        let store = TileStore::create_from_coo(&t, [2, 2, 2], dir.join("e.tnsb")).unwrap();
        assert_eq!(store.n_tiles(), 0);
        assert_eq!(store.to_coo().unwrap(), t);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validate_bytes_accepts_well_formed_and_rejects_mutants() {
        let t = uniform_tensor([16, 16, 16], 200, 5);
        let mut bytes = Vec::new();
        TileStore::write_tiles(&t, [2, 2, 2], &mut bytes).unwrap();
        TileStore::validate_bytes(&bytes).unwrap();

        // Truncated tile table.
        assert!(matches!(
            TileStore::validate_bytes(&bytes[..60]),
            Err(BinError::Format(_)) | Err(BinError::Io(_))
        ));
        // Lying length: corrupt the first tile's nnz field.
        let mut lying = bytes.clone();
        let nnz_at = 4 + 4 + 4 + 3 * 8 + 8 + 12 + 8 + 12; // first record's nnz
        lying[nnz_at] ^= 0xff;
        assert!(TileStore::validate_bytes(&lying).is_err());
        // Trailing garbage breaks the extent tiling.
        let mut trailing = bytes.clone();
        trailing.extend_from_slice(&[0u8; 7]);
        assert!(matches!(
            TileStore::validate_bytes(&trailing),
            Err(BinError::Format(_))
        ));
        // A v1 file is not a tile store.
        let mut v1 = Vec::new();
        crate::io_bin::write_bin(&t, &mut v1).unwrap();
        assert!(matches!(
            TileStore::validate_bytes(&v1),
            Err(BinError::Format(_))
        ));
    }

    #[test]
    fn a_tile_whose_payload_end_overflows_is_a_typed_error() {
        // One 2^80-cell tile claiming 2^62 entries: its length saturates
        // to u64::MAX, and offset + length used to overflow (a panic in a
        // debug build).
        let mut bytes = Vec::new();
        let header = BinHeader {
            version: VERSION_TILES,
            dims: vec![1 << 40, 1 << 40, 1],
            nnz: 1 << 62,
        };
        write_header(&mut bytes, &header).unwrap();
        for v in [1u32, 1, 1] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        bytes.extend_from_slice(&1u64.to_le_bytes()); // one tile
        bytes.extend_from_slice(&[0u8; 12]); // cell (0, 0, 0)
        let table_end = bytes.len() as u64 + 24;
        for v in [1u64 << 62, table_end, u64::MAX] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let err = TileStore::validate_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("overflows"), "{err}");
    }

    #[test]
    fn tile_locals_stay_inside_spans() {
        let t = uniform_tensor([33, 17, 9], 400, 13);
        let dir = tmpdir("spans");
        let store = TileStore::create_from_coo(&t, [5, 3, 2], dir.join("t.tnsb")).unwrap();
        for i in 0..store.n_tiles() {
            let tile = store.load_tile(i).unwrap();
            for ax in 0..NMODES {
                let c = tile.cell[ax];
                let span = store.bounds(ax)[c + 1] - store.bounds(ax)[c];
                assert!(tile.locals.iter().all(|l| (l[ax] as usize) < span));
                assert_eq!(tile.origin[ax], store.bounds(ax)[c]);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
