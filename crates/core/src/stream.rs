//! Out-of-core streaming MTTKRP over a [`TensorSource`].
//!
//! [`StreamingMttkrp`] is the blocked kernel over a paged block table: it
//! runs one mode's MTTKRP by iterating grid tiles instead of holding a
//! layout. A prefetch thread loads the next tile, puts it into fiber order
//! and builds it into that block's slice-compressed [`SplattTensor`], while
//! the compute thread runs the blocked kernel's per-block body
//! (`BlockBody`) on the current one. The handoff is a rendezvous channel,
//! so two built blocks are resident at most (one computing, one waiting),
//! and a spent block's buffers travel back to the prefetch thread on a
//! return channel: a pass allocates its buffers before the first tile and
//! none after. Preparation is O(tile nnz): the source decodes into one
//! reused [`SourceTile`]; the counting passes of
//! [`FiberSorter::sort_tile`] move the records into kernel axes and fiber
//! order between reused [`FiberCols`] and the spent decoded columns (no
//! comparison sort, no index vector); and
//! [`SplattTensor::refill_from_tile`] runs the fiber-pointer pass every
//! in-memory block is built with.
//!
//! The result is **bit-for-bit identical** to the in-memory blocked
//! kernels at the source's grid (`Mb`, `MbRankB` and its alias `Bcoo`) in
//! serial mode, which pins down three invariants this module must never
//! break:
//!
//! 1. tiles execute sorted by kernel-axis cell id — the order the blocked
//!    kernel's block-row loop visits;
//! 2. entries within a tile execute in the `(slice, k, j)` order of
//!    [`tenblock_tensor::fiber_sort`] — the one every in-memory block is
//!    sorted into; the sort is stable, so a source that repeats a
//!    coordinate streams the repeats in the order it served them;
//! 3. tile extents come from the same [`CellGrid`] geometry, so each tile
//!    is exactly the nonzeros of its in-memory block.
//!
//! Which loop the body runs in a block never changes a bit, so neither
//! does the strip width.
//!
//! Checked mode keeps the write-set discipline without a second pass:
//! each slice-axis band owns its bounds-derived row range, the rows each
//! block's slice ids name are accumulated *during* the stream, and the
//! usual disjointness/coverage verdict runs once at the end.

use crate::block::BlockBody;
use crate::check::{write_set_violations, RaceReport, WriteSet};
use crate::exec::ExecPolicy;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, sync_channel};
use std::sync::Arc;
use std::time::Instant;
use tenblock_faults::{is_transient, Backoff, FaultOp, FaultPolicy, IoOutcome};
use tenblock_obs::{KernelCounters, StreamStats};
use tenblock_tensor::coo::perm_for_mode;
use tenblock_tensor::io_bin::BinError;
use tenblock_tensor::{
    CellGrid, DenseMatrix, FiberCols, FiberSorter, Idx, SourceTile, SplattTensor, TensorSource,
    NMODES,
};

/// Why a streaming pass stopped.
#[derive(Debug)]
pub enum StreamError {
    /// The source failed to produce a tile for a non-I/O reason (framing,
    /// validation) — permanent; retrying cannot help.
    Load(BinError),
    /// An I/O failure that survived the transient-retry budget. Carries
    /// the tile index and the tile's byte offset within its backing file
    /// (0 for in-memory sources) so operators can localise bad media.
    Io {
        /// Index of the tile whose load failed.
        tile: usize,
        /// Byte offset of the tile payload in the backing file.
        offset: u64,
        /// The underlying load error.
        source: BinError,
    },
    /// The prefetch thread panicked or vanished before delivering every
    /// tile. The partial output is discarded; this never surfaces as a
    /// silently-truncated result.
    Prefetch(String),
    /// Checked mode refused the result: a tile decoded rows outside its
    /// band's bounds-derived claim.
    Race(RaceReport),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Load(e) => write!(f, "tile load failed: {e}"),
            StreamError::Io {
                tile,
                offset,
                source,
            } => write!(
                f,
                "tile {tile} load failed at byte offset {offset}: {source}"
            ),
            StreamError::Prefetch(what) => write!(f, "prefetch thread failed: {what}"),
            StreamError::Race(r) => write!(f, "streaming write-set check failed: {r}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<BinError> for StreamError {
    fn from(e: BinError) -> Self {
        StreamError::Load(e)
    }
}

/// One prefetched tile, built into its block.
struct KernelTile {
    /// Slice-axis grid cell (for checked-mode band accounting).
    slice_cell: usize,
    block: SplattTensor,
    bytes: u64,
}

/// Streaming MTTKRP driver for one mode over any [`TensorSource`].
pub struct StreamingMttkrp<'a> {
    src: &'a dyn TensorSource,
    mode: usize,
    strip_width: usize,
    exec: ExecPolicy,
    stats: Arc<StreamStats>,
    /// Block buffers created, over all passes of this driver.
    #[cfg(test)]
    col_buffers_created: std::sync::atomic::AtomicUsize,
}

impl<'a> StreamingMttkrp<'a> {
    /// A driver for the mode-`mode` MTTKRP with `strip_width`-column rank
    /// strips (0 means one strip of the full rank) in the blocks whose
    /// fibers pay for the register loop; the rest run the accumulator loop.
    pub fn new(src: &'a dyn TensorSource, mode: usize, strip_width: usize) -> Self {
        StreamingMttkrp {
            src,
            mode,
            strip_width: if strip_width == 0 {
                usize::MAX
            } else {
                strip_width
            },
            exec: ExecPolicy::serial(),
            stats: Arc::new(StreamStats::new()),
            #[cfg(test)]
            col_buffers_created: Default::default(),
        }
    }

    /// Sets the execution policy. Checked mode enables the per-band
    /// write-set verdict; the compute loop itself is single-threaded (the
    /// parallelism is the prefetch overlap).
    pub fn with_exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self
    }

    /// Shares a stats sink (e.g. one per serve registry entry or CLI
    /// run) instead of the driver's private one.
    pub fn with_stats(mut self, stats: Arc<StreamStats>) -> Self {
        self.stats = stats;
        self
    }

    /// The stream counters this driver updates.
    pub fn stats(&self) -> &Arc<StreamStats> {
        &self.stats
    }

    /// The mode this driver computes.
    pub fn mode(&self) -> usize {
        self.mode
    }

    /// Runs the mode-`self.mode` MTTKRP into `out`, streaming tiles from
    /// the source with one prefetch thread.
    ///
    /// # Panics
    /// Panics on shape mismatches (wrong `out` rows, factor rank
    /// disagreement) — same contract as the in-memory kernels. I/O and
    /// checked-mode failures come back as typed [`StreamError`]s.
    pub fn run(
        &self,
        factors: &[&DenseMatrix; NMODES],
        out: &mut DenseMatrix,
    ) -> Result<(), StreamError> {
        let perm = perm_for_mode(self.mode);
        let dims = self.src.dims();
        let grid = self.src.grid();
        let b = factors[perm[1]];
        let c = factors[perm[2]];
        let rank = out.cols();
        assert_eq!(out.rows(), dims[self.mode], "output rows != mode length");
        assert_eq!(b.cols(), rank, "factor rank mismatch");
        assert_eq!(c.cols(), rank, "factor rank mismatch");
        // The grid over the original axes every source obeys: tile spans
        // come from here (invariant 3), not from the decoded offsets.
        let cells = CellGrid::new(dims, grid).map_err(|e| StreamError::Load(e.into()))?;

        let span = self.exec.recorder.span("mttkrp/STREAM");
        if span.active() {
            span.annotate_num("mode", self.mode as f64);
            span.annotate_num("tiles", self.src.n_tiles() as f64);
            span.counters(
                &KernelCounters::coo_model(self.src.nnz() as u64, rank as u64)
                    .with_blocks(self.src.n_tiles() as u64),
            );
        }
        out.fill_zero();

        // Invariant 1: kernel-axis cell order — the block-row loop's order.
        let mut order: Vec<usize> = (0..self.src.n_tiles()).collect();
        order.sort_unstable_by_key(|&i| {
            let cell = self.src.tile_cell(i);
            [cell[perm[0]], cell[perm[1]], cell[perm[2]]]
        });

        // Checked mode: decoded slice rows per slice-axis band,
        // accumulated during the single pass.
        let n_bands = grid[perm[0]];
        let bounds0 = cells.bounds(perm[0]);
        let mut touched: Vec<Vec<usize>> = vec![Vec::new(); n_bands];

        let src = self.src;
        let stats = Arc::clone(&self.stats);
        let faults = self.exec.faults.clone();
        let n_expected = order.len();
        let mut body = BlockBody::new(rank, Some(self.strip_width));
        let out_rows = out.as_mut_slice();

        std::thread::scope(|scope| -> Result<(), StreamError> {
            // Rendezvous channel: the handoff blocks until the compute
            // thread takes the tile, so at most two built blocks are ever
            // resident (one computing, one prefetched). Their buffers are
            // the two made here, which go round: the compute side puts a
            // spent one back on `spent_tx` before it asks for the next
            // tile, so the prefetch side always finds one there. Every
            // buffer is allocated on this thread, for the largest tile,
            // once — nothing grows mid-pass, and passes run from one
            // thread reuse one another's memory.
            let (tx, rx) = sync_channel::<Result<KernelTile, StreamError>>(0);
            let (spent_tx, spent_rx) = channel::<SplattTensor>();
            let max_nnz = src.max_tile_nnz();
            for _ in 0..2 {
                #[cfg(test)]
                self.col_buffers_created
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let block = SplattTensor::compressed_with_capacity(dims, perm, max_nnz);
                let _ = spent_tx.send(block);
            }
            // What the prefetch thread keeps from tile to tile: the decode
            // target, the sorted columns (each the other's second buffer
            // in the sort) and the sort's histogram.
            let mut loaded = SourceTile::with_capacity(max_nnz);
            let mut sorted = FiberCols::with_capacity(max_nnz);
            let mut sorter = FiberSorter::new();
            let cells = &cells;
            let prefetch_stats = Arc::clone(&stats);
            scope.spawn(move || {
                for &i in &order {
                    let Ok(block) = spent_rx.recv() else {
                        return; // compute side hung up
                    };
                    // catch_unwind: a panicking `TensorSource` impl (or a
                    // bug in the preparation) must surface as a typed
                    // error on the channel, never as a poisoned rendezvous
                    // that the compute side would misread as end-of-stream.
                    let msg = catch_unwind(AssertUnwindSafe(|| {
                        let t0 = Instant::now();
                        load_tile_retrying(src, i, &faults, &prefetch_stats, &mut loaded)?;
                        let t1 = Instant::now();
                        let bytes = src.tile_bytes(i);
                        let tile = prepare_tile(
                            &mut loaded,
                            &mut sorter,
                            &mut sorted,
                            block,
                            perm,
                            bytes,
                            cells,
                        );
                        prefetch_stats.add_prefetch_ns(
                            (t1 - t0).as_nanos() as u64,
                            t1.elapsed().as_nanos() as u64,
                        );
                        tile
                    }))
                    .unwrap_or_else(|panic| {
                        Err(StreamError::Prefetch(format!(
                            "panic while loading tile {i}: {}",
                            panic_message(panic.as_ref())
                        )))
                    });
                    let failed = msg.is_err();
                    if tx.send(msg).is_err() || failed {
                        return; // compute side hung up, or error delivered
                    }
                }
            });

            let mut received = 0usize;
            loop {
                let wait = Instant::now();
                let msg = match rx.recv() {
                    Ok(msg) => msg,
                    Err(_) => {
                        // The sender is gone. That is only legitimate once
                        // every tile has been delivered — anything earlier
                        // means the prefetch thread died without sending
                        // its error, and a silently-truncated result must
                        // not escape as success.
                        if received == n_expected {
                            break;
                        }
                        return Err(StreamError::Prefetch(format!(
                            "prefetch thread exited after {received} of {n_expected} tiles"
                        )));
                    }
                };
                stats.add_stall_ns(wait.elapsed().as_nanos() as u64);
                let tile = msg?;
                received += 1;
                stats.add_tile(tile.bytes);
                let block = &tile.block;
                let slices = 0..block.n_slices();
                if self.exec.is_checked() {
                    let rows = slices.clone().map(|s| block.slice_global(s));
                    touched[tile.slice_cell].extend(rows);
                }
                body.add_block(block, b, c, slices, out_rows, 0);
                // The prefetch thread may already be gone (last tile).
                let _ = spent_tx.send(tile.block);
            }
            Ok(())
        })?;

        if self.exec.is_checked() {
            let sets: Vec<WriteSet> = touched
                .into_iter()
                .enumerate()
                .map(|(a, rows)| WriteSet::new(a, bounds0[a]..bounds0[a + 1]).touch_all(rows))
                .collect();
            let violations = write_set_violations(dims[self.mode], &sets);
            RaceReport::check("STREAM", violations).map_err(StreamError::Race)?;
        }
        Ok(())
    }
}

/// Turns the tile just loaded into `tile` into its block: invariant 2
/// through the fiber sort's counting passes into `sorted`, then the
/// fiber-pointer pass into `block`, on the prefetch thread so both
/// overlap compute. `cells` is the grid over the *original* axes. A cell
/// outside the grid, a local offset outside its span, or a tile reaching
/// past the tensor's axes or past [`Idx`] coordinates is a typed
/// [`StreamError::Load`] whichever source produced it.
fn prepare_tile(
    tile: &mut SourceTile,
    sorter: &mut FiberSorter,
    sorted: &mut FiberCols,
    mut block: SplattTensor,
    perm: [usize; NMODES],
    bytes: u64,
    cells: &CellGrid,
) -> Result<KernelTile, StreamError> {
    let counts = cells.counts();
    if let Some(ax) = perm.into_iter().find(|&m| tile.cell[m] >= counts[m]) {
        return Err(StreamError::Load(BinError::Format(format!(
            "tile cell {:?} outside the grid on axis {ax}",
            tile.cell
        ))));
    }
    let spans = perm.map(|m| cells.span(tile.cell, m));
    let lens = perm.map(|m| cells.bounds(m).last().copied().unwrap_or(0));
    let Some(origin) = idx_origin(perm.map(|m| tile.origin[m]), spans, lens) else {
        return Err(StreamError::Load(BinError::Format(format!(
            "tile at {:?} reaches past the tensor's axes or u32 coordinates",
            tile.origin
        ))));
    };
    sorter.sort_tile(&mut tile.locals, &mut tile.vals, perm, spans, sorted)?;
    block.refill_from_tile(origin, sorted);
    Ok(KernelTile {
        slice_cell: tile.cell[perm[0]],
        block,
        bytes,
    })
}

/// `origin` as [`Idx`] coordinates, when a block spanning `spans` from it
/// lies inside axes of `lens` indices and its last index along every axis
/// fits [`Idx`] — what lets the block build add a local offset below its
/// span to the origin without a check.
fn idx_origin(
    origin: [usize; NMODES],
    spans: [usize; NMODES],
    lens: [usize; NMODES],
) -> Option<[Idx; NMODES]> {
    let mut out = [0; NMODES];
    for (o, ((&at, &span), &len)) in out.iter_mut().zip(origin.iter().zip(&spans).zip(&lens)) {
        let end = at.checked_add(span).filter(|&end| end <= len)?;
        Idx::try_from(end.saturating_sub(1)).ok()?;
        *o = Idx::try_from(at).ok()?;
    }
    Some(out)
}

/// `‖X‖²` of a source in one pass over its tiles, in index order, through
/// the same retrying loader (and the same fault hook, typed errors and
/// counters) as an MTTKRP pass.
pub fn stream_sq_norm(
    src: &dyn TensorSource,
    exec: &ExecPolicy,
    stats: &StreamStats,
) -> Result<f64, StreamError> {
    let mut tile = SourceTile::with_capacity(src.max_tile_nnz());
    let mut total = 0.0;
    for i in 0..src.n_tiles() {
        load_tile_retrying(src, i, &exec.faults, stats, &mut tile)?;
        stats.add_tile(src.tile_bytes(i));
        total += tile.vals.iter().map(|v| v * v).sum::<f64>();
    }
    Ok(total)
}

/// Loads one tile into `tile`, retrying transient I/O failures with
/// seeded exponential backoff. Classification:
///
/// * transient ([`is_transient`]: `EINTR`/`EAGAIN`/timeouts) → retry up
///   to the [`Backoff`] budget, counting each retry in
///   [`StreamStats::add_retry`];
/// * permanent I/O (any other [`BinError::Io`], or a transient one that
///   exhausted the budget) → [`StreamError::Io`] with the tile index and
///   its byte offset in the backing file;
/// * framing/validation ([`BinError::Format`]) → [`StreamError::Load`] —
///   the bytes arrived fine but mean nothing, so retrying cannot help.
///
/// The [`FaultPolicy`] hook fires before each attempt so `tenblock chaos`
/// can exercise the retry and failure paths against healthy sources.
fn load_tile_retrying(
    src: &dyn TensorSource,
    i: usize,
    faults: &FaultPolicy,
    stats: &StreamStats,
    tile: &mut SourceTile,
) -> Result<(), StreamError> {
    let io_err = |source: BinError| StreamError::Io {
        tile: i,
        offset: src.tile_offset(i),
        source,
    };
    let mut backoff = Backoff::for_io(i as u64);
    loop {
        match load_tile_once(src, i, faults, tile) {
            Ok(()) => return Ok(()),
            Err(BinError::Io(e)) if is_transient(&e) => match backoff.next_delay() {
                Some(delay) => {
                    stats.add_retry();
                    std::thread::sleep(delay);
                }
                None => return Err(io_err(BinError::Io(e))),
            },
            Err(e @ BinError::Format(_)) => return Err(StreamError::Load(e)),
            Err(e) => return Err(io_err(e)),
        }
    }
}

/// One load attempt with the stream-layer fault hook applied. `Errno`
/// faults become the corresponding I/O error (transient errnos then take
/// the retry path); `ShortRead` and `Crash` become an unexpected-EOF /
/// crash error; `FlipByte` perturbs one loaded value, modelling silent
/// media corruption that only checked mode or a downstream consumer can
/// notice.
fn load_tile_once(
    src: &dyn TensorSource,
    i: usize,
    faults: &FaultPolicy,
    tile: &mut SourceTile,
) -> Result<(), BinError> {
    match faults.before(FaultOp::Read, src.tile_bytes(i) as usize) {
        IoOutcome::Ok => src.load_tile_into(i, tile),
        IoOutcome::Err(e) => Err(BinError::Io(e)),
        IoOutcome::Short(_) => Err(BinError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("short read injected on tile {i}"),
        ))),
        IoOutcome::Corrupt(off) => {
            src.load_tile_into(i, tile)?;
            if !tile.vals.is_empty() {
                let k = off % tile.vals.len();
                tile.vals[k] = f64::from_bits(tile.vals[k].to_bits() ^ 0x40);
            }
            Ok(())
        }
    }
}

/// Best-effort text for a caught panic payload.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{build_layout, kernel::walks_strips, BlockedKernel};
    use crate::kernel::{build_kernel, KernelConfig, KernelKind, MttkrpKernel};
    use tenblock_tensor::gen::{clustered_tensor, uniform_tensor, ClusteredConfig};
    use tenblock_tensor::{CooSource, CooTensor, Entry, TileStore};

    /// The in-memory `bcoo` kernel (MB+RankB) at `grid` and `strip`.
    fn bcoo(
        x: &CooTensor,
        mode: usize,
        grid: [usize; NMODES],
        strip: usize,
    ) -> Box<dyn MttkrpKernel> {
        let cfg = KernelConfig {
            grid,
            strip_width: strip,
            ..KernelConfig::default()
        };
        build_kernel(KernelKind::Bcoo, x, mode, &cfg)
    }

    fn factors_for(x: &CooTensor, rank: usize) -> Vec<DenseMatrix> {
        x.dims()
            .iter()
            .enumerate()
            .map(|(m, &d)| {
                DenseMatrix::from_fn(d, rank, |r, c| {
                    (((r * 13 + c * 5 + m) % 23) as f64 - 11.0) * 0.05
                })
            })
            .collect()
    }

    /// Exact (not approximate) equality — the bit-for-bit contract.
    fn assert_bits_equal(a: &DenseMatrix, b: &DenseMatrix, what: &str) {
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.cols(), b.cols());
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "{what}: element {i} differs: {x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn streaming_matches_bcoo_bit_for_bit_every_mode() {
        let cfg = ClusteredConfig::new([60, 45, 30], 2_500);
        let x = clustered_tensor(&cfg, 5);
        let grid_orig = [4, 3, 2];
        let rank = 17; // not a multiple of the strip width
        let factors = factors_for(&x, rank);
        let fs: [&DenseMatrix; NMODES] = [&factors[0], &factors[1], &factors[2]];
        let src = CooSource::new(&x, grid_orig);
        for mode in 0..NMODES {
            let perm = perm_for_mode(mode);
            let grid_kernel = [grid_orig[perm[0]], grid_orig[perm[1]], grid_orig[perm[2]]];
            for strip in [0, 8, 16] {
                let k = bcoo(&x, mode, grid_kernel, strip);
                let mut expect = DenseMatrix::zeros(x.dims()[mode], rank);
                k.mttkrp(&fs, &mut expect);
                let mut got = DenseMatrix::zeros(x.dims()[mode], rank);
                StreamingMttkrp::new(&src, mode, strip)
                    .run(&fs, &mut got)
                    .unwrap();
                assert_bits_equal(&expect, &got, &format!("mode {mode} strip {strip}"));
            }
        }
    }

    #[test]
    fn streaming_matches_mb_bit_for_bit() {
        let x = uniform_tensor([48, 32, 24], 1_800, 31);
        let grid_orig = [3, 2, 2];
        let rank = 16;
        let factors = factors_for(&x, rank);
        let fs: [&DenseMatrix; NMODES] = [&factors[0], &factors[1], &factors[2]];
        let src = CooSource::new(&x, grid_orig);
        for mode in 0..NMODES {
            let perm = perm_for_mode(mode);
            let grid_kernel = [grid_orig[perm[0]], grid_orig[perm[1]], grid_orig[perm[2]]];
            let k = BlockedKernel::new(&x, mode, Some(grid_kernel), None);
            let mut expect = DenseMatrix::zeros(x.dims()[mode], rank);
            k.mttkrp(&fs, &mut expect);
            // Whole-rank strips: the plain per-entry update order.
            let mut got = DenseMatrix::zeros(x.dims()[mode], rank);
            StreamingMttkrp::new(&src, mode, 0)
                .run(&fs, &mut got)
                .unwrap();
            assert_bits_equal(&expect, &got, &format!("MB mode {mode}"));
        }
    }

    #[test]
    fn a_tile_store_streams_identically_to_coo_source() {
        let cfg = ClusteredConfig::new([40, 40, 40], 1_500);
        let x = clustered_tensor(&cfg, 9);
        let grid_orig = [2, 4, 2];
        let rank = 9;
        let factors = factors_for(&x, rank);
        let fs: [&DenseMatrix; NMODES] = [&factors[0], &factors[1], &factors[2]];
        // The on-disk store of the same tensor and grid.
        let dir = std::env::temp_dir().join(format!("tenblock_stream_src_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bsrc = TileStore::create_from_coo(&x, grid_orig, dir.join("s.tnsb")).unwrap();
        let csrc = CooSource::new(&x, grid_orig);
        assert_eq!(TensorSource::grid(&bsrc), grid_orig);
        for mode in 0..NMODES {
            let mut a = DenseMatrix::zeros(x.dims()[mode], rank);
            let mut b = DenseMatrix::zeros(x.dims()[mode], rank);
            StreamingMttkrp::new(&csrc, mode, 16)
                .run(&fs, &mut a)
                .unwrap();
            StreamingMttkrp::new(&bsrc, mode, 16)
                .run(&fs, &mut b)
                .unwrap();
            assert_bits_equal(&a, &b, &format!("source kind, mode {mode}"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A fully populated `[0,16)³` corner in a box of uniform nonzeros at
    /// about one a fiber: at rank 64 the `[4,3,2]` grid has blocks on both
    /// sides of the per-block loop choice at strips of 16 and of 64, and a
    /// streamed pass runs each block through the loop its in-memory twin
    /// runs.
    #[test]
    fn a_streamed_pass_takes_both_loops_and_keeps_the_bits() {
        let dims = [60, 48, 40];
        let mut entries = uniform_tensor(dims, 1_500, 5).entries().to_vec();
        for n in 0..16 * 16 * 16u32 {
            let val = 1.0 + (n % 7) as f64 * 0.25;
            entries.push(Entry::new(n / 256, n / 16 % 16, n % 16, val));
        }
        let x = CooTensor::from_entries(dims, entries);
        let grid_orig = [4, 3, 2];
        let src = CooSource::new(&x, grid_orig);
        let rank = 64;
        let factors = factors_for(&x, rank);
        let fs: [&DenseMatrix; NMODES] = [&factors[0], &factors[1], &factors[2]];
        for mode in 0..NMODES {
            let grid = perm_for_mode(mode).map(|m| grid_orig[m]);
            let layout = build_layout(&x, mode, grid);
            for strip in [16, 64] {
                let walks: Vec<bool> = (0..grid[0])
                    .flat_map(|a| layout.row_blocks(a))
                    .map(|t| walks_strips(t, rank, strip))
                    .collect();
                assert!(
                    walks.contains(&true) && walks.contains(&false),
                    "mode {mode} strip {strip}: {walks:?}"
                );
                let cfg = KernelConfig {
                    grid,
                    strip_width: strip,
                    ..KernelConfig::default()
                };
                let mut expect = DenseMatrix::zeros(dims[mode], rank);
                build_kernel(KernelKind::MbRankB, &x, mode, &cfg).mttkrp(&fs, &mut expect);
                for exec in [ExecPolicy::serial(), ExecPolicy::checked()] {
                    let what = format!("mode {mode} strip {strip} {:?}", exec.threads);
                    let mut got = DenseMatrix::from_fn(dims[mode], rank, |_, _| 1234.5);
                    StreamingMttkrp::new(&src, mode, strip)
                        .with_exec(exec)
                        .run(&fs, &mut got)
                        .unwrap();
                    assert_bits_equal(&expect, &got, &what);
                }
            }
        }
    }

    #[test]
    fn stats_count_tiles_and_bytes_per_pass() {
        let x = uniform_tensor([30, 30, 30], 900, 3);
        let src = CooSource::new(&x, [3, 3, 3]);
        let rank = 4;
        let factors = factors_for(&x, rank);
        let fs: [&DenseMatrix; NMODES] = [&factors[0], &factors[1], &factors[2]];
        let driver = StreamingMttkrp::new(&src, 0, 16);
        let mut out = DenseMatrix::zeros(30, rank);
        driver.run(&fs, &mut out).unwrap();
        driver.run(&fs, &mut out).unwrap();
        let snap = driver.stats().snapshot();
        assert_eq!(snap.tiles_loaded, 2 * src.n_tiles() as u64);
        assert_eq!(snap.bytes_streamed, 2 * src.total_tile_bytes());
    }

    #[test]
    fn checked_streaming_passes_on_healthy_sources() {
        let x = uniform_tensor([25, 20, 15], 700, 77);
        let src = CooSource::new(&x, [3, 2, 2]);
        let rank = 6;
        let factors = factors_for(&x, rank);
        let fs: [&DenseMatrix; NMODES] = [&factors[0], &factors[1], &factors[2]];
        for mode in 0..NMODES {
            let mut out = DenseMatrix::zeros(x.dims()[mode], rank);
            StreamingMttkrp::new(&src, mode, 16)
                .with_exec(ExecPolicy::checked())
                .run(&fs, &mut out)
                .unwrap();
        }
    }

    #[test]
    fn checked_streaming_refuses_rows_outside_the_band() {
        // A source whose first-band tile claims cell 0 but decodes rows in
        // the second band — the streamed analogue of a corrupted block
        // table: the tile is shifted into the next band's rows without
        // updating the cell claim.
        let x = uniform_tensor([16, 10, 10], 300, 5);
        let src = EditedSource {
            inner: CooSource::new(&x, [2, 1, 1]),
            edit: |t: &mut SourceTile| {
                if t.cell[0] == 0 {
                    t.origin[0] += 8;
                }
            },
        };
        let rank = 3;
        let factors = factors_for(&x, rank);
        let fs: [&DenseMatrix; NMODES] = [&factors[0], &factors[1], &factors[2]];
        let mut out = DenseMatrix::zeros(16, rank);
        let err = StreamingMttkrp::new(&src, 0, 16)
            .with_exec(ExecPolicy::checked())
            .run(&fs, &mut out)
            .unwrap_err();
        assert!(matches!(err, StreamError::Race(_)), "got: {err}");
    }

    /// Delegates everything but the tile contents, which `edit` rewrites
    /// after the inner source loaded them.
    struct EditedSource<F> {
        inner: CooSource,
        edit: F,
    }
    impl<F: Fn(&mut SourceTile) + Send + Sync> TensorSource for EditedSource<F> {
        fn dims(&self) -> [usize; NMODES] {
            self.inner.dims()
        }
        fn nnz(&self) -> usize {
            self.inner.nnz()
        }
        fn grid(&self) -> [usize; NMODES] {
            self.inner.grid()
        }
        fn n_tiles(&self) -> usize {
            self.inner.n_tiles()
        }
        fn tile_cell(&self, i: usize) -> [usize; NMODES] {
            self.inner.tile_cell(i)
        }
        fn tile_nnz(&self, i: usize) -> usize {
            self.inner.tile_nnz(i)
        }
        fn load_tile_into(&self, i: usize, tile: &mut SourceTile) -> Result<(), BinError> {
            self.inner.load_tile_into(i, tile)?;
            (self.edit)(tile);
            Ok(())
        }
    }

    #[test]
    fn reversed_and_shuffled_tiles_still_match_bcoo_bit_for_bit() {
        // Invariant 2 is the driver's, not the source's: whatever order a
        // source serves a tile's entries in, they execute in fiber order.
        let cfg = ClusteredConfig::new([50, 40, 30], 2_000);
        let x = clustered_tensor(&cfg, 17);
        let grid_orig = [3, 2, 2];
        let rank = 10;
        let factors = factors_for(&x, rank);
        let fs: [&DenseMatrix; NMODES] = [&factors[0], &factors[1], &factors[2]];
        let scramble = |tile: &mut SourceTile| {
            tile.locals.reverse();
            tile.vals.reverse();
            let mut s = tile.nnz() as u64 ^ 0x9e37_79b9_7f4a_7c15;
            for n in (1..tile.nnz()).rev() {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let m = (s >> 33) as usize % (n + 1);
                tile.locals.swap(n, m);
                tile.vals.swap(n, m);
            }
        };
        let src = EditedSource {
            inner: CooSource::new(&x, grid_orig),
            edit: scramble,
        };
        for mode in 0..NMODES {
            let perm = perm_for_mode(mode);
            let grid_kernel = [grid_orig[perm[0]], grid_orig[perm[1]], grid_orig[perm[2]]];
            let mut expect = DenseMatrix::zeros(x.dims()[mode], rank);
            bcoo(&x, mode, grid_kernel, 16).mttkrp(&fs, &mut expect);
            let mut got = DenseMatrix::zeros(x.dims()[mode], rank);
            StreamingMttkrp::new(&src, mode, 16)
                .run(&fs, &mut got)
                .unwrap();
            assert_bits_equal(&expect, &got, &format!("scrambled source, mode {mode}"));
        }
    }

    #[test]
    fn a_source_that_lies_about_its_spans_is_a_typed_load_error() {
        // Only the tile store validates offsets while decoding; the driver
        // must hold every source to its spans before a counting pass
        // indexes a histogram with them.
        let x = uniform_tensor([20, 12, 12], 400, 11);
        for ax in 0..NMODES {
            let src = EditedSource {
                inner: CooSource::new(&x, [2, 2, 2]),
                edit: move |tile: &mut SourceTile| {
                    if let Some(l) = tile.locals.last_mut() {
                        l[ax] = 1 << 20;
                    }
                },
            };
            for checked in [false, true] {
                let exec = if checked {
                    ExecPolicy::checked()
                } else {
                    ExecPolicy::serial()
                };
                let (res, _) = small_run(&src, exec);
                let err = res.unwrap_err();
                assert!(
                    matches!(err, StreamError::Load(BinError::Format(_))),
                    "axis {ax}: got {err}"
                );
            }
        }
        // A cell outside the grid is the same kind of lie.
        let src = EditedSource {
            inner: CooSource::new(&x, [2, 2, 2]),
            edit: |tile: &mut SourceTile| tile.cell[1] = 9,
        };
        let (res, _) = small_run(&src, ExecPolicy::serial());
        let err = res.unwrap_err();
        assert!(
            matches!(err, StreamError::Load(BinError::Format(_))),
            "got {err}"
        );
    }

    /// A tile whose origin puts it past an axis would make the block build
    /// name rows and factor rows the tensor does not have.
    #[test]
    fn a_tile_reaching_past_the_axes_is_a_typed_load_error() {
        let x = uniform_tensor([20, 12, 12], 400, 11);
        for ax in 0..NMODES {
            let src = EditedSource {
                inner: CooSource::new(&x, [2, 2, 2]),
                edit: move |tile: &mut SourceTile| tile.origin[ax] += 7,
            };
            let (res, _) = small_run(&src, ExecPolicy::serial());
            let err = res.unwrap_err();
            assert!(
                matches!(err, StreamError::Load(BinError::Format(_))),
                "axis {ax}: got {err}"
            );
        }
        assert_eq!(
            idx_origin([1 << 32, 0, 0], [0; NMODES], [usize::MAX; NMODES]),
            None
        );
        assert_eq!(
            idx_origin([(1 << 32) - 1, 0, 0], [1, 1, 1], [usize::MAX; NMODES]),
            Some([u32::MAX, 0, 0])
        );
        assert_eq!(
            idx_origin([(1 << 32) - 1, 0, 0], [2, 1, 1], [usize::MAX; NMODES]),
            None
        );
    }

    #[test]
    fn a_three_mode_sweep_creates_a_bounded_number_of_tile_buffers() {
        // Two column buffers circulate per pass (one computing, one being
        // prepared) however many tiles the pass has.
        let x = uniform_tensor([40, 40, 40], 6_000, 23);
        let rank = 4;
        let factors = factors_for(&x, rank);
        let fs: [&DenseMatrix; NMODES] = [&factors[0], &factors[1], &factors[2]];
        for grid in [[2, 1, 1], [4, 4, 4], [8, 8, 8]] {
            let src = CooSource::new(&x, grid);
            assert!(src.n_tiles() >= 2);
            let mut created = 0;
            for mode in 0..NMODES {
                let driver = StreamingMttkrp::new(&src, mode, 16);
                let mut out = DenseMatrix::zeros(x.dims()[mode], rank);
                driver.run(&fs, &mut out).unwrap();
                created += driver
                    .col_buffers_created
                    .load(std::sync::atomic::Ordering::Relaxed);
            }
            assert_eq!(
                created,
                2 * NMODES,
                "{} tiles per pass must not change the buffer count",
                src.n_tiles()
            );
        }
    }

    /// Delegating source that fails or panics on a chosen tile — the
    /// streamed analogue of bad media under the mmap.
    struct FaultySource {
        inner: CooSource,
        bad_tile: usize,
        /// `true` → panic on the bad tile; `false` → return an I/O error.
        panic: bool,
    }
    impl TensorSource for FaultySource {
        fn dims(&self) -> [usize; NMODES] {
            self.inner.dims()
        }
        fn nnz(&self) -> usize {
            self.inner.nnz()
        }
        fn grid(&self) -> [usize; NMODES] {
            self.inner.grid()
        }
        fn n_tiles(&self) -> usize {
            self.inner.n_tiles()
        }
        fn tile_cell(&self, i: usize) -> [usize; NMODES] {
            self.inner.tile_cell(i)
        }
        fn tile_nnz(&self, i: usize) -> usize {
            self.inner.tile_nnz(i)
        }
        fn tile_offset(&self, i: usize) -> u64 {
            (i as u64) * 1000
        }
        fn load_tile_into(&self, i: usize, tile: &mut SourceTile) -> Result<(), BinError> {
            if i == self.bad_tile {
                if self.panic {
                    panic!("injected panic on tile {i}");
                }
                return Err(BinError::Io(std::io::Error::other("injected EIO")));
            }
            self.inner.load_tile_into(i, tile)
        }
    }

    fn small_run(
        src: &dyn TensorSource,
        exec: ExecPolicy,
    ) -> (Result<(), StreamError>, Arc<StreamStats>) {
        let x = uniform_tensor([20, 12, 12], 400, 11);
        let rank = 4;
        let factors = factors_for(&x, rank);
        let fs: [&DenseMatrix; NMODES] = [&factors[0], &factors[1], &factors[2]];
        let mut out = DenseMatrix::zeros(20, rank);
        let driver = StreamingMttkrp::new(src, 0, 16).with_exec(exec);
        let res = driver.run(&fs, &mut out);
        let stats = Arc::clone(driver.stats());
        (res, stats)
    }

    #[test]
    fn permanent_io_error_is_typed_with_tile_and_offset() {
        let x = uniform_tensor([20, 12, 12], 400, 11);
        let src = FaultySource {
            inner: CooSource::new(&x, [2, 2, 2]),
            bad_tile: 3,
            panic: false,
        };
        let (res, _) = small_run(&src, ExecPolicy::serial());
        match res.unwrap_err() {
            StreamError::Io {
                tile,
                offset,
                source,
            } => {
                assert_eq!(tile, 3);
                assert_eq!(offset, 3000, "offset must come from tile_offset");
                assert!(matches!(source, BinError::Io(_)));
            }
            other => panic!("expected StreamError::Io, got: {other}"),
        }
    }

    #[test]
    fn panicking_source_yields_typed_error_not_truncation_or_hang() {
        let x = uniform_tensor([20, 12, 12], 400, 11);
        let src = FaultySource {
            inner: CooSource::new(&x, [2, 2, 2]),
            bad_tile: 0,
            panic: true,
        };
        let (res, _) = small_run(&src, ExecPolicy::serial());
        let err = res.unwrap_err();
        assert!(matches!(err, StreamError::Prefetch(_)), "got: {err}");
        assert!(err.to_string().contains("injected panic"), "got: {err}");
    }

    #[test]
    fn transient_faults_retry_and_heal_bit_exactly() {
        use tenblock_faults::{FaultAction, FaultOp, FaultPolicy, Trigger};
        let x = uniform_tensor([20, 12, 12], 400, 11);
        let src = CooSource::new(&x, [2, 2, 2]);
        let rank = 4;
        let factors = factors_for(&x, rank);
        let fs: [&DenseMatrix; NMODES] = [&factors[0], &factors[1], &factors[2]];
        let mut expect = DenseMatrix::zeros(20, rank);
        StreamingMttkrp::new(&src, 0, 16)
            .run(&fs, &mut expect)
            .unwrap();
        // EINTR on every read until two have fired, then healed.
        let faults = FaultPolicy::transient(
            FaultOp::Read,
            FaultAction::Errno(4),
            Trigger::EveryNth(1),
            7,
            2,
        );
        let mut got = DenseMatrix::zeros(20, rank);
        let driver =
            StreamingMttkrp::new(&src, 0, 16).with_exec(ExecPolicy::serial().with_faults(faults));
        driver.run(&fs, &mut got).unwrap();
        assert_eq!(driver.stats().snapshot().tile_retries, 2);
        assert_bits_equal(&expect, &got, "post-retry stream");
    }

    #[test]
    fn injected_permanent_errno_is_a_typed_io_error() {
        use tenblock_faults::{FaultAction, FaultOp, FaultPolicy, Trigger};
        let x = uniform_tensor([20, 12, 12], 400, 11);
        let src = CooSource::new(&x, [2, 2, 2]);
        // EIO (5) is not transient: fails immediately, no retries.
        let faults = FaultPolicy::new(FaultOp::Read, FaultAction::Errno(5), Trigger::Nth(2), 7);
        let (res, stats) = small_run(&src, ExecPolicy::serial().with_faults(faults));
        let err = res.unwrap_err();
        assert!(matches!(err, StreamError::Io { .. }), "got: {err}");
        assert_eq!(stats.snapshot().tile_retries, 0);
    }

    #[test]
    fn budget_grid_is_deterministic_and_respects_the_budget() {
        let dims = [200usize, 150, 90];
        let nnz = 50_000;
        for budget in [1u64 << 14, 1 << 17, 1 << 20, u64::MAX] {
            let grid = crate::tune::grid_for_tile_budget(dims, nnz, budget);
            assert_eq!(grid, crate::tune::grid_for_tile_budget(dims, nnz, budget));
            for ax in 0..NMODES {
                assert!(grid[ax] >= 1 && grid[ax] <= dims[ax]);
            }
            let cells = grid.iter().product::<usize>() as u64;
            let expected = (nnz as u64 * 20).div_ceil(cells);
            // Either the expected tile fits half the budget or the grid
            // saturated at one index per tile on every axis.
            assert!(
                expected <= (budget / 2).max(20) || grid == dims,
                "budget {budget}: grid {grid:?} expected tile {expected}"
            );
        }
        // Unconstrained budgets stream the whole tensor as one tile.
        assert_eq!(
            crate::tune::grid_for_tile_budget(dims, nnz, u64::MAX),
            [1, 1, 1]
        );
    }
}
