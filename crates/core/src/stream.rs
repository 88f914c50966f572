//! Out-of-core streaming MTTKRP over a [`TensorSource`].
//!
//! [`StreamingMttkrp`] runs one mode's MTTKRP by iterating grid tiles
//! instead of holding a layout: a prefetch thread loads and re-sorts the
//! next tile while the compute thread runs the BCOO micro-kernel on the
//! current one (rendezvous channel — classic double buffering, at most
//! two tiles resident). The result is **bit-for-bit identical** to the
//! in-memory MB and BCOO kernels in serial mode, which pins down three
//! invariants this module must never break:
//!
//! 1. tiles execute sorted by kernel-axis cell id — the order the BCOO
//!    block table stores and the MB kernel's block-major loop visits;
//! 2. entries within a tile execute in `(slice, k, j)` local order — the
//!    sort `BcooTensor::from_coo` applies (unique coordinates, so the
//!    unstable sort is deterministic);
//! 3. tile extents come from the same `uniform_bounds` arithmetic, so
//!    per-column accumulation order matches term for term.
//!
//! Checked mode keeps PR 3's write-set discipline without a second pass:
//! each slice-axis band owns its bounds-derived row range, the rows each
//! tile actually decodes are accumulated *during* the stream, and the
//! usual disjointness/coverage verdict runs once at the end.

use crate::exec::ExecPolicy;
use crate::mttkrp::micro::{process_block_bcoo, GatherBuf};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::Instant;
use tenblock_check::{write_set_violations, RaceReport, WriteSet};
use tenblock_faults::{is_transient, Backoff, FaultOp, FaultPolicy, IoOutcome};
use tenblock_obs::{KernelCounters, StreamStats};
use tenblock_tensor::coo::perm_for_mode;
use tenblock_tensor::io_bin::BinError;
use tenblock_tensor::{DenseMatrix, SourceTile, TensorSource, NMODES};

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

/// One prefetched tile, already re-sorted and permuted into kernel axes.
struct KernelTile {
    /// Slice-axis grid cell (for checked-mode band accounting).
    slice_cell: usize,
    origin: [usize; NMODES],
    spans: [usize; NMODES],
    offs: Vec<[u32; NMODES]>,
    vals: Vec<f64>,
    bytes: u64,
}

/// Streaming MTTKRP driver for one mode over any [`TensorSource`].
pub struct StreamingMttkrp<'a> {
    src: &'a dyn TensorSource,
    mode: usize,
    strip_width: usize,
    exec: ExecPolicy,
    stats: Arc<StreamStats>,
}

impl<'a> StreamingMttkrp<'a> {
    /// A driver for the mode-`mode` MTTKRP with `strip_width`-column rank
    /// strips (0 means whole-rank), matching `BcooKernel`'s convention.
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

        // Invariant 1: kernel-axis cell order — the BCOO block-id order.
        let mut order: Vec<usize> = (0..self.src.n_tiles()).collect();
        order.sort_unstable_by_key(|&i| {
            let cell = self.src.tile_cell(i);
            [cell[perm[0]], cell[perm[1]], cell[perm[2]]]
        });

        // Grid bounds per original axis — the shared `uniform_bounds`
        // contract every source obeys. Spans fed to the micro-kernel come
        // from here (invariant 3), not from the decoded offsets, so the
        // per-block gather heuristic sees exactly what `BcooKernel` sees.
        let bounds: [Vec<usize>; NMODES] = [
            tenblock_tensor::bcoo::uniform_bounds(dims[0], grid[0]),
            tenblock_tensor::bcoo::uniform_bounds(dims[1], grid[1]),
            tenblock_tensor::bcoo::uniform_bounds(dims[2], grid[2]),
        ];

        // Checked mode: decoded slice rows per slice-axis band,
        // accumulated during the single pass.
        let n_bands = grid[perm[0]];
        let bounds0 = &bounds[perm[0]];
        let mut touched: Vec<Vec<usize>> = vec![Vec::new(); n_bands];

        let src = self.src;
        let stats = Arc::clone(&self.stats);
        let faults = self.exec.faults.clone();
        let n_expected = order.len();
        let mut scratch = GatherBuf::default();
        let out_rows = out.as_mut_slice();

        std::thread::scope(|scope| -> Result<(), StreamError> {
            // Rendezvous channel: the handoff blocks until the compute
            // thread takes the tile, so at most two tiles are ever
            // resident (one computing, one prefetched).
            let (tx, rx) = sync_channel::<Result<KernelTile, StreamError>>(0);
            let bounds = &bounds;
            let prefetch_stats = Arc::clone(&stats);
            scope.spawn(move || {
                for &i in &order {
                    // catch_unwind: a panicking `TensorSource` impl (or a
                    // bug in `prepare_tile`) must surface as a typed error
                    // on the channel, never as a poisoned rendezvous that
                    // the compute side would misread as end-of-stream.
                    let msg = catch_unwind(AssertUnwindSafe(|| {
                        load_tile_retrying(src, i, perm, bounds, &faults, &prefetch_stats)
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
                if self.exec.is_checked() {
                    let band = &mut touched[tile.slice_cell];
                    let mut prev = usize::MAX;
                    for o in &tile.offs {
                        let row = tile.origin[0] + o[0] as usize;
                        if row != prev {
                            band.push(row);
                            prev = row;
                        }
                    }
                }
                process_block_bcoo(
                    &tile.offs,
                    &tile.vals,
                    b,
                    c,
                    tile.origin,
                    tile.spans,
                    out_rows,
                    0,
                    rank,
                    self.strip_width,
                    &mut scratch,
                );
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

/// Permutes a loaded tile into kernel axes and applies invariant 2: the
/// `(slice, k, j)` local entry order the BCOO layout stores. Runs on the
/// prefetch thread so the sort overlaps compute. `bounds` are the grid
/// boundaries per *original* axis; spans are bounds-derived so the
/// micro-kernel's gather heuristic matches the in-memory layout exactly.
fn prepare_tile(
    tile: SourceTile,
    perm: [usize; NMODES],
    bytes: u64,
    bounds: &[Vec<usize>; NMODES],
) -> KernelTile {
    let n = tile.nnz();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by_key(|&e| {
        let l = tile.locals[e as usize];
        (l[perm[0]], l[perm[2]], l[perm[1]])
    });
    let mut offs = Vec::with_capacity(n);
    let mut vals = Vec::with_capacity(n);
    for &e in &order {
        let l = tile.locals[e as usize];
        offs.push([l[perm[0]], l[perm[1]], l[perm[2]]]);
        vals.push(tile.vals[e as usize]);
    }
    let mut origin = [0usize; NMODES];
    let mut spans = [0usize; NMODES];
    for ax in 0..NMODES {
        let orig_ax = perm[ax];
        let cell = tile.cell[orig_ax];
        origin[ax] = tile.origin[orig_ax];
        spans[ax] = bounds[orig_ax][cell + 1] - bounds[orig_ax][cell];
    }
    KernelTile {
        slice_cell: tile.cell[perm[0]],
        origin,
        spans,
        offs,
        vals,
        bytes,
    }
}

/// Loads and prepares one tile, retrying transient I/O failures with
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
    perm: [usize; NMODES],
    bounds: &[Vec<usize>; NMODES],
    faults: &FaultPolicy,
    stats: &StreamStats,
) -> Result<KernelTile, StreamError> {
    let io_err = |source: BinError| StreamError::Io {
        tile: i,
        offset: src.tile_offset(i),
        source,
    };
    let mut backoff = Backoff::for_io(i as u64);
    loop {
        let attempt = load_tile_once(src, i, faults);
        match attempt {
            Ok(tile) => return Ok(prepare_tile(tile, perm, src.tile_bytes(i), bounds)),
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
) -> Result<SourceTile, BinError> {
    match faults.before(FaultOp::Read, src.tile_bytes(i) as usize) {
        IoOutcome::Ok => src.load_tile(i),
        IoOutcome::Err(e) => Err(BinError::Io(e)),
        IoOutcome::Short(_) => Err(BinError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("short read injected on tile {i}"),
        ))),
        IoOutcome::Corrupt(off) => {
            let mut tile = src.load_tile(i)?;
            if !tile.vals.is_empty() {
                let k = off % tile.vals.len();
                tile.vals[k] = f64::from_bits(tile.vals[k].to_bits() ^ 0x40);
            }
            Ok(tile)
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
    use crate::block::BlockedKernel;
    use crate::kernel::MttkrpKernel;
    use crate::mttkrp::BcooKernel;
    use tenblock_tensor::gen::{clustered_tensor, uniform_tensor, ClusteredConfig};
    use tenblock_tensor::{BcooSource, BcooTensor, CooSource, CooTensor};

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
                let k = BcooKernel::new(&x, mode, grid_kernel, strip);
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
    fn bcoo_source_streams_identically_to_coo_source() {
        let cfg = ClusteredConfig::new([40, 40, 40], 1_500);
        let x = clustered_tensor(&cfg, 9);
        let grid_orig = [2, 4, 2];
        let rank = 9;
        let factors = factors_for(&x, rank);
        let fs: [&DenseMatrix; NMODES] = [&factors[0], &factors[1], &factors[2]];
        // BCOO layout built for mode 1 — the source must still serve
        // modes 0 and 2 correctly through the perm translation.
        let bcoo_grid = [grid_orig[1], grid_orig[2], grid_orig[0]];
        let bsrc = BcooSource::new(BcooTensor::from_coo(&x, 1, bcoo_grid));
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
        /// A source whose single tile claims cell 0 but decodes rows in
        /// the second band — the streamed analogue of a corrupted block
        /// table.
        struct LyingSource {
            inner: CooSource,
        }
        impl TensorSource for LyingSource {
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
            fn load_tile(&self, i: usize) -> Result<SourceTile, BinError> {
                let mut t = self.inner.load_tile(i)?;
                if t.cell[0] == 0 {
                    // Shift the tile into the next band's rows without
                    // updating the cell claim.
                    t.origin[0] += self.dims()[0] / 2;
                }
                Ok(t)
            }
        }
        let x = uniform_tensor([16, 10, 10], 300, 5);
        let src = LyingSource {
            inner: CooSource::new(&x, [2, 1, 1]),
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
        fn load_tile(&self, i: usize) -> Result<SourceTile, BinError> {
            if i == self.bad_tile {
                if self.panic {
                    panic!("injected panic on tile {i}");
                }
                return Err(BinError::Io(std::io::Error::other("injected EIO")));
            }
            self.inner.load_tile(i)
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
