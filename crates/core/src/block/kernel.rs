//! The blocked MTTKRP kernel — the paper's Algorithm 2 / Figure 3b as the
//! one loop nest it is: rank strips ⊃ grid blocks ⊃ fibers.
//!
//! The four fibered kernels of the paper are its parameter settings:
//!
//! | grid | strips | kernel | inner loop |
//! |---|---|---|---|
//! | none (one block) | none | SPLATT, Algorithm 1 | length-`R` accumulator |
//! | `N_A x N_B x N_C` | none | MB, Section V-A | length-`R` accumulator |
//! | none (one block) | width `w` | RankB, Algorithm 2 | 16-wide registers |
//! | `N_A x N_B x N_C` | width `w` | MB+RankB, Figure 3b | 16-wide registers |
//!
//! Without strips every fiber gathers `val * B[j]` into a heap accumulator
//! and folds it into `A[i]` through `C[k]` (Algorithm 1), prefetching the
//! factor rows a few nonzeros ahead (the strip loop does not: on a grid a
//! block's rows are already cache-resident, and prefetching them bought
//! nothing — EXPERIMENTS.md "Hiding latency"). With strips the
//! whole grid is traversed once per strip of `w` factor columns, and the
//! accumulator becomes [`crate::mttkrp::REG_BLOCK`] registers, which
//! removes the load-unit pressure of Section IV-B (type 3). Within one
//! slice-axis block row, blocks are visited with the `j` axis outermost, so
//! the rows of the expensive mode-2 factor block are reused across the
//! inner `k` sweep.
//!
//! Parallelism is over output rows: every block row is cut into pieces no
//! taller than [`ExecPolicy::chunk_size`] of the output, and pieces write
//! disjoint rows, so no synchronization is needed. With one block row the
//! pieces are SPLATT's slice chunks.

use super::{build_layout, BlockGrid};
use crate::checked::effective_strip_plan;
use crate::exec::ExecPolicy;
use crate::kernel::RowTask;
use crate::mttkrp::{process_block_plain, process_block_rankb, DenseWindow};
use std::ops::Range;
use std::sync::Arc;
use tenblock_check::OracleError;
use tenblock_obs::KernelCounters;
use tenblock_tensor::{CooTensor, DenseMatrix, SplattTensor, NMODES};

/// `name()`, by `[grid given][strips given]`.
const LABELS: [[&str; 2]; 2] = [["SPLATT", "RankB"], ["MB", "MB+RankB"]];

/// What a task of the blocked kernel covers: a piece of slice-axis block
/// row `band`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Piece {
    /// The block row whose blocks the task reads.
    pub band: usize,
    /// Whether the task's rows start / end where the block row does.
    first: bool,
    last: bool,
}

impl RowTask<Piece> {
    /// The local slices of `t`, a block of row `band`, that this task
    /// processes: those whose global row lies in `rows` — except that the
    /// block row's first piece starts at the block's first slice and its
    /// last piece ends at the block's last. A row stored outside its block
    /// row therefore still belongs to a task, where checked execution
    /// reports it; it is never filtered away by the lookup.
    pub fn slices(&self, t: &SplattTensor) -> Range<usize> {
        let lo = if self.payload.first {
            0
        } else {
            t.slice_lower_bound(self.rows.start)
        };
        let hi = if self.payload.last {
            t.n_slices()
        } else {
            t.slice_lower_bound(self.rows.end)
        };
        lo..hi
    }
}

/// The row partition of a launch: each block row `bounds0[a]..bounds0[a+1]`
/// cut into pieces of at most `chunk` rows. An empty block row yields no
/// task; the tasks' rows tile `bounds0[0]..bounds0[last]` in order.
pub(crate) fn row_tasks(bounds0: &[usize], chunk: usize) -> Vec<RowTask<Piece>> {
    assert!(chunk > 0, "chunk must be positive");
    let mut tasks = Vec::new();
    for (band, w) in bounds0.windows(2).enumerate() {
        let mut lo = w[0];
        while lo < w[1] {
            let hi = w[1].min(lo.saturating_add(chunk));
            tasks.push(RowTask {
                rows: lo..hi,
                payload: Piece {
                    band,
                    first: lo == w[0],
                    last: hi == w[1],
                },
            });
            lo = hi;
        }
    }
    tasks
}

/// The blocked MTTKRP kernel for one mode: a strip width, a name and an
/// execution policy over a shared, immutable [`BlockGrid`] — building the
/// grid is the cost, a kernel over an existing one is a few words.
pub struct BlockedKernel {
    mode: usize,
    dims: [usize; NMODES],
    grid: Arc<BlockGrid>,
    strip: Option<usize>,
    exec: ExecPolicy,
    label: &'static str,
}

impl BlockedKernel {
    /// Prepares the mode-`mode` MTTKRP of `coo`.
    ///
    /// `grid` partitions the tensor into that many blocks per kernel axis
    /// (slice, `j`, `k`); `None` is the unblocked tensor. `strip` is the
    /// rank-strip width in columns — the paper selects widths in cache-line
    /// (16-double) increments, any positive width is accepted and
    /// remainders are handled; `None` runs Algorithm 1's accumulator loop
    /// over the full rank.
    ///
    /// # Panics
    /// Panics on a zero strip width, or a grid count that is zero or
    /// exceeds its axis length.
    pub fn new(
        coo: &CooTensor,
        mode: usize,
        grid: Option<[usize; NMODES]>,
        strip: Option<usize>,
    ) -> Self {
        let layout = build_layout(coo, mode, grid.unwrap_or([1, 1, 1]));
        Self::over(layout, grid.is_some(), strip)
    }

    /// The kernel over a shared layout (its `perm()[0]` is the mode). `mb`
    /// says whether the name reports multi-dimensional blocking:
    /// `Mb`/`MbRankB` answer "MB"/"MB+RankB" even over the unblocked
    /// `[1, 1, 1]` layout they share with `Splatt`/`RankB`.
    ///
    /// # Panics
    /// Panics on a zero strip width.
    pub fn over(layout: Arc<BlockGrid>, mb: bool, strip: Option<usize>) -> Self {
        assert!(strip != Some(0), "strip width must be positive");
        BlockedKernel {
            mode: layout.perm()[0],
            dims: layout.dims(),
            grid: layout,
            strip,
            exec: ExecPolicy::serial(),
            label: LABELS[mb as usize][strip.is_some() as usize],
        }
    }

    /// Sets the execution policy (threading + recorder).
    pub fn with_exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self
    }

    /// The underlying grid.
    pub fn grid(&self) -> &BlockGrid {
        &self.grid
    }
}

impl crate::kernel::RowKernel for BlockedKernel {
    type Payload = Piece;

    fn name(&self) -> &'static str {
        self.label
    }

    fn mode(&self) -> usize {
        self.mode
    }

    fn dims(&self) -> &[usize] {
        &self.dims
    }

    fn exec(&self) -> &ExecPolicy {
        &self.exec
    }

    fn tensor_bytes(&self) -> usize {
        self.grid.tensor_bytes()
    }

    fn strip(&self) -> Option<usize> {
        self.strip
    }

    /// One task per block row when serial, pieces of the policy's chunk
    /// size when parallel.
    fn row_tasks(&self, out_rows: usize) -> Vec<RowTask<Piece>> {
        let chunk = if self.exec.is_parallel() {
            self.exec.chunk_size(out_rows)
        } else {
            out_rows.max(1)
        };
        row_tasks(self.grid.bounds(0), chunk)
    }

    /// The global row of every slice the task processes, by
    /// [`RowTask::slices`] — the same lookup the body uses. Compressed
    /// blocks store true row ids, so this cross-checks the grid assignment
    /// against the claim.
    fn touched_rows(&self, task: &RowTask<Piece>) -> impl Iterator<Item = usize> {
        self.grid
            .row_blocks(task.payload.band)
            .flat_map(move |t| task.slices(t).map(|s| t.slice_global(s)))
    }

    /// The grid oracle (bounds tile the axes, every stored nonzero inside
    /// its block's box), when there is a partition into blocks to check.
    fn oracle(&self) -> Result<(), OracleError> {
        if self.grid.grid() == [1, 1, 1] {
            return Ok(());
        }
        self.grid.validate()
    }

    /// Fibers are summed over blocks (the traversal the kernel actually
    /// performs).
    fn counters(&self, rank: usize) -> KernelCounters {
        let fibers = self.grid.n_fibers();
        let strips = effective_strip_plan(rank, self.strip.unwrap_or(usize::MAX));
        KernelCounters::fibered_model(self.grid.nnz() as u64, fibers as u64, rank as u64)
            .with_blocks(self.grid.n_nonempty() as u64)
            .with_strips(strips.len().max(1) as u64)
    }

    /// Every block of the task's block row, through Algorithm 1's
    /// accumulator loop or, with strips, the register loop over `cols`.
    fn run_task(
        &self,
        task: &RowTask<Piece>,
        factors: &[&DenseMatrix],
        rows: &mut [f64],
        rank: usize,
        cols: Range<usize>,
    ) {
        let perm = self.grid.perm();
        let (b, c) = (factors[perm[1]], factors[perm[2]]);
        let row0 = task.rows.start;
        let blocks = self.grid.row_blocks(task.payload.band);
        if self.strip.is_none() {
            let mut accum = vec![0.0; rank];
            for t in blocks {
                process_block_plain(t, b, c, task.slices(t), rows, row0, &mut accum);
            }
            return;
        }
        let (col0, width) = (cols.start, cols.len());
        let (bw, cw) = (
            DenseWindow::new(b, col0, width),
            DenseWindow::new(c, col0, width),
        );
        for t in blocks {
            process_block_rankb(t, &bw, &cw, task.slices(t), rows, row0, rank, col0, width);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Threads;
    use crate::kernel::MttkrpKernel;
    use crate::mttkrp::dense_mttkrp;
    use tenblock_obs::{Rec, TraceRecorder};
    use tenblock_tensor::gen::{clustered_tensor, uniform_tensor, ClusteredConfig};

    const THREADS: [Threads; 4] = [
        Threads::Serial,
        Threads::Fixed(4),
        Threads::Auto,
        Threads::Checked,
    ];

    fn factors_for(x: &CooTensor, rank: usize) -> Vec<DenseMatrix> {
        x.dims()
            .iter()
            .enumerate()
            .map(|(m, &d)| {
                DenseMatrix::from_fn(d, rank, |r, c| {
                    (((r * 13 + c * 7 + m) % 23) as f64 - 11.0) * 0.1
                })
            })
            .collect()
    }

    /// One launch at `(grid, strip, threads)` into an output that starts
    /// out as garbage: the kernel overwrites, it does not accumulate.
    fn run(
        x: &CooTensor,
        mode: usize,
        factors: &[DenseMatrix],
        (grid, strip, threads): (Option<[usize; 3]>, Option<usize>, Threads),
    ) -> DenseMatrix {
        let exec = ExecPolicy {
            threads,
            ..ExecPolicy::default()
        };
        let k = BlockedKernel::new(x, mode, grid, strip).with_exec(exec);
        let fs: [&DenseMatrix; 3] = [&factors[0], &factors[1], &factors[2]];
        let mut out = DenseMatrix::from_fn(x.dims()[mode], factors[0].cols(), |_, _| 1234.5);
        k.mttkrp(&fs, &mut out);
        out
    }

    #[test]
    fn every_setting_matches_the_dense_reference() {
        // All nonzeros of the second tensor share (i, k): one fiber, the
        // accumulator exercised over its full length.
        let tensors = [
            uniform_tensor([13, 17, 11], 250, 77),
            CooTensor::from_triples(
                [2, 4, 2],
                &[1, 1, 1, 1],
                &[0, 1, 2, 3],
                &[1, 1, 1, 1],
                &[1.0, 2.0, 3.0, 4.0],
            ),
        ];
        let grids = [None, Some([1, 1, 1]), Some([2, 2, 2]), Some([4, 1, 3])];
        // Ranks below, at and above the register width, with a remainder;
        // strips narrower and wider than both.
        for (x, rank) in tensors.iter().flat_map(|x| [4, 16, 37].map(|r| (x, r))) {
            let factors = factors_for(x, rank);
            let fs: [&DenseMatrix; 3] = [&factors[0], &factors[1], &factors[2]];
            for mode in 0..3 {
                let expect = dense_mttkrp(x, &fs, mode);
                let perm = tenblock_tensor::coo::perm_for_mode(mode);
                for grid in grids {
                    let grid =
                        grid.map(|g| std::array::from_fn(|ax| g[ax].min(x.dims()[perm[ax]])));
                    for strip in [None, Some(1), Some(5), Some(16), Some(100)] {
                        for threads in [Threads::Serial, Threads::Fixed(3)] {
                            let setting = (grid, strip, threads);
                            let out = run(x, mode, &factors, setting);
                            assert!(
                                expect.approx_eq(&out, 1e-10),
                                "dims {:?} rank {rank} mode {mode} {setting:?}",
                                x.dims()
                            );
                        }
                    }
                }
            }
        }
    }

    /// For a fixed grid the strip width and the thread policy change how
    /// the work is cut, never the order in which one output element's terms
    /// are added.
    #[test]
    fn strips_and_threads_never_change_the_bits() {
        let x = clustered_tensor(&ClusteredConfig::new([120, 90, 60], 4_000), 8);
        let rank = 37;
        let factors = factors_for(&x, rank);
        for grid in [None, Some([1, 2, 2]), Some([4, 3, 2])] {
            let want = run(&x, 0, &factors, (grid, None, Threads::Serial));
            for strip in [None, Some(1), Some(16), Some(17), Some(rank)] {
                for threads in THREADS {
                    let setting = (grid, strip, threads);
                    let got = run(&x, 0, &factors, setting);
                    assert!(
                        want.as_slice()
                            .iter()
                            .zip(got.as_slice())
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "{setting:?} differs from the serial accumulator loop"
                    );
                }
            }
        }
    }

    #[test]
    fn row_tasks_cut_block_rows_into_chunks() {
        let rows = |bounds0: &[usize], chunk| -> Vec<(usize, Range<usize>)> {
            row_tasks(bounds0, chunk)
                .into_iter()
                .map(|t| (t.payload.band, t.rows))
                .collect()
        };
        assert_eq!(
            rows(&[0, 100], 25),
            [(0, 0..25), (0, 25..50), (0, 50..75), (0, 75..100)]
        );
        assert_eq!(rows(&[0, 50, 100], 50), [(0, 0..50), (1, 50..100)]);
        // A ragged last piece; an empty block row yields no task.
        assert_eq!(rows(&[0, 7, 7, 10], 5), [(0, 0..5), (0, 5..7), (2, 7..10)]);
        assert!(rows(&[0, 0], 4).is_empty());
    }

    /// A grid with one block row used to run on one thread whatever the
    /// policy; its pieces now split every block of the row between them.
    #[test]
    fn pieces_of_one_block_row_partition_each_blocks_slices() {
        let x = clustered_tensor(&ClusteredConfig::new([120, 90, 60], 4_000), 8);
        let k = BlockedKernel::new(&x, 0, Some([1, 2, 2]), None).with_exec(ExecPolicy::fixed(4));
        let tasks = crate::kernel::RowKernel::row_tasks(&k, 120);
        assert_eq!(tasks.len(), 15); // 120 rows, 8 = ceil(120 / (4 workers * 4)) apiece
        for t in k.grid().row_blocks(0) {
            assert!(t.is_slice_compressed());
            let mut next = 0;
            for task in &tasks {
                let slices = task.slices(t);
                assert_eq!(slices.start, next);
                assert!(slices
                    .clone()
                    .all(|s| task.rows.contains(&t.slice_global(s))));
                next = slices.end;
            }
            assert_eq!(next, t.n_slices());
        }
    }

    #[test]
    fn names_and_spans_say_which_blockings_are_on() {
        let x = uniform_tensor([8, 8, 8], 100, 2);
        let factors = factors_for(&x, 4);
        let fs: [&DenseMatrix; 3] = [&factors[0], &factors[1], &factors[2]];
        for (grid, strip, name) in [
            (None, None, "SPLATT"),
            (Some([1, 1, 1]), None, "MB"),
            (None, Some(16), "RankB"),
            (Some([2, 2, 2]), Some(16), "MB+RankB"),
        ] {
            let tracer = Arc::new(TraceRecorder::new());
            let exec = ExecPolicy::serial().with_recorder(Rec::new(Arc::clone(&tracer) as _));
            let k = BlockedKernel::new(&x, 0, grid, strip).with_exec(exec);
            assert_eq!(k.name(), name);
            k.mttkrp(&fs, &mut DenseMatrix::zeros(8, 4));
            assert_eq!(tracer.snapshot()[0].name, format!("mttkrp/{name}"));
        }
        // The name is the caller's, not the layout's: both run over one grid.
        let layout = build_layout(&x, 0, [1, 1, 1]);
        let splatt = BlockedKernel::over(Arc::clone(&layout), false, None);
        let mb = BlockedKernel::over(Arc::clone(&layout), true, Some(16));
        assert_eq!((splatt.name(), mb.name()), ("SPLATT", "MB+RankB"));
        assert!(std::ptr::eq(splatt.grid(), mb.grid()));
    }
}
