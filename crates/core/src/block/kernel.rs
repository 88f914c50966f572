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

use super::{build_layout, split_rows_by_bounds, BlockGrid};
use crate::checked::{effective_strip_plan, push_oracle, row_task_write_sets};
use crate::exec::ExecPolicy;
use crate::kernel::MttkrpKernel;
use crate::mttkrp::{
    process_block_plain, process_block_rankb, DenseWindow, RowWindow, StripWindow, REG_BLOCK,
};
use rayon::prelude::*;
use std::ops::Range;
use std::sync::Arc;
use tenblock_check::{check_strip_plan, write_set_violations, RaceReport};
use tenblock_obs::KernelCounters;
use tenblock_tensor::{CooTensor, DenseMatrix, SplattTensor, StripMatrix, NMODES};

/// Factor-matrix layout used by the rank-strip passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankbLayout {
    /// Read strips directly out of the row-major factor matrices.
    Plain,
    /// Re-lay the factors out as stacked strips before the passes (the
    /// paper's `(I*N_RankB) x BS_RankB` arrangement, Section V-B's "small
    /// rearrangement of the factor matrix"), so each pass reads contiguous
    /// memory.
    Strip,
}

/// `name()` and obs span name, by `[grid given][strips given]`.
const LABELS: [[(&str, &str); 2]; 2] = [
    [("SPLATT", "mttkrp/SPLATT"), ("RankB", "mttkrp/RankB")],
    [("MB", "mttkrp/MB"), ("MB+RankB", "mttkrp/MB+RankB")],
];

/// One parallel task: the output rows `rows`, a piece of slice-axis block
/// row `band`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RowTask {
    /// The block row whose blocks this task reads.
    pub band: usize,
    /// The output rows this task owns.
    pub rows: Range<usize>,
    /// Whether `rows` starts / ends where the block row does.
    first: bool,
    last: bool,
}

impl RowTask {
    /// The local slices of `t`, a block of row `band`, that this task
    /// processes: those whose global row lies in `rows` — except that the
    /// block row's first piece starts at the block's first slice and its
    /// last piece ends at the block's last. A row stored outside its block
    /// row therefore still belongs to a task, where checked execution
    /// reports it; it is never filtered away by the lookup.
    pub fn slices(&self, t: &SplattTensor) -> Range<usize> {
        let lo = if self.first {
            0
        } else {
            t.slice_lower_bound(self.rows.start)
        };
        let hi = if self.last {
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
pub(crate) fn row_tasks(bounds0: &[usize], chunk: usize) -> Vec<RowTask> {
    assert!(chunk > 0, "chunk must be positive");
    let mut tasks = Vec::new();
    for (band, w) in bounds0.windows(2).enumerate() {
        let mut lo = w[0];
        while lo < w[1] {
            let hi = w[1].min(lo.saturating_add(chunk));
            tasks.push(RowTask {
                band,
                rows: lo..hi,
                first: lo == w[0],
                last: hi == w[1],
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
    grid: Arc<BlockGrid>,
    strip: Option<usize>,
    layout: RankbLayout,
    exec: ExecPolicy,
    label: (&'static str, &'static str),
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
            grid: layout,
            strip,
            layout: RankbLayout::Plain,
            exec: ExecPolicy::serial(),
            label: LABELS[mb as usize][strip.is_some() as usize],
        }
    }

    /// Selects the factor layout for the strip passes (ignored without
    /// strips).
    pub fn with_layout(mut self, layout: RankbLayout) -> Self {
        self.layout = layout;
        self
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

    /// The row partition of a launch over `out_rows` output rows: one task
    /// per block row when serial, pieces of the policy's chunk size when
    /// parallel.
    fn tasks(&self, out_rows: usize) -> Vec<RowTask> {
        let chunk = if self.exec.is_parallel() {
            self.exec.chunk_size(out_rows)
        } else {
            out_rows.max(1)
        };
        row_tasks(self.grid.bounds(0), chunk)
    }

    /// The `(col0, width)` strips a launch at `rank` columns executes
    /// (empty without strips).
    fn strip_plan(&self, rank: usize) -> Vec<(usize, usize)> {
        self.strip
            .map_or_else(Vec::new, |w| effective_strip_plan(rank, w))
    }

    /// Verifies what a launch would do: the grid oracle (bounds tile the
    /// axes, every stored nonzero inside its block's box) when there is a
    /// partition into blocks to check, the strip-plan oracle when there are
    /// strips and, when parallel, the write sets of the row partition —
    /// each task's claimed rows against the global rows of the slices it
    /// will process.
    fn verify(&self, out_rows: usize, rank: usize) -> Result<(), RaceReport> {
        let mut violations = Vec::new();
        if self.grid.grid() != [1, 1, 1] {
            push_oracle(&mut violations, self.grid.validate());
        }
        if self.strip.is_some() {
            push_oracle(
                &mut violations,
                check_strip_plan(rank, &self.strip_plan(rank), REG_BLOCK),
            );
        }
        if self.exec.is_parallel() {
            let sets = row_task_write_sets(&self.grid, &self.tasks(out_rows));
            violations.extend(write_set_violations(out_rows, &sets));
        }
        RaceReport::check(self.label.0, violations)
    }

    /// Section IV counters of one launch; fibers are summed over blocks
    /// (the traversal the kernel actually performs).
    fn counters(&self, rank: usize) -> KernelCounters {
        let fibers = self.grid.n_fibers();
        KernelCounters::fibered_model(self.grid.nnz() as u64, fibers as u64, rank as u64)
            .with_blocks(self.grid.n_nonempty() as u64)
            .with_strips(self.strip_plan(rank).len().max(1) as u64)
    }

    /// Runs `work(task, rows)` for every task with `rows` that task's rows
    /// of `out`, in parallel under a parallel policy.
    fn for_each_task(
        &self,
        tasks: &[RowTask],
        out: &mut DenseMatrix,
        work: impl Fn(&RowTask, &mut [f64]) + Send + Sync,
    ) {
        let rank = out.cols();
        let bounds: Vec<usize> = std::iter::once(0)
            .chain(tasks.iter().map(|task| task.rows.end))
            .collect();
        let pieces: Vec<_> = tasks
            .iter()
            .zip(split_rows_by_bounds(out.as_mut_slice(), &bounds, rank))
            .collect();
        if self.exec.is_parallel() {
            pieces
                .into_par_iter()
                .for_each(|(task, (_, rows))| work(task, rows));
        } else {
            pieces
                .into_iter()
                .for_each(|(task, (_, rows))| work(task, rows));
        }
    }

    /// One strip pass over the whole grid: columns `[col0, col0 + width)`.
    fn strip_pass<B: RowWindow, C: RowWindow>(
        &self,
        tasks: &[RowTask],
        b: &B,
        c: &C,
        out: &mut DenseMatrix,
        col0: usize,
        width: usize,
    ) {
        let rank = out.cols();
        self.for_each_task(tasks, out, |task, rows| {
            for t in self.grid.row_blocks(task.band) {
                let row0 = task.rows.start;
                process_block_rankb(t, b, c, task.slices(t), rows, row0, rank, col0, width);
            }
        });
    }
}

impl MttkrpKernel for BlockedKernel {
    fn mttkrp(&self, factors: &[&DenseMatrix; NMODES], out: &mut DenseMatrix) {
        let perm = self.grid.perm();
        let b = factors[perm[1]];
        let c = factors[perm[2]];
        let rank = out.cols();
        assert_eq!(
            out.rows(),
            self.grid.dims()[perm[0]],
            "output rows != mode length"
        );
        assert_eq!(b.cols(), rank, "factor rank mismatch");
        assert_eq!(c.cols(), rank, "factor rank mismatch");
        if self.exec.is_checked() {
            if let Err(report) = self.verify(out.rows(), rank) {
                panic!("checked execution refused launch: {report}"); // deliberate fail-stop on a racy plan — lint: allow(panic-reach)
            }
        }
        let span = self.exec.recorder.span(self.label.1);
        if span.active() {
            span.annotate_num("mode", self.mode as f64);
            span.counters(&self.counters(rank));
        }
        out.fill_zero();

        let tasks = self.tasks(out.rows());
        let Some(strip) = self.strip else {
            self.for_each_task(&tasks, out, |task, rows| {
                let mut accum = vec![0.0; rank];
                for t in self.grid.row_blocks(task.band) {
                    let row0 = task.rows.start;
                    process_block_plain(t, b, c, task.slices(t), rows, row0, &mut accum);
                }
            });
            return;
        };
        let stacked = (self.layout == RankbLayout::Strip).then(|| {
            (
                StripMatrix::from_dense(b, strip),
                StripMatrix::from_dense(c, strip),
            )
        });
        for (s, (col0, width)) in self.strip_plan(rank).into_iter().enumerate() {
            match &stacked {
                None => {
                    let bw = DenseWindow::new(b, col0, width);
                    let cw = DenseWindow::new(c, col0, width);
                    self.strip_pass(&tasks, &bw, &cw, out, col0, width);
                }
                Some((bs, cs)) => {
                    let bw = StripWindow::new(bs, s);
                    let cw = StripWindow::new(cs, s);
                    self.strip_pass(&tasks, &bw, &cw, out, col0, width);
                }
            }
        }
    }

    fn mttkrp_checked(
        &self,
        factors: &[&DenseMatrix; NMODES],
        out: &mut DenseMatrix,
    ) -> Result<(), RaceReport> {
        self.verify(out.rows(), out.cols())?;
        self.mttkrp(factors, out);
        Ok(())
    }

    fn mode(&self) -> usize {
        self.mode
    }

    fn name(&self) -> &'static str {
        self.label.0
    }

    fn tensor_bytes(&self) -> usize {
        self.grid.tensor_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Threads;
    use crate::mttkrp::dense_mttkrp;
    use tenblock_obs::{Rec, TraceRecorder};
    use tenblock_tensor::gen::{clustered_tensor, uniform_tensor, ClusteredConfig};

    const LAYOUTS: [RankbLayout; 2] = [RankbLayout::Plain, RankbLayout::Strip];
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

    /// One launch at `(grid, strip, layout, threads)` into an output that
    /// starts out as garbage: the kernel overwrites, it does not accumulate.
    fn run(
        x: &CooTensor,
        mode: usize,
        factors: &[DenseMatrix],
        (grid, strip, layout, threads): (Option<[usize; 3]>, Option<usize>, RankbLayout, Threads),
    ) -> DenseMatrix {
        let exec = ExecPolicy {
            threads,
            ..ExecPolicy::default()
        };
        let k = BlockedKernel::new(x, mode, grid, strip)
            .with_layout(layout)
            .with_exec(exec);
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
                            let setting = (grid, strip, RankbLayout::Plain, threads);
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

    /// For a fixed grid the strip width, the factor layout and the thread
    /// policy change how the work is cut, never the order in which one
    /// output element's terms are added.
    #[test]
    fn strips_layouts_and_threads_never_change_the_bits() {
        let x = clustered_tensor(&ClusteredConfig::new([120, 90, 60], 4_000), 8);
        let rank = 37;
        let factors = factors_for(&x, rank);
        for grid in [None, Some([1, 2, 2]), Some([4, 3, 2])] {
            let want = run(
                &x,
                0,
                &factors,
                (grid, None, RankbLayout::Plain, Threads::Serial),
            );
            for strip in [None, Some(1), Some(16), Some(17), Some(rank)] {
                for layout in LAYOUTS {
                    for threads in THREADS {
                        let setting = (grid, strip, layout, threads);
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
    }

    #[test]
    fn row_tasks_cut_block_rows_into_chunks() {
        let rows = |bounds0: &[usize], chunk| -> Vec<(usize, Range<usize>)> {
            row_tasks(bounds0, chunk)
                .into_iter()
                .map(|t| (t.band, t.rows))
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
        let tasks = k.tasks(120);
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
