//! The blocked MTTKRP kernel — the paper's Algorithms 1 and 2 and Figure 3b
//! as the one loop nest they are: grid blocks ⊃ rank strips ⊃ fibers.
//!
//! The four fibered kernels of the paper are its parameter settings:
//!
//! | grid | strips | kernel | inner loop |
//! |---|---|---|---|
//! | none (one block) | none | SPLATT, Algorithm 1 | length-`R` accumulator |
//! | `N_A x N_B x N_C` | none | MB, Section V-A | length-`R` accumulator |
//! | none (one block) | width `w` | RankB, Algorithm 2 | per block: 16-wide registers if its fibers pay for them, else the accumulator |
//! | `N_A x N_B x N_C` | width `w` | MB+RankB, Figure 3b | per block: 16-wide registers if its fibers pay for them, else the accumulator |
//!
//! Without strips every fiber gathers `val * B[j]` into a heap accumulator
//! and folds it into `A[i]` through `C[k]` (Algorithm 1), prefetching the
//! factor rows a few nonzeros ahead. With strips each block chooses its
//! loop from its own fibers (`walks_strips`): a fiber-dense block is
//! traversed once per strip of `w` factor columns with the accumulator in
//! [`REG_BLOCK`] registers, which removes the load-unit pressure of
//! Section IV-B (type 3); a fiber-sparse block has no accumulator traffic
//! worth a second walk and runs the accumulator loop once over the full
//! rank. The register loop does not prefetch: in a fiber-dense block the
//! rows are reused, and on a grid they are already cache-resident
//! (EXPERIMENTS.md "Hiding latency"). Both loops add each output element's
//! terms in the same order, so the choice never changes a bit. Within one
//! slice-axis block row, blocks are visited with the `j` axis outermost, so
//! the rows of the expensive mode-2 factor block are reused across the
//! inner `k` sweep.
//!
//! Both loops run at the host's full vector width: [`BlockBody`] reads the
//! widest [`Isa`] once and hands it to each loop, which runs a copy of
//! itself compiled for that set (AVX-512, AVX2, or the baseline's SSE2).
//! The bits cannot move with the width. Both loops are element-wise over
//! the rank axis — one output column never meets another — so a wider
//! register only does more columns' scalar operations at once, each
//! element's terms are still added in the same order, and Rust never
//! contracts a multiply and an add into an FMA.
//!
//! Parallelism is over output rows: every block row is cut into pieces no
//! taller than [`ExecPolicy::chunk_size`] of the output, and pieces write
//! disjoint rows, so no synchronization is needed. With one block row the
//! pieces are SPLATT's slice chunks.

use super::{build_layout, BlockGrid};
use crate::check::effective_strip_plan;
use crate::check::OracleError;
use crate::exec::ExecPolicy;
use crate::isa::Isa;
use crate::kernel::RowTask;
use crate::mttkrp::{process_block_plain, process_block_rankb, DenseWindow, REG_BLOCK};
use std::ops::Range;
use std::sync::Arc;
use tenblock_obs::KernelCounters;
use tenblock_tensor::{CooTensor, DenseMatrix, SplattTensor, NMODES};

/// `name()`, by `[grid given][strips given]`.
const LABELS: [[&str; 2]; 2] = [["SPLATT", "RankB"], ["MB", "MB+RankB"]];

/// Register multiply-adds one walk of a fiber must carry — nonzeros per
/// fiber times strip width — for a block to be walked once per strip
/// rather than once by the accumulator loop: 10 nonzeros a fiber at the
/// default 16-column strips, 2.5 at 64, every block at 160 columns or
/// more. From the sweep in EXPERIMENTS.md "Per-block loops" (Poisson
/// tensors of nnz/F 1.4–20, ranks 64–256, strips 16 to the full rank):
/// below the line the accumulator loop was as fast or faster in every case
/// but three, at most 13 % slower and just under the line; above it the
/// register loop is kept, winning at wide strips and losing by up to 28 %
/// at narrow strips of wide ranks — Figure 4's degradation arm, which
/// stays the strip width's to decide. Every block of the benchmark tensors
/// (nnz/F ≤ 1.9) is below the line at strips of up to 80 columns.
const WALK_WORK: usize = 160;

/// Whether a strip kernel runs block `t` through the register loop once
/// per strip of `strip` columns, rather than through the accumulator loop
/// once over all `rank`. Each strip walks the block's index data and
/// gathers its factor rows again, without look-ahead; what a walk saves is
/// the accumulator's loads and stores, in proportion to the fiber's
/// nonzeros times the strip's width. At one register block or less the
/// register loop walks every fiber once, and in the sweep it won, or tied
/// within 3 % at nnz/F 1.1, at every density.
pub(crate) fn walks_strips(t: &SplattTensor, rank: usize, strip: usize) -> bool {
    rank <= REG_BLOCK || t.nnz() * strip.min(rank) >= WALK_WORK * t.n_fibers()
}

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
    /// remainders are handled — for the blocks whose fibers pay for the
    /// register loop at that width; every other block, and every block with
    /// `None`, runs Algorithm 1's accumulator loop once over the full rank.
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
    fn oracle(&self, _rank: usize) -> Result<(), OracleError> {
        if self.grid.grid() == [1, 1, 1] {
            return Ok(());
        }
        self.grid.validate()
    }

    /// Fibers are summed over blocks (the traversal the kernel actually
    /// performs). `strips` counts the passes actually made: the strip
    /// plan's length when some block is walked once per strip, 1 when
    /// every block runs the accumulator loop once.
    fn counters(&self, rank: usize) -> KernelCounters {
        let fibers = self.grid.n_fibers();
        let mut blocks = (0..self.grid.grid()[0]).flat_map(|a| self.grid.row_blocks(a));
        let strips = match self.strip {
            Some(w) if blocks.any(|t| walks_strips(t, rank, w)) => {
                effective_strip_plan(rank, w).len()
            }
            _ => 1,
        };
        KernelCounters::fibered_model(self.grid.nnz() as u64, fibers as u64, rank as u64)
            .with_blocks(self.grid.n_nonempty() as u64)
            .with_strips(strips.max(1) as u64)
    }

    /// Every block of the task's block row, through [`BlockBody`].
    fn run_task(
        &self,
        task: &RowTask<Piece>,
        factors: &[&DenseMatrix],
        rows: &mut [f64],
        rank: usize,
    ) {
        let perm = self.grid.perm();
        let (b, c) = (factors[perm[1]], factors[perm[2]]);
        let mut body = BlockBody::new(rank, self.strip);
        for t in self.grid.row_blocks(task.payload.band) {
            body.add_block(t, b, c, task.slices(t), rows, task.rows.start);
        }
    }
}

/// The per-block body of the blocked kernel at one rank, shared by the
/// in-memory launch and the streaming driver: the instruction set and the
/// strip plan, chosen once, and the accumulator the plain loop reuses from
/// block to block.
pub(crate) struct BlockBody {
    isa: Isa,
    /// The strip width and its `(col0, width)` plan, for a strip kernel.
    strips: Option<(usize, Vec<(usize, usize)>)>,
    accum: Vec<f64>,
}

impl BlockBody {
    /// The body of a launch at `rank` columns with strips of `strip`
    /// columns (`None`: the accumulator loop in every block), on the
    /// widest instruction set the host runs.
    pub(crate) fn new(rank: usize, strip: Option<usize>) -> Self {
        BlockBody {
            isa: Isa::best(),
            strips: strip.map(|w| (w, effective_strip_plan(rank, w))),
            accum: vec![0.0; rank],
        }
    }

    /// Adds local slices `slices` of block `t` into `rows`, the output
    /// rows from global row `row0` on: through Algorithm 1's accumulator
    /// loop once, or — when [`walks_strips`] says the block's fibers pay
    /// for it — through the register loop once per strip. `b` and `c` are
    /// the factors of the block's `j` and `k` axes.
    pub(crate) fn add_block(
        &mut self,
        t: &SplattTensor,
        b: &DenseMatrix,
        c: &DenseMatrix,
        slices: Range<usize>,
        rows: &mut [f64],
        row0: usize,
    ) {
        let rank = self.accum.len();
        match &self.strips {
            Some((strip, plan)) if walks_strips(t, rank, *strip) => {
                for &(col0, width) in plan {
                    let (bw, cw) = (
                        DenseWindow::new(b, col0, width),
                        DenseWindow::new(c, col0, width),
                    );
                    let slices = slices.clone();
                    process_block_rankb(
                        self.isa, t, &bw, &cw, slices, rows, row0, rank, col0, width,
                    );
                }
            }
            _ => process_block_plain(self.isa, t, b, c, slices, rows, row0, &mut self.accum),
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
    use tenblock_tensor::Entry;

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

    /// A fully populated `[0,16)³` corner (16 nonzeros a fiber in every
    /// mode) in a box of uniform nonzeros at about one a fiber.
    fn dense_corner() -> CooTensor {
        let dims = [60, 48, 40];
        let mut entries = uniform_tensor(dims, 1_500, 5).entries().to_vec();
        for n in 0..16 * 16 * 16u32 {
            entries.push(Entry::new(
                n / 256,
                n / 16 % 16,
                n % 16,
                1.0 + (n % 7) as f64 * 0.25,
            ));
        }
        CooTensor::from_entries(dims, entries)
    }

    /// One launch that runs some blocks through the register loop and the
    /// rest through the accumulator loop still adds every output element's
    /// terms in the serial accumulator loop's order.
    #[test]
    fn a_launch_over_dense_and_sparse_blocks_keeps_the_bits() {
        let x = dense_corner();
        for grid in [None, Some([1, 2, 2]), Some([4, 3, 2])] {
            if let Some(g) = grid {
                // Both loops run: at R 64 in one strip the grid has blocks
                // on either side of the line.
                let layout = build_layout(&x, 0, g);
                let walks: Vec<bool> = (0..g[0])
                    .flat_map(|a| layout.row_blocks(a))
                    .map(|t| walks_strips(t, 64, 64))
                    .collect();
                assert!(walks.contains(&true) && walks.contains(&false), "{g:?}");
            }
            for rank in [8, 16, 37, 64] {
                let factors = factors_for(&x, rank);
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
                            "rank {rank} {setting:?} differs from the serial accumulator loop"
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
