//! The [`MttkrpKernel`] trait, the one launch every kernel runs through, and
//! the kernel registry.
//!
//! A kernel is what is its own — its row tasks, the rows each task touches,
//! its layout oracle, its counters, its name and a per-task body — written
//! as a [`RowKernel`]. Everything else a launch does is [`launch`], once:
//! check the factor shapes, verify under checked execution, open the
//! `mttkrp/<name>` span, zero the output, and run every task once per rank
//! strip, serially or in parallel over disjoint row pieces. Every
//! [`RowKernel`] is an [`MttkrpKernel`] through that routine.

use crate::block::{build_layout, BlockGrid, BlockedKernel};
use crate::checked::{effective_strip_plan, verify};
use crate::exec::ExecPolicy;
use crate::mttkrp::{BcooKernel, CooKernel, CsfKernel};
use rayon::prelude::*;
use std::ops::Range;
use std::sync::Arc;
use tenblock_check::{OracleError, RaceReport};
use tenblock_obs::KernelCounters;
use tenblock_tensor::{CooTensor, DenseMatrix, NdCooTensor, NMODES};

/// A prepared MTTKRP kernel for one mode of one tensor.
///
/// Construction may reorganize the tensor (sorting, blocking); the
/// [`MttkrpKernel::mttkrp`] call itself only reads the factor matrices and
/// writes the output. This split matches CPD usage, where each mode's
/// MTTKRP runs 10–1000s of times against changing factors (Section III-B).
pub trait MttkrpKernel: Send + Sync {
    /// Computes the mode-`m` MTTKRP: `out = X_(m) (⊙ of the other factors)`.
    ///
    /// `factors` are indexed by original mode; `factors[self.mode()]` is
    /// ignored (it is the output slot). `out` must be `dims[m] x R` and
    /// every other factor `dims[k] x R`.
    ///
    /// # Panics
    /// Panics on any other shape, and — under [`crate::Threads::Checked`]
    /// — with the [`RaceReport`] when verification refuses the launch.
    fn mttkrp(&self, factors: &[&DenseMatrix; NMODES], out: &mut DenseMatrix);

    /// Like [`MttkrpKernel::mttkrp`], but first verifies the kernel's
    /// layout invariants and the write sets of its tasks (claimed
    /// output-row ranges pairwise disjoint and jointly covering the output,
    /// actual touches confined to the owning claim), whatever the threading
    /// policy. On violation, returns a structured [`RaceReport`] *without
    /// running any task*; on success, computes exactly what `mttkrp` would.
    fn mttkrp_checked(
        &self,
        factors: &[&DenseMatrix; NMODES],
        out: &mut DenseMatrix,
    ) -> Result<(), RaceReport>;

    /// The mode this kernel computes.
    fn mode(&self) -> usize;

    /// Human-readable kernel name for harness output.
    fn name(&self) -> &'static str;

    /// Bytes of tensor data this kernel's representation occupies
    /// (for memory/traffic reporting).
    fn tensor_bytes(&self) -> usize;
}

/// One task of a launch: the output rows it owns and what its body needs
/// besides them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RowTask<P> {
    /// The output rows this task owns; a launch's tasks tile the output in
    /// order.
    pub rows: Range<usize>,
    /// The kernel's own description of the task's work.
    pub payload: P,
}

/// What a kernel contributes to [`launch`].
pub(crate) trait RowKernel: Send + Sync {
    /// Per-task payload (a block row, a root range, ...).
    type Payload: Sync;

    /// `name()` of the [`MttkrpKernel`]; the span is `mttkrp/<name>`.
    fn name(&self) -> &'static str;
    /// The output mode.
    fn mode(&self) -> usize;
    /// The tensor's dimensions, by original mode.
    fn dims(&self) -> &[usize];
    /// Threading policy and recorder.
    fn exec(&self) -> &ExecPolicy;
    /// Bytes of the kernel's tensor representation.
    fn tensor_bytes(&self) -> usize;
    /// Rank-strip width: every task runs once per strip of this many
    /// columns, strips in order (`None`: one full-rank pass).
    fn strip(&self) -> Option<usize> {
        None
    }
    /// The tasks of a launch into `out_rows` output rows.
    fn row_tasks(&self, out_rows: usize) -> Vec<RowTask<Self::Payload>>;
    /// The global output rows `task`'s body writes, read from the tensor
    /// data rather than from the partition arithmetic behind `task.rows`.
    fn touched_rows(&self, task: &RowTask<Self::Payload>) -> impl Iterator<Item = usize>;
    /// The layout invariant a checked launch verifies first.
    fn oracle(&self) -> Result<(), OracleError> {
        Ok(())
    }
    /// Section IV counters of one launch at `rank` columns.
    fn counters(&self, rank: usize) -> KernelCounters;
    /// Adds `task`'s contribution to columns `cols` of `rows`: the task's
    /// output rows, `rank` wide.
    fn run_task(
        &self,
        task: &RowTask<Self::Payload>,
        factors: &[&DenseMatrix],
        rows: &mut [f64],
        rank: usize,
        cols: Range<usize>,
    );
}

impl<K: RowKernel> MttkrpKernel for K {
    fn mttkrp(&self, factors: &[&DenseMatrix; NMODES], out: &mut DenseMatrix) {
        launch(self, factors, out);
    }

    fn mttkrp_checked(
        &self,
        factors: &[&DenseMatrix; NMODES],
        out: &mut DenseMatrix,
    ) -> Result<(), RaceReport> {
        try_launch(self, factors, out, true)
    }

    fn mode(&self) -> usize {
        RowKernel::mode(self)
    }

    fn name(&self) -> &'static str {
        RowKernel::name(self)
    }

    fn tensor_bytes(&self) -> usize {
        RowKernel::tensor_bytes(self)
    }
}

/// The MTTKRP launch of every kernel, for any number of modes: `factors`
/// holds one matrix per mode.
///
/// # Panics
/// As [`MttkrpKernel::mttkrp`].
pub(crate) fn launch<K: RowKernel>(k: &K, factors: &[&DenseMatrix], out: &mut DenseMatrix) {
    if let Err(report) = try_launch(k, factors, out, k.exec().is_checked()) {
        panic!("checked execution refused launch: {report}"); // deliberate fail-stop on a racy plan — lint: allow(panic-reach)
    }
}

/// [`launch`], verifying first when `checked`.
fn try_launch<K: RowKernel>(
    k: &K,
    factors: &[&DenseMatrix],
    out: &mut DenseMatrix,
    checked: bool,
) -> Result<(), RaceReport> {
    let (mode, dims, rank) = (k.mode(), k.dims(), out.cols());
    assert_eq!(factors.len(), dims.len(), "need one factor per mode");
    assert_eq!(out.rows(), dims[mode], "output rows != mode length");
    for (m, f) in factors.iter().enumerate() {
        assert!(
            m == mode || (f.rows(), f.cols()) == (dims[m], rank),
            "factor {m} is {} x {}, mode {m} needs {} x {rank}",
            f.rows(),
            f.cols(),
            dims[m]
        );
    }
    let tasks = k.row_tasks(out.rows());
    let strips = effective_strip_plan(rank, k.strip().unwrap_or(usize::MAX));
    if checked {
        verify(k, &tasks, out.rows(), rank, &strips)?;
    }
    let rec = &k.exec().recorder;
    let _span = rec.enabled().then(|| {
        let span = rec.span(&format!("mttkrp/{}", k.name()));
        span.annotate_num("mode", mode as f64);
        span.counters(&k.counters(rank));
        span
    });
    out.fill_zero();

    let parallel = k.exec().is_parallel() && tasks.len() > 1;
    for (col0, width) in strips {
        let pieces = pieces(out.as_mut_slice(), &tasks, rank);
        let body = |(task, rows): (&RowTask<K::Payload>, &mut [f64])| {
            k.run_task(task, factors, rows, rank, col0..col0 + width)
        };
        if parallel {
            pieces.into_par_iter().for_each(body);
        } else {
            pieces.into_iter().for_each(body);
        }
    }
    Ok(())
}

/// Pairs each task with its rows of a row-major buffer `rank` wide — the
/// disjoint pieces that make handing tasks to rayon workers safe. A piece
/// ends at its task's last row and starts where the previous one ended.
fn pieces<'a, P>(
    mut data: &'a mut [f64],
    tasks: &'a [RowTask<P>],
    rank: usize,
) -> Vec<(&'a RowTask<P>, &'a mut [f64])> {
    let mut start = 0;
    let mut pieces = Vec::with_capacity(tasks.len());
    for task in tasks {
        let (head, tail) = std::mem::take(&mut data).split_at_mut((task.rows.end - start) * rank);
        pieces.push((task, head));
        data = tail;
        start = task.rows.end;
    }
    pieces
}

/// Kernel families available in the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Coordinate-format kernel (Section III-C1).
    Coo,
    /// Baseline SPLATT kernel (Algorithm 1).
    Splatt,
    /// Multi-dimensional blocking (Section V-A).
    Mb,
    /// Rank + register blocking (Algorithm 2).
    RankB,
    /// MB and RankB combined (Figure 3b).
    MbRankB,
    /// Compressed sparse fiber (the higher-order format of ref. [12]),
    /// with rank blocking.
    Csf,
    /// Block-native coordinate storage with the register-tiled dense
    /// micro-kernel (Section V-A as a data layout).
    Bcoo,
}

impl KernelKind {
    /// All kinds, in paper presentation order.
    pub const ALL: [KernelKind; 7] = [
        KernelKind::Coo,
        KernelKind::Splatt,
        KernelKind::Mb,
        KernelKind::RankB,
        KernelKind::MbRankB,
        KernelKind::Csf,
        KernelKind::Bcoo,
    ];

    /// Canonical lowercase name, as accepted by the CLI and serve
    /// `kernel` parameters and stored in cached plans.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelKind::Coo => "coo",
            KernelKind::Splatt => "splatt",
            KernelKind::Mb => "mb",
            KernelKind::RankB => "rankb",
            KernelKind::MbRankB => "mbrankb",
            KernelKind::Csf => "csf",
            KernelKind::Bcoo => "bcoo",
        }
    }

    /// Inverse of [`Self::as_str`], ignoring ASCII case; `mb+rankb`, the
    /// spelling of that kernel's `name()`, is accepted for `mbrankb`.
    pub fn from_name(name: &str) -> Option<KernelKind> {
        let name = name.to_ascii_lowercase();
        if name == "mb+rankb" {
            return Some(KernelKind::MbRankB);
        }
        KernelKind::ALL.into_iter().find(|k| k.as_str() == name)
    }
}

/// Blocking and execution parameters for [`build_kernel`].
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// MB grid in kernel axes `[slice, j, k]`; `[1, 1, 1]` disables MB.
    pub grid: [usize; NMODES],
    /// Strip width in columns for the kinds with rank strips (`RankB`,
    /// `MbRankB`, `Csf`, `Bcoo`); `0` means the default, 16 columns. The
    /// other kinds ignore it.
    pub strip_width: usize,
    /// Threading policy and observability recorder.
    pub exec: ExecPolicy,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            grid: [1, 1, 1],
            strip_width: 0,
            exec: ExecPolicy::serial(),
        }
    }
}

impl KernelConfig {
    /// Replaces the execution policy.
    pub fn with_exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self
    }
}

/// Typed rejection of an invalid [`build_kernel`] request.
///
/// Every variant names the exact constraint violated, so boundary layers
/// (serve, CLI, fuzzer) can surface the reason without string matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// `mode` is not in `0..NMODES`.
    ModeOutOfRange {
        /// The requested mode.
        mode: usize,
    },
    /// An MB grid axis requests zero blocks.
    GridAxisZero {
        /// Kernel axis (0 = slice, 1 = j, 2 = k).
        axis: usize,
    },
    /// An MB grid axis requests more blocks than the axis has indices.
    GridExceedsAxis {
        /// Kernel axis (0 = slice, 1 = j, 2 = k).
        axis: usize,
        /// Requested block count.
        blocks: usize,
        /// The axis length (tensor dimension along that kernel axis).
        len: usize,
    },
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::ModeOutOfRange { mode } => {
                write!(f, "mode {mode} out of range (0..{NMODES})")
            }
            KernelError::GridAxisZero { axis } => {
                write!(f, "MB grid requests 0 blocks along kernel axis {axis}")
            }
            KernelError::GridExceedsAxis { axis, blocks, len } => write!(
                f,
                "MB grid requests {blocks} blocks along kernel axis {axis} of length {len}"
            ),
        }
    }
}

impl std::error::Error for KernelError {}

/// Validates a `(mode, grid)` request against the tensor's dimensions.
///
/// This is the exact precondition `BlockGrid::new` asserts; checking it
/// here turns a would-be panic on hostile input into a [`KernelError`].
fn validate_request(
    coo: &CooTensor,
    mode: usize,
    grid: [usize; NMODES],
) -> Result<(), KernelError> {
    if mode >= NMODES {
        return Err(KernelError::ModeOutOfRange { mode });
    }
    let perm = tenblock_tensor::coo::perm_for_mode(mode);
    let dims = coo.dims();
    for ax in 0..NMODES {
        if grid[ax] == 0 {
            return Err(KernelError::GridAxisZero { axis: ax });
        }
        let len = dims[perm[ax]].max(1);
        if grid[ax] > len {
            return Err(KernelError::GridExceedsAxis {
                axis: ax,
                blocks: grid[ax],
                len,
            });
        }
    }
    Ok(())
}

/// Builds a kernel of the requested kind for mode `mode` of `coo`,
/// rejecting invalid requests with a typed [`KernelError`] instead of
/// panicking.
///
/// MB kinds use `cfg.grid`; RankB kinds use `cfg.strip_width` (a width of 0
/// falls back to 16 columns, two cache lines of doubles, the paper's
/// `N_RegB`). Non-MB kinds ignore the grid but still validate it, so an
/// invalid config is rejected uniformly regardless of kind.
pub fn try_build_kernel(
    kind: KernelKind,
    coo: &CooTensor,
    mode: usize,
    cfg: &KernelConfig,
) -> Result<Box<dyn MttkrpKernel>, KernelError> {
    try_build_kernel_with(kind, coo, mode, cfg, |grid| build_layout(coo, mode, grid))
}

/// [`try_build_kernel`], with the caller supplying the layout: the four
/// fibered kinds call `layout(grid)` for the [`BlockGrid`] of `(coo, mode,
/// grid)` — `[1, 1, 1]` for `Splatt`/`RankB`, `cfg.grid` for
/// `Mb`/`MbRankB` — and wrap what it returns, so a caller that keeps
/// layouts (built with [`build_layout`]) pays for each once however many
/// kernels it asks for. `layout` runs only after validation and at most
/// once; `Coo`, `Csf` and `Bcoo` have their own layouts and never call it.
pub fn try_build_kernel_with(
    kind: KernelKind,
    coo: &CooTensor,
    mode: usize,
    cfg: &KernelConfig,
    layout: impl FnOnce([usize; NMODES]) -> Arc<BlockGrid>,
) -> Result<Box<dyn MttkrpKernel>, KernelError> {
    validate_request(coo, mode, cfg.grid)?;
    Ok(build_validated(kind, coo, mode, cfg, layout))
}

/// Builds a kernel of the requested kind for mode `mode` of `coo`.
///
/// MB kinds use `cfg.grid`; RankB kinds use `cfg.strip_width` (a width of 0
/// falls back to 16 columns, two cache lines of doubles, the paper's
/// `N_RegB`).
///
/// # Panics
/// Panics on an invalid request; boundary code should prefer
/// [`try_build_kernel`].
pub fn build_kernel(
    kind: KernelKind,
    coo: &CooTensor,
    mode: usize,
    cfg: &KernelConfig,
) -> Box<dyn MttkrpKernel> {
    match try_build_kernel(kind, coo, mode, cfg) {
        Ok(k) => k,
        Err(e) => panic!("{e}"),
    }
}

fn build_validated(
    kind: KernelKind,
    coo: &CooTensor,
    mode: usize,
    cfg: &KernelConfig,
    layout: impl FnOnce([usize; NMODES]) -> Arc<BlockGrid>,
) -> Box<dyn MttkrpKernel> {
    let strip = if cfg.strip_width == 0 {
        16
    } else {
        cfg.strip_width
    };
    let exec = cfg.exec.clone();
    match kind {
        KernelKind::Coo => Box::new(CooKernel::new(coo, mode).with_exec(exec)),
        // One kernel, four corners: the kind says which blockings are on.
        KernelKind::Splatt | KernelKind::Mb | KernelKind::RankB | KernelKind::MbRankB => {
            let mb = matches!(kind, KernelKind::Mb | KernelKind::MbRankB);
            let grid = if mb { cfg.grid } else { [1, 1, 1] };
            let strip = matches!(kind, KernelKind::RankB | KernelKind::MbRankB).then_some(strip);
            Box::new(BlockedKernel::over(layout(grid), mb, strip).with_exec(exec))
        }
        KernelKind::Csf => Box::new(
            CsfKernel::new(&NdCooTensor::from_coo3(coo), mode)
                .with_strip_width(strip)
                .with_exec(exec),
        ),
        KernelKind::Bcoo => Box::new(BcooKernel::new(coo, mode, cfg.grid, strip).with_exec(exec)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenblock_tensor::gen::uniform_tensor;

    #[test]
    fn pieces_cover_the_output_disjointly() {
        let task = |rows: Range<usize>| RowTask { rows, payload: () };
        let tasks = [task(0..4), task(4..4), task(4..7), task(7..10)];
        let mut data = vec![0.0; 10 * 3];
        let lens: Vec<(Range<usize>, usize)> = pieces(&mut data, &tasks, 3)
            .into_iter()
            .map(|(t, rows)| (t.rows.clone(), rows.len()))
            .collect();
        // An empty task gets an empty piece.
        assert_eq!(lens, [(0..4, 12), (4..4, 0), (4..7, 9), (7..10, 9)]);
    }

    #[test]
    fn invalid_requests_get_typed_errors() {
        let x = uniform_tensor([4, 6, 8], 30, 1);
        let cfg = KernelConfig::default();
        for kind in KernelKind::ALL {
            assert_eq!(
                try_build_kernel(kind, &x, 3, &cfg).err(),
                Some(KernelError::ModeOutOfRange { mode: 3 }),
                "{kind:?}"
            );
            let zero_grid = KernelConfig {
                grid: [1, 0, 1],
                ..Default::default()
            };
            assert_eq!(
                try_build_kernel(kind, &x, 0, &zero_grid).err(),
                Some(KernelError::GridAxisZero { axis: 1 }),
                "{kind:?}"
            );
            // Mode-0 kernel axes are [dims[0], dims[1], dims[2]] = [4,6,8];
            // 5 blocks along the 4-long slice axis cannot tile it.
            let oversized = KernelConfig {
                grid: [5, 1, 1],
                ..Default::default()
            };
            assert_eq!(
                try_build_kernel(kind, &x, 0, &oversized).err(),
                Some(KernelError::GridExceedsAxis {
                    axis: 0,
                    blocks: 5,
                    len: 4
                }),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn from_name_inverts_as_str() {
        for kind in KernelKind::ALL {
            assert_eq!(KernelKind::from_name(kind.as_str()), Some(kind));
            let upper = kind.as_str().to_ascii_uppercase();
            assert_eq!(KernelKind::from_name(&upper), Some(kind));
        }
        assert_eq!(KernelKind::from_name("MB+RankB"), Some(KernelKind::MbRankB));
        assert_eq!(KernelKind::from_name("blocked"), None);
        assert_eq!(KernelKind::from_name(""), None);
    }

    #[test]
    fn registry_builds_every_kind() {
        let x = uniform_tensor([10, 12, 14], 200, 3);
        let rank = 8;
        let factors: Vec<DenseMatrix> = x
            .dims()
            .iter()
            .map(|&d| DenseMatrix::from_fn(d, rank, |r, c| ((r + c) % 5) as f64))
            .collect();
        let fs: [&DenseMatrix; 3] = [&factors[0], &factors[1], &factors[2]];
        let cfg = KernelConfig {
            grid: [2, 2, 2],
            strip_width: 4,
            exec: ExecPolicy::serial(),
        };

        let mut reference: Option<DenseMatrix> = None;
        for kind in KernelKind::ALL {
            let k = build_kernel(kind, &x, 0, &cfg);
            assert_eq!(k.mode(), 0);
            assert!(!k.name().is_empty());
            let mut out = DenseMatrix::zeros(x.dims()[0], rank);
            k.mttkrp(&fs, &mut out);
            match &reference {
                None => reference = Some(out),
                Some(r) => assert!(
                    r.approx_eq(&out, 1e-10),
                    "{:?} disagrees with reference",
                    kind
                ),
            }
        }
    }
}
