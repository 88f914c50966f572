//! The block-size selection heuristic of Section V-C.
//!
//! * **RankB**: strip widths are explored in 128-byte (16-double) increments
//!   — one cache line on the paper's POWER8 — until performance stops
//!   improving.
//! * **MB**: starting with the longest kernel axis, the number of blocks
//!   along that axis is doubled until performance stops improving, then the
//!   remaining axes are traversed in descending order of length. Ties are
//!   broken by access volume — mode-2 (`j` axis), then mode-3 (`k` axis),
//!   then mode-1 (slice axis) — because the mode-2 factor is the most
//!   expensive to access (Section IV-B). "Not blocking at all along a
//!   particular mode" is always a candidate (the search starts from one
//!   block).
//!
//! * **Storage layout**: once the grid and strip are settled, the winner
//!   competes against the BCOO kernel at the same configuration — the
//!   block-native layout wins when the blocks are dense enough to amortize
//!   its per-block factor gather, and the selected [`KernelKind`] is part
//!   of the result.
//!
//! The search cost is `O(log2 I_n)` per mode, "relatively inexpensive
//! compared to the 10–1000s of iterations required for decomposition".

use crate::block::{build_layout, BlockGrid, BlockedKernel};
use crate::exec::ExecPolicy;
use crate::kernel::{KernelKind, MttkrpKernel};
use crate::mttkrp::{BcooKernel, REG_BLOCK};
use crate::timing::time_reps;
use std::sync::Arc;
use tenblock_tensor::coo::perm_for_mode;
use tenblock_tensor::{CooTensor, DenseMatrix, NMODES};

/// Typed rejection of a degenerate [`tune`] request.
///
/// The heuristic times real kernel runs, so it needs at least one nonzero,
/// a positive rank, and a valid mode; anything else is reported as a value
/// instead of panicking mid-search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TuneError {
    /// The tensor has no nonzeros: every candidate would time an empty
    /// kernel and the "best" configuration would be noise.
    EmptyTensor,
    /// `rank == 0`: there is no factor column to block over.
    RankZero,
    /// `mode` is not in `0..NMODES`.
    ModeOutOfRange {
        /// The requested mode.
        mode: usize,
    },
    /// A tensor dimension is smaller than the starting block count (1),
    /// i.e. zero-length: the MB search has no axis to partition.
    ZeroAxis {
        /// The zero-length mode.
        mode: usize,
    },
}

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneError::EmptyTensor => write!(f, "cannot tune an empty tensor (nnz == 0)"),
            TuneError::RankZero => write!(f, "cannot tune for rank 0"),
            TuneError::ModeOutOfRange { mode } => {
                write!(f, "mode {mode} out of range (0..{NMODES})")
            }
            TuneError::ZeroAxis { mode } => write!(
                f,
                "mode {mode} has length 0, smaller than the starting block count"
            ),
        }
    }
}

impl std::error::Error for TuneError {}

/// Options controlling the heuristic search.
#[derive(Debug, Clone)]
pub struct TuneOptions {
    /// Decomposition rank to tune for.
    pub rank: usize,
    /// Timing repetitions per candidate (the minimum is kept).
    pub reps: usize,
    /// Upper bound on blocks per axis (safety valve; the paper's heuristic
    /// stops on its own well before this).
    pub max_blocks: usize,
    /// Execution policy candidates are timed under. The policy's recorder
    /// also receives one `tune/candidate` span per timed configuration.
    pub exec: ExecPolicy,
    /// Seed for the synthetic factor matrices used during timing.
    pub seed: u64,
}

impl TuneOptions {
    /// Sensible defaults for a given rank.
    pub fn new(rank: usize) -> Self {
        TuneOptions {
            rank,
            reps: 3,
            max_blocks: 64,
            exec: ExecPolicy::serial(),
            seed: 0x7e9b10c4,
        }
    }
}

/// One timed candidate configuration.
#[derive(Debug, Clone)]
pub struct TuneSample {
    /// Kernel family of the candidate.
    pub kind: KernelKind,
    /// MB grid (kernel axes) of the candidate.
    pub grid: [usize; NMODES],
    /// RankB strip width of the candidate.
    pub strip_width: usize,
    /// Best-of-`reps` execution time in seconds (warmup discarded).
    pub secs: f64,
    /// Mean over the measured repetitions in seconds.
    pub mean_secs: f64,
    /// Population standard deviation over the measured repetitions.
    pub stddev_secs: f64,
}

/// Result of the heuristic search.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// Selected kernel family ([`KernelKind::MbRankB`] or
    /// [`KernelKind::Bcoo`]).
    pub kind: KernelKind,
    /// Selected MB grid (kernel axes: slice, `j`, `k`).
    pub grid: [usize; NMODES],
    /// Selected RankB strip width in columns.
    pub strip_width: usize,
    /// Best observed time with the selected configuration.
    pub best_secs: f64,
    /// Every candidate evaluated, in search order.
    pub history: Vec<TuneSample>,
}

impl TuneResult {
    /// The selected configuration as a [`crate::KernelConfig`], ready to
    /// hand to [`crate::build_kernel`] (callers choose the execution
    /// policy).
    pub fn config_with(&self, exec: ExecPolicy) -> crate::KernelConfig {
        crate::KernelConfig {
            grid: self.grid,
            strip_width: self.strip_width,
            exec,
        }
    }

    /// Runs the tuner oracle: the selected block counts must be achievable
    /// for mode `mode` of a tensor with dimensions `dims`, and the strip
    /// width must fit `rank` columns.
    pub fn validate(
        &self,
        dims: [usize; NMODES],
        mode: usize,
        rank: usize,
    ) -> Result<(), tenblock_check::OracleError> {
        let perm = perm_for_mode(mode);
        tenblock_check::check_tune_grid(
            [dims[perm[0]], dims[perm[1]], dims[perm[2]]],
            self.grid,
            self.strip_width,
            rank,
        )
    }
}

/// Deterministic pseudo-random factor matrices for candidate timing.
fn timing_factors(coo: &CooTensor, rank: usize, seed: u64) -> Vec<DenseMatrix> {
    coo.dims()
        .iter()
        .enumerate()
        .map(|(m, &d)| {
            DenseMatrix::from_fn(d, rank, |r, c| {
                // xorshift-style hash; values in [-0.5, 0.5). The mantissa
                // comes from the hash's high 53 bits — `h % 1000` would
                // concentrate on the (barely mixed) low bits and bias the
                // distribution toward small residues.
                let mut h = seed ^ ((r as u64) << 32) ^ ((c as u64) << 8) ^ (m as u64);
                h ^= h >> 33;
                h = h.wrapping_mul(0xff51afd7ed558ccd);
                h ^= h >> 33;
                (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64) - 0.5
            })
        })
        .collect()
}

/// Runs the Section V-C heuristic, rejecting degenerate inputs (empty
/// tensor, rank 0, out-of-range mode, zero-length axis) with a typed
/// [`TuneError`] instead of panicking mid-search.
pub fn try_tune(coo: &CooTensor, mode: usize, opts: &TuneOptions) -> Result<TuneResult, TuneError> {
    if mode >= NMODES {
        return Err(TuneError::ModeOutOfRange { mode });
    }
    if opts.rank == 0 {
        return Err(TuneError::RankZero);
    }
    if let Some(m) = coo.dims().iter().position(|&d| d == 0) {
        return Err(TuneError::ZeroAxis { mode: m });
    }
    if coo.nnz() == 0 {
        return Err(TuneError::EmptyTensor);
    }
    Ok(tune_validated(coo, mode, opts))
}

/// Runs the Section V-C heuristic for the mode-`mode` MTTKRP of `coo`.
///
/// ```
/// use tenblock_core::{tune, TuneOptions};
/// use tenblock_tensor::gen::uniform_tensor;
///
/// let x = uniform_tensor([50, 80, 40], 2_000, 1);
/// let mut opts = TuneOptions::new(16);
/// opts.reps = 1;
/// opts.max_blocks = 4;
/// let result = tune(&x, 0, &opts);
/// assert!(result.grid.iter().all(|&g| (1..=4).contains(&g)));
/// assert!(result.strip_width >= 1 && result.strip_width <= 16);
/// ```
///
/// # Panics
/// Panics on degenerate input; boundary code should prefer [`try_tune`].
pub fn tune(coo: &CooTensor, mode: usize, opts: &TuneOptions) -> TuneResult {
    match try_tune(coo, mode, opts) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

/// Picks a tile grid (original axes) so the streaming working set fits a
/// byte budget: the expected tile — `nnz / cells` entries at the 20-byte
/// tile encoding — must cost at most `budget / 2`, because the
/// double-buffered driver holds two tiles at once.
///
/// Deterministic halving-by-doubling: start at `[1, 1, 1]` and repeatedly
/// double the axis with the largest per-tile span (ties to the lowest
/// axis), so tiles stay near-cubical — the same shape preference as the
/// paper's MB grids. Degenerate budgets saturate at one-index spans
/// rather than erroring: streaming still works, one slab at a time.
///
/// ```
/// use tenblock_core::tune::grid_for_tile_budget;
/// // 10k entries * 20 B = 200 kB of tile payload; an 80 kB budget needs
/// // tiles of <= 40 kB, so at least 5 cells (rounded up by doubling).
/// let grid = grid_for_tile_budget([100, 100, 100], 10_000, 80_000);
/// let cells = grid.iter().product::<usize>();
/// assert!(200_000usize.div_ceil(cells) <= 40_000);
/// ```
pub fn grid_for_tile_budget(
    dims: [usize; NMODES],
    nnz: usize,
    budget_bytes: u64,
) -> [usize; NMODES] {
    let entry = tenblock_tensor::tile_store::TILE_ENTRY_BYTES;
    let target = (budget_bytes / 2).max(entry);
    let mut grid = [1usize; NMODES];
    loop {
        let cells = grid.iter().product::<usize>() as u64;
        let expected = (nnz as u64 * entry).div_ceil(cells.max(1));
        if expected <= target {
            return grid;
        }
        // Widest per-tile span that can still split, ties to axis 0.
        let growable = (0..NMODES).filter(|&ax| grid[ax] < dims[ax].max(1));
        let Some(ax) =
            growable.max_by_key(|&ax| (dims[ax].div_ceil(grid[ax]), std::cmp::Reverse(ax)))
        else {
            return grid; // every axis at one index per tile: done
        };
        grid[ax] = (grid[ax] * 2).min(dims[ax].max(1));
    }
}

fn tune_validated(coo: &CooTensor, mode: usize, opts: &TuneOptions) -> TuneResult {
    let perm = perm_for_mode(mode);
    let dims = coo.dims();
    let factors = timing_factors(coo, opts.rank, opts.seed);
    let mut out = DenseMatrix::zeros(dims[mode], opts.rank);
    let mut history = Vec::new();

    let tune_span = opts.exec.recorder.span("tune");
    tune_span.annotate_num("mode", mode as f64);

    // Candidate timing runs with the recorder stripped: per-candidate spans
    // come from `eval`, not from every repetition's kernel call.
    let exec = ExecPolicy {
        threads: opts.exec.threads,
        ..ExecPolicy::default()
    };
    let fs: [&DenseMatrix; NMODES] = [&factors[0], &factors[1], &factors[2]];
    // Times one candidate: one discarded warmup rep, then best of `reps`
    // runs of a kernel the caller built (construction cost excluded, as the
    // paper amortizes it over the CPD iterations). The warmup absorbs
    // first-touch page faults in `out`, which otherwise skew min-of-1
    // candidate comparisons on small tensors.
    let mut eval = |kind: KernelKind,
                    kernel: &dyn MttkrpKernel,
                    grid: [usize; NMODES],
                    strip: usize,
                    history: &mut Vec<TuneSample>| {
        let span = opts.exec.recorder.span("tune/candidate");
        let stats = time_reps(1, opts.reps, || kernel.mttkrp(&fs, &mut out));
        if span.active() {
            span.annotate_str("kernel", kind.as_str());
            span.annotate_str("grid", &format!("{}x{}x{}", grid[0], grid[1], grid[2]));
            span.annotate_num("strip_width", strip as f64);
            span.annotate_num("secs", stats.min_secs);
        }
        history.push(TuneSample {
            kind,
            grid,
            strip_width: strip,
            secs: stats.min_secs,
            mean_secs: stats.mean_secs,
            stddev_secs: stats.stddev_secs,
        });
        stats.min_secs
    };
    let mb_rankb = |layout: &Arc<BlockGrid>, strip: usize| {
        BlockedKernel::over(Arc::clone(layout), true, Some(strip)).with_exec(exec.clone())
    };

    // --- Phase 1: rank strip width, 16-column increments, stop when the
    // time stops improving. Width == rank means a single strip. Every
    // width runs over the one unblocked layout, freed before phase 2
    // builds its grids.
    let unblocked = build_layout(coo, mode, [1, 1, 1]);
    let mut best_strip = opts.rank.max(1);
    let kernel = mb_rankb(&unblocked, best_strip);
    let mut best_secs = eval(
        KernelKind::MbRankB,
        &kernel,
        [1, 1, 1],
        best_strip,
        &mut history,
    );
    let mut width = REG_BLOCK;
    while width < opts.rank {
        let kernel = mb_rankb(&unblocked, width);
        let secs = eval(KernelKind::MbRankB, &kernel, [1, 1, 1], width, &mut history);
        if secs < best_secs {
            best_secs = secs;
            best_strip = width;
            width += REG_BLOCK;
        } else {
            break;
        }
    }
    drop(unblocked);

    // --- Phase 2: MB grid, axes in descending length order (ties broken by
    // access volume: j axis, k axis, slice axis).
    let axis_len = [dims[perm[0]], dims[perm[1]], dims[perm[2]]];
    let tie_rank = [2usize, 0, 1]; // axis 1 first, then 2, then 0
    let mut axes = [0usize, 1, 2];
    axes.sort_by_key(|&ax| (std::cmp::Reverse(axis_len[ax]), tie_rank[ax]));

    let mut grid = [1usize; NMODES];
    for &ax in &axes {
        let mut n = 1usize;
        loop {
            let next = (n * 2).min(axis_len[ax].max(1)).min(opts.max_blocks);
            if next == n {
                break;
            }
            let mut cand = grid;
            cand[ax] = next;
            let kernel = mb_rankb(&build_layout(coo, mode, cand), best_strip);
            let secs = eval(KernelKind::MbRankB, &kernel, cand, best_strip, &mut history);
            if secs < best_secs {
                best_secs = secs;
                grid = cand;
                n = next;
            } else {
                break;
            }
        }
    }

    // --- Phase 3: storage layout. The MB+RankB winner competes against the
    // block-native BCOO kernel at the same grid and strip width.
    let mut kind = KernelKind::MbRankB;
    let bcoo = BcooKernel::new(coo, mode, grid, best_strip).with_exec(exec.clone());
    let secs = eval(KernelKind::Bcoo, &bcoo, grid, best_strip, &mut history);
    if secs < best_secs {
        best_secs = secs;
        kind = KernelKind::Bcoo;
    }

    TuneResult {
        kind,
        grid,
        strip_width: best_strip,
        best_secs,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenblock_tensor::gen::{clustered_tensor, ClusteredConfig};

    #[test]
    fn tune_returns_valid_config() {
        let cfg = ClusteredConfig::new([300, 500, 200], 20_000);
        let x = clustered_tensor(&cfg, 99);
        let opts = TuneOptions {
            rank: 32,
            reps: 1,
            max_blocks: 8,
            exec: ExecPolicy::serial(),
            seed: 1,
        };
        let r = tune(&x, 0, &opts);
        assert!(r.strip_width >= 1 && r.strip_width <= 32);
        for ax in 0..3 {
            assert!(r.grid[ax] >= 1 && r.grid[ax] <= 8);
        }
        assert!(!r.history.is_empty());
        assert!(r.best_secs.is_finite());
        // best time must appear in history
        assert!(r.history.iter().any(|s| s.secs <= r.best_secs + 1e-12));
        // the layout phase always runs, so a BCOO candidate is in history
        // and the selected kind is one of the two finalists
        assert!(r.history.iter().any(|s| s.kind == KernelKind::Bcoo));
        assert!(matches!(r.kind, KernelKind::MbRankB | KernelKind::Bcoo));
    }

    /// Phase 1 times every strip width over one unblocked layout: a `tune`
    /// call builds that grid once, plus one grid per phase-2 candidate.
    #[test]
    fn strip_candidates_share_one_unblocked_grid() {
        use crate::block::grid::BUILDS;
        let x = clustered_tensor(&ClusteredConfig::new([60, 80, 40], 4_000), 4);
        let opts = TuneOptions {
            reps: 1,
            max_blocks: 4,
            ..TuneOptions::new(48)
        };
        let before = BUILDS.with(|n| n.get());
        let r = tune(&x, 0, &opts);
        let builds = BUILDS.with(|n| n.get()) - before;
        let fibered = r.history.iter().filter(|s| s.kind == KernelKind::MbRankB);
        let (strips, grids): (Vec<_>, Vec<_>) = fibered.partition(|s| s.grid == [1, 1, 1]);
        assert!(
            strips.len() >= 2,
            "rank 48 has a full-rank and a 16-wide candidate"
        );
        assert_eq!(builds, 1 + grids.len());
    }

    #[test]
    fn tiny_rank_skips_strip_search() {
        let cfg = ClusteredConfig::new([50, 50, 50], 2_000);
        let x = clustered_tensor(&cfg, 3);
        let opts = TuneOptions {
            rank: 8,
            reps: 1,
            max_blocks: 4,
            exec: ExecPolicy::serial(),
            seed: 2,
        };
        let r = tune(&x, 1, &opts);
        // rank 8 < REG_BLOCK: only the single-strip candidate exists
        assert_eq!(r.strip_width, 8);
    }

    #[test]
    fn degenerate_inputs_get_typed_errors() {
        use tenblock_tensor::CooTensor;
        let opts = TuneOptions::new(8);
        let empty = CooTensor::empty([10, 10, 10]);
        assert_eq!(
            try_tune(&empty, 0, &opts).err(),
            Some(TuneError::EmptyTensor)
        );

        let x = CooTensor::from_triples([2, 2, 2], &[0], &[1], &[1], &[1.0]);
        assert_eq!(
            try_tune(&x, 0, &TuneOptions::new(0)).err(),
            Some(TuneError::RankZero)
        );
        assert_eq!(
            try_tune(&x, 5, &opts).err(),
            Some(TuneError::ModeOutOfRange { mode: 5 })
        );

        let flat = CooTensor::empty([3, 0, 3]);
        assert_eq!(
            try_tune(&flat, 0, &opts).err(),
            Some(TuneError::ZeroAxis { mode: 1 })
        );
    }

    #[test]
    fn timing_factors_use_high_hash_bits() {
        // The [-0.5, 0.5) range must be hit roughly uniformly; the old
        // `h % 1000` mapping quantized everything to 1000 values. With
        // 53-bit mantissas, 400 samples should all be distinct and the
        // mean should sit near 0.
        let x = CooTensor::from_triples([20, 20, 1], &[0], &[0], &[0], &[1.0]);
        let fs = timing_factors(&x, 10, 0xfeed);
        let mut vals: Vec<f64> = (0..20)
            .flat_map(|r| (0..10).map(move |c| (r, c)))
            .map(|(r, c)| fs[0].row(r)[c])
            .collect();
        assert!(vals.iter().all(|v| (-0.5..0.5).contains(v)));
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!(mean.abs() < 0.1, "biased mean {mean}");
        vals.sort_by(|a, b| a.total_cmp(b));
        vals.dedup();
        assert_eq!(vals.len(), 200, "values collide: low-bit quantization");
    }

    #[test]
    fn longest_axis_is_explored_first() {
        let cfg = ClusteredConfig::new([20, 400, 20], 5_000);
        let x = clustered_tensor(&cfg, 5);
        let opts = TuneOptions {
            rank: 16,
            reps: 1,
            max_blocks: 4,
            exec: ExecPolicy::serial(),
            seed: 3,
        };
        let r = tune(&x, 0, &opts);
        // The first MB candidate in history (after strip phase) must block
        // the j axis (axis 1), the longest.
        let first_mb = r
            .history
            .iter()
            .find(|s| s.grid != [1, 1, 1])
            .expect("some MB candidate was tried");
        assert!(
            first_mb.grid[1] > 1,
            "expected j-axis first, got {:?}",
            first_mb.grid
        );
    }
}
