//! Distributed MTTKRP execution: real local kernels + modeled network.
//!
//! One Table III cell is produced by [`run_4d`] ([`run_3d`] is its `t = 1`
//! case): the tensor is partitioned, the *largest* rank's local mode-1
//! MTTKRP is executed for real on this machine (per-rank compute is
//! nnz-proportional, so the maximum rank bounds the compute phase), and the
//! per-iteration communication of the medium-grained exchange is priced by
//! the α–β model:
//!
//! * AllGather of the needed mode-2 factor rows within each `j`-layer,
//! * AllGather of the needed mode-3 factor rows within each `k`-layer,
//! * Reduce-Scatter of the partial output rows within each `i`-layer,
//! * (4D only) AllGather of the column strips along the rank dimension.
//!
//! [`best_3d`] / [`best_4d`] search the processor-grid factorizations (3D:
//! restricted to `t = 1`) with the communication model and return the
//! measured result for the winner — mirroring how distributed SPLATT picks
//! its grid.

use crate::comm::CommParams;
use crate::part4d::Partition4D;
use tenblock_core::block::BlockedKernel;
use tenblock_core::timing::time_reps;
use tenblock_core::MttkrpKernel;
use tenblock_tensor::{CooTensor, DenseMatrix, NMODES};

/// Which kernel each rank runs locally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalKernel {
    /// Baseline Algorithm 1 (distributed SPLATT's local kernel).
    Baseline,
    /// This paper's MB+RankB kernel with the given grid and strip width.
    Blocked {
        /// MB grid (kernel axes), clamped to the local mode lengths.
        grid: [usize; NMODES],
        /// RankB strip width in columns.
        strip: usize,
    },
}

impl LocalKernel {
    /// Builds this choice's mode-1 kernel for a rank's sub-tensor at factor
    /// width `width`, with the grid clamped to the local mode lengths and
    /// the strip to the width.
    pub(crate) fn build(self, local: &CooTensor, width: usize) -> BlockedKernel {
        match self {
            LocalKernel::Baseline => BlockedKernel::new(local, 0, None, None),
            LocalKernel::Blocked { grid, strip } => {
                let dims = local.dims();
                let clamped = std::array::from_fn(|ax| grid[ax].clamp(1, dims[ax].max(1)));
                BlockedKernel::new(local, 0, Some(clamped), Some(strip.clamp(1, width.max(1))))
            }
        }
    }
}

/// Configuration of a distributed run.
#[derive(Debug, Clone, Copy)]
pub struct DistConfig {
    /// Decomposition rank `R`.
    pub rank: usize,
    /// Local kernel choice.
    pub local: LocalKernel,
    /// Network parameters.
    pub comm: CommParams,
    /// Seed for the medium-grained random relabeling.
    pub seed: u64,
    /// Timing repetitions for the local kernel (minimum kept).
    pub reps: usize,
}

impl DistConfig {
    /// Defaults: blocked local kernel (register blocking over the full
    /// rank; per-rank sub-tensors are small enough that a single strip and
    /// no MB grid is the right local configuration), 2018-cluster network.
    pub fn new(rank: usize) -> Self {
        DistConfig {
            rank,
            local: LocalKernel::Blocked {
                grid: [1, 1, 1],
                strip: usize::MAX,
            },
            comm: CommParams::cluster_2018(),
            seed: 0x5eed,
            reps: 2,
        }
    }
}

/// One Table III cell.
#[derive(Debug, Clone)]
pub struct DistResult {
    /// Processor grid `[q, r, s, t]` (`t = 1` for 3D runs).
    pub grid: [usize; 4],
    /// Modeled per-iteration time: `compute + comm`.
    pub total_secs: f64,
    /// Measured local compute time of the largest rank.
    pub compute_secs: f64,
    /// Modeled communication time.
    pub comm_secs: f64,
    /// Largest per-rank nonzero count.
    pub max_nnz: usize,
    /// Load imbalance (`max/mean` nnz).
    pub imbalance: f64,
}

/// Widest chunk of a bounds vector.
fn max_chunk(bounds: &[usize]) -> usize {
    bounds.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0)
}

/// Builds and times the local mode-1 MTTKRP of `local` at factor width
/// `width`; returns seconds (min over `reps`).
fn time_local(local: &CooTensor, kernel: LocalKernel, width: usize, reps: usize) -> f64 {
    let dims = local.dims();
    let mk = |d: usize, salt: usize| {
        DenseMatrix::from_fn(d, width, |r, c| {
            (((r * 31 + c * 7 + salt) % 17) as f64 - 8.0) * 0.05
        })
    };
    let b = mk(dims[1], 1);
    let c = mk(dims[2], 2);
    let a = DenseMatrix::zeros(dims[0], width);
    let mut out = DenseMatrix::zeros(dims[0], width);
    let fs: [&DenseMatrix; NMODES] = [&a, &b, &c];

    let kernel = kernel.build(local, width);
    let best = time_reps(0, reps, || kernel.mttkrp(&fs, &mut out)).min_secs;
    std::hint::black_box(out.as_slice());
    best
}

/// Modeled per-iteration communication of the medium-grained exchange for
/// the mode-1 MTTKRP on a `q x r x s` grid at factor width `width`.
fn comm_3d(
    comm: &CommParams,
    grid: [usize; NMODES],
    mode_chunks: [usize; NMODES],
    width: usize,
) -> f64 {
    let (q, r, s) = (grid[0], grid[1], grid[2]);
    let row_bytes = (width * 8) as f64;
    // B rows gathered within each j-layer (q*s ranks share a j-chunk)
    let b_gather = comm.allgather(q * s, mode_chunks[1] as f64 * row_bytes);
    // C rows gathered within each k-layer
    let c_gather = comm.allgather(q * r, mode_chunks[2] as f64 * row_bytes);
    // partial A rows reduce-scattered within each i-layer (r*s ranks)
    let a_reduce = comm.reduce_scatter(r * s, mode_chunks[0] as f64 * row_bytes);
    b_gather + c_gather + a_reduce
}

/// Ideal-balance communication score used by the grid search (no
/// partitioning required): assumes chunk widths `dim/g`.
fn comm_score(
    comm: &CommParams,
    dims: [usize; NMODES],
    grid: [usize; NMODES],
    width: usize,
) -> f64 {
    let chunks = std::array::from_fn(|m| dims[m].div_ceil(grid[m]));
    comm_3d(comm, grid, chunks, width)
}

/// All ordered factorizations `q*r*s = p` with each factor within the mode
/// length.
fn factorizations(p: usize, dims: [usize; NMODES]) -> Vec<[usize; NMODES]> {
    let mut out = Vec::new();
    for q in 1..=p {
        if !p.is_multiple_of(q) || q > dims[0].max(1) {
            continue;
        }
        let rs = p / q;
        for r in 1..=rs {
            if !rs.is_multiple_of(r) || r > dims[1].max(1) {
                continue;
            }
            let s = rs / r;
            if s > dims[2].max(1) {
                continue;
            }
            out.push([q, r, s]);
        }
    }
    out
}

/// Runs a 3D (medium-grained) distributed MTTKRP on `p = q*r*s` ranks:
/// [`run_4d`] with a single rank-strip.
pub fn run_3d(coo: &CooTensor, cfg: &DistConfig, grid: [usize; NMODES]) -> DistResult {
    run_4d(coo, cfg, grid, 1)
}

/// Runs a 4D distributed MTTKRP: `t` rank-strips x a 3D grid of `p/t`.
pub fn run_4d(coo: &CooTensor, cfg: &DistConfig, grid3: [usize; NMODES], t: usize) -> DistResult {
    let part = Partition4D::new(coo, grid3, t, cfg.rank, cfg.seed);
    let p3 = part.part3();
    let counts = p3.rank_nnz();
    let (argmax, &max_nnz) = counts
        .iter()
        .enumerate()
        .max_by_key(|&(_, &n)| n)
        .expect("at least one rank");
    let width = part.max_strip_width();
    let compute = time_local(p3.local(argmax), cfg.local, width, cfg.reps);
    let chunks: [usize; NMODES] = std::array::from_fn(|m| max_chunk(p3.bounds(m)));
    let mut comm = comm_3d(&cfg.comm, grid3, chunks, width);
    // the extra AllGather along the rank dimension: full-width rows of the
    // updated factor's chunk are reassembled from t strips (free at t = 1)
    comm += cfg.comm.allgather(t, (chunks[0] * cfg.rank * 8) as f64);
    DistResult {
        grid: [grid3[0], grid3[1], grid3[2], t],
        total_secs: compute + comm,
        compute_secs: compute,
        comm_secs: comm,
        max_nnz,
        imbalance: p3.imbalance(),
    }
}

/// Picks the best 3D grid for `p` ranks by the communication model, then
/// measures it.
pub fn best_3d(coo: &CooTensor, cfg: &DistConfig, p: usize) -> DistResult {
    best_upto(coo, cfg, p, 1)
}

/// Picks the best `(t, 3D grid)` for `p` ranks by the communication model
/// (including the rank-dimension AllGather), then measures it.
pub fn best_4d(coo: &CooTensor, cfg: &DistConfig, p: usize) -> DistResult {
    best_upto(coo, cfg, p, p)
}

/// The grid search over `t <= max_t` rank-strips x every 3D factorization
/// of `p / t`; the first configuration with the lowest modeled
/// communication wins.
fn best_upto(coo: &CooTensor, cfg: &DistConfig, p: usize, max_t: usize) -> DistResult {
    let dims = coo.dims();
    let mut best: Option<([usize; NMODES], usize, f64)> = None;
    for t in 1..=max_t {
        if !p.is_multiple_of(t) || t > cfg.rank {
            continue;
        }
        let width = cfg.rank.div_ceil(t);
        // strips narrower than one register block (16 doubles) destroy the
        // local kernel's vectorization; don't consider them
        if t > 1 && width < 16 {
            continue;
        }
        for grid in factorizations(p / t, dims) {
            let mut score = comm_score(&cfg.comm, dims, grid, width);
            score += cfg
                .comm
                .allgather(t, (dims[0].div_ceil(grid[0]) * cfg.rank * 8) as f64);
            if best.map(|(_, _, s)| score < s).unwrap_or(true) {
                best = Some((grid, t, score));
            }
        }
    }
    let (grid, t, _) = best.expect("no valid grid factorization");
    run_4d(coo, cfg, grid, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::part3d::Partition3D;
    use tenblock_core::mttkrp::dense_mttkrp;
    use tenblock_tensor::gen::uniform_tensor;

    /// Distributed correctness: the sum of all ranks' local mode-1 MTTKRPs
    /// equals the sequential MTTKRP of the relabeled tensor.
    #[test]
    fn partial_sums_reassemble_3d() {
        let x = uniform_tensor([16, 14, 12], 400, 8);
        let part = Partition3D::new(&x, [2, 2, 2], 3);
        let rel = part.relabeled();
        let rank = 6;
        let factors: Vec<DenseMatrix> = rel
            .dims()
            .iter()
            .map(|&d| DenseMatrix::from_fn(d, rank, |r, c| ((r * 5 + c) % 9) as f64 * 0.2))
            .collect();
        let fs: [&DenseMatrix; NMODES] = [&factors[0], &factors[1], &factors[2]];
        let expect = dense_mttkrp(&rel, &fs, 0);

        let mut sum = DenseMatrix::zeros(16, rank);
        for r in 0..part.n_ranks() {
            let local = part.local(r);
            if local.nnz() == 0 {
                continue;
            }
            let k = BlockedKernel::new(local, 0, None, None);
            let mut out = DenseMatrix::zeros(16, rank);
            k.mttkrp(&fs, &mut out);
            for (s, o) in sum.as_mut_slice().iter_mut().zip(out.as_slice()) {
                *s += o;
            }
        }
        assert!(expect.approx_eq(&sum, 1e-10));
    }

    /// 4D correctness: per-strip results assemble column-wise into the full
    /// MTTKRP.
    #[test]
    fn strips_reassemble_4d() {
        let x = uniform_tensor([12, 12, 12], 300, 9);
        let rank = 10;
        let part = Partition4D::new(&x, [2, 1, 2], 2, rank, 5);
        let rel = part.part3().relabeled();
        let factors: Vec<DenseMatrix> = rel
            .dims()
            .iter()
            .map(|&d| DenseMatrix::from_fn(d, rank, |r, c| ((r + 3 * c) % 7) as f64 * 0.3))
            .collect();
        let fs: [&DenseMatrix; NMODES] = [&factors[0], &factors[1], &factors[2]];
        let expect = dense_mttkrp(&rel, &fs, 0);

        let mut assembled = DenseMatrix::zeros(12, rank);
        for g in 0..part.t() {
            let cols = part.strip_cols(g);
            // strip factors: the column window of each factor
            let strip_factors: Vec<DenseMatrix> = factors
                .iter()
                .map(|f| {
                    DenseMatrix::from_fn(f.rows(), cols.len(), |r, c| f.get(r, cols.start + c))
                })
                .collect();
            let sfs: [&DenseMatrix; NMODES] =
                [&strip_factors[0], &strip_factors[1], &strip_factors[2]];
            for r in 0..part.part3().n_ranks() {
                let local = part.part3().local(r);
                if local.nnz() == 0 {
                    continue;
                }
                let k = BlockedKernel::new(local, 0, None, None);
                let mut out = DenseMatrix::zeros(12, cols.len());
                k.mttkrp(&sfs, &mut out);
                for row in 0..12 {
                    for (c, col) in cols.clone().enumerate() {
                        assembled.set(row, col, assembled.get(row, col) + out.get(row, c));
                    }
                }
            }
        }
        assert!(expect.approx_eq(&assembled, 1e-10));
    }

    #[test]
    fn run_3d_produces_sane_result() {
        let x = uniform_tensor([60, 50, 40], 5_000, 2);
        let cfg = DistConfig::new(16);
        let r = run_3d(&x, &cfg, [2, 2, 1]);
        assert_eq!(r.grid, [2, 2, 1, 1]);
        assert!(r.total_secs > 0.0);
        assert!((r.total_secs - (r.compute_secs + r.comm_secs)).abs() < 1e-12);
        assert!(r.max_nnz >= 5_000 / 4);
        assert!(r.imbalance >= 1.0);
    }

    #[test]
    fn more_ranks_fewer_nnz_per_rank() {
        let x = uniform_tensor([80, 80, 80], 20_000, 4);
        let cfg = DistConfig::new(16);
        let r1 = run_3d(&x, &cfg, [1, 1, 1]);
        let r8 = run_3d(&x, &cfg, [2, 2, 2]);
        assert!(r8.max_nnz < r1.max_nnz);
        assert_eq!(r1.comm_secs, 0.0); // single rank: no network
        assert!(r8.comm_secs > 0.0);
    }

    #[test]
    fn factorization_enumeration() {
        let f = factorizations(8, [100, 100, 100]);
        assert!(f.contains(&[2, 2, 2]));
        assert!(f.contains(&[8, 1, 1]));
        assert!(f.contains(&[1, 1, 8]));
        for g in &f {
            assert_eq!(g.iter().product::<usize>(), 8);
        }
        // dims cap the factors
        let capped = factorizations(8, [2, 100, 100]);
        assert!(capped.iter().all(|g| g[0] <= 2));
    }

    #[test]
    fn best_grids_prefer_long_modes() {
        // Netflix-shaped: mode 1 enormous, mode 3 tiny -> q should dominate
        let x = uniform_tensor([2_000, 180, 8], 6_000, 6);
        let cfg = DistConfig::new(32);
        let r = best_3d(&x, &cfg, 8);
        assert!(
            r.grid[0] >= r.grid[2],
            "expected q >= s for a tall tensor: {:?}",
            r.grid
        );
    }

    #[test]
    fn best_4d_uses_rank_dimension_at_scale() {
        let x = uniform_tensor([300, 250, 200], 8_000, 7);
        let cfg = DistConfig::new(64);
        let r = best_4d(&x, &cfg, 16);
        assert_eq!(r.grid.iter().product::<usize>(), 16);
        assert!(r.grid[3] >= 1);
        assert!(r.total_secs > 0.0);
    }
}
