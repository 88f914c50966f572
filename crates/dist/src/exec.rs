//! Distributed MTTKRP execution: real local kernels + modeled network.
//!
//! One Table III cell is produced by [`run_4d`] ([`run_3d`] is its `t = 1`
//! case): the tensor is partitioned, the *largest* rank's local mode-1
//! MTTKRP is executed for real on this machine (per-rank compute is
//! nnz-proportional, so the maximum rank bounds the compute phase), and the
//! per-iteration communication is the mode-1 [`Exchange`], priced by the
//! α–β model.
//!
//! [`best_3d`] / [`best_4d`] search the processor-grid factorizations (3D:
//! restricted to `t = 1`), pricing each grid's exchange at ideal balance,
//! and return the measured result for the winner — mirroring how
//! distributed SPLATT picks its grid.

use crate::comm::CommParams;
use crate::exchange::Exchange;
use crate::part4d::Partition4D;
use tenblock_core::block::BlockedKernel;
use tenblock_core::timing::time_reps;
use tenblock_core::MttkrpKernel;
use tenblock_tensor::cell_grid::uniform_bounds;
use tenblock_tensor::{CooTensor, DenseMatrix, NMODES};

/// Which kernel each rank runs locally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalKernel {
    /// Baseline Algorithm 1 (distributed SPLATT's local kernel).
    Baseline,
    /// This paper's register-blocked kernel over the full rank: per-rank
    /// sub-tensors are small enough that a single strip and no MB grid is
    /// the right local configuration.
    Blocked,
}

impl LocalKernel {
    /// Builds this choice's mode-`mode` kernel for a rank's sub-tensor.
    pub(crate) fn build(self, local: &CooTensor, mode: usize) -> BlockedKernel {
        let strip = match self {
            LocalKernel::Baseline => None,
            // one strip as wide as whatever rank the kernel is called at
            LocalKernel::Blocked => Some(usize::MAX),
        };
        BlockedKernel::new(local, mode, None, strip)
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
    /// Defaults: blocked local kernel, 2018-cluster network.
    pub fn new(rank: usize) -> Self {
        DistConfig {
            rank,
            local: LocalKernel::Blocked,
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

    let kernel = kernel.build(local, 0);
    let best = time_reps(0, reps, || kernel.mttkrp(&fs, &mut out)).min_secs;
    std::hint::black_box(out.as_slice());
    best
}

/// All ordered factorizations `q*r*s = p` with each factor within the mode
/// length, `q` then `r` ascending.
fn factorizations(p: usize, dims: [usize; NMODES]) -> Vec<[usize; NMODES]> {
    let divisors = |n: usize| (1..=n).filter(move |d| n.is_multiple_of(*d));
    let grids = divisors(p).flat_map(|q| divisors(p / q).map(move |r| [q, r, p / q / r]));
    let fits = |g: &[usize; NMODES]| (0..NMODES).all(|m| g[m] <= dims[m].max(1));
    grids.filter(fits).collect()
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
    // the widest strip sets the local kernel's width
    let compute = time_local(p3.local(argmax), cfg.local, cfg.rank.div_ceil(t), cfg.reps);
    let comm = Exchange::new(p3.bounds(), part.strip_bounds(), 0).secs(&cfg.comm);
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
    // strips narrower than one register block (16 doubles) destroy the
    // local kernel's vectorization; don't consider them
    let ts = (1..=max_t.min(cfg.rank))
        .filter(|&t| p.is_multiple_of(t) && (t == 1 || cfg.rank.div_ceil(t) >= 16));
    let scored = ts.flat_map(|t| {
        let strips = uniform_bounds(cfg.rank, t);
        factorizations(p / t, dims).into_iter().map(move |grid| {
            let bounds: [Vec<usize>; NMODES] =
                std::array::from_fn(|n| uniform_bounds(dims[n], grid[n]));
            let exchange = Exchange::new(bounds.each_ref().map(Vec::as_slice), &strips, 0);
            (grid, t, exchange.secs(&cfg.comm))
        })
    });
    let best = scored.min_by(|a, b| a.2.total_cmp(&b.2));
    let (grid, t, _) = best.expect("no valid grid factorization");
    run_4d(coo, cfg, grid, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenblock_tensor::gen::uniform_tensor;

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
