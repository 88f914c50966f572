//! # tenblock-bench
//!
//! The figure/table harness: one binary per table/figure of the paper.
//! See DESIGN.md §5 for the experiment index and EXPERIMENTS.md for
//! recorded results. The benchmark and regression gate is
//! `crates/sysbench`, not this crate.
//!
//! All binaries accept `--scale <f>` (default 1.0) to shrink/grow the data
//! sets relative to the registry defaults (which are themselves scaled-down
//! analogues of Table II — see `tenblock_tensor::gen::Dataset`), and most
//! accept `--reps <n>` for timing repetitions.

#![forbid(unsafe_code)]

use tenblock_core::timing::{time_reps, TimingStats};
use tenblock_core::MttkrpKernel;
use tenblock_tensor::gen::Dataset;
use tenblock_tensor::{CooTensor, DenseMatrix, NMODES};

/// Simple `--flag value` argument lookup (keeps the harness dependency-free).
pub fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Parses `--scale` (default 1.0).
pub fn arg_scale() -> f64 {
    arg_value("--scale")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Parses `--reps` (default `default`).
pub fn arg_reps(default: usize) -> usize {
    arg_value("--reps")
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Parses `--seed` (default 42).
pub fn arg_seed() -> u64 {
    arg_value("--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Generates a data set scaled by `scale`: nnz scales linearly, dimensions
/// by `sqrt(scale)` (so density changes slowly), both clamped to sane
/// minima.
pub fn scaled_dataset(ds: Dataset, scale: f64, seed: u64) -> CooTensor {
    let spec = ds.spec();
    let dim_f = scale.sqrt();
    let dims: [usize; NMODES] =
        std::array::from_fn(|m| ((spec.default_dims[m] as f64 * dim_f) as usize).max(8));
    let nnz = ((spec.default_nnz as f64 * scale) as usize).max(1_000);
    ds.generate_with(dims, nnz, seed)
}

/// Deterministic factor matrices for benchmarking (values in [-0.5, 0.5)).
pub fn bench_factors(dims: [usize; NMODES], rank: usize, seed: u64) -> Vec<DenseMatrix> {
    dims.iter()
        .enumerate()
        .map(|(m, &d)| {
            DenseMatrix::from_fn(d, rank, |r, c| {
                let mut h = seed ^ ((r as u64) << 24) ^ ((c as u64) << 4) ^ (m as u64);
                h ^= h >> 33;
                h = h.wrapping_mul(0xff51afd7ed558ccd);
                h ^= h >> 29;
                (h % 1024) as f64 / 1024.0 - 0.5
            })
        })
        .collect()
}

/// Times `kernel` against `factors`: best of `reps` runs (after one
/// discarded warmup rep), in seconds.
pub fn time_kernel(
    kernel: &dyn MttkrpKernel,
    factors: &[DenseMatrix],
    out: &mut DenseMatrix,
    reps: usize,
) -> f64 {
    time_kernel_stats(kernel, factors, out, reps).min_secs
}

/// Full min/mean/stddev timing of `kernel` with one discarded warmup rep.
pub fn time_kernel_stats(
    kernel: &dyn MttkrpKernel,
    factors: &[DenseMatrix],
    out: &mut DenseMatrix,
    reps: usize,
) -> TimingStats {
    let fs: [&DenseMatrix; NMODES] = [&factors[0], &factors[1], &factors[2]];
    let stats = time_reps(1, reps, || kernel.mttkrp(&fs, out));
    std::hint::black_box(out.as_slice());
    stats
}

/// MTTKRP Gflop/s at the SPLATT flop count `W = 2R(nnz + F)` (Equation 2).
pub fn gflops(nnz: usize, fibers: usize, rank: usize, secs: f64) -> f64 {
    2.0 * rank as f64 * (nnz + fibers) as f64 / secs / 1e9
}

/// The six data sets used in Figure 6 (Poisson1 is analysis-only in the
/// paper's evaluation).
pub const FIG6_DATASETS: [Dataset; 6] = [
    Dataset::Poisson2,
    Dataset::Poisson3,
    Dataset::Nell2,
    Dataset::Netflix,
    Dataset::Reddit,
    Dataset::Amazon,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_dataset_respects_scale() {
        let small = scaled_dataset(Dataset::Poisson1, 0.01, 1);
        let spec = Dataset::Poisson1.spec();
        assert!(small.nnz() < spec.default_nnz / 10);
        assert!(small.dims()[0] <= spec.default_dims[0]);
    }

    #[test]
    fn gflops_formula() {
        // 2 * 32 * (1000 + 100) flops in 1 ms = 70.4 Mflop / 1e-3 s
        let g = gflops(1000, 100, 32, 1e-3);
        assert!((g - 2.0 * 32.0 * 1100.0 / 1e-3 / 1e9).abs() < 1e-12);
    }

    #[test]
    fn factors_are_deterministic() {
        let a = bench_factors([10, 10, 10], 4, 7);
        let b = bench_factors([10, 10, 10], 4, 7);
        assert_eq!(a[0].as_slice(), b[0].as_slice());
    }
}
