//! Figure 5: performance vs multi-dimensional blocking size for Poisson2
//! and Poisson3. The paper's grids are expressed in *mode* order
//! (mode1 x mode2 x mode3); kernel axes for the mode-1 MTTKRP coincide with
//! that order.
//!
//! Run: `cargo run -p tenblock-bench --release --bin fig5_mb [--scale f] [--rank r] [--reps n]`

#![forbid(unsafe_code)]

use tenblock_bench::{
    arg_reps, arg_scale, arg_seed, arg_value, bench_factors, gflops, scaled_dataset, time_kernel,
};
use tenblock_core::block::BlockedKernel;
use tenblock_tensor::gen::Dataset;
use tenblock_tensor::DenseMatrix;

fn main() {
    let scale = arg_scale();
    let reps = arg_reps(3);
    let rank: usize = arg_value("--rank")
        .and_then(|s| s.parse().ok())
        .unwrap_or(128);
    let seed = arg_seed();

    // Grids mirroring the paper's Figure 5 sweeps: blocking the long mode
    // alone at several counts, cross-mode combinations, and the extreme
    // cases that degrade performance.
    let grids: &[[usize; 3]] = &[
        [1, 2, 1],
        [1, 4, 1],
        [1, 8, 1],
        [1, 16, 1],
        [1, 32, 1],
        [2, 4, 1],
        [1, 4, 2],
        [1, 10, 5],
        [8, 1, 1],
        [1, 1, 8],
        [16, 16, 1],
        [32, 32, 1],
    ];

    println!("Figure 5: performance vs MB blocking size (rank {rank})");
    println!(
        "{:<10} {:>12} {:>11} {:>10} {:>9}",
        "dataset", "grid", "time (s)", "Gflop/s", "vs SPLATT"
    );

    for ds in [Dataset::Poisson2, Dataset::Poisson3] {
        let x = scaled_dataset(ds, scale, seed);
        let name = ds.spec().name;
        let dims = x.dims();
        let factors = bench_factors(dims, rank, seed);
        let mut out = DenseMatrix::zeros(dims[0], rank);
        let fibers = x.count_fibers(tenblock_tensor::coo::MODE1_PERM);

        let baseline = BlockedKernel::new(&x, 0, None, None);
        let base_secs = time_kernel(&baseline, &factors, &mut out, reps);
        println!(
            "{:<10} {:>12} {:>11.4} {:>10.2} {:>8.2}x  (SPLATT baseline)",
            name,
            "1x1x1",
            base_secs,
            gflops(x.nnz(), fibers, rank, base_secs),
            1.0
        );

        for &grid in grids {
            let clamped: [usize; 3] = std::array::from_fn(|m| grid[m].min(dims[m].max(1)));
            let k = BlockedKernel::new(&x, 0, Some(clamped), None);
            let secs = time_kernel(&k, &factors, &mut out, reps);
            println!(
                "{:<10} {:>12} {:>11.4} {:>10.2} {:>8.2}x",
                name,
                format!("{}x{}x{}", clamped[0], clamped[1], clamped[2]),
                secs,
                gflops(x.nnz(), fibers, rank, secs),
                base_secs / secs
            );
        }
        println!();
    }
    println!(
        "Expected shape (paper): blocking the long mode (mode 2) helps most and \
         the exact count matters little; blocking mode 3 beats blocking mode 1 \
         (8x1x1 vs 1x1x8); extreme grids degrade below baseline."
    );
}
