//! Figure 4: performance vs RankB blocking size for Poisson2 and Poisson3
//! at rank 512 (larger block size = fewer blocks; block count 1 is the
//! unblocked case).
//!
//! Run: `cargo run -p tenblock-bench --release --bin fig4_rankb [--scale f] [--rank r] [--reps n]`

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
        .unwrap_or(512);
    let seed = arg_seed();

    println!("Figure 4: performance vs RankB block count (rank {rank})");
    println!(
        "{:<10} {:>8} {:>11} {:>11} {:>10} {:>9}",
        "dataset", "nblocks", "block size", "time (s)", "Gflop/s", "vs SPLATT"
    );

    for ds in [Dataset::Poisson2, Dataset::Poisson3] {
        let x = scaled_dataset(ds, scale, seed);
        let name = ds.spec().name;
        let factors = bench_factors(x.dims(), rank, seed);
        let mut out = DenseMatrix::zeros(x.dims()[0], rank);
        let fibers = x.count_fibers(tenblock_tensor::coo::MODE1_PERM);

        let baseline = BlockedKernel::new(&x, 0, None, None);
        let base_secs = time_kernel(&baseline, &factors, &mut out, reps);
        println!(
            "{:<10} {:>8} {:>11} {:>11.4} {:>10.2} {:>8.2}x  (SPLATT baseline)",
            name,
            "-",
            "-",
            base_secs,
            gflops(x.nnz(), fibers, rank, base_secs),
            1.0
        );

        // paper x-axis: 512, 256, 128, 64, 32, 16 block sizes (1..32 blocks)
        let mut nblocks = 1;
        while rank / nblocks >= 16 {
            let width = rank / nblocks;
            let k = BlockedKernel::new(&x, 0, None, Some(width));
            let secs = time_kernel(&k, &factors, &mut out, reps);
            println!(
                "{:<10} {:>8} {:>11} {:>11.4} {:>10.2} {:>8.2}x",
                name,
                nblocks,
                width,
                secs,
                gflops(x.nnz(), fibers, rank, secs),
                base_secs / secs
            );
            nblocks *= 2;
        }
        println!();
    }
    println!(
        "Expected shape (paper): Poisson2 has a sweet spot (16 blocks at R=512); \
         Poisson3 peaks at few blocks (4) and degrades below baseline with too many."
    );
}
