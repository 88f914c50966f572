//! Table III: distributed execution time comparison — distributed SPLATT
//! (medium-grained 3D + baseline local kernel) vs this paper's 3D and 4D
//! partitionings with the blocked local kernel, on NELL-2 and Netflix
//! analogues, 1 to 64 nodes (2 MPI ranks per node, as in the paper).
//!
//! Run: `cargo run -p tenblock-bench --release --bin table3_distributed \
//!        [--scale f] [--rank r] [--nodes 1,2,4,8,16,32,64]`

#![forbid(unsafe_code)]

use tenblock_bench::{arg_scale, arg_seed, arg_value, scaled_dataset};
use tenblock_dist::{best_3d, best_4d, DistConfig, LocalKernel};
use tenblock_tensor::gen::Dataset;

fn main() {
    let scale = arg_scale();
    let seed = arg_seed();
    let rank: usize = arg_value("--rank")
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    let nodes: Vec<usize> = arg_value("--nodes")
        .map(|s| s.split(',').filter_map(|t| t.parse().ok()).collect())
        .unwrap_or_else(|| vec![1, 2, 4, 8, 16, 32, 64]);

    println!("Table III: distributed execution time comparison (rank {rank}, 2 ranks/node)");
    for ds in [Dataset::Nell2, Dataset::Netflix] {
        let x = scaled_dataset(ds, scale, seed);
        let name = ds.spec().name;
        println!();
        println!("{name}: dims {:?}, nnz {}", x.dims(), x.nnz());
        println!(
            "{:>6} {:>10} {:>12} {:>10} {:>14} {:>10} {:>8} {:>8}",
            "Nodes", "SPLATT(s)", "3D grid", "3D (s)", "4D grid", "4D (s)", "3D spd", "4D spd"
        );
        for &n in &nodes {
            let p = 2 * n; // one MPI rank per socket
            let mut cfg = DistConfig::new(rank);
            cfg.seed = seed;

            cfg.local = LocalKernel::Baseline;
            let splatt = best_3d(&x, &cfg, p);

            cfg.local = DistConfig::new(rank).local; // blocked default
            let ours3 = best_3d(&x, &cfg, p);
            let ours4 = best_4d(&x, &cfg, p);

            println!(
                "{:>6} {:>10.4} {:>12} {:>10.4} {:>14} {:>10.4} {:>7.2}x {:>7.2}x",
                n,
                splatt.total_secs,
                format!("{}x{}x{}", ours3.grid[0], ours3.grid[1], ours3.grid[2]),
                ours3.total_secs,
                format!(
                    "{}x{}x{}x{}",
                    ours4.grid[0], ours4.grid[1], ours4.grid[2], ours4.grid[3]
                ),
                ours4.total_secs,
                splatt.total_secs / ours3.total_secs,
                splatt.total_secs / ours4.total_secs
            );
        }
    }
    println!();
    println!(
        "Expected shape (paper): both 3D and 4D beat distributed SPLATT at every \
         node count (blocked local kernel); 4D overtakes 3D at high node counts \
         (1.4x NELL-2 and 1.6x Netflix at 64 nodes)."
    );
}
