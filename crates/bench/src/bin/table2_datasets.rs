//! Table II: the synthetic and real-world data sets.
//!
//! Prints the paper's values next to this reproduction's scaled analogues
//! (generated, then measured).
//!
//! Run: `cargo run -p tenblock-bench --release --bin table2_datasets [--scale f]`

#![forbid(unsafe_code)]

use tenblock_bench::{arg_scale, arg_seed, scaled_dataset};
use tenblock_tensor::gen::ALL_DATASETS;
use tenblock_tensor::TensorStats;

fn main() {
    let scale = arg_scale();
    let seed = arg_seed();

    println!("Table II: data sets (paper vs scaled analogue at --scale {scale})");
    println!(
        "{:<10} {:>28} {:>12} {:>10} | {:>24} {:>10} {:>10} {:>9}",
        "Name", "paper dims", "paper nnz", "sparsity", "repro dims", "nnz", "sparsity", "fibers"
    );
    for ds in ALL_DATASETS {
        let spec = ds.spec();
        let paper_cells: f64 = spec.paper_dims.iter().map(|&d| d as f64).product();
        let t = scaled_dataset(ds, scale, seed);
        let s = TensorStats::of(&t);
        println!(
            "{:<10} {:>8}x{:>8}x{:>9} {:>12} {:>10.1e} | {:>6}x{:>7}x{:>8} {:>10} {:>10.1e} {:>9}",
            spec.name,
            spec.paper_dims[0],
            spec.paper_dims[1],
            spec.paper_dims[2],
            spec.paper_nnz,
            spec.paper_nnz as f64 / paper_cells,
            s.dims[0],
            s.dims[1],
            s.dims[2],
            s.nnz,
            s.sparsity,
            s.fibers[0],
        );
    }
}
