//! Model-guided vs measured block-size selection — the paper's future-work
//! autotuner (Section VII) head-to-head against the Section V-C timing
//! heuristic.
//!
//! For each data set, both tuners pick a `(grid, strip)` configuration; the
//! chosen configurations are then *measured* so the quality of the model's
//! blind pick is visible.
//!
//! Run: `cargo run -p tenblock-bench --release --bin model_tuner [--scale f] [--rank r]`

#![forbid(unsafe_code)]

use tenblock_analysis::{tune_by_model, ModelTuneOptions};
use tenblock_bench::{arg_scale, arg_seed, arg_value, bench_factors, scaled_dataset, time_kernel};
use tenblock_core::block::BlockedKernel;
use tenblock_core::{tune, TuneOptions};
use tenblock_tensor::gen::Dataset;
use tenblock_tensor::DenseMatrix;

fn main() {
    let scale = arg_scale();
    let seed = arg_seed();
    let rank: usize = arg_value("--rank")
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);

    println!("model-guided vs measured tuning (rank {rank})");
    println!(
        "{:<10} {:>16} {:>10} {:>16} {:>10} {:>10}",
        "dataset", "measured pick", "time (s)", "model pick", "time (s)", "SPLATT(s)"
    );

    for ds in [Dataset::Poisson2, Dataset::Nell2, Dataset::Netflix] {
        let x = scaled_dataset(ds, scale, seed);
        let factors = bench_factors(x.dims(), rank, seed);
        let mut out = DenseMatrix::zeros(x.dims()[0], rank);

        let mut topts = TuneOptions::new(rank);
        topts.reps = 1;
        topts.max_blocks = 16;
        let measured = tune(&x, 0, &topts);

        let mut mopts = ModelTuneOptions::new(rank);
        mopts.max_blocks = 16;
        mopts.sample_nnz = 60_000;
        let modeled = tune_by_model(&x, 0, &mopts);

        let k_meas = BlockedKernel::new(&x, 0, Some(measured.grid), Some(measured.strip_width));
        let k_model = BlockedKernel::new(&x, 0, Some(modeled.grid), Some(modeled.strip_width));
        let base = BlockedKernel::new(&x, 0, None, None);
        let t_meas = time_kernel(&k_meas, &factors, &mut out, 3);
        let t_model = time_kernel(&k_model, &factors, &mut out, 3);
        let t_base = time_kernel(&base, &factors, &mut out, 3);

        let fmt = |g: [usize; 3], s: usize| format!("{}x{}x{} / {}", g[0], g[1], g[2], s);
        println!(
            "{:<10} {:>16} {:>10.4} {:>16} {:>10.4} {:>10.4}",
            ds.spec().name,
            fmt(measured.grid, measured.strip_width),
            t_meas,
            fmt(modeled.grid, modeled.strip_width),
            t_model,
            t_base
        );
    }
    println!(
        "\nThe model tuner never runs the kernel — it replays sampled access \
         traces through the POWER8 cache simulator and minimizes predicted \
         memory traffic (the paper's proposed data-movement-model autotuning)."
    );
}
