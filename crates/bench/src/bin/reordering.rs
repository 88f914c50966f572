//! Reordering vs blocking — the paper's Section I/V claim that nonzero
//! re-ordering "yielded little improvement in performance" (referring to
//! Smith et al.'s hypergraph partitioning) while blocking, which "requires
//! very little data rearrangement and overhead", does better.
//!
//! We compare the SPLATT baseline on: the original tensor, a randomly
//! scrambled tensor (collection-order worst case), degree-sorted and
//! first-touch reorderings of the scrambled tensor — against MB+RankB
//! blocking of the scrambled tensor with *no* reordering at all.
//!
//! Run: `cargo run -p tenblock-bench --release --bin reordering [--scale f] [--rank r]`

#![forbid(unsafe_code)]

use tenblock_bench::{
    arg_reps, arg_scale, arg_seed, arg_value, bench_factors, scaled_dataset, time_kernel,
};
use tenblock_core::block::BlockedKernel;
use tenblock_core::{tune, TuneOptions};
use tenblock_tensor::gen::Dataset;
use tenblock_tensor::reorder::{mode2_jump_score, Reordering};
use tenblock_tensor::DenseMatrix;

fn main() {
    let scale = arg_scale();
    let reps = arg_reps(3);
    let rank: usize = arg_value("--rank")
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    let seed = arg_seed();

    let original = scaled_dataset(Dataset::Nell2, scale, seed);
    let scrambled = Reordering::random(original.dims(), seed).apply(&original);
    println!(
        "reordering study on NELL2 analogue: dims {:?}, nnz {}, rank {rank}",
        original.dims(),
        original.nnz()
    );
    println!(
        "{:<38} {:>11} {:>9} {:>11}",
        "configuration", "time (s)", "speedup", "jump score"
    );

    let factors = bench_factors(original.dims(), rank, seed);
    let mut out = DenseMatrix::zeros(original.dims()[0], rank);

    // baseline: scrambled tensor, no treatment
    let base_k = BlockedKernel::new(&scrambled, 0, None, None);
    let base = time_kernel(&base_k, &factors, &mut out, reps);
    println!(
        "{:<38} {:>11.4} {:>8.2}x {:>11.2}",
        "SPLATT on scrambled tensor",
        base,
        1.0,
        mode2_jump_score(&scrambled)
    );

    // reorderings (factors are permuted consistently; timing uses the same
    // synthetic values so only the access pattern changes)
    for (name, reordering) in [
        (
            "SPLATT + degree-sort reordering",
            Reordering::by_degree(&scrambled),
        ),
        (
            "SPLATT + first-touch reordering",
            Reordering::by_first_touch(&scrambled),
        ),
    ] {
        let rt = reordering.apply(&scrambled);
        let rfactors: Vec<DenseMatrix> = (0..3)
            .map(|m| reordering.apply_to_factor(m, &factors[m]))
            .collect();
        let k = BlockedKernel::new(&rt, 0, None, None);
        let secs = time_kernel(&k, &rfactors, &mut out, reps);
        println!(
            "{:<38} {:>11.4} {:>8.2}x {:>11.2}",
            name,
            secs,
            base / secs,
            mode2_jump_score(&rt)
        );
    }

    // blocking, no reordering (tuned by the Section V-C heuristic)
    let mut topts = TuneOptions::new(rank);
    topts.reps = 1;
    topts.max_blocks = 16;
    let tuned = tune(&scrambled, 0, &topts);
    let blocked = BlockedKernel::new(&scrambled, 0, Some(tuned.grid), Some(tuned.strip_width));
    let secs = time_kernel(&blocked, &factors, &mut out, reps);
    println!(
        "{:<38} {:>11.4} {:>8.2}x {:>11.2}",
        format!(
            "MB+RankB {}x{}x{}/{} (no reordering)",
            tuned.grid[0], tuned.grid[1], tuned.grid[2], tuned.strip_width
        ),
        secs,
        base / secs,
        mode2_jump_score(&scrambled)
    );

    println!(
        "\nExpected shape (paper): reorderings move the needle far less than \
         blocking — locality must be *created* by restricting the working \
         set, not just by renaming indices."
    );
}
