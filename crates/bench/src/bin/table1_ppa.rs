//! Table I: pressure points for SPLATT MTTKRP.
//!
//! The paper runs the six PPA variants on a 30K x 30K x 30K Poisson tensor
//! with 135M nonzeros at rank 128, single core. This harness uses the
//! scaled Poisson3 analogue (same shape, ~1M nnz by default).
//!
//! Run: `cargo run -p tenblock-bench --release --bin table1_ppa [--scale f] [--reps n] [--rank r]`

#![forbid(unsafe_code)]

use tenblock_analysis::run_ppa;
use tenblock_bench::{arg_reps, arg_scale, arg_seed, arg_value};
use tenblock_tensor::coo::MODE1_PERM;
use tenblock_tensor::gen::{poisson_tensor, PoissonConfig};

fn main() {
    let scale = arg_scale();
    let reps = arg_reps(3);
    let rank: usize = arg_value("--rank")
        .and_then(|s| s.parse().ok())
        .unwrap_or(128);
    let seed = arg_seed();

    eprintln!("generating Poisson3 analogue (scale {scale}) ...");
    // Match the paper's regime: the Table I tensor has nnz >> F ("nnz is
    // typically much larger than F", Section IV-A), so the Poisson model
    // uses sharper mode-1/mode-3 supports to concentrate events onto fewer
    // fibers.
    let dim = ((6_000.0 * scale.sqrt()) as usize).max(64);
    let mut cfg = PoissonConfig::new([dim; 3], (1_200_000.0 * scale) as usize);
    cfg.gen_rank = 8;
    cfg.support_frac_per_mode = Some([0.01, 0.08, 0.01]);
    let x = poisson_tensor(&cfg, seed);
    eprintln!(
        "tensor: {:?}, nnz {}, fibers {} (nnz/F = {:.1}), rank {rank}, single thread",
        x.dims(),
        x.nnz(),
        x.count_fibers(MODE1_PERM),
        x.nnz() as f64 / x.count_fibers(MODE1_PERM) as f64
    );

    let results = run_ppa(&x, 0, rank, reps);
    let baseline = results
        .iter()
        .find(|r| r.variant.type_no() == 6)
        .expect("baseline present")
        .secs;

    println!("Table I: pressure points for SPLATT MTTKRP (mode 1, rank {rank})");
    println!(
        "{:<5} {:>10} {:>8}  Description",
        "Type", "Time (s)", "vs base"
    );
    for r in &results {
        println!(
            "{:<5} {:>10.4} {:>7.1}%  {}",
            r.variant.type_no(),
            r.secs,
            (r.secs / baseline - 1.0) * 100.0,
            r.variant.description()
        );
    }
    println!();
    println!("Paper (POWER8, 135M nnz): 1.63 / 1.81 / 2.11 / 2.43 / 2.64 / 2.60 s");
    println!(
        "Expected shape: removing B saves the most; pinning B to L1 saves almost \
         as much; register accumulation (type 3) saves noticeably; removing C \
         saves little; moving flops inward (type 5) changes little."
    );
}
