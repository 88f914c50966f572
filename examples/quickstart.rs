//! Quickstart: build a sparse tensor, run the baseline SPLATT MTTKRP and
//! the blocked MTTKRP, and verify they agree while the blocked one reads
//! less memory.
//!
//! Run: `cargo run --release --example quickstart`

use std::time::Instant;
use tenblock::core::block::BlockedKernel;
use tenblock::core::MttkrpKernel;
use tenblock::tensor::gen::{clustered_tensor, ClusteredConfig};
use tenblock::tensor::{DenseMatrix, TensorStats};

fn main() {
    // 1. A sparse 3-mode tensor with clustered structure (like real data).
    let cfg = ClusteredConfig::new([4_000, 6_000, 3_000], 500_000);
    let x = clustered_tensor(&cfg, 7);
    let stats = TensorStats::of(&x);
    println!("tensor: {}", stats.table_row("demo"));

    // 2. Factor matrices for a rank-64 decomposition.
    let rank = 64;
    let factors: Vec<DenseMatrix> = x
        .dims()
        .iter()
        .map(|&d| DenseMatrix::from_fn(d, rank, |r, c| ((r * 31 + c * 7) % 100) as f64 / 100.0))
        .collect();
    let fs: [&DenseMatrix; 3] = [&factors[0], &factors[1], &factors[2]];

    // 3. One kernel type runs the paper's whole family. No grid and no rank
    //    strips: the baseline SPLATT kernel (Algorithm 1 of the paper) ...
    let baseline = BlockedKernel::new(&x, 0, None, None);
    let mut out_base = DenseMatrix::zeros(x.dims()[0], rank);
    let t0 = Instant::now();
    baseline.mttkrp(&fs, &mut out_base);
    let base_secs = t0.elapsed().as_secs_f64();

    // 4. ... versus a 2x4x2 block grid + rank strips (MB + RankB, Section V).
    let blocked = BlockedKernel::new(&x, 0, Some([2, 4, 2]), Some(rank));
    let mut out_blocked = DenseMatrix::zeros(x.dims()[0], rank);
    let t0 = Instant::now();
    blocked.mttkrp(&fs, &mut out_blocked);
    let blocked_secs = t0.elapsed().as_secs_f64();

    // 5. Same math, less memory traffic.
    assert!(out_base.approx_eq(&out_blocked, 1e-9), "kernels disagree!");
    println!("SPLATT baseline : {base_secs:.4} s");
    println!(
        "MB+RankB        : {blocked_secs:.4} s  ({:.2}x)",
        base_secs / blocked_secs
    );
    println!("results agree to 1e-9 relative tolerance");
}
