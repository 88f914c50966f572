//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. **Format**: the COO kernel vs the SPLATT kernel (the Section III-C
//!    motivation for the fiber format).
//! 2. **Parallelism**: rayon on/off for the baseline and blocked kernels.
//!
//! `results/ablations.txt` was recorded when two more sections came first:
//! a stacked strip factor layout (Section V-B's "small rearrangement of the
//! factor matrix", one run at 1.06x over reading strips out of the plain
//! row-major factors) and the block traversal order (`b`-major vs
//! `c`-major, 1.02x). Neither knob was ever set by a default path, the
//! tuner or a benchmark; both are gone, and that file stays their record.
//!
//! Run: `cargo run -p tenblock-bench --release --bin ablations [--scale f] [--rank r] [--reps n]`

#![forbid(unsafe_code)]

use tenblock_bench::{
    arg_reps, arg_scale, arg_seed, arg_value, bench_factors, scaled_dataset, time_kernel,
};
use tenblock_core::block::BlockedKernel;
use tenblock_core::mttkrp::CooKernel;
use tenblock_core::ExecPolicy;
use tenblock_tensor::gen::Dataset;
use tenblock_tensor::DenseMatrix;

fn main() {
    let scale = arg_scale();
    let reps = arg_reps(3);
    let rank: usize = arg_value("--rank")
        .and_then(|s| s.parse().ok())
        .unwrap_or(128);
    let seed = arg_seed();

    let x = scaled_dataset(Dataset::Nell2, scale, seed);
    println!(
        "ablations on NELL2 analogue: dims {:?}, nnz {}, rank {rank}",
        x.dims(),
        x.nnz()
    );
    let factors = bench_factors(x.dims(), rank, seed);
    let mut out = DenseMatrix::zeros(x.dims()[0], rank);
    let row = |name: &str, secs: f64, base: Option<f64>| {
        match base {
            Some(b) => println!("  {name:<34} {secs:>9.4} s   ({:>5.2}x)", b / secs),
            None => println!("  {name:<34} {secs:>9.4} s",),
        }
        secs
    };

    println!("\n[1] Storage format (Section III-C):");
    println!("  -- thin fibers (this NELL2 analogue, nnz/F ~= 1):");
    let coo = CooKernel::new(&x, 0);
    let splatt = BlockedKernel::new(&x, 0, None, None);
    let tcoo = time_kernel(&coo, &factors, &mut out, reps);
    row("COO kernel", tcoo, None);
    let tsp = time_kernel(&splatt, &factors, &mut out, reps);
    row("SPLATT kernel (Algorithm 1)", tsp, Some(tcoo));
    // Algorithm 1's per-fiber factoring only pays when fibers hold several
    // nonzeros ("more nonzeros there are in the fiber, more computation and
    // data movement that can be saved") — show the dense-fiber regime too.
    {
        use tenblock_tensor::gen::{poisson_tensor, PoissonConfig};
        let dim = ((x.dims()[0] as f64) * 1.5) as usize;
        let mut pcfg = PoissonConfig::new([dim; 3], x.nnz());
        pcfg.gen_rank = 8;
        pcfg.support_frac_per_mode = Some([0.01, 0.08, 0.01]);
        let xf = poisson_tensor(&pcfg, seed);
        let f = xf.count_fibers(tenblock_tensor::coo::MODE1_PERM);
        println!(
            "  -- dense fibers (Poisson, nnz/F = {:.1}):",
            xf.nnz() as f64 / f as f64
        );
        let ffac = bench_factors(xf.dims(), rank, seed);
        let mut fout = DenseMatrix::zeros(xf.dims()[0], rank);
        let coo_f = CooKernel::new(&xf, 0);
        let splatt_f = BlockedKernel::new(&xf, 0, None, None);
        let tcoo_f = time_kernel(&coo_f, &ffac, &mut fout, reps);
        row("COO kernel", tcoo_f, None);
        let tsp_f = time_kernel(&splatt_f, &ffac, &mut fout, reps);
        row("SPLATT kernel (Algorithm 1)", tsp_f, Some(tcoo_f));
    }

    println!(
        "\n[2] rayon parallelism ({} threads available):",
        rayon::current_num_threads()
    );
    let base_seq = BlockedKernel::new(&x, 0, None, None);
    let base_par = BlockedKernel::new(&x, 0, None, None).with_exec(ExecPolicy::auto());
    let t1 = time_kernel(&base_seq, &factors, &mut out, reps);
    row("SPLATT sequential", t1, None);
    let t2 = time_kernel(&base_par, &factors, &mut out, reps);
    row("SPLATT parallel", t2, Some(t1));
    let blk_seq = BlockedKernel::new(&x, 0, Some([4, 2, 2]), Some(16));
    let blk_par =
        BlockedKernel::new(&x, 0, Some([4, 2, 2]), Some(16)).with_exec(ExecPolicy::auto());
    let t3 = time_kernel(&blk_seq, &factors, &mut out, reps);
    row("MB+RankB sequential", t3, None);
    let t4 = time_kernel(&blk_par, &factors, &mut out, reps);
    row("MB+RankB parallel", t4, Some(t3));
}
