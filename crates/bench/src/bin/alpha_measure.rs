//! Measured cache hit rate `α` per kernel, via the POWER8 cache simulator —
//! the bridge between Figure 2's model (where `α` is a free parameter) and
//! the blocking results (which work precisely by raising `α`).
//!
//! For each kernel the simulator replays the exact access stream and
//! reports the factor-matrix hit rate, the per-structure hit rates, and the
//! Equation (1) traffic predicted by the measured `α`.
//!
//! Run: `cargo run -p tenblock-bench --release --bin alpha_measure \
//!        [--scale f] [--rank r] [--dataset poisson3]`

#![forbid(unsafe_code)]

use tenblock_analysis::roofline::RooflineInputs;
use tenblock_analysis::trace::{trace_kernel, TraceKernel};
use tenblock_analysis::CacheSim;
use tenblock_bench::{arg_scale, arg_seed, arg_value, scaled_dataset};
use tenblock_tensor::coo::MODE1_PERM;
use tenblock_tensor::gen::{Dataset, ALL_DATASETS};

fn main() {
    // Tracing is ~100x slower than running, so default to a small slice.
    let scale = arg_value("--scale").map(|_| arg_scale()).unwrap_or(0.05);
    let seed = arg_seed();
    let rank: usize = arg_value("--rank")
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    let ds = arg_value("--dataset")
        .and_then(|n| {
            ALL_DATASETS
                .into_iter()
                .find(|d| d.spec().name.eq_ignore_ascii_case(&n))
        })
        .unwrap_or(Dataset::Poisson3);

    let x = scaled_dataset(ds, scale, seed);
    let nnz = x.nnz();
    let fibers = x.count_fibers(MODE1_PERM);
    println!(
        "Measured alpha on {} analogue: dims {:?}, nnz {}, fibers {}, rank {}",
        ds.spec().name,
        x.dims(),
        nnz,
        fibers,
        rank
    );
    println!(
        "{:<18} {:>8} {:>8} {:>8} {:>8} {:>8} {:>14} {:>13}",
        "kernel", "alpha", "B hit", "C hit", "A hit", "tens.", "mem bytes", "Eq.(1) bytes"
    );

    let kernels = [
        ("SPLATT", TraceKernel::Splatt),
        ("MB 4x4x2", TraceKernel::Mb([4, 4, 2])),
        ("RankB 16", TraceKernel::RankB(16)),
        ("MB+RankB", TraceKernel::MbRankB([4, 4, 2], 16)),
    ];
    for (name, k) in kernels {
        let r = trace_kernel(&x, 0, rank, k, CacheSim::power8(4));
        let eq1 = RooflineInputs {
            nnz: nnz as u64,
            fibers: fibers as u64,
            rank: rank as u64,
            alpha: r.alpha_factors,
        }
        .traffic_bytes();
        println!(
            "{:<18} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>14} {:>13.3e}",
            name,
            r.alpha_factors,
            r.hierarchy[1],
            r.hierarchy[2],
            r.hierarchy[3],
            r.hierarchy[0],
            r.memory_bytes,
            eq1
        );
    }
    println!();
    println!(
        "Expected shape: blocking raises the factor hit rate alpha (and with it \
         the arithmetic intensity of Figure 2), which is the mechanism behind \
         the Figure 6 speedups."
    );
}
