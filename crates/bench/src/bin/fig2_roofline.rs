//! Figure 2: arithmetic intensity of SPLATT MTTKRP for different cache hit
//! rates and rank sizes (Equation 3), plus the POWER8 roofline context.
//!
//! Run: `cargo run -p tenblock-bench --release --bin fig2_roofline`

#![forbid(unsafe_code)]

use tenblock_analysis::roofline::{fig2_series, MachineBalance, FIG2_RANKS};

fn main() {
    println!("Figure 2: arithmetic intensity I = R / (8 + 4R(1-alpha))");
    println!();
    print!("{:>8}", "alpha\\R");
    for r in FIG2_RANKS {
        print!("{r:>9}");
    }
    println!();
    for (alpha, pts) in fig2_series() {
        print!("{alpha:>8.2}");
        for (_, i) in pts {
            print!("{i:>9.3}");
        }
        println!();
    }

    let m = MachineBalance::power8_socket();
    println!();
    println!(
        "POWER8 socket balance: {:.2} flop/byte ({} Gflop/s peak, {} GB/s read)",
        m.balance(),
        m.peak_gflops,
        m.mem_bw_gbs
    );
    println!(
        "Paper's conclusion: with balance 6-12 on modern machines, MTTKRP is \
         memory-bound at every rank unless alpha ~= 1 and R > 64."
    );
    for &(rank, alpha) in &[(16u64, 0.95), (2048, 0.95), (128, 1.0)] {
        let i = tenblock_analysis::roofline::arithmetic_intensity(rank, alpha);
        println!(
            "  R={rank:>5} alpha={alpha:.2}: I={i:>6.2} -> {} on POWER8 \
             (attainable {:.0} Gflop/s)",
            if m.is_memory_bound(i) {
                "memory-bound"
            } else {
                "compute-bound"
            },
            m.attainable_gflops(i)
        );
    }
}
