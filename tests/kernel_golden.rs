//! Golden-output test: the four fibered kernels' outputs, bit for bit.
//!
//! The table below was recorded at the commit *before* the four separate
//! kernel structs (SPLATT, MB, RankB, MB+RankB) collapsed into one
//! `BlockedKernel`, through the registry only (`build_kernel`), so it pins
//! "the same bits as the four separate kernels produced" — a guarantee the
//! dense-reference tests (1e-10) cannot give. Rank 37 at strip 16 runs two
//! full 16-wide register chunks and the <16 remainder chunk; grid `[3,2,2]`
//! leaves block rows of unequal height; `fixed(3)` splits rows into pieces
//! that do not line up with the block rows.
//!
//! A second table, recorded at the commit before the unblocked loops gained
//! look-ahead prefetch (PR 22), pins COO — sysbench's sweep oracle — at rank
//! 37 and `splatt`/`mb` at rank 64, where a factor row is a whole number of
//! cache lines (rank 37 never is).
//!
//! A third table, recorded at the commit before every kernel's launch became
//! one routine, pins `bcoo` and `csf` at the first table's setting (rank 37,
//! strip 16, grid `[3,2,2]`). BCOO adds each column in MB's order, so its
//! hashes equal the first table's blocked column.
//!
//! A change that *means* to alter summation order re-records the table
//! from the failure messages, which print the new hash.

use tenblock::core::{build_kernel, ExecPolicy, KernelConfig, KernelKind};
use tenblock::tensor::gen::{clustered_tensor, powerlaw_tensor, ClusteredConfig, PowerLawConfig};
use tenblock::tensor::{CooTensor, DenseMatrix};

const RANK: usize = 37;
const KINDS: [KernelKind; 4] = [
    KernelKind::Splatt,
    KernelKind::Mb,
    KernelKind::RankB,
    KernelKind::MbRankB,
];

/// `(tensor, mode, hash at grid 1x1x1, hash at grid 3x2x2)`: FNV-1a of the
/// output's f64 bits. At the recording commit `splatt` and `rankb` agreed
/// on the first hash, `mb` and `mbrankb` on the second (the accumulator and
/// register loops add each column in the same order), serial and `fixed(3)`
/// alike — 48 runs, 12 distinct outputs.
const GOLDEN: [(&str, usize, u64, u64); 6] = [
    ("clustered", 0, 0xe981bd5668a3fef0, 0x79d59793b4df403d),
    ("clustered", 1, 0xa4603b51263d48c2, 0x61a5e286f3cb7b96),
    ("clustered", 2, 0xc3829f5878d13a5b, 0x2deacc6b5e2269a2),
    ("powerlaw", 0, 0xf9dec0573e97b982, 0x47a4f2319fb348a0),
    ("powerlaw", 1, 0x42bfd5f29c828348, 0x26dc2a55a2d122bc),
    ("powerlaw", 2, 0x3e83851e4d5f39d3, 0x2695c4d7c957d111),
];

/// `(tensor, mode, hash)` of COO at rank 37, serial and `fixed(3)` alike.
const GOLDEN_COO: [(&str, usize, u64); 6] = [
    ("clustered", 0, 0xe98c62ce5dc2bb44),
    ("clustered", 1, 0x62228d3a2e06fa0f),
    ("clustered", 2, 0x15b63e7f0f34dd63),
    ("powerlaw", 0, 0x6a82bd4ae94cf83d),
    ("powerlaw", 1, 0xe65cec3da04999ac),
    ("powerlaw", 2, 0x76195ecad1da6f69),
];

/// [`GOLDEN`]'s columns at rank 64, for `splatt` and `mb` only.
const GOLDEN_RANK64: [(&str, usize, u64, u64); 6] = [
    ("clustered", 0, 0xb2a26376fbdd2239, 0x38204370e1ccb45b),
    ("clustered", 1, 0x600f8842341f86ad, 0xb45c09e2c6c5aeed),
    ("clustered", 2, 0xb902aa7ca077900e, 0x727d88012c4eb2e2),
    ("powerlaw", 0, 0x53b416247701f733, 0x3ead3ca9c1c9ce74),
    ("powerlaw", 1, 0xa603687a4ea20d78, 0x095bde677d7a14b6),
    ("powerlaw", 2, 0x37a77a8b48ea8022, 0xb0cb3b9696d21501),
];

/// `(tensor, mode, bcoo hash, csf hash)` at rank 37, strip 16, grid
/// `[3,2,2]`, serial and `fixed(3)` alike.
const GOLDEN_BCOO_CSF: [(&str, usize, u64, u64); 6] = [
    ("clustered", 0, 0x79d59793b4df403d, 0x0a7038090e9b3c91),
    ("clustered", 1, 0x61a5e286f3cb7b96, 0x400d2921c7c8d1ac),
    ("clustered", 2, 0x2deacc6b5e2269a2, 0xba7ad5fa74bc344f),
    ("powerlaw", 0, 0x47a4f2319fb348a0, 0x5b794198fb636d69),
    ("powerlaw", 1, 0x26dc2a55a2d122bc, 0xb5fbaf9909ad9658),
    ("powerlaw", 2, 0x2695c4d7c957d111, 0x8b7b78c689e521fa),
];

/// Factors with full-width mantissas (integer hash → exact conversion, no
/// libm), so a reordered sum changes the low bits of nearly every output.
fn factors(dims: [usize; 3], rank: usize) -> Vec<DenseMatrix> {
    (0..3)
        .map(|m| {
            DenseMatrix::from_fn(dims[m], rank, |r, c| {
                let mut h = 0x6a09e667f3bcc908 ^ ((r as u64) << 32) ^ ((c as u64) << 8) ^ m as u64;
                h ^= h >> 33;
                h = h.wrapping_mul(0xff51afd7ed558ccd);
                h ^= h >> 33;
                (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64) - 0.5
            })
        })
        .collect()
}

fn fnv1a(out: &DenseMatrix) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for v in out.as_slice() {
        for byte in v.to_bits().to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn tensors() -> [(&'static str, CooTensor); 2] {
    [
        (
            "clustered",
            clustered_tensor(&ClusteredConfig::new([70, 50, 40], 4_000), 20180521),
        ),
        (
            "powerlaw",
            powerlaw_tensor(&PowerLawConfig::new([90, 45, 20], 4_000), 20180522),
        ),
    ]
}

/// Runs `kind` on `x` under serial and `fixed(3)` and holds both outputs to
/// the recorded hash.
fn assert_bits(tname: &str, x: &CooTensor, kind: KernelKind, mode: usize, rank: usize, want: u64) {
    let fs_owned = factors(x.dims(), rank);
    let fs = [&fs_owned[0], &fs_owned[1], &fs_owned[2]];
    for exec in [ExecPolicy::serial(), ExecPolicy::fixed(3)] {
        let threads = exec.threads;
        let cfg = KernelConfig {
            grid: [3, 2, 2],
            strip_width: 16,
            exec,
        };
        let k = build_kernel(kind, x, mode, &cfg);
        let mut out = DenseMatrix::zeros(x.dims()[mode], rank);
        k.mttkrp(&fs, &mut out);
        let got = fnv1a(&out);
        assert!(
            got == want,
            "{tname} {kind:?} mode {mode} rank {rank} {threads:?}: output bits hash to \
             {got:#018x}, recorded {want:#018x}"
        );
    }
}

#[test]
fn fibered_kernels_reproduce_the_recorded_bits() {
    let mut rows = GOLDEN.iter();
    for (tname, x) in &tensors() {
        for mode in 0..3 {
            let &(gt, gm, unblocked, blocked) = rows.next().expect("one row per tensor and mode");
            assert_eq!((gt, gm), (*tname, mode), "table order");
            for kind in KINDS {
                let want = match kind {
                    KernelKind::Splatt | KernelKind::RankB => unblocked,
                    _ => blocked,
                };
                assert_bits(tname, x, kind, mode, RANK, want);
            }
        }
    }
}

#[test]
fn unblocked_loops_reproduce_the_bits_recorded_before_look_ahead() {
    let mut rows = GOLDEN_COO.iter().zip(&GOLDEN_RANK64);
    for (tname, x) in &tensors() {
        for mode in 0..3 {
            let (&(ct, cm, coo), &(gt, gm, splatt, mb)) =
                rows.next().expect("one row per tensor and mode");
            assert_eq!(
                (ct, cm, gt, gm),
                (*tname, mode, *tname, mode),
                "table order"
            );
            assert_bits(tname, x, KernelKind::Coo, mode, RANK, coo);
            assert_bits(tname, x, KernelKind::Splatt, mode, 64, splatt);
            assert_bits(tname, x, KernelKind::Mb, mode, 64, mb);
        }
    }
}

#[test]
fn bcoo_and_csf_reproduce_the_bits_recorded_before_the_one_launch() {
    let mut rows = GOLDEN_BCOO_CSF.iter();
    for (tname, x) in &tensors() {
        for mode in 0..3 {
            let &(gt, gm, bcoo, csf) = rows.next().expect("one row per tensor and mode");
            assert_eq!((gt, gm), (*tname, mode), "table order");
            assert_bits(tname, x, KernelKind::Bcoo, mode, RANK, bcoo);
            assert_bits(tname, x, KernelKind::Csf, mode, RANK, csf);
        }
    }
}
