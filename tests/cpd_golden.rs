//! Golden-output test: CP-ALS results, bit for bit.
//!
//! `kernel_golden` pins MTTKRP's output bits and `cpd_end_to_end` compares
//! decompositions to 1e-9; this table pins the whole ALS loop — MTTKRP,
//! Hadamard of grams, Cholesky row solve, gram, column scale and the fit —
//! on one tensor. It was recorded at the commit before the row solve and the
//! gram ran rows across SIMD lanes, so it pins "the same bits as the scalar
//! per-row sweeps produced", on every ISA the test host dispatches to.
//!
//! The tensor's dims `[1037, 203, 13]` are not multiples of the 4- or 8-row
//! panels, and mode 2 has fewer rows than the rank, so every solve ends in
//! leftover rows and the rank-64 run solves a system no panel fills. Ranks 16,
//! 17 and 64 cover an even system, an odd one (the sweeps' last pivot) and
//! the benchmark's rank; 17 and 64 leave partial 16-wide gram tiles or none.
//! Serial and `fixed(3)` must agree with the same row.
//!
//! A change that *means* to alter summation order re-records the table from
//! the failure message, which prints every row.

use tenblock::core::{ExecPolicy, KernelConfig, KernelKind};
use tenblock::cpd::{CpAls, CpAlsOptions, CpAlsResult};
use tenblock::tensor::gen::{powerlaw_tensor, PowerLawConfig};
use tenblock::tensor::CooTensor;

const ITERS: usize = 4;

/// `(rank, fit_history bits, FNV-1a of λ's bits, FNV-1a of the factors'
/// bits)`, serial and `fixed(3)` alike.
const GOLDEN: [(usize, [u64; ITERS], u64, u64); 3] = [
    (
        16,
        [
            0x3fd46fcde1d08174,
            0x3fd6811e73ad15f2,
            0x3fd70de6a8c08ab8,
            0x3fd75678cf986364,
        ],
        0xde508768cfc1cc01,
        0x155510d56ef39156,
    ),
    (
        17,
        [
            0x3fd470c0f6c1c5dc,
            0x3fd674857cfa89e8,
            0x3fd708a9bea8fc40,
            0x3fd76b702ff77936,
        ],
        0x16ce4f182479c6cd,
        0x2cef3f9a43b39d57,
    ),
    (
        64,
        [
            0x3fd688db7a170b8c,
            0x3fdae70a86e7e064,
            0x3fdc3e1550ec4184,
            0x3fdce2118fe1653e,
        ],
        0x598eb59992953582,
        0x62190b64f5888006,
    ),
];

fn fnv1a(values: &[f64]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn tensor() -> CooTensor {
    powerlaw_tensor(&PowerLawConfig::new([1037, 203, 13], 20_000), 20180524)
}

fn run(x: &CooTensor, rank: usize, exec: ExecPolicy) -> CpAlsResult {
    let mut opts = CpAlsOptions::new(rank);
    opts.max_iters = ITERS;
    opts.tol = 0.0;
    opts.kernel = KernelKind::Splatt;
    opts.kernel_cfg = KernelConfig::default().with_exec(exec);
    CpAls::new(x, opts).run(x)
}

/// One table row from a result.
fn row(rank: usize, r: &CpAlsResult) -> (usize, [u64; ITERS], u64, u64) {
    let mut fits = [0; ITERS];
    assert_eq!(r.fit_history.len(), ITERS, "tol 0 runs every iteration");
    for (f, v) in fits.iter_mut().zip(&r.fit_history) {
        *f = v.to_bits();
    }
    let factors: Vec<f64> = (r.model.factors.iter())
        .flat_map(|f| f.as_slice().iter().copied())
        .collect();
    (rank, fits, fnv1a(&r.model.lambda), fnv1a(&factors))
}

#[test]
fn cp_als_keeps_its_recorded_bits() {
    let x = tensor();
    for (label, exec) in [
        ("serial", ExecPolicy::serial()),
        ("fixed(3)", ExecPolicy::fixed(3)),
    ] {
        let got: Vec<_> = GOLDEN
            .iter()
            .map(|&(rank, ..)| row(rank, &run(&x, rank, exec.clone())))
            .collect();
        assert!(
            got == GOLDEN,
            "{label}: CP-ALS bits moved; this run's table is\n{}",
            got.iter()
                .map(|(rank, fits, lambda, factors)| {
                    let fits: Vec<String> = fits.iter().map(|b| format!("{b:#018x}")).collect();
                    format!(
                        "    ({rank}, [{}], {lambda:#018x}, {factors:#018x}),",
                        fits.join(", ")
                    )
                })
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
