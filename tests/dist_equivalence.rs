//! Distributed-vs-sequential equivalence: for arbitrary grids (3D and 4D),
//! the reassembled distributed MTTKRP equals the sequential result; the
//! executed exchange moves exactly the bytes its collective list prices;
//! and CP-ALS over the exchanged kernels follows the single-rank run.

use proptest::prelude::*;
use tenblock::core::block::BlockedKernel;
use tenblock::core::mttkrp::dense_mttkrp;
use tenblock::core::{KernelKind, MttkrpKernel};
use tenblock::cpd::{CpAls, CpAlsOptions};
use tenblock::dist::{
    best_3d, best_4d, run_4d, DistConfig, ExchangeKernel, LocalKernel, Partition3D, Partition4D,
};
use tenblock::tensor::gen::{uniform_tensor, Dataset};
use tenblock::tensor::DenseMatrix;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn distributed_3d_equals_sequential(
        q in 1usize..4,
        r in 1usize..4,
        s in 1usize..4,
        seed in 0u64..1000,
        rank in 1usize..10,
    ) {
        let x = uniform_tensor([14, 13, 12], 250, seed);
        let part = Partition3D::new(&x, [q, r, s], seed);
        let rel = part.relabeled();
        let factors: Vec<DenseMatrix> = rel
            .dims()
            .iter()
            .map(|&d| DenseMatrix::from_fn(d, rank, |i, c| ((i * 3 + c + seed as usize) % 7) as f64 * 0.3))
            .collect();
        let fs: [&DenseMatrix; 3] = [&factors[0], &factors[1], &factors[2]];
        let expect = dense_mttkrp(&rel, &fs, 0);

        let mut sum = DenseMatrix::zeros(14, rank);
        for rk in 0..part.n_ranks() {
            let local = part.local(rk);
            if local.nnz() == 0 { continue; }
            let k = BlockedKernel::new(local, 0, None, None);
            let mut out = DenseMatrix::zeros(14, rank);
            k.mttkrp(&fs, &mut out);
            for (a, b) in sum.as_mut_slice().iter_mut().zip(out.as_slice()) {
                *a += b;
            }
        }
        prop_assert!(expect.approx_eq(&sum, 1e-9));
    }

    #[test]
    fn distributed_4d_strips_cover_rank(
        t in 1usize..5,
        rank in 5usize..24,
        seed in 0u64..100,
    ) {
        let x = uniform_tensor([10, 10, 10], 150, seed);
        let p = Partition4D::new(&x, [2, 1, 1], t, rank, seed);
        let mut covered = vec![false; rank];
        for g in 0..p.t() {
            for c in p.strip_cols(g) {
                prop_assert!(!covered[c], "column {c} covered twice");
                covered[c] = true;
            }
        }
        prop_assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn partition_preserves_every_nonzero(
        q in 1usize..5,
        r in 1usize..5,
        s in 1usize..5,
        seed in 0u64..1000,
    ) {
        let x = uniform_tensor([20, 18, 16], 300, seed);
        let part = Partition3D::new(&x, [q, r, s], seed ^ 0xabc);
        prop_assert_eq!(part.rank_nnz().iter().sum::<usize>(), 300);
        let mut vals: Vec<u64> = x.entries().iter().map(|e| e.val.to_bits()).collect();
        let mut got: Vec<u64> = (0..part.n_ranks())
            .flat_map(|rk| part.local(rk).entries().iter().map(|e| e.val.to_bits()))
            .collect();
        vals.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(vals, got);
    }
}

/// Table III's priced communication and chosen grids, recorded before the
/// exchange was written once for pricing and execution: every
/// `run_4d(..).comm_secs` and every `best_3d` / `best_4d` grid must stay.
#[test]
fn table3_prices_and_grids_are_pinned() {
    type Cell = ([usize; 3], usize, f64);
    let nell2: [Cell; 7] = [
        ([1, 1, 1], 1, 0.0),
        ([2, 2, 2], 1, 4.9959999999999996e-5),
        ([4, 1, 2], 1, 5.263733333333334e-5),
        ([2, 2, 1], 2, 4.3009333333333335e-5),
        ([1, 2, 2], 2, 4.03e-5),
        ([2, 1, 2], 4, 2.7912e-5),
        ([4, 2, 1], 4, 3.319466666666666e-5),
    ];
    let netflix: [Cell; 7] = [
        ([1, 1, 1], 1, 0.0),
        ([2, 2, 2], 1, 0.000101576),
        ([4, 1, 2], 1, 6.909599999999999e-5),
        ([2, 2, 1], 2, 9.0092e-5),
        ([1, 2, 2], 2, 0.00019173466666666666),
        ([2, 1, 2], 4, 0.00010660533333333333),
        ([4, 2, 1], 4, 6.196266666666666e-5),
    ];
    type Grids = [(usize, [usize; 4], [usize; 4]); 2];
    let nell2_grids: Grids = [
        (8, [2, 1, 4, 1], [2, 1, 1, 4]),
        (32, [2, 2, 8, 1], [4, 1, 2, 4]),
    ];
    let netflix_grids: Grids = [
        (8, [8, 1, 1, 1], [8, 1, 1, 1]),
        (32, [16, 2, 1, 1], [16, 1, 1, 2]),
    ];
    let cases = [
        (
            Dataset::Nell2.generate_with([600, 450, 1_450], 20_000, 7),
            nell2,
            nell2_grids,
        ),
        (
            Dataset::Netflix.generate_with([4_800, 900, 8], 20_000, 7),
            netflix,
            netflix_grids,
        ),
    ];
    let cfg = DistConfig {
        reps: 1,
        ..DistConfig::new(64)
    };
    for (x, cells, grids) in &cases {
        for &(grid, t, want) in cells {
            let got = run_4d(x, &cfg, grid, t).comm_secs;
            assert!(
                (got - want).abs() <= 1e-12 * want.abs(),
                "{grid:?} t={t}: comm {got:e}, recorded {want:e}"
            );
        }
        for &(p, g3, g4) in grids {
            assert_eq!(best_3d(x, &cfg, p).grid, g3, "best_3d at p={p}");
            assert_eq!(best_4d(x, &cfg, p).grid, g4, "best_4d at p={p}");
        }
    }
}

/// The executed exchange's grids: `(3D grid, t)`, 3D first.
const GRIDS: [([usize; 3], usize); 6] = [
    ([2, 2, 1], 1),
    ([3, 1, 2], 1),
    ([2, 2, 2], 1),
    ([2, 1, 1], 2),
    ([1, 2, 1], 3),
    ([2, 2, 1], 2),
];

/// Each local kernel with the in-memory kind that runs the same loop.
const LOCALS: [(LocalKernel, KernelKind); 2] = [
    (LocalKernel::Baseline, KernelKind::Splatt),
    (LocalKernel::Blocked, KernelKind::RankB),
];

/// The exchanged kernel of every mode, for `CpAls::with_kernels`.
fn exchanged(part: &Partition4D, local: LocalKernel) -> Vec<Box<dyn MttkrpKernel>> {
    (0..3)
        .map(|m| Box::new(ExchangeKernel::new(part, m, local)) as Box<dyn MttkrpKernel>)
        .collect()
}

#[test]
fn executed_exchange_matches_dense_and_moves_the_listed_bytes() {
    let x = uniform_tensor([16, 15, 14], 450, 12);
    let rank = 8;
    for (grid, t) in GRIDS {
        let part = Partition4D::new(&x, grid, t, rank, 21);
        let rel = part.part3().relabeled();
        let factors: Vec<DenseMatrix> = rel
            .dims()
            .iter()
            .map(|&d| {
                DenseMatrix::from_fn(d, rank, |i, c| ((i * 5 + c * 3) % 11) as f64 * 0.1 - 0.4)
            })
            .collect();
        let fs: [&DenseMatrix; 3] = [&factors[0], &factors[1], &factors[2]];
        for (local, _) in LOCALS {
            for mode in 0..3 {
                let kernel = ExchangeKernel::new(&part, mode, local);
                let expect = dense_mttkrp(&rel, &fs, mode);
                let mut out = DenseMatrix::zeros(rel.dims()[mode], rank);
                let bytes = kernel.run(&fs, &mut out, false).expect("unchecked");
                assert!(
                    expect.approx_eq(&out, 1e-9),
                    "{grid:?} t={t} {local:?} mode {mode}: max diff {}",
                    expect.max_abs_diff(&out)
                );
                assert_eq!(
                    bytes,
                    kernel.exchange().wire_bytes(),
                    "{grid:?} t={t} mode {mode}"
                );
                assert!(bytes > 0, "{grid:?} t={t}: more than one rank exchanges");
                let mut checked = DenseMatrix::zeros(rel.dims()[mode], rank);
                kernel
                    .mttkrp_checked(&fs, &mut checked)
                    .expect("every local kernel passes its check");
                assert_eq!(checked.as_slice(), out.as_slice());
            }
        }
    }
}

/// Distributed CP-ALS is `tenblock_cpd`'s loop over the exchanged kernels:
/// it follows the single-rank run of the relabeled tensor, per iteration,
/// and at one rank bit for bit.
#[test]
fn distributed_cp_als_follows_the_single_rank_trajectory() {
    let x = uniform_tensor([15, 12, 10], 400, 6);
    let rank = 6;
    for (grid, t) in [([1, 1, 1], 1)].into_iter().chain(GRIDS) {
        let part = Partition4D::new(&x, grid, t, rank, 11);
        let rel = part.part3().relabeled();
        for (local, kind) in LOCALS {
            let mut opts = CpAlsOptions::new(rank);
            opts.max_iters = 6;
            opts.tol = 0.0;
            opts.kernel = kind;
            opts.kernel_cfg.strip_width = usize::MAX;
            let single = CpAls::new(&rel, opts.clone()).run(&rel);
            let dist = CpAls::with_kernels(rel.dims(), exchanged(&part, local), opts).run(&rel);
            let what = format!("{grid:?} t={t} {local:?}");
            assert_eq!(dist.fit_history.len(), 6, "{what}");
            if (grid, t) == ([1, 1, 1], 1) {
                let bits = |h: &[f64]| h.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&dist.fit_history), bits(&single.fit_history), "{what}");
            }
            for (d, s) in dist.fit_history.iter().zip(&single.fit_history) {
                assert!((d - s).abs() < 1e-8, "{what}: fit {d} vs {s}");
            }
            for (d, s) in dist.model.factors.iter().zip(&single.model.factors) {
                assert!(
                    s.approx_eq(d, 1e-8),
                    "{what}: max diff {}",
                    s.max_abs_diff(d)
                );
            }
        }
    }
}
