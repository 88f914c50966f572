//! Distributed-vs-sequential equivalence: for arbitrary grids (3D and 4D),
//! the reassembled distributed MTTKRP equals the sequential result.

use proptest::prelude::*;
use tenblock::core::block::BlockedKernel;
use tenblock::core::mttkrp::dense_mttkrp;
use tenblock::core::MttkrpKernel;
use tenblock::dist::{Partition3D, Partition4D};
use tenblock::tensor::gen::uniform_tensor;
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
