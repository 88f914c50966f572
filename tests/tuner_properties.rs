//! Property tests for both tuners: whatever configuration they select must
//! be buildable and numerically equivalent to the baseline.

use proptest::prelude::*;
use tenblock::analysis::{tune_by_model, ModelTuneOptions};
use tenblock::core::block::BlockedKernel;
use tenblock::core::{tune, MttkrpKernel, TuneOptions};
use tenblock::tensor::coo::perm_for_mode;
use tenblock::tensor::gen::{clustered_tensor, ClusteredConfig};
use tenblock::tensor::DenseMatrix;

fn check_config_valid_and_correct(
    x: &tenblock::tensor::CooTensor,
    mode: usize,
    grid: [usize; 3],
    strip: usize,
    rank: usize,
) -> Result<(), TestCaseError> {
    let dims = x.dims();
    let perm = perm_for_mode(mode);
    for ax in 0..3 {
        prop_assert!(grid[ax] >= 1);
        prop_assert!(grid[ax] <= dims[perm[ax]].max(1), "grid exceeds axis");
    }
    prop_assert!(strip >= 1);

    let factors: Vec<DenseMatrix> = dims
        .iter()
        .map(|&d| DenseMatrix::from_fn(d, rank, |r, c| ((r * 3 + c) % 7) as f64 * 0.2))
        .collect();
    let fs: [&DenseMatrix; 3] = [&factors[0], &factors[1], &factors[2]];
    let base = BlockedKernel::new(x, mode, None, None);
    let tuned = BlockedKernel::new(x, mode, Some(grid), Some(strip));
    let mut a = DenseMatrix::zeros(dims[mode], rank);
    let mut b = DenseMatrix::zeros(dims[mode], rank);
    base.mttkrp(&fs, &mut a);
    tuned.mttkrp(&fs, &mut b);
    prop_assert!(a.approx_eq(&b, 1e-9), "tuned kernel wrong");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn timing_tuner_selects_valid_configs(
        seed in 0u64..1000,
        mode in 0usize..3,
        rank_pow in 2u32..6,
    ) {
        let rank = 1usize << rank_pow; // 4..32
        let cfg = ClusteredConfig::new([120, 150, 90], 6_000);
        let x = clustered_tensor(&cfg, seed);
        let mut opts = TuneOptions::new(rank);
        opts.reps = 1;
        opts.max_blocks = 8;
        opts.seed = seed;
        let r = tune(&x, mode, &opts);
        prop_assert!(!r.history.is_empty());
        prop_assert!(r.strip_width <= rank.max(1));
        check_config_valid_and_correct(&x, mode, r.grid, r.strip_width, rank)?;
    }

    #[test]
    fn model_tuner_selects_valid_configs(
        seed in 0u64..1000,
        mode in 0usize..3,
    ) {
        let rank = 16;
        let cfg = ClusteredConfig::new([200, 180, 160], 4_000);
        let x = clustered_tensor(&cfg, seed);
        let opts = ModelTuneOptions { rank, max_blocks: 8, sample_nnz: 2_000 };
        let r = tune_by_model(&x, mode, &opts);
        prop_assert!(!r.history.is_empty());
        // predicted traffic is positive and the selection is the argmin of
        // everything it tried along the greedy path
        prop_assert!(r.memory_bytes > 0);
        for s in &r.history {
            if s.grid == r.grid && s.strip_width == r.strip_width {
                prop_assert_eq!(s.memory_bytes, r.memory_bytes);
            }
        }
        check_config_valid_and_correct(&x, mode, r.grid, r.strip_width, rank)?;
    }
}
