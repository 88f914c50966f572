//! Property tests for the out-of-core path: a [`StreamingMttkrp`] fed
//! from an on-disk (spilled) tile store must match the in-memory MB and
//! BCOO kernels **bit for bit** — same values, same bits — on clustered
//! and hyper-sparse tensors, including tile budgets small enough to force
//! multi-tile streaming. Streamed CP-ALS must track the in-memory solver
//! to roundoff.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use tenblock::core::block::BlockedKernel;
use tenblock::core::mttkrp::BcooKernel;
use tenblock::core::tune::grid_for_tile_budget;
use tenblock::core::{KernelKind, MttkrpKernel, StreamingMttkrp};
use tenblock::cpd::{CpAls, CpAlsOptions, CpAlsStream};
use tenblock::tensor::coo::perm_for_mode;
use tenblock::tensor::gen::{clustered_tensor, ClusteredConfig};
use tenblock::tensor::{CooTensor, DenseMatrix, Entry, Idx, TileStore, NMODES};

/// A fresh path under the system temp dir; unique per call so proptest
/// cases never collide.
fn fresh_store_path(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "tenblock_stream_eq_{}_{tag}_{}.tnsb",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Deterministic factor matrices (shared by streamed and in-memory runs).
fn factors_for(x: &CooTensor, rank: usize, seed: u64) -> Vec<DenseMatrix> {
    x.dims()
        .iter()
        .enumerate()
        .map(|(m, &d)| {
            DenseMatrix::from_fn(d, rank, |r, c| {
                let mut h = seed ^ ((r as u64) << 17) ^ ((c as u64) << 5) ^ (m as u64);
                h ^= h >> 31;
                h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                h ^= h >> 29;
                (h % 1000) as f64 / 500.0 - 1.0
            })
        })
        .collect()
}

/// Strategy: a clustered tensor (dense boxes on a sparse background — the
/// profile the BCOO micro-kernel targets).
fn arb_clustered() -> impl Strategy<Value = CooTensor> {
    (
        12usize..40,
        12usize..36,
        12usize..30,
        200usize..1200,
        0u64..1000,
    )
        .prop_map(|(d0, d1, d2, nnz, seed)| {
            clustered_tensor(&ClusteredConfig::new([d0, d1, d2], nnz), seed)
        })
}

/// Strategy: a hyper-sparse tensor — one mode far longer than its nonzero
/// count, entries clustered at the far end (worst case for any blocking
/// that assumes occupancy).
fn arb_hyper_sparse() -> impl Strategy<Value = CooTensor> {
    (64usize..1024, 2usize..6, 2usize..6).prop_flat_map(|(long, d1, d2)| {
        let entry = (0..long as u32, 0..d1 as u32, 0..d2 as u32, -2.0f64..2.0);
        (proptest::collection::vec(entry, 1..40), 0u8..2).prop_map(move |(raw, tail)| {
            let tail = tail == 1;
            let entries: Vec<Entry> = raw
                .iter()
                .enumerate()
                .map(|(n, &(i, j, k, v))| Entry {
                    // Half the entries pinned to the far end of the
                    // long mode when `tail` is set.
                    idx: [
                        if tail && n % 2 == 0 {
                            (long - 1 - (n % 8).min(long - 1)) as Idx
                        } else {
                            i
                        },
                        j,
                        k,
                    ],
                    val: v,
                })
                .collect();
            CooTensor::from_entries([long, d1, d2], entries)
        })
    })
}

/// Spills `x` to an on-disk tile store whose grid comes from `budget`,
/// then checks the streamed MTTKRP against BCOO (strips 0 and 16) and MB
/// (whole-rank strips) for every mode, bit for bit. Returns the tile
/// count so callers can assert the budget actually forced multiple tiles.
fn assert_streamed_matches_in_memory(x: &CooTensor, budget: u64) -> usize {
    let grid = grid_for_tile_budget(x.dims(), x.nnz(), budget);
    let path = fresh_store_path("mttkrp");
    let store = TileStore::create_from_coo(x, grid, &path).unwrap();
    let rank = 17; // deliberately not a multiple of the register block
    let factors = factors_for(x, rank, 0xace5);
    let fs: [&DenseMatrix; NMODES] = [&factors[0], &factors[1], &factors[2]];

    for mode in 0..NMODES {
        let perm = perm_for_mode(mode);
        let grid_kernel = [grid[perm[0]], grid[perm[1]], grid[perm[2]]];
        for strip in [0usize, 16] {
            let k = BcooKernel::new(x, mode, grid_kernel, strip);
            let mut expect = DenseMatrix::zeros(x.dims()[mode], rank);
            k.mttkrp(&fs, &mut expect);
            let mut got = DenseMatrix::zeros(x.dims()[mode], rank);
            StreamingMttkrp::new(&store, mode, strip)
                .run(&fs, &mut got)
                .unwrap();
            for (n, (a, b)) in expect.as_slice().iter().zip(got.as_slice()).enumerate() {
                assert!(
                    a.to_bits() == b.to_bits(),
                    "BCOO mode {mode} strip {strip} element {n}: {a:?} vs {b:?}"
                );
            }
        }
        let k = BlockedKernel::new(x, mode, Some(grid_kernel), None);
        let mut expect = DenseMatrix::zeros(x.dims()[mode], rank);
        k.mttkrp(&fs, &mut expect);
        let mut got = DenseMatrix::zeros(x.dims()[mode], rank);
        StreamingMttkrp::new(&store, mode, 0)
            .run(&fs, &mut got)
            .unwrap();
        for (n, (a, b)) in expect.as_slice().iter().zip(got.as_slice()).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "MB mode {mode} element {n}: {a:?} vs {b:?}"
            );
        }
    }
    let tiles = store.n_tiles();
    let _ = std::fs::remove_file(&path);
    tiles
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn clustered_streams_bit_for_bit_through_a_spilled_store(x in arb_clustered()) {
        // A budget far below the tensor's in-memory size: every MTTKRP
        // must take multiple tile passes.
        let tiles = assert_streamed_matches_in_memory(&x, 2048);
        prop_assert!(tiles > 1, "budget failed to force multiple tiles");
    }

    #[test]
    fn hyper_sparse_streams_bit_for_bit_through_a_spilled_store(x in arb_hyper_sparse()) {
        // Hyper-sparse tensors may legitimately fit one tile; correctness
        // is the property, multi-tile is exercised by the clustered case.
        assert_streamed_matches_in_memory(&x, 512);
    }

    #[test]
    fn streamed_als_over_a_spilled_store_matches_in_memory(
        x in arb_clustered(),
        rank in 2usize..5,
    ) {
        let mut opts = CpAlsOptions::new(rank);
        opts.max_iters = 4;
        opts.tol = 0.0;
        opts.kernel = KernelKind::Bcoo;
        opts.kernel_cfg.grid = [2, 2, 2];
        opts.kernel_cfg.strip_width = 16;
        let mem = CpAls::new(&x, opts.clone()).run(&x);

        let path = fresh_store_path("als");
        let store = TileStore::create_from_coo(&x, [2, 2, 2], &path).unwrap();
        let solver = CpAlsStream::new(&store, opts);
        let streamed = solver.run().unwrap();
        let _ = std::fs::remove_file(&path);

        prop_assert_eq!(streamed.iterations, mem.iterations);
        for (s, m) in streamed.fit_history.iter().zip(&mem.fit_history) {
            prop_assert!(
                (s - m).abs() < 1e-9,
                "fit diverged: streamed {} vs in-memory {}", s, m
            );
        }
        // The driver really streamed: one norm pass plus three MTTKRP
        // passes per iteration over all eight tiles.
        let snap = solver.stats().snapshot();
        let passes = 1 + NMODES as u64 * streamed.iterations as u64;
        prop_assert_eq!(snap.tiles_loaded, passes * store.n_tiles() as u64);
    }
}
