//! The fiber sort against `slice::sort_by_key`: same order for every
//! extent class, and — both being stable — the same order of records whose
//! keys tie. `CooTensor` coordinates are unique, so ties never arise from a
//! tensor; the tiles of an untrusted `.tnsb` store may repeat a coordinate,
//! and then the repeats must stream in the order they were stored.
//!
//! Then the layouts built on it: a grid derived from the unblocked layout
//! (`BlockGrid::refine`) against the sort of the COO tensor into the same
//! cells (`BlockGrid::new`), block for block and in kernel output bits.

use proptest::prelude::*;
use std::sync::Arc;
use tenblock::core::block::{BlockGrid, BlockedKernel};
use tenblock::core::{
    build_layout, try_build_kernel, KernelConfig, KernelError, KernelKind, MttkrpKernel,
};
use tenblock::fuzz::{arb_case, FuzzRng};
use tenblock::tensor::cell_grid::{uniform_bounds, CellGrid};
use tenblock::tensor::coo::perm_for_mode;
use tenblock::tensor::fiber_sort::{fiber_key, sort_into_cells, FiberCols, FiberSorter, MAX_RUNS};
use tenblock::tensor::gen::uniform_tensor;
use tenblock::tensor::io_bin::BinError;
use tenblock::tensor::{CooTensor, DenseMatrix, Entry};

/// The extent classes around the 16-bit digit boundary, and the largest.
const EXTENTS: [u64; 7] = [1, 2, 65_535, 65_536, 65_537, 1 << 20, u32::MAX as u64];

/// A record: `[slice, j, k]` kernel coordinate plus its input position.
type Rec = ([u32; 3], usize);

fn key(r: &Rec) -> [u64; 3] {
    fiber_key(r.0)
}

/// `[slice, k, j]` key extents of the kernel-axis extents `[slice, j, k]`.
fn key_extents(e: [u64; 3]) -> [u64; 3] {
    [e[0], e[2], e[1]]
}

fn sorted_by_ranges(recs: &[Rec], extents: [u64; 3]) -> Vec<Rec> {
    FiberSorter::new().sort_by_ranges(recs.len(), |i| recs[i], key_extents(extents), key)
}

fn reference(recs: &[Rec]) -> Vec<Rec> {
    let mut v = recs.to_vec();
    v.sort_by_key(key);
    v
}

/// Coordinates below `extents`, drawn either over the whole extent or from
/// a handful of values (so that keys tie), tagged with their position.
fn arb_recs(max_len: usize) -> impl Strategy<Value = ([u64; 3], Vec<Rec>)> {
    (0usize..7, 0usize..7, 0usize..7, 0u64..2).prop_flat_map(move |(a, b, c, dup)| {
        let extents = [EXTENTS[a], EXTENTS[b], EXTENTS[c]];
        let pool = |e: u64| if dup == 1 { e.min(3) } else { e };
        let coord = (
            0..pool(extents[0]),
            0..pool(extents[1]),
            0..pool(extents[2]),
            0u64..2,
        )
            .prop_map(move |(x, y, z, high)| {
                // Spread the few distinct values to both ends of the extent.
                let at = |v: u64, e: u64| if high == 1 { e - 1 - v } else { v } as u32;
                [at(x, extents[0]), at(y, extents[1]), at(z, extents[2])]
            });
        proptest::collection::vec(coord, 0..max_len).prop_map(move |cs| {
            let recs = cs.into_iter().enumerate().map(|(n, c)| (c, n)).collect();
            (extents, recs)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sort_by_ranges_is_the_stable_sort_by_fiber_key((extents, recs) in arb_recs(300)) {
        prop_assert_eq!(sorted_by_ranges(&recs, extents), reference(&recs));
    }

    #[test]
    fn presorted_and_reversed_inputs_sort_the_same((extents, recs) in arb_recs(200)) {
        // Whatever order the input is already in — the target's, another
        // mode's, or the reverse — is detected on the records, and the
        // passes it saves must not change the result.
        let by = |order: [usize; 3]| {
            let mut v = recs.clone();
            v.sort_by_key(|r| [r.0[order[0]], r.0[order[1]], r.0[order[2]]]);
            v
        };
        for order in [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            let input = by(order);
            prop_assert_eq!(sorted_by_ranges(&input, extents), reference(&input));
            let reversed: Vec<Rec> = input.into_iter().rev().collect();
            prop_assert_eq!(sorted_by_ranges(&reversed, extents), reference(&reversed));
        }
    }

    #[test]
    fn sort_tile_permutes_and_sorts_like_the_reference(
        (extents, recs) in arb_recs(300),
        mode in 0usize..3,
    ) {
        // `recs` are in original axes here; the tile sort moves them into
        // the kernel axes of `perm`.
        let perm = [mode, (mode + 1) % 3, (mode + 2) % 3];
        let spans = [
            extents[perm[0]] as usize,
            extents[perm[1]] as usize,
            extents[perm[2]] as usize,
        ];
        let mut locals: Vec<[u32; 3]> = recs.iter().map(|r| r.0).collect();
        let mut vals: Vec<f64> = recs.iter().map(|r| r.1 as f64).collect();
        let mut out = FiberCols::default();
        FiberSorter::new()
            .sort_tile(&mut locals, &mut vals, perm, spans, &mut out)
            .unwrap();
        let to_kernel = |l: [u32; 3]| [l[perm[0]], l[perm[1]], l[perm[2]]];
        let mut expect: Vec<Rec> = recs.iter().map(|r| (to_kernel(r.0), r.1)).collect();
        expect.sort_by_key(key);
        let got: Vec<Rec> = out.offs.iter().zip(&out.vals).map(|(&o, &v)| (o, v as usize)).collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn sort_into_cells_groups_by_cell_then_fiber_key(
        (extents, recs) in arb_recs(200),
        ga in 1usize..70_000, gb in 1usize..300, gc in 1usize..300,
    ) {
        // Grids from 1 cell to far beyond one histogram (70 000·300·300).
        let grid = [
            ga.min(extents[0] as usize),
            gb.min(extents[1] as usize),
            gc.min(extents[2] as usize),
        ];
        let bounds = [0, 1, 2].map(|ax| uniform_bounds(extents[ax] as usize, grid[ax]));
        let cell_of = |r: &Rec| {
            [0, 1, 2].map(|ax| bounds[ax].partition_point(|&b| b <= r.0[ax] as usize) - 1)
        };
        let cells = CellGrid::new(extents.map(|e| e as usize), grid).unwrap();
        let sorted = sort_into_cells(recs.len(), |i| recs[i], |r| r.0, &cells);
        let mut expect = recs.clone();
        expect.sort_by_key(|r| (cell_of(r), key(r)));
        prop_assert_eq!(&sorted.records, &expect);
        // The cell table lists exactly the nonempty cells with their ends.
        let mut table: Vec<([usize; 3], usize)> = Vec::new();
        for (n, r) in expect.iter().enumerate() {
            match table.last_mut() {
                Some((cell, end)) if *cell == cell_of(r) => *end = n + 1,
                _ => table.push((cell_of(r), n + 1)),
            }
        }
        prop_assert_eq!(sorted.cells, table);
    }
}

/// `grid` (kernel axes) cut down to what mode `mode` of `coo` allows.
fn fit_grid(coo: &CooTensor, mode: usize, grid: [usize; 3]) -> [usize; 3] {
    let perm = perm_for_mode(mode);
    std::array::from_fn(|ax| grid[ax].clamp(1, coo.dims()[perm[ax]].max(1)))
}

/// One MB+RankB launch over `layout` at rank `rank`, as output bits.
fn kernel_bits(layout: Arc<BlockGrid>, rank: usize) -> Vec<u64> {
    let dims = layout.dims();
    let mode = layout.perm()[0];
    let fs = dims.map(|d| {
        DenseMatrix::from_fn(d, rank, |r, c| ((r * 13 + c * 7) % 17) as f64 * 0.125 - 1.0)
    });
    let mut out = DenseMatrix::zeros(dims[mode], rank);
    BlockedKernel::over(layout, true, Some(16)).mttkrp(&[&fs[0], &fs[1], &fs[2]], &mut out);
    out.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// For every mode whose unblocked layout `coo` can hold (`modes`): the
/// layout derived at `grid` equals the sort into it — every block, the
/// nonzero count, the grid and its bounds — passes the blocking oracle,
/// and (at `rank > 0`) runs to the same output bits.
fn assert_derived_is_sorted(coo: &CooTensor, grid: [usize; 3], modes: &[usize], rank: usize) {
    for &mode in modes {
        let grid = fit_grid(coo, mode, grid);
        let sorted = build_layout(coo, mode, grid);
        let derived = Arc::new(build_layout(coo, mode, [1, 1, 1]).refine(grid));
        let at = format!("mode {mode} grid {grid:?}");
        assert_eq!(derived.grid(), sorted.grid(), "{at}");
        assert_eq!(derived.nnz(), sorted.nnz(), "{at}");
        for ax in 0..3 {
            assert_eq!(derived.bounds(ax), sorted.bounds(ax), "{at}");
        }
        for a in 0..grid[0] {
            for b in 0..grid[1] {
                for c in 0..grid[2] {
                    assert_eq!(derived.block(a, b, c), sorted.block(a, b, c), "{at}");
                }
            }
        }
        assert!(*derived == *sorted, "{at}");
        derived.validate().unwrap();
        if rank > 0 {
            assert_eq!(
                kernel_bits(derived, rank),
                kernel_bits(sorted, rank),
                "{at}"
            );
        }
    }
}

#[test]
fn derived_layouts_equal_sorted_ones_at_every_grid_shape() {
    let x = uniform_tensor([60, 90, 45], 20_000, 3);
    let full = [60, 1, 1]; // the slice axis of mode 0 at one index per block
    for grid in [[2, 1, 1], [1, 3, 2], [4, 2, 2], [8, 8, 4], full] {
        assert_derived_is_sorted(&x, grid, &[0, 1, 2], 20);
    }
}

#[test]
fn derived_layouts_past_one_histogram_of_cells() {
    // 300 x 300 x 1 cells: more than one histogram holds, so the sort into
    // the cells shares runs between neighbouring cells.
    let x = uniform_tensor([300, 300, 300], 30_000, 5);
    const { assert!(300 * 300 > MAX_RUNS) };
    assert_derived_is_sorted(&x, [300, 300, 1], &[0, 1, 2], 4);
}

#[test]
fn derived_layouts_of_degenerate_tensors() {
    let entry = |i: u32, j: u32, k: u32| Entry {
        idx: [i, j, k],
        val: f64::from(i) + 2.0 * f64::from(j) + 3.0 * f64::from(k) - 7.5,
    };
    let tensor = |dims, entries| CooTensor::try_from_entries(dims, entries).unwrap();
    // Empty, also with a zero-length mode.
    for dims in [[4, 5, 6], [0, 3, 3]] {
        assert_derived_is_sorted(&CooTensor::empty(dims), [2, 2, 2], &[0, 1, 2], 3);
    }
    // One slice of mode 0.
    let one_slice: Vec<Entry> = (0..9)
        .flat_map(|j| (0..7).map(move |k| (j, k)))
        .filter(|(j, k)| (j * 7 + k) % 3 != 0)
        .map(|(j, k)| entry(0, j, k))
        .collect();
    let x = tensor([1, 9, 7], one_slice);
    assert_derived_is_sorted(&x, [1, 3, 2], &[0, 1, 2], 17);
    // One fiber of mode 0: a fixed slice and k.
    let x = tensor([5, 40, 6], (0..40).map(|j| entry(2, j, 3)).collect());
    assert_derived_is_sorted(&x, [2, 4, 3], &[0, 1, 2], 17);
    // Coordinates near `Idx::MAX` on the `j` axis of mode 0 (the `k` axis
    // of mode 2). Mode 1 would slice that axis, and an unblocked layout
    // holds a pointer per slice, so it is not built here.
    let top = u32::MAX - 1;
    let near_max: Vec<Entry> = (0..4)
        .flat_map(|i| [0, 1, top / 2, top - 1, top].map(|j| entry(i, j, (i + j % 6) % 6)))
        .collect();
    let x = tensor([4, u32::MAX as usize, 6], near_max);
    assert_derived_is_sorted(&x, [2, 3, 2], &[0, 2], 0);
    assert_derived_is_sorted(&x, [4, 500, 6], &[0, 2], 0);
    // 25M cells over 20 nonzeros: a layout would hold a block slot per
    // cell, so the request is refused before anything is allocated.
    let wide = KernelConfig {
        grid: [4, 1 << 20, 6],
        ..Default::default()
    };
    assert_eq!(
        try_build_kernel(KernelKind::MbRankB, &x, 0, &wide).err(),
        Some(KernelError::GridTooLarge {
            grid: [4, 1 << 20, 6]
        })
    );
}

#[test]
fn derived_layouts_of_a_million_records() {
    let x = uniform_tensor([3_000, 4_000, 2_000], 1_000_000, 11);
    assert_derived_is_sorted(&x, [8, 8, 4], &[0, 1, 2], 16);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn derived_layouts_of_fuzz_cases(
        seed in 0u64..u64::MAX,
        ga in 1usize..6, gb in 1usize..6, gc in 1usize..6,
    ) {
        // Every case class of the fuzz generator: duplicates, hyper-sparse
        // long-tail modes, clustered blocks, zero-length modes.
        let case = arb_case(&mut FuzzRng::new(seed));
        assert_derived_is_sorted(&case.coo, [ga, gb, gc], &[0, 1, 2], case.rank);
    }
}

#[test]
fn empty_single_and_all_equal_inputs() {
    for extents in [[1, 1, 1], [65_537, 2, u32::MAX as u64]] {
        assert!(sorted_by_ranges(&[], extents).is_empty());
        let one = [([0, 0, 0], 7)];
        assert_eq!(sorted_by_ranges(&one, extents), one);
        // All keys equal: a stable sort returns the input order.
        let top = [0, 1, 2].map(|ax| (extents[ax] - 1) as u32);
        let same: Vec<Rec> = (0..100).map(|n| (top, n)).collect();
        assert_eq!(sorted_by_ranges(&same, extents), same);
    }
}

#[test]
fn a_million_records_over_wide_extents() {
    // Above one cache-resident run, with a two-digit component in every
    // position: the two-level path at the size the builders run it.
    let extents = [1 << 20, 65_537, u32::MAX as u64];
    let mut s = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = |e: u64| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s % e) as u32
    };
    let recs: Vec<Rec> = (0..1_000_000)
        .map(|n| ([next(extents[0]), next(extents[1]), next(extents[2])], n))
        .collect();
    assert_eq!(sorted_by_ranges(&recs, extents), reference(&recs));
}

#[test]
fn a_local_offset_outside_its_span_is_a_typed_error() {
    // One entry per axis pokes one past the span; so does a value column
    // of the wrong length. None may index a histogram out of bounds.
    let spans = [4usize, 70_000, 9];
    for ax in 0..3 {
        for perm in [[0, 1, 2], [1, 2, 0], [2, 0, 1]] {
            let mut bad = [0u32; 3];
            bad[perm[ax]] = spans[ax] as u32;
            let mut locals = vec![[0, 0, 0], bad, [0, 0, 0]];
            let mut vals = vec![1.0, 2.0, 3.0];
            let err = FiberSorter::new()
                .sort_tile(
                    &mut locals,
                    &mut vals,
                    perm,
                    spans,
                    &mut FiberCols::default(),
                )
                .unwrap_err();
            assert!(matches!(err, BinError::Format(_)), "got: {err}");
        }
    }
    let err = FiberSorter::new()
        .sort_tile(
            &mut vec![[0, 0, 0]; 3],
            &mut vec![1.0; 2],
            [0, 1, 2],
            spans,
            &mut FiberCols::default(),
        )
        .unwrap_err();
    assert!(matches!(err, BinError::Format(_)), "got: {err}");
}
