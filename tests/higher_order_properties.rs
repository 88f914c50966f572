//! Property tests for the higher-order (N-mode) path: CSF round-trips,
//! kernel agreement with the brute-force reference, and binary I/O.

use proptest::prelude::*;
use tenblock::core::mttkrp::{nd_mttkrp_reference, CsfKernel};
use tenblock::tensor::{CsfTensor, DenseMatrix, NdCooTensor};

/// Strategy: a random N-mode tensor (order 2-5, small dims).
fn arb_nd() -> impl Strategy<Value = NdCooTensor> {
    (2usize..=5).prop_flat_map(|order| {
        proptest::collection::vec(2usize..8, order).prop_flat_map(move |dims| {
            let coord = dims
                .iter()
                .map(|&d| (0..d as u32).boxed())
                .collect::<Vec<_>>();
            let entry = (coord, -4.0f64..4.0);
            proptest::collection::vec(entry, 0..50).prop_map(move |es| {
                let mut coords = Vec::new();
                let mut vals = Vec::new();
                for (c, v) in es {
                    coords.extend_from_slice(&c);
                    vals.push(v);
                }
                NdCooTensor::from_flat(dims.clone(), coords, vals)
            })
        })
    })
}

fn seeded_factors(dims: &[usize], rank: usize, seed: u64) -> Vec<DenseMatrix> {
    dims.iter()
        .enumerate()
        .map(|(m, &d)| {
            DenseMatrix::from_fn(d, rank, |r, c| {
                let mut h = seed ^ ((r as u64) << 13) ^ ((c as u64) << 3) ^ (m as u64);
                h ^= h >> 30;
                h = h.wrapping_mul(0xbf58476d1ce4e5b9);
                h ^= h >> 27;
                (h % 2000) as f64 / 1000.0 - 1.0
            })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn csf_roundtrips_any_root(x in arb_nd(), root_raw in 0usize..5) {
        let root = root_raw % x.order();
        let csf = CsfTensor::for_mode(&x, root);
        prop_assert_eq!(csf.to_nd(), x);
    }

    #[test]
    fn csf_kernel_matches_reference(
        x in arb_nd(),
        root_raw in 0usize..5,
        rank in 1usize..12,
        width in 1usize..20,
        seed in proptest::num::u64::ANY,
    ) {
        let root = root_raw % x.order();
        let factors = seeded_factors(x.dims(), rank, seed);
        let frefs: Vec<&DenseMatrix> = factors.iter().collect();
        let expect = nd_mttkrp_reference(&x, &frefs, root);
        let k = CsfKernel::new(&x, root).with_strip_width(width);
        let mut out = DenseMatrix::zeros(x.dims()[root], rank);
        k.mttkrp(&frefs, &mut out);
        prop_assert!(
            expect.approx_eq(&out, 1e-9),
            "order {} root {root} width {width}: diff {}",
            x.order(),
            expect.max_abs_diff(&out)
        );
    }

    #[test]
    fn binary_io_roundtrips_nd(x in arb_nd()) {
        let mut buf = Vec::new();
        tenblock::tensor::io_bin::write_bin_nd(&x, &mut buf).unwrap();
        let back = tenblock::tensor::io_bin::read_bin_nd(buf.as_slice()).unwrap();
        prop_assert_eq!(back, x);
    }
}
