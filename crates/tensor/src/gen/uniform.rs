//! Uniform random sparse tensors.
//!
//! Positions are sampled uniformly over the full index space (no structure
//! at all). This is the adversarial case for the paper's blocking
//! techniques: with no dense sub-structure, multi-dimensional blocking can
//! only help by shrinking the factor-matrix working set, never by exploiting
//! clustering.

use crate::coo::{CooTensor, Entry};
use crate::{Idx, NMODES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates a tensor with `nnz` distinct uniformly random nonzero
/// positions and values drawn from `|N(0,1)| + 0.1`.
///
/// # Panics
/// Panics if `nnz` exceeds the number of cells in the tensor.
#[expect(
    clippy::cast_possible_truncation,
    reason = "a generator axis length fits Idx"
)]
pub fn uniform_tensor(dims: [usize; NMODES], nnz: usize, seed: u64) -> CooTensor {
    let cells: u128 = dims.iter().map(|&d| d as u128).product();
    assert!(
        (nnz as u128) <= cells,
        "requested {nnz} nonzeros but tensor has only {cells} cells"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coords: Vec<[Idx; NMODES]> = Vec::with_capacity(nnz + nnz / 4);
    while {
        coords.sort_unstable();
        coords.dedup();
        coords.len() < nnz
    } {
        let missing = nnz - coords.len();
        for _ in 0..missing + missing / 4 + 8 {
            let mut idx = [0; NMODES];
            for m in 0..NMODES {
                idx[m] = rng.random_range(0..dims[m] as Idx);
            }
            coords.push(idx);
        }
    }
    coords.truncate(nnz);
    let entries = coords
        .into_iter()
        .map(|idx| {
            // Box-Muller for a half-normal magnitude
            let u1: f64 = rng.random::<f64>().max(1e-12);
            let u2: f64 = rng.random::<f64>();
            let n = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            Entry {
                idx,
                val: n.abs() + 0.1,
            }
        })
        .collect();
    CooTensor::from_entries(dims, entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_nnz_and_determinism() {
        let a = uniform_tensor([20, 30, 40], 500, 11);
        let b = uniform_tensor([20, 30, 40], 500, 11);
        assert_eq!(a.nnz(), 500);
        assert_eq!(a.entries(), b.entries());
        for e in a.entries() {
            assert!(e.val >= 0.1);
        }
    }

    #[test]
    fn dense_request_fills_tensor() {
        let t = uniform_tensor([3, 3, 3], 27, 5);
        assert_eq!(t.nnz(), 27);
    }

    #[test]
    #[should_panic(expected = "only")]
    fn overfull_request_panics() {
        uniform_tensor([2, 2, 2], 9, 1);
    }
}
