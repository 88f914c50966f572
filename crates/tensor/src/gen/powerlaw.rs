//! Power-law (Zipf) tensor generation.
//!
//! Real recommender/web tensors (Netflix, Reddit, Amazon in Table II) have
//! heavily skewed mode distributions: a few users/items account for most
//! nonzeros. The clustered generator models *block* structure; this one
//! models *degree* structure — per-mode Zipf marginals with independent
//! sampling — which is the regime where slice-level load imbalance and
//! hot factor rows appear.

use crate::coo::{CooTensor, Entry};
use crate::{Idx, NMODES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`powerlaw_tensor`].
#[derive(Debug, Clone)]
pub struct PowerLawConfig {
    /// Tensor shape.
    pub dims: [usize; NMODES],
    /// Target number of nonzeros (duplicates merged into counts).
    pub nnz: usize,
    /// Zipf exponent per mode (`0.0` = uniform, `~1.0` = heavy skew).
    pub exponent: [f64; NMODES],
}

impl PowerLawConfig {
    /// Recommender-style defaults: skewed users/items, mild time skew.
    pub fn new(dims: [usize; NMODES], nnz: usize) -> Self {
        PowerLawConfig {
            dims,
            nnz,
            exponent: [0.9, 0.9, 0.4],
        }
    }
}

/// Cumulative Zipf weights over `0..dim` with the ranks randomly permuted
/// (so hot indices are scattered, as in collected data).
#[expect(
    clippy::cast_possible_truncation,
    reason = "a generator axis length fits Idx"
)]
fn zipf_cdf(rng: &mut StdRng, dim: usize, s: f64) -> (Vec<f64>, Vec<Idx>) {
    let mut ids: Vec<Idx> = (0..dim as Idx).collect();
    // Fisher-Yates
    for i in (1..dim).rev() {
        let j = rng.random_range(0..=i);
        ids.swap(i, j);
    }
    let mut cum = Vec::with_capacity(dim);
    let mut acc = 0.0;
    for r in 0..dim {
        acc += 1.0 / ((r + 1) as f64).powf(s);
        cum.push(acc);
    }
    (cum, ids)
}

/// Generates a tensor with Zipf-distributed mode marginals,
/// deterministically from `seed`. Values are occurrence counts.
pub fn powerlaw_tensor(cfg: &PowerLawConfig, seed: u64) -> CooTensor {
    for m in 0..NMODES {
        assert!(cfg.exponent[m] >= 0.0, "Zipf exponent must be non-negative");
        assert!(cfg.dims[m] > 0, "dimensions must be positive");
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let dists: Vec<(Vec<f64>, Vec<Idx>)> = (0..NMODES)
        .map(|m| zipf_cdf(&mut rng, cfg.dims[m], cfg.exponent[m]))
        .collect();

    let mut coords: Vec<[Idx; NMODES]> = Vec::with_capacity(cfg.nnz);
    for _ in 0..cfg.nnz {
        let mut idx = [0; NMODES];
        for m in 0..NMODES {
            let (cum, ids) = &dists[m];
            idx[m] = super::sample_cdf(&mut rng, cum, ids);
        }
        coords.push(idx);
    }
    coords.sort_unstable();
    let mut entries: Vec<Entry> = Vec::new();
    let mut i = 0;
    while i < coords.len() {
        let mut j = i + 1;
        while j < coords.len() && coords[j] == coords[i] {
            j += 1;
        }
        entries.push(Entry {
            idx: coords[i],
            val: (j - i) as f64,
        });
        i = j;
    }
    CooTensor::from_entries(cfg.dims, entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_counts() {
        let cfg = PowerLawConfig::new([200, 300, 50], 5_000);
        let a = powerlaw_tensor(&cfg, 3);
        let b = powerlaw_tensor(&cfg, 3);
        assert_eq!(a.entries(), b.entries());
        let total: f64 = a.entries().iter().map(|e| e.val).sum();
        assert_eq!(total, 5_000.0);
    }

    #[test]
    fn skew_concentrates_mass() {
        let skewed = PowerLawConfig {
            dims: [1_000, 100, 100],
            nnz: 20_000,
            exponent: [1.2, 0.0, 0.0],
        };
        let t = powerlaw_tensor(&skewed, 7);
        // per-slice mass: the top 10 slices should hold far more than
        // 10/1000 of the total under s = 1.2
        let mut per_slice = vec![0.0; 1_000];
        for e in t.entries() {
            per_slice[e.idx[0] as usize] += e.val;
        }
        per_slice.sort_by(|a, b| b.total_cmp(a));
        let top10: f64 = per_slice[..10].iter().sum();
        let total: f64 = per_slice.iter().sum();
        assert!(top10 / total > 0.15, "top-10 share {}", top10 / total);
    }

    #[test]
    fn zero_exponent_is_roughly_uniform() {
        let cfg = PowerLawConfig {
            dims: [500, 50, 50],
            nnz: 20_000,
            exponent: [0.0, 0.0, 0.0],
        };
        let t = powerlaw_tensor(&cfg, 9);
        let mut per_slice = vec![0.0; 500];
        for e in t.entries() {
            per_slice[e.idx[0] as usize] += e.val;
        }
        per_slice.sort_by(|a, b| b.total_cmp(a));
        let top10: f64 = per_slice[..10].iter().sum();
        let total: f64 = per_slice.iter().sum();
        assert!(
            top10 / total < 0.06,
            "uniform top-10 share {}",
            top10 / total
        );
    }
}
