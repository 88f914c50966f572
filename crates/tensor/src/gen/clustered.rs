//! Clustered ("real-world-like") tensor generation.
//!
//! Section VI-C of the paper attributes the larger blocking speedups on real
//! data (3.54x vs 2.02x) to "nice dense sub-structures" absent from random
//! synthetic data. This generator plants exactly that structure: a set of
//! random axis-aligned sub-boxes, each filled to a target density, over a
//! thin uniform background. The resulting tensors are the stand-ins for the
//! Netflix / NELL-2 / Reddit / Amazon rows of Table II.

use crate::coo::{CooTensor, Entry};
use crate::{Idx, NMODES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`clustered_tensor`].
#[derive(Debug, Clone)]
pub struct ClusteredConfig {
    /// Tensor shape.
    pub dims: [usize; NMODES],
    /// Target number of nonzeros (approximate: duplicates are merged).
    pub nnz: usize,
    /// Number of planted dense clusters.
    pub n_clusters: usize,
    /// Fraction of nonzeros placed inside clusters (rest is uniform
    /// background noise). `1.0` means fully clustered.
    pub cluster_frac: f64,
    /// Side length of each cluster box, as a fraction of the mode length.
    pub box_frac: f64,
}

impl ClusteredConfig {
    /// Defaults matching the "real data" regime: 64 clusters holding 80% of
    /// the nonzeros in boxes spanning 2% of each mode.
    pub fn new(dims: [usize; NMODES], nnz: usize) -> Self {
        ClusteredConfig {
            dims,
            nnz,
            n_clusters: 64,
            cluster_frac: 0.8,
            box_frac: 0.02,
        }
    }
}

/// Generates a clustered sparse tensor, deterministically from `seed`.
/// Values are positive counts (1 + extra hits), like rating/count data.
#[expect(
    clippy::cast_possible_truncation,
    reason = "generated coordinates are below dims, which fit Idx, and each float is a fraction in (0, 1] of the integer it scales"
)]
pub fn clustered_tensor(cfg: &ClusteredConfig, seed: u64) -> CooTensor {
    assert!(cfg.n_clusters > 0, "need at least one cluster");
    assert!(
        (0.0..=1.0).contains(&cfg.cluster_frac),
        "cluster_frac in [0,1]"
    );
    assert!(
        cfg.box_frac > 0.0 && cfg.box_frac <= 1.0,
        "box_frac in (0,1]"
    );
    let mut rng = StdRng::seed_from_u64(seed);

    // Plant cluster boxes: per mode, an origin and a side length.
    struct ClusterBox {
        lo: [usize; NMODES],
        side: [usize; NMODES],
    }
    let boxes: Vec<ClusterBox> = (0..cfg.n_clusters)
        .map(|_| {
            let mut lo = [0; NMODES];
            let mut side = [0; NMODES];
            for m in 0..NMODES {
                side[m] =
                    ((cfg.dims[m] as f64 * cfg.box_frac).ceil() as usize).clamp(1, cfg.dims[m]);
                lo[m] = rng.random_range(0..=(cfg.dims[m] - side[m]));
            }
            ClusterBox { lo, side }
        })
        .collect();

    let n_clustered = (cfg.nnz as f64 * cfg.cluster_frac) as usize;
    let mut coords: Vec<[Idx; NMODES]> = Vec::with_capacity(cfg.nnz);
    for _ in 0..n_clustered {
        let b = &boxes[rng.random_range(0..boxes.len())];
        let mut idx = [0; NMODES];
        for m in 0..NMODES {
            idx[m] = (b.lo[m] + rng.random_range(0..b.side[m])) as Idx;
        }
        coords.push(idx);
    }
    for _ in n_clustered..cfg.nnz {
        let mut idx = [0; NMODES];
        for m in 0..NMODES {
            idx[m] = rng.random_range(0..cfg.dims[m] as Idx);
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
    fn deterministic_and_near_target_nnz() {
        let cfg = ClusteredConfig::new([500, 400, 300], 10_000);
        let a = clustered_tensor(&cfg, 17);
        let b = clustered_tensor(&cfg, 17);
        assert_eq!(a.entries(), b.entries());
        // Merging duplicates loses some positions; most survive.
        assert!(a.nnz() > 6_000 && a.nnz() <= 10_000, "nnz = {}", a.nnz());
    }

    #[test]
    fn fully_clustered_occupies_boxes_only() {
        let cfg = ClusteredConfig {
            dims: [1000, 1000, 1000],
            nnz: 5_000,
            n_clusters: 2,
            cluster_frac: 1.0,
            box_frac: 0.01,
        };
        let t = clustered_tensor(&cfg, 3);
        // all nonzeros live in at most 2 boxes of side 10 per mode
        let mut rows: Vec<u32> = t.entries().iter().map(|e| e.idx[0]).collect();
        rows.sort_unstable();
        rows.dedup();
        assert!(rows.len() <= 20, "rows touched: {}", rows.len());
    }

    #[test]
    fn background_spreads_out() {
        let cfg = ClusteredConfig {
            dims: [2000, 2000, 2000],
            nnz: 5_000,
            n_clusters: 1,
            cluster_frac: 0.0,
            box_frac: 0.01,
        };
        let t = clustered_tensor(&cfg, 3);
        let mut rows: Vec<u32> = t.entries().iter().map(|e| e.idx[0]).collect();
        rows.sort_unstable();
        rows.dedup();
        assert!(
            rows.len() > 1000,
            "background should be spread: {}",
            rows.len()
        );
    }

    #[test]
    fn tiny_dims_clamp_boxes() {
        let cfg = ClusteredConfig::new([2, 2, 2], 4);
        let t = clustered_tensor(&cfg, 1);
        assert!(t.nnz() >= 1);
        for e in t.entries() {
            for m in 0..NMODES {
                assert!((e.idx[m] as usize) < 2);
            }
        }
    }
}
