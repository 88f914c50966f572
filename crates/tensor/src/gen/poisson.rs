//! Poisson ("count") tensor generation.
//!
//! Follows the generation method of Chi & Kolda (ref. [25] of the paper),
//! also used by Hansen et al. [24], which the paper cites for its Poisson1–3
//! data sets: a low-rank nonnegative model is drawn (one probability vector
//! per mode per component plus component weights), and `total_events` i.i.d.
//! events are sampled from the model — each event picks a component by
//! weight, then one index per mode from that component's distribution. The
//! event multiset becomes a sparse count tensor whose values are exactly the
//! event multiplicities, i.e. Poisson-distributed counts conditioned on the
//! total.

use super::SparseDist;
use crate::coo::{CooTensor, Entry};
use crate::NMODES;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`poisson_tensor`].
#[derive(Debug, Clone)]
pub struct PoissonConfig {
    /// Tensor shape.
    pub dims: [usize; NMODES],
    /// Number of events to sample. The resulting nnz (distinct coordinates)
    /// is at most this, typically 60–90% of it.
    pub total_events: usize,
    /// Rank of the generating low-rank model.
    pub gen_rank: usize,
    /// Fraction of each mode length used as component support
    /// (`0 < f <= 1`); smaller values give sharper clustering.
    pub support_frac: f64,
    /// Optional per-mode override of `support_frac`. Shrinking the supports
    /// of modes 1 and 3 relative to mode 2 concentrates events onto fewer
    /// `(i, k)` fibers, raising the nonzeros-per-fiber ratio (`nnz/F`) —
    /// useful for reproducing the paper's "nnz is typically much larger
    /// than F" regime (Section IV-A).
    pub support_frac_per_mode: Option<[f64; NMODES]>,
}

impl PoissonConfig {
    /// A reasonable default model: rank-16 generator with 10% support.
    pub fn new(dims: [usize; NMODES], total_events: usize) -> Self {
        PoissonConfig {
            dims,
            total_events,
            gen_rank: 16,
            support_frac: 0.1,
            support_frac_per_mode: None,
        }
    }

    /// The support fraction effective for mode `m`.
    pub fn support_for_mode(&self, m: usize) -> f64 {
        self.support_frac_per_mode
            .map(|s| s[m])
            .unwrap_or(self.support_frac)
    }
}

/// Generates a Poisson count tensor (values are positive integers stored as
/// `f64`), deterministically from `seed`.
#[expect(
    clippy::cast_possible_truncation,
    reason = "a support is a fraction in (0, 1] of an axis length"
)]
#[expect(
    clippy::unwrap_used,
    reason = "built from NMODES per-mode tables, never empty"
)]
pub fn poisson_tensor(cfg: &PoissonConfig, seed: u64) -> CooTensor {
    assert!(cfg.gen_rank > 0, "generator rank must be positive");
    for m in 0..NMODES {
        let f = cfg.support_for_mode(m);
        assert!(
            (0.0..=1.0).contains(&f) && f > 0.0,
            "support fraction must be in (0, 1]"
        );
    }
    let mut rng = StdRng::seed_from_u64(seed);

    // Component weights lambda_r (unnormalized; cumulative for sampling).
    let mut lambda_cum = Vec::with_capacity(cfg.gen_rank);
    let mut acc = 0.0;
    for _ in 0..cfg.gen_rank {
        acc += rng.random::<f64>() + 0.1;
        lambda_cum.push(acc);
    }

    // Per-mode, per-component index distributions.
    let dists: Vec<Vec<SparseDist>> = (0..NMODES)
        .map(|m| {
            (0..cfg.gen_rank)
                .map(|_| {
                    let support =
                        ((cfg.dims[m] as f64 * cfg.support_for_mode(m)).ceil() as usize).max(1);
                    SparseDist::random(&mut rng, cfg.dims[m], support)
                })
                .collect()
        })
        .collect();

    // Sample events and count multiplicities.
    let total = *lambda_cum.last().unwrap();
    let mut coords: Vec<[crate::Idx; NMODES]> = Vec::with_capacity(cfg.total_events);
    for _ in 0..cfg.total_events {
        let x = rng.random::<f64>() * total;
        let r = lambda_cum
            .partition_point(|&c| c <= x)
            .min(cfg.gen_rank - 1);
        let mut idx = [0; NMODES];
        for m in 0..NMODES {
            idx[m] = dists[m][r].sample(&mut rng);
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
    fn deterministic_and_in_range() {
        let cfg = PoissonConfig::new([50, 60, 70], 5_000);
        let a = poisson_tensor(&cfg, 1);
        let b = poisson_tensor(&cfg, 1);
        assert_eq!(a.entries(), b.entries());
        assert_eq!(a.dims(), [50, 60, 70]);
        for e in a.entries() {
            assert!(e.val >= 1.0);
            assert_eq!(e.val.fract(), 0.0, "counts must be integers");
        }
    }

    #[test]
    fn total_count_matches_events() {
        let cfg = PoissonConfig::new([30, 30, 30], 2_000);
        let t = poisson_tensor(&cfg, 3);
        let total: f64 = t.entries().iter().map(|e| e.val).sum();
        assert_eq!(total, 2_000.0);
        assert!(t.nnz() <= 2_000);
        assert!(t.nnz() > 0);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = PoissonConfig::new([40, 40, 40], 3_000);
        let a = poisson_tensor(&cfg, 1);
        let b = poisson_tensor(&cfg, 2);
        assert_ne!(a.entries(), b.entries());
    }

    #[test]
    fn per_mode_support_raises_fiber_density() {
        use crate::coo::MODE1_PERM;
        let thin = PoissonConfig::new([2000, 2000, 2000], 30_000);
        let mut dense = thin.clone();
        dense.gen_rank = 8;
        dense.support_frac_per_mode = Some([0.01, 0.05, 0.01]);
        let t_thin = poisson_tensor(&thin, 4);
        let t_dense = poisson_tensor(&dense, 4);
        let ratio = |t: &crate::CooTensor| t.nnz() as f64 / t.count_fibers(MODE1_PERM) as f64;
        assert!(
            ratio(&t_dense) > 1.5 * ratio(&t_thin),
            "dense {} vs thin {}",
            ratio(&t_dense),
            ratio(&t_thin)
        );
    }

    #[test]
    fn clustering_concentrates_mass() {
        // With 10% support per component, nonzeros should touch well under
        // the full index space of a mode.
        let cfg = PoissonConfig {
            dims: [1000, 1000, 1000],
            total_events: 10_000,
            gen_rank: 4,
            support_frac: 0.05,
            support_frac_per_mode: None,
        };
        let t = poisson_tensor(&cfg, 9);
        let mut rows: Vec<u32> = t.entries().iter().map(|e| e.idx[0]).collect();
        rows.sort_unstable();
        rows.dedup();
        // 4 components x 5% support = at most ~20% of rows touched
        assert!(rows.len() <= 250, "rows touched: {}", rows.len());
    }
}
