//! Synthetic tensor generators and the Table II data-set registry.
//!
//! The paper evaluates on three synthetic Poisson tensors and four real data
//! sets from FROSTT (Netflix, NELL-2, Reddit, Amazon). The real sets are
//! hundreds of millions to billions of nonzeros and are not redistributable
//! here, so the registry generates *scaled analogues*: same mode-aspect
//! ratios, scaled sizes, and — crucially — the clustered dense sub-structure
//! the paper identifies as the property that makes blocking effective on
//! real data (Section VI-C). Real FROSTT files can be substituted via
//! [`crate::io::read_tns_file`].

mod clustered;
mod datasets;
mod poisson;
mod powerlaw;
mod uniform;

pub use clustered::{clustered_tensor, ClusteredConfig};
pub use datasets::{Dataset, DatasetSpec, ALL_DATASETS};
pub use poisson::{poisson_tensor, PoissonConfig};
pub use powerlaw::{powerlaw_tensor, PowerLawConfig};
pub use uniform::uniform_tensor;

use crate::Idx;
use rand::Rng;

/// Samples an index from a cumulative weight table by binary search.
/// `cum` must be non-decreasing with a positive final value.
#[expect(
    clippy::expect_used,
    reason = "documented precondition; callers build ≥1-entry tables"
)]
pub(crate) fn sample_cdf<R: Rng>(rng: &mut R, cum: &[f64], ids: &[Idx]) -> Idx {
    let total = *cum.last().expect("non-empty cdf");
    let x = rng.random::<f64>() * total;
    // partition_point returns the first index with cum[i] > x
    let pos = cum.partition_point(|&c| c <= x).min(cum.len() - 1);
    ids[pos]
}

/// A normalized discrete distribution over a subset of `0..dim`.
#[derive(Debug, Clone)]
pub(crate) struct SparseDist {
    ids: Vec<Idx>,
    cum: Vec<f64>,
}

impl SparseDist {
    /// Builds a distribution supported on `support_size` uniformly chosen
    /// indices with Exp(1)-like weights.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a sampled index is below dim, a generator axis length that fits Idx"
    )]
    pub fn random<R: Rng>(rng: &mut R, dim: usize, support_size: usize) -> Self {
        let support_size = support_size.clamp(1, dim);
        let mut ids: Vec<Idx> = rand::seq::index::sample(rng, dim, support_size)
            .into_iter()
            .map(|i| i as Idx)
            .collect();
        ids.sort_unstable();
        let mut cum = Vec::with_capacity(ids.len());
        let mut acc = 0.0;
        for _ in &ids {
            // inverse-CDF exponential sample; strictly positive
            let u: f64 = rng.random::<f64>().max(1e-12);
            acc += -u.ln();
            cum.push(acc);
        }
        SparseDist { ids, cum }
    }

    /// Draws one index.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Idx {
        sample_cdf(rng, &self.cum, &self.ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sparse_dist_stays_in_support() {
        let mut rng = StdRng::seed_from_u64(7);
        let d = SparseDist::random(&mut rng, 100, 10);
        assert_eq!(d.ids.len(), 10);
        for _ in 0..1000 {
            let i = d.sample(&mut rng);
            assert!(d.ids.contains(&i));
        }
    }

    #[test]
    fn sparse_dist_support_clamped() {
        let mut rng = StdRng::seed_from_u64(7);
        let d = SparseDist::random(&mut rng, 5, 50);
        assert_eq!(d.ids.len(), 5);
        let d1 = SparseDist::random(&mut rng, 5, 0);
        assert_eq!(d1.ids.len(), 1);
    }

    #[test]
    fn cdf_sampling_is_weight_proportional() {
        let mut rng = StdRng::seed_from_u64(42);
        // two ids, weights 1 and 3 -> second should appear ~75% of the time
        let cum = vec![1.0, 4.0];
        let ids = vec![0, 1];
        let mut hits = [0usize; 2];
        for _ in 0..20_000 {
            hits[sample_cdf(&mut rng, &cum, &ids) as usize] += 1;
        }
        let frac = hits[1] as f64 / 20_000.0;
        assert!((frac - 0.75).abs() < 0.02, "frac = {frac}");
    }
}
