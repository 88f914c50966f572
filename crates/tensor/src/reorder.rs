//! Index-reordering transforms.
//!
//! The paper contrasts its blocking techniques with the reordering approach
//! of Smith et al. [4], "where re-ordering nonzeros through hypergraph
//! partitioning yielded little improvement in performance", at much higher
//! preprocessing cost. This module provides cheap reorderings — degree
//! sort, random, BFS-like connectivity order — so that claim can be tested
//! directly (see the `reordering` bench binary).

use crate::coo::CooTensor;
use crate::{Idx, NMODES};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A per-mode relabeling: `new_index = map[m][old_index]`.
#[derive(Debug, Clone)]
pub struct Reordering {
    maps: [Vec<Idx>; NMODES],
}

impl Reordering {
    /// The identity reordering.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a relabeled tensor's axis lengths fit its Idx coordinates"
    )]
    pub fn identity(dims: [usize; NMODES]) -> Self {
        Reordering {
            maps: std::array::from_fn(|m| (0..dims[m] as Idx).collect()),
        }
    }

    /// Sorts each mode's indices by decreasing nonzero count (degree), so
    /// hot factor rows become adjacent — the cheap locality heuristic.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a relabeled tensor's axis lengths fit its Idx coordinates"
    )]
    pub fn by_degree(t: &CooTensor) -> Self {
        let dims = t.dims();
        let maps = std::array::from_fn(|m| {
            let mut deg = vec![0usize; dims[m]];
            for e in t.entries() {
                deg[e.idx[m] as usize] += 1;
            }
            let mut order: Vec<Idx> = (0..dims[m] as Idx).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(deg[i as usize]));
            // order[rank] = old index; invert to map old -> new
            let mut map = vec![0 as Idx; dims[m]];
            for (new, &old) in order.iter().enumerate() {
                map[old as usize] = new as Idx;
            }
            map
        });
        Reordering { maps }
    }

    /// Random relabeling of each mode (the worst case for locality).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a relabeled tensor's axis lengths fit its Idx coordinates"
    )]
    pub fn random(dims: [usize; NMODES], seed: u64) -> Self {
        use rand::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(seed);
        let maps = std::array::from_fn(|m| {
            let mut map: Vec<Idx> = (0..dims[m] as Idx).collect();
            map.shuffle(&mut rng);
            map
        });
        Reordering { maps }
    }

    /// Greedy connectivity order: indices of each mode are visited in the
    /// order they are first touched when streaming nonzeros sorted by the
    /// previous modes — a cheap stand-in for partitioner-driven orders.
    pub fn by_first_touch(t: &CooTensor) -> Self {
        let dims = t.dims();
        let mut sorted = t.clone();
        sorted.sort(crate::coo::MODE1_PERM);
        let maps = std::array::from_fn(|m| {
            let mut map = vec![Idx::MAX; dims[m]];
            let mut next = 0 as Idx;
            for e in sorted.entries() {
                let old = e.idx[m] as usize;
                if map[old] == Idx::MAX {
                    map[old] = next;
                    next += 1;
                }
            }
            // untouched indices keep a stable tail order
            for slot in map.iter_mut() {
                if *slot == Idx::MAX {
                    *slot = next;
                    next += 1;
                }
            }
            map
        });
        Reordering { maps }
    }

    /// The relabeling map for mode `m`.
    #[expect(
        clippy::indexing_slicing,
        reason = "callers pass m < order == maps.len()"
    )]
    pub fn map(&self, m: usize) -> &[Idx] {
        &self.maps[m]
    }

    /// Applies the reordering to a tensor.
    pub fn apply(&self, t: &CooTensor) -> CooTensor {
        let entries = t
            .entries()
            .iter()
            .map(|e| crate::Entry {
                idx: std::array::from_fn(|m| self.maps[m][e.idx[m] as usize]),
                val: e.val,
            })
            .collect();
        CooTensor::from_entries(t.dims(), entries)
    }

    /// Applies the matching row permutation to a factor matrix of mode `m`
    /// (so reordered kernels compute the same mathematical result).
    pub fn apply_to_factor(&self, m: usize, f: &crate::DenseMatrix) -> crate::DenseMatrix {
        let mut out = crate::DenseMatrix::zeros(f.rows(), f.cols());
        for old in 0..f.rows() {
            let new = self.maps[m][old] as usize;
            out.row_mut(new).copy_from_slice(f.row(old));
        }
        out
    }
}

/// A locality score: the mean log2 jump distance between consecutive
/// accesses to the mode-2 index stream (lower = more local). Used to
/// quantify what a reordering changed.
pub fn mode2_jump_score(t: &CooTensor) -> f64 {
    let mut sorted = t.clone();
    sorted.sort(crate::coo::MODE1_PERM);
    let e = sorted.entries();
    if e.len() < 2 {
        return 0.0;
    }
    let mut total = 0.0;
    for w in e.windows(2) {
        let d = (w[1].idx[1] as i64 - w[0].idx[1] as i64).unsigned_abs();
        total += ((d + 1) as f64).log2();
    }
    total / (e.len() - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{clustered_tensor, uniform_tensor, ClusteredConfig};
    use crate::DenseMatrix;

    #[test]
    fn identity_is_noop() {
        let t = uniform_tensor([10, 12, 14], 100, 1);
        let r = Reordering::identity(t.dims());
        assert_eq!(r.apply(&t).entries(), t.entries());
    }

    #[test]
    fn reorderings_are_bijections() {
        let t = uniform_tensor([20, 30, 25], 400, 5);
        for r in [
            Reordering::by_degree(&t),
            Reordering::random(t.dims(), 3),
            Reordering::by_first_touch(&t),
        ] {
            for m in 0..NMODES {
                let mut seen = r.map(m).to_vec();
                seen.sort_unstable();
                let expect: Vec<Idx> = (0..Idx::try_from(t.dims()[m]).unwrap()).collect();
                assert_eq!(seen, expect, "mode {m} map not a bijection");
            }
            let applied = r.apply(&t);
            assert_eq!(applied.nnz(), t.nnz());
        }
    }

    #[test]
    fn degree_sort_puts_hot_rows_first() {
        // index 7 of mode 1 is hottest -> must map to 0
        let t = CooTensor::from_triples(
            [10, 10, 10],
            &[0, 1, 2, 3],
            &[7, 7, 7, 2],
            &[0, 1, 2, 3],
            &[1.0; 4],
        );
        let r = Reordering::by_degree(&t);
        assert_eq!(r.map(1)[7], 0);
    }

    #[test]
    fn factor_permutation_preserves_mttkrp_semantics() {
        let t = uniform_tensor([8, 9, 10], 120, 11);
        let r = Reordering::by_degree(&t);
        let reordered = r.apply(&t);
        // f(new_row) == old f(old_row)
        let f = DenseMatrix::from_fn(9, 4, |row, c| (row * 4 + c) as f64);
        let fp = r.apply_to_factor(1, &f);
        for old in 0..9 {
            assert_eq!(fp.row(r.map(1)[old] as usize), f.row(old));
        }
        assert_eq!(reordered.nnz(), t.nnz());
    }

    #[test]
    fn first_touch_improves_jump_score_on_clustered_data() {
        let cfg = ClusteredConfig {
            dims: [500, 2_000, 500],
            nnz: 10_000,
            n_clusters: 24,
            cluster_frac: 0.95,
            box_frac: 0.03,
        };
        let x = clustered_tensor(&cfg, 9);
        let scrambled = Reordering::random(x.dims(), 1).apply(&x);
        let base_score = mode2_jump_score(&scrambled);
        let touched = Reordering::by_first_touch(&scrambled).apply(&scrambled);
        let new_score = mode2_jump_score(&touched);
        assert!(
            new_score < base_score,
            "first-touch should improve locality: {new_score} vs {base_score}"
        );
    }
}
