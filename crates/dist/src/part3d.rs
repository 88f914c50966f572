//! The medium-grained decomposition (Smith & Karypis, ref. [8]), as
//! described in Section VI-D:
//!
//! 1. Randomly permute the indices of every mode (removing any ordering
//!    bias from data collection).
//! 2. Partition mode 1 into `q` chunks by greedily adding slices to a chunk
//!    until it holds at least `nnz/q` nonzeros.
//! 3. Repeat for the other modes (`r`, `s` chunks).
//!
//! Rank `(a, b, c)` of the `q x r x s` processor grid owns the nonzeros
//! falling in chunk `a` of mode 1, `b` of mode 2 and `c` of mode 3.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tenblock_tensor::{CellGrid, CooTensor, Entry, Idx, NMODES};

/// A medium-grained 3D partition of a tensor.
///
/// ```
/// use tenblock_dist::Partition3D;
/// use tenblock_tensor::gen::uniform_tensor;
///
/// let x = uniform_tensor([40, 40, 40], 2_000, 3);
/// let part = Partition3D::new(&x, [2, 2, 2], 42);
/// assert_eq!(part.n_ranks(), 8);
/// assert_eq!(part.rank_nnz().iter().sum::<usize>(), 2_000);
/// assert!(part.imbalance() < 2.0); // greedy nnz balancing
/// ```
pub struct Partition3D {
    dims: [usize; NMODES],
    /// Greedy chunk boundaries per mode (in relabeled index space),
    /// `grid[m] + 1` entries each.
    bounds: [Vec<usize>; NMODES],
    /// Per-rank local tensors (relabeled coordinates, global dims), indexed
    /// `a*(r*s) + b*s + c`.
    locals: Vec<CooTensor>,
    nnz: usize,
}

/// Greedy nnz-balanced boundaries: walk indices in order, cutting a chunk
/// once it holds at least `nnz / n` nonzeros (the paper's step 2), while
/// leaving at least one index for each remaining chunk.
fn greedy_bounds(per_index_nnz: &[usize], n: usize) -> Vec<usize> {
    let dim = per_index_nnz.len();
    let target = per_index_nnz.iter().sum::<usize>().div_ceil(n);
    let mut bounds = vec![0];
    let mut idx = 0;
    for chunk in 1..n {
        let (max_end, mut acc) = (dim - (n - chunk), 0);
        while idx < max_end && acc < target {
            acc += per_index_nnz[idx];
            idx += 1;
        }
        bounds.push(idx);
    }
    bounds.push(dim);
    bounds
}

/// The chunk containing `idx`.
fn find_chunk(bounds: &[usize], idx: usize) -> usize {
    bounds.partition_point(|&b| b <= idx) - 1
}

impl Partition3D {
    /// Partitions `coo` over a `grid[0] x grid[1] x grid[2]` processor
    /// grid, deterministically from `seed`.
    ///
    /// # Panics
    /// Panics with the [`GridError`](tenblock_tensor::GridError) if `grid`
    /// is not a valid grid over the tensor's modes.
    pub fn new(coo: &CooTensor, grid: [usize; NMODES], seed: u64) -> Self {
        let dims = coo.dims();
        // Ranks are numbered as the grid's cells; only the bounds differ.
        let ranks = CellGrid::new(dims, grid).unwrap_or_else(|e| panic!("{e}"));
        let mut rng = StdRng::seed_from_u64(seed);

        // Step 1: random relabeling per mode.
        let perm_maps: [Vec<Idx>; NMODES] = std::array::from_fn(|m| {
            let mut map: Vec<Idx> = (0..dims[m] as Idx).collect();
            map.shuffle(&mut rng);
            map
        });

        // Relabel all entries once.
        let relabeled: Vec<Entry> = coo
            .entries()
            .iter()
            .map(|e| Entry {
                idx: std::array::from_fn(|m| perm_maps[m][e.idx[m] as usize]),
                val: e.val,
            })
            .collect();

        // Steps 2-3: greedy nnz-balanced boundaries per mode.
        let bounds: [Vec<usize>; NMODES] = std::array::from_fn(|m| {
            let mut per_index = vec![0usize; dims[m]];
            for e in &relabeled {
                per_index[e.idx[m] as usize] += 1;
            }
            greedy_bounds(&per_index, grid[m])
        });

        // Bucket entries by rank.
        let mut buckets: Vec<Vec<Entry>> = vec![Vec::new(); ranks.n_cells()];
        for e in &relabeled {
            let chunk = [0, 1, 2].map(|m| find_chunk(&bounds[m], e.idx[m] as usize));
            buckets[ranks.id(chunk)].push(*e);
        }
        let locals = buckets
            .into_iter()
            .map(|entries| CooTensor::from_entries(dims, entries))
            .collect();

        Partition3D {
            dims,
            bounds,
            locals,
            nnz: coo.nnz(),
        }
    }

    /// Tensor dimensions.
    pub fn dims(&self) -> [usize; NMODES] {
        self.dims
    }

    /// Number of ranks (`q·r·s`).
    pub fn n_ranks(&self) -> usize {
        self.locals.len()
    }

    /// The local tensor of one rank (relabeled coordinates, global dims).
    pub fn local(&self, rank: usize) -> &CooTensor {
        &self.locals[rank]
    }

    /// Chunk boundaries of every mode (relabeled index space).
    pub fn bounds(&self) -> [&[usize]; NMODES] {
        self.bounds.each_ref().map(Vec::as_slice)
    }

    /// Per-rank nonzero counts.
    pub fn rank_nnz(&self) -> Vec<usize> {
        self.locals.iter().map(|t| t.nnz()).collect()
    }

    /// Load imbalance: `max_rank_nnz / mean_rank_nnz` (1.0 is perfect).
    pub fn imbalance(&self) -> f64 {
        let counts = self.rank_nnz();
        let max = counts.iter().copied().max().unwrap_or(0) as f64;
        let mean = self.nnz as f64 / counts.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// The whole tensor in relabeled coordinates (for validation).
    pub fn relabeled(&self) -> CooTensor {
        let entries = self
            .locals
            .iter()
            .flat_map(|t| t.entries().iter().copied())
            .collect();
        CooTensor::from_entries(self.dims, entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenblock_tensor::gen::uniform_tensor;

    #[test]
    fn greedy_bounds_basics() {
        // 10 indices, uniform nnz, 3 chunks
        let b = greedy_bounds(&[2; 10], 3);
        assert_eq!(b.len(), 4);
        assert_eq!(b[0], 0);
        assert_eq!(b[3], 10);
        for w in b.windows(2) {
            assert!(w[1] > w[0], "chunks must be non-empty: {b:?}");
        }
    }

    #[test]
    fn greedy_bounds_skewed() {
        // one heavy index must not starve later chunks
        let mut nnz = vec![1usize; 8];
        nnz[0] = 100;
        let b = greedy_bounds(&nnz, 4);
        assert_eq!(b.len(), 5);
        assert_eq!(b[4], 8);
        for w in b.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn partition_covers_all_nonzeros() {
        let x = uniform_tensor([30, 40, 20], 1_000, 11);
        let p = Partition3D::new(&x, [3, 2, 4], 7);
        assert_eq!(p.n_ranks(), 24);
        assert_eq!(p.rank_nnz().iter().sum::<usize>(), 1_000);
        // relabeled tensor has the same values multiset
        let rel = p.relabeled();
        assert_eq!(rel.nnz(), 1_000);
        let mut a: Vec<u64> = x.entries().iter().map(|e| e.val.to_bits()).collect();
        let mut b: Vec<u64> = rel.entries().iter().map(|e| e.val.to_bits()).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn locals_respect_chunk_boundaries() {
        let x = uniform_tensor([25, 25, 25], 600, 13);
        let p = Partition3D::new(&x, [2, 3, 2], 5);
        for a in 0..2 {
            for b in 0..3 {
                for c in 0..2 {
                    let rank = (a * 3 + b) * 2 + c;
                    for e in p.local(rank).entries() {
                        assert!(find_chunk(p.bounds()[0], e.idx[0] as usize) == a);
                        assert!(find_chunk(p.bounds()[1], e.idx[1] as usize) == b);
                        assert!(find_chunk(p.bounds()[2], e.idx[2] as usize) == c);
                    }
                }
            }
        }
    }

    #[test]
    fn balance_is_reasonable_on_uniform_data() {
        let x = uniform_tensor([100, 100, 100], 20_000, 3);
        let p = Partition3D::new(&x, [2, 2, 2], 9);
        let imb = p.imbalance();
        assert!(imb < 1.5, "imbalance {imb}");
    }

    #[test]
    fn deterministic_in_seed() {
        let x = uniform_tensor([20, 20, 20], 300, 1);
        let a = Partition3D::new(&x, [2, 2, 1], 42);
        let b = Partition3D::new(&x, [2, 2, 1], 42);
        assert_eq!(a.rank_nnz(), b.rank_nnz());
        let coords = |p: &Partition3D| {
            p.relabeled()
                .entries()
                .iter()
                .map(|e| e.idx)
                .collect::<Vec<_>>()
        };
        assert_eq!(coords(&a), coords(&b));
        assert_ne!(coords(&Partition3D::new(&x, [2, 2, 1], 43)), coords(&a));
    }

    #[test]
    fn single_rank_partition() {
        let x = uniform_tensor([10, 10, 10], 100, 2);
        let p = Partition3D::new(&x, [1, 1, 1], 0);
        assert_eq!(p.n_ranks(), 1);
        assert_eq!(p.local(0).nnz(), 100);
        assert!((p.imbalance() - 1.0).abs() < 1e-12);
    }
}
