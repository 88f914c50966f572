//! Data-set statistics (the columns of Table II plus fiber counts).

use crate::coo::{perm_for_mode, CooTensor};
use crate::NMODES;

/// Summary statistics of a sparse tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorStats {
    /// Mode lengths.
    pub dims: [usize; NMODES],
    /// Number of nonzeros.
    pub nnz: usize,
    /// `nnz / (I*J*K)`.
    pub sparsity: f64,
    /// Non-empty fibers per mode orientation (the `F` of Equation 1 for
    /// each mode's MTTKRP).
    pub fibers: [usize; NMODES],
    /// Average nonzeros per non-empty fiber, per mode.
    pub nnz_per_fiber: [f64; NMODES],
}

impl TensorStats {
    /// Computes statistics of `t` (one sort per mode to count the fibers).
    pub fn of(t: &CooTensor) -> Self {
        let fibers = [0, 1, 2].map(|m| t.count_fibers(perm_for_mode(m)));
        Self::from_fibers(t.dims(), t.nnz(), fibers)
    }

    /// The statistics of a tensor whose per-mode non-empty fiber counts
    /// are already known — a mode's fiber-compressed layout has counted
    /// them — with every derived field exactly as [`Self::of`] computes it.
    pub fn from_fibers(dims: [usize; NMODES], nnz: usize, fibers: [usize; NMODES]) -> Self {
        let cells: f64 = dims.iter().map(|&d| d as f64).product();
        let nnz_per_fiber = fibers.map(|f| if f == 0 { 0.0 } else { nnz as f64 / f as f64 });
        TensorStats {
            dims,
            nnz,
            sparsity: if cells == 0.0 {
                0.0
            } else {
                nnz as f64 / cells
            },
            fibers,
            nnz_per_fiber,
        }
    }

    /// One Table II-style row: `name, IxJxK, nnz, sparsity`.
    pub fn table_row(&self, name: &str) -> String {
        format!(
            "{:<10} {:>9}x{:<9}x{:<9} {:>12} {:>10.1e}",
            name, self.dims[0], self.dims[1], self.dims[2], self.nnz, self.sparsity
        )
    }

    /// A stable 64-bit fingerprint of the tensor's tuning-relevant shape:
    /// dimensions, nonzero count, and per-mode fiber counts — the inputs the
    /// Section V-C heuristic is sensitive to. Two tensors with equal
    /// fingerprints get the same tuned plan (used as the plan-cache key);
    /// nonzero *values* are deliberately excluded, since MTTKRP cost does
    /// not depend on them.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV offset basis
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x100_0000_01b3); // FNV prime
            h ^= h >> 29;
        };
        for &d in &self.dims {
            mix(d as u64);
        }
        mix(self.nnz as u64);
        for &f in &self.fibers {
            mix(f as u64);
        }
        h
    }
}

/// Nonzeros per nonempty block of the mode-`mode` kernel grid, sorted
/// descending — the occupancy profile that predicts when the BCOO layout
/// pays off (a few hot, dense blocks amortize the per-block factor gather;
/// a uniform scatter of near-empty blocks does not).
pub fn block_occupancy(t: &CooTensor, mode: usize, grid: [usize; NMODES]) -> Vec<usize> {
    let b = crate::bcoo::BcooTensor::from_coo(t, mode, grid);
    let mut counts: Vec<usize> = (0..b.n_blocks()).map(|i| b.block_range(i).len()).collect();
    counts.sort_unstable_by(|x, y| y.cmp(x));
    counts
}

/// Renders block-occupancy counts as a power-of-two histogram, one line
/// per bucket: `nnz/block` range, block count, and a proportional bar.
pub fn occupancy_histogram(counts: &[usize]) -> String {
    if counts.is_empty() {
        return "  (no nonempty blocks)\n".to_string();
    }
    // Bucket b holds counts in [2^b, 2^(b+1)).
    let max = *counts.iter().max().unwrap_or(&1);
    let n_buckets = usize::BITS as usize - max.max(1).leading_zeros() as usize;
    let mut buckets = vec![0usize; n_buckets];
    for &c in counts {
        buckets[usize::BITS as usize - 1 - c.max(1).leading_zeros() as usize] += 1;
    }
    let tallest = *buckets.iter().max().unwrap_or(&1);
    let mut out = String::new();
    for (b, &n) in buckets.iter().enumerate() {
        let lo = 1usize << b;
        let hi = (1usize << (b + 1)) - 1;
        let range = if lo == hi {
            format!("{lo}")
        } else {
            format!("{lo}-{hi}")
        };
        let bar = "#".repeat((n * 40).div_ceil(tallest.max(1)).min(40));
        out.push_str(&format!("  {range:>13} nnz/block {n:>7} blocks {bar}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_small_tensor() {
        let t = CooTensor::from_triples(
            [3, 3, 3],
            &[0, 0, 0, 1, 1, 1, 2],
            &[0, 1, 1, 0, 1, 2, 0],
            &[0, 1, 2, 2, 1, 2, 0],
            &[5.0, 3.0, 1.0, 2.0, 9.0, 7.0, 9.0],
        );
        let s = TensorStats::of(&t);
        assert_eq!(s.nnz, 7);
        assert!((s.sparsity - 7.0 / 27.0).abs() < 1e-12);
        assert_eq!(s.fibers[0], 6); // Figure 1b
        assert!(s.nnz_per_fiber[0] > 1.0);
        let row = s.table_row("Fig1");
        assert!(row.contains("Fig1"));
        assert!(row.contains('7'));
    }

    #[test]
    fn stats_of_empty_tensor() {
        let s = TensorStats::of(&CooTensor::empty([2, 2, 2]));
        assert_eq!(s.nnz, 0);
        assert_eq!(s.sparsity, 0.0);
        assert_eq!(s.fibers, [0, 0, 0]);
        assert_eq!(s.nnz_per_fiber, [0.0, 0.0, 0.0]);
    }

    #[test]
    fn block_occupancy_counts_and_histogram() {
        // A dense 2x2x2 corner plus one far-away nonzero: one block of 8
        // and one block of 1 under a 2x2x2 grid.
        let mut entries = Vec::new();
        for i in 0..2u32 {
            for j in 0..2u32 {
                for k in 0..2u32 {
                    entries.push(crate::Entry::new(i, j, k, 1.0));
                }
            }
        }
        entries.push(crate::Entry::new(7, 7, 7, 1.0));
        let t = CooTensor::from_entries([8, 8, 8], entries);
        let counts = block_occupancy(&t, 0, [2, 2, 2]);
        assert_eq!(counts, vec![8, 1]);
        let h = occupancy_histogram(&counts);
        assert!(h.contains("1 nnz/block"), "{h}");
        assert!(h.contains("8-15 nnz/block"), "{h}");
        assert!(occupancy_histogram(&[]).contains("no nonempty blocks"));
    }
}
