//! The 4D partitioning of Section VI-D: the processor set is first split
//! into `t` groups along the decomposition rank, then each group of `p/t`
//! processors applies the medium-grained 3D decomposition to the *entire*
//! tensor. There are therefore `t` replicas of the tensor, and group `g`
//! computes only columns `[col_begin(g), col_end(g))` of every factor —
//! "operations on different blocks along the rank are completely
//! independent", so the only extra communication is an AllGather along the
//! rank dimension to reassemble full factors.

use crate::part3d::Partition3D;
use tenblock_tensor::cell_grid::uniform_bounds;
use tenblock_tensor::{CooTensor, NMODES};

/// A 4D (`q' x r' x s' x t`) partition.
pub struct Partition4D {
    /// The shared 3D partition applied inside every rank-group (the tensor
    /// replica: every group holds the same distribution).
    part3: Partition3D,
    /// Column boundaries of the rank strips: `t + 1` entries over `0..R`.
    col_bounds: Vec<usize>,
}

impl Partition4D {
    /// Partitions for `t` rank-strips of a rank-`rank` decomposition, with
    /// the 3D grid `grid3` inside each strip group.
    ///
    /// # Panics
    /// Panics if `t == 0` or `t > rank`.
    pub fn new(coo: &CooTensor, grid3: [usize; NMODES], t: usize, rank: usize, seed: u64) -> Self {
        assert!(t > 0, "t must be positive");
        assert!(t <= rank, "cannot split rank {rank} into {t} strips");
        Partition4D {
            part3: Partition3D::new(coo, grid3, seed),
            col_bounds: uniform_bounds(rank, t),
        }
    }

    /// Number of rank-strips.
    pub fn t(&self) -> usize {
        self.col_bounds.len() - 1
    }

    /// The 3D partition shared by every strip group.
    pub fn part3(&self) -> &Partition3D {
        &self.part3
    }

    /// Column boundaries of the rank strips: `t + 1` entries over `0..R`.
    pub fn strip_bounds(&self) -> &[usize] {
        &self.col_bounds
    }

    /// Column range of strip group `g`.
    pub fn strip_cols(&self, g: usize) -> std::ops::Range<usize> {
        self.col_bounds[g]..self.col_bounds[g + 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenblock_tensor::gen::uniform_tensor;

    #[test]
    fn strips_cover_rank_exactly() {
        let x = uniform_tensor([20, 20, 20], 400, 3);
        let p = Partition4D::new(&x, [2, 1, 2], 3, 32, 1);
        assert_eq!(p.part3().n_ranks(), 4);
        let mut covered = 0;
        for g in 0..3 {
            let r = p.strip_cols(g);
            assert_eq!(r.start, covered);
            covered = r.end;
            assert!(!r.is_empty());
        }
        assert_eq!(covered, 32);
    }

    #[test]
    fn t_equals_one_degenerates_to_3d() {
        let x = uniform_tensor([10, 10, 10], 100, 5);
        let p = Partition4D::new(&x, [2, 2, 1], 1, 16, 2);
        assert_eq!(p.part3().n_ranks(), 4);
        assert_eq!(p.strip_cols(0), 0..16);
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn too_many_strips_panics() {
        let x = uniform_tensor([5, 5, 5], 20, 1);
        Partition4D::new(&x, [1, 1, 1], 9, 8, 0);
    }
}
