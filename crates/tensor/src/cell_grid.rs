//! The one cell geometry of every blocked layout.
//!
//! MB (Section V-A) splits each of three axes into uniform blocks and
//! visits the `N_A x N_B x N_C` cells in row-major order. The MB grid, the
//! in-memory and on-disk tile sources and the streaming driver all use
//! that geometry, and streamed results match in-memory kernels bit for
//! bit only because they agree on it. So it is
//! computed here and nowhere else: [`CellGrid::new`] checks a grid request
//! once, and every later bound, cell id and cell lookup is plain `usize`
//! arithmetic that the check has proved cannot overflow.

// Every ingest path validates a grid and cells through here: what may
// panic is waived site by site, with the precondition that rules it out.
#![deny(
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::unreachable
)]

use crate::NMODES;

/// Uniform boundaries splitting `dim` indices into `n` blocks: block `t`
/// covers `[t*dim/n, (t+1)*dim/n)`.
///
/// # Panics
/// Panics if `n` is zero. [`CellGrid::new`] is the checked way in.
pub fn uniform_bounds(dim: usize, n: usize) -> Vec<usize> {
    // In u128, t·dim cannot wrap whatever the axis length (a file header
    // may declare any); the quotient is exact, and at most dim.
    (0..=n)
        .map(|t| (t as u128 * dim as u128 / n as u128) as usize)
        .collect()
}

/// Why a grid request is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridError {
    /// An axis requests zero cells.
    AxisZero {
        /// The axis.
        axis: usize,
    },
    /// An axis requests more cells than it has indices.
    ExceedsAxis {
        /// The axis.
        axis: usize,
        /// Requested cell count.
        count: usize,
        /// The axis length.
        len: usize,
    },
    /// The cell count does not fit `usize`.
    TooManyCells {
        /// Requested cell counts per axis.
        counts: [usize; NMODES],
    },
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::AxisZero { axis } => write!(f, "grid requests 0 cells along axis {axis}"),
            GridError::ExceedsAxis { axis, count, len } => write!(
                f,
                "grid count {count} exceeds axis length {len} (axis {axis})"
            ),
            GridError::TooManyCells { counts: [a, b, c] } => {
                write!(f, "grid {a}x{b}x{c} has more cells than usize holds")
            }
        }
    }
}

impl std::error::Error for GridError {}

/// A checked `N_A x N_B x N_C` grid over three axes: the uniform bounds
/// of each axis, and the row-major linear cell id `(a * N_B + b) * N_C + c`.
///
/// Invariant: every count is at least 1 and at most its axis length (1 for
/// a 0-long axis), and the cell count fits `usize` — so every id below
/// [`CellGrid::n_cells`] and every product forming one is a `usize` that
/// cannot wrap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellGrid {
    counts: [usize; NMODES],
    bounds: [Vec<usize>; NMODES],
    n_cells: usize,
}

impl CellGrid {
    /// Splits axes of `axis_lens` indices into `counts` uniform blocks.
    pub fn new(axis_lens: [usize; NMODES], counts: [usize; NMODES]) -> Result<Self, GridError> {
        for (axis, (&count, &len)) in counts.iter().zip(&axis_lens).enumerate() {
            if count == 0 {
                return Err(GridError::AxisZero { axis });
            }
            if count > len.max(1) {
                return Err(GridError::ExceedsAxis { axis, count, len });
            }
        }
        let n_cells = counts
            .iter()
            .try_fold(1usize, |n, &c| n.checked_mul(c))
            .ok_or(GridError::TooManyCells { counts })?;
        let mut bounds: [Vec<usize>; NMODES] = Default::default();
        for ((b, &len), &count) in bounds.iter_mut().zip(&axis_lens).zip(&counts) {
            *b = uniform_bounds(len, count);
        }
        Ok(CellGrid {
            counts,
            bounds,
            n_cells,
        })
    }

    /// Cell counts per axis.
    #[inline]
    pub fn counts(&self) -> [usize; NMODES] {
        self.counts
    }

    /// The `counts()[ax] + 1` boundaries of axis `ax`.
    ///
    /// # Panics
    /// Panics if `ax` is not an axis (`ax >= 3`).
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "an axis number, below NMODES")]
    pub fn bounds(&self, ax: usize) -> &[usize] {
        &self.bounds[ax]
    }

    /// Number of cells, empty ones included.
    #[inline]
    pub fn n_cells(&self) -> usize {
        self.n_cells
    }

    /// The row-major linear id of `cell`.
    #[inline]
    pub fn id(&self, [a, b, c]: [usize; NMODES]) -> usize {
        let [_, nb, nc] = self.counts;
        (a * nb + b) * nc + c
    }

    /// The cell of linear id `id` (the inverse of [`CellGrid::id`]).
    #[inline]
    pub fn cell(&self, id: usize) -> [usize; NMODES] {
        let [_, nb, nc] = self.counts;
        [id / nc / nb, id / nc % nb, id % nc]
    }

    /// The cell containing `coords`.
    ///
    /// # Panics
    /// Panics if a coordinate lies outside its axis.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "hot in every layout build; `ax` < NMODES, coordinates in range (see Panics)"
    )]
    pub fn cell_of(&self, coords: [usize; NMODES]) -> [usize; NMODES] {
        [0, 1, 2].map(|ax| self.bounds[ax].partition_point(|&b| b <= coords[ax]) - 1)
    }

    /// The first index of `cell` along each axis.
    ///
    /// # Panics
    /// Panics if `cell` lies outside the grid; callers holding a cell from
    /// outside the process check it against [`CellGrid::counts`] first.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "in-grid cell (see Panics)")]
    pub fn origin(&self, cell: [usize; NMODES]) -> [usize; NMODES] {
        [0, 1, 2].map(|ax| self.bounds[ax][cell[ax]])
    }

    /// The length of `cell` along axis `ax`.
    ///
    /// # Panics
    /// As [`CellGrid::origin`].
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "in-grid cell (see Panics)")]
    pub fn span(&self, cell: [usize; NMODES], ax: usize) -> usize {
        self.bounds[ax][cell[ax] + 1] - self.bounds[ax][cell[ax]]
    }

    /// Test hook: moves boundary `idx` of axis `ax` by `delta`, the seeded
    /// bug checked execution must catch (a layout whose data still follows
    /// the old partition).
    #[expect(
        clippy::indexing_slicing,
        reason = "test hook; an out-of-grid bound is a test bug"
    )]
    pub fn shift_bound_for_test(&mut self, ax: usize, idx: usize, delta: isize) {
        let b = &mut self.bounds[ax][idx];
        *b = b.checked_add_signed(delta).unwrap_or(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn ids_bounds_and_cells_agree(
            l0 in 0usize..30, l1 in 0usize..30, l2 in 0usize..30,
            p0 in 0usize..1000, p1 in 0usize..1000, p2 in 0usize..1000,
        ) {
            let (lens, picks) = ([l0, l1, l2], [p0, p1, p2]);
            let counts = [0, 1, 2].map(|ax| 1 + picks[ax] % lens[ax].max(1));
            let g = CellGrid::new(lens, counts).unwrap();
            prop_assert_eq!(g.n_cells(), counts.iter().product::<usize>());
            for ax in 0..NMODES {
                let b = g.bounds(ax);
                prop_assert_eq!(b.len(), counts[ax] + 1);
                for (t, &x) in b.iter().enumerate() {
                    prop_assert_eq!(x, t * lens[ax] / counts[ax]);
                }
            }
            for id in 0..g.n_cells() {
                let cell = g.cell(id);
                prop_assert_eq!(g.id(cell), id);
                // A nonempty cell contains its own origin.
                if (0..NMODES).all(|ax| g.span(cell, ax) > 0) {
                    prop_assert_eq!(g.cell_of(g.origin(cell)), cell);
                }
            }
            for ax in 0..NMODES {
                for t in 0..counts[ax] {
                    let mut at = [0; NMODES];
                    at[ax] = g.bounds(ax)[t];
                    if at[ax] < lens[ax] {
                        prop_assert_eq!(g.cell_of(at)[ax], t);
                    }
                }
            }
        }
    }

    #[test]
    fn edge_axes() {
        assert_eq!(uniform_bounds(10, 3), [0, 3, 6, 10]);
        // A count equal to the axis length: one index per cell.
        let g = CellGrid::new([5, 1, 0], [5, 1, 1]).unwrap();
        assert_eq!(g.bounds(0), [0, 1, 2, 3, 4, 5]);
        // (A 0-long axis has no coordinate to look up.)
        assert!((0..5).all(|i| g.cell_of([i, 0, 0])[..2] == [i, 0]));
        // A 1-long axis holds one cell; a 0-long axis one empty cell.
        assert_eq!(g.bounds(1), [0, 1]);
        assert_eq!(g.bounds(2), [0, 0]);
        assert_eq!(g.span([0, 0, 0], 2), 0);
        assert_eq!(g.n_cells(), 5);
        assert_eq!(
            CellGrid::new([5, 1, 0], [1, 2, 1]),
            Err(GridError::ExceedsAxis {
                axis: 1,
                count: 2,
                len: 1
            })
        );
        assert_eq!(
            CellGrid::new([5, 1, 0], [1, 1, 2]),
            Err(GridError::ExceedsAxis {
                axis: 2,
                count: 2,
                len: 0
            })
        );
        assert_eq!(
            CellGrid::new([5, 1, 0], [1, 0, 1]),
            Err(GridError::AxisZero { axis: 1 })
        );
    }

    #[test]
    fn bounds_of_an_axis_longer_than_u32_do_not_wrap() {
        // A tile-store header may declare any axis length.
        let len = 1 << 60;
        let g = CellGrid::new([len, 1, 1], [1 << 20, 1, 1]).unwrap();
        assert_eq!(g.bounds(0)[1 << 19], len / 2);
        assert_eq!(*g.bounds(0).last().unwrap(), len);
        assert_eq!(g.span([3, 0, 0], 0), len >> 20);
    }

    #[test]
    fn a_cell_count_past_usize_is_refused() {
        let side = 1 << 22; // 2^66 cells
        let err = CellGrid::new([side; 3], [side; 3]).unwrap_err();
        assert_eq!(err, GridError::TooManyCells { counts: [side; 3] });
        assert!(err.to_string().contains("more cells than usize holds"));
        // 2^33 cells fit, and the largest id decodes to the last cell.
        let g = CellGrid::new([2048; 3], [2048; 3]).unwrap();
        assert_eq!(g.cell(g.n_cells() - 1), [2047; 3]);
        assert_eq!(g.id([1024, 0, 0]), 1 << 32);
    }
}
