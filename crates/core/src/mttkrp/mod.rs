//! MTTKRP kernels: the inner loops [`crate::block::BlockedKernel`] runs
//! (Algorithm 1's accumulator loop and Algorithm 2's register-blocked one),
//! the COO, CSF and BCOO kernels, and a dense reference implementation.

mod allmode;
mod bcoo;
mod coo;
mod csf;
mod dense_ref;
pub(crate) mod micro;

pub use allmode::AllModeKernel;
pub use bcoo::BcooKernel;
pub use coo::CooKernel;
pub use csf::{nd_mttkrp_reference, Csf3Kernel, CsfKernel};
pub use dense_ref::dense_mttkrp;

use tenblock_tensor::{DenseMatrix, SplattTensor, StripMatrix};

/// Register-block width: 16 doubles = 128 bytes = one POWER8 cache line,
/// the paper's `N_RegB = 16` (Algorithm 2).
pub const REG_BLOCK: usize = 16;

/// The full [`REG_BLOCK`]-wide chunk of `row` starting at `col`.
///
/// Shared by every register loop so the one infallible slice-to-array
/// conversion (and its lint waiver) lives in a single place. Callers
/// guarantee `col + REG_BLOCK <= row.len()`.
#[inline(always)]
pub(crate) fn reg_chunk(row: &[f64], col: usize) -> &[f64; REG_BLOCK] {
    // Infallible: the slice is exactly REG_BLOCK long, and the hot loops
    // must stay branch-free. Re-audited by the panic-reach pass (PR 8):
    // every witnessed chain (BlockedKernel/Csf3Kernel::mttkrp → … →
    // reg_chunk) reaches this site through a
    // `while col + REG_BLOCK <= width` guard over a width-long window.
    row[col..col + REG_BLOCK].try_into().unwrap() // lint: allow(no-unwrap, panic-reach)
}

/// A read-only view of one column window of a factor matrix, by row.
///
/// Implementations exist for a column slice of a [`DenseMatrix`] and for a
/// strip of a [`StripMatrix`], so the register-blocked inner loop is
/// monomorphized for both layouts.
pub trait RowWindow: Sync {
    /// The window of row `r`; length is the window width for every row.
    fn window(&self, r: usize) -> &[f64];
}

/// Column window `[col0, col0 + width)` of a dense matrix.
#[derive(Clone, Copy)]
pub struct DenseWindow<'m> {
    m: &'m DenseMatrix,
    col0: usize,
    width: usize,
}

impl<'m> DenseWindow<'m> {
    /// Creates a window; `col0 + width` must not exceed the column count.
    pub fn new(m: &'m DenseMatrix, col0: usize, width: usize) -> Self {
        assert!(col0 + width <= m.cols(), "window out of range");
        DenseWindow { m, col0, width }
    }
}

impl RowWindow for DenseWindow<'_> {
    #[inline]
    fn window(&self, r: usize) -> &[f64] {
        &self.m.row(r)[self.col0..self.col0 + self.width]
    }
}

/// One strip of a [`StripMatrix`] (rows are contiguous in memory).
#[derive(Clone, Copy)]
pub struct StripWindow<'m> {
    m: &'m StripMatrix,
    strip: usize,
}

impl<'m> StripWindow<'m> {
    /// Creates a view of strip `strip`.
    pub fn new(m: &'m StripMatrix, strip: usize) -> Self {
        assert!(strip < m.n_strips(), "strip out of range");
        StripWindow { m, strip }
    }
}

impl RowWindow for StripWindow<'_> {
    #[inline]
    fn window(&self, r: usize) -> &[f64] {
        self.m.strip_row(self.strip, r)
    }
}

/// Algorithm 1 inner loops over one (sub-)tensor, writing into the output
/// rows `[row0, row0 + n)` provided as a raw row-major buffer.
///
/// For every fiber, the length-`R` accumulator `accum` collects
/// `val * B[j]` over the fiber's nonzeros, then folds into the output row
/// via a Hadamard product with `C[kid]` — exactly lines 3–9 of Algorithm 1.
/// `slices` selects the local slice subrange to process (use
/// `0..t.n_slices()` for the whole tensor); this is how the rayon-parallel
/// kernels hand disjoint output-row chunks to workers.
pub(crate) fn process_block_plain(
    t: &SplattTensor,
    b: &DenseMatrix,
    c: &DenseMatrix,
    slices: std::ops::Range<usize>,
    out_rows: &mut [f64],
    row0: usize,
    accum: &mut [f64],
) {
    let rank = accum.len();
    let (_, _, _, j_idx, vals) = t.raw();
    for s in slices {
        let g = t.slice_global(s);
        let orow = &mut out_rows[(g - row0) * rank..(g - row0) * rank + rank];
        for f in t.slice_fibers(s) {
            accum.fill(0.0);
            for n in t.fiber_nnz(f) {
                let v = vals[n];
                let brow = b.row(j_idx[n] as usize);
                for (a, &bv) in accum.iter_mut().zip(brow) {
                    *a += v * bv;
                }
            }
            let crow = c.row(t.fiber_kid(f) as usize);
            for ((o, &a), &cv) in orow.iter_mut().zip(accum.iter()).zip(crow) {
                *o += a * cv;
            }
        }
    }
}

/// Algorithm 2 inner loops: register-blocked processing of one column
/// window of width `width` over one (sub-)tensor.
///
/// The window is processed in chunks of [`REG_BLOCK`] columns; each chunk
/// re-traverses the fiber's nonzeros with a fixed-size register accumulator,
/// eliminating the heap accumulator loads of Algorithm 1 (the paper's
/// register blocking). The fiber data has "extremely short re-use distance"
/// across chunks and stays cached.
///
/// `out_col0` is the column in `out_rows` where the window starts (equal to
/// the window's first rank column); `rank` is the full width of `out_rows`
/// rows.
#[allow(clippy::too_many_arguments)]
pub(crate) fn process_block_rankb<B: RowWindow, C: RowWindow>(
    t: &SplattTensor,
    b: &B,
    c: &C,
    slices: std::ops::Range<usize>,
    out_rows: &mut [f64],
    row0: usize,
    rank: usize,
    out_col0: usize,
    width: usize,
) {
    let (_, _, _, j_idx, vals) = t.raw();
    for s in slices {
        let g = t.slice_global(s);
        let obase = (g - row0) * rank + out_col0;
        for f in t.slice_fibers(s) {
            let crow = c.window(t.fiber_kid(f) as usize);
            let nz = t.fiber_nnz(f);
            let mut col = 0;
            // full 16-wide register chunks
            while col + REG_BLOCK <= width {
                let mut reg = [0.0f64; REG_BLOCK];
                for n in nz.clone() {
                    let v = vals[n];
                    let bchunk = reg_chunk(b.window(j_idx[n] as usize), col);
                    for l in 0..REG_BLOCK {
                        reg[l] += v * bchunk[l];
                    }
                }
                let cchunk = reg_chunk(crow, col);
                let orow = &mut out_rows[obase + col..obase + col + REG_BLOCK];
                for l in 0..REG_BLOCK {
                    orow[l] += reg[l] * cchunk[l];
                }
                col += REG_BLOCK;
            }
            // remainder chunk (< 16 columns)
            if col < width {
                let w = width - col;
                let mut reg = [0.0f64; REG_BLOCK];
                for n in nz.clone() {
                    let v = vals[n];
                    let brow = &b.window(j_idx[n] as usize)[col..col + w];
                    for (l, &bv) in brow.iter().enumerate() {
                        reg[l] += v * bv;
                    }
                }
                let orow = &mut out_rows[obase + col..obase + col + w];
                for (l, o) in orow.iter_mut().enumerate() {
                    *o += reg[l] * crow[col + l];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenblock_tensor::coo::MODE1_PERM;
    use tenblock_tensor::CooTensor;

    fn tiny() -> (CooTensor, DenseMatrix, DenseMatrix) {
        let x = CooTensor::from_triples(
            [3, 3, 3],
            &[0, 0, 0, 1, 1, 1, 2],
            &[0, 1, 1, 0, 1, 2, 0],
            &[0, 1, 2, 2, 1, 2, 0],
            &[5.0, 3.0, 1.0, 2.0, 9.0, 7.0, 9.0],
        );
        let b = DenseMatrix::from_fn(3, 4, |r, c| (r * 4 + c + 1) as f64);
        let c = DenseMatrix::from_fn(3, 4, |r, c| ((r + 2) * (c + 1)) as f64 * 0.5);
        (x, b, c)
    }

    #[test]
    fn plain_and_rankb_agree() {
        let (x, b, c) = tiny();
        let t = SplattTensor::from_coo(&x, MODE1_PERM);
        let rank = 4;
        let mut out_plain = vec![0.0; 3 * rank];
        let mut accum = vec![0.0; rank];
        process_block_plain(&t, &b, &c, 0..3, &mut out_plain, 0, &mut accum);

        let mut out_rb = vec![0.0; 3 * rank];
        let bw = DenseWindow::new(&b, 0, rank);
        let cw = DenseWindow::new(&c, 0, rank);
        process_block_rankb(&t, &bw, &cw, 0..3, &mut out_rb, 0, rank, 0, rank);

        for (p, r) in out_plain.iter().zip(&out_rb) {
            assert!((p - r).abs() < 1e-12, "{p} vs {r}");
        }
    }

    #[test]
    fn rankb_wide_rank_with_remainder() {
        let (x, _, _) = tiny();
        let rank = 37; // 2 full chunks of 16 + remainder of 5
        let b = DenseMatrix::from_fn(3, rank, |r, c| ((r + 1) * (c + 1)) as f64 * 0.01);
        let c = DenseMatrix::from_fn(3, rank, |r, c| ((r * 7 + c) % 11) as f64);
        let t = SplattTensor::from_coo(&x, MODE1_PERM);

        let mut out_plain = vec![0.0; 3 * rank];
        let mut accum = vec![0.0; rank];
        process_block_plain(&t, &b, &c, 0..3, &mut out_plain, 0, &mut accum);

        let mut out_rb = vec![0.0; 3 * rank];
        let bw = DenseWindow::new(&b, 0, rank);
        let cw = DenseWindow::new(&c, 0, rank);
        process_block_rankb(&t, &bw, &cw, 0..3, &mut out_rb, 0, rank, 0, rank);

        for (p, r) in out_plain.iter().zip(&out_rb) {
            assert!((p - r).abs() < 1e-9, "{p} vs {r}");
        }
    }

    #[test]
    fn strip_window_matches_dense_window() {
        let m = DenseMatrix::from_fn(5, 20, |r, c| (r * 100 + c) as f64);
        let s = StripMatrix::from_dense(&m, 8);
        for strip in 0..s.n_strips() {
            let dw = DenseWindow::new(&m, s.col_begin(strip), s.width_of(strip));
            let sw = StripWindow::new(&s, strip);
            for r in 0..5 {
                assert_eq!(dw.window(r), sw.window(r));
            }
        }
    }
}
