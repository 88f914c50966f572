//! Dense factor matrices.
//!
//! [`DenseMatrix`] is the row-major layout every kernel reads; the rank
//! strips of Section V-B are column windows of it.

use std::fmt;

/// `rows * cols`, checked: a wrapped product would give a buffer shorter
/// than the shape every accessor trusts. No such matrix fits in memory, so
/// overflow is a caller's bug and panics, like a length mismatch in
/// [`DenseMatrix::from_vec`].
fn element_count(rows: usize, cols: usize) -> usize {
    rows.checked_mul(cols)
        .unwrap_or_else(|| panic!("a {rows} x {cols} matrix has more elements than usize holds"))
}

/// A row-major dense matrix of `f64`, used for factor matrices.
#[derive(Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// A zero-filled `rows x cols` matrix.
    ///
    /// # Panics
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; element_count(rows, cols)],
        }
    }

    /// Builds a matrix from row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`, or the product overflows.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            element_count(rows, cols),
            "data length must equal rows*cols"
        );
        DenseMatrix { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(row, col)`.
    ///
    /// # Panics
    /// Panics if `rows * cols` overflows `usize`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(element_count(rows, cols));
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        DenseMatrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (the decomposition rank for factor matrices).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// The backing row-major slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The backing row-major slice, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Splits the matrix into disjoint mutable row chunks of `chunk_rows`
    /// rows each (the last chunk may be shorter). Used to hand disjoint
    /// output ranges to rayon workers.
    pub fn par_row_chunks_mut(&mut self, chunk_rows: usize) -> Vec<(usize, &mut [f64])> {
        assert!(chunk_rows > 0);
        let cols = self.cols;
        self.data
            .chunks_mut(chunk_rows * cols)
            .enumerate()
            .map(|(c, chunk)| (c * chunk_rows, chunk))
            .collect()
    }

    /// Fills the matrix with zeros.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Frobenius norm.
    pub fn frob_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Largest absolute element-wise difference to `other`.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> f64 {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// True if all elements are within `tol` of `other`, scaled by magnitude
    /// (`|a-b| <= tol * max(1, |a|, |b|)`).
    pub fn approx_eq(&self, other: &DenseMatrix, tol: f64) -> bool {
        if (self.rows, self.cols) != (other.rows, other.cols) {
            return false;
        }
        self.data.iter().zip(&other.data).all(|(a, b)| {
            let scale = 1.0_f64.max(a.abs()).max(b.abs());
            (a - b).abs() <= tol * scale
        })
    }
}

impl fmt::Debug for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DenseMatrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 64 {
            writeln!(f)?;
            for r in 0..self.rows {
                writeln!(f, "  {:?}", self.row(r))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_access() {
        let mut m = DenseMatrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        m.set(1, 2, 7.5);
        assert_eq!(m.get(1, 2), 7.5);
        assert_eq!(m.row(1), &[0.0, 0.0, 7.5, 0.0]);
    }

    #[test]
    #[should_panic(expected = "more elements than usize holds")]
    fn zeros_refuses_an_overflowing_shape() {
        // Wrapped, the product is 0: an empty buffer under a huge shape.
        let _ = DenseMatrix::zeros(1 << (usize::BITS - 1), 2);
    }

    #[test]
    #[should_panic(expected = "more elements than usize holds")]
    fn from_fn_refuses_an_overflowing_shape() {
        let _ = DenseMatrix::from_fn(usize::MAX, 3, |_, _| 0.0);
    }

    #[test]
    #[should_panic(expected = "more elements than usize holds")]
    fn from_vec_refuses_an_overflowing_shape() {
        let _ = DenseMatrix::from_vec(1 << (usize::BITS - 1), 2, Vec::new());
    }

    #[test]
    fn from_fn_layout() {
        let m = DenseMatrix::from_fn(2, 3, |r, c| (r * 10 + c) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn row_chunks_are_disjoint_and_cover() {
        let mut m = DenseMatrix::from_fn(5, 2, |r, _| r as f64);
        let chunks = m.par_row_chunks_mut(2);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].0, 0);
        assert_eq!(chunks[1].0, 2);
        assert_eq!(chunks[2].0, 4);
        let total: usize = chunks.iter().map(|(_, c)| c.len()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn approx_eq_and_diff() {
        let a = DenseMatrix::from_fn(2, 2, |r, c| (r + c) as f64);
        let mut b = a.clone();
        assert!(a.approx_eq(&b, 0.0));
        b.set(1, 1, b.get(1, 1) + 1e-9);
        assert!(a.approx_eq(&b, 1e-8));
        assert!(!a.approx_eq(&b, 1e-12));
        assert!(a.max_abs_diff(&b) > 0.0);
    }
}
