//! Dense linear algebra for CP-ALS: grams, Hadamard products, and the
//! Cholesky row solve `A_m = M V⁻¹`.
//!
//! Everything is `R x R` or `n x R`, but `n` is a mode length: at rank 64
//! on a 120k-row mode the solve is a GFLOP per iteration, and the
//! at-scale benchmark showed this module, not MTTKRP, taking most of an
//! ALS iteration. So the two `O(n R²)` routines are written for the
//! vector units:
//!
//! * [`solve_spd_rhs_rows`] runs both triangular sweeps in *axpy* form.
//!   The textbook dot form (`y_i = (b_i − Σ_k L_ik y_k) / L_ii`) is a
//!   serial floating-point reduction the compiler may not reassociate;
//!   the axpy form finishes `y_i` and then subtracts `y_i ·` (column `i`
//!   of `L`) from the entries still open — independent element-wise
//!   updates over a contiguous row of `Lᵀ` (forward) or `L` (backward),
//!   with the diagonal's reciprocal taken once per factorization. One
//!   column at a time that loop is bound by its stores, so two pivots'
//!   columns are subtracted per pass (same operations, same order).
//! * [`gram`] accumulates the upper triangle only and mirrors it, over
//!   fixed-height row panels whose partial grams are added in panel
//!   order, so the result has the same bits on one thread and on many.
//!
//! The public functions are serial. The ALS loop calls the `pub(crate)`
//! `*_with` forms, which take the caller's [`Threads`] and spread row
//! chunks over the rayon shim; rows are independent in the solve and the
//! column scale, and the gram's panel order is fixed, so every result is
//! bit-identical to the serial one.

use rayon::prelude::*;
use tenblock_core::Threads;
use tenblock_tensor::DenseMatrix;

/// Rows per partial gram. A constant, not a function of the thread count:
/// the panel sums and the order they are added in define the result's bits.
const GRAM_PANEL_ROWS: usize = 1024;

/// Ridge escalations tried before a system is declared unsolvable; each
/// multiplies the added diagonal by 100, so the last adds ~1e20 times the
/// mean diagonal — past that only a non-finite matrix is still failing.
const MAX_RIDGE_STEPS: usize = 16;

/// Runs `f` over the rows of `a`: in one call when serial, else over
/// disjoint chunks of whole rows (four per worker, like the kernels) on the
/// rayon shim. `f` must treat rows independently, so the split is invisible.
fn for_row_chunks(a: &mut DenseMatrix, threads: Threads, f: impl Fn(&mut [f64]) + Sync) {
    if threads.is_parallel() {
        let rows = a.rows().div_ceil(4 * threads.workers()).max(1);
        a.par_row_chunks_mut(rows)
            .into_par_iter()
            .for_each(|(_, chunk)| f(chunk));
    } else {
        f(a.as_mut_slice());
    }
}

/// The gram matrix `Aᵀ A` (`R x R`, symmetric) of an `n x R` factor.
pub fn gram(a: &DenseMatrix) -> DenseMatrix {
    gram_with(a, Threads::Serial)
}

/// Adds the upper triangle of `panelᵀ panel` into `part` (`r x r`).
fn gram_panel_upper(panel: &[f64], r: usize, part: &mut [f64]) {
    for row in panel.chunks_exact(r) {
        for (p, (&v, grow)) in row.iter().zip(part.chunks_exact_mut(r)).enumerate() {
            for (g, &w) in grow[p..].iter_mut().zip(&row[p..]) {
                *g += v * w;
            }
        }
    }
}

/// [`gram`] with the panels spread over `threads`. Same bits either way:
/// each panel's partial is computed alone and the partials are added in
/// panel order.
pub(crate) fn gram_with(a: &DenseMatrix, threads: Threads) -> DenseMatrix {
    let r = a.cols();
    let mut g = DenseMatrix::zeros(r, r);
    if r == 0 {
        return g;
    }
    let panels = a.rows().div_ceil(GRAM_PANEL_ROWS);
    let mut partials = vec![0.0; panels * r * r];
    let jobs: Vec<(&[f64], &mut [f64])> = a
        .as_slice()
        .chunks(GRAM_PANEL_ROWS * r)
        .zip(partials.chunks_exact_mut(r * r))
        .collect();
    let accumulate = |(panel, part): (&[f64], &mut [f64])| gram_panel_upper(panel, r, part);
    if threads.is_parallel() {
        jobs.into_par_iter().for_each(accumulate);
    } else {
        jobs.into_iter().for_each(accumulate);
    }
    for part in partials.chunks_exact(r * r) {
        for (x, &y) in g.as_mut_slice().iter_mut().zip(part) {
            *x += y;
        }
    }
    for p in 0..r {
        for q in 0..p {
            g.set(p, q, g.get(q, p));
        }
    }
    g
}

/// Element-wise (Hadamard) product, in place: `a .*= b`.
///
/// # Panics
/// Panics on shape mismatch.
pub fn hadamard_assign(a: &mut DenseMatrix, b: &DenseMatrix) {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "shape mismatch");
    for (x, &y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x *= y;
    }
}

/// Cholesky factorization of a symmetric positive-definite matrix:
/// returns lower-triangular `L` with `L Lᵀ = A`, or `None` if a pivot is
/// not positive and finite (so a NaN or infinite entry is a rejection,
/// never a factor full of NaN).
pub fn cholesky(a: &DenseMatrix) -> Option<DenseMatrix> {
    assert_eq!(a.rows(), a.cols(), "matrix must be square");
    let n = a.rows();
    let mut l = DenseMatrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a.get(i, j);
            for k in 0..j {
                sum -= l.get(i, k) * l.get(j, k);
            }
            if i == j {
                // Test the accepting side: `sum <= 0.0` is false for NaN.
                if sum > 0.0 && sum.is_finite() {
                    l.set(i, j, sum.sqrt());
                } else {
                    return None;
                }
            } else {
                l.set(i, j, sum / l.get(j, j));
            }
        }
    }
    Some(l)
}

/// [`cholesky`] of `a`, or of `a + εI` with a scale-aware `ε` grown 100×
/// per failure. `None` when `a` is not finite or no ridge within
/// [`MAX_RIDGE_STEPS`] makes it positive definite.
fn factor_with_ridge(a: &DenseMatrix) -> Option<DenseMatrix> {
    if !a.as_slice().iter().all(|v| v.is_finite()) {
        return None;
    }
    if let Some(l) = cholesky(a) {
        return Some(l);
    }
    let n = a.rows();
    let trace: f64 = (0..n).map(|i| a.get(i, i)).sum();
    let mut eps = (trace / n as f64).max(1.0) * 1e-10;
    let mut reg = a.clone();
    for _ in 0..MAX_RIDGE_STEPS {
        for i in 0..n {
            reg.set(i, i, reg.get(i, i) + eps);
        }
        if let Some(l) = cholesky(&reg) {
            return Some(l);
        }
        eps *= 100.0;
    }
    None
}

/// A Cholesky factor laid out for the row solves: `L` and `Lᵀ` both
/// row-major, so each sweep reads the column of `L` it needs as a
/// contiguous row, plus `1 / L_ii`.
struct RowSolver {
    l: DenseMatrix,
    lt: DenseMatrix,
    rdiag: Vec<f64>,
}

/// `open[k] -= c0[k]·p0 + c1[k]·p1`, subtracted in that order: two pivots'
/// columns per pass, so each open entry is loaded and stored once for both
/// (the sweeps are store-bound one column at a time).
#[inline]
fn subtract_two_columns(open: &mut [f64], (c0, p0): (&[f64], f64), (c1, p1): (&[f64], f64)) {
    for ((o, &a), &b) in open.iter_mut().zip(c0).zip(c1) {
        *o = (*o - a * p0) - b * p1;
    }
}

impl RowSolver {
    fn new(l: DenseMatrix) -> Self {
        let n = l.rows();
        let lt = DenseMatrix::from_fn(n, n, |r, c| l.get(c, r));
        let rdiag = (0..n).map(|i| 1.0 / l.get(i, i)).collect();
        RowSolver { l, lt, rdiag }
    }

    /// Overwrites `x`, which holds a right-hand side `b`, with the solution
    /// of `(L Lᵀ) x = b`.
    fn solve_row(&self, x: &mut [f64]) {
        let n = self.rdiag.len();
        let rd = self.rdiag.as_slice();
        // Forward, L y = b, two pivots at a time from the top: y_i is
        // final once every earlier column has been subtracted, y_{i+1}
        // one step later; then both columns of L (rows i, i+1 of Lᵀ)
        // leave the entries below. An odd n leaves the last pivot, with
        // nothing below it.
        for i in (0..n - n % 2).step_by(2) {
            let (c0, c1) = (self.lt.row(i), self.lt.row(i + 1));
            let (done, open) = x.split_at_mut(i + 2);
            let y0 = done[i] * rd[i];
            let y1 = (done[i + 1] - c0[i + 1] * y0) * rd[i + 1];
            (done[i], done[i + 1]) = (y0, y1);
            subtract_two_columns(open, (&c0[i + 2..], y0), (&c1[i + 2..], y1));
        }
        if n % 2 == 1 {
            x[n - 1] *= rd[n - 1];
        }
        // Backward, Lᵀ x = y, the same from the bottom: column i of Lᵀ is
        // row i of L, and an odd n leaves pivot 0.
        for i in (n % 2..n).step_by(2).rev() {
            let (c0, c1) = (self.l.row(i), self.l.row(i + 1));
            let (open, done) = x.split_at_mut(i);
            let x1 = done[1] * rd[i + 1];
            let x0 = (done[0] - c1[i] * x1) * rd[i];
            (done[0], done[1]) = (x0, x1);
            subtract_two_columns(open, (&c1[..i], x1), (&c0[..i], x0));
        }
        if n % 2 == 1 {
            x[0] *= rd[0];
        }
    }
}

/// Solves `X * A = B` for `X` (each row of `B` independently), where `A`
/// is symmetric positive semi-definite (`R x R`) and `B` is `n x R` — the
/// ALS factor update `A_new = M · V⁻¹`. Falls back to a ridge
/// (`A + εI`) when `A` is singular. If `A` is not finite (or no ridge
/// factors it) there is no solution to return: every entry of the result
/// is NaN, which callers must check for.
pub fn solve_spd_rhs_rows(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let mut x = b.clone();
    solve_spd_rows_in_place(a, &mut x, Threads::Serial);
    x
}

/// [`solve_spd_rhs_rows`] overwriting the right-hand sides, with row
/// chunks spread over `threads`.
pub(crate) fn solve_spd_rows_in_place(a: &DenseMatrix, x: &mut DenseMatrix, threads: Threads) {
    assert_eq!(a.rows(), a.cols(), "system matrix must be square");
    assert_eq!(x.cols(), a.rows(), "rhs width must match system size");
    let n = a.rows();
    if n == 0 {
        return;
    }
    let Some(l) = factor_with_ridge(a) else {
        x.as_mut_slice().fill(f64::NAN);
        return;
    };
    let solver = RowSolver::new(l);
    for_row_chunks(x, threads, |chunk| {
        chunk
            .chunks_exact_mut(n)
            .for_each(|row| solver.solve_row(row))
    });
}

/// Multiplies column `c` of `a` by `scale[c]`, row chunks spread over
/// `threads`.
pub(crate) fn scale_columns_with(a: &mut DenseMatrix, scale: &[f64], threads: Threads) {
    assert_eq!(a.cols(), scale.len(), "one scale per column");
    if scale.is_empty() {
        return;
    }
    for_row_chunks(a, threads, |chunk| {
        for row in chunk.chunks_exact_mut(scale.len()) {
            for (v, &s) in row.iter_mut().zip(scale) {
                *v *= s;
            }
        }
    });
}

/// Euclidean norms of each column of an `n x R` matrix.
pub fn column_norms(a: &DenseMatrix) -> Vec<f64> {
    let mut norms = vec![0.0; a.cols()];
    for i in 0..a.rows() {
        for (n, &v) in norms.iter_mut().zip(a.row(i)) {
            *n += v * v;
        }
    }
    norms.iter_mut().for_each(|n| *n = n.sqrt());
    norms
}

/// Divides each column by its norm (columns with zero norm are left
/// untouched) and returns the norms.
pub fn normalize_columns(a: &mut DenseMatrix) -> Vec<f64> {
    let norms = column_norms(a);
    for i in 0..a.rows() {
        for (v, &n) in a.row_mut(i).iter_mut().zip(&norms) {
            if n > 0.0 {
                *v /= n;
            }
        }
    }
    norms
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        DenseMatrix::from_fn(rows, cols, |_, _| rng.random::<f64>() + 0.05)
    }

    /// `A * B` for `m x k` times `k x n`: the plain product the solve and
    /// the gram are checked against.
    fn matmul(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
        let mut out = DenseMatrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for (p, &av) in a.row(i).iter().enumerate() {
                for (o, &bv) in out.row_mut(i).iter_mut().zip(b.row(p)) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// The solve as it was before the axpy sweeps: scalar dot-form
    /// substitution with a division per step, on the same factor.
    fn reference_solve(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        let n = a.rows();
        let l = factor_with_ridge(a).expect("reference systems are finite");
        let mut out = DenseMatrix::zeros(b.rows(), n);
        let mut y = vec![0.0; n];
        for r in 0..b.rows() {
            let rhs = b.row(r);
            for i in 0..n {
                let mut s = rhs[i];
                for k in 0..i {
                    s -= l.get(i, k) * y[k];
                }
                y[i] = s / l.get(i, i);
            }
            let orow = out.row_mut(r);
            for i in (0..n).rev() {
                let mut s = y[i];
                for k in i + 1..n {
                    s -= l.get(k, i) * orow[k];
                }
                orow[i] = s / l.get(i, i);
            }
        }
        out
    }

    /// The gram as it was: both triangles behind a zero test, rows in order.
    fn reference_gram(rows: &[f64], r: usize) -> DenseMatrix {
        let mut g = DenseMatrix::zeros(r, r);
        for row in rows.chunks_exact(r) {
            for p in (0..r).filter(|&p| row[p] != 0.0) {
                for q in 0..r {
                    g.set(p, q, g.get(p, q) + row[p] * row[q]);
                }
            }
        }
        g
    }

    /// `‖X A − B‖_F`.
    fn residual(x: &DenseMatrix, a: &DenseMatrix, b: &DenseMatrix) -> f64 {
        let xa = matmul(x, a);
        let sq: f64 = (xa.as_slice().iter().zip(b.as_slice()))
            .map(|(p, q)| (p - q) * (p - q))
            .sum();
        sq.sqrt()
    }

    #[test]
    fn matmul_known() {
        let a = DenseMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = DenseMatrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn gram_is_ata() {
        let a = DenseMatrix::from_fn(5, 3, |r, c| (r * 3 + c) as f64 * 0.5);
        let g = gram(&a);
        // compare against explicit AᵀA via matmul with a transposed copy
        let at = DenseMatrix::from_fn(3, 5, |r, c| a.get(c, r));
        let expect = matmul(&at, &a);
        assert!(g.approx_eq(&expect, 1e-12));
        // symmetry
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(g.get(i, j), g.get(j, i));
            }
        }
    }

    #[test]
    fn hadamard_elementwise() {
        let mut a = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = DenseMatrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        hadamard_assign(&mut a, &b);
        assert_eq!(a.as_slice(), &[5.0, 12.0, 21.0, 32.0]);
    }

    #[test]
    fn cholesky_of_identityish() {
        let a = DenseMatrix::from_fn(3, 3, |r, c| if r == c { 4.0 } else { 0.0 });
        let l = cholesky(&a).unwrap();
        for i in 0..3 {
            assert!((l.get(i, i) - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]); // eigenvalues 3, -1
        assert!(cholesky(&a).is_none());
    }

    #[test]
    fn spd_solve_recovers_solution() {
        // A = Mᵀ M + I (SPD), X random, B = X A; solve must recover X.
        let m = DenseMatrix::from_fn(4, 4, |r, c| ((r * 5 + c * 3) % 7) as f64 * 0.3);
        let mut a = gram(&m);
        for i in 0..4 {
            a.set(i, i, a.get(i, i) + 1.0);
        }
        let x = DenseMatrix::from_fn(6, 4, |r, c| ((r + 2 * c) % 5) as f64 - 2.0);
        let b = matmul(&x, &a);
        let got = solve_spd_rhs_rows(&a, &b);
        assert!(x.approx_eq(&got, 1e-8), "max diff {}", x.max_abs_diff(&got));
    }

    #[test]
    fn singular_system_uses_ridge() {
        // rank-deficient A (duplicate columns): solution exists for
        // consistent rhs; ridge keeps it finite.
        let mut a = DenseMatrix::zeros(3, 3);
        a.set(0, 0, 1.0);
        a.set(1, 1, 1.0);
        // third row/col zero -> singular
        let b = DenseMatrix::from_vec(1, 3, vec![2.0, 3.0, 0.0]);
        let x = solve_spd_rhs_rows(&a, &b);
        assert!(x.as_slice().iter().all(|v| v.is_finite()));
        assert!((x.get(0, 0) - 2.0).abs() < 1e-3);
        assert!((x.get(0, 1) - 3.0).abs() < 1e-3);

        let zero = solve_spd_rhs_rows(&DenseMatrix::zeros(3, 3), &b);
        assert!(zero.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn cholesky_rejects_a_nan_pivot() {
        // `sum <= 0.0` is false for NaN: the old test let this through.
        let mut a = DenseMatrix::from_vec(2, 2, vec![4.0, 1.0, 1.0, 3.0]);
        a.set(1, 1, f64::NAN);
        assert!(cholesky(&a).is_none());
        a.set(1, 1, f64::INFINITY);
        assert!(cholesky(&a).is_none());
        // NaN off the diagonal reaches a pivot through the update.
        let b = DenseMatrix::from_vec(2, 2, vec![4.0, f64::NAN, f64::NAN, 3.0]);
        assert!(cholesky(&b).is_none());
    }

    #[test]
    fn non_finite_system_returns_nan_without_looping_or_panicking() {
        let rhs = random(5, 3, 1);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut a = gram(&random(6, 3, 2));
            a.set(2, 0, bad);
            a.set(0, 2, bad);
            let x = solve_spd_rhs_rows(&a, &rhs);
            assert_eq!((x.rows(), x.cols()), (5, 3));
            assert!(x.as_slice().iter().all(|v| v.is_nan()));
        }
        // Finite, but past any ridge: the escalation is bounded.
        let huge = DenseMatrix::from_vec(2, 2, vec![-1e308, 0.0, 0.0, -1e308]);
        let x = solve_spd_rhs_rows(&huge, &random(2, 2, 3));
        assert!(x.as_slice().iter().all(|v| v.is_nan()));
    }

    #[test]
    fn axpy_solve_matches_the_dot_form_reference() {
        for n in [1, 2, 7, 16, 17, 64] {
            // gram of a tall random matrix plus a diagonal: well conditioned
            let mut a = gram(&random(4 * n + 3, n, n as u64));
            for i in 0..n {
                a.set(i, i, a.get(i, i) + n as f64);
            }
            for rows in [0, 1, 5, 1_000] {
                let b = random(rows, n, (n * 31 + rows) as u64);
                let got = solve_spd_rhs_rows(&a, &b);
                let want = reference_solve(&a, &b);
                assert_eq!((got.rows(), got.cols()), (rows, n));
                for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                    assert!(
                        (g - w).abs() <= 1e-10 * w.abs().max(1e-3),
                        "n = {n}, rows = {rows}: {g} vs {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn axpy_solve_is_as_backward_stable_as_the_reference() {
        for n in [7, 16, 64] {
            // Near-singular: the Hadamard gram of factors whose last two
            // columns differ in the ninth digit.
            let mut f = random(3 * n, n, 7 + n as u64);
            for r in 0..f.rows() {
                f.set(r, n - 1, f.get(r, n - 2) * (1.0 + 1e-9 * r as f64));
            }
            let mut near = gram(&f);
            hadamard_assign(&mut near, &gram(&random(2 * n, n, 9)));
            // Ridge path: exactly duplicated columns, so the plain
            // factorization fails or is meaningless.
            let mut g = random(3 * n, n, 11);
            for r in 0..g.rows() {
                g.set(r, n - 1, g.get(r, 0));
            }
            let singular = gram(&g);
            for a in [near, singular] {
                let b = random(200, n, 13);
                let got = residual(&solve_spd_rhs_rows(&a, &b), &a, &b);
                let want = residual(&reference_solve(&a, &b), &a, &b);
                assert!(
                    got <= 4.0 * want + 1e-12 * b.frob_norm(),
                    "n = {n}: residual {got} vs reference {want}"
                );
            }
        }
    }

    #[test]
    fn gram_is_symmetric_and_keeps_the_old_loops_bits() {
        for (rows, r) in [(5, 3), (GRAM_PANEL_ROWS, 8), (2 * GRAM_PANEL_ROWS + 77, 17)] {
            let a = random(rows, r, rows as u64);
            let g = gram(&a);
            for p in 0..r {
                for q in 0..r {
                    assert_eq!(g.get(p, q).to_bits(), g.get(q, p).to_bits());
                }
            }
            // The old loop on each panel, panels added in order: dropping
            // the zero test and the lower triangle changes no bit of a
            // dense input's gram.
            let mut want = DenseMatrix::zeros(r, r);
            for panel in a.as_slice().chunks(GRAM_PANEL_ROWS * r) {
                let part = reference_gram(panel, r);
                for (w, &p) in want.as_mut_slice().iter_mut().zip(part.as_slice()) {
                    *w += p;
                }
            }
            assert_eq!(g, want, "{rows} x {r}");
        }
        assert_eq!(gram(&DenseMatrix::zeros(4, 0)).rows(), 0);
    }

    #[test]
    fn chunked_forms_are_bit_identical_to_serial() {
        let par = Threads::Fixed(3);
        let a = random(3 * GRAM_PANEL_ROWS + 5, 17, 21);
        assert_eq!(gram_with(&a, par), gram_with(&a, Threads::Serial));

        let mut v = gram(&random(40, 17, 22));
        hadamard_assign(&mut v, &gram(&random(50, 17, 23)));
        let (mut serial, mut chunked) = (a.clone(), a.clone());
        solve_spd_rows_in_place(&v, &mut serial, Threads::Serial);
        solve_spd_rows_in_place(&v, &mut chunked, par);
        assert_eq!(serial, chunked);
        assert_eq!(serial, solve_spd_rhs_rows(&v, &a));

        let scale: Vec<f64> = (0..17).map(|c| 1.0 / (c as f64 + 0.3)).collect();
        scale_columns_with(&mut serial, &scale, Threads::Serial);
        scale_columns_with(&mut chunked, &scale, par);
        assert_eq!(serial, chunked);
    }

    #[test]
    fn normalization() {
        let mut a = DenseMatrix::from_vec(2, 2, vec![3.0, 0.0, 4.0, 0.0]);
        let norms = normalize_columns(&mut a);
        assert!((norms[0] - 5.0).abs() < 1e-12);
        assert_eq!(norms[1], 0.0);
        assert!((a.get(0, 0) - 0.6).abs() < 1e-12);
        assert!((a.get(1, 0) - 0.8).abs() < 1e-12);
        assert_eq!(a.get(0, 1), 0.0);
    }
}
