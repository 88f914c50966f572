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
//! * On AVX-512 and AVX2 the sweeps put **rows across the SIMD lanes**:
//!   16 (or 8) right-hand sides are transposed into a lane-major panel, the
//!   `L`/`Lᵀ` entries are broadcast, and each lane performs exactly its
//!   scalar row's multiplies and subtractions in the same order — separate
//!   multiply and subtract, no FMA, no reassociation — so every bit equals
//!   the one-row sweep's. Leftover rows run the one-row sweep. This does
//!   not contradict the earlier finding that four right-hand sides per pass
//!   were slower than two pivots per pass: at 2 lanes (the SSE2 baseline)
//!   one row's open run, R/2 entries on average, already fills the vector,
//!   so more rows only added loads; at 8 lanes it does not, and rows are
//!   the axis long enough to fill a register.
//! * [`gram`] accumulates the upper triangle only and mirrors it, over
//!   fixed-height row panels whose partial grams are added in panel
//!   order, so the result has the same bits on one thread and on many. On
//!   AVX-512 and AVX2 a panel is summed in register tiles (4 x 16 and
//!   4 x 8 entries) that each walk the panel's rows in order, which keeps
//!   every entry's sum, and so its bits, unchanged.
//!
//! The instruction set is detected once per call, as a
//! [`tenblock_core::isa::Isa`] — the one detection the sparse MTTKRP loops
//! use too — not configured: every host computes the same bits, and off
//! x86_64 or on the SSE2 baseline the scalar loops run.
//!
//! The public functions are serial. The ALS loop calls the `pub(crate)`
//! `*_with` forms, which take the caller's [`Threads`] and spread row
//! chunks over the rayon shim; rows are independent in the solve and the
//! column scale, and the gram's panel order is fixed, so every result is
//! bit-identical to the serial one.

use rayon::prelude::*;
use tenblock_core::isa::{Isa, Kind};
use tenblock_core::Threads;
use tenblock_tensor::DenseMatrix;

/// Rows per partial gram. A constant, not a function of the thread count:
/// the panel sums and the order they are added in define the result's bits.
const GRAM_PANEL_ROWS: usize = 1024;

/// Ridge escalations tried before a system is declared unsolvable; each
/// multiplies the added diagonal by 100, so the last adds ~1e20 times the
/// mean diagonal — past that only a non-finite matrix is still failing.
const MAX_RIDGE_STEPS: usize = 16;

/// Runs `f(first row, rows)` over the rows of `a`: in one call when serial,
/// else over disjoint chunks of whole rows (four per worker, like the
/// kernels) on the rayon shim. `f` must treat rows independently, so the
/// split is invisible.
fn for_row_chunks(a: &mut DenseMatrix, threads: Threads, f: impl Fn(usize, &mut [f64]) + Sync) {
    if threads.is_parallel() {
        let rows = a.rows().div_ceil(4 * threads.workers()).max(1);
        a.par_row_chunks_mut(rows)
            .into_par_iter()
            .for_each(|(row0, chunk)| f(row0, chunk));
    } else {
        f(0, a.as_mut_slice());
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

/// Rows of a [`gram_panel_tiled`] register tile.
const TILE_ROWS: usize = 4;

/// [`gram_panel_upper`] in `TILE_ROWS x QW` register tiles of `part`, each
/// held in registers over the whole panel: every entry still adds
/// `row[p] · row[q]` (multiply, then add) one row at a time in row order,
/// so the bits are `gram_panel_upper`'s. The tiles of a row group start at
/// the `QW`-aligned column at or left of its diagonal; their entries below
/// the diagonal are computed and dropped. Edge tiles (`r` not a multiple
/// of 4 or `QW`) go entry by entry.
#[inline(always)]
fn gram_panel_tiled<const QW: usize>(panel: &[f64], r: usize, part: &mut [f64]) {
    for p0 in (0..r).step_by(TILE_ROWS) {
        let p1 = (p0 + TILE_ROWS).min(r);
        for q0 in (p0 / QW * QW..r).step_by(QW) {
            let q1 = (q0 + QW).min(r);
            if p1 - p0 < TILE_ROWS || q1 - q0 < QW {
                for p in p0..p1 {
                    for q in q0.max(p)..q1 {
                        let g = &mut part[p * r + q];
                        for row in panel.chunks_exact(r) {
                            *g += row[p] * row[q];
                        }
                    }
                }
                continue;
            }
            let mut acc = [[0.0; QW]; TILE_ROWS];
            for (a, p) in acc.iter_mut().zip(p0..) {
                a.copy_from_slice(&part[p * r + q0..][..QW]);
            }
            for row in panel.chunks_exact(r) {
                let (v, w) = (&row[p0..p0 + TILE_ROWS], &row[q0..q0 + QW]);
                for (a, &vp) in acc.iter_mut().zip(v) {
                    for (g, &wq) in a.iter_mut().zip(w) {
                        *g += vp * wq;
                    }
                }
            }
            for (a, p) in acc.iter().zip(p0..) {
                let from = p.max(q0);
                part[p * r + from..p * r + q1].copy_from_slice(&a[from - q0..]);
            }
        }
    }
}

/// [`gram_panel_tiled`] with 4 x 16 tiles (eight 8-lane accumulators)
/// compiled for AVX-512.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn gram_panel_avx512(panel: &[f64], r: usize, part: &mut [f64]) {
    gram_panel_tiled::<16>(panel, r, part)
}

/// [`gram_panel_tiled`] with 4 x 8 tiles (eight 4-lane accumulators, half
/// of AVX2's sixteen registers) compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gram_panel_avx2(panel: &[f64], r: usize, part: &mut [f64]) {
    gram_panel_tiled::<8>(panel, r, part)
}

/// [`gram_panel_upper`] on `isa`: register tiles on AVX-512 and AVX2, the
/// row-by-row loop on the SSE2 baseline, where the tiled form measured
/// slower. Same bits on every `isa`.
#[allow(unsafe_code)]
fn gram_panel(isa: Isa, panel: &[f64], r: usize, part: &mut [f64]) {
    match isa.kind() {
        // SAFETY: an `Isa` of kind `Avx512` is made only after
        // `is_x86_feature_detected!("avx512f")` (`Isa::best`/`Isa::all`).
        #[cfg(target_arch = "x86_64")]
        Kind::Avx512 => unsafe { gram_panel_avx512(panel, r, part) },
        // SAFETY: likewise after `is_x86_feature_detected!("avx2")`.
        #[cfg(target_arch = "x86_64")]
        Kind::Avx2 => unsafe { gram_panel_avx2(panel, r, part) },
        Kind::Baseline => gram_panel_upper(panel, r, part),
    }
}

/// [`gram`] with the panels spread over `threads`. Same bits either way:
/// each panel's partial is computed alone and the partials are added in
/// panel order. The host's instruction set is read once per call.
pub(crate) fn gram_with(a: &DenseMatrix, threads: Threads) -> DenseMatrix {
    let r = a.cols();
    let mut g = DenseMatrix::zeros(r, r);
    if r == 0 {
        return g;
    }
    let isa = Isa::best();
    let panels = a.rows().div_ceil(GRAM_PANEL_ROWS);
    let mut partials = vec![0.0; panels * r * r];
    let jobs: Vec<(&[f64], &mut [f64])> = a
        .as_slice()
        .chunks(GRAM_PANEL_ROWS * r)
        .zip(partials.chunks_exact_mut(r * r))
        .collect();
    let accumulate = |(panel, part): (&[f64], &mut [f64])| gram_panel(isa, panel, r, part);
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

    /// Solves each row of `src` into the same row of `dst`, one row at a
    /// time.
    fn solve_rows_one_by_one(&self, src: &[f64], dst: &mut [f64]) {
        let n = self.rdiag.len();
        dst.copy_from_slice(src);
        dst.chunks_exact_mut(n).for_each(|row| self.solve_row(row));
    }

    /// Solves each row of `src` into the same row of `dst`: on AVX-512 or
    /// AVX2 through the lane-major panel sweep (16 then 8 rows at a time on
    /// AVX-512, 8 then 4 on AVX2, the rows left over one by one), else one
    /// row at a time. Same bits on every `isa`.
    #[allow(unsafe_code)]
    fn solve_rows(&self, isa: Isa, src: &[f64], dst: &mut [f64]) {
        match isa.kind() {
            // SAFETY: an `Isa` of kind `Avx512` is made only after
            // `is_x86_feature_detected!("avx512f")` (`Isa::best`/`Isa::all`).
            #[cfg(target_arch = "x86_64")]
            Kind::Avx512 => unsafe { lanes::solve_rows_avx512(self, src, dst) },
            // SAFETY: likewise after `is_x86_feature_detected!("avx2")`.
            #[cfg(target_arch = "x86_64")]
            Kind::Avx2 => unsafe { lanes::solve_rows_avx2(self, src, dst) },
            Kind::Baseline => self.solve_rows_one_by_one(src, dst),
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
    let mut x = DenseMatrix::zeros(b.rows(), b.cols());
    solve_spd_rows_into(a, b, &mut x, Threads::Serial);
    x
}

/// [`solve_spd_rhs_rows`] writing into `x` (the shape of `b`), with row
/// chunks spread over `threads`. The host's instruction set is read once
/// per call.
pub(crate) fn solve_spd_rows_into(
    a: &DenseMatrix,
    b: &DenseMatrix,
    x: &mut DenseMatrix,
    threads: Threads,
) {
    assert_eq!(a.rows(), a.cols(), "system matrix must be square");
    assert_eq!(b.cols(), a.rows(), "rhs width must match system size");
    assert_eq!((x.rows(), x.cols()), (b.rows(), b.cols()), "shape mismatch");
    let n = a.rows();
    if n == 0 {
        return;
    }
    let Some(l) = factor_with_ridge(a) else {
        x.as_mut_slice().fill(f64::NAN);
        return;
    };
    let solver = RowSolver::new(l);
    let isa = Isa::best();
    let src = b.as_slice();
    for_row_chunks(x, threads, |row0, dst| {
        solver.solve_rows(isa, &src[row0 * n..][..dst.len()], dst)
    });
}

/// The panel sweep on x86_64 vector registers: rows across the lanes.
#[cfg(target_arch = "x86_64")]
mod lanes {
    use super::RowSolver;
    use std::arch::x86_64::*;

    /// `W` f64 lanes in one vector register (or, for [`Two`], two): the
    /// panel sweep is written once over it. Each method is one instruction
    /// per register.
    ///
    /// # Safety
    /// The `unsafe` methods exist only on CPUs with the impl's extension
    /// (AVX-512F for [`Z8`], AVX for [`Y4`], the inner type's for [`Two`]):
    /// call them only where it was detected.
    #[allow(unsafe_code)]
    pub(super) trait Lanes: Copy {
        /// Lanes per value.
        const W: usize;
        /// `W` values in memory, one per lane.
        type Block: Copy + Default;
        /// Lane `j < W` of a block.
        fn lane(b: &mut Self::Block, j: usize) -> &mut f64;
        unsafe fn splat(v: f64) -> Self;
        unsafe fn load(b: &Self::Block) -> Self;
        unsafe fn store(self, b: &mut Self::Block);
        unsafe fn mul(self, o: Self) -> Self;
        unsafe fn sub(self, o: Self) -> Self;
    }

    /// Eight lanes of an AVX-512 register.
    #[derive(Clone, Copy)]
    pub(super) struct Z8(__m512d);

    /// Four lanes of an AVX register.
    #[derive(Clone, Copy)]
    pub(super) struct Y4(__m256d);

    /// Two registers side by side: `2 W` rows per panel, so two independent
    /// dependency chains per pivot step keep the vector units busy while
    /// one chain waits on its pivots.
    #[derive(Clone, Copy)]
    pub(super) struct Two<V>(V, V);

    // SAFETY: each body is one intrinsic of the impl's extension, which the
    // caller guarantees (the trait's `# Safety`); `load`/`store` take a
    // `&[f64; W]`, whose type gives the `W` in-bounds values the unaligned
    // forms read or write.
    #[allow(unsafe_code)]
    impl Lanes for Z8 {
        const W: usize = 8;
        type Block = [f64; 8];
        #[inline(always)]
        fn lane(b: &mut [f64; 8], j: usize) -> &mut f64 {
            &mut b[j]
        }
        #[inline(always)]
        unsafe fn splat(v: f64) -> Self {
            Z8(_mm512_set1_pd(v))
        }
        #[inline(always)]
        unsafe fn load(b: &[f64; 8]) -> Self {
            Z8(_mm512_loadu_pd(b.as_ptr()))
        }
        #[inline(always)]
        unsafe fn store(self, b: &mut [f64; 8]) {
            _mm512_storeu_pd(b.as_mut_ptr(), self.0)
        }
        #[inline(always)]
        unsafe fn mul(self, o: Self) -> Self {
            Z8(_mm512_mul_pd(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn sub(self, o: Self) -> Self {
            Z8(_mm512_sub_pd(self.0, o.0))
        }
    }

    // SAFETY: as for `Z8`.
    #[allow(unsafe_code)]
    impl Lanes for Y4 {
        const W: usize = 4;
        type Block = [f64; 4];
        #[inline(always)]
        fn lane(b: &mut [f64; 4], j: usize) -> &mut f64 {
            &mut b[j]
        }
        #[inline(always)]
        unsafe fn splat(v: f64) -> Self {
            Y4(_mm256_set1_pd(v))
        }
        #[inline(always)]
        unsafe fn load(b: &[f64; 4]) -> Self {
            Y4(_mm256_loadu_pd(b.as_ptr()))
        }
        #[inline(always)]
        unsafe fn store(self, b: &mut [f64; 4]) {
            _mm256_storeu_pd(b.as_mut_ptr(), self.0)
        }
        #[inline(always)]
        unsafe fn mul(self, o: Self) -> Self {
            Y4(_mm256_mul_pd(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn sub(self, o: Self) -> Self {
            Y4(_mm256_sub_pd(self.0, o.0))
        }
    }

    // SAFETY: each body applies `V`'s method to both halves: `V`'s
    // requirements, which the caller guarantees, are the only ones.
    #[allow(unsafe_code)]
    impl<V: Lanes> Lanes for Two<V> {
        const W: usize = 2 * V::W;
        type Block = [V::Block; 2];
        #[inline(always)]
        fn lane(b: &mut Self::Block, j: usize) -> &mut f64 {
            V::lane(&mut b[j / V::W], j % V::W)
        }
        #[inline(always)]
        unsafe fn splat(v: f64) -> Self {
            Two(V::splat(v), V::splat(v))
        }
        #[inline(always)]
        unsafe fn load(b: &Self::Block) -> Self {
            Two(V::load(&b[0]), V::load(&b[1]))
        }
        #[inline(always)]
        unsafe fn store(self, b: &mut Self::Block) {
            self.0.store(&mut b[0]);
            self.1.store(&mut b[1]);
        }
        #[inline(always)]
        unsafe fn mul(self, o: Self) -> Self {
            Two(self.0.mul(o.0), self.1.mul(o.1))
        }
        #[inline(always)]
        unsafe fn sub(self, o: Self) -> Self {
            Two(self.0.sub(o.0), self.1.sub(o.1))
        }
    }

    /// `open[k] = (…(open[k] − c[0][k]·p[0]) − …) − c[P−1][k]·p[P−1]` on
    /// every lane: [`super::subtract_two_columns`] for `W` rows at once,
    /// `P / 2` of its passes fused into one load and store per entry.
    ///
    /// # Safety
    /// As [`Lanes`].
    #[inline(always)]
    #[allow(unsafe_code)]
    unsafe fn subtract_columns<V: Lanes, const P: usize>(
        open: &mut [V::Block],
        cols: [&[f64]; P],
        piv: [V; P],
    ) {
        let cols = cols.map(|c| &c[..open.len()]);
        for (k, o) in open.iter_mut().enumerate() {
            let mut v = V::load(o);
            for (c, &p) in cols.iter().zip(&piv) {
                v = v.sub(V::splat(c[k]).mul(p));
            }
            v.store(o);
        }
    }

    /// [`RowSolver::solve_row`] on `W` rows at once, held lane-major in `x`
    /// (`x[k]` is entry `k` of every row), with the `L`/`Lᵀ` entries
    /// broadcast. Each lane does exactly the scalar row's multiplies and
    /// subtractions in the scalar row's order; only the loop is reshaped:
    /// two of the scalar sweep's pivot pairs share one pass over the open
    /// entries. The second pair's two entries first take the first pair's
    /// columns, as the scalar pass would have left them, and every open
    /// entry then takes the four columns in pivot order — the scalar's
    /// operations, with half the loads, stores and loop exits.
    ///
    /// # Safety
    /// As [`Lanes`].
    #[inline(always)]
    #[allow(unsafe_code)]
    unsafe fn sweep<V: Lanes>(s: &RowSolver, x: &mut [V::Block]) {
        let n = x.len();
        let rd = s.rdiag.as_slice();
        let bc = V::splat;
        // Forward, L y = b, from the top: groups of four pivots, then a
        // pair, then an odd n's last pivot.
        let even = n - n % 2;
        let mut i = 0;
        while i + 2 <= even {
            let (c0, c1) = (s.lt.row(i), s.lt.row(i + 1));
            let y0 = V::load(&x[i]).mul(bc(rd[i]));
            let y1 = V::load(&x[i + 1])
                .sub(bc(c0[i + 1]).mul(y0))
                .mul(bc(rd[i + 1]));
            y0.store(&mut x[i]);
            y1.store(&mut x[i + 1]);
            if i + 4 > even {
                subtract_columns(&mut x[i + 2..], [&c0[i + 2..], &c1[i + 2..]], [y0, y1]);
                i += 2;
                continue;
            }
            let (c2, c3) = (s.lt.row(i + 2), s.lt.row(i + 3));
            let t2 = V::load(&x[i + 2])
                .sub(bc(c0[i + 2]).mul(y0))
                .sub(bc(c1[i + 2]).mul(y1));
            let t3 = V::load(&x[i + 3])
                .sub(bc(c0[i + 3]).mul(y0))
                .sub(bc(c1[i + 3]).mul(y1));
            let y2 = t2.mul(bc(rd[i + 2]));
            let y3 = t3.sub(bc(c2[i + 3]).mul(y2)).mul(bc(rd[i + 3]));
            y2.store(&mut x[i + 2]);
            y3.store(&mut x[i + 3]);
            let j = i + 4;
            subtract_columns(
                &mut x[j..],
                [&c0[j..], &c1[j..], &c2[j..], &c3[j..]],
                [y0, y1, y2, y3],
            );
            i = j;
        }
        if n % 2 == 1 {
            V::load(&x[n - 1]).mul(bc(rd[n - 1])).store(&mut x[n - 1]);
        }
        // Backward, Lᵀ x = y, the same from the bottom: column i of Lᵀ is
        // row i of L, and an odd n leaves pivot 0.
        let mut top = n;
        while top >= n % 2 + 2 {
            let i = top - 2;
            let (c0, c1) = (s.l.row(i), s.l.row(i + 1));
            let x1 = V::load(&x[i + 1]).mul(bc(rd[i + 1]));
            let x0 = V::load(&x[i]).sub(bc(c1[i]).mul(x1)).mul(bc(rd[i]));
            x0.store(&mut x[i]);
            x1.store(&mut x[i + 1]);
            if top < n % 2 + 4 {
                subtract_columns(&mut x[..i], [&c1[..i], &c0[..i]], [x1, x0]);
                top = i;
                continue;
            }
            let j = i - 2;
            let (c2, c3) = (s.l.row(j), s.l.row(j + 1));
            let t3 = V::load(&x[j + 1])
                .sub(bc(c1[j + 1]).mul(x1))
                .sub(bc(c0[j + 1]).mul(x0));
            let t2 = V::load(&x[j]).sub(bc(c1[j]).mul(x1)).sub(bc(c0[j]).mul(x0));
            let x3 = t3.mul(bc(rd[j + 1]));
            let x2 = t2.sub(bc(c3[j]).mul(x3)).mul(bc(rd[j]));
            x2.store(&mut x[j]);
            x3.store(&mut x[j + 1]);
            subtract_columns(
                &mut x[..j],
                [&c1[..j], &c0[..j], &c3[..j], &c2[..j]],
                [x1, x0, x3, x2],
            );
            top = j;
        }
        if n % 2 == 1 {
            V::load(&x[0]).mul(bc(rd[0])).store(&mut x[0]);
        }
    }

    /// Solves the rows of `src` into `dst`, `W` at a time: transposed into
    /// a lane-major `n x W` panel (8 KB at `n` 64 and `W` 16, so it stays in
    /// L1), swept, transposed back. Returns the fewer than `W` rows left.
    ///
    /// # Safety
    /// As [`Lanes`].
    #[inline(always)]
    #[allow(unsafe_code)]
    unsafe fn solve_panels<'a, 'b, V: Lanes>(
        s: &RowSolver,
        src: &'a [f64],
        dst: &'b mut [f64],
    ) -> (&'a [f64], &'b mut [f64]) {
        let n = s.rdiag.len();
        let mut panel = vec![V::Block::default(); n];
        let mut src_panels = src.chunks_exact(n * V::W);
        let mut dst_panels = dst.chunks_exact_mut(n * V::W);
        for (sp, dp) in (&mut src_panels).zip(&mut dst_panels) {
            for (j, row) in sp.chunks_exact(n).enumerate() {
                for (b, &v) in panel.iter_mut().zip(row) {
                    *V::lane(b, j) = v;
                }
            }
            sweep::<V>(s, &mut panel);
            for (j, row) in dp.chunks_exact_mut(n).enumerate() {
                for (v, b) in row.iter_mut().zip(&mut panel) {
                    *v = *V::lane(b, j);
                }
            }
        }
        (src_panels.remainder(), dst_panels.into_remainder())
    }

    /// The rows of `src` solved into `dst` on AVX-512: 16-row panels, then
    /// one 8-row panel, then the rest one by one.
    ///
    /// # Safety
    /// The CPU must have AVX-512F.
    #[target_feature(enable = "avx512f")]
    #[allow(unsafe_code)]
    pub(super) unsafe fn solve_rows_avx512(s: &RowSolver, src: &[f64], dst: &mut [f64]) {
        // SAFETY: the caller guarantees AVX-512F, all `Z8` needs.
        let (src, dst) = solve_panels::<Two<Z8>>(s, src, dst);
        let (src, dst) = solve_panels::<Z8>(s, src, dst);
        s.solve_rows_one_by_one(src, dst);
    }

    /// [`solve_rows_avx512`] on AVX2: 8-row, then 4-row panels.
    ///
    /// # Safety
    /// The CPU must have AVX2.
    #[target_feature(enable = "avx2")]
    #[allow(unsafe_code)]
    pub(super) unsafe fn solve_rows_avx2(s: &RowSolver, src: &[f64], dst: &mut [f64]) {
        // SAFETY: the caller guarantees AVX2, which includes the AVX `Y4`
        // needs.
        let (src, dst) = solve_panels::<Two<Y4>>(s, src, dst);
        let (src, dst) = solve_panels::<Y4>(s, src, dst);
        s.solve_rows_one_by_one(src, dst);
    }
}

/// Multiplies column `c` of `a` by `scale[c]`, row chunks spread over
/// `threads`.
pub(crate) fn scale_columns_with(a: &mut DenseMatrix, scale: &[f64], threads: Threads) {
    assert_eq!(a.cols(), scale.len(), "one scale per column");
    if scale.is_empty() {
        return;
    }
    for_row_chunks(a, threads, |_, chunk| {
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

    /// A well-conditioned `n x n` system: a tall random gram plus `n I`.
    fn spd(n: usize, seed: u64) -> DenseMatrix {
        let mut a = gram(&random(4 * n + 3, n, seed));
        for i in 0..n {
            a.set(i, i, a.get(i, i) + n as f64);
        }
        a
    }

    /// `solver`'s rows of `b` on every ISA this host runs, each held to
    /// [`RowSolver::solve_row`] bit for bit.
    fn assert_every_isa_solves_like_solve_row(solver: &RowSolver, b: &DenseMatrix, what: &str) {
        let mut want = b.clone();
        want.as_mut_slice()
            .chunks_exact_mut(b.cols().max(1))
            .for_each(|row| solver.solve_row(row));
        for isa in Isa::all() {
            let mut got = DenseMatrix::from_fn(b.rows(), b.cols(), |_, _| f64::NAN);
            solver.solve_rows(isa, b.as_slice(), got.as_mut_slice());
            let bits =
                |m: &DenseMatrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert!(bits(&got) == bits(&want), "{isa:?}, {what}");
        }
    }

    #[test]
    fn panel_solve_matches_solve_row_on_every_isa() {
        // n around the 2-pivot pair and 4-pivot group boundaries and the
        // benchmark's rank; rows around every panel height (4, 8, 16).
        for n in [1, 2, 3, 7, 8, 9, 16, 17, 63, 64, 65] {
            let solver = RowSolver::new(factor_with_ridge(&spd(n, n as u64)).unwrap());
            for rows in [0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 1003] {
                let b = random(rows, n, (n * 31 + rows) as u64);
                assert_every_isa_solves_like_solve_row(&solver, &b, &format!("n {n}, rows {rows}"));
            }
        }
        // The ridge path: duplicated columns make the plain factorization
        // fail, and the ridge factor has a tiny trailing pivot.
        for n in [9, 17] {
            let mut g = random(3 * n, n, 11);
            for r in 0..g.rows() {
                g.set(r, n - 1, g.get(r, 0));
            }
            let singular = gram(&g);
            assert!(cholesky(&singular).is_none(), "n {n}: not singular enough");
            let solver = RowSolver::new(factor_with_ridge(&singular).unwrap());
            assert_every_isa_solves_like_solve_row(&solver, &random(37, n, 13), "ridge");
        }
    }

    /// A panel-gram kernel: adds a panel's upper-triangle gram into `part`.
    type PanelGram = fn(&[f64], usize, &mut [f64]);

    #[test]
    fn tiled_gram_matches_gram_panel_upper_on_every_isa() {
        for r in [1, 3, 4, 15, 16, 17, 64] {
            for rows in [0, 1, 1023, 1024, 2100] {
                let a = random(rows, r, (r * 7 + rows) as u64);
                // Nonzero starting partials, lower triangle included: the
                // tiles must add to what is there and leave the rest.
                let start = random(r, r, 5).as_slice().to_vec();
                let mut want = start.clone();
                gram_panel_upper(a.as_slice(), r, &mut want);
                let mut runs: Vec<(String, Vec<f64>)> = Vec::new();
                let tiled: [(&str, PanelGram); 2] = [
                    ("tiled 16", gram_panel_tiled::<16>),
                    ("tiled 8", gram_panel_tiled::<8>),
                ];
                for (label, f) in tiled {
                    let mut part = start.clone();
                    f(a.as_slice(), r, &mut part);
                    runs.push((label.to_string(), part));
                }
                for isa in Isa::all() {
                    let mut part = start.clone();
                    gram_panel(isa, a.as_slice(), r, &mut part);
                    runs.push((format!("{isa:?}"), part));
                }
                for (label, part) in runs {
                    let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert!(bits(&part) == bits(&want), "{label}: r {r}, rows {rows}");
                }
            }
        }
    }

    #[test]
    fn chunked_forms_are_bit_identical_to_serial() {
        let par = Threads::Fixed(3);
        let a = random(3 * GRAM_PANEL_ROWS + 5, 17, 21);
        assert_eq!(gram_with(&a, par), gram_with(&a, Threads::Serial));

        let mut v = gram(&random(40, 17, 22));
        hadamard_assign(&mut v, &gram(&random(50, 17, 23)));
        // Row chunks of 257: each ends in a partial panel.
        let (mut serial, mut chunked) = (a.clone(), a.clone());
        solve_spd_rows_into(&v, &a, &mut serial, Threads::Serial);
        solve_spd_rows_into(&v, &a, &mut chunked, par);
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
