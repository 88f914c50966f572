//! MTTKRP kernels: the inner loops [`crate::block::BlockedKernel`] runs
//! (Algorithm 1's accumulator loop and Algorithm 2's register-blocked one),
//! the COO kernel, and a dense reference implementation.
//!
//! The two inner loops and the COO loop run at the host's full vector
//! width. Each is written once, as an `#[inline(always)]` body, and
//! compiled three times: into an `avx512f` and an `avx2`
//! `#[target_feature]` entry point, and as the baseline (SSE2 on x86_64)
//! that calls the body directly. The caller passes the
//! [`crate::isa::Isa`] that detection chose, and the loop dispatches on it.
//! A wider vector cannot move a bit: every loop is element-wise over the
//! rank axis, so each output element still gets its terms added in the
//! same order, each a separate multiply and add — Rust never contracts
//! them into an FMA. At AVX-512 Algorithm 2's `N_RegB = 16` register block
//! is two registers instead of eight.

mod coo;
mod dense_ref;

pub use coo::CooKernel;
pub use dense_ref::dense_mttkrp;

use crate::isa::{Isa, Kind};
use std::ops::Range;
use tenblock_tensor::{DenseMatrix, SplattTensor};

/// Register-block width: 16 doubles = 128 bytes = one POWER8 cache line,
/// the paper's `N_RegB = 16` (Algorithm 2).
pub const REG_BLOCK: usize = 16;

/// The full [`REG_BLOCK`]-wide chunk of `row` starting at `col`.
///
/// Shared by every register loop so the one infallible slice-to-array
/// conversion (and its waivers) lives in a single place. Callers
/// guarantee `col + REG_BLOCK <= row.len()`.
#[inline(always)]
#[expect(
    clippy::unwrap_used,
    reason = "the slice is exactly REG_BLOCK long and the hot loops stay branch-free"
)]
pub(crate) fn reg_chunk(row: &[f64], col: usize) -> &[f64; REG_BLOCK] {
    // Infallible: the slice is exactly REG_BLOCK long, and the hot loops
    // must stay branch-free. Every caller chain (launch → … → reg_chunk)
    // reaches this site through a `while col + REG_BLOCK <= width` guard
    // over a width-long window.
    row[col..col + REG_BLOCK].try_into().unwrap()
}

/// Column window `[col0, col0 + width)` of a dense matrix, by row.
#[derive(Clone, Copy)]
pub(crate) struct DenseWindow<'m> {
    m: &'m DenseMatrix,
    col0: usize,
    width: usize,
}

impl<'m> DenseWindow<'m> {
    /// Creates a window; `col0 + width` must not exceed the column count.
    pub(crate) fn new(m: &'m DenseMatrix, col0: usize, width: usize) -> Self {
        assert!(col0 + width <= m.cols(), "window out of range");
        DenseWindow { m, col0, width }
    }

    /// The window of row `r`; its length is the window width.
    #[inline]
    pub(crate) fn window(&self, r: usize) -> &[f64] {
        &self.m.row(r)[self.col0..self.col0 + self.width]
    }
}

/// How many nonzeros ahead of the one in use [`process_block_plain`] and
/// the COO loop prefetch factor rows. 2 to 32 measured within run-to-run
/// noise of each other (EXPERIMENTS.md "Hiding latency"), so this is a
/// constant, not an option.
pub(crate) const AHEAD: usize = 8;

/// How many fibers ahead [`process_block_plain`] prefetches the `C` row.
const AHEAD_F: usize = 4;

/// Asks the cache hierarchy for every line of `row`, without waiting.
///
/// The unblocked loops are latency-bound: at ~1 nonzero per fiber each
/// nonzero is three dependent random row reads. A prefetch retires at
/// once, so the miss overlaps the arithmetic in front of it; a safe plain
/// load in its place blocks retirement like the miss it is meant to hide
/// (measured: touching `row[0]` keeps under half of the gain, touching
/// every line none of it). No-op off `x86_64`.
#[inline(always)]
// `allow`, not `expect`: the `unsafe` block exists only on `x86_64`, so an
// expectation would go unfulfilled on every other target.
#[allow(unsafe_code)]
pub(crate) fn prefetch_row(row: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        /// `f64`s per 64-byte cache line.
        const LINE: usize = 8;
        for line in row.chunks(LINE) {
            // SAFETY: PREFETCHh is a hint with no architectural effect: it
            // cannot fault and reads nothing into the program's state, and
            // the address is that of a live `f64` anyway. SSE is part of
            // the x86_64 baseline, so the instruction always exists.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(line.as_ptr().cast()) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = row;
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
///
/// Two things hide the latency of the random `B`/`C` row reads (the paper's
/// POWER8 hides it behind 8-way SMT): the `B` row of nonzero `n + AHEAD`
/// and the `C` row of fiber `f + AHEAD_F` are prefetched — `j_idx` and
/// `fiber_kid` are one array per block, so the look-ahead crosses fiber and
/// slice boundaries and stops at the block's end — and a fiber of one
/// nonzero skips the accumulator's store and reload. Neither changes a
/// rounding: outputs are bit-identical to the loop without them.
///
/// The loop runs compiled for `isa` (see the module doc).
#[expect(
    clippy::too_many_arguments,
    reason = "Algorithm 1's inner loop over one block and output slab, on one ISA"
)]
#[allow(unsafe_code)]
pub(crate) fn process_block_plain(
    isa: Isa,
    t: &SplattTensor,
    b: &DenseMatrix,
    c: &DenseMatrix,
    slices: Range<usize>,
    out_rows: &mut [f64],
    row0: usize,
    accum: &mut [f64],
) {
    match isa.kind() {
        // SAFETY: an `Isa` of kind `Avx512` is made only after
        // `is_x86_feature_detected!("avx512f")` (`Isa::best`/`Isa::all`).
        #[cfg(target_arch = "x86_64")]
        Kind::Avx512 => unsafe { plain_avx512(t, b, c, slices, out_rows, row0, accum) },
        // SAFETY: likewise after `is_x86_feature_detected!("avx2")`.
        #[cfg(target_arch = "x86_64")]
        Kind::Avx2 => unsafe { plain_avx2(t, b, c, slices, out_rows, row0, accum) },
        Kind::Baseline => plain_body(t, b, c, slices, out_rows, row0, accum),
    }
}

/// [`plain_body`] compiled for AVX-512.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn plain_avx512(
    t: &SplattTensor,
    b: &DenseMatrix,
    c: &DenseMatrix,
    slices: Range<usize>,
    out_rows: &mut [f64],
    row0: usize,
    accum: &mut [f64],
) {
    plain_body(t, b, c, slices, out_rows, row0, accum)
}

/// [`plain_body`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn plain_avx2(
    t: &SplattTensor,
    b: &DenseMatrix,
    c: &DenseMatrix,
    slices: Range<usize>,
    out_rows: &mut [f64],
    row0: usize,
    accum: &mut [f64],
) {
    plain_body(t, b, c, slices, out_rows, row0, accum)
}

/// [`process_block_plain`]'s loop, inlined into each of its entry points.
#[inline(always)]
fn plain_body(
    t: &SplattTensor,
    b: &DenseMatrix,
    c: &DenseMatrix,
    slices: Range<usize>,
    out_rows: &mut [f64],
    row0: usize,
    accum: &mut [f64],
) {
    let rank = accum.len();
    let (_, fiber_kid, _, j_idx, vals) = t.raw();
    let prefetch_b_ahead = |n: usize| {
        if let Some(&j) = j_idx.get(n + AHEAD) {
            prefetch_row(b.row(j as usize));
        }
    };
    for s in slices {
        let g = t.slice_global(s);
        let orow = &mut out_rows[(g - row0) * rank..(g - row0) * rank + rank];
        for f in t.slice_fibers(s) {
            if let Some(&k) = fiber_kid.get(f + AHEAD_F) {
                prefetch_row(c.row(k as usize));
            }
            let crow = c.row(fiber_kid[f] as usize);
            let nz = t.fiber_nnz(f);
            if nz.len() == 1 {
                let n = nz.start;
                prefetch_b_ahead(n);
                let v = vals[n];
                let brow = b.row(j_idx[n] as usize);
                // `0.0 +` is the accumulator's first add: it turns a -0.0
                // product into +0.0 exactly as `accum` would.
                for ((o, &bv), &cv) in orow.iter_mut().zip(brow).zip(crow) {
                    *o += (0.0 + v * bv) * cv;
                }
            } else {
                accum.fill(0.0);
                for n in nz {
                    prefetch_b_ahead(n);
                    let v = vals[n];
                    let brow = b.row(j_idx[n] as usize);
                    for (a, &bv) in accum.iter_mut().zip(brow) {
                        *a += v * bv;
                    }
                }
                for ((o, &a), &cv) in orow.iter_mut().zip(accum.iter()).zip(crow) {
                    *o += a * cv;
                }
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
/// rows. The loop runs compiled for `isa` (see the module doc).
#[expect(
    clippy::too_many_arguments,
    reason = "Algorithm 2's inner loop over one block, window and output slab, on one ISA"
)]
#[allow(unsafe_code)]
pub(crate) fn process_block_rankb(
    isa: Isa,
    t: &SplattTensor,
    b: &DenseWindow,
    c: &DenseWindow,
    slices: Range<usize>,
    out_rows: &mut [f64],
    row0: usize,
    rank: usize,
    out_col0: usize,
    width: usize,
) {
    match isa.kind() {
        // SAFETY: an `Isa` of kind `Avx512` is made only after
        // `is_x86_feature_detected!("avx512f")` (`Isa::best`/`Isa::all`).
        #[cfg(target_arch = "x86_64")]
        Kind::Avx512 => unsafe {
            rankb_avx512(t, b, c, slices, out_rows, row0, rank, out_col0, width)
        },
        // SAFETY: likewise after `is_x86_feature_detected!("avx2")`.
        #[cfg(target_arch = "x86_64")]
        Kind::Avx2 => unsafe { rankb_avx2(t, b, c, slices, out_rows, row0, rank, out_col0, width) },
        Kind::Baseline => rankb_body(t, b, c, slices, out_rows, row0, rank, out_col0, width),
    }
}

/// [`rankb_body`] compiled for AVX-512: the 16-double register block is
/// two registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[expect(clippy::too_many_arguments, reason = "process_block_rankb's")]
fn rankb_avx512(
    t: &SplattTensor,
    b: &DenseWindow,
    c: &DenseWindow,
    slices: Range<usize>,
    out_rows: &mut [f64],
    row0: usize,
    rank: usize,
    out_col0: usize,
    width: usize,
) {
    rankb_body(t, b, c, slices, out_rows, row0, rank, out_col0, width)
}

/// [`rankb_body`] compiled for AVX2: the register block is four registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[expect(clippy::too_many_arguments, reason = "process_block_rankb's")]
fn rankb_avx2(
    t: &SplattTensor,
    b: &DenseWindow,
    c: &DenseWindow,
    slices: Range<usize>,
    out_rows: &mut [f64],
    row0: usize,
    rank: usize,
    out_col0: usize,
    width: usize,
) {
    rankb_body(t, b, c, slices, out_rows, row0, rank, out_col0, width)
}

/// [`process_block_rankb`]'s loop, inlined into each of its entry points.
#[inline(always)]
#[expect(clippy::too_many_arguments, reason = "process_block_rankb's")]
fn rankb_body(
    t: &SplattTensor,
    b: &DenseWindow,
    c: &DenseWindow,
    slices: Range<usize>,
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
        process_block_plain(Isa::best(), &t, &b, &c, 0..3, &mut out_plain, 0, &mut accum);

        let mut out_rb = vec![0.0; 3 * rank];
        let bw = DenseWindow::new(&b, 0, rank);
        let cw = DenseWindow::new(&c, 0, rank);
        process_block_rankb(
            Isa::best(),
            &t,
            &bw,
            &cw,
            0..3,
            &mut out_rb,
            0,
            rank,
            0,
            rank,
        );

        for (p, r) in out_plain.iter().zip(&out_rb) {
            assert!((p - r).abs() < 1e-12, "{p} vs {r}");
        }
    }

    /// Algorithm 1 with nothing added — the loop `process_block_plain` was
    /// before look-ahead — kept as the bit-level reference.
    fn plain_reference(
        t: &SplattTensor,
        b: &DenseMatrix,
        c: &DenseMatrix,
        slices: Range<usize>,
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

    const RANKS: [usize; 5] = [1, 5, 8, 37, 64];

    /// Full-mantissa factor entries of both signs.
    fn hashed_factor(rows: usize, rank: usize, salt: u64) -> DenseMatrix {
        DenseMatrix::from_fn(rows, rank, |r, c| {
            let mut h = salt ^ ((r as u64) << 32) ^ c as u64;
            h = (h ^ (h >> 31)).wrapping_mul(0x9e3779b97f4a7c15);
            ((h ^ (h >> 29)) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
    }

    /// Bit equality, except that any NaN equals any NaN: which payload
    /// survives when two NaNs meet depends on the operand order the
    /// compiler picks for an `addsd`, not on the source.
    fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len());
        for (n, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: element {n} is {g:e} ({:#x}), reference {w:e} ({:#x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// Runs both loops over `slices` of every mode's layout of `x`, at
    /// every rank, on factors from `factor(rows, rank, salt)`, into outputs
    /// that start as `seed(element index)`.
    fn assert_plain_matches_reference(
        x: &CooTensor,
        factor: impl Fn(usize, usize, u64) -> DenseMatrix,
        slices: impl Fn(usize) -> Range<usize>,
        seed: impl Fn(usize) -> f64,
        what: &str,
    ) {
        for mode in 0..3 {
            let t = SplattTensor::for_mode(x, mode);
            let [rows, jlen, klen] = t.perm().map(|m| x.dims()[m]);
            for rank in RANKS {
                let b = factor(jlen, rank, 0xb);
                let c = factor(klen, rank, 0xc);
                let mut want: Vec<f64> = (0..rows * rank).map(&seed).collect();
                let mut got = want.clone();
                let mut accum = vec![0.0; rank];
                plain_reference(&t, &b, &c, slices(rows), &mut want, 0, &mut accum);
                process_block_plain(
                    Isa::best(),
                    &t,
                    &b,
                    &c,
                    slices(rows),
                    &mut got,
                    0,
                    &mut accum,
                );
                assert_same_bits(&got, &want, &format!("{what}, mode {mode}, rank {rank}"));
            }
        }
    }

    #[test]
    fn plain_is_bit_identical_to_the_loop_without_look_ahead() {
        use tenblock_tensor::gen::uniform_tensor;
        // Dense enough that slices hold fibers of one and of several
        // nonzeros side by side; checked, not assumed.
        let mixed = uniform_tensor([6, 9, 7], 110, 3);
        let t = SplattTensor::for_mode(&mixed, 0);
        assert!((0..t.n_slices()).any(|s| {
            let lens = || t.slice_fibers(s).map(|f| t.fiber_nnz(f).len());
            lens().any(|l| l == 1) && lens().any(|l| l > 1)
        }));
        let all = |rows: usize| 0..rows;
        let seeded = |n: usize| (n % 7) as f64 - 3.0;
        assert_plain_matches_reference(&mixed, hashed_factor, all, seeded, "mixed fibers");
        assert_plain_matches_reference(
            &mixed,
            hashed_factor,
            |_| 2..2,
            seeded,
            "empty slice range",
        );
        assert_plain_matches_reference(
            &mixed,
            hashed_factor,
            |rows| 1..rows - 1,
            seeded,
            "inner slices",
        );

        // Fewer nonzeros than AHEAD, fewer fibers than AHEAD_F, and one more
        // than each: the look-ahead runs off the end of the block.
        for nnz in [0, 1, 2, AHEAD_F - 1, AHEAD_F, AHEAD_F + 1, AHEAD, AHEAD + 1] {
            let x = uniform_tensor([5, 4, 6], nnz, 40 + nnz as u64);
            assert_eq!(x.nnz(), nnz);
            assert_plain_matches_reference(
                &x,
                hashed_factor,
                all,
                |_| 0.0,
                &format!("{nnz} nonzeros"),
            );
        }
        // One fiber longer than AHEAD: look-ahead inside a fiber.
        let j: Vec<u32> = (0..2 * AHEAD as u32).collect();
        let one_fiber = CooTensor::from_triples(
            [2, 2 * AHEAD, 2],
            &vec![1; j.len()],
            &j,
            &vec![0; j.len()],
            &j.iter().map(|&j| j as f64 - 2.5).collect::<Vec<_>>(),
        );
        assert_plain_matches_reference(&one_fiber, hashed_factor, all, seeded, "one long fiber");
    }

    const TINY: f64 = f64::MIN_POSITIVE / 8.0;

    /// [`hashed_factor`] with signed zeros, NaN, infinities and subnormals
    /// spread among its entries.
    fn special_factor(rows: usize, rank: usize, salt: u64) -> DenseMatrix {
        let specials = [
            -0.0,
            0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            TINY,
            -TINY,
        ];
        let plain = hashed_factor(rows, rank, salt);
        DenseMatrix::from_fn(rows, rank, |r, c| {
            let pick = (r * rank + c) * 3 + salt as usize;
            *specials.get(pick % 19).unwrap_or(&plain.get(r, c))
        })
    }

    /// Two slices of single-nonzero fibers whose values include both
    /// zeros and subnormals. A tensor value is finite by construction; the
    /// factors carry the rest. Slice 0 opens with a two-nonzero fiber, so
    /// every later single-nonzero fiber folds into a row an earlier fiber
    /// wrote.
    fn single_nonzero_fibers() -> CooTensor {
        let vals = [-0.0, 0.0, TINY, -TINY, 1.5, -2.5];
        let (mut i, mut j, mut k, mut v) = (vec![0, 0], vec![0, 1], vec![0, 0], vec![2.0, -3.0]);
        for (n, &val) in vals.iter().enumerate() {
            for slice in [0, 1] {
                i.push(slice);
                j.push((n as u32 + slice) % 3);
                k.push(n as u32 + 1);
                v.push(val);
            }
        }
        CooTensor::from_triples([2, 3, vals.len() + 1], &i, &j, &k, &v)
    }

    #[test]
    fn single_nonzero_fibers_round_like_the_accumulator() {
        let x = single_nonzero_fibers();
        let all = |rows: usize| 0..rows;
        for factor in [&hashed_factor as &dyn Fn(_, _, _) -> _, &special_factor] {
            assert_plain_matches_reference(&x, factor, all, |_| 0.0, "special values");
            // The kernel's own output starts at +0.0 and can never hold
            // -0.0, but the function's contract is `+=` into the caller's
            // rows: on a -0.0 output, `(0.0 + -0.0 * bv) * cv` and
            // `(-0.0 * bv) * cv` leave zeros of different sign. This pins
            // the `0.0 +`.
            assert_plain_matches_reference(&x, factor, all, |_| -0.0, "special values, -0.0");
        }
    }

    /// The plain, register and COO loops compiled for every instruction set
    /// this host runs add the baseline's bits: ranks below, at and above the
    /// register block and its multiples, strips of 16, 24 (a register chunk
    /// and a remainder per strip) and the full rank, fibers of one nonzero
    /// and of many, `-0.0` in the tensor, the factors and the output.
    #[test]
    fn every_isa_reproduces_the_baseline_bits() {
        use super::coo::coo_rows;
        use tenblock_tensor::coo::perm_for_mode;
        use tenblock_tensor::gen::uniform_tensor;

        /// A loop to run; `Strips(usize::MAX)` is one full-rank strip.
        #[derive(Clone, Copy, Debug)]
        enum Loop {
            Plain,
            Strips(usize),
            Coo,
        }
        const LOOPS: [Loop; 5] = [
            Loop::Plain,
            Loop::Strips(16),
            Loop::Strips(24),
            Loop::Strips(usize::MAX),
            Loop::Coo,
        ];
        let tensors = [
            (uniform_tensor([6, 9, 7], 110, 3), "mixed fibers"),
            (single_nonzero_fibers(), "single-nonzero fibers"),
        ];
        let factors = [&hashed_factor as &dyn Fn(_, _, _) -> _, &special_factor];
        let seeds = [|n: usize| (n % 7) as f64 - 3.0, |_| -0.0];
        for ((x, name), factor, seed) in tensors
            .iter()
            .flat_map(|x| factors.map(|f| (x, f)))
            .flat_map(|(x, f)| seeds.map(|s| (x, f, s)))
        {
            for mode in 0..3 {
                let t = SplattTensor::for_mode(x, mode);
                let perm = perm_for_mode(mode);
                let [rows, jlen, klen] = perm.map(|m| x.dims()[m]);
                let entries: Vec<_> = (x.entries().iter())
                    .map(|e| (e.idx[perm[0]], e.idx[perm[1]], e.idx[perm[2]], e.val))
                    .collect();
                for rank in [1, 5, 15, 16, 17, 37, 64, 128] {
                    let (b, c) = (factor(jlen, rank, 0xb), factor(klen, rank, 0xc));
                    let start: Vec<f64> = (0..rows * rank).map(seed).collect();
                    let run = |isa: Isa, lp: Loop| {
                        let mut out = start.clone();
                        match lp {
                            Loop::Plain => {
                                let mut accum = vec![0.0; rank];
                                let out = &mut out;
                                process_block_plain(isa, &t, &b, &c, 0..rows, out, 0, &mut accum);
                            }
                            Loop::Coo => coo_rows(isa, &entries, &b, &c, &mut out, rank),
                            Loop::Strips(strip) => {
                                let strip = strip.min(rank);
                                for col0 in (0..rank).step_by(strip) {
                                    let width = strip.min(rank - col0);
                                    let bw = DenseWindow::new(&b, col0, width);
                                    let cw = DenseWindow::new(&c, col0, width);
                                    let (out, slices) = (&mut out, 0..rows);
                                    process_block_rankb(
                                        isa, &t, &bw, &cw, slices, out, 0, rank, col0, width,
                                    );
                                }
                            }
                        }
                        out
                    };
                    for lp in LOOPS {
                        let want = run(Isa::BASELINE, lp);
                        for isa in Isa::all() {
                            assert_same_bits(
                                &run(isa, lp),
                                &want,
                                &format!("{lp:?} on {isa:?}: {name}, mode {mode}, rank {rank}"),
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn blocked_kernel_over_compressed_blocks_matches_the_reference_loop() {
        use crate::block::{build_layout, BlockedKernel};
        use crate::exec::ExecPolicy;
        use crate::kernel::MttkrpKernel;
        use tenblock_tensor::gen::uniform_tensor;

        let x = uniform_tensor([13, 17, 11], 250, 77);
        for mode in 0..3 {
            let layout = build_layout(&x, mode, [3, 2, 2]);
            assert!((0..3).any(|a| layout.row_blocks(a).any(|t| t.is_slice_compressed())));
            for rank in RANKS {
                let fs_owned: Vec<DenseMatrix> = (0..3)
                    .map(|m| hashed_factor(x.dims()[m], rank, m as u64))
                    .collect();
                let fs = [&fs_owned[0], &fs_owned[1], &fs_owned[2]];
                let [_, pb, pc] = layout.perm();
                let mut want = DenseMatrix::zeros(x.dims()[mode], rank);
                let mut accum = vec![0.0; rank];
                for t in (0..3).flat_map(|a| layout.row_blocks(a)) {
                    let out = want.as_mut_slice();
                    plain_reference(t, fs[pb], fs[pc], 0..t.n_slices(), out, 0, &mut accum);
                }
                for exec in [
                    ExecPolicy::serial(),
                    ExecPolicy::fixed(3),
                    ExecPolicy::checked(),
                ] {
                    let what = format!("mode {mode}, rank {rank}, {:?}", exec.threads);
                    let k = BlockedKernel::over(layout.clone(), true, None).with_exec(exec);
                    let mut got = DenseMatrix::from_fn(x.dims()[mode], rank, |_, _| 1234.5);
                    k.mttkrp(&fs, &mut got);
                    assert_same_bits(got.as_slice(), want.as_slice(), &what);
                }
            }
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
        process_block_plain(Isa::best(), &t, &b, &c, 0..3, &mut out_plain, 0, &mut accum);

        let mut out_rb = vec![0.0; 3 * rank];
        let bw = DenseWindow::new(&b, 0, rank);
        let cw = DenseWindow::new(&c, 0, rank);
        process_block_rankb(
            Isa::best(),
            &t,
            &bw,
            &cw,
            0..3,
            &mut out_rb,
            0,
            rank,
            0,
            rank,
        );

        for (p, r) in out_plain.iter().zip(&out_rb) {
            assert!((p - r).abs() < 1e-9, "{p} vs {r}");
        }
    }
}
