//! MTTKRP kernels: the inner loops [`crate::block::BlockedKernel`] runs
//! (Algorithm 1's accumulator loop and Algorithm 2's register-blocked one),
//! the COO and CSF kernels, and a dense reference implementation.

mod coo;
mod csf;
mod dense_ref;

pub use coo::CooKernel;
pub use csf::{nd_mttkrp_reference, CsfKernel};
pub use dense_ref::dense_mttkrp;

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
    // must stay branch-free. Re-audited by the panic-reach pass: every
    // witnessed chain (launch → … → reg_chunk) reaches this site through a
    // `while col + REG_BLOCK <= width` guard over a width-long window.
    row[col..col + REG_BLOCK].try_into().unwrap() // lint: allow(panic-reach)
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
/// rows.
#[expect(
    clippy::too_many_arguments,
    reason = "Algorithm 2's inner loop over one block, window and output slab"
)]
pub(crate) fn process_block_rankb(
    t: &SplattTensor,
    b: &DenseWindow,
    c: &DenseWindow,
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

    /// Algorithm 1 with nothing added — the loop `process_block_plain` was
    /// before look-ahead — kept as the bit-level reference.
    fn plain_reference(
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
        slices: impl Fn(usize) -> std::ops::Range<usize>,
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
                process_block_plain(&t, &b, &c, slices(rows), &mut got, 0, &mut accum);
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

    #[test]
    fn single_nonzero_fibers_round_like_the_accumulator() {
        // A tensor value is finite by construction; the factors carry the
        // rest. Slice 0 opens with a two-nonzero fiber, so every later
        // single-nonzero fiber folds into a row an earlier fiber wrote.
        let tiny = f64::MIN_POSITIVE / 8.0;
        let vals = [-0.0, 0.0, tiny, -tiny, 1.5, -2.5];
        let specials = [
            -0.0,
            0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            tiny,
            -tiny,
        ];
        let special_factor = |rows: usize, rank: usize, salt: u64| {
            let plain = hashed_factor(rows, rank, salt);
            DenseMatrix::from_fn(rows, rank, |r, c| {
                let pick = (r * rank + c) * 3 + salt as usize;
                *specials.get(pick % 19).unwrap_or(&plain.get(r, c))
            })
        };
        let (mut i, mut j, mut k, mut v) = (vec![0, 0], vec![0, 1], vec![0, 0], vec![2.0, -3.0]);
        for (n, &val) in vals.iter().enumerate() {
            for slice in [0, 1] {
                i.push(slice);
                j.push((n as u32 + slice) % 3);
                k.push(n as u32 + 1);
                v.push(val);
            }
        }
        let x = CooTensor::from_triples([2, 3, vals.len() + 1], &i, &j, &k, &v);
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
        process_block_plain(&t, &b, &c, 0..3, &mut out_plain, 0, &mut accum);

        let mut out_rb = vec![0.0; 3 * rank];
        let bw = DenseWindow::new(&b, 0, rank);
        let cw = DenseWindow::new(&c, 0, rank);
        process_block_rankb(&t, &bw, &cw, 0..3, &mut out_rb, 0, rank, 0, rank);

        for (p, r) in out_plain.iter().zip(&out_rb) {
            assert!((p - r).abs() < 1e-9, "{p} vs {r}");
        }
    }
}
