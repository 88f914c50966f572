//! The BCOO register-tiled dense micro-kernel.
//!
//! One block at a time: when the block is dense enough, the factor
//! sub-rows for its `j`/`k` spans are gathered once into contiguous
//! scratch (amortized over the block's nonzeros), then the inner loop
//! accumulates GEMM-style over the stored block-local offsets — no global
//! index decode — with the rank tiled in [`REG_BLOCK`]-wide register
//! strips exactly like the RankB pass. Sparse blocks skip the gather and
//! address the factors through the block origin instead (one add per
//! access, still decode-free).

use super::{reg_chunk, RowWindow, REG_BLOCK};
use tenblock_tensor::{DenseMatrix, NMODES};

/// A block-local coordinate at one of the stored widths (u8/u16/u32).
pub(crate) trait LocalOff: Copy + Send + Sync {
    /// The offset as a row index.
    fn idx(self) -> usize;
}

impl LocalOff for u8 {
    #[inline(always)]
    fn idx(self) -> usize {
        self as usize
    }
}

impl LocalOff for u16 {
    #[inline(always)]
    fn idx(self) -> usize {
        self as usize
    }
}

impl LocalOff for u32 {
    #[inline(always)]
    fn idx(self) -> usize {
        self as usize
    }
}

/// Reusable per-worker buffers holding one block's gathered factor
/// sub-rows (full rank width, rows contiguous).
#[derive(Default)]
pub(crate) struct GatherBuf {
    b: Vec<f64>,
    c: Vec<f64>,
}

/// Column window `[col0, col0 + width)` over a gathered sub-matrix; row
/// `r` is the `r`-th gathered row.
struct GatherWindow<'a> {
    data: &'a [f64],
    rank: usize,
    col0: usize,
    width: usize,
}

impl RowWindow for GatherWindow<'_> {
    #[inline]
    fn window(&self, r: usize) -> &[f64] {
        &self.data[r * self.rank + self.col0..][..self.width]
    }
}

/// Column window over the original factor with the block origin folded
/// in: row `r` is global row `base + r`. Used for blocks too sparse to
/// amortize a gather.
struct ShiftedWindow<'a> {
    m: &'a DenseMatrix,
    base: usize,
    col0: usize,
    width: usize,
}

impl RowWindow for ShiftedWindow<'_> {
    #[inline]
    fn window(&self, r: usize) -> &[f64] {
        &self.m.row(self.base + r)[self.col0..self.col0 + self.width]
    }
}

/// Copies rows `[base, base + len)` of `m` into `buf`, contiguously.
fn gather_rows(buf: &mut Vec<f64>, m: &DenseMatrix, base: usize, len: usize) {
    buf.clear();
    buf.reserve(len * m.cols());
    for r in 0..len {
        buf.extend_from_slice(m.row(base + r));
    }
}

/// Executes one BCOO block: entries `offs`/`vals` (block-local, sorted by
/// `(a, k, j)`), factor matrices `b`/`c` (kernel modes 2 and 3), block
/// `origin` and bounds `spans` per kernel axis, and the owning task's
/// output rows starting at global row `row0`.
#[expect(
    clippy::too_many_arguments,
    reason = "one block's slabs, factors, geometry and output window, unbundled for the hot loop"
)]
pub(crate) fn process_block_bcoo<T: LocalOff>(
    offs: &[[T; NMODES]],
    vals: &[f64],
    b: &DenseMatrix,
    c: &DenseMatrix,
    origin: [usize; NMODES],
    spans: [usize; NMODES],
    out_rows: &mut [f64],
    row0: usize,
    rank: usize,
    strip_width: usize,
    scratch: &mut GatherBuf,
) {
    let row_base = origin[0] - row0;
    // A gather pays one row copy per sub-row and is repaid by every strip
    // re-reading the gathered rows; it wins once the block has at least as
    // many nonzeros as sub-rows.
    let gather = offs.len() >= spans[1] + spans[2];
    if gather {
        gather_rows(&mut scratch.b, b, origin[1], spans[1]);
        gather_rows(&mut scratch.c, c, origin[2], spans[2]);
    }
    let mut col0 = 0;
    while col0 < rank {
        let width = strip_width.max(1).min(rank - col0);
        if gather {
            let bw = GatherWindow {
                data: &scratch.b,
                rank,
                col0,
                width,
            };
            let cw = GatherWindow {
                data: &scratch.c,
                rank,
                col0,
                width,
            };
            bcoo_strip(offs, vals, &bw, &cw, out_rows, row_base, rank, col0, width);
        } else {
            let bw = ShiftedWindow {
                m: b,
                base: origin[1],
                col0,
                width,
            };
            let cw = ShiftedWindow {
                m: c,
                base: origin[2],
                col0,
                width,
            };
            bcoo_strip(offs, vals, &bw, &cw, out_rows, row_base, rank, col0, width);
        }
        col0 += width;
    }
}

/// One `[col0, col0 + width)` strip over one block. Entries are scanned in
/// `(a, k, j)` order, so consecutive entries sharing `(a, k)` form a fiber
/// run that reuses a single register accumulator per [`REG_BLOCK`] chunk —
/// the same structure as [`super::process_block_rankb`], but driven by the
/// local-offset slab instead of a compressed fiber index.
#[expect(
    clippy::too_many_arguments,
    reason = "a strip's entries, factor windows and output window, passed through from process_block_bcoo"
)]
fn bcoo_strip<T: LocalOff, B: RowWindow, C: RowWindow>(
    offs: &[[T; NMODES]],
    vals: &[f64],
    bw: &B,
    cw: &C,
    out_rows: &mut [f64],
    row_base: usize,
    rank: usize,
    col0: usize,
    width: usize,
) {
    let mut n = 0;
    while n < offs.len() {
        let (la, lk) = (offs[n][0].idx(), offs[n][2].idx());
        let mut end = n + 1;
        while end < offs.len() && offs[end][0].idx() == la && offs[end][2].idx() == lk {
            end += 1;
        }
        let crow = cw.window(lk);
        let obase = (row_base + la) * rank + col0;
        let mut col = 0;
        // full 16-wide register chunks
        while col + REG_BLOCK <= width {
            let mut reg = [0.0f64; REG_BLOCK];
            for m in n..end {
                let v = vals[m];
                let bchunk = reg_chunk(bw.window(offs[m][1].idx()), col);
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
            for m in n..end {
                let v = vals[m];
                let brow = &bw.window(offs[m][1].idx())[col..col + w];
                for (l, &bv) in brow.iter().enumerate() {
                    reg[l] += v * bv;
                }
            }
            let orow = &mut out_rows[obase + col..obase + col + w];
            for (l, o) in orow.iter_mut().enumerate() {
                *o += reg[l] * crow[col + l];
            }
        }
        n = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mttkrp::dense_mttkrp;
    use tenblock_tensor::bcoo::{BcooOffsets, BcooTensor};
    use tenblock_tensor::gen::uniform_tensor;
    use tenblock_tensor::{CooTensor, DenseMatrix};

    /// Runs the micro-kernel over every block of `t` serially.
    fn run_bcoo(
        t: &BcooTensor,
        b: &DenseMatrix,
        c: &DenseMatrix,
        rank: usize,
        strip: usize,
    ) -> Vec<f64> {
        let dims = t.dims();
        let perm = t.perm();
        let mut out = vec![0.0; dims[perm[0]] * rank];
        let mut scratch = GatherBuf::default();
        for i in 0..t.n_blocks() {
            let blk = t.block(i);
            let range = t.block_range(i);
            let origin = blk.origin.map(|o| o as usize);
            let spans = [t.block_span(i, 0), t.block_span(i, 1), t.block_span(i, 2)];
            let vals = &t.vals()[range.clone()];
            match t.offsets() {
                BcooOffsets::U8(o) => process_block_bcoo(
                    &o[range],
                    vals,
                    b,
                    c,
                    origin,
                    spans,
                    &mut out,
                    0,
                    rank,
                    strip,
                    &mut scratch,
                ),
                BcooOffsets::U16(o) => process_block_bcoo(
                    &o[range],
                    vals,
                    b,
                    c,
                    origin,
                    spans,
                    &mut out,
                    0,
                    rank,
                    strip,
                    &mut scratch,
                ),
                BcooOffsets::U32(o) => process_block_bcoo(
                    &o[range],
                    vals,
                    b,
                    c,
                    origin,
                    spans,
                    &mut out,
                    0,
                    rank,
                    strip,
                    &mut scratch,
                ),
            }
        }
        out
    }

    fn factors(dims: [usize; 3], rank: usize) -> Vec<DenseMatrix> {
        (0..3)
            .map(|m| {
                DenseMatrix::from_fn(dims[m], rank, |r, c| {
                    (((r * 31 + c * 7 + m * 3) % 23) as f64 - 11.0) * 0.09
                })
            })
            .collect()
    }

    #[test]
    fn bcoo_micro_kernel_matches_dense_reference() {
        let x = uniform_tensor([14, 11, 9], 400, 21);
        for rank in [5, 16, 37] {
            let fs_owned = factors(x.dims(), rank);
            let fs: [&DenseMatrix; 3] = [&fs_owned[0], &fs_owned[1], &fs_owned[2]];
            for mode in 0..3 {
                let expect = dense_mttkrp(&x, &fs, mode);
                let perm = tenblock_tensor::coo::perm_for_mode(mode);
                let t = BcooTensor::from_coo(&x, mode, [3.min(x.dims()[perm[0]]), 2, 2]);
                let b = fs[perm[1]];
                let c = fs[perm[2]];
                for strip in [4, 16, rank] {
                    let out = run_bcoo(&t, b, c, rank, strip);
                    for (r, got) in out.chunks(rank.max(1)).enumerate() {
                        for (l, &g) in got.iter().enumerate() {
                            assert!(
                                (g - expect.get(r, l)).abs() < 1e-9,
                                "mode {mode} rank {rank} strip {strip} at ({r},{l})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn bcoo_micro_kernel_gather_and_direct_paths_agree() {
        // Dense corner (gather path) + isolated far entries (direct path)
        // in the same tensor: both paths must produce the same totals as
        // the reference.
        let mut entries = Vec::new();
        for i in 0..6u32 {
            for j in 0..6u32 {
                for k in 0..6u32 {
                    entries.push(tenblock_tensor::Entry::new(
                        i,
                        j,
                        k,
                        (i + 2 * j + k) as f64 * 0.1,
                    ));
                }
            }
        }
        entries.push(tenblock_tensor::Entry::new(30, 30, 30, 2.5));
        entries.push(tenblock_tensor::Entry::new(31, 29, 28, -1.5));
        let x = CooTensor::from_entries([32, 32, 32], entries);
        let rank = 17;
        let fs_owned = factors(x.dims(), rank);
        let fs: [&DenseMatrix; 3] = [&fs_owned[0], &fs_owned[1], &fs_owned[2]];
        let expect = dense_mttkrp(&x, &fs, 0);
        let t = BcooTensor::from_coo(&x, 0, [4, 4, 4]);
        let out = run_bcoo(&t, fs[1], fs[2], rank, 16);
        for r in 0..32 {
            for l in 0..rank {
                assert!(
                    (out[r * rank + l] - expect.get(r, l)).abs() < 1e-9,
                    "({r},{l})"
                );
            }
        }
    }
}
