//! The BCOO kernel: block-native storage plus the register-tiled dense
//! micro-kernel.
//!
//! This is Section V-A turned from an iteration order into a data layout:
//! the tensor lives in a [`BcooTensor`] (sorted block table, byte-wide
//! local offsets, contiguous value slab), and each block is executed by
//! [`process_block_bcoo`] — factor sub-rows gathered once per block, rank
//! tiled in `REG_BLOCK`-wide strips, no global index decode in the inner
//! loop. Slice-axis block rows write disjoint output rows and run in
//! parallel under rayon, exactly like the MB kernel.

use super::micro::{process_block_bcoo, GatherBuf};
use crate::exec::ExecPolicy;
use crate::kernel::RowTask;
use std::ops::Range;
use tenblock_check::{GridBlock, OracleError};
use tenblock_obs::KernelCounters;
use tenblock_tensor::bcoo::BcooOffsets;
use tenblock_tensor::{BcooTensor, CooTensor, DenseMatrix, NMODES};

/// BCOO kernel for one mode.
pub struct BcooKernel {
    mode: usize,
    dims: [usize; NMODES],
    t: BcooTensor,
    strip_width: usize,
    exec: ExecPolicy,
}

impl BcooKernel {
    /// Converts `coo` into block-native form (`grid` blocks per kernel
    /// axis) for the mode-`mode` MTTKRP, with `strip_width`-column rank
    /// strips (0 means whole-rank).
    pub fn new(coo: &CooTensor, mode: usize, grid: [usize; NMODES], strip_width: usize) -> Self {
        Self::from_tensor(BcooTensor::from_coo(coo, mode, grid), strip_width)
    }

    /// Wraps an already-converted tensor.
    pub fn from_tensor(t: BcooTensor, strip_width: usize) -> Self {
        BcooKernel {
            mode: t.perm()[0],
            dims: t.dims(),
            t,
            strip_width: if strip_width == 0 {
                usize::MAX
            } else {
                strip_width
            },
            exec: ExecPolicy::serial(),
        }
    }

    /// Sets the execution policy (threading + recorder).
    pub fn with_exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self
    }

    /// The underlying block-native tensor.
    pub fn tensor(&self) -> &BcooTensor {
        &self.t
    }
}

impl crate::kernel::RowKernel for BcooKernel {
    /// The slice-axis block row.
    type Payload = usize;

    fn name(&self) -> &'static str {
        "BCOO"
    }

    fn mode(&self) -> usize {
        self.mode
    }

    fn dims(&self) -> &[usize] {
        &self.dims
    }

    fn exec(&self) -> &ExecPolicy {
        &self.exec
    }

    fn tensor_bytes(&self) -> usize {
        self.t.actual_bytes()
    }

    /// One task per slice-axis block row, which owns its bounds.
    fn row_tasks(&self, _out_rows: usize) -> Vec<RowTask<usize>> {
        let bounds0 = self.t.bounds(0).windows(2);
        bounds0
            .enumerate()
            .map(|(a, w)| RowTask {
                rows: w[0]..w[1],
                payload: a,
            })
            .collect()
    }

    /// Block origin plus stored local offset for every nonzero of the
    /// block row — independent of the bounds arithmetic, so a drifted
    /// boundary shows up as an overlap against the neighboring claim.
    fn touched_rows(&self, task: &RowTask<usize>) -> impl Iterator<Item = usize> {
        self.t
            .row_blocks(task.payload)
            .flat_map(|i| self.t.block_slice_rows(i))
    }

    /// The grid-blocks oracle over the decoded block table: every decoded
    /// entry inside its block's bounds box, blocks correctly placed,
    /// nonzeros conserved.
    fn oracle(&self) -> Result<(), OracleError> {
        let perm = self.t.perm();
        let dims_kernel = perm.map(|m| self.dims[m]);
        let blocks: Vec<GridBlock> = (0..self.t.n_blocks())
            .map(|i| GridBlock {
                coords: self.t.block(i).coords.map(|c| c as usize),
                entries: self.t.block_kernel_coords(i),
            })
            .collect();
        tenblock_check::check_grid_blocks(
            dims_kernel,
            [self.t.bounds(0), self.t.bounds(1), self.t.bounds(2)],
            self.t.nnz(),
            &blocks,
        )
    }

    /// Fiber runs summed over blocks, with the model's tensor-stream bytes
    /// replaced by the bytes the block-native slab actually streams (the
    /// layout's whole point).
    fn counters(&self, rank: usize) -> KernelCounters {
        let strips = if rank == 0 {
            0
        } else {
            rank.div_ceil(self.strip_width.min(rank)) as u64
        };
        let mut counters = KernelCounters::fibered_model(
            self.t.nnz() as u64,
            self.t.n_fibers() as u64,
            rank as u64,
        )
        .with_blocks(self.t.n_blocks() as u64)
        .with_strips(strips);
        counters.tensor_bytes = self.t.actual_bytes() as u64;
        counters
    }

    /// Every block of the block row through the micro-kernel, which strips
    /// the rank itself (one launch pass).
    fn run_task(
        &self,
        task: &RowTask<usize>,
        factors: &[&DenseMatrix],
        rows: &mut [f64],
        rank: usize,
        _cols: Range<usize>,
    ) {
        let perm = self.t.perm();
        let (b, c) = (factors[perm[1]], factors[perm[2]]);
        let row0 = task.rows.start;
        let mut scratch = GatherBuf::default();
        for i in self.t.row_blocks(task.payload) {
            let blk = self.t.block(i);
            let range = self.t.block_range(i);
            let origin = blk.origin.map(|o| o as usize);
            let spans = [
                self.t.block_span(i, 0),
                self.t.block_span(i, 1),
                self.t.block_span(i, 2),
            ];
            let vals = &self.t.vals()[range.clone()];
            match self.t.offsets() {
                BcooOffsets::U8(o) => process_block_bcoo(
                    &o[range],
                    vals,
                    b,
                    c,
                    origin,
                    spans,
                    rows,
                    row0,
                    rank,
                    self.strip_width,
                    &mut scratch,
                ),
                BcooOffsets::U16(o) => process_block_bcoo(
                    &o[range],
                    vals,
                    b,
                    c,
                    origin,
                    spans,
                    rows,
                    row0,
                    rank,
                    self.strip_width,
                    &mut scratch,
                ),
                BcooOffsets::U32(o) => process_block_bcoo(
                    &o[range],
                    vals,
                    b,
                    c,
                    origin,
                    spans,
                    rows,
                    row0,
                    rank,
                    self.strip_width,
                    &mut scratch,
                ),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::MttkrpKernel;
    use crate::mttkrp::dense_mttkrp;
    use tenblock_tensor::gen::{clustered_tensor, uniform_tensor, ClusteredConfig};

    fn factors_for(x: &CooTensor, rank: usize) -> Vec<DenseMatrix> {
        x.dims()
            .iter()
            .enumerate()
            .map(|(m, &d)| {
                DenseMatrix::from_fn(d, rank, |r, c| {
                    (((r * 17 + c * 3 + m) % 19) as f64 - 9.0) * 0.07
                })
            })
            .collect()
    }

    #[test]
    fn bcoo_matches_dense_reference_various_grids() {
        let x = uniform_tensor([13, 17, 11], 250, 77);
        for rank in [5, 16, 17] {
            let factors = factors_for(&x, rank);
            let fs: [&DenseMatrix; 3] = [&factors[0], &factors[1], &factors[2]];
            for mode in 0..3 {
                let expect = dense_mttkrp(&x, &fs, mode);
                for grid in [[1, 1, 1], [2, 2, 2], [4, 1, 3], [3, 3, 3]] {
                    let k = BcooKernel::new(&x, mode, grid, 16);
                    let mut out = DenseMatrix::zeros(x.dims()[mode], rank);
                    k.mttkrp(&fs, &mut out);
                    assert!(
                        expect.approx_eq(&out, 1e-10),
                        "mode {mode} rank {rank} grid {grid:?} mismatch"
                    );
                }
            }
        }
    }

    #[test]
    fn bcoo_parallel_equals_sequential_on_clustered_data() {
        let cfg = ClusteredConfig::new([120, 90, 60], 4_000);
        let x = clustered_tensor(&cfg, 8);
        let rank = 9;
        let factors = factors_for(&x, rank);
        let fs: [&DenseMatrix; 3] = [&factors[0], &factors[1], &factors[2]];
        let k_seq = BcooKernel::new(&x, 0, [4, 3, 2], 8);
        let k_par = BcooKernel::new(&x, 0, [4, 3, 2], 8).with_exec(ExecPolicy::auto());
        let mut a = DenseMatrix::zeros(120, rank);
        let mut b = DenseMatrix::zeros(120, rank);
        k_seq.mttkrp(&fs, &mut a);
        k_par.mttkrp(&fs, &mut b);
        assert!(a.approx_eq(&b, 1e-12));
    }

    #[test]
    fn bcoo_checked_execution_passes_on_healthy_blocks() {
        let x = uniform_tensor([14, 11, 9], 600, 42);
        let rank = 12;
        let factors = factors_for(&x, rank);
        let fs: [&DenseMatrix; 3] = [&factors[0], &factors[1], &factors[2]];
        for mode in 0..3 {
            let expect = dense_mttkrp(&x, &fs, mode);
            let k = BcooKernel::new(&x, mode, [3, 2, 2], 8).with_exec(ExecPolicy::checked());
            let mut out = DenseMatrix::zeros(x.dims()[mode], rank);
            k.mttkrp_checked(&fs, &mut out)
                .unwrap_or_else(|report| panic!("mode {mode} refused: {report}"));
            assert!(expect.approx_eq(&out, 1e-9), "mode {mode} diverged");
        }
    }

    #[test]
    fn bcoo_tensor_bytes_undercut_coo_on_clustered_data() {
        let cfg = ClusteredConfig::new([200, 200, 200], 20_000);
        let x = clustered_tensor(&cfg, 3);
        let k = BcooKernel::new(&x, 0, [4, 4, 4], 16);
        assert!(
            k.tensor_bytes() < x.actual_bytes(),
            "BCOO {} bytes vs COO {} bytes",
            k.tensor_bytes(),
            x.actual_bytes()
        );
        // The recorded counters advertise the same reduced stream.
        let counters = crate::kernel::RowKernel::counters(&k, 16);
        assert_eq!(counters.tensor_bytes as usize, k.tensor_bytes());
        assert!(counters.blocks as usize == k.tensor().n_blocks());
    }

    #[test]
    fn bcoo_rank_zero_and_empty_tensors_are_fine() {
        let x = CooTensor::empty([4, 5, 6]);
        let k = BcooKernel::new(&x, 0, [2, 2, 2], 16);
        let factors = factors_for(&x, 0);
        let fs: [&DenseMatrix; 3] = [&factors[0], &factors[1], &factors[2]];
        let mut out = DenseMatrix::zeros(4, 0);
        k.mttkrp(&fs, &mut out);
        let x2 = uniform_tensor([6, 6, 6], 50, 1);
        let k2 = BcooKernel::new(&x2, 1, [2, 2, 2], 16);
        let f2 = factors_for(&x2, 0);
        let fs2: [&DenseMatrix; 3] = [&f2[0], &f2[1], &f2[2]];
        let mut out2 = DenseMatrix::zeros(6, 0);
        k2.mttkrp(&fs2, &mut out2);
    }
}
