//! The coordinate-format MTTKRP kernel (Section III-C1).
//!
//! For each nonzero `t = (i, j, k, v)`, the Khatri-Rao row is formed on the
//! fly as the Hadamard product of `B[j]` and `C[k]`, scaled by `v`, and
//! accumulated into `A[i]`. Compared to the SPLATT kernel this performs one
//! multiply-per-factor per nonzero (no per-fiber factoring), which is the
//! extra work Algorithm 1 saves.

use crate::exec::ExecPolicy;
use crate::kernel::RowTask;
use crate::mttkrp::{prefetch_row, AHEAD};
use std::ops::Range;
use tenblock_obs::KernelCounters;
use tenblock_tensor::coo::perm_for_mode;
use tenblock_tensor::fiber_sort::{fiber_key, FiberSorter};
use tenblock_tensor::{CooTensor, DenseMatrix, Idx, NMODES};

/// COO MTTKRP kernel for one mode.
pub struct CooKernel {
    mode: usize,
    perm: [usize; NMODES],
    dims: [usize; NMODES],
    /// Entries re-indexed to kernel axes: `(out_row, j, k, val)`, sorted by
    /// `out_row` so output writes are sequential.
    entries: Vec<(Idx, Idx, Idx, f64)>,
    exec: ExecPolicy,
}

impl CooKernel {
    /// Prepares the kernel: re-indexes and sorts the nonzeros by output row.
    pub fn new(coo: &CooTensor, mode: usize) -> Self {
        let perm = perm_for_mode(mode);
        let dims = coo.dims();
        let src = coo.entries();
        let entries = FiberSorter::new().sort_by_ranges(
            src.len(),
            |n| {
                let e = &src[n];
                (e.idx[perm[0]], e.idx[perm[1]], e.idx[perm[2]], e.val)
            },
            [
                dims[perm[0]] as u64,
                dims[perm[2]] as u64,
                dims[perm[1]] as u64,
            ],
            |&(i, j, k, _)| fiber_key([i, j, k]),
        );
        CooKernel {
            mode,
            perm,
            dims: coo.dims(),
            entries,
            exec: ExecPolicy::serial(),
        }
    }

    /// Sets the execution policy. The COO kernel is one task, so only the
    /// recorder and checked execution apply.
    pub fn with_exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self
    }
}

impl crate::kernel::RowKernel for CooKernel {
    type Payload = ();

    fn name(&self) -> &'static str {
        "COO"
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
        self.entries.len() * std::mem::size_of::<(Idx, Idx, Idx, f64)>()
    }

    /// One serial task owning the whole output; checking it degenerates to
    /// a bounds check on the entry rows.
    fn row_tasks(&self, out_rows: usize) -> Vec<RowTask<()>> {
        vec![RowTask {
            rows: 0..out_rows,
            payload: (),
        }]
    }

    fn touched_rows(&self, _task: &RowTask<()>) -> impl Iterator<Item = usize> {
        self.entries.iter().map(|&(i, _, _, _)| i as usize)
    }

    fn counters(&self, rank: usize) -> KernelCounters {
        KernelCounters::coo_model(self.entries.len() as u64, rank as u64)
    }

    fn run_task(
        &self,
        _task: &RowTask<()>,
        factors: &[&DenseMatrix],
        rows: &mut [f64],
        rank: usize,
        _cols: Range<usize>,
    ) {
        let (b, c) = (factors[self.perm[1]], factors[self.perm[2]]);
        for (n, &(i, j, k, v)) in self.entries.iter().enumerate() {
            // The same look-ahead as `process_block_plain`, so the kernel
            // table compares like with like.
            if let Some(&(_, ja, ka, _)) = self.entries.get(n + AHEAD) {
                prefetch_row(b.row(ja as usize));
                prefetch_row(c.row(ka as usize));
            }
            let brow = b.row(j as usize);
            let crow = c.row(k as usize);
            let orow = &mut rows[i as usize * rank..(i as usize + 1) * rank];
            for ((o, &bv), &cv) in orow.iter_mut().zip(brow).zip(crow) {
                *o += v * bv * cv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::MttkrpKernel;
    use crate::mttkrp::dense_mttkrp;
    use tenblock_tensor::gen::uniform_tensor;

    #[test]
    fn matches_dense_reference_all_modes() {
        let x = uniform_tensor([8, 9, 10], 120, 21);
        let rank = 5;
        let factors: Vec<DenseMatrix> = x
            .dims()
            .iter()
            .enumerate()
            .map(|(m, &d)| DenseMatrix::from_fn(d, rank, |r, c| ((r + m) * (c + 1)) as f64 * 0.1))
            .collect();
        let fs: [&DenseMatrix; 3] = [&factors[0], &factors[1], &factors[2]];
        for mode in 0..3 {
            let expect = dense_mttkrp(&x, &fs, mode);
            let k = CooKernel::new(&x, mode);
            let mut out = DenseMatrix::zeros(x.dims()[mode], rank);
            k.mttkrp(&fs, &mut out);
            assert!(expect.approx_eq(&out, 1e-10), "mode {mode} mismatch");
        }
    }

    #[test]
    fn empty_tensor_yields_zero() {
        let x = CooTensor::empty([4, 4, 4]);
        let f = DenseMatrix::from_fn(4, 3, |r, c| (r + c) as f64);
        let fs: [&DenseMatrix; 3] = [&f, &f, &f];
        let k = CooKernel::new(&x, 1);
        let mut out = DenseMatrix::from_fn(4, 3, |_, _| 99.0);
        k.mttkrp(&fs, &mut out);
        assert_eq!(out.as_slice().iter().sum::<f64>(), 0.0);
    }

    #[test]
    #[should_panic(expected = "output rows")]
    fn wrong_output_shape_panics() {
        let x = uniform_tensor([4, 5, 6], 10, 1);
        let f0 = DenseMatrix::zeros(4, 2);
        let f1 = DenseMatrix::zeros(5, 2);
        let f2 = DenseMatrix::zeros(6, 2);
        let k = CooKernel::new(&x, 0);
        let mut bad = DenseMatrix::zeros(5, 2);
        k.mttkrp(&[&f0, &f1, &f2], &mut bad);
    }
}
