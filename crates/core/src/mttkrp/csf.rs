//! N-mode MTTKRP over the CSF format — the "trivially extended to
//! higher-order data" path the paper describes (Section III-C), with rank
//! blocking carried over from Algorithm 2.
//!
//! The root-mode MTTKRP factors the Khatri-Rao product along the CSF tree:
//! a leaf contributes `val · F_leaf[j]`, an internal node contributes the
//! Hadamard product of its factor row with the sum of its children, and the
//! root row of the output accumulates the sums of its level-1 children —
//! the order-N generalization of Algorithm 1's per-fiber factoring.
//!
//! Unlike the three-mode loops, CSF's run at the baseline width: it is the
//! order-N path, the slowest kernel in every kernel table, and no
//! benchmark workload decomposes with it, so it is not compiled per
//! instruction set, and its span says `isa: baseline`.

use crate::checked::effective_strip_plan;
use crate::exec::ExecPolicy;
use crate::isa::Isa;
use crate::kernel::{launch, RowTask};
use crate::mttkrp::REG_BLOCK;
use std::ops::Range;
use tenblock_check::{check_strip_plan, OracleError};
use tenblock_obs::KernelCounters;
use tenblock_tensor::{CsfTensor, DenseMatrix, NdCooTensor};

/// N-mode MTTKRP kernel over CSF, producing the root-mode factor; its root
/// mode is [`crate::MttkrpKernel::mode`].
///
/// Every `CsfKernel` implements [`crate::MttkrpKernel`], so CSF can be used
/// anywhere the SPLATT-family kernels can (CPD, benches, the registry), but
/// only three-mode trees may be used that way: the trait's `mttkrp` passes
/// three factors, and the launch refuses any other order with "need one
/// factor per mode". Higher orders go through [`CsfKernel::mttkrp`].
pub struct CsfKernel {
    t: CsfTensor,
    /// Rank-blocking strip width in columns (`None` = one full-rank strip).
    strip: Option<usize>,
    /// Threading policy and observability recorder. Root nodes own disjoint
    /// output rows, so parallel workers need no synchronization.
    exec: ExecPolicy,
}

impl CsfKernel {
    /// Builds the CSF representation rooted at `mode`.
    pub fn new(x: &NdCooTensor, mode: usize) -> Self {
        Self::from_csf(CsfTensor::for_mode(x, mode))
    }

    /// Wraps an existing CSF tensor.
    pub fn from_csf(t: CsfTensor) -> Self {
        CsfKernel {
            t,
            strip: None,
            exec: ExecPolicy::serial(),
        }
    }

    /// Sets the execution policy (threading + recorder).
    pub fn with_exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self
    }

    /// Enables rank blocking with the given strip width (Section V-B
    /// applied to the higher-order kernel: the whole tree is traversed once
    /// per strip, shrinking every level's factor working set).
    pub fn with_strip_width(mut self, width: usize) -> Self {
        assert!(width > 0, "strip width must be positive");
        self.strip = Some(width);
        self
    }

    /// The underlying CSF tensor.
    pub fn tensor(&self) -> &CsfTensor {
        &self.t
    }

    /// The `(col0, width)` strips a launch at `rank` columns walks.
    fn strip_plan(&self, rank: usize) -> Vec<(usize, usize)> {
        effective_strip_plan(rank, self.strip.unwrap_or(usize::MAX))
    }

    /// Computes the root-mode MTTKRP. `factors` are indexed by original
    /// mode (the root slot is ignored); `out` must be `dims[root] x R` and
    /// every other factor `dims[m] x R`.
    pub fn mttkrp(&self, factors: &[&DenseMatrix], out: &mut DenseMatrix) {
        launch(self, factors, out);
    }

    /// Processes a contiguous range of root nodes, writing into `out_buf`
    /// whose first row is global row `row0`.
    #[expect(
        clippy::too_many_arguments,
        reason = "one task's root range, factors and output window"
    )]
    fn process_roots(
        &self,
        roots: std::ops::Range<usize>,
        factors: &[&DenseMatrix],
        out_buf: &mut [f64],
        row0: usize,
        rank: usize,
        col0: usize,
        width: usize,
    ) {
        let order = self.t.order();
        // per-level scratch for levels 1..order (level l stores the running
        // child sum of the currently open level-(l-1) node)
        let mut bufs: Vec<Vec<f64>> = (0..order).map(|_| vec![0.0; width]).collect();
        for root in roots {
            let row = self.t.fid(0, root) as usize - row0;
            let out_row = &mut out_buf[row * rank + col0..row * rank + col0 + width];
            if order == 1 {
                // degenerate: values sum straight into the output
                for o in out_row.iter_mut() {
                    *o += self.t.values()[root];
                }
                continue;
            }
            let (acc, rest) = bufs.split_at_mut(1);
            acc[0].fill(0.0);
            for child in self.t.children(0, root) {
                self.subtree(1, child, factors, col0, width, &mut acc[0], rest);
            }
            for (o, &a) in out_row.iter_mut().zip(acc[0].iter()) {
                *o += a;
            }
        }
    }

    /// Adds `subtree_sum(node at level l)` into `into`. `rest` holds the
    /// scratch buffers for levels `l+1..order`.
    #[expect(
        clippy::too_many_arguments,
        reason = "the recursion carries its level, node, column window and scratch"
    )]
    fn subtree(
        &self,
        l: usize,
        node: usize,
        factors: &[&DenseMatrix],
        col0: usize,
        width: usize,
        into: &mut [f64],
        rest: &mut [Vec<f64>],
    ) {
        let frow = &factors[self.t.perm()[l]].row(self.t.fid(l, node) as usize)[col0..col0 + width];
        if l == self.t.order() - 1 {
            let v = self.t.values()[node];
            for (o, &f) in into.iter_mut().zip(frow) {
                *o += v * f;
            }
        } else {
            let (acc, deeper) = rest.split_at_mut(1);
            acc[0].fill(0.0);
            for child in self.t.children(l, node) {
                self.subtree(l + 1, child, factors, col0, width, &mut acc[0], deeper);
            }
            for ((o, &a), &f) in into.iter_mut().zip(acc[0].iter()).zip(frow) {
                *o += a * f;
            }
        }
    }
}

impl crate::kernel::RowKernel for CsfKernel {
    /// The root nodes of the task.
    type Payload = Range<usize>;

    fn name(&self) -> &'static str {
        "CSF"
    }

    fn mode(&self) -> usize {
        self.t.perm()[0]
    }

    fn dims(&self) -> &[usize] {
        self.t.dims()
    }

    fn exec(&self) -> &ExecPolicy {
        &self.exec
    }

    fn tensor_bytes(&self) -> usize {
        self.t.actual_bytes()
    }

    /// Chunks of root nodes: all of them when serial, the policy's chunk
    /// size when parallel. Root fids ascend, so each chunk's claim runs to
    /// the next chunk's first row (the first from row 0): rows with no root
    /// are never written and fold into the preceding claim.
    fn row_tasks(&self, out_rows: usize) -> Vec<RowTask<Range<usize>>> {
        let n_roots = self.t.n_nodes(0);
        let chunk = if self.exec.is_parallel() {
            self.exec.chunk_size(n_roots)
        } else {
            n_roots.max(1)
        };
        let mut tasks = Vec::new();
        let mut start = 0;
        for lo in (0..n_roots).step_by(chunk) {
            let hi = (lo + chunk).min(n_roots);
            let end = if hi < n_roots {
                self.t.fid(0, hi) as usize
            } else {
                out_rows
            };
            tasks.push(RowTask {
                rows: start..end,
                payload: lo..hi,
            });
            start = end;
        }
        if tasks.is_empty() {
            tasks.push(RowTask {
                rows: 0..out_rows,
                payload: 0..0,
            });
        }
        tasks
    }

    fn touched_rows(&self, task: &RowTask<Range<usize>>) -> impl Iterator<Item = usize> {
        task.payload.clone().map(|r| self.t.fid(0, r) as usize)
    }

    /// The rank strips each task walks tile `[0, rank)`.
    fn oracle(&self, rank: usize) -> Result<(), OracleError> {
        check_strip_plan(rank, &self.strip_plan(rank), REG_BLOCK)
    }

    /// Parent-of-leaf nodes are the CSF generalization of SPLATT's fibers;
    /// root mode aside, 3-mode trees make this `n_nodes(1)`.
    fn counters(&self, rank: usize) -> KernelCounters {
        let order = self.t.order();
        let fibers = if order >= 2 {
            self.t.n_nodes(order - 2)
        } else {
            self.t.nnz()
        };
        KernelCounters::fibered_model(self.t.nnz() as u64, fibers as u64, rank as u64)
            .with_strips(self.strip_plan(rank).len() as u64)
    }

    /// CSF stays at the baseline width (see the module doc).
    fn isa(&self) -> Isa {
        Isa::BASELINE
    }

    /// The task's roots once per rank strip, strips in order.
    fn run_task(
        &self,
        task: &RowTask<Range<usize>>,
        factors: &[&DenseMatrix],
        rows: &mut [f64],
        rank: usize,
    ) {
        let row0 = task.rows.start;
        for (col0, width) in self.strip_plan(rank) {
            self.process_roots(task.payload.clone(), factors, rows, row0, rank, col0, width);
        }
    }
}

/// Brute-force N-mode MTTKRP reference: per-entry products (COO style).
pub fn nd_mttkrp_reference(x: &NdCooTensor, factors: &[&DenseMatrix], mode: usize) -> DenseMatrix {
    let rank = factors[(mode + 1) % x.order()].cols();
    let mut out = DenseMatrix::zeros(x.dims()[mode], rank);
    for n in 0..x.nnz() {
        let c = x.coord(n);
        let v = x.value(n);
        let orow = out.row_mut(c[mode] as usize);
        for (r, slot) in orow.iter_mut().enumerate() {
            let mut p = v;
            for (m, f) in factors.iter().enumerate() {
                if m != mode {
                    p *= f.get(c[m] as usize, r);
                }
            }
            *slot += p;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenblock_tensor::nd::uniform_nd;

    fn factors_for(dims: &[usize], rank: usize) -> Vec<DenseMatrix> {
        dims.iter()
            .enumerate()
            .map(|(m, &d)| {
                DenseMatrix::from_fn(d, rank, |r, c| {
                    (((r * 13 + c * 5 + m * 3) % 17) as f64 - 8.0) * 0.1
                })
            })
            .collect()
    }

    #[test]
    fn matches_reference_orders_3_to_5() {
        for order in [3usize, 4, 5] {
            let dims: Vec<usize> = (0..order).map(|m| 5 + 2 * m).collect();
            let x = uniform_nd(&dims, 120, order as u64 * 7);
            let rank = 9;
            let factors = factors_for(&dims, rank);
            let frefs: Vec<&DenseMatrix> = factors.iter().collect();
            for mode in 0..order {
                let expect = nd_mttkrp_reference(&x, &frefs, mode);
                let k = CsfKernel::new(&x, mode);
                let mut out = DenseMatrix::zeros(dims[mode], rank);
                k.mttkrp(&frefs, &mut out);
                assert!(
                    expect.approx_eq(&out, 1e-9),
                    "order {order} mode {mode}: max diff {}",
                    expect.max_abs_diff(&out)
                );
            }
        }
    }

    #[test]
    fn rank_blocked_matches_unblocked() {
        let dims = vec![8, 9, 10, 11];
        let x = uniform_nd(&dims, 200, 3);
        let rank = 24;
        let factors = factors_for(&dims, rank);
        let frefs: Vec<&DenseMatrix> = factors.iter().collect();
        let full = CsfKernel::new(&x, 0);
        let mut a = DenseMatrix::zeros(8, rank);
        full.mttkrp(&frefs, &mut a);
        for width in [1usize, 7, 16] {
            let strip = CsfKernel::new(&x, 0).with_strip_width(width);
            let mut b = DenseMatrix::zeros(8, rank);
            strip.mttkrp(&frefs, &mut b);
            assert!(a.approx_eq(&b, 1e-10), "width {width} mismatch");
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let dims = vec![40, 30, 20, 10];
        let x = uniform_nd(&dims, 1_500, 17);
        let rank = 12;
        let factors = factors_for(&dims, rank);
        let frefs: Vec<&DenseMatrix> = factors.iter().collect();
        for width in [usize::MAX, 8] {
            let seq = CsfKernel::new(&x, 0).with_strip_width(width.min(rank));
            let par = CsfKernel::new(&x, 0)
                .with_strip_width(width.min(rank))
                .with_exec(ExecPolicy::auto());
            let mut a = DenseMatrix::zeros(40, rank);
            let mut b = DenseMatrix::zeros(40, rank);
            seq.mttkrp(&frefs, &mut a);
            par.mttkrp(&frefs, &mut b);
            assert!(a.approx_eq(&b, 1e-12), "width {width} parallel mismatch");
        }
    }

    #[test]
    fn csf3_matches_splatt_kernel() {
        use crate::block::BlockedKernel;
        use crate::kernel::MttkrpKernel;
        use tenblock_tensor::gen::uniform_tensor;
        let x3 = uniform_tensor([12, 10, 14], 300, 5);
        let nd = NdCooTensor::from_coo3(&x3);
        let rank = 8;
        let dims = [12usize, 10, 14];
        let factors = factors_for(&dims, rank);
        let frefs: Vec<&DenseMatrix> = factors.iter().collect();
        let fs3: [&DenseMatrix; 3] = [&factors[0], &factors[1], &factors[2]];
        for mode in 0..3 {
            let splatt = BlockedKernel::new(&x3, mode, None, None);
            let mut a = DenseMatrix::zeros(dims[mode], rank);
            splatt.mttkrp(&fs3, &mut a);
            let csf = CsfKernel::new(&nd, mode);
            let mut b = DenseMatrix::zeros(dims[mode], rank);
            csf.mttkrp(&frefs, &mut b);
            assert!(
                a.approx_eq(&b, 1e-9),
                "mode {mode}: CSF disagrees with SPLATT"
            );
        }
    }

    #[test]
    fn empty_and_output_shape_checks() {
        let x = NdCooTensor::empty(vec![4, 5, 6, 7]);
        let factors = factors_for(&[4, 5, 6, 7], 3);
        let frefs: Vec<&DenseMatrix> = factors.iter().collect();
        let k = CsfKernel::new(&x, 2);
        let mut out = DenseMatrix::from_fn(6, 3, |_, _| 7.0);
        k.mttkrp(&frefs, &mut out);
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
    }
}
