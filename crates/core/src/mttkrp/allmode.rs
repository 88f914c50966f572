//! All-mode MTTKRP with memoized partial products.
//!
//! The paper's related work notes that HyperTensor was extended "to include
//! memoization, which trades off storage overhead in order to reduce the
//! cost of individual MTTKRP operations" (ref. [17]). This module
//! implements the 3-mode instance of that idea: when all three MTTKRPs are
//! needed *at the same factor state* — CP gradients, CP-APR inner steps,
//! fit checks — one traversal of the SPLATT structure produces all three,
//! reusing the per-fiber partial products:
//!
//! ```text
//! per fiber f = (i, k):   s  = Σ_n val_n · B[j_n]      (upward partial)
//!   mode-1:  A'[i]  += s ⊙ C[k]
//!   mode-3:  C'[k]  += s ⊙ A[i]
//!   t = A[i] ⊙ C[k]                                     (downward partial)
//!   mode-2:  B'[j_n] += val_n · t    for every nonzero
//! ```
//!
//! versus three separate kernels, the tensor is streamed once instead of
//! three times and `s` is computed once instead of twice.
//!
//! Note this is **not** usable inside plain CP-ALS (each ALS mode update
//! must see the *updated* previous factors); it is for algorithms that need
//! the full gradient at one point.

use tenblock_tensor::{CooTensor, DenseMatrix, SplattTensor, NMODES};

/// All-mode MTTKRP kernel (one SPLATT representation, mode-1 oriented).
pub struct AllModeKernel {
    t: SplattTensor,
}

impl AllModeKernel {
    /// Builds the mode-1-oriented representation used for the fused pass.
    pub fn new(coo: &CooTensor) -> Self {
        AllModeKernel {
            t: SplattTensor::for_mode(coo, 0),
        }
    }

    /// Computes all three MTTKRPs at the factor state `factors`,
    /// overwriting `outs[m]` with the mode-`m` result.
    ///
    /// # Panics
    /// Panics on shape mismatches.
    pub fn mttkrp_all(&self, factors: &[&DenseMatrix; NMODES], outs: &mut [DenseMatrix; NMODES]) {
        let dims = self.t.dims();
        let rank = factors[0].cols();
        for m in 0..NMODES {
            assert_eq!(factors[m].cols(), rank, "factor {m} rank mismatch");
            assert_eq!(factors[m].rows(), dims[m], "factor {m} rows mismatch");
            assert_eq!(outs[m].cols(), rank, "output {m} rank mismatch");
            assert_eq!(outs[m].rows(), dims[m], "output {m} rows mismatch");
            outs[m].fill_zero();
        }
        let (a, b, c) = (factors[0], factors[1], factors[2]);
        let (_, _, _, j_idx, vals) = self.t.raw();
        let mut s = vec![0.0; rank];
        let mut t_part = vec![0.0; rank];

        // split outs to get simultaneous mutable access
        let (out_a, rest) = outs.split_at_mut(1);
        let (out_b, out_c) = rest.split_at_mut(1);
        let out_a = &mut out_a[0];
        let out_b = &mut out_b[0];
        let out_c = &mut out_c[0];

        for sl in 0..self.t.n_slices() {
            let i = self.t.slice_global(sl);
            let arow = a.row(i);
            for f in self.t.slice_fibers(sl) {
                let k = self.t.fiber_kid(f) as usize;
                let crow = c.row(k);
                // upward partial + downward partial
                s.fill(0.0);
                for (tp, (&av, &cv)) in t_part.iter_mut().zip(arow.iter().zip(crow)) {
                    *tp = av * cv;
                }
                for n in self.t.fiber_nnz(f) {
                    let v = vals[n];
                    let j = j_idx[n] as usize;
                    let brow = b.row(j);
                    for (sv, &bv) in s.iter_mut().zip(brow) {
                        *sv += v * bv;
                    }
                    // mode-2 contribution per nonzero
                    let obrow = out_b.row_mut(j);
                    for (o, &tp) in obrow.iter_mut().zip(t_part.iter()) {
                        *o += v * tp;
                    }
                }
                // mode-1 and mode-3 contributions per fiber
                let oarow = out_a.row_mut(i);
                for ((o, &sv), &cv) in oarow.iter_mut().zip(s.iter()).zip(crow) {
                    *o += sv * cv;
                }
                let ocrow = out_c.row_mut(k);
                for ((o, &sv), &av) in ocrow.iter_mut().zip(s.iter()).zip(arow) {
                    *o += sv * av;
                }
            }
        }
    }

    /// Flops of the fused pass vs three separate SPLATT kernels, as a
    /// `(fused, separate)` pair — the memoization saving.
    pub fn flop_counts(&self, rank: usize) -> (u64, u64) {
        let nnz = self.t.nnz() as u64;
        let f = self.t.n_fibers() as u64;
        let r = rank as u64;
        // fused: per nonzero 2R (s) + 2R (mode-2 scatter); per fiber
        // R (t_part) + 2R (mode-1) + 2R (mode-3)
        let fused = 4 * r * nnz + 5 * r * f;
        // separate: 3x Equation (2) = 3 * 2R(nnz + F)
        let separate = 3 * 2 * r * (nnz + f);
        (fused, separate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockedKernel;
    use crate::kernel::MttkrpKernel;
    use tenblock_tensor::gen::uniform_tensor;

    fn factors_for(x: &CooTensor, rank: usize) -> Vec<DenseMatrix> {
        x.dims()
            .iter()
            .enumerate()
            .map(|(m, &d)| {
                DenseMatrix::from_fn(d, rank, |r, c| {
                    (((r * 11 + c * 3 + m) % 13) as f64 - 6.0) * 0.15
                })
            })
            .collect()
    }

    #[test]
    fn fused_matches_three_separate_kernels() {
        let x = uniform_tensor([25, 30, 20], 900, 44);
        let rank = 10;
        let factors = factors_for(&x, rank);
        let fs: [&DenseMatrix; 3] = [&factors[0], &factors[1], &factors[2]];

        let fused = AllModeKernel::new(&x);
        let mut outs = [
            DenseMatrix::zeros(25, rank),
            DenseMatrix::zeros(30, rank),
            DenseMatrix::zeros(20, rank),
        ];
        fused.mttkrp_all(&fs, &mut outs);

        for mode in 0..3 {
            let k = BlockedKernel::new(&x, mode, None, None);
            let mut expect = DenseMatrix::zeros(x.dims()[mode], rank);
            k.mttkrp(&fs, &mut expect);
            assert!(
                expect.approx_eq(&outs[mode], 1e-10),
                "mode {mode}: max diff {}",
                expect.max_abs_diff(&outs[mode])
            );
        }
    }

    #[test]
    fn memoization_saves_flops_on_dense_fibers() {
        // one fiber with many nonzeros: fused 4R*nnz dominates separate 6R*nnz
        let n = 100u32;
        let x = CooTensor::from_triples(
            [2, n as usize, 2],
            &vec![1; n as usize],
            &(0..n).collect::<Vec<_>>(),
            &vec![1; n as usize],
            &vec![1.0; n as usize],
        );
        let k = AllModeKernel::new(&x);
        let (fused, separate) = k.flop_counts(32);
        assert!(fused < separate, "fused {fused} >= separate {separate}");
    }

    #[test]
    fn empty_tensor_zeroes_outputs() {
        let x = CooTensor::empty([3, 4, 5]);
        let rank = 2;
        let factors = factors_for(&x, rank);
        let fs: [&DenseMatrix; 3] = [&factors[0], &factors[1], &factors[2]];
        let k = AllModeKernel::new(&x);
        let mut outs = [
            DenseMatrix::from_fn(3, rank, |_, _| 9.0),
            DenseMatrix::from_fn(4, rank, |_, _| 9.0),
            DenseMatrix::from_fn(5, rank, |_, _| 9.0),
        ];
        k.mttkrp_all(&fs, &mut outs);
        for o in &outs {
            assert!(o.as_slice().iter().all(|&v| v == 0.0));
        }
    }
}
