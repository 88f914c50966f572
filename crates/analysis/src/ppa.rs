//! Pressure-point analysis (PPA) of the SPLATT MTTKRP kernel — Section
//! IV-B, Table I.
//!
//! PPA inserts artificial "pressure points" into a kernel — deleting
//! instructions, pinning access addresses, renaming accumulators — and
//! observes the execution-time delta to attribute cost to specific
//! micro-architectural resources. The five transformations of Table I are
//! implemented here as real kernel variants:
//!
//! | Type | Transformation | Resource probed |
//! |---|---|---|
//! | 1 | accesses to `B` removed | memory traffic of the mode-2 factor |
//! | 2 | all `B` accesses pinned to row 0 (L1-resident) | same, cache-served |
//! | 3 | accumulator loads eliminated (register accumulation) | load-unit pressure |
//! | 4 | accesses to `C` removed | memory traffic of the mode-3 factor |
//! | 5 | per-fiber flops moved into the per-nonzero loop | FPU (COO emulation) |
//! | 6 | unchanged Algorithm 1 | baseline |
//!
//! Variants 1, 2, 4 and 5 intentionally compute *different results* — they
//! are probes, not kernels.
//!
//! The baseline (type 6) is the paper's Algorithm 1 as printed, *without*
//! the look-ahead prefetch and single-nonzero-fiber path the shipped
//! `process_block_plain` has: numerically equal to the shipped kernel, not
//! equal in time. Types 1–2 measure exactly the `B`-row latency that
//! look-ahead hides, so Table I stays a reproduction of the paper's
//! experiment, not a profile of the kernel that ships.

use std::hint::black_box;
use std::time::Instant;
use tenblock_tensor::{CooTensor, DenseMatrix, SplattTensor};

/// The six rows of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PpaVariant {
    /// Type 1: access to B removed.
    NoB,
    /// Type 2: all accesses to B limited to L1 (row 0 only).
    BInL1,
    /// Type 3: eliminating load instructions (register accumulation).
    NoAccumLoads,
    /// Type 4: access to C removed.
    NoC,
    /// Type 5: moving flops to the inner loop (COO emulation).
    FlopsInner,
    /// Type 6: Algorithm 1 unchanged — the paper's loop, without the shipped
    /// kernel's look-ahead prefetch (same numbers, not the same time).
    Unchanged,
}

impl PpaVariant {
    /// All variants in Table I order (types 1–6).
    pub const ALL: [PpaVariant; 6] = [
        PpaVariant::NoB,
        PpaVariant::BInL1,
        PpaVariant::NoAccumLoads,
        PpaVariant::NoC,
        PpaVariant::FlopsInner,
        PpaVariant::Unchanged,
    ];

    /// The paper's Table I type number.
    pub fn type_no(&self) -> usize {
        match self {
            PpaVariant::NoB => 1,
            PpaVariant::BInL1 => 2,
            PpaVariant::NoAccumLoads => 3,
            PpaVariant::NoC => 4,
            PpaVariant::FlopsInner => 5,
            PpaVariant::Unchanged => 6,
        }
    }

    /// Table I description text.
    pub fn description(&self) -> &'static str {
        match self {
            PpaVariant::NoB => "Access to B removed",
            PpaVariant::BInL1 => "All accesses to B is limited to L1",
            PpaVariant::NoAccumLoads => "Eliminating load instructions",
            PpaVariant::NoC => "Access to C removed",
            PpaVariant::FlopsInner => "Moving flops to the inner-loop",
            PpaVariant::Unchanged => "Unchanged",
        }
    }
}

/// Timing result for one variant.
#[derive(Debug, Clone)]
pub struct PpaResult {
    /// Which transformation was applied.
    pub variant: PpaVariant,
    /// Best-of-`reps` execution time in seconds.
    pub secs: f64,
}

/// Runs one variant once. The result matrix is consumed via `black_box` by
/// the caller so no variant is dead-code-eliminated.
pub fn run_variant(
    variant: PpaVariant,
    t: &SplattTensor,
    b: &DenseMatrix,
    c: &DenseMatrix,
    out: &mut DenseMatrix,
    accum: &mut [f64],
) {
    let (_, _, _, j_idx, vals) = t.raw();
    out.fill_zero();
    match variant {
        PpaVariant::Unchanged => {
            for s in 0..t.n_slices() {
                let orow = out.row_mut(t.slice_global(s));
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
        PpaVariant::NoB => {
            // line 7 loses its B load: s[r] += val
            for s in 0..t.n_slices() {
                let orow = out.row_mut(t.slice_global(s));
                for f in t.slice_fibers(s) {
                    accum.fill(0.0);
                    for n in t.fiber_nnz(f) {
                        let v = vals[n];
                        // keep the j_index load: only the B access is removed
                        let j = black_box(j_idx[n]);
                        let _ = j;
                        for a in accum.iter_mut() {
                            *a += v;
                        }
                    }
                    let crow = c.row(t.fiber_kid(f) as usize);
                    for ((o, &a), &cv) in orow.iter_mut().zip(accum.iter()).zip(crow) {
                        *o += a * cv;
                    }
                }
            }
        }
        PpaVariant::BInL1 => {
            // every B access reads row 0: same instructions, L1-resident data
            let brow0 = b.row(0);
            for s in 0..t.n_slices() {
                let orow = out.row_mut(t.slice_global(s));
                for f in t.slice_fibers(s) {
                    accum.fill(0.0);
                    for n in t.fiber_nnz(f) {
                        let v = vals[n];
                        let j = black_box(j_idx[n]);
                        let _ = j;
                        for (a, &bv) in accum.iter_mut().zip(brow0) {
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
        PpaVariant::NoAccumLoads => {
            // the PPA probe deletes the *loads* of lines 7 and 9: the
            // accumulator and output are overwritten instead of
            // read-modify-written. Same stores, same flops minus the adds,
            // no accumulator/output load traffic. (The result is wrong —
            // this is a probe, not a kernel; the production fix is the
            // register blocking of Algorithm 2.)
            for s in 0..t.n_slices() {
                let orow = out.row_mut(t.slice_global(s));
                for f in t.slice_fibers(s) {
                    accum.fill(0.0);
                    for n in t.fiber_nnz(f) {
                        let v = vals[n];
                        let brow = b.row(j_idx[n] as usize);
                        for (a, &bv) in accum.iter_mut().zip(brow) {
                            *a = v * bv; // '=' not '+=': accumulator load deleted
                        }
                    }
                    let crow = c.row(t.fiber_kid(f) as usize);
                    for ((o, &a), &cv) in orow.iter_mut().zip(accum.iter()).zip(crow) {
                        *o = a * cv; // '=' not '+=': output load deleted
                    }
                }
            }
        }
        PpaVariant::NoC => {
            // line 9 loses its C load: A[i][r] += s[r]
            for s in 0..t.n_slices() {
                let orow = out.row_mut(t.slice_global(s));
                for f in t.slice_fibers(s) {
                    accum.fill(0.0);
                    for n in t.fiber_nnz(f) {
                        let v = vals[n];
                        let brow = b.row(j_idx[n] as usize);
                        for (a, &bv) in accum.iter_mut().zip(brow) {
                            *a += v * bv;
                        }
                    }
                    let k = black_box(t.fiber_kid(f));
                    let _ = k;
                    for (o, &a) in orow.iter_mut().zip(accum.iter()) {
                        *o += a;
                    }
                }
            }
        }
        PpaVariant::FlopsInner => {
            // per-fiber Hadamard moved inside the per-nonzero loop:
            // A[i][r] += val * B[j][r] * C[k][r], emulating COO
            for s in 0..t.n_slices() {
                let orow = out.row_mut(t.slice_global(s));
                for f in t.slice_fibers(s) {
                    let crow = c.row(t.fiber_kid(f) as usize);
                    for n in t.fiber_nnz(f) {
                        let v = vals[n];
                        let brow = b.row(j_idx[n] as usize);
                        for ((o, &bv), &cv) in orow.iter_mut().zip(brow).zip(crow) {
                            *o += v * bv * cv;
                        }
                    }
                }
            }
        }
    }
}

/// Runs the full Table I experiment: every variant, best of `reps` timings.
pub fn run_ppa(coo: &CooTensor, mode: usize, rank: usize, reps: usize) -> Vec<PpaResult> {
    let t = SplattTensor::for_mode(coo, mode);
    let perm = t.perm();
    let dims = coo.dims();
    let mk = |d: usize, salt: usize| {
        DenseMatrix::from_fn(d, rank, |r, c| {
            (((r * 37 + c * 13 + salt) % 29) as f64 - 14.0) * 0.03
        })
    };
    let b = mk(dims[perm[1]], 1);
    let c = mk(dims[perm[2]], 2);
    let mut out = DenseMatrix::zeros(dims[perm[0]], rank);
    let mut accum = vec![0.0; rank];

    PpaVariant::ALL
        .iter()
        .map(|&variant| {
            let mut best = f64::INFINITY;
            for _ in 0..reps.max(1) {
                let t0 = Instant::now();
                run_variant(variant, &t, &b, &c, &mut out, &mut accum);
                best = best.min(t0.elapsed().as_secs_f64());
                black_box(out.as_slice());
            }
            PpaResult {
                variant,
                secs: best,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenblock_core::block::BlockedKernel;
    use tenblock_core::kernel::MttkrpKernel;
    use tenblock_tensor::gen::uniform_tensor;

    #[test]
    fn unchanged_variant_is_numerically_equal_to_the_shipped_kernel() {
        let x = uniform_tensor([20, 25, 30], 500, 3);
        let rank = 12;
        let t = SplattTensor::for_mode(&x, 0);
        let b = DenseMatrix::from_fn(25, rank, |r, c| ((r + c) % 7) as f64 * 0.2);
        let c = DenseMatrix::from_fn(30, rank, |r, c| ((r * c) % 5) as f64 * 0.3);
        let a = DenseMatrix::zeros(20, rank);
        let mut out = DenseMatrix::zeros(20, rank);
        let mut accum = vec![0.0; rank];
        run_variant(PpaVariant::Unchanged, &t, &b, &c, &mut out, &mut accum);

        let kernel = BlockedKernel::new(&x, 0, None, None);
        let mut expect = DenseMatrix::zeros(20, rank);
        kernel.mttkrp(&[&a, &b, &c], &mut expect);
        assert!(expect.approx_eq(&out, 1e-12));
    }

    #[test]
    fn no_accum_loads_probe_deletes_reads() {
        // type 3 deletes accumulator/output loads: results are finite but
        // intentionally wrong on multi-nonzero fibers (it's a probe)
        let x = CooTensor::from_triples(
            [2, 3, 2],
            &[0, 0, 0],
            &[0, 1, 2],
            &[1, 1, 1],
            &[1.0, 1.0, 1.0],
        ); // one fiber with three nonzeros
        let rank = 4;
        let t = SplattTensor::for_mode(&x, 0);
        let b = DenseMatrix::from_fn(3, rank, |r, _| (r + 1) as f64);
        let c = DenseMatrix::from_fn(2, rank, |_, _| 1.0);
        let mut o1 = DenseMatrix::zeros(2, rank);
        let mut o2 = DenseMatrix::zeros(2, rank);
        let mut accum = vec![0.0; rank];
        run_variant(PpaVariant::Unchanged, &t, &b, &c, &mut o1, &mut accum);
        run_variant(PpaVariant::NoAccumLoads, &t, &b, &c, &mut o2, &mut accum);
        // baseline sums the fiber (1+2+3 = 6); the probe keeps only the
        // last nonzero (3)
        assert_eq!(o1.get(0, 0), 6.0);
        assert_eq!(o2.get(0, 0), 3.0);
        assert!(o2.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn flops_inner_matches_unchanged_numerically() {
        // type 5 reassociates but computes the same quantity
        let x = uniform_tensor([10, 12, 8], 250, 6);
        let rank = 8;
        let t = SplattTensor::for_mode(&x, 0);
        let b = DenseMatrix::from_fn(12, rank, |r, c| ((r + c) % 4) as f64);
        let c = DenseMatrix::from_fn(8, rank, |r, c| ((r * c + 1) % 3) as f64);
        let mut o1 = DenseMatrix::zeros(10, rank);
        let mut o2 = DenseMatrix::zeros(10, rank);
        let mut accum = vec![0.0; rank];
        run_variant(PpaVariant::Unchanged, &t, &b, &c, &mut o1, &mut accum);
        run_variant(PpaVariant::FlopsInner, &t, &b, &c, &mut o2, &mut accum);
        assert!(o1.approx_eq(&o2, 1e-10));
    }

    #[test]
    fn harness_runs_all_six() {
        let x = uniform_tensor([30, 30, 30], 1_000, 9);
        let results = run_ppa(&x, 0, 16, 1);
        assert_eq!(results.len(), 6);
        for (r, v) in results.iter().zip(PpaVariant::ALL) {
            assert_eq!(r.variant, v);
            assert!(r.secs.is_finite() && r.secs >= 0.0);
        }
        assert_eq!(results[5].variant.type_no(), 6);
        assert_eq!(results[0].variant.description(), "Access to B removed");
    }
}
