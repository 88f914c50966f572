//! CP-ALS: alternating least squares for the canonical polyadic
//! decomposition, generic over the MTTKRP kernel.
//!
//! Per iteration, for each mode `m`:
//!
//! 1. `M = X_(m) (⊙ other factors)` — the MTTKRP, via any
//!    [`MttkrpKernel`]; this is the step the paper optimizes.
//! 2. `V = ∘ of the other factors' gram matrices` (`R x R`).
//! 3. `A_m = M V⁻¹` (Cholesky solve with ridge fallback).
//! 4. Column-normalize `A_m` into `λ`.
//!
//! Convergence is declared when the change in fit falls below `tol`.

use crate::kruskal::KruskalTensor;
use crate::linalg::{gram, hadamard_assign, normalize_columns, solve_spd_rhs_rows};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tenblock_core::{build_kernel, KernelConfig, KernelKind, MttkrpKernel};
use tenblock_tensor::{CooTensor, DenseMatrix, NMODES};

/// Options for [`CpAls`].
#[derive(Debug, Clone)]
pub struct CpAlsOptions {
    /// Decomposition rank.
    pub rank: usize,
    /// Maximum ALS iterations.
    pub max_iters: usize,
    /// Stop when `|fit - prev_fit| < tol`.
    pub tol: f64,
    /// Which MTTKRP kernel family to use.
    pub kernel: KernelKind,
    /// Blocking parameters for the kernel.
    pub kernel_cfg: KernelConfig,
    /// Seed for the random initial factors.
    pub seed: u64,
}

impl CpAlsOptions {
    /// Defaults: baseline SPLATT kernel, 50 iterations, `tol = 1e-5`.
    pub fn new(rank: usize) -> Self {
        CpAlsOptions {
            rank,
            max_iters: 50,
            tol: 1e-5,
            kernel: KernelKind::Splatt,
            kernel_cfg: KernelConfig::default(),
            seed: 0xa1b2c3d4,
        }
    }
}

/// Result of a CP-ALS run.
#[derive(Debug, Clone)]
pub struct CpAlsResult {
    /// The decomposition.
    pub model: KruskalTensor,
    /// Fit after each iteration.
    pub fit_history: Vec<f64>,
    /// Total iterations performed.
    pub iterations: usize,
    /// True if `tol` was reached before `max_iters`.
    pub converged: bool,
}

/// Random initial factors in `[0, 1)` (the usual ALS start for nonnegative
/// count data): one seeded stream, modes drawn in order. Both drivers start
/// here, so the streamed and in-memory solvers walk the same path.
pub(crate) fn init_factors(dims: [usize; NMODES], rank: usize, seed: u64) -> Vec<DenseMatrix> {
    let mut rng = StdRng::seed_from_u64(seed);
    dims.iter()
        .map(|&d| {
            let data: Vec<f64> = (0..d * rank).map(|_| rng.random::<f64>()).collect();
            DenseMatrix::from_vec(d, rank, data)
        })
        .collect()
}

/// The dense half of mode `m`'s update, from that mode's MTTKRP output:
/// `V = ∘` of the other modes' grams, `A_m = M V⁻¹`, column-normalize
/// `A_m` (a fully zero column keeps a zero norm and stays zeroed), refresh
/// its gram. Returns the column norms `λ`.
pub(crate) fn update_mode(
    m: usize,
    mttkrp_out: &DenseMatrix,
    factors: &mut [DenseMatrix],
    grams: &mut [DenseMatrix],
) -> Vec<f64> {
    let others: Vec<usize> = (0..NMODES).filter(|&o| o != m).collect();
    let mut v = grams[others[0]].clone();
    hadamard_assign(&mut v, &grams[others[1]]);

    let mut updated = solve_spd_rhs_rows(&v, mttkrp_out);
    let lambda = normalize_columns(&mut updated);
    factors[m] = updated;
    grams[m] = gram(&factors[m]);
    lambda
}

/// The CP-ALS solver. Kernels for all three modes are prepared once at
/// construction (the reorganization cost the paper amortizes over
/// iterations).
///
/// ```
/// use tenblock_cpd::{CpAls, CpAlsOptions};
/// use tenblock_core::{KernelConfig, KernelKind};
/// use tenblock_tensor::gen::uniform_tensor;
///
/// let x = uniform_tensor([20, 20, 20], 500, 7);
/// let mut opts = CpAlsOptions::new(4);
/// opts.max_iters = 5;
/// opts.kernel = KernelKind::MbRankB; // blocked MTTKRP inside ALS
/// opts.kernel_cfg = KernelConfig { grid: [2, 2, 2], strip_width: 16, ..Default::default() };
/// let result = CpAls::new(&x, opts).run(&x);
/// assert_eq!(result.fit_history.len(), result.iterations);
/// ```
pub struct CpAls {
    opts: CpAlsOptions,
    kernels: Vec<Box<dyn MttkrpKernel>>,
    dims: [usize; NMODES],
}

impl CpAls {
    /// Prepares kernels for every mode of `x`.
    pub fn new(x: &CooTensor, opts: CpAlsOptions) -> Self {
        assert!(opts.rank > 0, "rank must be positive");
        let kernels = (0..NMODES)
            .map(|m| build_kernel(opts.kernel, x, m, &opts.kernel_cfg))
            .collect();
        CpAls {
            opts,
            kernels,
            dims: x.dims(),
        }
    }

    /// Runs ALS on `x` (the same tensor the kernels were built from).
    pub fn run(&self, x: &CooTensor) -> CpAlsResult {
        assert_eq!(
            x.dims(),
            self.dims,
            "tensor shape changed since kernel construction"
        );
        let rank = self.opts.rank;
        let mut factors = init_factors(self.dims, rank, self.opts.seed);
        let mut lambda = vec![1.0; rank];
        let mut grams: Vec<DenseMatrix> = factors.iter().map(gram).collect();
        let mut fit_history = Vec::new();
        let mut prev_fit = f64::NEG_INFINITY;
        let mut converged = false;
        let mut mttkrp_out: Vec<DenseMatrix> = self
            .dims
            .iter()
            .map(|&d| DenseMatrix::zeros(d, rank))
            .collect();

        let recorder = self.opts.kernel_cfg.exec.recorder.clone();
        let als_span = recorder.span("cpd/als");
        als_span.annotate_num("rank", rank as f64);

        let mut iterations = 0;
        for it in 0..self.opts.max_iters {
            iterations += 1;
            let iter_span = recorder.span("cpd/als/iter");
            iter_span.annotate_num("iter", it as f64);
            for m in 0..NMODES {
                let fs: [&DenseMatrix; NMODES] = [&factors[0], &factors[1], &factors[2]];
                self.kernels[m].mttkrp(&fs, &mut mttkrp_out[m]);
                lambda = update_mode(m, &mttkrp_out[m], &mut factors, &mut grams);
            }
            let model = KruskalTensor::new(lambda.clone(), factors.clone());
            let fit = model.fit(x);
            fit_history.push(fit);
            iter_span.annotate_num("fit", fit);
            if (fit - prev_fit).abs() < self.opts.tol {
                converged = true;
                break;
            }
            prev_fit = fit;
        }

        CpAlsResult {
            model: KruskalTensor::new(lambda, factors),
            fit_history,
            iterations,
            converged,
        }
    }

    /// Kernel names, for reporting.
    pub fn kernel_name(&self) -> &'static str {
        self.kernels[0].name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A random low-rank nonnegative tensor materialized densely: ALS at
    /// the generating rank must reach a near-perfect fit.
    fn planted(rank: usize, dims: [usize; NMODES], seed: u64) -> CooTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let factors: Vec<DenseMatrix> = dims
            .iter()
            .map(|&d| {
                let data: Vec<f64> = (0..d * rank).map(|_| rng.random::<f64>()).collect();
                DenseMatrix::from_vec(d, rank, data)
            })
            .collect();
        KruskalTensor::new(vec![1.0; rank], factors).to_coo()
    }

    #[test]
    fn recovers_planted_low_rank() {
        let x = planted(3, [12, 10, 8], 42);
        let mut opts = CpAlsOptions::new(3);
        opts.max_iters = 200;
        opts.tol = 1e-9;
        let als = CpAls::new(&x, opts);
        let result = als.run(&x);
        let final_fit = *result.fit_history.last().unwrap();
        assert!(final_fit > 0.995, "fit = {final_fit}");
    }

    #[test]
    fn fit_is_monotone_non_decreasing() {
        let x = planted(4, [10, 10, 10], 7);
        let mut opts = CpAlsOptions::new(2); // under-parameterized: won't hit 1.0
        opts.max_iters = 30;
        opts.tol = 0.0;
        let result = CpAls::new(&x, opts).run(&x);
        for w in result.fit_history.windows(2) {
            assert!(w[1] >= w[0] - 1e-8, "fit decreased: {} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn all_kernels_reach_same_fit() {
        let x = planted(3, [14, 9, 11], 99);
        let mut fits = Vec::new();
        for kind in KernelKind::ALL {
            let mut opts = CpAlsOptions::new(3);
            opts.max_iters = 25;
            opts.tol = 0.0;
            opts.kernel = kind;
            opts.kernel_cfg = KernelConfig {
                grid: [2, 2, 2],
                strip_width: 16,
                ..Default::default()
            };
            let result = CpAls::new(&x, opts).run(&x);
            fits.push(*result.fit_history.last().unwrap());
        }
        for f in &fits[1..] {
            assert!((f - fits[0]).abs() < 1e-6, "kernel fits diverge: {fits:?}");
        }
    }

    #[test]
    fn trace_spans_nest_and_are_monotone() {
        use std::sync::Arc;
        use tenblock_core::obs::{Rec, TraceRecorder};
        use tenblock_core::ExecPolicy;

        let x = planted(2, [8, 8, 8], 11);
        let tr = Arc::new(TraceRecorder::new());
        let mut opts = CpAlsOptions::new(2);
        opts.max_iters = 3;
        opts.tol = 0.0;
        opts.kernel_cfg = KernelConfig::default()
            .with_exec(ExecPolicy::serial().with_recorder(Rec::new(tr.clone())));
        let result = CpAls::new(&x, opts).run(&x);

        let spans = tr.snapshot();
        let roots: Vec<_> = spans.iter().filter(|s| s.name == "cpd/als").collect();
        assert_eq!(roots.len(), 1, "exactly one ALS root span");
        let root_id = roots[0].id;

        let iters: Vec<_> = spans.iter().filter(|s| s.name == "cpd/als/iter").collect();
        assert_eq!(iters.len(), result.iterations, "one span per iteration");
        for it in &iters {
            assert_eq!(it.parent, root_id, "iteration spans hang off the root");
            assert!(it.start_ns <= it.end_ns);
            assert!(
                it.attrs.iter().any(|(k, _)| k == "fit"),
                "iteration span carries the fit"
            );
        }

        let mttkrps: Vec<_> = spans
            .iter()
            .filter(|s| s.name.starts_with("mttkrp/"))
            .collect();
        assert_eq!(mttkrps.len(), NMODES * result.iterations);
        for m in &mttkrps {
            assert!(
                iters.iter().any(|i| i.id == m.parent),
                "MTTKRP spans nest under an iteration"
            );
        }

        // Span ids are assigned at start under one lock: start timestamps
        // are monotone in id order.
        for w in spans.windows(2) {
            assert!(w[0].start_ns <= w[1].start_ns, "timestamps not monotone");
        }
    }

    #[test]
    fn convergence_flag() {
        let x = planted(2, [8, 8, 8], 5);
        let mut opts = CpAlsOptions::new(2);
        opts.max_iters = 500;
        opts.tol = 1e-7;
        let result = CpAls::new(&x, opts).run(&x);
        assert!(result.converged);
        assert!(result.iterations < 500);
        assert_eq!(result.fit_history.len(), result.iterations);
    }
}
