//! CP-ALS: alternating least squares for the canonical polyadic
//! decomposition, generic over the MTTKRP kernel.
//!
//! Per iteration, for each mode `m`:
//!
//! 1. `M = X_(m) (⊙ other factors)` — the MTTKRP, via any
//!    [`MttkrpKernel`]; this is the step the paper optimizes.
//! 2. `V = ∘ of the other factors' gram matrices` (`R x R`).
//! 3. `A_m = M V⁻¹` (Cholesky solve with ridge fallback).
//! 4. Column-normalize `A_m` into `λ`, the norms read off the gram of the
//!    update, which rescaled is the gram step 2 needs next.
//!
//! Then the fit, without touching the nonzeros: the last mode's MTTKRP
//! already contracted `X` with the other two updated factors, so pairing
//! it with `λ` and the new `A₂` gives `⟨X, M⟩`, and the grams give `‖M‖²`.
//! Convergence is declared when the change in fit falls below `tol`. One
//! loop (`als_loop`) serves the in-memory and the streamed solver; they
//! differ only in what computes step 1.

use crate::kruskal::{fit_from_norms, sq_norm_from_grams, KruskalTensor};
use crate::linalg::{gram_with, hadamard_assign, scale_columns_with, solve_spd_rows_into};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::convert::Infallible;
use tenblock_core::{build_kernel, KernelConfig, KernelKind, MttkrpKernel, Threads};
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
/// count data): one seeded stream, modes drawn in order.
fn init_factors(dims: [usize; NMODES], rank: usize, seed: u64) -> Vec<DenseMatrix> {
    let mut rng = StdRng::seed_from_u64(seed);
    dims.iter()
        .map(|&d| {
            let data: Vec<f64> = (0..d * rank).map(|_| rng.random::<f64>()).collect();
            DenseMatrix::from_vec(d, rank, data)
        })
        .collect()
}

/// The dense half of mode `m`'s update, from that mode's MTTKRP output:
/// `V = ∘` of the other modes' grams, `A_m = M V⁻¹` solved from `M` into
/// `factors[m]`, then one gram of the *un-normalized* update gives both
/// the column norms `λ = √diag` and, rescaled by `1 / (λ_p λ_q)`, the gram
/// of the normalized factor. A column of zero norm is left as it is, with
/// `λ = 0`. Returns `λ`.
fn update_mode(
    m: usize,
    mttkrp_out: &DenseMatrix,
    factors: &mut [DenseMatrix],
    grams: &mut [DenseMatrix],
    threads: Threads,
) -> Vec<f64> {
    let others: Vec<usize> = (0..NMODES).filter(|&o| o != m).collect();
    let mut v = grams[others[0]].clone();
    hadamard_assign(&mut v, &grams[others[1]]);

    let updated = &mut factors[m];
    solve_spd_rows_into(&v, mttkrp_out, updated, threads);

    let mut g = gram_with(updated, threads);
    let rank = g.rows();
    let lambda: Vec<f64> = (0..rank).map(|r| g.get(r, r).sqrt()).collect();
    let inv: Vec<f64> = lambda
        .iter()
        .map(|&l| if l > 0.0 { 1.0 / l } else { 1.0 })
        .collect();
    scale_columns_with(updated, &inv, threads);
    for (grow, &ip) in g.as_mut_slice().chunks_exact_mut(rank).zip(&inv) {
        for (x, &iq) in grow.iter_mut().zip(&inv) {
            *x *= ip * iq;
        }
    }
    grams[m] = g;
    lambda
}

/// `⟨X, M⟩` from the last mode's MTTKRP output `M₂`, which already
/// contracted `X` with the updated `A₀, A₁`:
/// `Σ_r λ_r Σ_k M₂[k,r] · A₂[k,r]`, walked row by row.
fn inner_from_last_mttkrp(m2: &DenseMatrix, a2: &DenseMatrix, lambda: &[f64]) -> f64 {
    let rank = lambda.len();
    let mut cols = vec![0.0; rank];
    let rows = m2.as_slice().chunks_exact(rank);
    for (mrow, arow) in rows.zip(a2.as_slice().chunks_exact(rank)) {
        for ((c, &mv), &av) in cols.iter_mut().zip(mrow).zip(arow) {
            *c += mv * av;
        }
    }
    lambda.iter().zip(&cols).map(|(&l, &c)| l * c).sum()
}

/// The one ALS loop, over whatever computes a mode's MTTKRP (a prepared
/// in-memory kernel or a tile stream): per iteration three MTTKRPs, three
/// [`update_mode`]s, and a fit that needs no pass over the nonzeros —
/// `‖X − M‖² = ‖X‖² − 2⟨X, M⟩ + ‖M‖²` with `‖X‖²` given, `⟨X, M⟩` from
/// the last MTTKRP and `‖M‖²` from the grams. A non-finite fit (the solve
/// answers a non-finite system with NaN) ends the run unconverged.
pub(crate) fn als_loop<E>(
    dims: [usize; NMODES],
    x_sq: f64,
    opts: &CpAlsOptions,
    mut mttkrp: impl FnMut(usize, &[&DenseMatrix; NMODES], &mut DenseMatrix) -> Result<(), E>,
) -> Result<CpAlsResult, E> {
    let rank = opts.rank;
    let threads = opts.kernel_cfg.exec.threads;
    let recorder = &opts.kernel_cfg.exec.recorder;
    let mut factors = init_factors(dims, rank, opts.seed);
    let mut lambda = vec![1.0; rank];
    let mut grams: Vec<DenseMatrix> = factors.iter().map(|f| gram_with(f, threads)).collect();
    let mut mttkrp_out: Vec<DenseMatrix> =
        dims.iter().map(|&d| DenseMatrix::zeros(d, rank)).collect();
    let mut fit_history = Vec::new();
    let mut prev_fit = f64::NEG_INFINITY;
    let mut converged = false;

    for it in 0..opts.max_iters {
        let iter_span = recorder.span("cpd/als/iter");
        iter_span.annotate_num("iter", it as f64);
        for (m, out) in mttkrp_out.iter_mut().enumerate() {
            let fs: [&DenseMatrix; NMODES] = [&factors[0], &factors[1], &factors[2]];
            mttkrp(m, &fs, out)?;
            lambda = update_mode(m, out, &mut factors, &mut grams, threads);
        }
        let last = NMODES - 1;
        let inner = inner_from_last_mttkrp(&mttkrp_out[last], &factors[last], &lambda);
        let model_sq = sq_norm_from_grams(&grams, &lambda);
        let fit = fit_from_norms(x_sq, inner, model_sq);
        fit_history.push(fit);
        iter_span.annotate_num("fit", fit);
        if !fit.is_finite() {
            break;
        }
        if (fit - prev_fit).abs() < opts.tol {
            converged = true;
            break;
        }
        prev_fit = fit;
    }

    Ok(CpAlsResult {
        model: KruskalTensor::new(lambda, factors),
        iterations: fit_history.len(),
        fit_history,
        converged,
    })
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
        let kernels = (0..NMODES)
            .map(|m| build_kernel(opts.kernel, x, m, &opts.kernel_cfg))
            .collect();
        Self::with_kernels(x.dims(), kernels, opts)
    }

    /// The solver over kernels the caller already holds — one per mode of
    /// a tensor of shape `dims`, in mode order — for callers that keep a
    /// tensor's layouts across decompositions. `opts.kernel` and the
    /// blocking fields of `opts.kernel_cfg` are not consulted; the
    /// recorder and thread policy of `opts.kernel_cfg.exec` still drive
    /// the dense half.
    pub fn with_kernels(
        dims: [usize; NMODES],
        kernels: Vec<Box<dyn MttkrpKernel>>,
        opts: CpAlsOptions,
    ) -> Self {
        assert!(opts.rank > 0, "rank must be positive");
        assert!(
            kernels.iter().map(|k| k.mode()).eq(0..NMODES),
            "one kernel per mode, in mode order"
        );
        CpAls {
            opts,
            kernels,
            dims,
        }
    }

    /// Runs ALS on `x` (the same tensor the kernels were built from).
    pub fn run(&self, x: &CooTensor) -> CpAlsResult {
        assert_eq!(
            x.dims(),
            self.dims,
            "tensor shape changed since kernel construction"
        );
        let als_span = self.opts.kernel_cfg.exec.recorder.span("cpd/als");
        als_span.annotate_num("rank", self.opts.rank as f64);
        let run = als_loop(self.dims, x.sq_norm(), &self.opts, |m, fs, out| {
            self.kernels[m].mttkrp(fs, out);
            Ok::<(), Infallible>(())
        });
        match run {
            Ok(result) => result,
            Err(never) => match never {},
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
    fn non_finite_mttkrp_stops_the_loop_unconverged() {
        let x = planted(2, [6, 5, 4], 3);
        let mut opts = CpAlsOptions::new(2);
        opts.max_iters = 10;
        opts.tol = 0.0;
        let als = CpAls::new(&x, opts.clone());
        let mut calls = 0;
        let run = als_loop(x.dims(), x.sq_norm(), &opts, |m, fs, out| {
            als.kernels[m].mttkrp(fs, out);
            calls += 1;
            if calls == 5 {
                // Mode 1 of the second iteration: the NaN spreads through
                // that factor's gram into mode 2's system matrix, which the
                // solve must answer with NaN rather than loop or panic.
                out.set(0, 0, f64::NAN);
            }
            Ok::<(), Infallible>(())
        })
        .unwrap();
        assert_eq!(run.iterations, 2);
        assert_eq!(run.fit_history.len(), 2);
        assert!(run.fit_history[0].is_finite() && run.fit_history[1].is_nan());
        assert!(!run.converged);
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
