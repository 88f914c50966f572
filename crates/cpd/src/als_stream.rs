//! Out-of-core CP-ALS: the [`crate::als`] loop over a streaming MTTKRP,
//! so the tensor is never resident — only its factors, grams, and two
//! tiles at a time.
//!
//! Two things keep the streamed run equivalent to the in-memory one:
//!
//! * **Identical initialization.** [`CpAlsStream`] and `CpAls` draw their
//!   random initial factors from one function (same seed, same per-mode
//!   draw order), so the two solvers walk the same optimization path.
//!   With the streaming MTTKRP bit-for-bit equal to the in-memory
//!   kernels, per-iteration factors agree to roundoff.
//! * **Streaming fit.** The in-memory fit needs `⟨X, M⟩`, a pass over
//!   the nonzeros. Streaming avoids re-reading the tensor per iteration
//!   with the SPLATT identity: the last mode's MTTKRP output `M₂`
//!   already contracts `X` with the updated `A₀, A₁`, so
//!   `⟨X, M⟩ = Σ_r λ_r Σ_k M₂[k,r] · A₂[k,r]` — free given the
//!   iteration's final factors. `‖X‖²` is streamed once up front (one
//!   extra tile pass, visible in the stream counters); `‖M‖²` uses the
//!   gram identity. No tensor pass per iteration beyond the three
//!   MTTKRPs.

use crate::als::{init_factors, update_mode, CpAlsOptions, CpAlsResult};
use crate::kruskal::KruskalTensor;
use crate::linalg::gram;
use std::sync::Arc;
use tenblock_core::obs::StreamStats;
use tenblock_core::{StreamError, StreamingMttkrp};
use tenblock_tensor::{DenseMatrix, TensorSource, NMODES};

/// CP-ALS over a [`TensorSource`]. Where [`crate::CpAls`] prepares one
/// in-memory kernel per mode, this driver streams tiles per MTTKRP; the
/// `kernel`/`grid` fields of [`CpAlsOptions`] are ignored (the source's
/// grid is the blocking), while `strip_width`, `exec`, `seed`, and the
/// convergence controls mean the same thing.
pub struct CpAlsStream<'a> {
    src: &'a dyn TensorSource,
    opts: CpAlsOptions,
    stats: Arc<StreamStats>,
}

impl<'a> CpAlsStream<'a> {
    /// A streaming solver over `src`.
    pub fn new(src: &'a dyn TensorSource, opts: CpAlsOptions) -> Self {
        assert!(opts.rank > 0, "rank must be positive");
        CpAlsStream {
            src,
            opts,
            stats: Arc::new(StreamStats::new()),
        }
    }

    /// Shares a stats sink instead of the solver's private one.
    pub fn with_stats(mut self, stats: Arc<StreamStats>) -> Self {
        self.stats = stats;
        self
    }

    /// The stream counters the solver's passes update.
    pub fn stats(&self) -> &Arc<StreamStats> {
        &self.stats
    }

    /// `‖X‖²` in one tile pass, counted in the stream stats.
    fn stream_sq_norm(&self) -> Result<f64, StreamError> {
        let mut total = 0.0;
        for i in 0..self.src.n_tiles() {
            let tile = self.src.load_tile(i)?;
            self.stats.add_tile(self.src.tile_bytes(i));
            total += tile.vals.iter().map(|v| v * v).sum::<f64>();
        }
        Ok(total)
    }

    /// Runs ALS, streaming every MTTKRP from the source.
    pub fn run(&self) -> Result<CpAlsResult, StreamError> {
        let rank = self.opts.rank;
        let dims = self.src.dims();
        let exec = &self.opts.kernel_cfg.exec;
        let strip = self.opts.kernel_cfg.strip_width;
        let mut factors = init_factors(dims, rank, self.opts.seed);
        let mut lambda = vec![1.0; rank];
        let mut grams: Vec<DenseMatrix> = factors.iter().map(gram).collect();
        let mut fit_history = Vec::new();
        let mut prev_fit = f64::NEG_INFINITY;
        let mut converged = false;
        let mut mttkrp_out: Vec<DenseMatrix> =
            dims.iter().map(|&d| DenseMatrix::zeros(d, rank)).collect();

        let recorder = exec.recorder.clone();
        let als_span = recorder.span("cpd/als-stream");
        als_span.annotate_num("rank", rank as f64);
        als_span.annotate_num("tiles", self.src.n_tiles() as f64);

        let x_sq = self.stream_sq_norm()?;

        let mut iterations = 0;
        for it in 0..self.opts.max_iters {
            iterations += 1;
            let iter_span = recorder.span("cpd/als/iter");
            iter_span.annotate_num("iter", it as f64);
            for m in 0..NMODES {
                let fs: [&DenseMatrix; NMODES] = [&factors[0], &factors[1], &factors[2]];
                StreamingMttkrp::new(self.src, m, strip)
                    .with_exec(exec.clone())
                    .with_stats(Arc::clone(&self.stats))
                    .run(&fs, &mut mttkrp_out[m])?;
                lambda = update_mode(m, &mttkrp_out[m], &mut factors, &mut grams);
            }
            // ⟨X, M⟩ from the mode-2 MTTKRP: it contracted X with the
            // updated A₀/A₁, and λ/A₂ are its own normalization, so
            // pairing it with the final A₂ reproduces the full inner
            // product without touching the tensor again.
            let m2 = &mttkrp_out[NMODES - 1];
            let a2 = &factors[NMODES - 1];
            let mut inner = 0.0;
            for (r, &l) in lambda.iter().enumerate() {
                let mut col = 0.0;
                for k in 0..dims[NMODES - 1] {
                    col += m2.get(k, r) * a2.get(k, r);
                }
                inner += l * col;
            }
            let model = KruskalTensor::new(lambda.clone(), factors.clone());
            let fit = if x_sq == 0.0 {
                if model.sq_norm() == 0.0 {
                    1.0
                } else {
                    0.0
                }
            } else {
                let resid_sq = (x_sq - 2.0 * inner + model.sq_norm()).max(0.0);
                1.0 - (resid_sq.sqrt() / x_sq.sqrt())
            };
            fit_history.push(fit);
            iter_span.annotate_num("fit", fit);
            if (fit - prev_fit).abs() < self.opts.tol {
                converged = true;
                break;
            }
            prev_fit = fit;
        }

        Ok(CpAlsResult {
            model: KruskalTensor::new(lambda, factors),
            fit_history,
            iterations,
            converged,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::als::CpAls;
    use tenblock_core::KernelKind;
    use tenblock_tensor::gen::{clustered_tensor, uniform_tensor, ClusteredConfig};
    use tenblock_tensor::CooSource;

    #[test]
    fn streamed_als_matches_in_memory_fit() {
        let cfg = ClusteredConfig::new([30, 24, 18], 1_200);
        let x = clustered_tensor(&cfg, 4);
        let mut opts = CpAlsOptions::new(5);
        opts.max_iters = 12;
        opts.tol = 0.0;
        opts.kernel = KernelKind::Bcoo;
        opts.kernel_cfg.grid = [2, 2, 2];
        opts.kernel_cfg.strip_width = 16;
        let mem = CpAls::new(&x, opts.clone()).run(&x);

        let src = CooSource::new(&x, [2, 2, 2]);
        let streamed = CpAlsStream::new(&src, opts).run().unwrap();

        assert_eq!(streamed.iterations, mem.iterations);
        for (s, m) in streamed.fit_history.iter().zip(&mem.fit_history) {
            assert!(
                (s - m).abs() < 1e-9,
                "fit diverged: streamed {s} vs in-memory {m}"
            );
        }
        // Same path, not just same destination: final factors agree.
        for mode in 0..NMODES {
            let (a, b) = (&streamed.model.factors[mode], &mem.model.factors[mode]);
            assert!(a.approx_eq(b, 1e-9), "mode {mode} factors diverged");
        }
    }

    #[test]
    fn stream_counters_show_multiple_passes() {
        let x = uniform_tensor([20, 20, 20], 600, 8);
        let src = CooSource::new(&x, [2, 2, 2]);
        let mut opts = CpAlsOptions::new(3);
        opts.max_iters = 4;
        opts.tol = 0.0;
        let solver = CpAlsStream::new(&src, opts);
        let result = solver.run().unwrap();
        let snap = solver.stats().snapshot();
        // One ‖X‖² pass plus three MTTKRP passes per iteration.
        let passes = 1 + NMODES as u64 * result.iterations as u64;
        assert_eq!(snap.tiles_loaded, passes * src.n_tiles() as u64);
        assert_eq!(snap.bytes_streamed, passes * src.total_tile_bytes());
    }

    #[test]
    fn streamed_fit_is_monotone_non_decreasing() {
        let x = uniform_tensor([16, 14, 12], 500, 15);
        let src = CooSource::new(&x, [2, 2, 2]);
        let mut opts = CpAlsOptions::new(2);
        opts.max_iters = 15;
        opts.tol = 0.0;
        let result = CpAlsStream::new(&src, opts).run().unwrap();
        for w in result.fit_history.windows(2) {
            assert!(w[1] >= w[0] - 1e-8, "fit decreased: {} -> {}", w[0], w[1]);
        }
    }
}
