//! Out-of-core CP-ALS: the [`crate::als`] loop over a streaming MTTKRP,
//! so the tensor is never resident — only its factors, grams, and two
//! tiles at a time.
//!
//! The streamed and the in-memory solver are one loop (`als::als_loop`):
//! same seeded initial factors, same dense update, same fit. With the
//! streaming MTTKRP bit-for-bit equal to the in-memory kernels, the
//! per-iteration factors agree to roundoff. The loop's fit never touches
//! the nonzeros (it pairs the last mode's MTTKRP output with the updated
//! factor), so the only tensor passes are the three MTTKRPs per iteration
//! and one `‖X‖²` pass up front, visible in the stream counters.

use crate::als::{als_loop, CpAlsOptions, CpAlsResult};
use std::sync::Arc;
use tenblock_core::obs::StreamStats;
use tenblock_core::{StreamError, StreamingMttkrp};
use tenblock_tensor::TensorSource;

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
        let exec = &self.opts.kernel_cfg.exec;
        let strip = self.opts.kernel_cfg.strip_width;
        let als_span = exec.recorder.span("cpd/als-stream");
        als_span.annotate_num("rank", self.opts.rank as f64);
        als_span.annotate_num("tiles", self.src.n_tiles() as f64);

        let x_sq = self.stream_sq_norm()?;
        als_loop(self.src.dims(), x_sq, &self.opts, |m, fs, out| {
            StreamingMttkrp::new(self.src, m, strip)
                .with_exec(exec.clone())
                .with_stats(Arc::clone(&self.stats))
                .run(fs, out)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::als::CpAls;
    use tenblock_core::KernelKind;
    use tenblock_tensor::gen::{clustered_tensor, uniform_tensor, ClusteredConfig};
    use tenblock_tensor::{CooSource, NMODES};

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
