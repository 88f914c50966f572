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
use tenblock_core::{stream_sq_norm, StreamError, StreamingMttkrp};
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

    /// Runs ALS, streaming every MTTKRP from the source.
    pub fn run(&self) -> Result<CpAlsResult, StreamError> {
        let exec = &self.opts.kernel_cfg.exec;
        let strip = self.opts.kernel_cfg.strip_width;
        let als_span = exec.recorder.span("cpd/als-stream");
        als_span.annotate_num("rank", self.opts.rank as f64);
        als_span.annotate_num("tiles", self.src.n_tiles() as f64);

        let x_sq = stream_sq_norm(self.src, exec, &self.stats)?;
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
    fn the_norm_pass_retries_and_reports_like_an_mttkrp_pass() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use tenblock_core::ExecPolicy;
        use tenblock_faults::{FaultAction, FaultOp, FaultPolicy, Trigger};
        use tenblock_tensor::io_bin::BinError;
        use tenblock_tensor::SourceTile;

        /// Fails the first `flaky` loads it is asked for with `EINTR`.
        struct FlakySource {
            inner: CooSource,
            flaky: usize,
            loads: AtomicUsize,
        }
        impl TensorSource for FlakySource {
            fn dims(&self) -> [usize; NMODES] {
                self.inner.dims()
            }
            fn nnz(&self) -> usize {
                self.inner.nnz()
            }
            fn grid(&self) -> [usize; NMODES] {
                self.inner.grid()
            }
            fn n_tiles(&self) -> usize {
                self.inner.n_tiles()
            }
            fn tile_cell(&self, i: usize) -> [usize; NMODES] {
                self.inner.tile_cell(i)
            }
            fn tile_nnz(&self, i: usize) -> usize {
                self.inner.tile_nnz(i)
            }
            fn load_tile_into(&self, i: usize, tile: &mut SourceTile) -> Result<(), BinError> {
                if self.loads.fetch_add(1, Ordering::Relaxed) < self.flaky {
                    return Err(BinError::Io(std::io::ErrorKind::Interrupted.into()));
                }
                self.inner.load_tile_into(i, tile)
            }
        }

        let x = uniform_tensor([20, 20, 20], 600, 8);
        let mut opts = CpAlsOptions::new(3);
        opts.max_iters = 3;
        opts.tol = 0.0;
        let clean = CpAlsStream::new(&CooSource::new(&x, [2, 2, 2]), opts.clone())
            .run()
            .unwrap();

        // The job's first loads are the ‖X‖² pass. It used to call the
        // source directly, so one EINTR there failed the whole job.
        let src = FlakySource {
            inner: CooSource::new(&x, [2, 2, 2]),
            flaky: 2,
            loads: AtomicUsize::new(0),
        };
        let solver = CpAlsStream::new(&src, opts.clone());
        let healed = solver.run().unwrap();
        assert_eq!(solver.stats().snapshot().tile_retries, 2);
        assert_eq!(healed.fit_history, clean.fit_history);

        // The fault plane reaches it too: a permanent errno injected at the
        // job's very first read is a typed I/O error naming the tile, and
        // nothing was retried or streamed before it.
        let eio = FaultPolicy::new(FaultOp::Read, FaultAction::Errno(5), Trigger::Nth(0), 7);
        opts.kernel_cfg.exec = ExecPolicy::serial().with_faults(eio);
        let src = CooSource::new(&x, [2, 2, 2]);
        let solver = CpAlsStream::new(&src, opts);
        let err = solver.run().unwrap_err();
        assert!(matches!(err, StreamError::Io { tile: 0, .. }), "got: {err}");
        let snap = solver.stats().snapshot();
        assert_eq!((snap.tile_retries, snap.tiles_loaded), (0, 0));
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
