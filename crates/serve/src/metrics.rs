//! Atomic service metrics: job counters by terminal state, queue depth,
//! plan-cache hit/miss, and per-kernel MTTKRP latency histograms.
//!
//! Everything is lock-free (`AtomicU64`; relaxed ordering for independent
//! counters, which tolerate torn reads across fields) so the hot path
//! never blocks on a metrics mutex. A histogram's `total` is the exception:
//! it is published with `Release` after its bucket and read first with
//! `Acquire`, so a snapshot's buckets and sum always cover its total.
//! [`Metrics::snapshot`] materializes a plain struct; the `metrics`
//! protocol request serializes that.

use crate::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};

/// Histogram bucket upper bounds in microseconds (the last bucket is
/// unbounded). Chosen to straddle MTTKRP latencies from toy tensors (µs)
/// to Amazon-scale modes (seconds).
pub const LATENCY_BOUNDS_US: [u64; 8] = [
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    60_000_000,
    600_000_000,
];

/// A fixed-bucket latency histogram.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    counts: [AtomicU64; LATENCY_BOUNDS_US.len() + 1],
    sum_us: AtomicU64,
    total: AtomicU64,
}

impl LatencyHistogram {
    /// Records one observation.
    ///
    /// Pathological observations — a non-finite duration from a stuck or
    /// stepped clock, or anything past the top bucket bound — land in the
    /// overflow bucket, but their contribution to `sum_us` is clamped to
    /// the top bucket bound. Without the clamp a single `f64::INFINITY`
    /// saturates the cast to `u64::MAX` and the relaxed wrapping
    /// `fetch_add` corrupts `mean_secs` for the life of the process.
    pub fn observe(&self, seconds: f64) {
        let top = LATENCY_BOUNDS_US[LATENCY_BOUNDS_US.len() - 1];
        let raw = if seconds.is_finite() {
            (seconds * 1e6).max(0.0) as u64
        } else {
            u64::MAX
        };
        let bucket = LATENCY_BOUNDS_US
            .iter()
            .position(|&b| raw <= b)
            .unwrap_or(LATENCY_BOUNDS_US.len());
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(raw.min(top), Ordering::Relaxed);
        // Release: pairs with the Acquire load in `snapshot`, publishing
        // the bucket and sum updates above with the count that covers them.
        self.total.fetch_add(1, Ordering::Release);
    }

    /// Plain-data view. `total` is read first: every observation it counts
    /// has its bucket and sum visible to the loads that follow (writers
    /// landing in between only add to those), so `Σcounts >= total` and
    /// `mean_secs` never divides a sum by a count that ran ahead of it.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let total = self.total.load(Ordering::Acquire);
        HistogramSnapshot {
            counts: self.counts.each_ref().map(|c| c.load(Ordering::Relaxed)),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            total,
        }
    }
}

/// Materialized histogram state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations per bucket (last bucket is the overflow).
    pub counts: [u64; LATENCY_BOUNDS_US.len() + 1],
    /// Sum of all observations, microseconds.
    pub sum_us: u64,
    /// Number of observations.
    pub total: u64,
}

impl HistogramSnapshot {
    /// Mean latency in seconds (0 when empty).
    pub fn mean_secs(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.total as f64 / 1e6
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            (
                "buckets_us",
                Json::Arr(
                    LATENCY_BOUNDS_US
                        .iter()
                        .map(|&b| Json::usize(b as usize))
                        .collect(),
                ),
            ),
            (
                "counts",
                Json::Arr(
                    self.counts
                        .iter()
                        .map(|&c| Json::usize(c as usize))
                        .collect(),
                ),
            ),
            ("total", Json::usize(self.total as usize)),
            ("mean_secs", Json::num(self.mean_secs())),
        ])
    }
}

/// Fault-tolerance counters, shared between the [`crate::Registry`] (which
/// increments them as it degrades gracefully) and [`Metrics`] (which
/// serializes them). An `Arc` of one instance is held by both.
#[derive(Debug, Default)]
pub struct FaultCounters {
    /// Transient I/O errors that were retried (spill writes and reloads).
    pub io_retries: AtomicU64,
    /// Spill writes that failed permanently; the victim stayed resident.
    pub spill_failures: AtomicU64,
    /// Spill stores moved to a `*.quarantine/` directory after failing
    /// validation (on reload or at startup adoption).
    pub quarantined_stores: AtomicU64,
    /// Evictions skipped because the spill write failed (the memory cap
    /// is best-effort; losing the tensor is not an option).
    pub evictions_skipped: AtomicU64,
}

impl FaultCounters {
    /// Plain-data view.
    pub fn snapshot(&self) -> FaultSnapshot {
        FaultSnapshot {
            io_retries: self.io_retries.load(Ordering::Relaxed),
            spill_failures: self.spill_failures.load(Ordering::Relaxed),
            quarantined_stores: self.quarantined_stores.load(Ordering::Relaxed),
            evictions_skipped: self.evictions_skipped.load(Ordering::Relaxed),
        }
    }
}

/// Materialized [`FaultCounters`] state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSnapshot {
    /// See [`FaultCounters::io_retries`].
    pub io_retries: u64,
    /// See [`FaultCounters::spill_failures`].
    pub spill_failures: u64,
    /// See [`FaultCounters::quarantined_stores`].
    pub quarantined_stores: u64,
    /// See [`FaultCounters::evictions_skipped`].
    pub evictions_skipped: u64,
}

impl FaultSnapshot {
    /// Serializes for the `metrics` / `list` responses.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("io_retries", Json::usize(self.io_retries as usize)),
            ("spill_failures", Json::usize(self.spill_failures as usize)),
            (
                "quarantined_stores",
                Json::usize(self.quarantined_stores as usize),
            ),
            (
                "evictions_skipped",
                Json::usize(self.evictions_skipped as usize),
            ),
        ])
    }
}

/// Layout-cache counters, shared between the [`crate::Registry`] (whose
/// entries bump them as they build and hand out layouts) and [`Metrics`]
/// (which serializes them).
#[derive(Debug, Default)]
pub struct LayoutCounters {
    /// Layouts sorted from the COO tensor: three per tensor at
    /// registration, and again at each reload from the spill tier.
    pub builds: AtomicU64,
    /// Blocked layouts derived from a held unblocked layout, one per new
    /// blocked grid.
    pub derived: AtomicU64,
    /// Kernel requests answered from a layout the entry already held.
    pub hits: AtomicU64,
}

/// All service counters. One instance lives for the life of the server.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Protocol requests handled (any command, ok or error).
    pub requests: AtomicU64,
    /// Jobs accepted into the queue.
    pub jobs_submitted: AtomicU64,
    /// Jobs rejected because the queue was full.
    pub jobs_rejected: AtomicU64,
    /// Jobs that finished successfully.
    pub jobs_done: AtomicU64,
    /// Jobs that finished with an error (including missed deadlines).
    pub jobs_failed: AtomicU64,
    /// Jobs cancelled before running.
    pub jobs_cancelled: AtomicU64,
    /// Tensors resident in the registry.
    pub tensors_registered: AtomicU64,
    /// Plan-cache hits (tune answered from cache).
    pub plan_hits: AtomicU64,
    /// Plan-cache misses (heuristic actually ran).
    pub plan_misses: AtomicU64,
    /// Malformed persisted plan entries skipped when the cache was loaded.
    pub plan_skipped: AtomicU64,
    /// Latency of MTTKRP executions (the `mttkrp` job's kernel calls).
    pub mttkrp_latency: LatencyHistogram,
    /// Latency of whole jobs, queue wait included.
    pub job_latency: LatencyHistogram,
    /// Time jobs spent waiting in the queue before a worker picked them up.
    pub job_queue_wait: LatencyHistogram,
    /// Time jobs spent actually running (`job_latency` minus queue wait).
    pub job_run: LatencyHistogram,
    /// Fault-tolerance counters, shared with the registry that bumps them.
    pub faults: std::sync::Arc<FaultCounters>,
    /// Layout-cache counters, shared with the registry's entries.
    pub layouts: std::sync::Arc<LayoutCounters>,
}

/// Materialized view of [`Metrics`] plus instantaneous queue state.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// See [`Metrics::requests`].
    pub requests: u64,
    /// See [`Metrics::jobs_submitted`].
    pub jobs_submitted: u64,
    /// See [`Metrics::jobs_rejected`].
    pub jobs_rejected: u64,
    /// See [`Metrics::jobs_done`].
    pub jobs_done: u64,
    /// See [`Metrics::jobs_failed`].
    pub jobs_failed: u64,
    /// See [`Metrics::jobs_cancelled`].
    pub jobs_cancelled: u64,
    /// See [`Metrics::tensors_registered`].
    pub tensors_registered: u64,
    /// See [`Metrics::plan_hits`].
    pub plan_hits: u64,
    /// See [`Metrics::plan_misses`].
    pub plan_misses: u64,
    /// See [`Metrics::plan_skipped`].
    pub plan_skipped: u64,
    /// Jobs waiting in the bounded queue right now.
    pub queue_depth: usize,
    /// Configured queue capacity.
    pub queue_capacity: usize,
    /// MTTKRP kernel-call latency.
    pub mttkrp_latency: HistogramSnapshot,
    /// Whole-job latency (queue wait + run).
    pub job_latency: HistogramSnapshot,
    /// Queue-wait portion of job latency.
    pub job_queue_wait: HistogramSnapshot,
    /// Run-time portion of job latency.
    pub job_run: HistogramSnapshot,
    /// Fault-tolerance counters.
    pub faults: FaultSnapshot,
    /// See [`LayoutCounters::builds`].
    pub layout_builds: u64,
    /// See [`LayoutCounters::derived`].
    pub layout_derived: u64,
    /// See [`LayoutCounters::hits`].
    pub layout_hits: u64,
}

impl Metrics {
    /// Materializes every counter. `queue_depth`/`queue_capacity` come from
    /// the scheduler, which owns the queue.
    pub fn snapshot(&self, queue_depth: usize, queue_capacity: usize) -> MetricsSnapshot {
        MetricsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            jobs_submitted: self.jobs_submitted.load(Ordering::Relaxed),
            jobs_rejected: self.jobs_rejected.load(Ordering::Relaxed),
            jobs_done: self.jobs_done.load(Ordering::Relaxed),
            jobs_failed: self.jobs_failed.load(Ordering::Relaxed),
            jobs_cancelled: self.jobs_cancelled.load(Ordering::Relaxed),
            tensors_registered: self.tensors_registered.load(Ordering::Relaxed),
            plan_hits: self.plan_hits.load(Ordering::Relaxed),
            plan_misses: self.plan_misses.load(Ordering::Relaxed),
            plan_skipped: self.plan_skipped.load(Ordering::Relaxed),
            queue_depth,
            queue_capacity,
            mttkrp_latency: self.mttkrp_latency.snapshot(),
            job_latency: self.job_latency.snapshot(),
            job_queue_wait: self.job_queue_wait.snapshot(),
            job_run: self.job_run.snapshot(),
            faults: self.faults.snapshot(),
            layout_builds: self.layouts.builds.load(Ordering::Relaxed),
            layout_derived: self.layouts.derived.load(Ordering::Relaxed),
            layout_hits: self.layouts.hits.load(Ordering::Relaxed),
        }
    }
}

impl MetricsSnapshot {
    /// Serializes for the `metrics` protocol response.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("requests", Json::usize(self.requests as usize)),
            (
                "jobs",
                Json::obj([
                    ("submitted", Json::usize(self.jobs_submitted as usize)),
                    ("rejected", Json::usize(self.jobs_rejected as usize)),
                    ("done", Json::usize(self.jobs_done as usize)),
                    ("failed", Json::usize(self.jobs_failed as usize)),
                    ("cancelled", Json::usize(self.jobs_cancelled as usize)),
                ]),
            ),
            (
                "queue",
                Json::obj([
                    ("depth", Json::usize(self.queue_depth)),
                    ("capacity", Json::usize(self.queue_capacity)),
                ]),
            ),
            (
                "plan_cache",
                Json::obj([
                    ("hits", Json::usize(self.plan_hits as usize)),
                    ("misses", Json::usize(self.plan_misses as usize)),
                    ("skipped", Json::usize(self.plan_skipped as usize)),
                ]),
            ),
            ("tensors", Json::usize(self.tensors_registered as usize)),
            ("faults", self.faults.to_json()),
            // Additive (protocol stays v1): the layout cache.
            ("layout_builds", Json::usize(self.layout_builds as usize)),
            ("layout_derived", Json::usize(self.layout_derived as usize)),
            ("layout_hits", Json::usize(self.layout_hits as usize)),
            ("mttkrp_latency", self.mttkrp_latency.to_json()),
            ("job_latency", self.job_latency.to_json()),
            ("job_queue_wait", self.job_queue_wait.to_json()),
            ("job_run", self.job_run.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_mean() {
        let h = LatencyHistogram::default();
        h.observe(50e-6); // 50 us -> bucket 0
        h.observe(5e-3); // 5 ms -> bucket 2
        h.observe(2.0); // 2 s -> bucket 5
        let s = h.snapshot();
        assert_eq!(s.total, 3);
        assert_eq!(s.counts[0], 1);
        assert_eq!(s.counts[2], 1);
        assert_eq!(s.counts[5], 1);
        let mean = s.mean_secs();
        assert!(
            (mean - (50e-6 + 5e-3 + 2.0) / 3.0).abs() < 1e-4,
            "mean {mean}"
        );
    }

    #[test]
    fn pathological_observations_cannot_corrupt_the_mean() {
        let top_secs = LATENCY_BOUNDS_US[LATENCY_BOUNDS_US.len() - 1] as f64 / 1e6;
        let h = LatencyHistogram::default();
        h.observe(f64::INFINITY);
        h.observe(f64::NAN);
        h.observe(1e30); // huge but finite: cast saturates to u64::MAX
        h.observe(-5.0); // negative clock skew clamps to zero
        h.observe(1e9); // > top bound but representable in us
        let s = h.snapshot();
        assert_eq!(s.total, 5);
        // Non-finite and huge observations land in the overflow bucket...
        assert_eq!(s.counts[LATENCY_BOUNDS_US.len()], 4);
        assert_eq!(s.counts[0], 1); // the clamped negative
                                    // ...but each contributes at most the top bucket bound to the sum,
                                    // so the mean stays within the histogram's representable range and
                                    // a second wave of sane observations still moves it.
        assert!(s.mean_secs() <= top_secs, "mean {}", s.mean_secs());
        for _ in 0..5 {
            h.observe(1e-3);
        }
        let s2 = h.snapshot();
        assert!(s2.mean_secs() < s.mean_secs());
        assert!(s2.mean_secs().is_finite());
    }

    #[test]
    fn concurrent_writers_keep_snapshots_consistent() {
        use std::sync::Arc;

        const WRITERS: usize = 4;
        const OBS_PER_WRITER: usize = 2_000;
        let m = Arc::new(Metrics::default());
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..OBS_PER_WRITER {
                        m.job_latency
                            .observe((w * OBS_PER_WRITER + i) as f64 * 1e-6);
                        m.jobs_done.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();

        // Snapshot continuously while writers hammer the histogram.
        // `observe` bumps the bucket before it publishes `total`, and
        // `snapshot` reads `total` first, so any snapshot must satisfy
        // sum(counts) >= total — a torn snapshot that violated this would
        // mean buckets and totals disagree about what was recorded.
        for _ in 0..200 {
            let s = m.snapshot(0, 1);
            let bucket_sum: u64 = s.job_latency.counts.iter().sum();
            assert!(
                bucket_sum >= s.job_latency.total,
                "buckets {bucket_sum} < total {}",
                s.job_latency.total
            );
            assert!(s.jobs_done <= (WRITERS * OBS_PER_WRITER) as u64);
        }
        for w in writers {
            w.join().unwrap();
        }
        let s = m.snapshot(0, 1);
        assert_eq!(s.job_latency.total, (WRITERS * OBS_PER_WRITER) as u64);
        assert_eq!(
            s.job_latency.counts.iter().sum::<u64>(),
            (WRITERS * OBS_PER_WRITER) as u64
        );
        assert_eq!(s.jobs_done, (WRITERS * OBS_PER_WRITER) as u64);
    }

    #[test]
    fn snapshot_serializes() {
        let m = Metrics::default();
        m.requests.fetch_add(3, Ordering::Relaxed);
        m.plan_hits.fetch_add(1, Ordering::Relaxed);
        m.mttkrp_latency.observe(0.001);
        let s = m.snapshot(2, 8);
        let j = s.to_json();
        assert_eq!(j.get_usize("requests"), Some(3));
        assert_eq!(j.get("queue").unwrap().get_usize("depth"), Some(2));
        assert_eq!(j.get("plan_cache").unwrap().get_usize("hits"), Some(1));
        assert_eq!(j.get("mttkrp_latency").unwrap().get_usize("total"), Some(1));
    }
}
