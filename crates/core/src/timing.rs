//! Shared wall-clock measurement for the tuner and the benchmark harness.
//!
//! Every kernel timing loop in the workspace (the Section V-C tuner
//! candidates, the `tenblock bench` CLI, the figure/table binaries, the
//! distributed model's local kernel) funnels through [`time_reps`]: a
//! fixed number of *discarded warmup* repetitions followed by `reps`
//! measured repetitions, summarized as min / mean / stddev. The
//! warmup absorbs first-touch page faults and allocator growth, which on
//! small tensors can inflate a cold first rep by an order of magnitude and
//! skew a min-of-1 tuner decision.

use std::time::Instant;

/// Summary statistics over the measured (post-warmup) repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingStats {
    /// Fastest measured repetition in seconds.
    pub min_secs: f64,
    /// Arithmetic mean over the measured repetitions in seconds.
    pub mean_secs: f64,
    /// Population standard deviation over the measured repetitions in
    /// seconds (0 when `reps == 1`).
    pub stddev_secs: f64,
    /// Number of measured repetitions (warmup excluded).
    pub reps: usize,
}

impl TimingStats {
    /// Summarizes a slice of per-rep durations (seconds).
    ///
    /// Empty input yields a zeroed summary rather than NaN so downstream
    /// JSON serialization stays finite.
    pub fn from_samples(samples: &[f64]) -> TimingStats {
        if samples.is_empty() {
            return TimingStats {
                min_secs: 0.0,
                mean_secs: 0.0,
                stddev_secs: 0.0,
                reps: 0,
            };
        }
        let n = samples.len() as f64;
        let min_secs = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let mean_secs = samples.iter().sum::<f64>() / n;
        let var = samples
            .iter()
            .map(|&s| (s - mean_secs) * (s - mean_secs))
            .sum::<f64>()
            / n;
        TimingStats {
            min_secs,
            mean_secs,
            stddev_secs: var.sqrt(),
            reps: samples.len(),
        }
    }
}

/// Runs `f` for `warmup` discarded repetitions, then `reps.max(1)` measured
/// repetitions, and summarizes the measured wall-clock times.
///
/// ```
/// use tenblock_core::timing::time_reps;
///
/// let stats = time_reps(1, 3, || {
///     std::hint::black_box((0..1000).sum::<u64>());
/// });
/// assert_eq!(stats.reps, 3);
/// assert!(stats.min_secs <= stats.mean_secs);
/// ```
pub fn time_reps<F: FnMut()>(warmup: usize, reps: usize, mut f: F) -> TimingStats {
    for _ in 0..warmup {
        f();
    }
    let reps = reps.max(1);
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    TimingStats::from_samples(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_over_known_samples() {
        let s = TimingStats::from_samples(&[2.0, 4.0, 6.0]);
        assert_eq!(s.min_secs, 2.0);
        assert!((s.mean_secs - 4.0).abs() < 1e-12);
        // population stddev of [2, 4, 6] is sqrt(8/3)
        assert!((s.stddev_secs - (8.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.reps, 3);
    }

    #[test]
    fn empty_samples_are_zeroed_not_nan() {
        let s = TimingStats::from_samples(&[]);
        assert_eq!(s.min_secs, 0.0);
        assert_eq!(s.mean_secs, 0.0);
        assert_eq!(s.stddev_secs, 0.0);
        assert_eq!(s.reps, 0);
    }

    #[test]
    fn warmup_reps_are_discarded() {
        let mut calls = 0usize;
        let stats = time_reps(2, 3, || calls += 1);
        assert_eq!(calls, 5);
        assert_eq!(stats.reps, 3);
        assert!(stats.min_secs.is_finite() && stats.min_secs >= 0.0);
    }

    #[test]
    fn zero_reps_still_measures_once() {
        let mut calls = 0usize;
        let stats = time_reps(0, 0, || calls += 1);
        assert_eq!(calls, 1);
        assert_eq!(stats.reps, 1);
        assert_eq!(stats.stddev_secs, 0.0);
    }
}
