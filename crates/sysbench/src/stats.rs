//! Sample statistics: medians, quartile spread, and a wall-clock helper.

use std::time::Instant;

/// Runs `f` and returns its result with the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median; `NaN` for no samples, so a missing measurement can never pass
/// the finite-value check.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// The value at fraction `p` of the sorted samples (nearest rank).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method), so a spread computed here is the
/// number the driver computes from the same values.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(v);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let q = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Distance between the quartiles as a share of the median; 0 when there
/// are too few samples to have quartiles.
pub fn spread(v: &[f64]) -> f64 {
    match quartiles(v) {
        Some((q1, q3)) => (q3 - q1) / median(v),
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) -> [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3.0, 1.0, 2.0], n=4) -> [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert!(median(&[]).is_nan());
        assert_eq!(spread(&[4.0]), 0.0);
    }
}
