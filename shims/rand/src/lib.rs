//! Offline shim for the `rand` crate (0.9 API surface used by this
//! workspace): [`Rng`], [`SeedableRng`], [`rngs::StdRng`],
//! [`seq::SliceRandom`], and [`seq::index::sample`].
//!
//! The build environment has no crates.io access, so this crate stands in
//! for the real `rand`. The generator is SplitMix64 — statistically solid
//! for the synthetic-data and shuffling uses here, not cryptographic. The
//! shim promises API compatibility only; the byte streams differ from
//! upstream `rand`.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Low-level source of random 64-bit words.
pub trait RngCore {
    /// Returns the next word of the stream.
    fn next_u64(&mut self) -> u64;
}

/// Types samplable uniformly over their full domain via [`Rng::random`].
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 high bits -> [0, 1)
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges samplable by [`Rng::random_range`].
pub trait SampleRange<T> {
    /// Draws one value in the range from `rng`.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Maps a raw word onto `0..span` without modulo bias (widening multiply).
#[inline]
fn bounded(word: u64, span: u64) -> u64 {
    ((word as u128 * span as u128) >> 64) as u64
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in random_range");
                let span = (self.end - self.start) as u64;
                self.start + bounded(rng.next_u64(), span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in random_range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + bounded(rng.next_u64(), span + 1) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize);

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let u: f64 = Standard::sample(rng);
        self.start + u * (self.end - self.start)
    }
}

/// The user-facing sampling interface (blanket-implemented over
/// [`RngCore`]).
pub trait Rng: RngCore {
    /// Draws a value uniformly over the type's domain (`f64` in `[0, 1)`).
    fn random<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Draws a value uniformly from `range`.
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }
}

impl<R: RngCore> Rng for R {}

/// Deterministic construction from a seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: SplitMix64.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut rng = StdRng { state: seed };
            // one warm-up step decorrelates small seeds
            let _ = rng.next_u64();
            rng
        }
    }
}

pub mod seq {
    use super::{Rng, RngCore};

    /// In-place random reordering of slices.
    pub trait SliceRandom {
        /// Fisher–Yates shuffle.
        fn shuffle<R: RngCore>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: RngCore>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.random_range(0..=i);
                self.swap(i, j);
            }
        }
    }

    pub mod index {
        use super::super::{Rng, RngCore};

        /// Result of [`sample`]: a set of distinct indices.
        pub struct IndexVec(Vec<usize>);

        impl IndexVec {
            /// The sampled indices, in sample order.
            pub fn into_vec(self) -> Vec<usize> {
                self.0
            }
        }

        impl IntoIterator for IndexVec {
            type Item = usize;
            type IntoIter = std::vec::IntoIter<usize>;
            fn into_iter(self) -> Self::IntoIter {
                self.0.into_iter()
            }
        }

        /// Samples `amount` distinct indices from `0..length` (Floyd's
        /// algorithm). Panics if `amount > length`.
        pub fn sample<R: RngCore>(rng: &mut R, length: usize, amount: usize) -> IndexVec {
            assert!(amount <= length, "cannot sample {amount} of {length}");
            let mut chosen = std::collections::HashSet::with_capacity(amount);
            let mut out = Vec::with_capacity(amount);
            for j in length - amount..length {
                let t = rng.random_range(0..=j);
                let pick = if chosen.insert(t) { t } else { j };
                if pick != t {
                    chosen.insert(pick);
                }
                out.push(pick);
            }
            IndexVec(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_and_in_range() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let x: f64 = a.random();
            let y: f64 = b.random();
            assert_eq!(x, y);
            assert!((0.0..1.0).contains(&x));
            let n = a.random_range(3u32..17);
            assert!((3..17).contains(&n));
            let m = b.random_range(0usize..=5);
            assert!(m <= 5);
            let _ = b.random_range(3u32..17);
            let _ = a.random_range(0usize..=5);
        }
    }

    #[test]
    fn f64_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.random::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements should not shuffle to identity");
    }

    #[test]
    fn index_sample_is_distinct() {
        let mut rng = StdRng::seed_from_u64(9);
        let picks: Vec<usize> = super::seq::index::sample(&mut rng, 100, 30).into_vec();
        assert_eq!(picks.len(), 30);
        let set: std::collections::HashSet<_> = picks.iter().collect();
        assert_eq!(set.len(), 30);
        assert!(picks.iter().all(|&i| i < 100));
    }
}
