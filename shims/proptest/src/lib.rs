//! Offline shim for the `proptest` crate, covering the surface this
//! workspace's property tests use: the [`Strategy`] trait with
//! `prop_map` / `prop_flat_map` / `boxed`, range and tuple strategies,
//! [`collection::vec`], [`num::u64::ANY`], the [`proptest!`] test macro,
//! and the `prop_assert*` macros.
//!
//! Differences from real proptest: cases are generated from a fixed
//! deterministic seed per test (derived from the test name), and there is
//! **no shrinking** — a failing case reports its case number and message
//! only. That trade keeps the shim ~300 lines while preserving the tests'
//! power to find counterexamples.

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Range, RangeInclusive};

/// Deterministic generator driving all strategies (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds a generator; each test gets a seed hashed from its name.
    pub fn new(seed: u64) -> Self {
        TestRng {
            state: seed ^ 0x5bf0_3635_d1a6_4c89,
        }
    }

    /// Next raw 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..span` (widening multiply, no modulo bias).
    pub fn below(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Derives the per-test seed. Deterministic across runs so CI failures
/// reproduce locally; vary `PROPTEST_SEED` to explore a different stream.
pub fn test_rng(test_name: &str) -> TestRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    if let Ok(s) = std::env::var("PROPTEST_SEED") {
        if let Ok(extra) = s.parse::<u64>() {
            h ^= extra.wrapping_mul(0x9e3779b97f4a7c15);
        }
    }
    TestRng::new(h)
}

/// A failed property within a test case.
#[derive(Debug)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    /// Builds an error carrying `msg`.
    pub fn fail<S: Into<String>>(msg: S) -> Self {
        TestCaseError(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Per-`proptest!` block configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A generator of values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Strategy producing `f(value)`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Strategy where the generated value selects a second strategy.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    /// Type-erased strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// See [`Strategy::boxed`].
pub struct BoxedStrategy<T>(Box<dyn DynStrategy<T>>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate_dyn(rng)
    }
}

trait DynStrategy<T> {
    fn generate_dyn(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// Always yields a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + rng.below((self.end - self.start) as u64) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + rng.below(span + 1) as $t
            }
        }
    )*};
}

impl_int_range_strategy!(u8, u16, u32, u64, usize, i32, i64);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

/// A `Vec` of strategies generates a `Vec` of one value from each.
impl<S: Strategy> Strategy for Vec<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        self.iter().map(|s| s.generate(rng)).collect()
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($n:tt $S:ident),+);)*) => {$(
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (0 A, 1 B);
    (0 A, 1 B, 2 C);
    (0 A, 1 B, 2 C, 3 D);
    (0 A, 1 B, 2 C, 3 D, 4 E);
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F);
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F, 6 G);
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F, 6 G, 7 H);
}

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Admissible lengths for [`vec`].
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_excl: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_excl: n + 1,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi_excl: r.end,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi_excl: *r.end() + 1,
            }
        }
    }

    /// Strategy for a `Vec` whose elements come from `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `Vec` strategy with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi_excl - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod num {
    macro_rules! any_mod {
        ($($m:ident $t:ty, $shift:expr;)*) => {$(
            pub mod $m {
                use crate::{Strategy, TestRng};

                /// Strategy over the full domain of the type.
                #[derive(Debug, Clone, Copy)]
                pub struct Any;

                /// The full-domain strategy value.
                pub const ANY: Any = Any;

                impl Strategy for Any {
                    type Value = $t;
                    fn generate(&self, rng: &mut TestRng) -> $t {
                        (rng.next_u64() >> $shift) as $t
                    }
                }
            }
        )*};
    }

    any_mod! {
        u64 u64, 0;
        u32 u32, 32;
        u16 u16, 48;
        u8 u8, 56;
    }
}

pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, BoxedStrategy, Just, ProptestConfig,
        Strategy, TestCaseError,
    };
}

/// Fails the enclosing test case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Fails the enclosing test case unless the two values are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "assertion failed: {:?} != {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, $($fmt)*);
    }};
}

/// Fails the enclosing test case if the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "assertion failed: {:?} == {:?}", a, b);
    }};
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { @cfg ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { @cfg ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (@cfg ($cfg:expr);
     $( $(#[$meta:meta])* fn $name:ident ( $( $pat:pat in $strat:expr ),+ $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::test_rng(stringify!($name));
                for case in 0..cfg.cases {
                    let result: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                        $(let $pat = $crate::Strategy::generate(&($strat), &mut rng);)+
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    if let ::std::result::Result::Err(e) = result {
                        panic!(
                            "proptest case {}/{} of `{}` failed: {}",
                            case + 1,
                            cfg.cases,
                            stringify!($name),
                            e
                        );
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::test_rng;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = test_rng("ranges_stay_in_bounds");
        for _ in 0..500 {
            let x = (3usize..17).generate(&mut rng);
            assert!((3..17).contains(&x));
            let y = (2usize..=5).generate(&mut rng);
            assert!((2..=5).contains(&y));
            let f = (-4.0f64..4.0).generate(&mut rng);
            assert!((-4.0..4.0).contains(&f));
        }
    }

    #[test]
    fn combinators_compose() {
        let mut rng = test_rng("combinators_compose");
        let strat = (1usize..5).prop_flat_map(|n| {
            let cols: Vec<BoxedStrategy<u32>> = (0..n).map(|_| (0..10u32).boxed()).collect();
            crate::collection::vec((cols, 0.0f64..1.0), 0..8).prop_map(move |rows| (n, rows))
        });
        for _ in 0..100 {
            let (n, rows) = strat.generate(&mut rng);
            assert!(rows.len() < 8);
            for (coords, v) in rows {
                assert_eq!(coords.len(), n);
                assert!(coords.iter().all(|&c| c < 10));
                assert!((0.0..1.0).contains(&v));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_binds_patterns(a in 0u64..100, (b, c) in (0u32..4, 1usize..=3)) {
            prop_assert!(a < 100);
            prop_assert!(b < 4, "b out of range: {b}");
            prop_assert_eq!(c.clamp(1, 3), c);
            prop_assert_ne!(c, 0);
        }
    }

    #[test]
    #[should_panic(expected = "proptest case")]
    fn failing_property_panics() {
        proptest! {
            fn inner(x in 0u32..10) {
                prop_assert!(x > 100, "x was {x}");
            }
        }
        inner();
    }
}
