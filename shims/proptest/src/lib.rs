//! Offline shim for the subset of `proptest` 1.x this workspace uses.
//!
//! Supports the `proptest!` macro (with `#![proptest_config(...)]`),
//! `prop_assert!`/`prop_assert_eq!`/`prop_assert_ne!`, `prop_oneof!`,
//! [`strategy::Just`], [`strategy::any`], range strategies over ints and
//! floats, [`collection::vec`], `&str` regex-lite string strategies, and
//! `.prop_map(..)`. Cases are generated from a deterministic seeded RNG
//! (override with `PROPTEST_SEED`/`PROPTEST_CASES` env vars); there is no
//! shrinking — a failing case reports its seed so it can be replayed.

pub mod strategy {
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::marker::PhantomData;
    use std::ops::{Range, RangeInclusive};

    /// RNG handed to strategies while generating a case.
    pub type TestRng = StdRng;

    /// A generator of values of one type.
    pub trait Strategy {
        /// The value type produced.
        type Value;

        /// Generates one value.
        fn new_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Erases the strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<T> Strategy for Box<dyn Strategy<Value = T>> {
        type Value = T;

        fn new_value(&self, rng: &mut TestRng) -> T {
            (**self).new_value(rng)
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn new_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn new_value(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.new_value(rng))
        }
    }

    /// Uniform choice between boxed alternatives (built by `prop_oneof!`).
    pub struct OneOf<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> OneOf<T> {
        /// Builds from a non-empty list of alternatives.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> OneOf<T> {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            OneOf { options }
        }
    }

    impl<T> Strategy for OneOf<T> {
        type Value = T;

        fn new_value(&self, rng: &mut TestRng) -> T {
            let i = rng.gen_range(0..self.options.len());
            self.options[i].new_value(rng)
        }
    }

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Generates an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.gen::<$t>()
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool);

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            // Mostly finite values from a wide range; occasionally exact
            // specials that stress edge handling.
            match rng.gen_range(0u32..16) {
                0 => 0.0,
                1 => -0.0,
                2 => f64::MAX,
                3 => f64::MIN,
                _ => (rng.gen::<f64>() - 0.5) * 2e12,
            }
        }
    }

    impl Arbitrary for char {
        fn arbitrary(rng: &mut TestRng) -> char {
            super::util::random_char(rng)
        }
    }

    impl<T: Arbitrary, const N: usize> Arbitrary for [T; N] {
        fn arbitrary(rng: &mut TestRng) -> [T; N] {
            std::array::from_fn(|_| T::arbitrary(rng))
        }
    }

    /// Strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn new_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// An unconstrained value of type `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn new_value(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;

                fn new_value(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

    /// Regex-lite string strategy: supports the `.{lo,hi}` shape (any
    /// non-newline chars, length in `[lo, hi]`); other patterns fall back
    /// to short alphanumeric strings.
    impl Strategy for &'static str {
        type Value = String;

        fn new_value(&self, rng: &mut TestRng) -> String {
            let (lo, hi) = super::util::parse_dot_repeat(self).unwrap_or((0, 16));
            let len = rng.gen_range(lo..=hi);
            let mut s = String::with_capacity(len * 2);
            for _ in 0..len {
                s.push(super::util::random_char(rng));
            }
            s
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                #[allow(non_snake_case)]
                fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.new_value(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);
    impl_tuple_strategy!(A, B, C, D, E, F, G);
    impl_tuple_strategy!(A, B, C, D, E, F, G, H);
}

pub mod collection {
    use super::strategy::{Strategy, TestRng};
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// Length bound for [`vec()`] (inclusive lo, exclusive hi).
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> SizeRange {
            SizeRange { lo: *r.start(), hi: *r.end() + 1 }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..self.size.hi);
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }

    /// A vector whose elements come from `element` and whose length falls
    /// in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Per-test configuration.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of generated cases per test.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            let cases =
                std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(64);
            ProptestConfig { cases }
        }
    }

    impl ProptestConfig {
        /// A config running exactly `cases` cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    /// A rejected test case (raised by `prop_assert!` and friends).
    #[derive(Clone, Debug)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        /// Builds a failure with the given message.
        pub fn fail(message: impl Into<String>) -> TestCaseError {
            TestCaseError { message: message.into() }
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.message)
        }
    }

    fn fnv1a(s: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in s.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Runs `f` for each generated case; panics (failing the enclosing
    /// `#[test]`) on the first rejected case, reporting the replay seed.
    pub fn run<F>(config: &ProptestConfig, name: &str, mut f: F)
    where
        F: FnMut(&mut StdRng) -> Result<(), TestCaseError>,
    {
        let base = std::env::var("PROPTEST_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(0u64)
            ^ fnv1a(name);
        for case in 0..config.cases {
            let seed = base ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut rng = StdRng::seed_from_u64(seed);
            if let Err(e) = f(&mut rng) {
                panic!(
                    "proptest case {case}/{} failed for {name} \
                     (replay: PROPTEST_SEED={}): {e}",
                    config.cases,
                    base ^ fnv1a(name),
                );
            }
        }
    }
}

mod util {
    use super::strategy::TestRng;
    use rand::Rng;

    /// Parses a `.{lo,hi}` regex-lite pattern.
    pub fn parse_dot_repeat(pattern: &str) -> Option<(usize, usize)> {
        let rest = pattern.strip_prefix(".{")?.strip_suffix('}')?;
        let (lo, hi) = rest.split_once(',')?;
        Some((lo.trim().parse().ok()?, hi.trim().parse().ok()?))
    }

    /// A random char: mostly printable ASCII, sometimes wider Unicode to
    /// stress UTF-8 handling. Never a newline (regex `.` semantics).
    pub fn random_char(rng: &mut TestRng) -> char {
        if rng.gen_range(0u32..5) > 0 {
            char::from(rng.gen_range(0x20u8..0x7f))
        } else {
            loop {
                let v = rng.gen_range(0xA0u32..0x2_FFFF);
                if let Some(c) = char::from_u32(v) {
                    if c != '\n' {
                        return c;
                    }
                }
            }
        }
    }
}

pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Declares property tests. Each function body runs once per generated
/// case with its parameters drawn from the given strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($config:expr)) => {};
    (($config:expr)
     $(#[$attr:meta])*
     fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            let __config = $config;
            $crate::test_runner::run(
                &__config,
                concat!(module_path!(), "::", stringify!($name)),
                |__rng| {
                    $(let $pat = $crate::strategy::Strategy::new_value(&($strat), __rng);)+
                    let mut __case = || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    };
                    __case()
                },
            );
        }
        $crate::__proptest_fns! { ($config) $($rest)* }
    };
}

/// Rejects the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Rejects the current case unless both sides compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}` ({})\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), format!($($fmt)+), l, r
        );
    }};
}

/// Rejects the current case if both sides compare equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(a in 3u64..9, b in 1u8..=4, f in 0.25f64..0.75) {
            prop_assert!((3..9).contains(&a));
            prop_assert!((1..=4).contains(&b));
            prop_assert!((0.25..0.75).contains(&f));
        }

        /// Doc comments on cases are accepted.
        #[test]
        fn vec_and_any(data in collection::vec(any::<u8>(), 2..6), x in any::<[u8; 32]>()) {
            prop_assert!(data.len() >= 2 && data.len() < 6);
            prop_assert_eq!(x.len(), 32);
        }

        #[test]
        fn string_pattern(s in ".{0,8}") {
            prop_assert!(s.chars().count() <= 8);
            prop_assert!(!s.contains('\n'));
        }

        #[test]
        fn oneof_and_map(v in prop_oneof![Just(1u32), (5u32..8).prop_map(|x| x * 10)]) {
            prop_assert!(v == 1 || (50..80).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "proptest case")]
    fn failure_panics_with_seed() {
        crate::test_runner::run(&ProptestConfig::with_cases(1), "failure_panics_with_seed", |_| {
            Err(TestCaseError::fail("nope"))
        });
    }
}
