//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! crate.
//!
//! The build environment has no network access, so this workspace ships a
//! compact property-testing engine covering the `proptest 1.x` surface the
//! CrowdRL crates use: the [`proptest!`] macro (including
//! `#![proptest_config(...)]`), [`prop_assert!`] / [`prop_assert_eq!`],
//! range strategies over the numeric types, [`collection::vec`],
//! [`option::of`], [`bool::ANY`], and tuple strategies.
//!
//! Differences from upstream, deliberate for a zero-dependency build:
//!
//! * **No shrinking.** A failing case reports the exact generated inputs
//!   (they are reproducible: cases derive deterministically from the test's
//!   name and case index), but is not minimized.
//! * **No persistence.** `.proptest-regressions` files are ignored.

#![forbid(unsafe_code)]

use std::fmt;

/// Runner configuration, selected via `#![proptest_config(...)]`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
    /// Accepted for compatibility; shrinking is not implemented.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self {
            cases: 256,
            max_shrink_iters: 1024,
        }
    }
}

/// A failed property case; produced by the `prop_assert*` macros.
#[derive(Debug, Clone)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Wrap a failure message.
    pub fn fail(msg: impl Into<String>) -> Self {
        Self(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Deterministic per-case generator (SplitMix64-seeded xoshiro256++),
/// derived from the property's name and the case index so every case is
/// reproducible in isolation.
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Generator for case `case` of the property named `name`.
    pub fn for_case(name: &str, case: u64) -> Self {
        // FNV-1a over the name, mixed with the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut state = h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut s = [0u64; 4];
        for word in &mut s {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *word = z ^ (z >> 31);
        }
        if s == [0; 4] {
            s[0] = 1;
        }
        Self { s }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`; `bound` must be positive.
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// Generates values of an input domain. The stand-in keeps only the
/// generation half of proptest's trait — no shrink trees.
pub trait Strategy {
    /// The generated type.
    type Value: fmt::Debug;

    /// Draw one value.
    fn new_value(&self, rng: &mut TestRng) -> Self::Value;
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn new_value(&self, rng: &mut TestRng) -> Self::Value {
        (**self).new_value(rng)
    }
}

macro_rules! int_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = (end as u64).wrapping_sub(start as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                start.wrapping_add(rng.below(span + 1) as $t)
            }
        }
    )*};
}

int_strategies!(usize, u64, u32, u16, u8, isize, i64, i32, i16, i8);

macro_rules! float_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + rng.unit_f64() as $t * (self.end - self.start)
            }
        }
    )*};
}

float_strategies!(f64, f32);

/// A strategy that always yields clones of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone + fmt::Debug>(pub T);

impl<T: Clone + fmt::Debug> Strategy for Just<T> {
    type Value = T;
    fn new_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! tuple_strategies {
    ($(($($name:ident),+)),+ $(,)?) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.new_value(rng),)+)
            }
        }
    )+};
}

tuple_strategies!(
    (A),
    (A, B),
    (A, B, C),
    (A, B, C, D),
    (A, B, C, D, E),
    (A, B, C, D, E, F),
    (A, B, C, D, E, F, G),
    (A, B, C, D, E, F, G, H),
);

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};

    /// Length specifications accepted by [`vec`]: an exact `usize`, a
    /// half-open range, or an inclusive range.
    pub trait IntoSizeRange {
        /// Lower and *inclusive* upper length bound.
        fn bounds(&self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self)
        }
    }

    impl IntoSizeRange for core::ops::Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            assert!(self.start < self.end, "empty vec length range");
            (self.start, self.end - 1)
        }
    }

    impl IntoSizeRange for core::ops::RangeInclusive<usize> {
        fn bounds(&self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (min_len, max_len) = size.bounds();
        VecStrategy {
            element,
            min_len,
            max_len,
        }
    }

    /// See [`vec`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        min_len: usize,
        max_len: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn new_value(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.max_len - self.min_len) as u64;
            let len = self.min_len
                + if span == 0 {
                    0
                } else {
                    rng.below(span + 1) as usize
                };
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// Boolean strategies.
pub mod bool {
    use super::{Strategy, TestRng};

    /// Fair-coin boolean strategy.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// The fair-coin boolean strategy.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn new_value(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// Option strategies.
pub mod option {
    use super::{Strategy, TestRng};

    /// Strategy for `Option<S::Value>`, `None` about a quarter of the time.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// See [`of`].
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn new_value(&self, rng: &mut TestRng) -> Self::Value {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.new_value(rng))
            }
        }
    }
}

/// The common imports: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
        TestCaseError,
    };
}

/// Assert a condition inside a `proptest!` body; on failure the case (with
/// its generated inputs) is reported and the test fails.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Assert equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left == right,
            "assertion failed: `{:?} == {:?}`", left, right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(left == right, $($fmt)+);
    }};
}

/// Assert inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left != right,
            "assertion failed: `{:?} != {:?}`",
            left,
            right
        );
    }};
}

/// Define property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running the body over `config.cases` generated
/// inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_each! { config = ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_each! { config = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_each {
    (config = ($config:expr); ) => {};
    (config = ($config:expr);
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:ident in $strategy:expr),+ $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $config;
            let __name = concat!(module_path!(), "::", stringify!($name));
            for __case in 0..__config.cases as u64 {
                let mut __rng = $crate::TestRng::for_case(__name, __case);
                $(let $arg = $crate::Strategy::new_value(&($strategy), &mut __rng);)+
                let __inputs = format!(
                    concat!($(stringify!($arg), " = {:?}; "),+),
                    $(&$arg),+
                );
                let __outcome: ::core::result::Result<(), $crate::TestCaseError> =
                    (move || {
                        $body
                        #[allow(unreachable_code)]
                        ::core::result::Result::Ok(())
                    })();
                if let ::core::result::Result::Err(err) = __outcome {
                    panic!(
                        "property {} failed at case {}/{}:\n  {}\n  inputs: {}",
                        __name, __case, __config.cases, err, __inputs
                    );
                }
            }
        }
        $crate::__proptest_each! { config = ($config); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn cases_are_reproducible() {
        let mut a = crate::TestRng::for_case("x", 3);
        let mut b = crate::TestRng::for_case("x", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::TestRng::for_case("x", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn range_strategies_respect_bounds() {
        let mut rng = crate::TestRng::for_case("bounds", 0);
        for _ in 0..1000 {
            let v = Strategy::new_value(&(3usize..10), &mut rng);
            assert!((3..10).contains(&v));
            let f = Strategy::new_value(&(-1.0f64..1.0), &mut rng);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn vec_strategy_respects_length_spec() {
        let mut rng = crate::TestRng::for_case("lens", 0);
        for _ in 0..200 {
            let v = Strategy::new_value(&crate::collection::vec(0usize..5, 2..6), &mut rng);
            assert!((2..6).contains(&v.len()));
            let fixed = Strategy::new_value(&crate::collection::vec(0usize..5, 3), &mut rng);
            assert_eq!(fixed.len(), 3);
        }
    }

    #[test]
    fn option_and_bool_strategies_cover_both_arms() {
        let mut rng = crate::TestRng::for_case("cover", 0);
        let (mut nones, mut trues) = (0, 0);
        for _ in 0..400 {
            if Strategy::new_value(&crate::option::of(0usize..3), &mut rng).is_none() {
                nones += 1;
            }
            if Strategy::new_value(&crate::bool::ANY, &mut rng) {
                trues += 1;
            }
        }
        assert!(nones > 20 && nones < 380);
        assert!(trues > 100 && trues < 300);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The macro itself: tuples, vecs and asserts all work.
        #[test]
        fn macro_generates_and_checks(
            pairs in crate::collection::vec((0usize..10, crate::bool::ANY), 0..16),
            x in 1u64..100,
        ) {
            prop_assert!(x >= 1);
            prop_assert!(x < 100, "x was {}", x);
            for (n, _flag) in &pairs {
                prop_assert!(*n < 10);
            }
            prop_assert_eq!(pairs.len(), pairs.iter().filter(|(n, _)| *n < 10).count());
            prop_assert_ne!(x, 0);
        }
    }

    #[test]
    #[should_panic(expected = "property")]
    fn failing_property_panics_with_inputs() {
        proptest! {
            fn always_fails(v in 0usize..10) {
                prop_assert!(v > 100, "v is only {}", v);
            }
        }
        always_fails();
    }
}
