//! Offline vendored subset of the `proptest` API.
//!
//! The build environment has no network access, so this crate reimplements
//! exactly the surface the workspace's property tests use: the [`proptest!`]
//! macro, [`prop_assert!`]/[`prop_assert_eq!`]/[`prop_assert_ne!`], range and
//! `prop::collection::vec` strategies, [`strategy::Strategy::prop_map`], and
//! [`test_runner::ProptestConfig::with_cases`].
//!
//! Differences from upstream, deliberately accepted for an offline shim:
//! failing cases are **not shrunk** (the panic message reports the case seed
//! so a failure replays deterministically), and there is no persistence file.

#![forbid(unsafe_code)]

pub mod strategy {
    //! Value-generation strategies.

    use rand::rngs::StdRng;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn new_value(&self, rng: &mut StdRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;

        fn new_value(&self, rng: &mut StdRng) -> U {
            (self.f)(self.inner.new_value(rng))
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn new_value(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;

                fn new_value(&self, rng: &mut StdRng) -> $t {
                    use rand::Rng;
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    range_strategy!(f32, f64, usize, u64, u32, i64, i32);

    macro_rules! tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn new_value(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$idx.new_value(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
    }

    /// Uniform choice between boxed strategies of one value type; built by
    /// [`crate::prop_oneof!`]. Unlike upstream there are no weights — every
    /// workspace use picks uniformly.
    pub struct Union<V> {
        options: Vec<Box<dyn Strategy<Value = V>>>,
    }

    impl<V> Union<V> {
        /// A union over `first` plus `rest`. The first strategy's concrete
        /// type pins the union's value type, so the macro's boxed tail
        /// coerces without annotations.
        pub fn of<S>(first: S, rest: Vec<Box<dyn Strategy<Value = V>>>) -> Union<V>
        where
            S: Strategy<Value = V> + 'static,
        {
            let mut options: Vec<Box<dyn Strategy<Value = V>>> = vec![Box::new(first)];
            options.extend(rest);
            Union { options }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;

        fn new_value(&self, rng: &mut StdRng) -> V {
            use rand::Rng;
            let pick = rng.gen_range(0..self.options.len());
            self.options[pick].new_value(rng)
        }
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::ops::Range;

    /// Number-of-elements specification: a fixed size or a half-open range.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi_exclusive: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            SizeRange { lo: r.start, hi_exclusive: r.end }
        }
    }

    /// Strategy for `Vec<S::Value>` with a size drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn new_value(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = if self.size.lo + 1 >= self.size.hi_exclusive {
                self.size.lo
            } else {
                rng.gen_range(self.size.lo..self.size.hi_exclusive)
            };
            (0..n).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

pub mod test_runner {
    //! The case-iteration driver behind [`crate::proptest!`].

    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::fmt;

    /// A failed property within a test case.
    #[derive(Debug)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// Wraps a failure message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError(msg.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Runner configuration.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of random cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` random cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// Drives one property through `config.cases` deterministic cases.
    pub struct TestRunner {
        config: ProptestConfig,
        name: &'static str,
    }

    impl TestRunner {
        /// A runner for the named property.
        pub fn new(config: ProptestConfig, name: &'static str) -> Self {
            TestRunner { config, name }
        }

        /// Runs the property; panics with the case seed on the first failure.
        pub fn run<F>(&mut self, mut property: F)
        where
            F: FnMut(&mut StdRng) -> Result<(), TestCaseError>,
        {
            for case in 0..self.config.cases {
                let seed = case_seed(self.name, case);
                let mut rng = StdRng::seed_from_u64(seed);
                if let Err(e) = property(&mut rng) {
                    // focus-lint: allow(panic-hygiene) -- panicking with the case seed IS this shim's failure-reporting contract
                    panic!(
                        "proptest '{}': case {}/{} (seed {:#x}) failed: {}",
                        self.name,
                        case + 1,
                        self.config.cases,
                        seed,
                        e
                    );
                }
            }
        }
    }

    /// FNV-1a over the property name, mixed with the case index — stable
    /// across runs so failures replay.
    fn case_seed(name: &str, case: u32) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h ^ ((case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

/// Alias module so `prop::collection::vec(..)` works as in upstream.
pub mod prop {
    pub use crate::collection;
    pub use crate::strategy;
}

pub mod prelude {
    //! Everything a property-test file needs, as in upstream.

    pub use crate::prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Picks uniformly among the listed strategies (all yielding the same value
/// type) for each generated case. Upstream's weighted form is not supported.
#[macro_export]
macro_rules! prop_oneof {
    ($first:expr $(, $rest:expr)* $(,)?) => {
        $crate::strategy::Union::of($first, vec![$(Box::new($rest) as _),*])
    };
}

/// Declares property tests: an optional `#![proptest_config(..)]` followed by
/// `fn name(arg in strategy, ..) { body }` items, each becoming a `#[test]`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut runner = $crate::test_runner::TestRunner::new(config, stringify!($name));
                runner.run(|__proptest_rng| {
                    $(
                        let $arg = $crate::strategy::Strategy::new_value(&($strat), __proptest_rng);
                    )*
                    $body
                    Ok(())
                });
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

/// Fails the current case (with an optional formatted message) if `cond` is
/// false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case if the two expressions are unequal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::test_runner::TestCaseError::fail(format!($($fmt)+)));
        }
    }};
}

/// Fails the current case if the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "assertion failed: {:?} == {:?}", l, r);
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 0usize..10, y in -1.0f32..1.0) {
            prop_assert!(x < 10);
            prop_assert!((-1.0..1.0).contains(&y), "y = {y}");
        }

        #[test]
        fn vec_strategy_has_requested_len(v in prop::collection::vec(0.0f32..1.0, 7)) {
            prop_assert_eq!(v.len(), 7);
            prop_assert!(v.iter().all(|&x| (0.0..1.0).contains(&x)));
        }

        #[test]
        fn prop_map_applies(s in (1usize..5).prop_map(|n| n * 2)) {
            prop_assert!(s % 2 == 0 && (2..10).contains(&s));
            prop_assert_ne!(s, 1);
        }

        #[test]
        fn tuple_strategies_draw_componentwise(pair in (0usize..4, 10usize..14)) {
            prop_assert!(pair.0 < 4 && (10..14).contains(&pair.1));
        }

        #[test]
        fn oneof_picks_only_listed_branches(x in prop_oneof![0usize..3, 10usize..13]) {
            prop_assert!(x < 3 || (10..13).contains(&x), "x = {x}");
        }
    }

    #[test]
    fn oneof_reaches_every_branch() {
        use crate::strategy::Strategy;
        use rand::SeedableRng;
        let s = prop_oneof![crate::strategy::Just(1usize), crate::strategy::Just(2usize)];
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let draws: Vec<usize> = (0..64).map(|_| s.new_value(&mut rng)).collect();
        assert!(draws.contains(&1) && draws.contains(&2), "both branches must be reachable");
    }

    #[test]
    #[should_panic(expected = "failed")]
    fn failing_property_panics_with_seed() {
        let mut runner = crate::test_runner::TestRunner::new(
            crate::test_runner::ProptestConfig::with_cases(4),
            "always_fails",
        );
        runner.run(|_rng| Err(crate::test_runner::TestCaseError::fail("boom")));
    }
}
