//! Offline stand-in for `proptest`.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the subset of proptest it uses: the [`proptest!`] macro family
//! (`prop_assert!`, `prop_assert_eq!`, `prop_assert_ne!`, `prop_assume!`,
//! `prop_oneof!`), [`Strategy`] with `prop_map`, `any::<T>()`, range and
//! tuple strategies, [`Just`], `prop::collection::{vec, btree_set}`, and a
//! small regex-subset string strategy (`"[a-z]{1,8}"`).
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * **No shrinking.** A failing case reports its case number and the
//!   per-test deterministic seed instead of a minimal counterexample.
//! * **Deterministic inputs.** Cases are derived from a fixed seed mixed
//!   with the test's name, so failures always reproduce exactly.
//! * `prop_assume!` skips the case rather than resampling it.

pub mod strategy;

pub use strategy::{
    any, Any, Arbitrary, BoxedFnStrategy, Just, Map, OneOf, SizeRange, Strategy, TestRng,
};

/// Strategy constructors namespaced like real proptest (`prop::collection`).
pub mod prop {
    /// Strategies producing collections.
    pub mod collection {
        pub use crate::strategy::collection::{btree_set, vec};
    }

    /// Strategies sampling from explicit value lists.
    pub mod sample {
        pub use crate::strategy::sample::select;
    }
}

/// Why a test case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// A `prop_assert*!` failed: the property is violated.
    Fail(String),
    /// A `prop_assume!` failed: the case is outside the property's domain.
    Reject,
}

impl TestCaseError {
    /// A failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }
}

/// Result type threaded through a property body by the macros.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Runner configuration (`#![proptest_config(...)]`).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Real proptest defaults to 256; 64 keeps the suite fast while
        // still exercising each property broadly. Override per block with
        // `#![proptest_config(ProptestConfig::with_cases(n))]`.
        ProptestConfig { cases: 64 }
    }
}

/// Everything a property-test file needs (`use proptest::prelude::*`).
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        ProptestConfig, TestCaseError, TestCaseResult,
    };
}

/// Runs one property: samples `cases` inputs and invokes `body` on each.
///
/// Called by the [`proptest!`] macro expansion; not public API in real
/// proptest, public here so the macro can reach it.
///
/// # Panics
/// Panics (failing the enclosing `#[test]`) on the first failing case.
pub fn run_property(
    test_name: &str,
    config: &ProptestConfig,
    mut body: impl FnMut(&mut TestRng) -> TestCaseResult,
) {
    let mut rejected = 0u32;
    for case in 0..config.cases {
        let mut rng = TestRng::for_case(test_name, case);
        match body(&mut rng) {
            Ok(()) => {}
            Err(TestCaseError::Reject) => rejected += 1,
            Err(TestCaseError::Fail(msg)) => {
                panic!("property '{test_name}' failed at case {case}/{}: {msg}", config.cases)
            }
        }
    }
    assert!(
        rejected < config.cases,
        "property '{test_name}' rejected all {rejected} cases (prop_assume too strict)"
    );
}

/// Defines property tests: `proptest! { #[test] fn f(x in strat) { .. } }`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Implementation detail of [`proptest!`] (public only for macro reach).
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:pat_param in $strat:expr),* $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config = $cfg;
                $crate::run_property(stringify!($name), &config, |prop_rng| {
                    $(let $arg = $crate::Strategy::new_value(&($strat), prop_rng);)*
                    // Bodies that mutate captured state need `mut`; pure
                    // bodies do not — allow both.
                    #[allow(unused_mut)]
                    let mut case = || -> $crate::TestCaseResult {
                        $body
                        ::std::result::Result::Ok(())
                    };
                    case()
                });
            }
        )*
    };
}

/// Asserts a condition inside a property; failures report the case instead
/// of unwinding through arbitrary stack frames.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "{}\n  left: {:?}\n right: {:?}", format!($($fmt)*), l, r);
    }};
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($left), stringify!($right), l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "{}\n  both: {:?}", format!($($fmt)*), l);
    }};
}

/// Skips the current case when its inputs fall outside the property's
/// domain.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// Picks uniformly among several strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![
            $({
                let s = $strat;
                $crate::BoxedFnStrategy::new(move |rng| $crate::Strategy::new_value(&s, rng))
            }),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_in_bounds(x in 10u32..20, y in 0u64..=5, f in 0.5f64..1.5) {
            prop_assert!((10..20).contains(&x));
            prop_assert!(y <= 5);
            prop_assert!((0.5..1.5).contains(&f));
        }

        #[test]
        fn tuples_and_maps(pair in (0usize..4, 1u64..9).prop_map(|(a, b)| (a, b * 2))) {
            prop_assert!(pair.0 < 4);
            prop_assert!(pair.1 % 2 == 0 && pair.1 < 18);
        }

        #[test]
        fn vec_sizes(v in prop::collection::vec(any::<bool>(), 3..7)) {
            prop_assert!((3..7).contains(&v.len()));
        }

        #[test]
        fn fixed_size_vec(v in prop::collection::vec(any::<u8>(), 5)) {
            prop_assert_eq!(v.len(), 5);
        }

        #[test]
        fn btree_sets_respect_bounds(s in prop::collection::btree_set(0u64..1_000, 1..6)) {
            prop_assert!(!s.is_empty() && s.len() < 6);
        }

        #[test]
        fn oneof_covers_all_arms(x in prop_oneof![Just(1u8), Just(2u8), 3u8..5]) {
            prop_assert!((1..5).contains(&x));
        }

        #[test]
        fn regex_strings_match_subset(s in "[a-z]{1,8}") {
            prop_assert!((1..=8).contains(&s.len()));
            prop_assert!(s.chars().all(|c| c.is_ascii_lowercase()));
        }

        #[test]
        fn assume_rejects_cleanly(x in 0u32..100) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }
    }

    #[test]
    fn any_f64_covers_the_full_domain() {
        let mut rng = crate::TestRng::for_case("any_f64", 0);
        let draws: Vec<f64> =
            (0..1_000).map(|_| crate::Strategy::new_value(&any::<f64>(), &mut rng)).collect();
        assert!(draws.iter().any(|&x| x < 0.0), "no negative value");
        assert!(draws.iter().any(|x| !x.is_finite()), "no non-finite value");
        assert!(draws.iter().any(|&x| x >= 1.0), "no value >= 1");
    }

    #[test]
    fn cases_are_deterministic_per_test() {
        let collect = || {
            let mut out = Vec::new();
            crate::run_property("det", &crate::ProptestConfig::with_cases(8), |rng| {
                out.push(crate::Strategy::new_value(&(0u64..1_000_000), rng));
                Ok(())
            });
            out
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_panic_with_case_number() {
        crate::run_property("fails", &crate::ProptestConfig::with_cases(4), |_rng| {
            Err(crate::TestCaseError::fail("boom"))
        });
    }
}
