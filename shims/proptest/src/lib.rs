//! Offline stand-in for `proptest` (see `crates/shims/README.md`).
//!
//! Implements the subset of the proptest API the workspace's
//! property-based tests use: the [`Strategy`] trait with `prop_map`,
//! `any::<T>()`, range and tuple strategies, [`Just`], weighted
//! [`prop_oneof!`], [`collection`] strategies (`vec`, `btree_map`,
//! `btree_set`), [`ProptestConfig`] and the [`proptest!`] /
//! [`prop_assert!`] / [`prop_assert_eq!`] macros.
//!
//! Differences from the real crate, chosen for a hermetic offline build:
//!
//! - **No shrinking.** A failing case reports the generated inputs, the
//!   case number and the per-test seed; re-running is deterministic, so
//!   the failure reproduces exactly.
//! - **Deterministic seeding.** Case `i` of test `t` always uses seed
//!   `fnv1a(t) ^ i`, so CI failures replay locally without seed files.
//! - `prop_assert*` panic (like `assert*`) instead of returning
//!   `TestCaseError` — equivalent behaviour when shrinking is absent.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The RNG handed to [`Strategy::generate`].
pub type TestRng = StdRng;

/// Runtime configuration for a [`proptest!`] block.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
    /// Accepted for API compatibility; shrinking is not implemented.
    pub max_shrink_iters: u32,
    /// Accepted for API compatibility; forking is not implemented.
    pub fork: bool,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 256,
            max_shrink_iters: 0,
            fork: false,
        }
    }
}

/// A generator of test values.
///
/// Matches the real crate's surface for the call sites in this workspace:
/// `Value` is the generated type and `generate` produces one value (the
/// real crate's `ValueTree` indirection exists only for shrinking, which
/// this shim does not do).
pub trait Strategy {
    /// The type of generated values.
    type Value: fmt::Debug;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        O: fmt::Debug,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Discards generated values failing `f` (bounded retries).
    fn prop_filter<F>(self, whence: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            whence,
            f,
        }
    }

    /// Erases the concrete strategy type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<V>(Box<dyn Strategy<Value = V>>);

impl<V: fmt::Debug> Strategy for BoxedStrategy<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        self.0.generate(rng)
    }
}

impl<V> fmt::Debug for BoxedStrategy<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("BoxedStrategy")
    }
}

/// Strategy produced by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    O: fmt::Debug,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy produced by [`Strategy::prop_filter`].
#[derive(Debug, Clone)]
pub struct Filter<S, F> {
    inner: S,
    whence: &'static str,
    f: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.generate(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter rejected 1000 consecutive values: {}",
            self.whence
        );
    }
}

/// Strategy that always yields a clone of its payload.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone + fmt::Debug> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Strategy for a value of `T`'s full domain; created by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

/// Generates any value of `T` (full domain, uniform).
#[must_use]
pub fn any<T: rand::Standard + fmt::Debug>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

impl<T: rand::Standard + fmt::Debug> Strategy for AnyStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::sample(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i32, i64, f64);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
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

/// Weighted union of strategies; built by [`prop_oneof!`].
pub struct Union<V> {
    arms: Vec<(u32, BoxedStrategy<V>)>,
    total_weight: u64,
}

impl<V: fmt::Debug> Union<V> {
    /// Builds a union from `(weight, strategy)` arms.
    ///
    /// # Panics
    /// Panics if `arms` is empty or all weights are zero.
    #[must_use]
    pub fn new(arms: Vec<(u32, BoxedStrategy<V>)>) -> Union<V> {
        let total_weight: u64 = arms.iter().map(|(w, _)| u64::from(*w)).sum();
        assert!(
            total_weight > 0,
            "prop_oneof! needs at least one positive weight"
        );
        Union { arms, total_weight }
    }
}

impl<V> fmt::Debug for Union<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Union({} arms)", self.arms.len())
    }
}

impl<V: fmt::Debug> Strategy for Union<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        let mut ticket = rng.random_range(0..self.total_weight);
        for (w, s) in &self.arms {
            let w = u64::from(*w);
            if ticket < w {
                return s.generate(rng);
            }
            ticket -= w;
        }
        unreachable!("ticket exceeded total weight");
    }
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::collections::{BTreeMap, BTreeSet};
    use std::fmt;

    /// Inclusive-min/exclusive-max bounds on generated collection sizes.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max_excl: usize,
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange {
                min: r.start,
                max_excl: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                min: *r.start(),
                max_excl: *r.end() + 1,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange {
                min: n,
                max_excl: n + 1,
            }
        }
    }

    impl SizeRange {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.random_range(self.min..self.max_excl)
        }
    }

    /// Strategy for `Vec`s of `element` values; see [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates `Vec<S::Value>` with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy for `BTreeMap`s; see [`btree_map`].
    #[derive(Debug, Clone)]
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: SizeRange,
    }

    /// Generates `BTreeMap`s with a target size drawn from `size`.
    /// Duplicate generated keys overwrite, so maps may come out smaller
    /// than the target when the key domain is narrow (same as the real
    /// crate under heavy rejection).
    pub fn btree_map<K, V>(key: K, value: V, size: impl Into<SizeRange>) -> BTreeMapStrategy<K, V>
    where
        K: Strategy,
        V: Strategy,
        K::Value: Ord,
    {
        BTreeMapStrategy {
            key,
            value,
            size: size.into(),
        }
    }

    impl<K, V> Strategy for BTreeMapStrategy<K, V>
    where
        K: Strategy,
        V: Strategy,
        K::Value: Ord + fmt::Debug,
    {
        type Value = BTreeMap<K::Value, V::Value>;

        fn generate(&self, rng: &mut TestRng) -> BTreeMap<K::Value, V::Value> {
            let target = self.size.pick(rng);
            let mut out = BTreeMap::new();
            for _ in 0..target.saturating_mul(4).max(8) {
                if out.len() >= target {
                    break;
                }
                out.insert(self.key.generate(rng), self.value.generate(rng));
            }
            out
        }
    }

    /// Strategy for `BTreeSet`s; see [`btree_set`].
    #[derive(Debug, Clone)]
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates `BTreeSet`s with a target size drawn from `size`.
    pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord + fmt::Debug,
    {
        type Value = BTreeSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let target = self.size.pick(rng);
            let mut out = BTreeSet::new();
            for _ in 0..target.saturating_mul(4).max(8) {
                if out.len() >= target {
                    break;
                }
                out.insert(self.element.generate(rng));
            }
            out
        }
    }
}

/// Seeds the RNG for one test case: FNV-1a of the test path XOR the case
/// index. Printed on failure; rerunning the same binary reproduces it.
#[must_use]
pub fn case_seed(test_name: &str, case: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ u64::from(case)
}

/// Creates the deterministic RNG for one test case.
#[must_use]
pub fn case_rng(test_name: &str, case: u32) -> TestRng {
    TestRng::seed_from_u64(case_seed(test_name, case))
}

/// Everything a proptest file needs in scope.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, BoxedStrategy,
        Just, ProptestConfig, Strategy,
    };
}

/// Asserts a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Asserts inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Weighted choice between strategies: `prop_oneof![3 => a, 1 => b]` or
/// unweighted `prop_oneof![a, b]`.
#[macro_export]
macro_rules! prop_oneof {
    ( $( $weight:literal => $strategy:expr ),+ $(,)? ) => {
        $crate::Union::new(vec![
            $( (($weight) as u32, $crate::Strategy::boxed($strategy)) ),+
        ])
    };
    ( $( $strategy:expr ),+ $(,)? ) => {
        $crate::Union::new(vec![
            $( (1u32, $crate::Strategy::boxed($strategy)) ),+
        ])
    };
}

/// Defines property-based tests.
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]
///
///     #[test]
///     fn my_property(xs in proptest::collection::vec(any::<u8>(), 0..100)) {
///         prop_assert!(xs.len() < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    ( #![proptest_config($config:expr)] $($rest:tt)* ) => {
        $crate::__proptest_impl! { ($config) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_impl! { (<$crate::ProptestConfig as Default>::default()) $($rest)* }
    };
}

/// Internal recursion for [`proptest!`]; not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($config:expr) ) => {};
    ( ($config:expr)
      $(#[$meta:meta])*
      fn $name:ident( $($arg:pat in $strategy:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $config;
            let __test_name = concat!(module_path!(), "::", stringify!($name));
            for __case in 0..__config.cases {
                let mut __rng = $crate::case_rng(__test_name, __case);
                let __vals = ( $( $crate::Strategy::generate(&($strategy), &mut __rng), )+ );
                let __desc = format!("{__vals:?}");
                let __outcome = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(
                    move || {
                        let ( $($arg,)+ ) = __vals;
                        $body
                    },
                ));
                if let Err(__panic) = __outcome {
                    eprintln!(
                        "proptest case failed: {} (case {}/{}, seed {:#x})\n  inputs: {}",
                        __test_name,
                        __case + 1,
                        __config.cases,
                        $crate::case_seed(__test_name, __case),
                        __desc,
                    );
                    ::std::panic::resume_unwind(__panic);
                }
            }
        }
        $crate::__proptest_impl! { ($config) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = crate::case_rng("shim::smoke", 0);
        let s = (1u64..10, any::<bool>(), 0u8..=3);
        for _ in 0..200 {
            let (a, _b, c) = s.generate(&mut rng);
            assert!((1..10).contains(&a));
            assert!(c <= 3);
        }
    }

    #[test]
    fn oneof_respects_zero_weight_absence() {
        let mut rng = crate::case_rng("shim::oneof", 0);
        let s = prop_oneof![
            3 => Just(1u8),
            1 => Just(2u8),
        ];
        let mut saw = [false; 3];
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!(v == 1 || v == 2);
            saw[v as usize] = true;
        }
        assert!(saw[1] && saw[2], "both arms must be reachable");
    }

    #[test]
    fn collections_hit_size_targets() {
        let mut rng = crate::case_rng("shim::coll", 0);
        for _ in 0..50 {
            let v = collection::vec(any::<u8>(), 2..5).generate(&mut rng);
            assert!((2..5).contains(&v.len()));
            let m = collection::btree_map(any::<u64>(), any::<u8>(), 3..4).generate(&mut rng);
            assert_eq!(m.len(), 3, "u64 keys should not collide here");
            let s = collection::btree_set(any::<u8>(), 0..3).generate(&mut rng);
            assert!(s.len() <= 2);
        }
    }

    #[test]
    fn prop_map_composes() {
        let mut rng = crate::case_rng("shim::map", 0);
        let s = (any::<u16>(), any::<u8>()).prop_map(|(k, v)| (k % 7, v));
        for _ in 0..100 {
            assert!(s.generate(&mut rng).0 < 7);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

        #[test]
        fn macro_generates_and_destructures((a, b) in (0u32..10, any::<bool>()), n in 1usize..4) {
            prop_assert!(a < 10);
            prop_assert_eq!(n.min(3), n);
            let _ = b;
        }
    }
}
