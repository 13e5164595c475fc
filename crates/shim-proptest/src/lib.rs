//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access, so the workspace vendors the
//! slice of proptest's API that `tests/properties.rs` uses: the [`Strategy`]
//! trait with `prop_map` / `prop_recursive` / `boxed`, ranges, tuples,
//! [`Just`], `any::<T>()`, `prop::collection::vec`, a character-class subset
//! of the string-regex strategies, weighted [`prop_oneof!`], and the
//! [`proptest!`] / [`prop_assert!`] / [`prop_assert_eq!`] macros.
//!
//! Differences from upstream, by design:
//! - **No shrinking.** A failing case reports the case number and message;
//!   re-running reproduces it exactly (seeds are derived from the test name).
//! - Value streams differ from upstream proptest; only determinism and a
//!   reasonable distribution are promised.
//! - String strategies accept only `[class]{m,n}`-style patterns (sequences
//!   of char classes / literals with optional repetition), which covers every
//!   pattern in this repository. Unsupported syntax panics loudly.
//!
//! Set `PROPTEST_SHIM_SEED=<u64>` to perturb every test's seed, e.g. for a
//! soak run exploring fresh cases.

use std::fmt;
use std::marker::PhantomData;
use std::ops::Range;
use std::rc::Rc;

use rand::{Rng as _, RngCore, SeedableRng};

/// Deterministic generator handed to strategies; one per test function.
pub struct TestRng(rand::rngs::StdRng);

impl TestRng {
    /// Derive the generator for a named test: FNV-1a of the name, optionally
    /// xor-perturbed by `PROPTEST_SHIM_SEED` for soak runs.
    pub fn for_test(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        if let Ok(s) = std::env::var("PROPTEST_SHIM_SEED") {
            if let Ok(v) = s.trim().parse::<u64>() {
                h ^= v;
            }
        }
        TestRng(rand::rngs::StdRng::seed_from_u64(h))
    }
}

impl RngCore for TestRng {
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// Mirror of `proptest::test_runner` for code that names the full path.
pub mod test_runner {
    pub use super::TestRng;
}

// ---------- errors and config ----------

/// A failed property case (what `prop_assert!` returns).
#[derive(Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Build a failure carrying `msg`.
    pub fn fail(msg: String) -> Self {
        TestCaseError(msg)
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Per-block configuration; only `cases` is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

// ---------- the Strategy trait ----------

/// A recipe for generating values of `Self::Value`.
///
/// Object-safe core (`generate`) plus sized combinators, like upstream.
pub trait Strategy: 'static {
    /// The type of value this strategy produces.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U + 'static,
    {
        Map { inner: self, f }
    }

    /// Recursive strategy: `self` is the leaf; `branch` builds one level on
    /// top of the strategy for the level below. `depth` bounds nesting; the
    /// size hints are accepted for API compatibility but unused (sizes are
    /// bounded by `depth` times the branch fan-out instead).
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        branch: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized,
        R: Strategy<Value = Self::Value>,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let leaf = self.boxed();
        let mut cur = leaf.clone();
        for _ in 0..depth {
            // Each added level branches with probability 3/4, so expected
            // sizes stay modest while deep nesting remains reachable.
            let deeper = branch(cur).boxed();
            cur = Union::weighted(vec![(1, leaf.clone()), (3, deeper)]).boxed();
        }
        cur
    }

    /// Type-erase into a cloneable, reference-counted strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized,
    {
        BoxedStrategy(Rc::new(self))
    }
}

/// A type-erased, cheaply cloneable [`Strategy`].
pub struct BoxedStrategy<T>(Rc<dyn Strategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T: 'static> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate(rng)
    }
}

// ---------- primitive strategies ----------

/// Always yields a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone + 'static> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

impl<T> Strategy for Range<T>
where
    T: rand::SampleUniform + 'static,
    Range<T>: rand::SampleRange<T> + Clone,
{
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        rng.gen_range(self.clone())
    }
}

/// Strategy returned by [`any`].
pub struct Any<T>(PhantomData<T>);

/// Uniform draw over the whole domain of `T` (`bool`, the integers, `f64`).
pub fn any<T: rand::Standard + 'static>() -> Any<T> {
    Any(PhantomData)
}

impl<T: rand::Standard + 'static> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        rng.gen::<T>()
    }
}

/// Mapped strategy (see [`Strategy::prop_map`]).
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U + 'static,
    U: 'static,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Weighted choice among boxed strategies (what [`prop_oneof!`] builds).
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
    total: u64,
}

impl<T: 'static> Union<T> {
    /// Build from `(weight, strategy)` pairs; weights need not be normalised.
    pub fn weighted(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        let total = arms.iter().map(|(w, _)| u64::from(*w)).sum();
        assert!(total > 0, "prop_oneof! needs at least one positive weight");
        Union { arms, total }
    }
}

impl<T: 'static> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.gen_range(0..self.total);
        for (w, s) in &self.arms {
            let w = u64::from(*w);
            if pick < w {
                return s.generate(rng);
            }
            pick -= w;
        }
        unreachable!("weights summed correctly")
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

// ---------- collections ----------

/// Mirror of `proptest::collection`.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng as _;
    use std::ops::Range;

    /// `Vec` strategy: length drawn from `size`, elements from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty size range in prop::collection::vec");
        VecStrategy { element, size }
    }

    /// Strategy produced by [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.clone());
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

// ---------- string (regex-subset) strategies ----------

/// One parsed pattern atom: the characters it may yield and its repetition.
struct Atom {
    choices: Vec<char>,
    min: usize,
    max: usize,
}

/// Parse the supported regex subset: a sequence of `[class]`, `\c`, or
/// literal-char atoms, each optionally followed by `{n}` or `{m,n}`.
fn parse_pattern(pat: &str) -> Vec<Atom> {
    let chars: Vec<char> = pat.chars().collect();
    let mut i = 0;
    let mut atoms = Vec::new();
    let unsupported = |what: &str| -> ! {
        panic!("proptest shim: unsupported regex syntax ({what}) in pattern {pat:?}")
    };
    while i < chars.len() {
        let choices = match chars[i] {
            '[' => {
                i += 1;
                let mut set = Vec::new();
                while i < chars.len() && chars[i] != ']' {
                    let c = if chars[i] == '\\' {
                        i += 1;
                        *chars.get(i).unwrap_or_else(|| unsupported("trailing backslash"))
                    } else {
                        chars[i]
                    };
                    // A `-` between two plain chars is a range; elsewhere
                    // (escaped, first, or last) it is a literal.
                    if chars.get(i + 1) == Some(&'-') && chars.get(i + 2).is_some_and(|c| *c != ']')
                    {
                        let hi = if chars[i + 2] == '\\' {
                            i += 1;
                            *chars.get(i + 2).unwrap_or_else(|| unsupported("trailing backslash"))
                        } else {
                            chars[i + 2]
                        };
                        if c > hi {
                            unsupported("descending class range");
                        }
                        set.extend((c..=hi).collect::<Vec<char>>());
                        i += 3;
                    } else {
                        set.push(c);
                        i += 1;
                    }
                }
                if i >= chars.len() {
                    unsupported("unterminated character class");
                }
                i += 1; // consume ']'
                set
            }
            '\\' => {
                i += 1;
                let c = *chars.get(i).unwrap_or_else(|| unsupported("trailing backslash"));
                i += 1;
                vec![c]
            }
            '(' | ')' | '|' | '*' | '+' | '?' | '.' | '^' | '$' => {
                unsupported("operator outside a character class")
            }
            c => {
                i += 1;
                vec![c]
            }
        };
        if choices.is_empty() {
            unsupported("empty character class");
        }
        // Optional {n} or {m,n} repetition.
        let (min, max) = if chars.get(i) == Some(&'{') {
            let close = chars[i..]
                .iter()
                .position(|c| *c == '}')
                .unwrap_or_else(|| unsupported("unterminated repetition"));
            let body: String = chars[i + 1..i + close].iter().collect();
            i += close + 1;
            let parse = |s: &str| -> usize {
                s.trim().parse().unwrap_or_else(|_| unsupported("non-numeric repetition"))
            };
            match body.split_once(',') {
                Some((m, n)) => (parse(m), parse(n)),
                None => (parse(&body), parse(&body)),
            }
        } else {
            (1, 1)
        };
        if min > max {
            unsupported("descending repetition range");
        }
        atoms.push(Atom { choices, min, max });
    }
    atoms
}

impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let mut out = String::new();
        for atom in parse_pattern(self) {
            let n = rng.gen_range(atom.min..=atom.max);
            for _ in 0..n {
                out.push(atom.choices[rng.gen_range(0..atom.choices.len())]);
            }
        }
        out
    }
}

// ---------- macros ----------

/// Weighted (`w => strat`) or uniform choice among strategies of one value
/// type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::Union::weighted(vec![
            $(($weight as u32, $crate::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::weighted(vec![
            $((1u32, $crate::Strategy::boxed($strat))),+
        ])
    };
}

/// Fail the current property case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Fail the current property case unless the two values compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        if !(left == right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "prop_assert_eq! failed:\n  left: {:?}\n right: {:?}",
                left, right
            )));
        }
    }};
}

/// Expand property functions into `#[test]`s that run `cases` random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $( $(#[$meta:meta])*
         fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
      )* ) => {$(
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::for_test(concat!(module_path!(), "::", stringify!($name)));
            let strategies = ( $( $strat, )+ );
            for case in 0..cfg.cases {
                let ( $( $arg, )+ ) = {
                    let ( $( ref $arg, )+ ) = strategies;
                    ( $( $crate::Strategy::generate($arg, &mut rng), )+ )
                };
                let outcome: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!(
                        "property {} failed at case {}/{}: {}\n(no shrinking in the \
                         offline proptest shim; seeds are deterministic per test name)",
                        stringify!($name),
                        case + 1,
                        cfg.cases,
                        e
                    );
                }
            }
        }
    )*};
}

/// The glob-import surface: `use proptest::prelude::*;`.
pub mod prelude {
    /// Alias so `prop::collection::vec(...)` and friends resolve.
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, BoxedStrategy, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::TestRng;

    fn rng() -> TestRng {
        TestRng::for_test("shim-internal")
    }

    #[test]
    fn ranges_tuples_and_map() {
        let s = (0..4u8, 10..20u32).prop_map(|(a, b)| u64::from(a) + u64::from(b));
        let mut r = rng();
        for _ in 0..200 {
            let v = s.generate(&mut r);
            assert!((10..24).contains(&v), "{v}");
        }
    }

    #[test]
    fn oneof_weighted_and_uniform() {
        let w = prop_oneof![3 => Just(1u8), 1 => Just(2u8)];
        let u = prop_oneof![Just(10u8), Just(20u8), Just(30u8)];
        let mut r = rng();
        let mut ones = 0;
        for _ in 0..400 {
            if w.generate(&mut r) == 1 {
                ones += 1;
            }
            assert!([10, 20, 30].contains(&u.generate(&mut r)));
        }
        assert!((200..400).contains(&ones), "3:1 weighting should dominate: {ones}");
    }

    #[test]
    fn string_patterns_from_the_test_suite() {
        let mut r = rng();
        for _ in 0..100 {
            let s = "[a-z<&\"]{1,10}".generate(&mut r);
            assert!((1..=10).contains(&s.chars().count()));
            assert!(s.chars().all(|c| c.is_ascii_lowercase() || "<&\"".contains(c)), "{s:?}");

            let soup = "[<>/=a-c\"'& !\\?\\-\\[\\]]{0,120}".generate(&mut r);
            assert!(soup.chars().count() <= 120);
            assert!(soup.chars().all(|c| "<>/=abc\"'& !?-[]".contains(c)), "{soup:?}");
        }
    }

    #[test]
    fn recursive_strategies_terminate_and_nest() {
        #[derive(Debug)]
        enum Tree {
            Leaf(#[allow(dead_code)] u8),
            Node(Vec<Tree>),
        }
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf(_) => 0,
                Tree::Node(c) => 1 + c.iter().map(depth).max().unwrap_or(0),
            }
        }
        let strat = (0..10u8).prop_map(Tree::Leaf).prop_recursive(4, 48, 6, |inner| {
            prop::collection::vec(inner, 0..4).prop_map(Tree::Node)
        });
        let mut r = rng();
        let mut max_depth = 0;
        for _ in 0..300 {
            max_depth = max_depth.max(depth(&strat.generate(&mut r)));
        }
        assert!(max_depth >= 2, "recursion should nest: {max_depth}");
        assert!(max_depth <= 4, "depth bound respected: {max_depth}");
    }

    #[test]
    fn collection_vec_respects_bounds() {
        let s = prop::collection::vec(any::<bool>(), 1..7);
        let mut r = rng();
        for _ in 0..100 {
            let v = s.generate(&mut r);
            assert!((1..7).contains(&v.len()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The proptest! macro itself: args bind, prop_assert works.
        #[test]
        fn macro_binds_args(a in 0..5u8, b in 10..15u32) {
            prop_assert!(a < 5);
            prop_assert_eq!(b / 10, 1);
        }
    }
}
