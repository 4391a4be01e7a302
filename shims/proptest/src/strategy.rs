//! Value-generation strategies (no shrinking — see crate docs).

use std::collections::BTreeSet;
use std::fmt::Debug;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Deterministic per-test generator (SplitMix64 core). Seeded from the
/// test's name and the case number, so every failure reproduces exactly.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl TestRng {
    /// The generator for case `case` of test `test_name`.
    pub fn for_case(test_name: &str, case: u32) -> Self {
        // FNV-1a over the name, mixed with the case number.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in test_name.as_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng { state: h ^ (u64::from(case).wrapping_mul(0x9e37_79b9_7f4a_7c15)) }
    }

    /// The next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Uniform integer in `[0, bound)`; `bound` must be non-zero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        let zone = u64::MAX - (u64::MAX - bound + 1) % bound;
        loop {
            let v = self.next_u64();
            let wide = u128::from(v) * u128::from(bound);
            if (wide as u64) <= zone {
                return (wide >> 64) as u64;
            }
        }
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A recipe for generating values of one type.
pub trait Strategy {
    /// The generated type.
    type Value: Debug;

    /// Draws one value.
    fn new_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Post-processes generated values with `f`.
    fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized + Debug {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            #[inline]
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    #[inline]
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// The edge values `any::<f64>()` draws a quarter of the time: both zeros,
/// both infinities, NaN, the normal extremes, the smallest subnormal and
/// the unit boundaries.
const SPECIAL_F64: [f64; 13] = [
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    f64::MIN_POSITIVE,
    -f64::MIN_POSITIVE,
    f64::MAX,
    f64::MIN,
    f64::from_bits(1),
    -f64::from_bits(1),
    1.0,
    -1.0,
];

impl Arbitrary for f64 {
    /// The full domain, as proptest's `any::<f64>()` covers it: a quarter
    /// of the draws are `SPECIAL_F64` edge values, an eighth are
    /// subnormals of either sign, and the rest reinterpret a random word
    /// (every sign, exponent and NaN payload).
    #[inline]
    fn arbitrary(rng: &mut TestRng) -> Self {
        const SIGN_AND_MANTISSA: u64 = (1 << 63) | ((1 << 52) - 1);
        match rng.below(8) {
            0 | 1 => SPECIAL_F64[rng.below(SPECIAL_F64.len() as u64) as usize],
            2 => f64::from_bits(rng.next_u64() & SIGN_AND_MANTISSA),
            _ => f64::from_bits(rng.next_u64()),
        }
    }
}

/// Strategy generating unconstrained values of `T` (see [`any`]).
#[derive(Clone, Copy, Debug)]
pub struct Any<T>(PhantomData<T>);

/// `any::<T>()` — the full domain of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Strategy producing exactly one value.
#[derive(Clone, Copy, Debug)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn new_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Output of [`Strategy::prop_map`].
#[derive(Clone, Copy, Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn new_value(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.new_value(rng))
    }
}

macro_rules! impl_strategy_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
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
impl_strategy_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn new_value(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn new_value(&self, rng: &mut TestRng) -> f64 {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "empty range strategy");
        start + rng.unit_f64() * (end - start)
    }
}

macro_rules! impl_strategy_tuple {
    ($($s:ident/$idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.new_value(rng),)+)
            }
        }
    };
}
impl_strategy_tuple!(A / 0);
impl_strategy_tuple!(A / 0, B / 1);
impl_strategy_tuple!(A / 0, B / 1, C / 2);
impl_strategy_tuple!(A / 0, B / 1, C / 2, D / 3);
impl_strategy_tuple!(A / 0, B / 1, C / 2, D / 3, E / 4);
impl_strategy_tuple!(A / 0, B / 1, C / 2, D / 3, E / 4, F / 5);

/// A type-erased sampling function (one arm of [`OneOf`]).
pub struct BoxedFnStrategy<V> {
    sample: Box<dyn Fn(&mut TestRng) -> V>,
}

impl<V: Debug> BoxedFnStrategy<V> {
    /// Wraps a sampling closure.
    pub fn new(sample: impl Fn(&mut TestRng) -> V + 'static) -> Self {
        BoxedFnStrategy { sample: Box::new(sample) }
    }
}

impl<V: Debug> Strategy for BoxedFnStrategy<V> {
    type Value = V;
    fn new_value(&self, rng: &mut TestRng) -> V {
        (self.sample)(rng)
    }
}

/// Uniform choice among arms (the `prop_oneof!` macro's backend).
pub struct OneOf<V> {
    arms: Vec<BoxedFnStrategy<V>>,
}

impl<V: Debug> OneOf<V> {
    /// A strategy choosing uniformly among `arms`.
    ///
    /// # Panics
    /// Panics if `arms` is empty.
    pub fn new(arms: Vec<BoxedFnStrategy<V>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        OneOf { arms }
    }
}

impl<V: Debug> Strategy for OneOf<V> {
    type Value = V;
    fn new_value(&self, rng: &mut TestRng) -> V {
        let pick = rng.below(self.arms.len() as u64) as usize;
        self.arms[pick].new_value(rng)
    }
}

/// Collection sizes: a fixed count or a half-open range (real proptest's
/// `SizeRange`, reduced to the two forms the workspace uses).
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    min: usize,
    /// Exclusive upper bound.
    max: usize,
}

impl SizeRange {
    fn pick(&self, rng: &mut TestRng) -> usize {
        if self.max <= self.min + 1 {
            self.min
        } else {
            self.min + rng.below((self.max - self.min) as u64) as usize
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { min: n, max: n + 1 }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange { min: r.start, max: r.end }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        SizeRange { min: *r.start(), max: r.end() + 1 }
    }
}

/// Collection strategies (`prop::collection::*`).
pub mod collection {
    use super::{BTreeSet, Debug, SizeRange, Strategy, TestRng};

    /// Strategy for `Vec<S::Value>` (see [`vec()`]).
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A vector of values from `element`, sized by `size` (a count or a
    /// half-open range).
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.new_value(rng)).collect()
        }
    }

    /// Strategy for `BTreeSet<S::Value>` (see [`btree_set`]).
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A set of distinct values from `element`, sized by `size`. Retries
    /// duplicate draws a bounded number of times; sparse element domains
    /// may yield fewer elements than requested (as in real proptest).
    pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy { element, size: size.into() }
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord + Debug,
    {
        type Value = BTreeSet<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Self::Value {
            let target = self.size.pick(rng);
            let mut out = BTreeSet::new();
            let mut attempts = 0usize;
            while out.len() < target && attempts < target * 10 + 16 {
                out.insert(self.element.new_value(rng));
                attempts += 1;
            }
            out
        }
    }
}

/// Explicit-list strategies (`prop::sample::*`).
pub mod sample {
    use super::{Debug, Strategy, TestRng};

    /// Strategy choosing among a fixed list (see [`select`]).
    pub struct Select<T> {
        options: Vec<T>,
    }

    /// A uniformly random element of `options`.
    ///
    /// # Panics
    /// Panics if `options` is empty.
    pub fn select<T: Clone + Debug>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select needs at least one option");
        Select { options }
    }

    impl<T: Clone + Debug> Strategy for Select<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            self.options[rng.below(self.options.len() as u64) as usize].clone()
        }
    }
}

/// `&str` regex strategies, supporting the subset the workspace uses:
/// concatenations of literal characters and character classes
/// (`[a-z0-9/ ]`), each optionally repeated `{m,n}`, `{n}`, `*`, `+` or
/// `?`. Anything fancier panics with a clear message.
impl Strategy for &'static str {
    type Value = String;
    fn new_value(&self, rng: &mut TestRng) -> String {
        let pattern = regex_lite::parse(self);
        regex_lite::generate(&pattern, rng)
    }
}

mod regex_lite {
    use super::TestRng;

    pub(super) enum Piece {
        /// One of these characters…
        Class(Vec<char>),
        /// …repeated between `min` and `max` times (inclusive).
        Repeat(Box<Piece>, usize, usize),
    }

    pub(super) fn parse(pattern: &str) -> Vec<Piece> {
        let chars: Vec<char> = pattern.chars().collect();
        let mut pieces = Vec::new();
        let mut i = 0usize;
        while i < chars.len() {
            let atom = match chars[i] {
                '[' => {
                    let close = chars[i..]
                        .iter()
                        .position(|&c| c == ']')
                        .unwrap_or_else(|| panic!("unclosed '[' in regex strategy {pattern:?}"));
                    let class = parse_class(&chars[i + 1..i + close]);
                    i += close + 1;
                    Piece::Class(class)
                }
                '.' => {
                    i += 1;
                    Piece::Class((' '..='~').collect())
                }
                '\\' => {
                    i += 1;
                    let c = *chars
                        .get(i)
                        .unwrap_or_else(|| panic!("dangling escape in regex strategy {pattern:?}"));
                    i += 1;
                    Piece::Class(vec![c])
                }
                '(' | ')' | '|' | '^' | '$' => {
                    panic!(
                        "regex strategy shim does not support {:?} (pattern {pattern:?})",
                        chars[i]
                    )
                }
                c => {
                    i += 1;
                    Piece::Class(vec![c])
                }
            };
            // Optional repetition suffix.
            let piece = match chars.get(i) {
                Some('{') => {
                    let close = chars[i..]
                        .iter()
                        .position(|&c| c == '}')
                        .unwrap_or_else(|| panic!("unclosed '{{' in regex strategy {pattern:?}"));
                    let spec: String = chars[i + 1..i + close].iter().collect();
                    i += close + 1;
                    let (min, max) = match spec.split_once(',') {
                        Some((lo, hi)) => (
                            lo.trim().parse().expect("repetition lower bound"),
                            hi.trim().parse().expect("repetition upper bound"),
                        ),
                        None => {
                            let n = spec.trim().parse().expect("repetition count");
                            (n, n)
                        }
                    };
                    Piece::Repeat(Box::new(atom), min, max)
                }
                Some('*') => {
                    i += 1;
                    Piece::Repeat(Box::new(atom), 0, 8)
                }
                Some('+') => {
                    i += 1;
                    Piece::Repeat(Box::new(atom), 1, 8)
                }
                Some('?') => {
                    i += 1;
                    Piece::Repeat(Box::new(atom), 0, 1)
                }
                _ => atom,
            };
            pieces.push(piece);
        }
        pieces
    }

    fn parse_class(body: &[char]) -> Vec<char> {
        let mut out = Vec::new();
        let mut i = 0usize;
        while i < body.len() {
            if i + 2 < body.len() && body[i + 1] == '-' {
                for c in body[i]..=body[i + 2] {
                    out.push(c);
                }
                i += 3;
            } else {
                out.push(body[i]);
                i += 1;
            }
        }
        assert!(!out.is_empty(), "empty character class in regex strategy");
        out
    }

    pub(super) fn generate(pieces: &[Piece], rng: &mut TestRng) -> String {
        let mut out = String::new();
        for piece in pieces {
            emit(piece, rng, &mut out);
        }
        out
    }

    fn emit(piece: &Piece, rng: &mut TestRng, out: &mut String) {
        match piece {
            Piece::Class(chars) => {
                out.push(chars[rng.below(chars.len() as u64) as usize]);
            }
            Piece::Repeat(inner, min, max) => {
                let n = *min + rng.below((*max - *min + 1) as u64) as usize;
                for _ in 0..n {
                    emit(inner, rng, out);
                }
            }
        }
    }
}
