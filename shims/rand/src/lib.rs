//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the small API subset it actually uses: [`rngs::SmallRng`]
//! (xoshiro256++, the same generator real `rand` 0.9 uses for `SmallRng`
//! on 64-bit targets), the [`Rng`]/[`RngCore`]/[`SeedableRng`] traits, and
//! the slice helpers in [`seq`]. Everything is deterministic given a seed;
//! no OS entropy source is ever touched (simulations must be reproducible).
//!
//! Only what the workspace calls is implemented. Method names and semantics
//! follow `rand` 0.9 (`random`, `random_range`, `choose`, `shuffle`) so the
//! shim can be swapped for the real crate without touching call sites.

pub mod rngs;
pub mod seq;

use std::ops::{Range, RangeInclusive};

/// The raw generator interface: a source of uniformly distributed bits.
pub trait RngCore {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniformly distributed bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Deterministic construction from seed material.
pub trait SeedableRng: Sized {
    /// Builds a generator whose entire stream is a function of `state`
    /// (SplitMix64 seed expansion, as in real `rand`).
    fn seed_from_u64(state: u64) -> Self;
}

/// Values samplable uniformly from the generator's raw bits
/// (`rng.random::<T>()`).
pub trait StandardSample: Sized {
    /// Draws one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl StandardSample for $t {
            #[inline]
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl StandardSample for bool {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl StandardSample for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Types uniformly samplable from a bounded range.
pub trait SampleUniform: Sized + PartialOrd {
    /// Draws from `[start, end)` (`inclusive = false`) or `[start, end]`
    /// (`inclusive = true`).
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn sample_bounds<R: RngCore + ?Sized>(
        rng: &mut R,
        start: Self,
        end: Self,
        inclusive: bool,
    ) -> Self;
}

/// Ranges usable with [`Rng::random_range`].
///
/// Implemented as a *single blanket impl* per range shape (exactly like
/// real `rand`): this is what lets integer-literal ranges infer their type
/// from the surrounding expression.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_bounds(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (start, end) = self.into_inner();
        T::sample_bounds(rng, start, end, true)
    }
}

/// Uniform integer in `[0, bound)` via Lemire's widening-multiply method
/// (unbiased; rejection loop terminates with probability 1).
#[inline]
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    // Fast path for power-of-two bounds.
    if bound.is_power_of_two() {
        return rng.next_u64() & (bound - 1);
    }
    loop {
        let v = rng.next_u64();
        let (hi, lo) = {
            let wide = u128::from(v) * u128::from(bound);
            ((wide >> 64) as u64, wide as u64)
        };
        // Accept iff `lo <= u64::MAX - 2^64 mod bound`. The remainder is
        // below `bound`, so `lo <= u64::MAX - bound` accepts without it:
        // the division runs only when `lo` is among the top `bound` values.
        if lo <= u64::MAX - bound || lo <= u64::MAX - (u64::MAX - bound + 1) % bound {
            return hi;
        }
    }
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_bounds<R: RngCore + ?Sized>(
                rng: &mut R,
                start: Self,
                end: Self,
                inclusive: bool,
            ) -> Self {
                if inclusive {
                    assert!(start <= end, "cannot sample empty range");
                    let span = (end as u64).wrapping_sub(start as u64);
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    start.wrapping_add(uniform_below(rng, span + 1) as $t)
                } else {
                    assert!(start < end, "cannot sample empty range");
                    let span = (end as u64).wrapping_sub(start as u64);
                    start.wrapping_add(uniform_below(rng, span) as $t)
                }
            }
        }
    )*};
}
impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    #[inline]
    fn sample_bounds<R: RngCore + ?Sized>(
        rng: &mut R,
        start: Self,
        end: Self,
        inclusive: bool,
    ) -> Self {
        assert!(if inclusive { start <= end } else { start < end }, "cannot sample empty range");
        let u: f64 = StandardSample::sample(rng);
        start + u * (end - start)
    }
}

/// The user-facing generator interface (blanket-implemented for every
/// [`RngCore`]).
pub trait Rng: RngCore {
    /// A value sampled uniformly from `T`'s full domain (`[0, 1)` for
    /// floats).
    #[inline]
    fn random<T: StandardSample>(&mut self) -> T {
        T::sample(self)
    }

    /// A value sampled uniformly from `range`.
    ///
    /// # Panics
    /// Panics if the range is empty.
    #[inline]
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    fn random_bool(&mut self, p: f64) -> bool {
        self.random::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{uniform_below, Rng, RngCore, SeedableRng};

    /// Replays a fixed list of words and counts how many were drawn.
    struct Script {
        words: Vec<u64>,
        drawn: usize,
    }

    impl RngCore for Script {
        fn next_u64(&mut self) -> u64 {
            self.drawn += 1;
            self.words[self.drawn - 1]
        }
    }

    /// [`uniform_below`] without its short circuit: Lemire's acceptance
    /// zone computed, with its division, before every draw.
    fn uniform_below_ref(rng: &mut Script, bound: u64) -> u64 {
        let zone = u64::MAX - (u64::MAX - bound + 1) % bound;
        loop {
            let wide = u128::from(rng.next_u64()) * u128::from(bound);
            if wide as u64 <= zone {
                return (wide >> 64) as u64;
            }
        }
    }

    /// Words whose low product `lo = word · bound mod 2^64` lands two below
    /// to two above both acceptance thresholds, `u64::MAX - bound` and the
    /// zone, give the same value after the same number of draws as the
    /// formula without the short circuit (a rejected word is followed by
    /// `0`, which every bound accepts).
    #[test]
    fn short_circuit_keeps_the_accept_set() {
        let (mut accepted, mut rejected) = (0, 0);
        for bound in [3u64, 7, (1 << 32) + 1, (1 << 63) + 1, u64::MAX - 1] {
            // `lo` is a multiple of 2^k; the odd part of `bound` is
            // invertible mod 2^64 (Newton's iteration doubles the correct
            // low bits each step: 3 → 96).
            let k = bound.trailing_zeros();
            let odd = bound >> k;
            let mut inv = odd;
            for _ in 0..5 {
                inv = inv.wrapping_mul(2u64.wrapping_sub(odd.wrapping_mul(inv)));
            }
            let zone = u64::MAX - (u64::MAX - bound + 1) % bound;
            for threshold in [u64::MAX - bound, zone] {
                for delta in -2i64..=2 {
                    let lo = threshold.wrapping_add_signed(delta) >> k << k;
                    let word = (lo >> k).wrapping_mul(inv);
                    assert_eq!(word.wrapping_mul(bound), lo, "bound {bound}");
                    let mut new = Script { words: vec![word, 0], drawn: 0 };
                    let mut old = Script { words: vec![word, 0], drawn: 0 };
                    let got = uniform_below(&mut new, bound);
                    assert_eq!(got, uniform_below_ref(&mut old, bound), "bound {bound} lo {lo}");
                    assert_eq!(new.drawn, old.drawn, "bound {bound} lo {lo}");
                    assert!(got < bound);
                    if new.drawn == 1 {
                        accepted += 1;
                    } else {
                        rejected += 1;
                    }
                }
            }
        }
        assert!(accepted > 0 && rejected > 0, "accepted {accepted}, rejected {rejected}");
    }

    #[test]
    fn deterministic_streams() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        let va: Vec<u64> = (0..16).map(|_| a.random()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.random()).collect();
        assert_eq!(va, vb);
        let mut c = SmallRng::seed_from_u64(8);
        let vc: Vec<u64> = (0..16).map(|_| c.random()).collect();
        assert_ne!(va, vc);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = r.random_range(3..17u32);
            assert!((3..17).contains(&x));
            let y = r.random_range(0..=5u64);
            assert!(y <= 5);
            let f = r.random_range(-2.0..3.0f64);
            assert!((-2.0..3.0).contains(&f));
        }
    }

    #[test]
    fn unit_float_distribution_is_roughly_uniform() {
        let mut r = SmallRng::seed_from_u64(3);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.random::<f64>()).sum::<f64>() / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn small_range_is_roughly_uniform() {
        let mut r = SmallRng::seed_from_u64(9);
        let mut counts = [0u32; 5];
        for _ in 0..50_000 {
            counts[r.random_range(0..5usize)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "bucket count {c}");
        }
    }
}
