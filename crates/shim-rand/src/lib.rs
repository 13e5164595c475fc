//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no network access, so the workspace vendors the
//! tiny slice of `rand`'s 0.8 API it actually uses: `rngs::StdRng`,
//! [`SeedableRng::seed_from_u64`], and the [`Rng`] methods `gen_range` /
//! `gen_bool` / `gen` over primitive integers. The generator is
//! xoshiro256** seeded via SplitMix64 -- high-quality, deterministic, and
//! dependency-free. It does NOT reproduce upstream `rand`'s exact value
//! streams; everything in this workspace only needs determinism per seed.

use std::ops::{Range, RangeInclusive};

/// Core of the generator abstraction: a source of random `u64`s.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Construction of a generator from a seed.
pub trait SeedableRng: Sized {
    /// Deterministically derive a full generator state from a `u64` seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that [`Rng::gen_range`] can sample uniformly.
pub trait SampleUniform: Copy + PartialOrd {
    /// Sample uniformly from `[lo, hi]` (inclusive).
    fn sample_inclusive(rng: &mut dyn RngCore, lo: Self, hi: Self) -> Self;
    /// The next representable value below `self` (for exclusive upper bounds).
    fn predecessor(self) -> Self;
}

macro_rules! impl_sample_uniform_uint {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_inclusive(rng: &mut dyn RngCore, lo: Self, hi: Self) -> Self {
                debug_assert!(lo <= hi, "empty sample range");
                let span = (hi as u128).wrapping_sub(lo as u128).wrapping_add(1);
                if span == 0 {
                    // Full-width range: every value is fair.
                    return rng.next_u64() as $t;
                }
                // Rejection-free modulo is fine here: span is tiny relative
                // to 2^64 everywhere this shim is used, so bias is negligible
                // and determinism (the only hard requirement) is preserved.
                lo.wrapping_add((rng.next_u64() as u128 % span) as $t)
            }
            fn predecessor(self) -> Self {
                self - 1
            }
        }
    )*};
}
impl_sample_uniform_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_uniform_int {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_inclusive(rng: &mut dyn RngCore, lo: Self, hi: Self) -> Self {
                debug_assert!(lo <= hi, "empty sample range");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                (lo as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
            fn predecessor(self) -> Self {
                self - 1
            }
        }
    )*};
}
impl_sample_uniform_int!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

/// Ranges accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Sample a value from the range.
    fn sample_from(self, rng: &mut dyn RngCore) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_from(self, rng: &mut dyn RngCore) -> T {
        assert!(self.start < self.end, "gen_range called with an empty range");
        T::sample_inclusive(rng, self.start, self.end.predecessor())
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_from(self, rng: &mut dyn RngCore) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "gen_range called with an empty range");
        T::sample_inclusive(rng, lo, hi)
    }
}

/// Values producible by [`Rng::gen`].
pub trait Standard: Sized {
    /// Draw one value uniformly.
    fn draw(rng: &mut dyn RngCore) -> Self;
}

impl Standard for bool {
    fn draw(rng: &mut dyn RngCore) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn draw(rng: &mut dyn RngCore) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for f64 {
    fn draw(rng: &mut dyn RngCore) -> Self {
        // 53 uniform bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The user-facing generator methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Uniform sample from `range` (half-open or inclusive).
    fn gen_range<T: SampleUniform, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Bernoulli draw with probability `p` of `true`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        f64::draw(self) < p
    }

    /// Draw a value of `T` uniformly over its whole domain.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::draw(self)
    }
}

impl<R: RngCore> Rng for R {}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256** -- the "standard" deterministic generator of this shim.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, the canonical way to seed xoshiro.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            Self { s: [next(), next(), next(), next()] }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0..1_000_000u64), b.gen_range(0..1_000_000u64));
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = rng.gen_range(10..20u8);
            assert!((10..20).contains(&v));
            let v = rng.gen_range(1..=5usize);
            assert!((1..=5).contains(&v));
            let v = rng.gen_range(-100..100i64);
            assert!((-100..100).contains(&v));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn distribution_is_not_degenerate() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(rng.gen_range(0..1000u32));
        }
        assert!(seen.len() > 50, "values should spread out: {}", seen.len());
    }
}
