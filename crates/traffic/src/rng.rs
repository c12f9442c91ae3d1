//! The generator's random stream: xoshiro256++, seeded through SplitMix64.
//!
//! Every synthetic trace — and through it every golden output, pin and
//! benchmark trace — is a function of this exact stream, so the crate
//! owns it instead of borrowing a general-purpose RNG whose stream could
//! change under it. [`Rng`] offers only the draws the generator makes.

use std::ops::{Range, RangeInclusive};

/// SplitMix64's increment: 2⁶⁴/φ, odd.
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output finalizer, a bijection on `u64`.
fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds `b` into `a` as one seed: the finalizer on `a ^ b·φ`.
pub(crate) fn mix(a: u64, b: u64) -> u64 {
    finalize(a ^ b.wrapping_mul(PHI))
}

/// A seeded xoshiro256++ generator.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// The generator whose state is SplitMix64's first four outputs from
    /// `seed`. They are distinct (the finalizer is a bijection and φ is
    /// odd), so the state is never all zero.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        Rng {
            s: std::array::from_fn(|k| finalize(seed.wrapping_add(PHI.wrapping_mul(k as u64 + 1)))),
        }
    }

    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// 32 uniform bits: the low half of one output.
    pub fn u32(&mut self) -> u32 {
        self.next_u64() as u32
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `start + (end − start)·u` for a unit draw `u`.
    pub fn f64_range(&mut self, range: RangeInclusive<f64>) -> f64 {
        let (start, end) = range.into_inner();
        assert!(start <= end, "cannot sample empty range");
        start + (end - start) * self.f64()
    }

    /// Uniform in `range`, which must not be empty.
    pub fn range<T: Unsigned>(&mut self, range: Range<T>) -> T {
        let (start, end) = (range.start.widen(), range.end.widen());
        assert!(start < end, "cannot sample empty range");
        T::narrow(start + self.below(end - start))
    }

    /// Uniform in `range`, which must not be empty.
    pub fn range_inclusive<T: Unsigned>(&mut self, range: RangeInclusive<T>) -> T {
        let (start, end) = (range.start().widen(), range.end().widen());
        assert!(start <= end, "cannot sample empty range");
        match end - start {
            // The whole 64-bit domain: the span + 1 below would overflow.
            u64::MAX => T::narrow(self.next_u64()),
            span => T::narrow(start + self.below(span + 1)),
        }
    }

    /// Uniform below `span > 0` by multiply-shift, without rejection: the
    /// bias, at most span/2⁶⁴, is far below what any workload can see.
    fn below(&mut self, span: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64
    }
}

/// The integer types [`Rng::range`] draws, widened to `u64` for the
/// arithmetic and truncated back.
pub trait Unsigned: Copy {
    /// `self` as a `u64`.
    fn widen(self) -> u64;
    /// The low bits of `v`.
    fn narrow(v: u64) -> Self;
}

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl Unsigned for $t {
            fn widen(self) -> u64 {
                self as u64
            }
            fn narrow(v: u64) -> Self {
                v as $t
            }
        }
    )*};
}

unsigned!(u16, u32, u64, usize);

#[cfg(test)]
mod tests {
    use super::*;

    /// The first draws of seeds 0, 1, 42 and `u64::MAX` (one column
    /// each), one call shape per row, recorded from the generic
    /// generator this type replaced. Every trace the crate writes is
    /// this stream.
    #[test]
    fn stream_pins() {
        let mut rngs = [0, 1, 42, u64::MAX].map(Rng::seed_from_u64);
        let mut draw = |f: fn(&mut Rng) -> u64| rngs.each_mut().map(f);
        assert_eq!(
            draw(|r| r.u32().into()),
            [1225466847, 1862517403, 1148610719, 2492344242]
        );
        assert_eq!(
            draw(|r| r.f64().to_bits()),
            [
                0.38223929651167343,
                0.7471047161582187,
                0.3188210400616611,
                0.9004750408188128
            ]
            .map(f64::to_bits)
        );
        assert_eq!(
            draw(|r| r.range(0..900_000u64)),
            [323655, 90135, 885504, 801256]
        );
        assert_eq!(
            draw(|r| r.range_inclusive(1024..=u16::MAX).into()),
            [1763, 49163, 46255, 18678]
        );
        assert_eq!(draw(|r| r.range(0..4usize) as u64), [1, 0, 3, 2]);
        assert_eq!(
            draw(|r| r.range_inclusive(0..=u64::MAX)),
            [
                379361710973160858,
                10892412867582108485,
                10848501901068131965,
                7417986222439541780
            ]
        );
        assert_eq!(
            draw(|r| r.f64_range(0.35..=1.0).to_bits()),
            [
                0.9072108093603306,
                0.9914681511169143,
                0.43147908734078233,
                0.9244996380621383
            ]
            .map(f64::to_bits)
        );
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = Rng::seed_from_u64(7);
        let mut seen_high_port = false;
        for _ in 0..10_000 {
            assert!((10..20).contains(&rng.range(10u32..20)));
            assert_eq!(rng.range_inclusive(5u64..=5), 5);
            assert!((0.25..=1.0).contains(&rng.f64_range(0.25..=1.0)));
            let port = rng.range_inclusive(1024..=u16::MAX);
            assert!(port >= 1024);
            seen_high_port |= port > 65_000;
        }
        assert!(seen_high_port);
    }

    #[test]
    fn unit_floats_are_in_unit_interval() {
        let mut rng = Rng::seed_from_u64(9);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let f = rng.f64();
            assert!((0.0..1.0).contains(&f));
            sum += f;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }
}
