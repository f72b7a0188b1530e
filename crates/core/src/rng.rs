//! The workspace's one random-number generator.
//!
//! Every seeded draw — generated flows, fault timelines, retry jitter,
//! verification sampling, the case studies' synthetic data and the test
//! harness — comes from [`Rng`]: xoshiro256** whose state is expanded from
//! a `u64` seed with SplitMix64. The stream decides every faulted golden
//! and replica chaos pin, so this crate's `tests/rng_stream.rs` pins it
//! word for word: a change to any draw below is a change to those bytes.

use std::ops::{Bound, RangeBounds};

use crate::frame::{put_u64, Damage, Reader, Wire};

/// A deterministic xoshiro256** generator. Same seed, same stream, on
/// every platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// The generator of `seed`: its four state words are the next four
    /// SplitMix64 outputs from `seed`.
    #[inline]
    pub fn seed_from_u64(mut seed: u64) -> Rng {
        Rng { s: [(); 4].map(|()| splitmix64(&mut seed)) }
    }

    /// The raw state, for exact checkpoint/restore of a stream. A running
    /// generator is never in the all-zero state, so [`Rng::from_state`]
    /// round-trips every value this returns.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuild a generator from a state captured by [`Rng::state`]. The
    /// next draw continues the original stream exactly. An all-zero state
    /// (which no live generator can produce) is re-expanded as seed 0
    /// rather than freezing the generator.
    pub fn from_state(s: [u64; 4]) -> Rng {
        if s == [0; 4] {
            return Rng::seed_from_u64(0);
        }
        Rng { s }
    }

    /// The next 64 uniform bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
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

    /// A value over the type's whole range; `[0, 1)` for floats.
    #[inline]
    pub fn gen<T: Standard>(&mut self) -> T {
        T::standard(self)
    }

    /// A value uniform in `lo..hi` or `lo..=hi`. Panics on an empty range
    /// or any other kind of range.
    #[inline]
    pub fn gen_range<T: Uniform>(&mut self, range: impl RangeBounds<T>) -> T {
        match (range.start_bound(), range.end_bound()) {
            (Bound::Included(&lo), Bound::Excluded(&hi)) => T::uniform(self, lo, hi, false),
            (Bound::Included(&lo), Bound::Included(&hi)) => T::uniform(self, lo, hi, true),
            _ => panic!("gen_range takes a `lo..hi` or `lo..=hi` range"),
        }
    }

    /// `true` with probability `p`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.gen::<f64>() < p
    }

    /// A standard-normal deviate by the Box–Muller transform: an
    /// open-interval uniform, then a half-open one.
    pub fn gauss(&mut self) -> f32 {
        let u1: f64 = self.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.gen();
        ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
    }
}

/// A generator is its four state words, the stream position, each eight
/// bytes wide: they are uniformly random, so LEB128 would lengthen them.
impl Wire for Rng {
    fn put(&self, out: &mut Vec<u8>) {
        self.state().iter().for_each(|&w| put_u64(out, w));
    }
    fn get(r: &mut Reader) -> Result<Self, Damage> {
        let mut state = [0; 4];
        for w in &mut state {
            *w = r.u64()?;
        }
        Ok(Rng::from_state(state))
    }
}

/// The types [`Rng::gen`] draws: integers over their whole range, `bool`
/// from the top bit, floats in `[0, 1)`.
pub trait Standard {
    fn standard(rng: &mut Rng) -> Self;
}

/// The types [`Rng::gen_range`] draws. An integer is `lo` plus the next
/// word modulo the span; a float is `lo + u · (hi − lo)` for a standard
/// `u`.
pub trait Uniform: Copy {
    fn uniform(rng: &mut Rng, lo: Self, hi: Self, inclusive: bool) -> Self;
}

macro_rules! standard_integers {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            #[inline]
            fn standard(rng: &mut Rng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_integers!(u8, u16, u32, u64, i64);

macro_rules! uniform_integers {
    ($($t:ty),*) => {$(
        impl Uniform for $t {
            #[inline]
            fn uniform(rng: &mut Rng, lo: Self, hi: Self, inclusive: bool) -> Self {
                let span = hi as i128 - lo as i128 + inclusive as i128;
                assert!(span > 0, "cannot sample empty range");
                let r = rng.next_u64() as u128 % span as u128;
                (lo as i128 + r as i128) as $t
            }
        }
    )*};
}
uniform_integers!(u8, u16, u32, u64, usize, i32, i64);

impl Standard for bool {
    #[inline]
    fn standard(rng: &mut Rng) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl Standard for f64 {
    /// 53 uniform mantissa bits.
    #[inline]
    fn standard(rng: &mut Rng) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    /// 24 uniform mantissa bits from the word's high half.
    #[inline]
    fn standard(rng: &mut Rng) -> Self {
        ((rng.next_u64() >> 32) as u32 >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

macro_rules! floats {
    ($($t:ty),*) => {$(
        impl Uniform for $t {
            #[inline]
            fn uniform(rng: &mut Rng, lo: Self, hi: Self, inclusive: bool) -> Self {
                assert!(if inclusive { lo <= hi } else { lo < hi }, "cannot sample empty range");
                lo + rng.gen::<$t>() * (hi - lo)
            }
        }
    )*};
}
floats!(f32, f64);

#[cfg(test)]
mod tests {
    use super::Rng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn unit_interval_floats() {
        let mut rng = Rng::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = Rng::seed_from_u64(3);
        let mut seen_low = false;
        let mut seen_high = false;
        for _ in 0..1000 {
            let x = rng.gen_range(10..20);
            assert!((10..20).contains(&x));
            let y = rng.gen_range(0..=1u32);
            seen_low |= y == 0;
            seen_high |= y == 1;
            let f = rng.gen_range(-2.0f64..2.0);
            assert!((-2.0..2.0).contains(&f));
            let n = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&n));
        }
        assert!(seen_low && seen_high);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = Rng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.2)).count();
        assert!((1700..2300).contains(&hits), "hits {hits}");
    }

    #[test]
    fn state_roundtrip_continues_the_stream() {
        let mut a = Rng::seed_from_u64(99);
        for _ in 0..17 {
            a.gen::<u64>();
        }
        let mut b = Rng::from_state(a.state());
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }
}
