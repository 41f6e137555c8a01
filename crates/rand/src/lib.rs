//! Offline stand-in for the [`rand`](https://crates.io/crates/rand) crate.
//!
//! The build environment has no network access and no vendored registry, so
//! this workspace ships a small, self-contained implementation of exactly
//! the `rand 0.9` API surface the CrowdRL crates use: [`Rng`], [`RngCore`],
//! [`SeedableRng`], and [`rngs::StdRng`]. The generator behind `StdRng` is
//! xoshiro256++ seeded through SplitMix64 — not bit-compatible with the
//! upstream crate (which uses ChaCha12), but every workspace component only
//! relies on *self-consistent* determinism: the same seed must reproduce
//! the same run, which this guarantees.

#![forbid(unsafe_code)]

/// The core of a random number generator: raw word output.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// Types that can be sampled uniformly from their "standard" domain:
/// the full integer range, `[0, 1)` for floats, fair coin for `bool`.
pub trait StandardSample {
    /// Draw one value from `rng`.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for u32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl StandardSample for u64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for usize {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl StandardSample for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl StandardSample for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 high bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 24 high bits -> uniform in [0, 1).
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges a value can be drawn from uniformly.
pub trait SampleRange<T> {
    /// Draw one value from `rng`. Panics on an empty range, matching the
    /// upstream crate.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform integer in `[0, bound)` by 128-bit widening multiply (unbiased
/// enough for simulation purposes; bounds here are far below 2^64).
#[inline]
fn uniform_u64<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    ((rng.next_u64() as u128 * bound as u128) >> 64) as u64
}

macro_rules! int_range_impls {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + uniform_u64(rng, span) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample from empty range");
                let span = (end as u64).wrapping_sub(start as u64);
                if span == u64::MAX {
                    return start + rng.next_u64() as $t;
                }
                start + uniform_u64(rng, span + 1) as $t
            }
        }
    )*};
}

int_range_impls!(usize, u64, u32);

macro_rules! float_range_impls {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let u = <$t as StandardSample>::sample_standard(rng);
                self.start + u * (self.end - self.start)
            }
        }
    )*};
}

float_range_impls!(f64, f32);

/// User-facing sampling methods, available on every [`RngCore`].
pub trait Rng: RngCore {
    /// A value sampled from `T`'s standard domain (see [`StandardSample`]).
    fn random<T: StandardSample>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// A value uniform in `range`.
    fn random_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_from(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    fn random_bool(&mut self, p: f64) -> bool {
        self.random::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Generators constructible from a fixed-size seed.
pub trait SeedableRng: Sized {
    /// The seed array type.
    type Seed: AsMut<[u8]> + Default;

    /// Build from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Build from a 64-bit seed, expanded with SplitMix64.
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let bytes = z.to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&bytes[..n]);
        }
        Self::from_seed(seed)
    }
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
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
    }

    impl StdRng {
        /// The raw xoshiro256++ state, for checkpointing. Restoring via
        /// [`StdRng::from_state`] resumes the exact output stream.
        pub fn state(&self) -> [u64; 4] {
            self.s
        }

        /// Rebuild a generator from a state captured by [`StdRng::state`].
        /// An all-zero state (a xoshiro fixed point, never produced by a
        /// seeded generator) is nudged exactly as [`SeedableRng::from_seed`]
        /// does.
        pub fn from_state(s: [u64; 4]) -> Self {
            if s == [0; 4] {
                return Self {
                    s: [0x9E37_79B9_7F4A_7C15, 1, 2, 3],
                };
            }
            Self { s }
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, chunk) in seed.chunks_exact(8).enumerate() {
                s[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            }
            // An all-zero state is a fixed point of xoshiro; nudge it.
            if s == [0; 4] {
                s = [0x9E37_79B9_7F4A_7C15, 1, 2, 3];
            }
            Self { s }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn seeding_is_deterministic() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn floats_live_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
            let y: f32 = rng.random();
            assert!((0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let i = rng.random_range(3usize..17);
            assert!((3..17).contains(&i));
            let j = rng.random_range(0usize..=4);
            assert!(j <= 4);
            let f = rng.random_range(-2.0f64..3.0);
            assert!((-2.0..3.0).contains(&f));
        }
    }

    #[test]
    fn uniform_usize_covers_all_values() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[rng.random_range(0usize..5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn random_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(4);
        let hits = (0..20_000).filter(|_| rng.random_bool(0.25)).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn state_round_trip_resumes_stream() {
        let mut a = StdRng::seed_from_u64(9);
        for _ in 0..17 {
            a.next_u64();
        }
        let mut b = StdRng::from_state(a.state());
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // The all-zero fixed point is nudged, matching from_seed.
        let mut z = StdRng::from_state([0; 4]);
        assert_ne!(z.next_u64(), 0);
    }

    #[test]
    fn fill_bytes_fills_odd_lengths() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
