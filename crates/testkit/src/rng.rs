//! Seedable, platform-stable pseudo-random number generation.
//!
//! Two documented generators replace `rand`:
//!
//! - [`SplitMix64`] (Steele, Lea & Flood, OOPSLA '14) — a 64-bit
//!   mixer used for seed expansion and cheap independent streams.
//! - [`Xoshiro256StarStar`] (Blackman & Vigna, 2018) — the workhorse
//!   generator behind [`Rng`], with 256 bits of state and excellent
//!   statistical quality for non-cryptographic use.
//!
//! Unlike `rand::rngs::StdRng` — whose algorithm is documented as
//! unstable across releases — these sequences are frozen: a seed
//! committed in a test or a golden vector reproduces the same stream
//! forever.

/// SplitMix64: a tiny, high-quality 64-bit mixer.
///
/// Primarily used to expand a 64-bit seed into [`Xoshiro256StarStar`]
/// state, mix test-name hashes into base seeds, and fork independent
/// streams.
#[derive(Clone, Debug)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator starting from `seed`.
    pub(crate) fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit output.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Xoshiro256**: the general-purpose generator.
///
/// 256 bits of state, period `2^256 - 1`. Seeded from a single `u64`
/// through [`SplitMix64`], per the authors' recommendation.
#[derive(Clone, Debug)]
pub(crate) struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Expands `seed` into a full 256-bit state.
    pub(crate) fn seed_from_u64(seed: u64) -> Xoshiro256StarStar {
        let mut mix = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for v in &mut s {
            *v = mix.next_u64();
        }
        // The all-zero state is the one fixed point of the transition
        // function; SplitMix64 cannot produce four zero outputs in a
        // row, but guard anyway so `from_state` misuse can't wedge.
        if s == [0; 4] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256StarStar { s }
    }

    /// The next 64-bit output.
    pub(crate) fn next_u64(&mut self) -> u64 {
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

/// The toolkit's standard RNG: `Xoshiro256StarStar` plus the sampling
/// surface the workspace needs (`gen_range`, fills, shuffling, forks).
///
/// ```
/// use testkit::Rng;
/// let mut rng = Rng::seed_from_u64(42);
/// let x: f32 = rng.gen_range(-1.0f32..=1.0);
/// assert!((-1.0..=1.0).contains(&x));
/// let i = rng.gen_range(0usize..10);
/// assert!(i < 10);
/// ```
#[derive(Clone, Debug)]
pub struct Rng {
    inner: Xoshiro256StarStar,
}

impl Rng {
    /// Deterministic generator for `seed`.
    pub fn seed_from_u64(seed: u64) -> Rng {
        Rng {
            inner: Xoshiro256StarStar::seed_from_u64(seed),
        }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, 1]` (both endpoints reachable).
    pub(crate) fn unit_f64_inclusive(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / ((1u64 << 53) - 1) as f64
    }

    /// Uniform in `[0, span)` without modulo bias (Lemire's method,
    /// truncated: a single widening multiply).
    fn bounded_u64(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }

    /// Uniform sample from `range` (half-open `a..b` or inclusive
    /// `a..=b`, any primitive integer or float type).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// `true` with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// Fills `out` with uniform samples from `[lo, hi]`.
    pub fn fill_f32(&mut self, out: &mut [f32], lo: f32, hi: f32) {
        for v in out {
            *v = self.gen_range(lo..=hi);
        }
    }

    /// Uniform random permutation of `xs` (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.bounded_u64(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// An independent generator split off from this one.
    pub fn fork(&mut self) -> Rng {
        Rng::seed_from_u64(self.next_u64())
    }
}

/// A range that [`Rng::gen_range`] can sample uniformly.
pub trait SampleRange {
    /// The element type produced.
    type Output;
    /// Draws one uniform sample.
    fn sample(self, rng: &mut Rng) -> Self::Output;
}

macro_rules! impl_sample_unsigned {
    ($($t:ty),+) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end - self.start) as u64;
                self.start + rng.bounded_u64(span) as $t
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in gen_range");
                match ((hi - lo) as u64).checked_add(1) {
                    Some(span) => lo + rng.bounded_u64(span) as $t,
                    // Full u64-sized domain: every output is valid.
                    None => rng.next_u64() as $t,
                }
            }
        }
    )+};
}

macro_rules! impl_sample_signed {
    ($($t:ty),+) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.bounded_u64(span) as i128) as $t
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in gen_range");
                match ((hi as i128 - lo as i128) as u64).checked_add(1) {
                    Some(span) => (lo as i128 + rng.bounded_u64(span) as i128) as $t,
                    None => rng.next_u64() as $t,
                }
            }
        }
    )+};
}

macro_rules! impl_sample_float {
    ($($t:ty),+) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let u = rng.unit_f64() as $t;
                let v = self.start + (self.end - self.start) * u;
                // Floating-point rounding can land exactly on `end`;
                // fold that measure-zero case back onto the start.
                if v >= self.end { self.start } else { v }
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in gen_range");
                let u = rng.unit_f64_inclusive() as $t;
                (lo + (hi - lo) * u).clamp(lo, hi)
            }
        }
    )+};
}

impl_sample_unsigned!(u8, u16, u32, u64, usize);
impl_sample_signed!(i8, i16, i32, i64, isize);
impl_sample_float!(f32, f64);

/// FNV-1a hash of a byte string; used to derive per-test seeds from
/// test names so every property gets its own stream.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_known_vector() {
        // Reference sequence for seed 0 from the SplitMix64 paper's
        // public-domain C implementation.
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(g.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(g.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn deterministic_in_seed() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        let mut c = Rng::seed_from_u64(8);
        let av: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let bv: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let cv: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(av, bv);
        assert_ne!(av, cv);
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..2000 {
            let a = rng.gen_range(3usize..17);
            assert!((3..17).contains(&a));
            let b = rng.gen_range(-5i32..=5);
            assert!((-5..=5).contains(&b));
            let c = rng.gen_range(-0.25f32..=0.25);
            assert!((-0.25..=0.25).contains(&c));
            let d = rng.gen_range(0.0f64..1.0);
            assert!((0.0..1.0).contains(&d));
        }
    }

    #[test]
    fn inclusive_integer_endpoints_reachable() {
        let mut rng = Rng::seed_from_u64(2);
        let mut saw = [false; 3];
        for _ in 0..500 {
            saw[rng.gen_range(0usize..=2)] = true;
        }
        assert_eq!(saw, [true; 3]);
    }

    #[test]
    fn unit_floats_well_distributed() {
        let mut rng = Rng::seed_from_u64(3);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| rng.unit_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean = {mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(4);
        let mut xs: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn forks_are_independent() {
        let mut rng = Rng::seed_from_u64(5);
        let mut f1 = rng.fork();
        let mut f2 = rng.fork();
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn fnv1a_distinct_names() {
        assert_ne!(fnv1a(b"conv_split"), fnv1a(b"pool_split"));
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
    }

    #[test]
    fn full_u16_inclusive_range_works() {
        let mut rng = Rng::seed_from_u64(6);
        for _ in 0..100 {
            let _ = rng.gen_range(0u16..=u16::MAX);
        }
    }
}
