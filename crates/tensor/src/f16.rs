//! Software IEEE 754 binary16 (`half`).
//!
//! μLayer's GPU path computes in 16-bit half-precision floats (OpenCL
//! `half`, §4.1). The reproduction host has no native `f16`, so this module
//! implements binary16 in software:
//!
//! - `f32 → f16` conversion with round-to-nearest-even, including
//!   subnormals, overflow-to-infinity, and NaN canonicalization;
//! - exact `f16 → f32` widening;
//! - arithmetic by widening to `f32`, operating, and rounding the result
//!   back — which is precisely the per-operation rounding a hardware FP16
//!   ALU performs for individually-rounded operations;
//! - a fused multiply-add that rounds once, computed in `f64` and rounded
//!   straight to binary16 ([`F16::mul_add`]).
//!
//! The representation is the raw bit pattern, so tensors of [`F16`] occupy
//! 2 bytes per element and the memory-traffic accounting is exact.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// A 16-bit IEEE 754 binary16 floating-point number.
///
/// # Examples
///
/// ```
/// use utensor::F16;
///
/// let a = F16::from_f32(1.5);
/// let b = F16::from_f32(2.5);
/// assert_eq!((a + b).to_f32(), 4.0);
///
/// // Narrowing rounds to the nearest representable value.
/// let c = F16::from_f32(2048.0) + F16::from_f32(1.0);
/// assert_eq!(c.to_f32(), 2048.0); // spacing is 2.0 at this magnitude
/// ```
// `repr(transparent)` guarantees the layout *is* the bit pattern, so
// slices of `F16` may be reinterpreted as slices of `u16` (SIMD kernels
// rely on this for F16C loads/stores).
#[derive(Clone, Copy, Default)]
#[repr(transparent)]
pub struct F16(u16);

/// Shifts `v` right by `shift >= 1` bits with round-to-nearest-even.
fn round_shift_rne(v: u64, shift: u32) -> u64 {
    if shift >= 64 {
        return 0;
    }
    let kept = v >> shift;
    let rest = v & ((1u64 << shift) - 1);
    let half = 1u64 << (shift - 1);
    if rest > half || (rest == half && (kept & 1) == 1) {
        kept + 1
    } else {
        kept
    }
}

/// Converts an `f32` to binary16 bits with round-to-nearest-even. The
/// widening to `f64` is exact, so this is the one rounding of
/// `f64_to_f16_bits`.
pub fn f32_to_f16_bits(value: f32) -> u16 {
    f64_to_f16_bits(value as f64)
}

/// Converts an `f64` to binary16 bits with one round-to-nearest-even.
fn f64_to_f16_bits(value: f64) -> u16 {
    let x = value.to_bits();
    let sign = ((x >> 48) & 0x8000) as u16;
    let abs = x & 0x7FFF_FFFF_FFFF_FFFF;

    if abs >= 0x7FF0_0000_0000_0000 {
        // Inf or NaN; NaNs collapse to the canonical quiet NaN.
        return if abs > 0x7FF0_0000_0000_0000 {
            sign | 0x7E00
        } else {
            sign | 0x7C00
        };
    }

    let e = (abs >> 52) as i32; // biased f64 exponent, 0..=2046
    let man = abs & 0xF_FFFF_FFFF_FFFF;

    if e >= 1039 {
        // Half exponent would be >= 31: overflow to infinity.
        return sign | 0x7C00;
    }
    if e >= 1009 {
        // Normal half range; a rounding carry may propagate into the
        // exponent and even produce the exact infinity pattern (65520.0
        // upward), which is the correct IEEE behaviour.
        let h = (((e - 1008) as u64) << 10) + round_shift_rne(man, 42);
        return sign | (h as u16);
    }
    if e == 0 {
        // f64 subnormals are < 2^-1022, far below half's subnormal range.
        return sign;
    }
    // Subnormal half (or underflow to zero). value = (man|implicit) *
    // 2^(e-1075); the 10-bit subnormal significand is that value * 2^24.
    let s = round_shift_rne(man | (1 << 52), (1051 - e) as u32); // shift >= 43
    sign | (s as u16)
}

/// Converts binary16 bits to the exactly-representable `f32`.
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1F) as u32;
    let man = (h & 0x3FF) as u32;

    if exp == 0x1F {
        // Inf / NaN.
        return f32::from_bits(sign | 0x7F80_0000 | (man << 13));
    }
    if exp == 0 {
        if man == 0 {
            return f32::from_bits(sign); // ±0
        }
        // Subnormal: value = man * 2^-24; normalize into f32.
        let p = 31 - man.leading_zeros(); // msb index, 0..=9
        let exp32 = (p + 103) << 23;
        let man32 = (man << (23 - p)) & 0x7F_FFFF;
        return f32::from_bits(sign | exp32 | man32);
    }
    f32::from_bits(sign | ((exp + 112) << 23) | (man << 13))
}

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0x0000);
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// Negative one.
    pub const NEG_ONE: F16 = F16(0xBC00);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xFC00);
    /// Canonical quiet NaN.
    pub const NAN: F16 = F16(0x7E00);
    /// Largest finite value (65504).
    pub const MAX: F16 = F16(0x7BFF);
    /// Most negative finite value (-65504).
    pub const MIN: F16 = F16(0xFBFF);
    /// Smallest positive normal value (2^-14).
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Smallest positive subnormal value (2^-24).
    pub const MIN_POSITIVE_SUBNORMAL: F16 = F16(0x0001);
    /// The machine epsilon (2^-10).
    pub const EPSILON: F16 = F16(0x1400);

    /// Converts from `f32` with round-to-nearest-even.
    pub fn from_f32(value: f32) -> F16 {
        F16(f32_to_f16_bits(value))
    }

    /// Widens to `f32` exactly.
    pub fn to_f32(self) -> f32 {
        f16_bits_to_f32(self.0)
    }

    /// Constructs from raw binary16 bits.
    pub const fn from_bits(bits: u16) -> F16 {
        F16(bits)
    }

    /// The raw binary16 bits.
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// True if the value is NaN.
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }

    /// True if the value is +∞ or -∞.
    #[cfg(test)]
    pub(crate) fn is_infinite(self) -> bool {
        (self.0 & 0x7FFF) == 0x7C00
    }

    /// True if the value is neither NaN nor infinite.
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7C00) != 0x7C00
    }

    /// True for subnormal values (nonzero with a zero exponent field).
    pub fn is_subnormal(self) -> bool {
        (self.0 & 0x7C00) == 0 && (self.0 & 0x03FF) != 0
    }

    /// Absolute value.
    pub fn abs(self) -> F16 {
        F16(self.0 & 0x7FFF)
    }

    /// Fused multiply-add: `self * a + b` with a single rounding at the
    /// end, as IEEE 754 `fusedMultiplyAdd`, OpenCL `fma` on `half` and
    /// the x86 `vfmadd231ph` instruction compute it.
    ///
    /// Computed in `f64` and rounded once, straight to binary16. The
    /// product is exact there: it has at most 22 significant bits. The
    /// `f64` add cannot make a spurious binary16 tie either. Every
    /// binary16 value and every midpoint between two of them is an `f64`,
    /// and both roundings are monotone, so rounding the `f64` sum gives
    /// the binary16 rounding of the exact sum unless the `f64` add is
    /// inexact *and* lands on a midpoint. The add is inexact only when
    /// the sum spans more than 53 bits. The product's lowest bit is at
    /// least 2⁻⁴⁸ and `b`'s at least 2⁻²⁴, so that takes one of:
    ///
    /// - `|self · a| ≥ 2²⁸`: the sum is then beyond 65 520, and it and its
    ///   `f64` rounding both overflow to ±∞;
    /// - `|b| ≥ 2⁵` and `|self · a| < 2^(e−30)`, `e` the exponent of `b`:
    ///   the exact sum and its `f64` rounding then both lie within
    ///   2^(e−30) of `b`, while the nearest binary16 midpoints lie at
    ///   least 2^(e−12) from `b`, so both round to `b`.
    ///
    /// Signed zeros follow the `f64` add (`+0 + −0 = +0`), and a result
    /// that underflows keeps the sign of the exact sum.
    pub fn mul_add(self, a: F16, b: F16) -> F16 {
        let wide = |h: F16| h.to_f32() as f64;
        F16(f64_to_f16_bits(wide(self) * wide(a) + wide(b)))
    }

    /// The larger of two values; NaN loses against any number.
    pub fn max(self, other: F16) -> F16 {
        F16::from_f32(self.to_f32().max(other.to_f32()))
    }

    /// The smaller of two values; NaN loses against any number.
    pub fn min(self, other: F16) -> F16 {
        F16::from_f32(self.to_f32().min(other.to_f32()))
    }
}

impl From<f32> for F16 {
    fn from(v: f32) -> Self {
        F16::from_f32(v)
    }
}

impl From<F16> for f32 {
    fn from(v: F16) -> Self {
        v.to_f32()
    }
}

impl PartialEq for F16 {
    fn eq(&self, other: &Self) -> bool {
        self.to_f32() == other.to_f32()
    }
}

impl PartialOrd for F16 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl Add for F16 {
    type Output = F16;
    fn add(self, rhs: F16) -> F16 {
        F16::from_f32(self.to_f32() + rhs.to_f32())
    }
}

impl AddAssign for F16 {
    fn add_assign(&mut self, rhs: F16) {
        *self = *self + rhs;
    }
}

impl Sub for F16 {
    type Output = F16;
    fn sub(self, rhs: F16) -> F16 {
        F16::from_f32(self.to_f32() - rhs.to_f32())
    }
}

impl Mul for F16 {
    type Output = F16;
    fn mul(self, rhs: F16) -> F16 {
        F16::from_f32(self.to_f32() * rhs.to_f32())
    }
}

impl Div for F16 {
    type Output = F16;
    fn div(self, rhs: F16) -> F16 {
        F16::from_f32(self.to_f32() / rhs.to_f32())
    }
}

impl Neg for F16 {
    type Output = F16;
    fn neg(self) -> F16 {
        F16(self.0 ^ 0x8000)
    }
}

impl Sum for F16 {
    fn sum<I: Iterator<Item = F16>>(iter: I) -> F16 {
        iter.fold(F16::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F16({}={:#06x})", self.to_f32(), self.0)
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_small_integers_round_trip() {
        for i in -2048..=2048 {
            let f = i as f32;
            assert_eq!(F16::from_f32(f).to_f32(), f, "i = {i}");
        }
    }

    #[test]
    fn known_bit_patterns() {
        assert_eq!(F16::from_f32(0.0).to_bits(), 0x0000);
        assert_eq!(F16::from_f32(-0.0).to_bits(), 0x8000);
        assert_eq!(F16::from_f32(1.0).to_bits(), 0x3C00);
        assert_eq!(F16::from_f32(-1.0).to_bits(), 0xBC00);
        assert_eq!(F16::from_f32(2.0).to_bits(), 0x4000);
        assert_eq!(F16::from_f32(0.5).to_bits(), 0x3800);
        assert_eq!(F16::from_f32(65504.0).to_bits(), 0x7BFF);
        assert_eq!(F16::from_f32(f32::INFINITY).to_bits(), 0x7C00);
        assert_eq!(F16::from_f32(f32::NEG_INFINITY).to_bits(), 0xFC00);
    }

    #[test]
    fn overflow_rounds_to_infinity() {
        // 65504 is the max finite; anything >= 65520 rounds to +inf.
        assert_eq!(F16::from_f32(65519.0).to_bits(), 0x7BFF);
        assert_eq!(F16::from_f32(65520.0).to_bits(), 0x7C00);
        assert_eq!(F16::from_f32(1e9).to_bits(), 0x7C00);
        assert_eq!(F16::from_f32(-1e9).to_bits(), 0xFC00);
    }

    #[test]
    fn nan_propagates() {
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!(F16::NAN.to_f32().is_nan());
        assert!((F16::NAN + F16::ONE).is_nan());
    }

    #[test]
    fn subnormals() {
        // Smallest positive subnormal: 2^-24.
        let tiny = 2.0f32.powi(-24);
        assert_eq!(F16::from_f32(tiny).to_bits(), 0x0001);
        assert_eq!(F16::from_bits(0x0001).to_f32(), tiny);
        // Largest subnormal: (1023/1024) * 2^-14.
        let largest_sub = 1023.0 * 2.0f32.powi(-24);
        assert_eq!(F16::from_f32(largest_sub).to_bits(), 0x03FF);
        assert_eq!(F16::from_bits(0x03FF).to_f32(), largest_sub);
        assert!(F16::from_bits(0x03FF).is_subnormal());
        // Smallest normal: 2^-14.
        let min_norm = 2.0f32.powi(-14);
        assert_eq!(F16::from_f32(min_norm).to_bits(), 0x0400);
        assert!(!F16::from_bits(0x0400).is_subnormal());
    }

    #[test]
    fn underflow_to_zero_and_ties() {
        // Exactly 2^-25 ties between 0 and the smallest subnormal; RNE
        // picks the even one (zero).
        assert_eq!(F16::from_f32(2.0f32.powi(-25)).to_bits(), 0x0000);
        // Just above the tie rounds up.
        assert_eq!(F16::from_f32(2.0f32.powi(-25) * 1.0001).to_bits(), 0x0001);
        // Far below underflows.
        assert_eq!(F16::from_f32(1e-20).to_bits(), 0x0000);
        assert_eq!(F16::from_f32(-1e-20).to_bits(), 0x8000);
        // f32 subnormals underflow too.
        assert_eq!(F16::from_f32(f32::MIN_POSITIVE / 2.0).to_bits(), 0x0000);
    }

    #[test]
    fn round_to_nearest_even_at_mantissa_boundary() {
        // 1 + 2^-11 is exactly between 1.0 and 1 + 2^-10: ties to even (1.0).
        let tie = 1.0 + 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(tie).to_bits(), 0x3C00);
        // 1 + 3*2^-11 ties between odd and even mantissa: goes to even (2 ulp).
        let tie2 = 1.0 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(tie2).to_bits(), 0x3C02);
        // Just above a tie rounds up.
        let above = 1.0 + 2.0f32.powi(-11) + 2.0f32.powi(-20);
        assert_eq!(F16::from_f32(above).to_bits(), 0x3C01);
    }

    #[test]
    fn rounding_carry_into_exponent() {
        // 2047.5 -> rounds to 2048 (carry from mantissa into exponent).
        assert_eq!(F16::from_f32(2047.9).to_f32(), 2048.0);
    }

    #[test]
    fn every_f16_bit_pattern_round_trips_through_f32() {
        for bits in 0..=u16::MAX {
            let h = F16::from_bits(bits);
            let f = h.to_f32();
            let back = F16::from_f32(f);
            if h.is_nan() {
                assert!(back.is_nan(), "bits {bits:#06x}");
            } else {
                assert_eq!(back.to_bits(), bits, "bits {bits:#06x} (f = {f})");
            }
        }
    }

    #[test]
    fn arithmetic_rounds_per_operation() {
        // 1024 + 1 is not representable (spacing is 1 at 1024? no: spacing
        // at [1024, 2048) is 1.0, so it is representable); use 2048 + 1,
        // where spacing is 2: result rounds to even -> 2048.
        let a = F16::from_f32(2048.0);
        let b = F16::from_f32(1.0);
        assert_eq!((a + b).to_f32(), 2048.0);
        // 2048 + 3 = 2051 ties between 2050 and 2052; even mantissa wins.
        let c = F16::from_f32(3.0);
        assert_eq!((a + c).to_f32(), 2052.0);
        // 2048 + 5 = 2053 is nearest to 2052.
        let d = F16::from_f32(5.0);
        assert_eq!((a + d).to_f32(), 2052.0);
    }

    #[test]
    fn basic_ops() {
        let a = F16::from_f32(1.5);
        let b = F16::from_f32(2.5);
        assert_eq!((a + b).to_f32(), 4.0);
        assert_eq!((b - a).to_f32(), 1.0);
        assert_eq!((a * b).to_f32(), 3.75);
        // 2.5/1.5 is not representable; the division rounds once.
        assert_eq!((b / a).to_f32(), F16::from_f32(2.5 / 1.5).to_f32());
        assert_eq!((-a).to_f32(), -1.5);
        assert_eq!(a.abs(), a);
        assert_eq!((-a).abs(), a);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    /// `a.mul_add(b, c)` on raw binary16 bits.
    fn fma_bits(a: u16, b: u16, c: u16) -> u16 {
        F16(a).mul_add(F16(b), F16(c)).to_bits()
    }

    #[test]
    fn mul_add_single_rounding() {
        // 1.00390625 · 1.875 = 1.88232421875 lies exactly on the tie
        // between 0x3f87 and 0x3f88; −2⁻²⁴ puts the exact sum just below
        // it. Rounding to f32 first loses the 2⁻²⁴ (half an f32 ulp, tie
        // to even) and then ties to 0x3f88 = 1.8828125.
        assert_eq!(fma_bits(0x3c04, 0x3f80, 0x8001), 0x3f87);
        assert_eq!(F16(0x3f87).to_f32(), 1.881_835_9);
        // Tie-adjacent triples on both sides, at several binades: the
        // product is a tie, `c` a subnormal that decides it.
        for (a, b, c, want) in [
            (0x3c04u16, 0x3c80u16, 0x0001u16, 0x3c85u16),
            (0x3c04, 0x3d80, 0x8001, 0x3d85),
            (0x3c04, 0x4580, 0x8003, 0x4585),
            (0x3c04, 0x4a80, 0x0003, 0x4a87),
            // No `c`: the tie itself rounds to even, both ways.
            (0x3c04, 0x3f80, 0x0000, 0x3f88),
            (0x3c04, 0x3c80, 0x0000, 0x3c84),
        ] {
            assert_eq!(fma_bits(a, b, c), want, "{a:#06x} * {b:#06x} + {c:#06x}");
        }
        // And the single rounding keeps what a separate multiply drops:
        // a² = 1 + 3·2⁻⁹ + 9·2⁻²⁰.
        let a = F16::from_f32(1.0 + 3.0 * 2.0f32.powi(-10));
        assert!(a.mul_add(a, F16::NEG_ONE).to_f32() > (a * a - F16::ONE).to_f32());
    }

    #[test]
    fn sum_iterator() {
        let total: F16 = (1..=10).map(|i| F16::from_f32(i as f32)).sum();
        assert_eq!(total.to_f32(), 55.0);
    }

    #[test]
    fn comparisons() {
        assert!(F16::from_f32(1.0) < F16::from_f32(2.0));
        assert!(F16::from_f32(-0.0) == F16::from_f32(0.0));
        assert!(F16::NAN.partial_cmp(&F16::ONE).is_none());
    }

    #[test]
    fn constants_are_consistent() {
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::MIN.to_f32(), -65504.0);
        assert_eq!(F16::MIN_POSITIVE.to_f32(), 2.0f32.powi(-14));
        assert_eq!(F16::MIN_POSITIVE_SUBNORMAL.to_f32(), 2.0f32.powi(-24));
        assert_eq!(F16::EPSILON.to_f32(), 2.0f32.powi(-10));
        assert!(F16::INFINITY.is_infinite());
        assert!(F16::NEG_INFINITY.is_infinite());
    }
}
