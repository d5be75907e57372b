//! 8-bit asymmetric affine quantization (QUInt8) and fixed-point
//! requantization.
//!
//! This implements the linear quantization scheme of Jacob et al. (CVPR'18)
//! as used by gemmlowp and TensorFlow Lite, which the paper adopts for the
//! CPU fast path (§4.1):
//!
//! ```text
//! real = scale * (q - zero_point),   q ∈ [0, 255]
//! ```
//!
//! Multiplying two quantized values produces (after subtracting zero
//! points) an `i32` accumulator; converting the accumulator back to an
//! 8-bit output — *requantization* — multiplies by
//! `M = (scale_lhs * scale_rhs) / scale_out`, which is implemented in pure
//! integer arithmetic as an `i32` fixed-point multiplier plus a rounding
//! right shift ([`FixedPointMultiplier`]), bit-for-bit matching gemmlowp's
//! `SaturatingRoundingDoublingHighMul` + `RoundingDivideByPOT` pipeline.

use crate::convert;
use crate::error::TensorError;

/// Affine quantization parameters: `real = scale * (q - zero_point)`.
///
/// # Examples
///
/// ```
/// use utensor::QuantParams;
///
/// let p = QuantParams::from_range(-1.0, 1.0).unwrap();
/// let q = p.quantize(0.5);
/// let back = p.dequantize(q);
/// assert!((back - 0.5).abs() <= p.scale / 2.0);
/// // Real zero is always exactly representable.
/// assert_eq!(p.dequantize(p.quantize(0.0)), 0.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuantParams {
    /// Positive, finite scale factor.
    pub scale: f32,
    /// The quantized value representing real zero.
    pub zero_point: u8,
}

impl Default for QuantParams {
    /// A generic unit-interval default covering `[-0.5, 0.5]`-ish data.
    fn default() -> Self {
        QuantParams {
            scale: 1.0 / 255.0,
            zero_point: 128,
        }
    }
}

impl QuantParams {
    /// Derives parameters covering the real interval `[min, max]`.
    ///
    /// The interval is first widened to include zero (so that zero is
    /// exactly representable, a requirement for zero-padding correctness in
    /// convolutions), then the zero point is nudged onto the integer grid,
    /// mirroring TensorFlow Lite's `ChooseQuantizationParams`.
    ///
    /// Degenerate inputs (`min == max == 0`) produce a scale of 1.
    pub fn from_range(min: f32, max: f32) -> Result<QuantParams, TensorError> {
        if !min.is_finite() || !max.is_finite() {
            return Err(TensorError::BadQuantParams(format!(
                "non-finite range [{min}, {max}]"
            )));
        }
        if min > max {
            return Err(TensorError::BadQuantParams(format!(
                "inverted range [{min}, {max}]"
            )));
        }
        let min = min.min(0.0);
        let max = max.max(0.0);
        if min == 0.0 && max == 0.0 {
            return Ok(QuantParams {
                scale: 1.0,
                zero_point: 0,
            });
        }
        let scale = (max - min) / 255.0;
        // The real value that q = 0 should map to is `min`; zero_point is
        // the quantized value of real 0.
        let zp_real = -min / scale;
        let zero_point = zp_real.round().clamp(0.0, 255.0) as u8;
        Ok(QuantParams { scale, zero_point })
    }

    /// Derives parameters from a data slice (its observed min/max).
    ///
    /// An empty slice yields the degenerate all-zero parameters.
    pub fn from_data(data: &[f32]) -> Result<QuantParams, TensorError> {
        let mut min = 0.0f32;
        let mut max = 0.0f32;
        for &v in data {
            if v.is_finite() {
                min = min.min(v);
                max = max.max(v);
            }
        }
        QuantParams::from_range(min, max)
    }

    /// Quantizes one real value with round-to-nearest and saturation.
    ///
    /// Non-finite inputs saturate deterministically instead of relying
    /// on float→int cast edge semantics: `+∞` → 255, `-∞` → 0, and
    /// `NaN` → `zero_point` (NaN carries no usable magnitude, so it
    /// maps to real zero rather than either rail). The same rails apply
    /// if a hand-constructed `scale` of 0 or NaN makes the intermediate
    /// division non-finite.
    pub fn quantize(&self, real: f32) -> u8 {
        let q = (real / self.scale).round() + self.zero_point as f32;
        if q.is_nan() {
            self.zero_point
        } else if q >= 255.0 {
            255
        } else if q <= 0.0 {
            0
        } else {
            q as u8
        }
    }

    /// Dequantizes one 8-bit value.
    ///
    /// With the finite positive `scale` that [`QuantParams::from_range`]
    /// guarantees this is exact affine arithmetic. A hand-constructed
    /// non-finite scale saturates instead of propagating: `NaN` results
    /// become 0.0 and infinite results clamp to `±f32::MAX`.
    pub fn dequantize(&self, q: u8) -> f32 {
        let real = (q as i32 - self.zero_point as i32) as f32 * self.scale;
        if real.is_nan() {
            0.0
        } else {
            real.clamp(f32::MIN, f32::MAX)
        }
    }

    /// Quantizes a slice ([`convert::f32_to_quint8`]).
    pub fn quantize_slice(&self, real: &[f32]) -> Vec<u8> {
        convert::filled(real.len(), 0, |out| {
            convert::f32_to_quint8(out, real, *self)
        })
    }

    /// Dequantizes a slice ([`convert::quint8_to_f32`]).
    pub fn dequantize_slice(&self, q: &[u8]) -> Vec<f32> {
        convert::filled(q.len(), 0.0, |out| convert::quint8_to_f32(out, q, *self))
    }

    /// The largest representable real value.
    pub fn real_max(&self) -> f32 {
        self.dequantize(255)
    }

    /// The smallest representable real value.
    pub fn real_min(&self) -> f32 {
        self.dequantize(0)
    }
}

/// An `i32` fixed-point representation of a positive real multiplier, as
/// used by gemmlowp for requantization.
///
/// Represents `value ≈ multiplier * 2^(-right_shift - 31)`, with
/// `multiplier` in `[2^30, 2^31)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FixedPointMultiplier {
    /// The normalized `i32` mantissa.
    pub multiplier: i32,
    /// Rounding right-shift applied after the high multiply. May be
    /// negative for real multipliers ≥ 1 (becomes a left shift).
    pub right_shift: i32,
}

impl FixedPointMultiplier {
    /// Quantizes a positive real multiplier into fixed point.
    ///
    /// Zero maps to the exact zero multiplier. Negative or non-finite
    /// inputs are rejected.
    pub fn from_real(real: f64) -> Result<FixedPointMultiplier, TensorError> {
        if !real.is_finite() || real < 0.0 {
            return Err(TensorError::BadQuantParams(format!(
                "requantization multiplier must be finite and >= 0, got {real}"
            )));
        }
        if real == 0.0 {
            return Ok(FixedPointMultiplier {
                multiplier: 0,
                right_shift: 0,
            });
        }
        // Normalize real = q * 2^shift with q in [0.5, 1).
        let mut q = real;
        let mut shift = 0i32;
        while q >= 1.0 {
            q /= 2.0;
            shift += 1;
        }
        while q < 0.5 {
            q *= 2.0;
            shift -= 1;
        }
        let mut q_fixed = (q * (1i64 << 31) as f64).round() as i64;
        debug_assert!(q_fixed <= (1i64 << 31));
        if q_fixed == (1i64 << 31) {
            q_fixed /= 2;
            shift += 1;
        }
        Ok(FixedPointMultiplier {
            multiplier: q_fixed as i32,
            right_shift: -shift,
        })
    }

    /// Applies the multiplier to an `i32` accumulator:
    /// `round(value * real_multiplier)` in pure integer arithmetic.
    pub fn apply(&self, value: i32) -> i32 {
        if self.right_shift >= 0 {
            rounding_divide_by_pot(
                saturating_rounding_doubling_high_mul(value, self.multiplier),
                self.right_shift,
            )
        } else {
            // Left shift first (multiplier >= 1). Saturating to keep the
            // same overflow semantics as gemmlowp's MultiplyByQuantizedMultiplier.
            let shifted = (value as i64) << (-self.right_shift) as u32;
            let shifted = shifted.clamp(i32::MIN as i64, i32::MAX as i64) as i32;
            saturating_rounding_doubling_high_mul(shifted, self.multiplier)
        }
    }

    /// The real multiplier this fixed-point value approximates.
    pub fn to_real(&self) -> f64 {
        self.multiplier as f64 * 2f64.powi(-31 - self.right_shift)
    }
}

/// gemmlowp's `SaturatingRoundingDoublingHighMul`: `round(a * b / 2^31)`
/// with saturation on the single overflow case `a == b == i32::MIN`.
pub fn saturating_rounding_doubling_high_mul(a: i32, b: i32) -> i32 {
    if a == i32::MIN && b == i32::MIN {
        return i32::MAX;
    }
    let ab = a as i64 * b as i64;
    let nudge: i64 = if ab >= 0 { 1 << 30 } else { 1 - (1 << 30) };
    // gemmlowp divides (truncating toward zero); an arithmetic shift would
    // floor instead and be off by one for negative products.
    ((ab + nudge) / (1i64 << 31)) as i32
}

/// gemmlowp's `RoundingDivideByPOT`: `round(x / 2^exponent)` with
/// round-half-away-from-zero.
///
/// # Panics
///
/// Panics if `exponent` is outside `[0, 31]`.
pub fn rounding_divide_by_pot(x: i32, exponent: i32) -> i32 {
    assert!(
        (0..=31).contains(&exponent),
        "rounding_divide_by_pot exponent out of range: {exponent}"
    );
    if exponent == 0 {
        return x;
    }
    let mask: i32 = (1i64 << exponent).wrapping_sub(1) as i32;
    let remainder = x & mask;
    let threshold = (mask >> 1) + i32::from(x < 0);
    (x >> exponent) + i32::from(remainder > threshold)
}

/// Requantizes an `i32` accumulator to a `u8` output value:
/// `clamp(zero_point + round(multiplier * acc))`.
pub fn requantize(acc: i32, multiplier: &FixedPointMultiplier, output_zero_point: u8) -> u8 {
    let scaled = multiplier.apply(acc);
    // Saturating: a scaled value near `i32::MAX` plus the zero point
    // must clamp to 255, not wrap.
    scaled
        .saturating_add(output_zero_point as i32)
        .clamp(0, 255) as u8
}

/// Requantizes a slice of accumulators, the epilogue of the quantized
/// GEMM and depthwise kernels:
/// `out[i] = requantize(acc[i] + bias, multiplier, zero_point)`, floored
/// at the zero point (quantized ReLU) when `relu`. `acc[i] + bias` wraps
/// on `i32` overflow.
///
/// On x86_64 hosts with AVX2 the common case (`0 <= right_shift <= 31`)
/// runs eight lanes at a time; the vector body is **exact** — every
/// output equals the scalar [`requantize`], which stays the definition
/// and handles left-shift multipliers and other hosts.
///
/// # Panics
///
/// Panics if `out` and `acc` differ in length.
pub fn requantize_into(
    out: &mut [u8],
    acc: &[i32],
    bias: i32,
    multiplier: &FixedPointMultiplier,
    output_zero_point: u8,
    relu: bool,
) {
    assert_eq!(out.len(), acc.len(), "requantize_into: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if (0..=31).contains(&multiplier.right_shift)
        && multiplier.multiplier >= 0
        && requantize_simd_available()
    {
        // SAFETY: AVX2 was detected just above; the lengths are equal.
        unsafe { requantize_avx2(out, acc, bias, multiplier, output_zero_point, relu) };
        return;
    }
    let floor = if relu { output_zero_point } else { 0 };
    for (o, &a) in out.iter_mut().zip(acc) {
        *o = requantize(a.wrapping_add(bias), multiplier, output_zero_point).max(floor);
    }
}

/// Whether [`requantize_into`] has a vector body on this host.
pub fn requantize_simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// AVX2 body of [`requantize_into`] for `0 <= right_shift <= 31` and a
/// non-negative mantissa.
///
/// Exactness, step by step against the scalar pipeline:
///
/// - `SaturatingRoundingDoublingHighMul(a, b)` is
///   `trunc((ab + nudge) / 2^31)` with `nudge = 2^30` for `ab >= 0` and
///   `1 - 2^30` otherwise. For `ab >= 0` truncation is `floor`; for
///   `ab < 0` it is `ceil`, and `ceil(y / 2^31) = floor((y + 2^31 - 1) /
///   2^31)`, so both signs reduce to `floor((ab + 2^30) / 2^31)`. The
///   saturating case `a == b == i32::MIN` cannot occur with `b >= 0`,
///   and the result always fits `i32`, so the low 32 bits of a *logical*
///   64-bit shift equal the arithmetic one.
/// - `RoundingDivideByPOT` is transcribed operation for operation in
///   32-bit lanes (mask, remainder, sign-adjusted threshold, compare).
/// - `clamp(scaled + zp, lo, 255)` is computed as
///   `clamp(scaled, lo - zp, 255 - zp) + zp`, which cannot overflow and
///   equals the scalar saturating add followed by the clamp.
///
/// # Safety
///
/// Requires AVX2 and `out.len() == acc.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn requantize_avx2(
    out: &mut [u8],
    acc: &[i32],
    bias: i32,
    multiplier: &FixedPointMultiplier,
    output_zero_point: u8,
    relu: bool,
) {
    use core::arch::x86_64::*;

    debug_assert_eq!(out.len(), acc.len());
    debug_assert!((0..=31).contains(&multiplier.right_shift) && multiplier.multiplier >= 0);
    let zp = output_zero_point as i32;
    let pot_mask = ((1i64 << multiplier.right_shift) - 1) as i32;

    let vbias = _mm256_set1_epi32(bias);
    let vmul = _mm256_set1_epi32(multiplier.multiplier);
    let vround = _mm256_set1_epi64x(1 << 30);
    let vshift = _mm_cvtsi32_si128(multiplier.right_shift);
    let vmask = _mm256_set1_epi32(pot_mask);
    let vhalf = _mm256_set1_epi32(pot_mask >> 1);
    let vlo = _mm256_set1_epi32(if relu { 0 } else { -zp });
    let vhi = _mm256_set1_epi32(255 - zp);
    let vzp = _mm256_set1_epi32(zp);
    let zero = _mm256_setzero_si256();
    // Byte 0 of each dword to the low dword of its 128-bit lane, then
    // the two low dwords side by side.
    let pick_bytes = _mm256_setr_epi8(
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, //
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    );
    let pick_dwords = _mm256_setr_epi32(0, 4, 0, 0, 0, 0, 0, 0);

    // Eight accumulators in, eight output bytes in the low half out.
    let requant8 = |raw: __m256i| -> __m128i {
        let a = _mm256_add_epi32(raw, vbias);
        let even = _mm256_srli_epi64::<31>(_mm256_add_epi64(_mm256_mul_epi32(a, vmul), vround));
        let odd = _mm256_srli_epi64::<31>(_mm256_add_epi64(
            _mm256_mul_epi32(_mm256_srli_epi64::<32>(a), vmul),
            vround,
        ));
        let high = _mm256_blend_epi32::<0b1010_1010>(even, _mm256_slli_epi64::<32>(odd));

        let remainder = _mm256_and_si256(high, vmask);
        // Compares yield -1 for true: subtracting adds the 0/1 the
        // scalar code adds.
        let threshold = _mm256_sub_epi32(vhalf, _mm256_cmpgt_epi32(zero, high));
        let round_up = _mm256_cmpgt_epi32(remainder, threshold);
        let scaled = _mm256_sub_epi32(_mm256_sra_epi32(high, vshift), round_up);

        let q = _mm256_add_epi32(_mm256_min_epi32(_mm256_max_epi32(scaled, vlo), vhi), vzp);
        _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
            _mm256_shuffle_epi8(q, pick_bytes),
            pick_dwords,
        ))
    };

    let blocks = acc.len() / 8;
    for i in 0..blocks {
        debug_assert!(i * 8 + 8 <= acc.len() && i * 8 + 8 <= out.len());
        // SAFETY: `i * 8 + 8 <= blocks * 8 <= acc.len() == out.len()`, so
        // the 32-byte load and the 8-byte store stay inside the slices.
        let raw = _mm256_loadu_si256(acc.as_ptr().add(i * 8) as *const __m256i);
        _mm_storel_epi64(out.as_mut_ptr().add(i * 8) as *mut __m128i, requant8(raw));
    }
    let tail = acc.len() % 8;
    if tail > 0 {
        // The last partial block goes through padded stack copies, so
        // no load or store reaches past the slices.
        let mut raw = [0i32; 8];
        raw[..tail].copy_from_slice(&acc[blocks * 8..]);
        let mut q = [0u8; 8];
        _mm_storel_epi64(
            q.as_mut_ptr() as *mut __m128i,
            requant8(_mm256_loadu_si256(raw.as_ptr() as *const __m256i)),
        );
        out[blocks * 8..].copy_from_slice(&q[..tail]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_includes_zero() {
        let p = QuantParams::from_range(2.0, 8.0).unwrap();
        // Min is widened to 0.
        assert_eq!(p.zero_point, 0);
        assert!((p.scale - 8.0 / 255.0).abs() < 1e-7);
        let p = QuantParams::from_range(-8.0, -2.0).unwrap();
        assert_eq!(p.zero_point, 255);
    }

    #[test]
    fn degenerate_range() {
        let p = QuantParams::from_range(0.0, 0.0).unwrap();
        assert_eq!(p.scale, 1.0);
        assert_eq!(p.quantize(0.0), 0);
        let p = QuantParams::from_data(&[]).unwrap();
        assert_eq!(p.scale, 1.0);
    }

    #[test]
    fn invalid_ranges_rejected() {
        assert!(QuantParams::from_range(f32::NAN, 1.0).is_err());
        assert!(QuantParams::from_range(0.0, f32::INFINITY).is_err());
        assert!(QuantParams::from_range(3.0, 2.0).is_err());
    }

    #[test]
    fn zero_is_exact() {
        for (lo, hi) in [(-1.0f32, 1.0f32), (-0.3, 2.7), (-10.0, 0.5), (0.0, 6.0)] {
            let p = QuantParams::from_range(lo, hi).unwrap();
            assert_eq!(p.dequantize(p.quantize(0.0)), 0.0, "range [{lo}, {hi}]");
        }
    }

    #[test]
    fn quantize_dequantize_error_bounded_by_half_scale() {
        let p = QuantParams::from_range(-4.0, 4.0).unwrap();
        for i in -400..=400 {
            let v = i as f32 / 100.0;
            let err = (p.dequantize(p.quantize(v)) - v).abs();
            assert!(err <= p.scale * 0.5 + 1e-6, "v = {v}, err = {err}");
        }
    }

    #[test]
    fn saturation_at_the_rails() {
        let p = QuantParams::from_range(-1.0, 1.0).unwrap();
        assert_eq!(p.quantize(100.0), 255);
        assert_eq!(p.quantize(-100.0), 0);
    }

    #[test]
    fn non_finite_inputs_saturate_deterministically() {
        let p = QuantParams::from_range(-1.0, 1.0).unwrap();
        assert_eq!(p.quantize(f32::INFINITY), 255);
        assert_eq!(p.quantize(f32::NEG_INFINITY), 0);
        assert_eq!(p.quantize(f32::NAN), p.zero_point);
        // NaN maps to real zero, exactly.
        assert_eq!(p.dequantize(p.quantize(f32::NAN)), 0.0);
        // The documented rails hold for every zero point, including the
        // extremes where one rail *is* the zero point.
        for zp in [0u8, 1, 127, 254, 255] {
            let p = QuantParams {
                scale: 0.5,
                zero_point: zp,
            };
            assert_eq!(p.quantize(f32::INFINITY), 255, "zp {zp}");
            assert_eq!(p.quantize(f32::NEG_INFINITY), 0, "zp {zp}");
            assert_eq!(p.quantize(f32::NAN), zp, "zp {zp}");
        }
    }

    #[test]
    fn degenerate_scales_never_produce_non_finite_results() {
        // `from_range` rejects these scales; hand-constructed params must
        // still saturate instead of emitting NaN/∞ or tripping UB-adjacent
        // casts.
        for scale in [0.0f32, f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let p = QuantParams {
                scale,
                zero_point: 128,
            };
            for v in [0.0f32, 1.0, -1.0, f32::NAN, f32::INFINITY] {
                let q = p.quantize(v); // must not panic; u8 by construction
                assert!(p.dequantize(q).is_finite(), "scale {scale}, v {v}");
            }
            assert!(p.dequantize(0).is_finite(), "scale {scale}");
            assert!(p.dequantize(255).is_finite(), "scale {scale}");
        }
        // 0/0 inside quantize (real 0, scale 0) hits the NaN rail.
        let p = QuantParams {
            scale: 0.0,
            zero_point: 7,
        };
        assert_eq!(p.quantize(0.0), 7);
        assert_eq!(p.quantize(1.0), 255);
        assert_eq!(p.quantize(-1.0), 0);
    }

    #[test]
    fn slices_round_trip() {
        let p = QuantParams::from_range(-2.0, 2.0).unwrap();
        let data = vec![-2.0f32, -1.0, 0.0, 0.5, 1.999];
        let q = p.quantize_slice(&data);
        let d = p.dequantize_slice(&q);
        for (orig, deq) in data.iter().zip(&d) {
            assert!((orig - deq).abs() <= p.scale * 0.5 + 1e-6);
        }
    }

    #[test]
    fn real_min_max() {
        let p = QuantParams::from_range(-1.0, 3.0).unwrap();
        assert!(p.real_min() <= -1.0 + p.scale);
        assert!(p.real_max() >= 3.0 - p.scale);
    }

    #[test]
    fn srdhm_matches_reference() {
        // Reference: round(a*b / 2^31) with round-half-away-from-zero.
        let cases = [
            (0i32, 0i32),
            (1, 1),
            (1 << 30, 2),
            (i32::MAX, i32::MAX),
            (i32::MIN, i32::MAX),
            (-(1 << 30), 3),
            (123456789, -987654321),
        ];
        for (a, b) in cases {
            let got = saturating_rounding_doubling_high_mul(a, b);
            let exact = a as i64 * b as i64;
            // Round half away from zero: nudge then truncate toward zero.
            let want = if exact >= 0 {
                (exact + (1 << 30)) / (1i64 << 31)
            } else {
                (exact + 1 - (1 << 30)) / (1i64 << 31)
            } as i32;
            assert_eq!(got, want, "a = {a}, b = {b}");
        }
        // The single saturating case.
        assert_eq!(
            saturating_rounding_doubling_high_mul(i32::MIN, i32::MIN),
            i32::MAX
        );
    }

    #[test]
    fn rdbpot_rounds_half_away_from_zero() {
        assert_eq!(rounding_divide_by_pot(5, 1), 3); // 2.5 -> 3
        assert_eq!(rounding_divide_by_pot(-5, 1), -3); // -2.5 -> -3
        assert_eq!(rounding_divide_by_pot(4, 1), 2);
        assert_eq!(rounding_divide_by_pot(-4, 1), -2);
        assert_eq!(rounding_divide_by_pot(7, 2), 2); // 1.75 -> 2
        assert_eq!(rounding_divide_by_pot(100, 0), 100);
        assert_eq!(rounding_divide_by_pot(1 << 20, 20), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rdbpot_rejects_bad_exponent() {
        rounding_divide_by_pot(1, 32);
    }

    #[test]
    fn fixed_point_multiplier_accuracy() {
        for &real in &[0.25f64, 0.5, 0.7431, 0.001234, 0.999999, 1.0, 3.7, 100.0] {
            let m = FixedPointMultiplier::from_real(real).unwrap();
            let approx = m.to_real();
            assert!(
                (approx - real).abs() / real < 1e-8,
                "real = {real}, approx = {approx}"
            );
            // Applying to a mid-size accumulator matches f64 math closely.
            for &acc in &[1i32, 100, -100, 12345, -999999, 1 << 20] {
                let got = m.apply(acc);
                let want = (acc as f64 * real).round();
                if want.abs() < i32::MAX as f64 / 2.0 {
                    assert!(
                        (got as f64 - want).abs() <= 1.0,
                        "real = {real}, acc = {acc}, got = {got}, want = {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_multiplier() {
        let m = FixedPointMultiplier::from_real(0.0).unwrap();
        assert_eq!(m.apply(123456), 0);
    }

    #[test]
    fn negative_multiplier_rejected() {
        assert!(FixedPointMultiplier::from_real(-0.5).is_err());
        assert!(FixedPointMultiplier::from_real(f64::NAN).is_err());
    }

    #[test]
    fn multiplier_normalized_mantissa() {
        for &real in &[0.3f64, 0.03, 3.0, 0.9999] {
            let m = FixedPointMultiplier::from_real(real).unwrap();
            assert!(
                m.multiplier >= (1 << 30),
                "mantissa not normalized for {real}: {}",
                m.multiplier
            );
        }
    }

    #[test]
    fn requantize_end_to_end() {
        // Simulate a dot product: lhs scale 0.02, rhs scale 0.05, output
        // scale 0.1 -> M = 0.01.
        let m = FixedPointMultiplier::from_real(0.01).unwrap();
        let acc = 5000i32; // real value = 5000 * 0.001 = 5.0; output q steps of 0.1
        let q = requantize(acc, &m, 10);
        // 5000 * 0.01 = 50, + zp 10 = 60.
        assert_eq!(q, 60);
        // Saturation.
        assert_eq!(requantize(1 << 30, &m, 0), 255);
        assert_eq!(requantize(-(1 << 30), &m, 0), 0);
    }
}
