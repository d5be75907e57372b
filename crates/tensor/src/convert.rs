//! Exact slice-to-slice dtype converters.
//!
//! Every dtype change a frame makes — the §4.2 dequantizing load of a GPU
//! part, the requantizing store, a concat bringing its branches onto one
//! grid, the GEMM packer widening binary16 weights — goes through one of
//! the functions here, writing straight into the caller's buffer. The
//! scalar functions stay the *definitions* ([`QuantParams::quantize`],
//! [`QuantParams::dequantize`], [`F16::from_f32`], [`F16::to_f32`]); each
//! converter equals its definition applied element by element, for every
//! input, so which body runs can never change a result and no kernel-path
//! switch governs them:
//!
//! | source → target | body |
//! |---|---|
//! | QUInt8 → F16 / QUInt8 (other params) | a 256-entry table built with the scalar definition, one lookup per element: exact by construction, portable |
//! | QUInt8 → f32 | the scalar definition in a plain loop (it vectorises as it stands) |
//! | f32 / F16 → QUInt8 | AVX2 (+ F16C widening): IEEE divide, round half away from zero, add the zero point, NaN → zero point, clamp, truncate |
//! | f32 ↔ F16 | F16C `vcvtps2ph` (round to nearest even) / `vcvtph2ps`; a block holding a NaN takes the software function, whose NaN canonicalisation the hardware does not share |
//!
//! Tails shorter than a vector, and hosts without the features, run the
//! scalar definition.

use crate::f16::F16;
use crate::quant::QuantParams;

/// Whether the vector bodies of this module run on this host (x86_64 with
/// AVX2 and F16C). The table converters need nothing and always run.
pub fn convert_simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("f16c")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// A buffer of `n` elements written by `fill` (one of the converters
/// below, which set every element).
pub(crate) fn filled<T: Clone>(n: usize, zero: T, fill: impl FnOnce(&mut [T])) -> Vec<T> {
    let mut out = vec![zero; n];
    fill(&mut out);
    out
}

/// `out[i] = f(src[i])` through a 256-entry table of `f`: any map of
/// 8-bit codes is a fixed map of 256 values. A slice shorter than the
/// table calls `f` directly.
fn map_codes<T: Copy>(out: &mut [T], src: &[u8], f: impl Fn(u8) -> T) {
    assert_eq!(out.len(), src.len(), "convert: length mismatch");
    if src.len() < 256 {
        for (o, &q) in out.iter_mut().zip(src) {
            *o = f(q);
        }
        return;
    }
    let table: [T; 256] = std::array::from_fn(|q| f(q as u8));
    for (o, &q) in out.iter_mut().zip(src) {
        *o = table[q as usize];
    }
}

/// Dequantizes codes: `out[i] = params.dequantize(src[i])`.
///
/// # Panics
///
/// Like every converter here, panics if the slices differ in length.
pub fn quint8_to_f32(out: &mut [f32], src: &[u8], params: QuantParams) {
    assert_eq!(out.len(), src.len(), "convert: length mismatch");
    // The definition itself — an integer subtract, a convert and a
    // multiply — vectorises as it stands; a table of 4-byte entries
    // measured no faster.
    for (o, &q) in out.iter_mut().zip(src) {
        *o = params.dequantize(q);
    }
}

/// Dequantizes codes into binary16:
/// `out[i] = F16::from_f32(params.dequantize(src[i]))`.
pub fn quint8_to_f16(out: &mut [F16], src: &[u8], params: QuantParams) {
    map_codes(out, src, |q| F16::from_f32(params.dequantize(q)));
}

/// Requantizes codes onto another grid through real space:
/// `out[i] = to.quantize(from.dequantize(src[i]))`; a plain copy when the
/// grids are equal.
pub fn quint8_to_quint8(out: &mut [u8], src: &[u8], from: QuantParams, to: QuantParams) {
    if from == to {
        out.copy_from_slice(src);
    } else {
        map_codes(out, src, |q| to.quantize(from.dequantize(q)));
    }
}

/// Runs the vector body `$body` (an `unsafe` call returning the length of
/// the prefix it converted) where the host has one; evaluates to that
/// length, 0 elsewhere.
macro_rules! simd_prefix {
    ($body:expr) => {{
        #[cfg(target_arch = "x86_64")]
        let done = if convert_simd_available() {
            // SAFETY: AVX2 and F16C were detected just above; the callers
            // checked that the slices are equally long.
            unsafe { $body }
        } else {
            0
        };
        #[cfg(not(target_arch = "x86_64"))]
        let done = 0;
        done
    }};
}

/// Quantizes reals: `out[i] = params.quantize(src[i])`.
pub fn f32_to_quint8(out: &mut [u8], src: &[f32], params: QuantParams) {
    assert_eq!(out.len(), src.len(), "convert: length mismatch");
    let done = simd_prefix!(avx2::f32_to_quint8(out, src, params));
    for (o, &v) in out[done..].iter_mut().zip(&src[done..]) {
        *o = params.quantize(v);
    }
}

/// Quantizes binary16 values: `out[i] = params.quantize(src[i].to_f32())`.
pub fn f16_to_quint8(out: &mut [u8], src: &[F16], params: QuantParams) {
    assert_eq!(out.len(), src.len(), "convert: length mismatch");
    let done = simd_prefix!(avx2::f16_to_quint8(out, src, params));
    for (o, &h) in out[done..].iter_mut().zip(&src[done..]) {
        *o = params.quantize(h.to_f32());
    }
}

/// Narrows to binary16: `out[i] = F16::from_f32(src[i])`.
pub fn f32_to_f16(out: &mut [F16], src: &[f32]) {
    assert_eq!(out.len(), src.len(), "convert: length mismatch");
    let done = simd_prefix!(avx2::f32_to_f16(out, src));
    for (o, &v) in out[done..].iter_mut().zip(&src[done..]) {
        *o = F16::from_f32(v);
    }
}

/// Widens binary16: `out[i] = src[i].to_f32()`.
pub fn f16_to_f32(out: &mut [f32], src: &[F16]) {
    assert_eq!(out.len(), src.len(), "convert: length mismatch");
    let done = simd_prefix!(avx2::f16_to_f32(out, src));
    for (o, &h) in out[done..].iter_mut().zip(&src[done..]) {
        *o = h.to_f32();
    }
}

/// The AVX2 / F16C bodies. Each converts the longest prefix that is a
/// multiple of eight elements and returns its length; the caller finishes
/// with the scalar definition.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use core::arch::x86_64::*;

    use crate::f16::F16;
    use crate::quant::QuantParams;

    const RN: i32 = _MM_FROUND_TO_NEAREST_INT;

    /// Eight reals in, their eight codes in the low half out — every lane
    /// equal to [`QuantParams::quantize`], operation for operation:
    ///
    /// - `real / scale` is the same IEEE division (`vdivps`), so ±∞, NaN
    ///   and the degenerate hand-built scales (0, NaN, ±∞, negative)
    ///   produce the same intermediate.
    /// - `round` (half away from zero) is `t = trunc(x)` plus
    ///   `copysign(1, x)` where `|x - t| >= 0.5`. `x - t` is exact (the
    ///   fraction of a float is a float), and so is `t ± 1` wherever a
    ///   fraction exists (`|x| < 2²³`); beyond that, and for ±∞ (`∞ - ∞`
    ///   is NaN, which compares false), nothing is added. A zero's sign
    ///   may differ from libm's, which the steps below cannot observe.
    /// - `+ zero_point` is the same IEEE addition.
    /// - The scalar branches — NaN → zero point, `>= 255` → 255, `<= 0` →
    ///   0, else truncate — are a NaN blend, a clamp to `[0, 255]` and a
    ///   truncating convert: the clamped value is an integer, so the
    ///   truncation is exact.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn quantize8(v: __m256, params: QuantParams) -> __m128i {
        const TRUNC: i32 = _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC;
        let sign = _mm256_set1_ps(-0.0);
        let zp = _mm256_set1_ps(params.zero_point as f32);

        let x = _mm256_div_ps(v, _mm256_set1_ps(params.scale));
        let t = _mm256_round_ps::<TRUNC>(x);
        let frac = _mm256_andnot_ps(sign, _mm256_sub_ps(x, t));
        let away = _mm256_cmp_ps::<_CMP_GE_OQ>(frac, _mm256_set1_ps(0.5));
        let unit = _mm256_or_ps(_mm256_and_ps(x, sign), _mm256_set1_ps(1.0));
        let q = _mm256_add_ps(_mm256_add_ps(t, _mm256_and_ps(away, unit)), zp);

        let q = _mm256_blendv_ps(q, zp, _mm256_cmp_ps::<_CMP_UNORD_Q>(q, q));
        let q = _mm256_min_ps(_mm256_max_ps(q, _mm256_setzero_ps()), _mm256_set1_ps(255.0));
        // Byte 0 of each dword to the low dword of its 128-bit lane, then
        // the two low dwords side by side.
        let pick_bytes = _mm256_setr_epi8(
            0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, //
            0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
        );
        let pick_dwords = _mm256_setr_epi32(0, 4, 0, 0, 0, 0, 0, 0);
        _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
            _mm256_shuffle_epi8(_mm256_cvttps_epi32(q), pick_bytes),
            pick_dwords,
        ))
    }

    /// # Safety
    ///
    /// Requires AVX2 and `out.len() == src.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn f32_to_quint8(out: &mut [u8], src: &[f32], params: QuantParams) -> usize {
        let blocks = src.len() / 8;
        for i in 0..blocks {
            debug_assert!(i * 8 + 8 <= src.len() && i * 8 + 8 <= out.len());
            // SAFETY: `i * 8 + 8 <= blocks * 8 <= src.len() == out.len()`,
            // so the 32-byte load and the 8-byte store stay in bounds.
            let v = _mm256_loadu_ps(src.as_ptr().add(i * 8));
            _mm_storel_epi64(
                out.as_mut_ptr().add(i * 8) as *mut __m128i,
                quantize8(v, params),
            );
        }
        blocks * 8
    }

    /// # Safety
    ///
    /// Requires AVX2 + F16C and `out.len() == src.len()`.
    #[target_feature(enable = "avx2", enable = "f16c")]
    pub(super) unsafe fn f16_to_quint8(out: &mut [u8], src: &[F16], params: QuantParams) -> usize {
        let blocks = src.len() / 8;
        for i in 0..blocks {
            debug_assert!(i * 8 + 8 <= src.len() && i * 8 + 8 <= out.len());
            // SAFETY: as in `f32_to_quint8`; the load is 16 bytes of
            // binary16 (`F16` is `repr(transparent)` over `u16`). The
            // widening is exact; a NaN's payload, which it may quiet,
            // does not survive `quantize`.
            let h = _mm_loadu_si128(src.as_ptr().add(i * 8) as *const __m128i);
            _mm_storel_epi64(
                out.as_mut_ptr().add(i * 8) as *mut __m128i,
                quantize8(_mm256_cvtph_ps(h), params),
            );
        }
        blocks * 8
    }

    /// # Safety
    ///
    /// Requires AVX2 + F16C and `out.len() == src.len()`.
    #[target_feature(enable = "avx2", enable = "f16c")]
    pub(super) unsafe fn f32_to_f16(out: &mut [F16], src: &[f32]) -> usize {
        let blocks = src.len() / 8;
        for i in 0..blocks {
            debug_assert!(i * 8 + 8 <= src.len() && i * 8 + 8 <= out.len());
            // SAFETY: `i * 8 + 8 <= blocks * 8 <= src.len() == out.len()`.
            let v = _mm256_loadu_ps(src.as_ptr().add(i * 8));
            if _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_UNORD_Q>(v, v)) != 0 {
                // `vcvtps2ph` keeps a NaN's payload; the software
                // conversion collapses it to the canonical quiet NaN.
                for j in i * 8..i * 8 + 8 {
                    out[j] = F16::from_f32(src[j]);
                }
            } else {
                _mm_storeu_si128(
                    out.as_mut_ptr().add(i * 8) as *mut __m128i,
                    _mm256_cvtps_ph::<RN>(v),
                );
            }
        }
        blocks * 8
    }

    /// # Safety
    ///
    /// Requires AVX2 + F16C and `out.len() == src.len()`.
    #[target_feature(enable = "avx2", enable = "f16c")]
    pub(super) unsafe fn f16_to_f32(out: &mut [f32], src: &[F16]) -> usize {
        let blocks = src.len() / 8;
        for i in 0..blocks {
            debug_assert!(i * 8 + 8 <= src.len() && i * 8 + 8 <= out.len());
            // SAFETY: `i * 8 + 8 <= blocks * 8 <= src.len() == out.len()`.
            let v = _mm256_cvtph_ps(_mm_loadu_si128(src.as_ptr().add(i * 8) as *const __m128i));
            if _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_UNORD_Q>(v, v)) != 0 {
                // `vcvtph2ps` quiets a signalling NaN; the software
                // widening keeps its bits.
                for j in i * 8..i * 8 + 8 {
                    out[j] = src[j].to_f32();
                }
            } else {
                _mm256_storeu_ps(out.as_mut_ptr().add(i * 8), v);
            }
        }
        blocks * 8
    }
}
