//! AVX2/FMA/F16C and AVX-512 register-tile kernels (x86_64).
//!
//! The f32 tile is `MR × 8`: one tile row is exactly one 256-bit vector.
//! The AVX2 QUInt8 and F16 tiles are `MR × 16` and the AVX-512 ones
//! `MR × 32` — two vectors per row, eight accumulators — so the eight
//! independent dependency chains hide the multiply / convert latency.
//! Every function here is `unsafe` because it is compiled with
//! `#[target_feature]`; callers in [`super`] check the detected tier
//! first (see `simd_tier`).

use core::arch::x86_64::*;

use utensor::F16;

use super::{NR_AVX2, NR_AVX512};
use crate::blocked::{MR, NR};

/// Round to nearest even: the `vcvtps2ph` mode of every F16 body here.
const RN: i32 = _MM_FROUND_TO_NEAREST_INT;
/// Sixteen-lane vectors per row of an AVX-512 tile.
const V512: usize = NR_AVX512 / 16;

/// f32 tile: `acc[r] += a[p*MR+r] * b[p*NR..]` for `p` in `0..kc`.
///
/// Deliberately *not* fused: separate `vmulps` + `vaddps` performs the
/// same two IEEE roundings per element as the scalar `acc += a * b`,
/// making every lane bit-identical to the scalar tile.
///
/// # Safety
/// Requires AVX2; `pa.len() >= kc * MR`, `pb.len() >= kc * NR`.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn tile_f32(acc: &mut [[f32; NR]; MR], pa: &[f32], pb: &[f32], kc: usize) {
    let mut v = [_mm256_setzero_ps(); MR];
    for (vr, row) in v.iter_mut().zip(acc.iter()) {
        *vr = _mm256_loadu_ps(row.as_ptr());
    }
    for p in 0..kc {
        let vb = _mm256_loadu_ps(pb.as_ptr().add(p * NR));
        for (r, vr) in v.iter_mut().enumerate() {
            let va = _mm256_set1_ps(*pa.get_unchecked(p * MR + r));
            *vr = _mm256_add_ps(*vr, _mm256_mul_ps(va, vb));
        }
    }
    for (row, vr) in acc.iter_mut().zip(v.iter()) {
        _mm256_storeu_ps(row.as_mut_ptr(), *vr);
    }
}

/// F16 `MR × 16` tile with per-MAC [`F16::mul_add`] semantics: `A` comes
/// in already widened to f32 (exact, done at pack time), `B` widens per
/// step (`vcvtph2ps`, exact), then one f32 FMA (`vfmadd`) and a
/// round-to-nearest-even back to binary16 (`vcvtps2ph`) per MAC, in
/// ascending `p` order. Bit-identical to the software path for all
/// finite values and infinities; NaN payloads may differ (both quiet).
///
/// # Safety
/// Requires AVX2+FMA+F16C; `pa.len() >= kc * MR`, `pb.len() >= kc * 16`.
#[target_feature(enable = "avx2", enable = "fma", enable = "f16c")]
pub(super) unsafe fn tile_f16_avx2(
    acc: &mut [[F16; NR_AVX2]; MR],
    pa: &[f32],
    pb: &[F16],
    kc: usize,
) {
    debug_assert!(pa.len() >= kc * MR && pb.len() >= kc * NR_AVX2);
    // Sound: F16 is #[repr(transparent)] over u16, and a tile row is 16
    // of them — two 128-bit halves.
    let mut v = [[_mm256_setzero_ps(); 2]; MR];
    for (vr, row) in v.iter_mut().zip(acc.iter()) {
        vr[0] = _mm256_cvtph_ps(_mm_loadu_si128(row.as_ptr() as *const __m128i));
        vr[1] = _mm256_cvtph_ps(_mm_loadu_si128(row.as_ptr().add(8) as *const __m128i));
    }
    for p in 0..kc {
        // SAFETY: `p * 16 + 16 <= kc * 16 <= pb.len()` and
        // `p * MR + r < kc * MR <= pa.len()` (asserted by the caller).
        let b = pb.as_ptr().add(p * NR_AVX2);
        let vb = [
            _mm256_cvtph_ps(_mm_loadu_si128(b as *const __m128i)),
            _mm256_cvtph_ps(_mm_loadu_si128(b.add(8) as *const __m128i)),
        ];
        for (r, vr) in v.iter_mut().enumerate() {
            let va = _mm256_set1_ps(*pa.get_unchecked(p * MR + r));
            for (acc, &vb) in vr.iter_mut().zip(&vb) {
                // Round to binary16 and widen back, so the running sum
                // holds exactly the value the scalar F16 accumulator would.
                *acc = _mm256_cvtph_ps(_mm256_cvtps_ph::<RN>(_mm256_fmadd_ps(va, vb, *acc)));
            }
        }
    }
    for (row, vr) in acc.iter_mut().zip(v.iter()) {
        _mm_storeu_si128(
            row.as_mut_ptr() as *mut __m128i,
            _mm256_cvtps_ph::<RN>(vr[0]),
        );
        _mm_storeu_si128(
            row.as_mut_ptr().add(8) as *mut __m128i,
            _mm256_cvtps_ph::<RN>(vr[1]),
        );
    }
}

/// F16 `MR × 32` tile: [`tile_f16_avx2`]'s per-MAC sequence on zmm —
/// `vfmadd` in f32, `vcvtps2ph` round to nearest even, `vcvtph2ps` — so
/// eight independent chains of sixteen lanes, same operations per output
/// element in the same order.
///
/// # Safety
/// Requires AVX-512F (+FMA+F16C); `pa.len() >= kc * MR`,
/// `pb.len() >= kc * 32`.
#[target_feature(enable = "avx512f", enable = "fma", enable = "f16c")]
pub(super) unsafe fn tile_f16_avx512(
    acc: &mut [[F16; NR_AVX512]; MR],
    pa: &[f32],
    pb: &[F16],
    kc: usize,
) {
    debug_assert!(pa.len() >= kc * MR && pb.len() >= kc * NR_AVX512);
    // SAFETY (every access below): a tile row is `V512` runs of sixteen
    // binary16 values, 256 bits each; `F16` is #[repr(transparent)] over
    // u16. Step `p` reads `pb[p * 32 ..][..32]` and `pa[p * MR + r]`,
    // inside the lengths asserted above for every `p < kc`.
    let mut v = [[_mm512_setzero_ps(); V512]; MR];
    for (vr, row) in v.iter_mut().zip(acc.iter()) {
        for (j, vj) in vr.iter_mut().enumerate() {
            *vj = _mm512_cvtph_ps(_mm256_loadu_si256(row.as_ptr().add(16 * j) as *const _));
        }
    }
    for p in 0..kc {
        let b = pb.as_ptr().add(p * NR_AVX512);
        let mut vb = [_mm512_setzero_ps(); V512];
        for (j, vj) in vb.iter_mut().enumerate() {
            *vj = _mm512_cvtph_ps(_mm256_loadu_si256(b.add(16 * j) as *const _));
        }
        for (r, vr) in v.iter_mut().enumerate() {
            let va = _mm512_set1_ps(*pa.get_unchecked(p * MR + r));
            for (acc, &vb) in vr.iter_mut().zip(&vb) {
                *acc = _mm512_cvtph_ps(_mm512_cvtps_ph::<RN>(_mm512_fmadd_ps(va, vb, *acc)));
            }
        }
    }
    for (row, vr) in acc.iter_mut().zip(v.iter()) {
        for (j, &vj) in vr.iter().enumerate() {
            let dst = row.as_mut_ptr().add(16 * j) as *mut __m256i;
            _mm256_storeu_si256(dst, _mm512_cvtps_ph::<RN>(vj));
        }
    }
}

/// QUInt8 `MR × 16` tile over K-pair panels: `pa[r*kc + k]` (each row
/// contiguous) and `pb[(g*16 + x)*2 + s]` hold `k = 2g + s`. One
/// `vpmaddwd` multiplies a broadcast `[a(r,k), a(r,k+1)]` pair against
/// eight `[b(k,x), b(k+1,x)]` pairs and sums each pair into an `i32`
/// lane — 16 exact MACs per instruction. Zero-point-subtracted operands
/// are within ±255, so a product is at most 255², a pair sum at most
/// 130 050, and a `KC`-panel (128 pair sums) stays below 2²⁴: no lane
/// can overflow, and integer arithmetic makes the result unconditionally
/// bit-identical to scalar.
///
/// # Safety
/// Requires AVX2; `kc` even, `pa.len() >= kc * MR`, `pb.len() >= kc * 16`.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn tile_i16_avx2(
    acc: &mut [[i32; NR_AVX2]; MR],
    pa: &[i16],
    pb: &[i16],
    kc: usize,
) {
    debug_assert_eq!(kc % 2, 0);
    debug_assert!(pa.len() >= kc * MR && pb.len() >= kc * NR_AVX2);
    let mut v = [[_mm256_setzero_si256(); 2]; MR];
    for (vr, row) in v.iter_mut().zip(acc.iter()) {
        vr[0] = _mm256_loadu_si256(row.as_ptr() as *const __m256i);
        vr[1] = _mm256_loadu_si256(row.as_ptr().add(8) as *const __m256i);
    }
    for g in 0..kc / 2 {
        // SAFETY: group `g` spans `pb[g * 32 .. g * 32 + 32]` and, in row
        // `r`, `pa[r * kc + 2 * g ..][..2]`; `2 * g + 2 <= kc` keeps both
        // inside the lengths asserted above.
        let b = pb.as_ptr().add(g * 2 * NR_AVX2);
        let vb = [
            _mm256_loadu_si256(b as *const __m256i),
            _mm256_loadu_si256(b.add(16) as *const __m256i),
        ];
        for (r, vr) in v.iter_mut().enumerate() {
            // The row's two consecutive-k operands, broadcast as one
            // 32-bit lane.
            let pair = pa.as_ptr().add(r * kc + 2 * g) as *const i32;
            let va = _mm256_set1_epi32(pair.read_unaligned());
            for (acc, &vb) in vr.iter_mut().zip(&vb) {
                *acc = _mm256_add_epi32(*acc, _mm256_madd_epi16(va, vb));
            }
        }
    }
    for (row, vr) in acc.iter_mut().zip(v.iter()) {
        _mm256_storeu_si256(row.as_mut_ptr() as *mut __m256i, vr[0]);
        _mm256_storeu_si256(row.as_mut_ptr().add(8) as *mut __m256i, vr[1]);
    }
}

/// QUInt8 `MR × 32` tile over the same K-pair panels as
/// [`tile_i16_avx2`], on `vpdpwssd`: one instruction multiplies the
/// broadcast pair against sixteen `[b(k,x), b(k+1,x)]` pairs and adds
/// both products into the `i32` lane — 32 exact MACs. It does not
/// saturate, and the ±255 operand bound keeps a `KC`-panel below 2²⁴ per
/// lane exactly as there, so the sums are exact.
///
/// # Safety
/// Requires AVX-512F/BW/VNNI; `kc` even, `pa.len() >= kc * MR`,
/// `pb.len() >= kc * 32`.
#[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512vnni")]
pub(super) unsafe fn tile_i16_vnni(
    acc: &mut [[i32; NR_AVX512]; MR],
    pa: &[i16],
    pb: &[i16],
    kc: usize,
) {
    debug_assert_eq!(kc % 2, 0);
    debug_assert!(pa.len() >= kc * MR && pb.len() >= kc * NR_AVX512);
    // SAFETY (every access below): a tile row is `V512` runs of sixteen
    // `i32`; group `g` reads `pb[g * 64 ..][..64]` and, in row `r`,
    // `pa[r * kc + 2 * g ..][..2]`, inside the lengths asserted above for
    // every `2 * g + 2 <= kc`.
    let mut v = [[_mm512_setzero_si512(); V512]; MR];
    for (vr, row) in v.iter_mut().zip(acc.iter()) {
        for (j, vj) in vr.iter_mut().enumerate() {
            *vj = _mm512_loadu_si512(row.as_ptr().add(16 * j) as *const _);
        }
    }
    for g in 0..kc / 2 {
        let b = pb.as_ptr().add(g * 2 * NR_AVX512);
        let mut vb = [_mm512_setzero_si512(); V512];
        for (j, vj) in vb.iter_mut().enumerate() {
            *vj = _mm512_loadu_si512(b.add(32 * j) as *const _);
        }
        for (r, vr) in v.iter_mut().enumerate() {
            let pair = pa.as_ptr().add(r * kc + 2 * g) as *const i32;
            let va = _mm512_set1_epi32(pair.read_unaligned());
            for (acc, &vb) in vr.iter_mut().zip(&vb) {
                *acc = _mm512_dpwssd_epi32(*acc, va, vb);
            }
        }
    }
    for (row, vr) in acc.iter_mut().zip(v.iter()) {
        for (j, &vj) in vr.iter().enumerate() {
            _mm512_storeu_si512(row.as_mut_ptr().add(16 * j) as *mut _, vj);
        }
    }
}

/// The F16 GEMM row epilogue, `v += bias` (rounded to binary16) then
/// `if v < 0 { v = 0 }`, over the longest prefix that is a multiple of
/// eight lanes; returns that prefix's length. Like the scalar compare,
/// the ReLU leaves `-0.0` and NaN alone.
///
/// # Safety
/// Requires AVX2+F16C.
#[target_feature(enable = "avx2", enable = "f16c")]
pub(super) unsafe fn f16_bias_relu(row: &mut [F16], bias: Option<F16>, relu: bool) -> usize {
    let zero = _mm256_setzero_ps();
    let vbias = bias.map(|b| _mm256_set1_ps(b.to_f32()));
    let blocks = row.len() / 8;
    for i in 0..blocks {
        debug_assert!(i * 8 + 8 <= row.len());
        // SAFETY: `i * 8 + 8 <= blocks * 8 <= row.len()`.
        let p = row.as_mut_ptr().add(i * 8) as *mut __m128i;
        let mut v = _mm256_cvtph_ps(_mm_loadu_si128(p));
        if let Some(vb) = vbias {
            v = _mm256_cvtph_ps(_mm256_cvtps_ph::<RN>(_mm256_add_ps(v, vb)));
        }
        if relu {
            v = _mm256_blendv_ps(v, zero, _mm256_cmp_ps::<_CMP_LT_OQ>(v, zero));
        }
        _mm_storeu_si128(p, _mm256_cvtps_ph::<RN>(v));
    }
    blocks * 8
}

/// [`super::mac_row_u8`] compiled for AVX2: plain safe code, which the
/// compiler vectorizes eight `i32` lanes wide under this target feature.
///
/// # Safety
/// Requires AVX2.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn mac_row_u8(acc: &mut [i32], x: &[u8], stride: usize, w: i32, zp: i32) {
    super::mac_row_u8_body(acc, x, stride, w, zp);
}
