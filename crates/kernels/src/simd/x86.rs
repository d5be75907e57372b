//! AVX2/FMA/F16C, AVX-512 and AVX512-FP16 register-tile kernels (x86_64).
//!
//! The f32 tile is `MR × 8`: one tile row is exactly one 256-bit vector.
//! The QUInt8 tiles are `MR × 16` (AVX2) and `MR × 32` (VNNI), the F16
//! tile `MR × 64` (FP16) — two vectors per row, eight accumulators — so
//! the eight independent dependency chains hide the multiply latency.
//! Every function here is compiled with `#[target_feature]`, so callers
//! in [`super`] check the detected tier first (see `simd_tier`). The
//! FP16 bodies are safe code over their slices; their memory accesses
//! go through four one-line helpers.

use core::arch::x86_64::*;

use utensor::F16;

use super::{NR_AVX2, NR_AVX512, NR_FP16};
use crate::blocked::{MR, NR};

/// Round to nearest even: the `vcvtps2ph` mode of the F16 row epilogue.
const RN: i32 = _MM_FROUND_TO_NEAREST_INT;
/// Sixteen-lane vectors per row of the VNNI tile.
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

/// F16 `MR × 64` tile on native binary16: `acc[r][x] =
/// fma(pa[p*MR+r], pb[p*64+x], acc[r][x])` for `p` in `0..kc`, one
/// `vfmadd231ph` per 32 MACs. The instruction rounds once per MAC, round
/// to nearest even, exactly as [`F16::mul_add`] defines it, and the
/// steps run in ascending `p`, so every element is bit-identical to the
/// scalar chain (NaN payloads aside; both are quiet NaNs). Two zmm per
/// row make eight independent chains, enough to hide the FMA latency.
/// `A` stays binary16 in the plain `pa[p·MR + r]` layout; each element
/// is broadcast as a 16-bit integer.
#[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512fp16")]
pub(super) fn tile_f16_fp16(acc: &mut [[F16; NR_FP16]; MR], pa: &[F16], pb: &[F16], kc: usize) {
    let halves = |row: &[F16; NR_FP16]| -> [__m512h; 2] {
        let (lo, hi) = (row.first_chunk().unwrap(), row.last_chunk().unwrap());
        [load_ph(lo), load_ph(hi)]
    };
    let mut v = acc.each_ref().map(halves);
    let steps = pa.chunks_exact(MR).zip(pb.chunks_exact(NR_FP16)).take(kc);
    for (a, b) in steps {
        let vb = halves(b.try_into().expect("a chunk of NR_FP16"));
        for (vr, &ar) in v.iter_mut().zip(a) {
            let va = _mm512_castsi512_ph(_mm512_set1_epi16(ar.to_bits() as i16));
            for (acc, &vb) in vr.iter_mut().zip(&vb) {
                *acc = _mm512_fmadd_ph(va, vb, *acc);
            }
        }
    }
    for (row, vr) in acc.iter_mut().zip(&v) {
        for (dst, &vj) in row.as_chunks_mut::<32>().0.iter_mut().zip(vr) {
            store_ph(dst, vj);
        }
    }
}

/// 32 binary16 values as one zmm.
#[target_feature(enable = "avx512f", enable = "avx512fp16")]
fn load_ph(src: &[F16; 32]) -> __m512h {
    // SAFETY: `src` is 64 readable bytes; `loadu` needs no alignment.
    _mm512_castsi512_ph(unsafe { _mm512_loadu_si512(src.as_ptr().cast()) })
}

/// One zmm into 32 binary16 values.
#[target_feature(enable = "avx512f", enable = "avx512fp16")]
fn store_ph(dst: &mut [F16; 32], v: __m512h) {
    // SAFETY: `dst` is 64 writable bytes; `storeu` needs no alignment.
    unsafe { _mm512_storeu_si512(dst.as_mut_ptr().cast(), _mm512_castph_si512(v)) }
}

/// The lanes `0..min(len, 32)` of a masked access to a slice of `len`.
fn lanes(len: usize) -> __mmask32 {
    u32::MAX.checked_shr(32 - len.min(32) as u32).unwrap_or(0)
}

/// The first `min(src.len(), 32)` values of `src`, zero above.
#[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512fp16")]
fn load_ph_masked(src: &[F16]) -> __m512h {
    // SAFETY: the mask limits the load to `src`'s elements (none for an
    // empty slice; masked-off lanes do not fault).
    let v = unsafe { _mm512_maskz_loadu_epi16(lanes(src.len()), src.as_ptr().cast()) };
    _mm512_castsi512_ph(v)
}

/// The low `min(dst.len(), 32)` lanes of `v` into `dst`.
#[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512fp16")]
fn store_ph_masked(dst: &mut [F16], v: __m512h) {
    let k = lanes(dst.len());
    // SAFETY: the mask limits the store to `dst`'s elements.
    unsafe { _mm512_mask_storeu_epi16(dst.as_mut_ptr().cast(), k, _mm512_castph_si512(v)) }
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

/// [`super::mac_row_f16`] on native binary16 for `stride` 1 or 2:
/// `acc[i] = fma(w, x[i * stride], acc[i])`, 32 lanes per `vfmadd231ph`,
/// rounding once per tap like [`F16::mul_add`]. A stride-2 step loads 64
/// inputs and keeps the even ones (the low half of each 32-bit lane,
/// `vpmovdw`). Safe code: every access is a masked load or store within
/// its slice. `acc` is not empty and `x` holds exactly
/// `(acc.len() - 1) * stride + 1` elements, as the wrapper slices it, so
/// both split into the same number of chunks.
#[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512fp16")]
pub(super) fn mac_row_f16(acc: &mut [F16], x: &[F16], stride: usize, w: F16) {
    debug_assert!((stride == 1 || stride == 2) && x.len() == (acc.len() - 1) * stride + 1);
    let vw = _mm512_castsi512_ph(_mm512_set1_epi16(w.to_bits() as i16));
    for (out, x) in acc.chunks_mut(32).zip(x.chunks(32 * stride)) {
        let xv = if stride == 1 {
            load_ph_masked(x)
        } else {
            let even = |x: &[F16]| _mm512_cvtepi32_epi16(_mm512_castph_si512(load_ph_masked(x)));
            let (lo, hi) = (even(x), even(x.get(32..).unwrap_or_default()));
            _mm512_castsi512_ph(_mm512_inserti64x4::<1>(_mm512_castsi256_si512(lo), hi))
        };
        store_ph_masked(out, _mm512_fmadd_ph(vw, xv, load_ph_masked(out)));
    }
}
