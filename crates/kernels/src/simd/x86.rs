//! AVX2/FMA/F16C, AVX-512 and AVX512-FP16 register-tile kernels (x86_64).
//!
//! The f32 tile is `MR × 8`: one tile row is exactly one 256-bit vector.
//! The QUInt8 tiles are `MR × 16` (AVX2) and `8 × 32` (VNNI), the F16
//! tile `MR × 64` (FP16) — two vectors per row, eight or sixteen
//! accumulators — so the independent dependency chains hide the
//! multiply latency. The depthwise strips keep up to [`STRIP_RUNS`]
//! vectors of output lanes. Every function here is
//! compiled with `#[target_feature]`, so callers in [`super`] check the
//! detected tier first (see `simd_tier`). The AVX-512 bodies are safe
//! code over their slices; their memory accesses go through two
//! one-line helpers.

use core::arch::x86_64::*;

use utensor::{FixedPointMultiplier, F16};

use super::{KSTEP_U8, MR_VNNI, NR_AVX2, NR_FP16, NR_VNNI};
use super::{STRIP_LANES_F16, STRIP_LANES_I32, STRIP_RUNS};
use crate::blocked::{MR, NR};
use crate::depthwise::Strip;

/// Round to nearest even: the `vcvtps2ph` mode of the F16 row epilogue.
const RN: i32 = _MM_FROUND_TO_NEAREST_INT;

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
        let h = row.as_chunks::<32>().0;
        [&h[0], &h[1]].map(|half| _mm512_castsi512_ph(load(half)))
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
            store(dst, _mm512_castph_si512(vj));
        }
    }
}

/// The vectors [`load`] and [`store`] move: every bit pattern is a
/// value.
trait Vector: Copy {}
impl Vector for __m128i {}
impl Vector for __m256i {}
impl Vector for __m512i {}

/// The elements they move vectors from and to: every bit pattern is a
/// value.
trait Plain: Copy {}
impl Plain for u8 {}
impl Plain for i32 {}
impl Plain for F16 {}

/// The bytes of `src` as one vector of exactly their size.
#[target_feature(enable = "avx512f")]
fn load<V: Vector, T: Plain, const N: usize>(src: &[T; N]) -> V {
    const { assert!(size_of::<V>() == N * size_of::<T>()) };
    // SAFETY: `src` is `size_of::<V>()` readable bytes, any bytes are a
    // `V`, and the read needs no alignment.
    unsafe { src.as_ptr().cast::<V>().read_unaligned() }
}

/// A vector into the bytes of `dst`, exactly its size.
#[target_feature(enable = "avx512f")]
fn store<V: Vector, T: Plain, const N: usize>(dst: &mut [T; N], v: V) {
    const { assert!(size_of::<V>() == N * size_of::<T>()) };
    // SAFETY: `dst` is `size_of::<V>()` writable bytes, any bytes are
    // `T`s, and the write needs no alignment.
    unsafe { dst.as_mut_ptr().cast::<V>().write_unaligned(v) }
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

/// QUInt8 `8 × 32` tile over K-quad panels on `vpdpbusd`: `pa[(g*8 +
/// r)*4 + s]` holds the weight `a(r,k) − 128` as `i8` and `pb[(g*32 +
/// x)*4 + s]` the raw activation `b(k,x)`, for `k = 4g + s`. One
/// instruction multiplies sixteen `[b(k..k+4, x)]` quads, unsigned, by
/// the broadcast signed quad `[a(r,k..k+4)] − 128` and adds the four
/// products into the `i32` lane: 64 MACs. A product is within ±32 640
/// and the instruction does not saturate, so every lane holds `Σ_k
/// b(k,x)·(a(r,k) − 128)` modulo 2³², exactly; [`crate::blocked`] adds
/// the zero-point terms. Two zmm per row make sixteen independent
/// chains. Safe code: each K step reads one `A` and one `B` run, zipped,
/// and the accumulators go through the load and store helpers.
#[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512vnni")]
pub(super) fn tile_u8_vnni(acc: &mut [[i32; NR_VNNI]; MR_VNNI], pa: &[i8], pb: &[u8], kc: usize) {
    let a_steps = pa.as_chunks::<{ MR_VNNI * KSTEP_U8 }>().0;
    let b_steps = pb.as_chunks::<{ NR_VNNI * KSTEP_U8 }>().0;
    let halves = |row: &[i32; NR_VNNI]| {
        let h = row.as_chunks::<16>().0;
        [load(&h[0]), load(&h[1])]
    };
    let mut v = acc.each_ref().map(halves);
    for (a, b) in a_steps.iter().zip(b_steps).take(kc / KSTEP_U8) {
        let h = b.as_chunks::<64>().0;
        let vb: [__m512i; 2] = [load(&h[0]), load(&h[1])];
        for (vr, quad) in v.iter_mut().zip(a.as_chunks::<KSTEP_U8>().0) {
            let va = _mm512_set1_epi32(i32::from_le_bytes(quad.map(|a| a as u8)));
            for (acc, &vb) in vr.iter_mut().zip(&vb) {
                *acc = _mm512_dpbusd_epi32(*acc, vb, va);
            }
        }
    }
    for (row, vr) in acc.iter_mut().zip(&v) {
        for (dst, &vj) in row.as_chunks_mut::<16>().0.iter_mut().zip(vr) {
            store(dst, vj);
        }
    }
}

/// [`super::pack_quads`]: each half of the group widens the rows' bytes
/// to `u32` lanes and stores `r0 | r1 << 8 | r2 << 16 | r3 << 24` (one
/// K quad per lane, in column order) and adds `r0 + r1 + r2 + r3` into
/// the sums.
#[target_feature(enable = "avx512f", enable = "avx512bw")]
pub(super) fn pack_quads(
    dst: &mut [[u8; KSTEP_U8]; NR_VNNI],
    rows: [&[u8; NR_VNNI]; KSTEP_U8],
    sums: &mut [i32; NR_VNNI],
) {
    let dst = dst.as_flattened_mut().as_chunks_mut::<64>().0;
    let sums = sums.as_chunks_mut::<16>().0;
    for (h, (dst, sums)) in dst.iter_mut().zip(sums).enumerate() {
        let [r0, r1, r2, r3] = rows.map(|r| _mm512_cvtepu8_epi32(load(&r.as_chunks::<16>().0[h])));
        let hi = _mm512_or_si512(_mm512_slli_epi32::<16>(r2), _mm512_slli_epi32::<24>(r3));
        store(
            dst,
            _mm512_or_si512(_mm512_or_si512(r0, _mm512_slli_epi32::<8>(r1)), hi),
        );
        let total = _mm512_add_epi32(_mm512_add_epi32(r0, r1), _mm512_add_epi32(r2, r3));
        store(sums, _mm512_add_epi32(load(sums), total));
    }
}

/// [`super::requantize_into`] sixteen lanes at a time, for `0 <=
/// right_shift <= 31` and a non-negative mantissa: operation for
/// operation the eight-lane body of [`utensor::requantize_into`], whose
/// comments carry the exactness argument, with mask registers for its
/// compares and `vpmovdb` for its byte pack. Returns the length of the
/// prefix done, a multiple of sixteen.
#[target_feature(enable = "avx512f", enable = "avx512bw")]
pub(super) fn requantize(
    out: &mut [u8],
    acc: &[i32],
    bias: i32,
    multiplier: &FixedPointMultiplier,
    zero_point: u8,
    relu: bool,
) -> usize {
    let zp = zero_point as i32;
    let pot_mask = ((1i64 << multiplier.right_shift) - 1) as i32;
    let vbias = _mm512_set1_epi32(bias);
    let vmul = _mm512_set1_epi32(multiplier.multiplier);
    let vround = _mm512_set1_epi64(1 << 30);
    let vshift = _mm_cvtsi32_si128(multiplier.right_shift);
    let (vmask, vhalf) = (
        _mm512_set1_epi32(pot_mask),
        _mm512_set1_epi32(pot_mask >> 1),
    );
    let vlo = _mm512_set1_epi32(if relu { 0 } else { -zp });
    let (vhi, vzp) = (_mm512_set1_epi32(255 - zp), _mm512_set1_epi32(zp));
    let (zero, one) = (_mm512_setzero_si512(), _mm512_set1_epi32(1));
    let (outs, accs) = (out.as_chunks_mut::<16>().0, acc.as_chunks::<16>().0);
    let blocks = outs.len().min(accs.len());
    for (o, raw) in outs.iter_mut().zip(accs) {
        let a = _mm512_add_epi32(load(raw), vbias);
        let even = _mm512_srli_epi64::<31>(_mm512_add_epi64(_mm512_mul_epi32(a, vmul), vround));
        let odd = _mm512_mul_epi32(_mm512_srli_epi64::<32>(a), vmul);
        let odd = _mm512_srli_epi64::<31>(_mm512_add_epi64(odd, vround));
        let high = _mm512_mask_blend_epi32(0xaaaa, even, _mm512_slli_epi64::<32>(odd));
        let remainder = _mm512_and_si512(high, vmask);
        let negative = _mm512_cmplt_epi32_mask(high, zero);
        let threshold = _mm512_mask_add_epi32(vhalf, negative, vhalf, one);
        let shifted = _mm512_sra_epi32(high, vshift);
        let round_up = _mm512_cmpgt_epi32_mask(remainder, threshold);
        let scaled = _mm512_mask_add_epi32(shifted, round_up, shifted, one);
        let q = _mm512_add_epi32(_mm512_min_epi32(_mm512_max_epi32(scaled, vlo), vhi), vzp);
        store(o, _mm512_cvtepi32_epi8(q));
    }
    blocks * 16
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

/// [`super::strip_u8`] compiled for AVX2: plain safe code, which the
/// compiler vectorizes eight `i32` lanes wide under this target feature.
#[target_feature(enable = "avx2")]
pub(super) fn strip_u8_avx2(s: &Strip<'_, u8>, w_zp: i32, out: &mut [i32]) {
    super::strip_u8_body(s, w_zp, out);
}

/// Calls `$body::<V>(args)` with `V` the strip's vector count `$n`,
/// `1..=STRIP_RUNS`, so the accumulators are an array of fixed length.
macro_rules! by_vectors {
    ($n:expr, $body:ident($($arg:expr),*)) => {
        match $n {
            1 => $body::<1>($($arg),*),
            2 => $body::<2>($($arg),*),
            3 => $body::<3>($($arg),*),
            4 => $body::<4>($($arg),*),
            5 => $body::<5>($($arg),*),
            6 => $body::<6>($($arg),*),
            7 => $body::<7>($($arg),*),
            _ => $body::<STRIP_RUNS>($($arg),*),
        }
    };
}

/// [`super::strip_u8`] on `vpdpwssd`: per tap, one instruction per
/// vector adds `w′·x` to sixteen `i32` lanes. The inputs are
/// zero-extended `u8`, each lane the `i16` pair `(x, 0)`, and the
/// weight `w′ = w − w_zp` (within ±255) is broadcast as the pair `(w′,
/// 0)`, so the pair sum is `w′·x`. Integer sums, so exact. The strip
/// runs as the fewest vectors that hold its lanes, each in a register.
/// Safe code: the inputs are whole vectors of the planes (their slack
/// covers the last), the lanes whole vectors of `out`.
#[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512vnni")]
pub(super) fn strip_u8_vnni(s: &Strip<'_, u8>, w_zp: i32, out: &mut [i32]) {
    by_vectors!(s.lanes.div_ceil(STRIP_LANES_I32), u8_vectors(s, w_zp, out))
}

/// [`strip_u8_vnni`] on `V` vectors.
#[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512vnni")]
fn u8_vectors<const V: usize>(s: &Strip<'_, u8>, w_zp: i32, out: &mut [i32]) {
    let mut v = [_mm512_setzero_si512(); V];
    let weight = |w: u8| _mm512_set1_epi32((w as i32 - w_zp) & 0xffff);
    s.sweep::<_, _, STRIP_LANES_I32, V>(&mut v, weight, |acc, x, &vw| {
        *acc = _mm512_dpwssd_epi32(*acc, _mm512_cvtepu8_epi32(load(x)), vw);
    });
    for (dst, &acc) in out.as_chunks_mut::<STRIP_LANES_I32>().0.iter_mut().zip(&v) {
        store(dst, acc);
    }
}

/// [`super::strip_f16`] on native binary16: per tap, one `vfmadd231ph`
/// per vector of 32 lanes, `acc = fma(w, x, acc)` from `+0`, rounding
/// once per tap like [`F16::mul_add`]. Vectors and safety as in
/// [`strip_u8_vnni`].
#[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512fp16")]
pub(super) fn strip_f16(s: &Strip<'_, F16>, out: &mut [F16]) {
    by_vectors!(s.lanes.div_ceil(STRIP_LANES_F16), f16_vectors(s, out))
}

/// [`strip_f16`] on `V` vectors.
#[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512fp16")]
fn f16_vectors<const V: usize>(s: &Strip<'_, F16>, out: &mut [F16]) {
    let mut v = [_mm512_setzero_ph(); V];
    let weight = |w: F16| _mm512_castsi512_ph(_mm512_set1_epi16(w.to_bits() as i16));
    s.sweep::<_, _, STRIP_LANES_F16, V>(&mut v, weight, |acc, x, &vw| {
        *acc = _mm512_fmadd_ph(vw, _mm512_castsi512_ph(load(x)), *acc);
    });
    for (dst, &acc) in out.as_chunks_mut::<STRIP_LANES_F16>().0.iter_mut().zip(&v) {
        store(dst, _mm512_castph_si512(acc));
    }
}
