//! AVX2/FMA/F16C, AVX-512 and AVX512-FP16 register-tile kernels (x86_64).
//!
//! The f32 tile is `MR × 8`: one tile row is exactly one 256-bit vector.
//! The QUInt8 tiles are `MR × 16` (AVX2) and `8 × 32` (VNNI) — two
//! vectors per row, eight or sixteen accumulators — and the F16 tile
//! `8 × 32` (FP16), one vector per row, so the independent dependency
//! chains hide the multiply latency. The depthwise strips keep up to [`STRIP_RUNS`]
//! vectors of output lanes. Every function here is
//! compiled with `#[target_feature]`, so callers in [`super`] check the
//! detected tier first (see `simd_tier`). The AVX-512 bodies are safe
//! code over their slices; their memory accesses go through two
//! one-line helpers.

use core::arch::x86_64::*;
use std::ops::Range;

use utensor::{FixedPointMultiplier, F16};

use super::{TileRows, KSTEP_U8, MR_FP16, MR_VNNI, NR_AVX2, NR_FP16, NR_VNNI};
use super::{STRIP_LANES_F16, STRIP_LANES_I32, STRIP_RUNS};
use crate::blocked::{MR, NR};
use crate::depthwise::Strip;

/// Round to nearest even: the `vcvtps2ph` mode of the F16 row epilogue.
const RN: i32 = _MM_FROUND_TO_NEAREST_INT;

/// f32 tile: `acc[r] += a[p*MR+r] * b[p*NR..]` for `p` in `0..kc`.
///
/// Deliberately *not* fused: separate `vmulps` + `vaddps` performs the
/// same two IEEE roundings per element as the scalar `acc += a * b`,
/// making every lane bit-identical to the scalar tile. Safe code: each
/// step reads one `A` and one `B` run, zipped.
#[target_feature(enable = "avx2")]
pub(super) fn tile_f32(acc: &mut TileRows<'_, f32, NR, MR>, pa: &[f32], pb: &[f32], kc: usize) {
    let mut v = [_mm256_setzero_ps(); MR];
    for (vr, row) in v.iter_mut().zip(acc.iter()) {
        *vr = _mm256_castsi256_ps(load(row));
    }
    let steps = pa.as_chunks::<MR>().0.iter().zip(pb.as_chunks::<NR>().0);
    for (a, b) in steps.take(kc) {
        let vb = _mm256_castsi256_ps(load(b));
        for (vr, &ar) in v.iter_mut().zip(a) {
            *vr = _mm256_add_ps(*vr, _mm256_mul_ps(_mm256_set1_ps(ar), vb));
        }
    }
    for (row, &vr) in acc.iter_mut().zip(&v) {
        store(row, _mm256_castps_si256(vr));
    }
}

/// F16 `8 × 32` tile on native binary16: `acc[r][x] = fma(rows[r][p],
/// b(p)[x], acc[r][x])` for `p` in `0..kc`, one `vfmadd231ph` per 32
/// MACs. The instruction rounds once per MAC, round to nearest even,
/// exactly as [`F16::mul_add`] defines it, and the steps run in
/// ascending `p`, so every element is bit-identical to the scalar chain
/// (NaN payloads aside; both are quiet NaNs). One zmm per row makes
/// eight independent chains, enough to hide the FMA latency, and each
/// `A` element is used once per step, so it is broadcast inside the FMA
/// (`{1to32}`, a load-port operand) instead of by a shuffle. Both
/// operands are read in place: each `A` row stream is one weight row,
/// trimmed to `kc` up front so the loop needs no bounds check; `b(p)` is
/// step `p`'s run of `B`, a row of the phase planes or of the matrix. A
/// `fresh` tile starts from zero and never reads `acc` (the first `K`
/// panel). On the last panel the `epilogue` adds each row's bias with
/// `vaddph` — the binary16 sum correctly rounded, as `F16`'s `+` is
/// through f32 — and applies ReLU, before the one store.
#[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512fp16")]
pub(super) fn tile_f16_fp16<'b>(
    acc: &mut TileRows<'_, F16, NR_FP16, MR_FP16>,
    rows: [&[F16]; MR_FP16],
    b: impl Fn(usize) -> &'b [F16; NR_FP16],
    (kc, fresh): (usize, bool),
    epilogue: Option<(Option<[F16; MR_FP16]>, bool)>,
) {
    let mut streams: [&[F16]; MR_FP16] = [&[]; MR_FP16];
    for (stream, row) in streams.iter_mut().zip(rows) {
        *stream = &row[..kc];
    }
    let mut v = [_mm512_setzero_ph(); MR_FP16];
    for (vr, row) in v.iter_mut().zip(acc.iter()).filter(|_| !fresh) {
        *vr = _mm512_castsi512_ph(load(row));
    }
    for p in 0..kc {
        let vb = _mm512_castsi512_ph(load(b(p)));
        for (vr, stream) in v.iter_mut().zip(&streams) {
            let va = _mm512_castsi512_ph(_mm512_set1_epi16(stream[p].to_bits() as i16));
            *vr = _mm512_fmadd_ph(va, vb, *vr);
        }
    }
    if let Some((bias, relu)) = epilogue {
        let zero = _mm512_setzero_ph();
        for (r, vr) in v.iter_mut().enumerate() {
            if let Some(bias) = bias {
                let vb = _mm512_castsi512_ph(_mm512_set1_epi16(bias[r].to_bits() as i16));
                *vr = _mm512_add_ph(*vr, vb);
            }
            // `vmaxph` returns its second operand when both are zero or
            // either is NaN: `-0.0` and NaN stay, like the scalar `<`.
            if relu {
                *vr = _mm512_max_ph(zero, *vr);
            }
        }
    }
    for (row, &vr) in acc.iter_mut().zip(&v) {
        store(row, _mm512_castph_si512(vr));
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
impl Plain for i8 {}
impl Plain for i16 {}
impl Plain for i32 {}
impl Plain for f32 {}
impl Plain for F16 {}

/// The bytes of `src` as one vector of exactly their size. Gated on the
/// narrowest tier's feature, so every tier's bodies call it.
#[target_feature(enable = "avx2")]
fn load<V: Vector, T: Plain, const N: usize>(src: &[T; N]) -> V {
    const { assert!(size_of::<V>() == N * size_of::<T>()) };
    // SAFETY: `src` is `size_of::<V>()` readable bytes, any bytes are a
    // `V`, and the read needs no alignment.
    unsafe { src.as_ptr().cast::<V>().read_unaligned() }
}

/// A vector into the bytes of `dst`, exactly its size.
#[target_feature(enable = "avx2")]
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
/// bit-identical to scalar. Safe code: the row streams are trimmed to
/// the panel's pair count up front and zipped with the `B` steps.
#[target_feature(enable = "avx2")]
pub(super) fn tile_i16_avx2(
    acc: &mut TileRows<'_, i32, NR_AVX2, MR>,
    pa: &[i16],
    pb: &[i16],
    kc: usize,
) {
    let pairs = kc / 2;
    let mut v = [[_mm256_setzero_si256(); 2]; MR];
    for (vr, row) in v.iter_mut().zip(acc.iter()) {
        for (vj, half) in vr.iter_mut().zip(row.as_chunks::<8>().0) {
            *vj = load(half);
        }
    }
    let rows: [&[[i16; 2]]; MR] =
        std::array::from_fn(|r| &pa[r * kc..][..kc].as_chunks::<2>().0[..pairs]);
    let steps = &pb.as_chunks::<{ 2 * NR_AVX2 }>().0[..pairs];
    for g in 0..pairs {
        let h = steps[g].as_chunks::<16>().0;
        let vb: [__m256i; 2] = [load(&h[0]), load(&h[1])];
        for (vr, row) in v.iter_mut().zip(&rows) {
            // The row's two consecutive-k operands, broadcast as one
            // 32-bit lane.
            let [lo, hi] = row[g];
            let va = _mm256_set1_epi32((lo as u16 as i32) | ((hi as i32) << 16));
            for (acc, &vb) in vr.iter_mut().zip(&vb) {
                *acc = _mm256_add_epi32(*acc, _mm256_madd_epi16(va, vb));
            }
        }
    }
    for (row, vr) in acc.iter_mut().zip(&v) {
        for (dst, &vj) in row.as_chunks_mut::<8>().0.iter_mut().zip(vr) {
            store(dst, vj);
        }
    }
}

/// QUInt8 `8 × 32` tile on `vpdpbusd`, the weights read in place: row
/// stream `r` is the raw `u8` weights `a(r, k)` from the panel's first
/// `k`, and `pb[(g*32 + x)*4 + s]` holds the activation `b(k,x) − 128`
/// as `i8`, for `k = 4g + s`. One instruction multiplies the row's
/// broadcast quad `[a(r,k..k+4)]`, unsigned, by sixteen signed `[b(k..
/// k+4, x) − 128]` quads and adds the four products into each `i32`
/// lane: 64 MACs. A product is within ±32 640 and the instruction does
/// not saturate, so every lane holds `Σ_k a(r,k)·(b(k,x) − 128)` modulo
/// 2³², exactly; [`crate::blocked`] adds the zero-point terms. Two zmm
/// per row make sixteen independent chains. Safe code: each row stream
/// is trimmed to the panel's quad count up front, so the zipped loop
/// reads its quads without a bounds check; each quad is one
/// `vpbroadcastd` from memory. A `fresh` tile starts from zero, as
/// [`tile_f16_fp16`] does.
#[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512vnni")]
pub(super) fn tile_u8_vnni(
    acc: &mut TileRows<'_, i32, NR_VNNI, MR_VNNI>,
    rows: [&[u8]; MR_VNNI],
    pb: &[i8],
    (kc, fresh): (usize, bool),
) {
    let quads = kc / KSTEP_U8;
    let mut streams: [&[[u8; KSTEP_U8]]; MR_VNNI] = [&[]; MR_VNNI];
    for (stream, row) in streams.iter_mut().zip(rows) {
        *stream = &row.as_chunks::<KSTEP_U8>().0[..quads];
    }
    let b_steps = &pb.as_chunks::<{ NR_VNNI * KSTEP_U8 }>().0[..quads];
    let mut v = [[_mm512_setzero_si512(); 2]; MR_VNNI];
    for (vr, row) in v.iter_mut().zip(acc.iter()).filter(|_| !fresh) {
        for (vj, half) in vr.iter_mut().zip(row.as_chunks::<16>().0) {
            *vj = load(half);
        }
    }
    for g in 0..quads {
        let h = b_steps[g].as_chunks::<64>().0;
        let vb: [__m512i; 2] = [load(&h[0]), load(&h[1])];
        for (vr, stream) in v.iter_mut().zip(&streams) {
            let va = _mm512_set1_epi32(i32::from_le_bytes(stream[g]));
            for (acc, &vb) in vr.iter_mut().zip(&vb) {
                *acc = _mm512_dpbusd_epi32(*acc, va, vb);
            }
        }
    }
    for (row, vr) in acc.iter_mut().zip(&v) {
        for (dst, &vj) in row.as_chunks_mut::<16>().0.iter_mut().zip(vr) {
            store(dst, vj);
        }
    }
}

/// [`super::pack_quads`]: per K-quad group, each half widens the rows'
/// bytes to `u32` lanes, stores `(r0 | r1 << 8 | r2 << 16 | r3 << 24) ^
/// flip` (one K quad per lane, in column order; `flip` turns the first
/// `live` bytes of a lane from `b` into `b − 128` as `i8`, and leaves the
/// padding rows' zeros) and adds `r0 + r1 + r2 + r3` into the column
/// sums, which stay in registers for the whole micro-panel.
#[target_feature(enable = "avx512f", enable = "avx512bw")]
pub(super) fn pack_quads<'r>(
    dst: &mut [[[i8; KSTEP_U8]; NR_VNNI]],
    kc: usize,
    row: impl Fn(usize) -> &'r [u8; NR_VNNI],
    sums: &mut [i32; NR_VNNI],
) {
    const ZEROS: [u8; NR_VNNI] = [0; NR_VNNI];
    let sums = sums.as_chunks_mut::<16>().0;
    let mut totals: [__m512i; 2] = [load(&sums[0]), load(&sums[1])];
    for (g, group) in dst.iter_mut().enumerate() {
        let live = KSTEP_U8.min(kc - g * KSTEP_U8);
        let flip = _mm512_set1_epi32((0x8080_8080u32 >> (8 * (KSTEP_U8 - live))) as i32);
        let rows: [&[u8; NR_VNNI]; KSTEP_U8] = std::array::from_fn(|s| {
            if s < live {
                row(g * KSTEP_U8 + s)
            } else {
                &ZEROS
            }
        });
        let halves = group.as_flattened_mut().as_chunks_mut::<64>().0;
        for (h, (dst, total)) in halves.iter_mut().zip(&mut totals).enumerate() {
            let [r0, r1, r2, r3] =
                rows.map(|r| _mm512_cvtepu8_epi32(load(&r.as_chunks::<16>().0[h])));
            let hi = _mm512_or_si512(_mm512_slli_epi32::<16>(r2), _mm512_slli_epi32::<24>(r3));
            let quads = _mm512_or_si512(_mm512_or_si512(r0, _mm512_slli_epi32::<8>(r1)), hi);
            store(dst, _mm512_xor_si512(quads, flip));
            let sum = _mm512_add_epi32(_mm512_add_epi32(r0, r1), _mm512_add_epi32(r2, r3));
            *total = _mm512_add_epi32(*total, sum);
        }
    }
    for (dst, &total) in sums.iter_mut().zip(&totals) {
        store(dst, total);
    }
}

/// [`super::row_sums`]: `sums[i]` is the sum of row `i` of `a` (`k`
/// bytes each), wrapping in `i32`, 64 bytes per `vpsadbw` and the row's
/// last bytes one at a time.
#[target_feature(enable = "avx512f", enable = "avx512bw")]
pub(super) fn row_sums(a: &[u8], k: usize, sums: &mut [i32]) {
    for (row, sum) in a.chunks_exact(k).zip(sums) {
        let (chunks, tail) = row.as_chunks::<64>();
        let mut acc = _mm512_setzero_si512();
        for c in chunks {
            acc = _mm512_add_epi64(acc, _mm512_sad_epu8(load(c), _mm512_setzero_si512()));
        }
        let body = _mm512_reduce_add_epi64(acc) as i32;
        *sum = tail.iter().fold(body, |s, &v| s.wrapping_add(v as i32));
    }
}

/// 128 bytes split by position: the even-indexed bytes, then the odd
/// ones, 64 each. `vpackuswb` of the 16-bit lanes' low (masked) or high
/// (shifted) bytes packs each 128-bit lane's eight from both inputs side
/// by side; `vpermq` puts the quadwords back in order. AVX-512BW only.
#[target_feature(enable = "avx512f", enable = "avx512bw")]
fn split_phases(v: [__m512i; 2]) -> [__m512i; 2] {
    let low = _mm512_set1_epi16(0xff);
    let order = _mm512_set_epi64(7, 5, 3, 1, 6, 4, 2, 0);
    let even = _mm512_packus_epi16(_mm512_and_si512(v[0], low), _mm512_and_si512(v[1], low));
    let odd = _mm512_packus_epi16(_mm512_srli_epi16::<8>(v[0]), _mm512_srli_epi16::<8>(v[1]));
    [even, odd].map(|p| _mm512_permutexvar_epi64(order, p))
}

/// [`super::max_taps_s2`]: per output row and 64 outputs, the byte max
/// of the window's rows over the 128 columns the outputs' taps start in
/// (64 lanes per step), split into its even and odd phases; output `i`
/// is the max of even `i`, odd `i` and — 3 wide — even `i + 1`, the
/// even phase shifted down one byte with the next step's first even
/// byte (`valignq` then `vpalignr`). A read past the end of the plane
/// is staged through a 128-byte row; a store of fewer than 64
/// outputs spills over the bytes after them (with `spill`) or blends
/// into them, or near the end of `out` is staged through a 64-byte row.
#[target_feature(enable = "avx512f", enable = "avx512bw")]
pub(super) fn max_taps_s2(
    plane: &[u8],
    (w, out_rows): (usize, usize),
    rows: impl Fn(usize) -> Range<usize>,
    (t0, kw, len): (usize, usize, usize),
    out: (&mut [u8], impl Fn(usize) -> usize, bool),
) {
    let geometry = (plane, (w, out_rows), rows, (t0, len), out);
    // Taps within the first 64 columns need one vector per row.
    let narrow = len > 0 && t0 + 2 * (len - 1) + kw <= 64;
    match (kw, narrow) {
        (1, false) => taps_s2::<1, 2>(geometry),
        (2, false) => taps_s2::<2, 2>(geometry),
        (_, false) => taps_s2::<3, 2>(geometry),
        (1, true) => taps_s2::<1, 1>(geometry),
        (2, true) => taps_s2::<2, 1>(geometry),
        (_, true) => taps_s2::<3, 1>(geometry),
    }
}

/// [`max_taps_s2`] for `KW` taps, reading `HALVES` vectors of 64
/// columns per row and step (one when every tap lies in the first 64).
#[target_feature(enable = "avx512f", enable = "avx512bw")]
#[allow(clippy::type_complexity)]
fn taps_s2<const KW: usize, const HALVES: usize>(
    (plane, (w, out_rows), rows, (t0, len), (out, at, spill)): (
        &[u8],
        (usize, usize),
        impl Fn(usize) -> Range<usize>,
        (usize, usize),
        (&mut [u8], impl Fn(usize) -> usize, bool),
    ),
) {
    // Bytes past the end of the plane are junk columns of every row
    // (past `w`), so the staging row is zeroed only once.
    let mut staged = [0u8; 128];
    let mut phases = |window: &Range<usize>, c0: usize| {
        let mut v = [_mm512_setzero_si512(); 2];
        for r in window.clone() {
            let src = plane.get(r * w + c0..).unwrap_or_default();
            let bytes = match src.get(..64 * HALVES) {
                Some(whole) => whole,
                None => {
                    staged[..src.len()].copy_from_slice(src);
                    &staged[..64 * HALVES]
                }
            };
            for (acc, half) in v.iter_mut().zip(bytes.as_chunks::<64>().0) {
                *acc = _mm512_max_epu8(*acc, load(half));
            }
        }
        split_phases(v)
    };
    for oy in 0..out_rows {
        let window = rows(oy);
        if window.is_empty() {
            continue;
        }
        let (base, mut carried) = (at(oy), None);
        for q in 0..len.div_ceil(64) {
            let live = (len - 64 * q).min(64);
            let [even, odd] = carried
                .take()
                .unwrap_or_else(|| phases(&window, t0 + 128 * q));
            let mut m = if KW == 1 {
                even
            } else {
                _mm512_max_epu8(even, odd)
            };
            if KW == 3 {
                // Even `i + 1`: the next step's first even byte is needed
                // only by a full step's last output.
                let next = match live {
                    64 => carried.insert(phases(&window, t0 + 128 * (q + 1)))[0],
                    _ => _mm512_setzero_si512(),
                };
                let up = _mm512_alignr_epi64::<2>(next, even);
                m = _mm512_max_epu8(m, _mm512_alignr_epi8::<1>(up, even));
            }
            // Fewer than 64 outputs spill over or blend into the bytes
            // after them where `out` has 64, and are staged where it does
            // not.
            let start = base + 64 * q;
            match out.get_mut(start..).and_then(|o| o.first_chunk_mut::<64>()) {
                Some(whole) if spill || live == 64 => store(whole, m),
                Some(whole) => {
                    let mask = u64::MAX >> (64 - live);
                    store(whole, _mm512_mask_blend_epi8(mask, load(whole), m));
                }
                None => {
                    let mut staged = [0u8; 64];
                    store(&mut staged, m);
                    out[start..start + live].copy_from_slice(&staged[..live]);
                }
            }
        }
    }
}

/// [`super::requantize_into`] sixteen lanes at a time, for `0 <=
/// right_shift <= 31` and a non-negative mantissa: operation for
/// operation the eight-lane body of [`utensor::requantize_into`], whose
/// comments carry the exactness argument, with mask registers for its
/// compares and `vpmovdb` for its byte pack, each lane's term (when
/// `terms` is not empty) added to its sum first. Returns the length of
/// the prefix done, a multiple of sixteen.
#[target_feature(enable = "avx512f", enable = "avx512bw")]
pub(super) fn requantize(
    out: &mut [u8],
    (acc, terms): (&[i32], &[i32]),
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
    let lanes = |a: __m512i| {
        let a = _mm512_add_epi32(a, vbias);
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
        _mm512_cvtepi32_epi8(q)
    };
    let (outs, accs) = (out.as_chunks_mut::<16>().0, acc.as_chunks::<16>().0);
    let blocks = outs.len().min(accs.len());
    if terms.is_empty() {
        for (o, raw) in outs.iter_mut().zip(accs) {
            store(o, lanes(load(raw)));
        }
        return blocks * 16;
    }
    let terms = terms.as_chunks::<16>().0;
    let blocks = blocks.min(terms.len());
    for ((o, raw), t) in outs.iter_mut().zip(accs).zip(terms) {
        store(o, lanes(_mm512_add_epi32(load(raw), load(t))));
    }
    blocks * 16
}

/// The F16 GEMM row epilogue, `v += bias` (rounded to binary16) then
/// `if v < 0 { v = 0 }`, over the longest prefix that is a multiple of
/// eight lanes; returns that prefix's length. Like the scalar compare,
/// the ReLU leaves `-0.0` and NaN alone. Safe code over whole vectors of
/// the row.
#[target_feature(enable = "avx2", enable = "f16c")]
pub(super) fn f16_bias_relu(row: &mut [F16], bias: Option<F16>, relu: bool) -> usize {
    let zero = _mm256_setzero_ps();
    let vbias = bias.map(|b| _mm256_set1_ps(b.to_f32()));
    let blocks = row.as_chunks_mut::<8>().0;
    for lanes in blocks.iter_mut() {
        let mut v = _mm256_cvtph_ps(load(lanes));
        if let Some(vb) = vbias {
            v = _mm256_cvtph_ps(_mm256_cvtps_ph::<RN>(_mm256_add_ps(v, vb)));
        }
        if relu {
            v = _mm256_blendv_ps(v, zero, _mm256_cmp_ps::<_CMP_LT_OQ>(v, zero));
        }
        store(lanes, _mm256_cvtps_ph::<RN>(v));
    }
    blocks.len() * 8
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
