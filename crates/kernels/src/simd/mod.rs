//! Arch-gated SIMD micro-kernels for the blocked GEMM register tiles and
//! the rows around them.
//!
//! The blocked kernels in [`crate::blocked`] spend essentially all of
//! their time in one place: the register-tile accumulation over a
//! `KC`-panel. This module provides vectorized implementations of that
//! tile loop — plus the few row helpers that would otherwise dominate it
//! at small `k` (the F16 panel join and bias/ReLU epilogue) and the
//! direct depthwise row update — so the blocking and epilogue logic (and
//! therefore the accumulation *order*) stays in one canonical scalar
//! place. The panel layout a tile reads is part of the tile
//! (the `geometry` constants below); the packing code follows it.
//!
//! ## Paths
//!
//! - **x86_64 / AVX2+FMA+F16C** — selected at runtime via
//!   `is_x86_feature_detected!`; a binary built on any x86_64 machine
//!   runs everywhere and only takes the SIMD path when the host CPU
//!   reports the features.
//! - **aarch64 / NEON** — Advanced SIMD is architecturally mandatory on
//!   AArch64, so the path is compile-time gated only. The F16 tile has no
//!   NEON implementation (see below) and reports "unhandled".
//! - **everything else** — every tile function returns `false` and the
//!   caller runs its scalar loop.
//!
//! ## Equivalence contract
//!
//! Each SIMD tile is **bit-identical** to the scalar tile it replaces,
//! not merely close:
//!
//! - `f32` uses separate multiply-then-add (never FMA), the same two
//!   IEEE operations per element in the same order as `acc += a * b`.
//! - `F16` matches [`utensor::F16::mul_add`] — one f32 FMA followed by a
//!   round-to-nearest-even narrowing to binary16 — per MAC, in ascending
//!   `k`, using the hardware f32 FMA plus F16C `vcvtps2ph` rounding.
//!   Identical for all finite values and infinities; NaN *payloads* may
//!   differ from the software path (both are quiet NaNs), which no
//!   kernel contract observes.
//! - QUInt8 accumulates `i16 × i16` products exactly in `i32` lanes;
//!   integer arithmetic has no rounding, so equality is unconditional.
//!
//! The differential harness in `tests/equivalence.rs` enforces this
//! contract for every registered path; `ci.sh` runs it twice (forced
//! scalar and auto-detected SIMD).

use crate::blocked::{MR, NR};
use utensor::F16;

#[cfg(target_arch = "aarch64")]
mod neon;
#[cfg(target_arch = "x86_64")]
mod x86;

/// Panel geometry of this architecture's SIMD tiles, which the packing
/// code in [`crate::blocked`] follows: register-tile columns of the
/// QUInt8 and F16 tiles, and how many consecutive `k` the QUInt8 panels
/// interleave per lane. AVX2 runs `4 × 16` tiles, QUInt8 over K-pair
/// panels (`vpmaddwd`). NEON keeps the plain `4 × 8` layout the scalar
/// tiles read: `smlal` already multiplies and widens in one instruction,
/// and aarch64 cannot be compile-tested here, so its tile is not
/// restructured blind.
#[cfg(target_arch = "x86_64")]
mod geometry {
    pub(crate) const NR_I16: usize = 16;
    pub(crate) const KSTEP_I16: usize = 2;
    pub(crate) const NR_F16: usize = 16;
}
#[cfg(not(target_arch = "x86_64"))]
mod geometry {
    pub(crate) const NR_I16: usize = super::NR;
    pub(crate) const KSTEP_I16: usize = 1;
    pub(crate) const NR_F16: usize = super::NR;
}
pub(crate) use geometry::{KSTEP_I16, NR_F16, NR_I16};

/// Whether this host has a SIMD implementation of the GEMM register
/// tiles (AVX2+FMA+F16C on x86_64, NEON on aarch64). Detection runs
/// once; the result is cached for the life of the process.
pub fn simd_available() -> bool {
    use std::sync::OnceLock;
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            is_x86_feature_detected!("avx2")
                && is_x86_feature_detected!("fma")
                && is_x86_feature_detected!("f16c")
        }
        #[cfg(target_arch = "aarch64")]
        {
            true
        }
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            false
        }
    })
}

/// Whether the F16 GEMM tile has a SIMD path on this host. On aarch64
/// this is `false`: matching the software `mul_add` contract (f32 FMA +
/// per-MAC RN-even narrowing) would need FEAT_FP16 conversion sequences
/// we cannot compile-test here, so the F16 tile stays scalar.
pub fn simd_f16_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        simd_available()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Comma-separated list of the CPU features the SIMD paths gate on that
/// this host actually reports (empty on unsupported architectures).
pub fn cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut features = Vec::new();
        for (name, detected) in [
            ("avx2", is_x86_feature_detected!("avx2")),
            ("fma", is_x86_feature_detected!("fma")),
            ("f16c", is_x86_feature_detected!("f16c")),
        ] {
            if detected {
                features.push(name);
            }
        }
        features.join(",")
    }
    #[cfg(target_arch = "aarch64")]
    {
        "neon".to_string()
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        String::new()
    }
}

/// Runs one f32 register tile (`acc[r][x] += pa[p*MR+r] * pb[p*NR+x]`
/// for `p` in `0..kc`) through the SIMD path. Returns `false` when no
/// SIMD path exists on this host; the caller then runs its scalar loop.
#[inline]
pub(crate) fn tile_f32(acc: &mut [[f32; NR]; MR], pa: &[f32], pb: &[f32], kc: usize) -> bool {
    assert!(pa.len() >= kc * MR && pb.len() >= kc * NR);
    if !simd_available() {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        // Safety: `simd_available()` verified avx2 above; panel lengths
        // verified by the assert.
        unsafe { x86::tile_f32(acc, pa, pb, kc) };
        true
    }
    #[cfg(target_arch = "aarch64")]
    {
        // Safety: NEON is mandatory on aarch64; lengths checked above.
        unsafe { neon::tile_f32(acc, pa, pb, kc) };
        true
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        let _ = (acc, pa, pb, kc);
        false
    }
}

/// Runs one F16 register tile (per-MAC `F16::mul_add` semantics, `A`
/// panel pre-widened to f32: `acc[r][x] = f16(fma(pa[p*MR+r],
/// pb[p*NR_F16+x], acc[r][x]))` for `p` in `0..kc`) through the SIMD
/// path. Returns `false` when unhandled (non-x86_64 hosts).
#[inline]
pub(crate) fn tile_f16(acc: &mut [[F16; NR_F16]; MR], pa: &[f32], pb: &[F16], kc: usize) -> bool {
    assert!(pa.len() >= kc * MR && pb.len() >= kc * NR_F16);
    if !simd_f16_available() {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        // Safety: `simd_f16_available()` verified avx2+fma+f16c above;
        // panel lengths verified by the assert.
        unsafe { x86::tile_f16(acc, pa, pb, kc) };
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (acc, pa, pb, kc);
        false
    }
}

/// Runs one QUInt8 register tile (exact `i16 × i16 → i32` accumulation
/// over `kc` panel rows, `kc` a multiple of [`KSTEP_I16`], in this
/// architecture's geometry) through the SIMD path. Returns `false`
/// when no SIMD path exists.
#[inline]
pub(crate) fn tile_i16(acc: &mut [[i32; NR_I16]; MR], pa: &[i16], pb: &[i16], kc: usize) -> bool {
    assert_eq!(kc % KSTEP_I16, 0, "panel depth not padded to the K step");
    assert!(pa.len() >= kc * MR && pb.len() >= kc * NR_I16);
    if !simd_available() {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        // Safety: `simd_available()` verified avx2 above; panel lengths
        // and the even depth verified by the assert.
        unsafe { x86::tile_i16(acc, pa, pb, kc) };
        true
    }
    #[cfg(target_arch = "aarch64")]
    {
        // Safety: NEON is mandatory on aarch64; lengths checked above.
        unsafe { neon::tile_i16(acc, pa, pb, kc) };
        true
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        let _ = (acc, pa, pb, kc);
        false
    }
}

/// `c[i] += t[i]` in binary16 ([`F16`]'s `+`): how a tile's sums join the
/// F16 GEMM output. With `simd` on an F16C host the bulk runs eight
/// lanes at a time, bit-identical to the scalar loop that finishes (or,
/// elsewhere, does) the job.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub(crate) fn f16_add_assign(simd: bool, c: &mut [F16], t: &[F16]) {
    assert_eq!(c.len(), t.len());
    let done = if simd && simd_f16_available() {
        #[cfg(target_arch = "x86_64")]
        // Safety: `simd_f16_available()` verified avx2+f16c just above.
        unsafe {
            x86::f16_add_assign(c, t)
        }
        #[cfg(not(target_arch = "x86_64"))]
        0
    } else {
        0
    };
    for (cv, &tv) in c[done..].iter_mut().zip(&t[done..]) {
        *cv += tv;
    }
}

/// The F16 GEMM row epilogue: add the (already narrowed) bias, then
/// ReLU. Same SIMD-prefix / scalar-rest split as [`f16_add_assign`].
#[inline]
pub(crate) fn f16_bias_relu(simd: bool, row: &mut [F16], bias: Option<F16>, relu: bool) {
    let done = if simd && simd_f16_available() {
        #[cfg(target_arch = "x86_64")]
        // Safety: `simd_f16_available()` verified avx2+f16c just above.
        unsafe {
            x86::f16_bias_relu(row, bias, relu)
        }
        #[cfg(not(target_arch = "x86_64"))]
        0
    } else {
        0
    };
    for cv in row[done..].iter_mut() {
        if let Some(hb) = bias {
            *cv += hb;
        }
        if relu && *cv < F16::ZERO {
            *cv = F16::ZERO;
        }
    }
}

/// The direct depthwise row update, `acc[i] += w * (x[i * stride] - zp)`
/// for every `i` in `0..acc.len()`. Exact `i32` arithmetic either way;
/// with `simd` on an AVX2 host the same loop runs compiled for AVX2
/// (eight lanes per step for `stride == 1`).
///
/// # Panics
///
/// Panics if `x` is shorter than `(acc.len() - 1) * stride + 1`.
#[inline]
pub(crate) fn mac_row_u8(simd: bool, acc: &mut [i32], x: &[u8], stride: usize, w: i32, zp: i32) {
    #[cfg(target_arch = "x86_64")]
    if simd && simd_available() {
        // Safety: `simd_available()` verified avx2 just above; the body
        // is safe code.
        return unsafe { x86::mac_row_u8(acc, x, stride, w, zp) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
    mac_row_u8_body(acc, x, stride, w, zp);
}

/// Body of [`mac_row_u8`], inlined into each instruction-set wrapper.
#[inline(always)]
fn mac_row_u8_body(acc: &mut [i32], x: &[u8], stride: usize, w: i32, zp: i32) {
    if acc.is_empty() {
        return;
    }
    let x = &x[..(acc.len() - 1) * stride + 1];
    match stride {
        1 => {
            for (a, &v) in acc.iter_mut().zip(x) {
                *a += w * (v as i32 - zp);
            }
        }
        // `chunks(2)` rather than `step_by(2)`: the fixed-width form is
        // the one the compiler turns into a wide load plus a shuffle.
        2 => {
            let (last, body) = acc.split_last_mut().expect("non-empty");
            for (a, pair) in body.iter_mut().zip(x.chunks_exact(2)) {
                *a += w * (pair[0] as i32 - zp);
            }
            *last += w * (x[x.len() - 1] as i32 - zp);
        }
        _ => {
            for (a, &v) in acc.iter_mut().zip(x.iter().step_by(stride)) {
                *a += w * (v as i32 - zp);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(i: usize) -> f32 {
        (((i * 2654435761) % 1999) as f32 - 999.0) / 999.0
    }

    fn scalar_f32(acc: &mut [[f32; NR]; MR], pa: &[f32], pb: &[f32], kc: usize) {
        for p in 0..kc {
            for r in 0..MR {
                for x in 0..NR {
                    acc[r][x] += pa[p * MR + r] * pb[p * NR + x];
                }
            }
        }
    }

    #[test]
    fn f32_tile_bit_identical_to_scalar() {
        for kc in [1usize, 2, 7, 64, 256] {
            let pa: Vec<f32> = (0..kc * MR).map(pseudo).collect();
            let pb: Vec<f32> = (0..kc * NR).map(|i| pseudo(i + 97)).collect();
            let mut want = [[0.0f32; NR]; MR];
            scalar_f32(&mut want, &pa, &pb, kc);
            let mut got = [[0.0f32; NR]; MR];
            if tile_f32(&mut got, &pa, &pb, kc) {
                assert_eq!(got, want, "kc={kc}");
            } else {
                assert!(!simd_available());
            }
        }
    }

    #[test]
    fn f16_tile_bit_identical_to_scalar_mul_add() {
        for kc in [1usize, 3, 32, 200] {
            let a: Vec<F16> = (0..kc * MR).map(|i| F16::from_f32(pseudo(i))).collect();
            let pa: Vec<f32> = a.iter().map(|h| h.to_f32()).collect();
            let pb: Vec<F16> = (0..kc * NR_F16)
                .map(|i| F16::from_f32(pseudo(i + 13)))
                .collect();
            let mut want = [[F16::ZERO; NR_F16]; MR];
            for p in 0..kc {
                for (r, row) in want.iter_mut().enumerate() {
                    for (x, cell) in row.iter_mut().enumerate() {
                        *cell = a[p * MR + r].mul_add(pb[p * NR_F16 + x], *cell);
                    }
                }
            }
            let mut got = [[F16::ZERO; NR_F16]; MR];
            if tile_f16(&mut got, &pa, &pb, kc) {
                for r in 0..MR {
                    for x in 0..NR_F16 {
                        assert_eq!(
                            got[r][x].to_bits(),
                            want[r][x].to_bits(),
                            "kc={kc} r={r} x={x}"
                        );
                    }
                }
            } else {
                assert!(!simd_f16_available());
            }
        }
    }

    #[test]
    fn i16_tile_exactly_matches_scalar() {
        // Logical operands `a[k][r]`, `b[k][x]`, packed the way this
        // architecture's tile reads them (an odd depth zero-padded), at
        // the ±255 operand extremes the overflow bound is stated for.
        for kc in [1usize, 2, 5, 100, 255, 256] {
            let a: Vec<i16> = (0..kc * MR)
                .map(|i| ((i * 48271) % 511) as i16 - 255)
                .collect();
            let b: Vec<i16> = (0..kc * NR_I16)
                .map(|i| ((i * 16807) % 511) as i16 - 255)
                .collect();
            let kc_pad = kc.next_multiple_of(KSTEP_I16);
            let mut pa = vec![0i16; kc_pad * MR];
            let mut pb = vec![0i16; kc_pad * NR_I16];
            let mut want = [[0i32; NR_I16]; MR];
            for k in 0..kc {
                let (g, s) = (k / KSTEP_I16, k % KSTEP_I16);
                for r in 0..MR {
                    // Plain panels interleave the rows; K-pair panels
                    // keep each row contiguous.
                    let at = if KSTEP_I16 == 1 {
                        k * MR + r
                    } else {
                        r * kc_pad + k
                    };
                    pa[at] = a[k * MR + r];
                }
                for x in 0..NR_I16 {
                    pb[(g * NR_I16 + x) * KSTEP_I16 + s] = b[k * NR_I16 + x];
                }
                for (r, row) in want.iter_mut().enumerate() {
                    for (x, cell) in row.iter_mut().enumerate() {
                        *cell += a[k * MR + r] as i32 * b[k * NR_I16 + x] as i32;
                    }
                }
            }
            let mut got = [[0i32; NR_I16]; MR];
            if tile_i16(&mut got, &pa, &pb, kc_pad) {
                assert_eq!(got, want, "kc={kc}");
            } else {
                assert!(!simd_available());
            }
        }
        // Every operand at the rail: the largest sums a KC panel can hold.
        let kc = crate::blocked::KC;
        for (av, bv) in [(255i16, 255i16), (-255, 255), (-255, -255)] {
            let pa = vec![av; kc * MR];
            let pb = vec![bv; kc * NR_I16];
            let mut got = [[0i32; NR_I16]; MR];
            if tile_i16(&mut got, &pa, &pb, kc) {
                let want = kc as i32 * av as i32 * bv as i32;
                assert!(got.iter().flatten().all(|&v| v == want), "{av} x {bv}");
            }
        }
    }

    /// Binary16 values that stress the row helpers: both zeros, the
    /// subnormal range, the largest finite value, infinities, ties.
    fn f16_specials(n: usize, seed: usize) -> Vec<F16> {
        let edge = [
            0x0000u16, 0x8000, 0x0001, 0x8001, 0x03ff, 0x0400, 0x7bff, 0xfbff, 0x7c00, 0xfc00,
            0x3c00, 0xbc00, 0x3555, 0x1400,
        ];
        (0..n)
            .map(|i| {
                if (i + seed) % 3 == 1 {
                    F16::from_bits(edge[(i * 7 + seed) % edge.len()])
                } else {
                    F16::from_f32(pseudo(i + seed) * if i % 5 == 4 { 60000.0 } else { 2.0 })
                }
            })
            .collect()
    }

    #[test]
    fn f16_row_helpers_bit_identical_to_scalar() {
        for n in [0usize, 1, 7, 8, 9, 16, 37] {
            let c0 = f16_specials(n, 1);
            let t = f16_specials(n, 5);
            let (mut want, mut got) = (c0.clone(), c0.clone());
            f16_add_assign(false, &mut want, &t);
            f16_add_assign(true, &mut got, &t);
            let bits = |v: &[F16]| v.iter().map(|h| h.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "add n={n}");
            for bias in [
                None,
                Some(F16::from_f32(0.37)),
                Some(F16::from_bits(0x8000)),
            ] {
                for relu in [false, true] {
                    let (mut want, mut got) = (c0.clone(), c0.clone());
                    f16_bias_relu(false, &mut want, bias, relu);
                    f16_bias_relu(true, &mut got, bias, relu);
                    assert_eq!(bits(&got), bits(&want), "n={n} bias={bias:?} relu={relu}");
                }
            }
        }
    }

    #[test]
    fn tiles_accumulate_onto_existing_values() {
        // Tiles must *add to* the accumulator (the caller may seed it),
        // not overwrite it.
        let kc = 4;
        let pa: Vec<f32> = (0..kc * MR).map(pseudo).collect();
        let pb: Vec<f32> = (0..kc * NR).map(|i| pseudo(i + 7)).collect();
        let mut got = [[1.5f32; NR]; MR];
        if tile_f32(&mut got, &pa, &pb, kc) {
            let mut want = [[1.5f32; NR]; MR];
            scalar_f32(&mut want, &pa, &pb, kc);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn feature_report_is_consistent() {
        let features = cpu_features();
        if simd_available() {
            assert!(!features.is_empty());
        }
        if simd_f16_available() {
            assert!(simd_available());
        }
    }
}
