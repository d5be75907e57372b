//! Arch-gated SIMD micro-kernels for the blocked GEMM register tiles and
//! the rows around them.
//!
//! The blocked kernels in [`crate::blocked`] spend essentially all of
//! their time in one place: the register-tile accumulation over a
//! `KC`-panel. This module provides vectorized implementations of that
//! tile loop — plus the F16 bias/ReLU row epilogue, which would otherwise
//! dominate it at small `k`, and the direct depthwise row updates — so the
//! blocking and epilogue logic (and therefore the accumulation *order*)
//! stays in one canonical scalar place. The panel layout a tile reads is part of the tile (its width
//! below); the packing code follows it.
//!
//! ## Tiers
//!
//! Detection resolves once, per process, to the widest [`SimdTier`] the
//! host has, and the SIMD kernel path runs that tier:
//!
//! - **AVX512-FP16** — `avx512fp16` on top of the AVX-512 tier: a
//!   `4 × 64` F16 tile and the F16 depthwise row on native binary16
//!   (`vfmadd231ph`), plus everything the AVX-512 tier runs.
//! - **AVX-512** — `avx512f + avx512bw + avx512vnni` on top of the AVX2
//!   tier's features: a `4 × 32` QUInt8 tile on `vpdpwssd`.
//! - **AVX2** — `avx2 + fma + f16c`: a `4 × 16` QUInt8 tile. Every tier
//!   shares the AVX2 f32 tile, F16 row epilogue and QUInt8 depthwise row
//!   update.
//! - **None** — every other host, aarch64 included: every caller runs its
//!   scalar loop.
//!
//! Below the FP16 tier the F16 kernels run [`utensor::F16::mul_add`].
//!
//! ## Equivalence contract
//!
//! Each SIMD tile is **bit-identical** to the scalar tile it replaces,
//! not merely close:
//!
//! - `f32` uses separate multiply-then-add (never FMA), the same two
//!   IEEE operations per element in the same order as `acc += a * b`.
//! - `F16` matches [`utensor::F16::mul_add`] — `a·b + c` rounded once,
//!   to nearest even, straight to binary16 — per MAC, in ascending `k`:
//!   `vfmadd231ph` is that operation. `A` is packed as binary16.
//!   Identical for all finite values and infinities; NaN *payloads* may
//!   differ from the software path (both are quiet NaNs), which no
//!   kernel contract observes.
//! - QUInt8 accumulates `i16 × i16` products exactly in `i32` lanes;
//!   integer arithmetic has no rounding, so equality is unconditional.
//!
//! The differential harness in `tests/equivalence.rs` enforces this
//! contract for every registered path; `ci.sh` runs it twice (forced
//! scalar and auto-detected SIMD). The unit tests below hold every
//! compiled tile body the host can run to the scalar tile directly, so
//! the AVX2 QUInt8 body stays verified on AVX-512 hosts, where no GEMM
//! reaches it; `tests/f16_fma.rs` adds near-tie and random triples.

use std::sync::OnceLock;

use crate::blocked::{MR, NR};
use utensor::F16;

#[cfg(target_arch = "x86_64")]
mod x86;

/// Register-tile columns of the AVX2 QUInt8 tile.
pub(crate) const NR_AVX2: usize = 16;
/// Register-tile columns of the AVX-512 (VNNI) QUInt8 tile.
pub(crate) const NR_AVX512: usize = 32;
/// Register-tile columns of the AVX512-FP16 F16 tile.
pub(crate) const NR_FP16: usize = 64;
/// Consecutive `k` per 32-bit lane of the SIMD QUInt8 panels (K pairs).
pub(crate) const KSTEP_I16: usize = 2;

/// The SIMD tiers, narrowest first. A host runs the widest it has
/// ([`simd_tier`]); each tier's features include the narrower tier's.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdTier {
    /// No SIMD tiles: the scalar loops everywhere.
    None,
    /// AVX2 + FMA + F16C: a `4 × 16` QUInt8 tile.
    Avx2,
    /// AVX-512 F/BW/VNNI on top of AVX2: a `4 × 32` QUInt8 tile.
    Avx512,
    /// AVX512-FP16 on top of AVX-512: a `4 × 64` native binary16 F16 tile.
    Avx512Fp16,
}

impl SimdTier {
    /// The CPU features this tier requires, in `cpu_features` spelling.
    pub(crate) fn features(self) -> &'static [&'static str] {
        let all = &[
            "avx2",
            "fma",
            "f16c",
            "avx512f",
            "avx512bw",
            "avx512vnni",
            "avx512fp16",
        ];
        match self {
            SimdTier::None => &[],
            SimdTier::Avx2 => &all[..3],
            SimdTier::Avx512 => &all[..6],
            SimdTier::Avx512Fp16 => all,
        }
    }
}

/// Whether this host reports `feature`, one of [`SimdTier::features`].
fn detected(feature: &str) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        match feature {
            "avx2" => is_x86_feature_detected!("avx2"),
            "fma" => is_x86_feature_detected!("fma"),
            "f16c" => is_x86_feature_detected!("f16c"),
            "avx512f" => is_x86_feature_detected!("avx512f"),
            "avx512bw" => is_x86_feature_detected!("avx512bw"),
            "avx512vnni" => is_x86_feature_detected!("avx512vnni"),
            "avx512fp16" => is_x86_feature_detected!("avx512fp16"),
            _ => false,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = feature;
        false
    }
}

/// The widest SIMD tier this host has. Detection runs once; the result
/// is cached for the life of the process.
pub fn simd_tier() -> SimdTier {
    static TIER: OnceLock<SimdTier> = OnceLock::new();
    *TIER.get_or_init(|| {
        [SimdTier::Avx512Fp16, SimdTier::Avx512, SimdTier::Avx2]
            .into_iter()
            .find(|tier| tier.features().iter().all(|f| detected(f)))
            .unwrap_or(SimdTier::None)
    })
}

/// Whether this host has any SIMD tier.
pub fn simd_available() -> bool {
    simd_tier() > SimdTier::None
}

/// Comma-separated list of the CPU features any tier gates on that this
/// host actually reports (empty off x86_64).
pub fn cpu_features() -> String {
    let reported: Vec<&str> = SimdTier::Avx512Fp16
        .features()
        .iter()
        .copied()
        .filter(|f| detected(f))
        .collect();
    reported.join(",")
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
        // SAFETY: `simd_available()` verified avx2 above; panel lengths
        // verified by the assert.
        unsafe { x86::tile_f32(acc, pa, pb, kc) };
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (acc, pa, pb, kc);
        false
    }
}

/// What every tier tile below promises its body: the host runs `tier`,
/// and the panels hold `kc` rows of an `MR × nr` tile.
#[cfg(target_arch = "x86_64")]
fn check_tile(tier: SimdTier, (pa, pb): (usize, usize), kc: usize, nr: usize) {
    assert!(simd_tier() >= tier, "no {tier:?} tier on this host");
    assert!(pa >= kc * MR && pb >= kc * nr, "panels short of kc = {kc}");
}

/// One F16 register tile of the AVX512-FP16 tier: `acc[r][x] =
/// pa[p*MR+r].mul_add(pb[p*64+x], acc[r][x])` for `p` in `0..kc`, on
/// `vfmadd231ph`.
#[cfg(target_arch = "x86_64")]
pub(crate) fn tile_f16_fp16(acc: &mut [[F16; NR_FP16]; MR], pa: &[F16], pb: &[F16], kc: usize) {
    check_tile(SimdTier::Avx512Fp16, (pa.len(), pb.len()), kc, NR_FP16);
    // SAFETY: `check_tile` verified the tier's features; the body is
    // safe code.
    unsafe { x86::tile_f16_fp16(acc, pa, pb, kc) }
}

/// One QUInt8 register tile of the AVX2 tier: exact `i16 × i16 → i32`
/// accumulation over `kc` K-pair panel rows, `kc` a multiple of
/// [`KSTEP_I16`].
#[cfg(target_arch = "x86_64")]
pub(crate) fn tile_i16_avx2(acc: &mut [[i32; NR_AVX2]; MR], pa: &[i16], pb: &[i16], kc: usize) {
    assert_eq!(kc % KSTEP_I16, 0, "panel depth not padded to the K step");
    check_tile(SimdTier::Avx2, (pa.len(), pb.len()), kc, NR_AVX2);
    // SAFETY: `check_tile` verified the tier's features and the panel
    // lengths; the even depth is asserted above.
    unsafe { x86::tile_i16_avx2(acc, pa, pb, kc) }
}

/// [`tile_i16_avx2`] at the AVX-512 tier's width, on `vpdpwssd`.
#[cfg(target_arch = "x86_64")]
pub(crate) fn tile_i16_vnni(acc: &mut [[i32; NR_AVX512]; MR], pa: &[i16], pb: &[i16], kc: usize) {
    assert_eq!(kc % KSTEP_I16, 0, "panel depth not padded to the K step");
    check_tile(SimdTier::Avx512, (pa.len(), pb.len()), kc, NR_AVX512);
    // SAFETY: `check_tile` verified the tier's features and the panel
    // lengths; the even depth is asserted above.
    unsafe { x86::tile_i16_vnni(acc, pa, pb, kc) }
}

/// The F16 GEMM row epilogue: add the (already narrowed) bias, then
/// ReLU. With `simd` on an F16C host the bulk runs eight lanes at a
/// time, bit-identical to the scalar loop that finishes (or, elsewhere,
/// does) the job.
#[inline]
pub(crate) fn f16_bias_relu(simd: bool, row: &mut [F16], bias: Option<F16>, relu: bool) {
    let done = if simd && simd_available() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `simd_available()` verified avx2+f16c just above.
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
        // SAFETY: `simd_available()` verified avx2 just above; the body
        // is safe code.
        return unsafe { x86::mac_row_u8(acc, x, stride, w, zp) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
    mac_row_u8_body(acc, x, stride, w, zp);
}

/// The direct F16 depthwise row update, `acc[i] = w.mul_add(x[i *
/// stride], acc[i])` for every `i` in `0..acc.len()`: one
/// [`F16::mul_add`] per element, bit-identical either way. With `simd`
/// on an AVX512-FP16 host, strides 1 and 2 run on `vfmadd231ph`, 32
/// lanes per step.
///
/// # Panics
///
/// Panics if `x` is shorter than `(acc.len() - 1) * stride + 1`.
#[inline]
pub(crate) fn mac_row_f16(simd: bool, acc: &mut [F16], x: &[F16], stride: usize, w: F16) {
    if acc.is_empty() {
        return;
    }
    let x = &x[..(acc.len() - 1) * stride + 1];
    #[cfg(target_arch = "x86_64")]
    if simd && stride <= 2 && simd_tier() >= SimdTier::Avx512Fp16 {
        // SAFETY: the tier check verified avx512f/bw/fp16; the body is
        // safe code.
        return unsafe { x86::mac_row_f16(acc, x, stride, w) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
    for (a, &v) in acc.iter_mut().zip(x.iter().step_by(stride)) {
        *a = w.mul_add(v, *a);
    }
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

    /// Panel depths: unit, the smallest K pair, odd ones, a full panel.
    const KCS: [usize; 6] = [1, 2, 3, 7, 255, 256];

    /// A tile body: `MR × W` accumulators of `T`, panels of `A` and `B`.
    type Tile<T, A, B, const W: usize> = fn(&mut [[T; W]; MR], &[A], &[B], usize);

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
        // Tiles continue the running sums of `C`, so each depth starts
        // from zero and from a seeded accumulator.
        for (kc, seeded) in KCS.into_iter().flat_map(|kc| [(kc, false), (kc, true)]) {
            let pa: Vec<f32> = (0..kc * MR).map(pseudo).collect();
            let pb: Vec<f32> = (0..kc * NR).map(|i| pseudo(i + 97)).collect();
            let mut want = [[0.0f32; NR]; MR];
            if seeded {
                for (i, cell) in want.iter_mut().flatten().enumerate() {
                    *cell = pseudo(i + 41) * 300.0;
                }
            }
            let mut got = want;
            scalar_f32(&mut want, &pa, &pb, kc);
            if tile_f32(&mut got, &pa, &pb, kc) {
                let bits = |t: &[[f32; NR]; MR]| t.map(|row| row.map(f32::to_bits));
                assert_eq!(bits(&got), bits(&want), "kc={kc} seeded={seeded}");
            } else {
                assert!(!simd_available());
            }
        }
    }

    /// F16 tile operands: ordinary values, subnormals, the pair 2⁻¹¹ and
    /// 1 + 2⁻¹⁰ whose sums land on narrowing ties and, with `huge`, the
    /// values whose products overflow to ∞.
    fn f16_operands(n: usize, seed: usize, huge: bool) -> Vec<F16> {
        let edge = [
            0x0001u16, 0x8001, 0x03ff, 0x0400, 0x1000, 0x3c00, 0x3c01, 0xbc00,
        ];
        let big = [0x7bffu16, 0xfbff, 0x7800];
        (0..n)
            .map(|i| match (i * 7 + seed) % 5 {
                0 => F16::from_bits(edge[(i + seed) % edge.len()]),
                1 if huge => F16::from_bits(big[(i + seed) % big.len()]),
                _ => F16::from_f32(pseudo(i + seed) * 2.0),
            })
            .collect()
    }

    /// Accumulator starts for the F16 tiles, which continue the running
    /// sums of `C`: zero, ordinary values and subnormals, then the
    /// largest finite values and the infinities.
    fn f16_starts<const W: usize>() -> [[[F16; W]; MR]; 3] {
        let edge = [0x0001u16, 0x83ff, 0x7bff, 0xfbff, 0x7c00, 0xfc00];
        let ordinary = f16_operands(MR * W, 9, false);
        let (mut seeded, mut rails) = ([[F16::ZERO; W]; MR], [[F16::ZERO; W]; MR]);
        for (i, cell) in seeded.iter_mut().flatten().enumerate() {
            *cell = ordinary[i];
        }
        for (i, cell) in rails.iter_mut().flatten().enumerate() {
            *cell = F16::from_bits(edge[i % edge.len()]);
        }
        [[[F16::ZERO; W]; MR], seeded, rails]
    }

    /// `tile`, an `MR × W` F16 tile body, against per-MAC `F16::mul_add`
    /// from each of [`f16_starts`]. NaNs (inf − inf after an overflow)
    /// compare as NaNs: their payloads may differ.
    fn check_f16_tile<const W: usize>(tile: Tile<F16, F16, F16, W>) {
        for (kc, huge) in KCS.into_iter().flat_map(|kc| [(kc, false), (kc, true)]) {
            let pa = f16_operands(kc * MR, 1, huge);
            let pb = f16_operands(kc * W, 5, huge);
            for (s, start) in f16_starts::<W>().into_iter().enumerate() {
                let (mut want, mut got) = (start, start);
                for p in 0..kc {
                    for (r, row) in want.iter_mut().enumerate() {
                        for (x, cell) in row.iter_mut().enumerate() {
                            *cell = pa[p * MR + r].mul_add(pb[p * W + x], *cell);
                        }
                    }
                }
                tile(&mut got, &pa, &pb, kc);
                for (g, w) in got.iter().flatten().zip(want.iter().flatten()) {
                    let same = g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
                    assert!(same, "W={W} kc={kc} huge={huge} start={s}: {g:?} vs {w:?}");
                }
            }
        }
    }

    /// One MAC per cell on near ties: `a = 1 + 2⁻⁸` times `b = 1.125 ·
    /// 2^j` lies exactly on a binary16 tie, and a start of `±2⁻²⁴`
    /// decides it. An FMA that rounds to f32 first loses the `±2⁻²⁴`.
    fn check_f16_tile_near_ties<const W: usize>(tile: Tile<F16, F16, F16, W>) {
        let (h, a) = (F16::from_bits, F16::from_bits(0x3c04));
        let b: [F16; W] = std::array::from_fn(|x| h(0x3c80 + 0x100 * (x % 16) as u16));
        let mut got = [std::array::from_fn(|x| h([0x0001, 0x8001][x % 2])); MR];
        let c = got[0];
        tile(&mut got, &[a; MR], &b, 1);
        for (x, &g) in got.iter().flatten().enumerate() {
            let (b, c) = (b[x % W], c[x % W]);
            let twice = F16::from_f32(a.to_f32().mul_add(b.to_f32(), c.to_f32()));
            assert_ne!(
                twice.to_bits(),
                a.mul_add(b, c).to_bits(),
                "{b:?} is no near tie"
            );
            assert_eq!(g.to_bits(), a.mul_add(b, c).to_bits(), "W={W} x={x}");
        }
    }

    #[test]
    fn f16_tile_bit_identical_to_scalar_mul_add() {
        #[cfg(target_arch = "x86_64")]
        if simd_tier() >= SimdTier::Avx512Fp16 {
            check_f16_tile(tile_f16_fp16);
            check_f16_tile_near_ties(tile_f16_fp16);
        }
    }

    /// `tile`, an `MR × W` QUInt8 tile body over K-pair panels, against
    /// exact `i32` sums of the logical operands at the ±255 extremes the
    /// overflow bound is stated for, then with every operand at a rail
    /// over a whole `KC` panel: the largest sums a panel can hold.
    fn check_i16_tile<const W: usize>(tile: Tile<i32, i16, i16, W>) {
        // A seeded start stands for the sums of earlier panels, which a
        // tile continues: up to ±2²⁸, as deep layers carry them.
        let mut seeded = [[0i32; W]; MR];
        for (i, cell) in seeded.iter_mut().flatten().enumerate() {
            *cell = ((i * 2654435761) % (1 << 29)) as i32 - (1 << 28);
        }
        for (kc, start) in KCS
            .into_iter()
            .flat_map(|kc| [(kc, [[0i32; W]; MR]), (kc, seeded)])
        {
            let a: Vec<i16> = (0..kc * MR)
                .map(|i| ((i * 48271) % 511) as i16 - 255)
                .collect();
            let b: Vec<i16> = (0..kc * W)
                .map(|i| ((i * 16807) % 511) as i16 - 255)
                .collect();
            let kc_pad = kc.next_multiple_of(KSTEP_I16);
            let (mut pa, mut pb) = (vec![0i16; kc_pad * MR], vec![0i16; kc_pad * W]);
            let (mut want, mut got) = (start, start);
            for k in 0..kc {
                let (g, s) = (k / KSTEP_I16, k % KSTEP_I16);
                for r in 0..MR {
                    pa[r * kc_pad + k] = a[k * MR + r];
                }
                for x in 0..W {
                    pb[(g * W + x) * KSTEP_I16 + s] = b[k * W + x];
                }
                for (r, row) in want.iter_mut().enumerate() {
                    for (x, cell) in row.iter_mut().enumerate() {
                        *cell += a[k * MR + r] as i32 * b[k * W + x] as i32;
                    }
                }
            }
            tile(&mut got, &pa, &pb, kc_pad);
            assert_eq!(got, want, "W={W} kc={kc} start={}", start[0][0]);
        }
        let kc = crate::blocked::KC;
        for (av, bv) in [(255i16, 255i16), (-255, 255), (-255, -255)] {
            let mut got = [[0i32; W]; MR];
            tile(&mut got, &vec![av; kc * MR], &vec![bv; kc * W], kc);
            let want = kc as i32 * av as i32 * bv as i32;
            assert!(
                got.iter().flatten().all(|&v| v == want),
                "W={W} {av} x {bv}"
            );
        }
    }

    #[test]
    fn i16_tile_exactly_matches_scalar() {
        #[cfg(target_arch = "x86_64")]
        {
            if simd_tier() >= SimdTier::Avx2 {
                check_i16_tile(tile_i16_avx2);
            }
            if simd_tier() >= SimdTier::Avx512 {
                check_i16_tile(tile_i16_vnni);
            }
        }
    }

    /// Binary16 values that stress the row epilogue: both zeros, the
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
            let bits = |v: &[F16]| v.iter().map(|h| h.to_bits()).collect::<Vec<_>>();
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

    /// The features the resolved tier requires are a subset of the ones
    /// `cpu_features` reports, so a recorded run names what produced it.
    #[test]
    fn feature_report_is_consistent() {
        let features = cpu_features();
        let reported: Vec<&str> = features.split(',').filter(|f| !f.is_empty()).collect();
        for f in simd_tier().features() {
            assert!(
                reported.contains(f),
                "{:?} needs {f}, reported {features}",
                simd_tier()
            );
        }
        assert_eq!(simd_available(), simd_tier() != SimdTier::None);
        // The FP16 rung's feature is reported exactly when the host has it.
        assert!(SimdTier::Avx512Fp16.features().contains(&"avx512fp16"));
        assert!(!SimdTier::Avx512.features().contains(&"avx512fp16"));
        assert_eq!(reported.contains(&"avx512fp16"), detected("avx512fp16"));
    }
}
