//! Cache-blocked, packed GEMM micro-kernels.
//!
//! A GEMM that walks `C` one row at a time streams the whole `B` matrix
//! from memory once per row of `A` — fine as a numerics oracle (the test
//! suites keep one), hostile to real caches. These kernels implement the
//! standard GotoBLAS/gemmlowp structure the paper's backends (ACL,
//! gemmlowp) use on device:
//!
//! - `K` is cut into panels of [`KC`] so one packed `A`-panel and one
//!   packed `B`-panel fit in cache together;
//! - within a panel, `A` is packed into `MR`-row interleaved micro-panels
//!   and `B` into `nr`-column micro-panels, so the inner loop reads both
//!   operands contiguously. `B` is packed [`NC`] columns at a time and
//!   every `A` micro-panel runs against a `B` micro-panel while it is
//!   cache-hot;
//! - an `MR × nr` register-tile accumulator takes one multiply-add per
//!   operand pair before anything is written back.
//!
//! Pack buffers come from a [`ScratchArena`], so steady-state execution
//! does not allocate.
//!
//! ## Tile geometry
//!
//! The panel layout is a property of the register tile that reads it,
//! and the tile follows the thread's SIMD tier ([`crate::simd`]). The
//! scalar tiles use the plain `MR × NR = 4 × 8` layout: `pa[p·MR + r]`,
//! `pb[p·NR + x]`. The SIMD QUInt8 tiles — `4 × 16` (AVX2) and `4 × 32`
//! (AVX-512) — read **K-pair** panels, two consecutive `k` per 32-bit
//! lane: `B` interleaved, `pb[(g·w + x)·2 + s]` for `k = 2g + s`, `A`
//! with each row contiguous, `pa[r·kc_pad + k]`, an odd `kc`
//! zero-padded — so one `vpmaddwd` / `vpdpwssd` multiplies operand pairs
//! and pair-sums them into `i32` lanes. Operands are zero-point-
//! subtracted, so a padded lane is a true zero and the pad is exact. The
//! F16 tiles — scalar, and `4 × 64` on AVX512-FP16 — read the plain
//! layout with both panels packed as binary16: the pack is a copy, and
//! the FP16 tile broadcasts each `A` element's 16 bits. Each GEMM
//! matches on the tier and instantiates the one walk below per geometry.
//!
//! ## Determinism and equivalence
//!
//! Every tile *continues* the running sums of `C`: it loads the live
//! part of `C` under its span into the register tile, runs the panel's
//! MACs on top, and stores the tile back. So each element of `C` takes
//! its `K` products in one ascending chain across all panels — exactly
//! the chain of the naive one-row-at-a-time loop (`tests/common/gemm.rs`)
//! — and the result is **bit-identical** to it for every shape and
//! dtype: the same `acc += a * b` sequence for f32, the same chain of
//! binary16 FMAs, each rounded once, for F16, the same single `i32`
//! accumulation chain
//! for QUInt8 (Jacob et al.'s integer-only inference). Blocking,
//! packing, the tile width, the SIMD tier and how many worker threads
//! split the output rows cannot perturb a single bit.
//!
//! The register-tile inner loops dispatch per thread
//! ([`crate::dispatch::set_kernel_path`]) to the scalar tiles here or to
//! the SIMD tiles of [`crate::simd`], which perform the same operations
//! in the same order; the path choice changes speed, never results.

use utensor::requantize_into;
use utensor::{FixedPointMultiplier, QuantParams, TensorError, F16};

use crate::arena::ScratchArena;
use crate::dispatch::active_tier;
use crate::simd::{self, SimdTier};

/// `K`-panel size: accumulation association is fixed by this constant.
pub const KC: usize = 256;
/// Register-tile rows (output channels per micro-kernel).
pub const MR: usize = 4;
/// Register-tile columns (output positions per micro-kernel) of the
/// scalar tiles. The SIMD QUInt8 and F16 tiles are wider
/// (`crate::simd`).
pub const NR: usize = 8;
/// Columns of `B` packed per pass (a multiple of every tile width): one
/// packed block is `KC × NC` elements, small enough to stay in L2 while
/// every row tile of `A` runs against it.
pub(crate) const NC: usize = 256;

/// Packs columns `j0..j1` of the `B` panel rows `p0..p0+kc` into
/// `nr`-column micro-panels, `KS` consecutive `k` interleaved per lane
/// (`pb[(g·nr + x)·KS + s]` for `k = g·KS + s`). The right edge and an
/// odd `kc` are padded with `zero`.
#[allow(clippy::too_many_arguments)]
fn pack_b<S: Copy, T: Copy, const KS: usize>(
    pb: &mut Vec<T>,
    b: &[S],
    n: usize,
    (j0, j1): (usize, usize),
    (p0, kc): (usize, usize),
    nr: usize,
    zero: T,
    conv: impl Fn(S) -> T,
) {
    let panel_len = kc.next_multiple_of(KS) * nr;
    pb.clear();
    pb.resize((j1 - j0).div_ceil(nr) * panel_len, zero);
    for (jt, panel) in pb.chunks_exact_mut(panel_len).enumerate() {
        let c0 = j0 + jt * nr;
        let jw = nr.min(j1 - c0);
        for (g, lanes) in panel.chunks_exact_mut(nr * KS).enumerate() {
            for s in 0..KS.min(kc - g * KS) {
                let row = (p0 + g * KS + s) * n + c0;
                for (dst, &v) in lanes[s..].iter_mut().step_by(KS).zip(&b[row..row + jw]) {
                    *dst = conv(v);
                }
            }
        }
    }
}

/// Packs the `A` panel columns `p0..p0+kc` into `MR`-row micro-panels,
/// padded with `zero` on the bottom edge; `conv` converts one row segment
/// (at most [`KC`] elements) slice to slice. The plain layout (`KS == 1`)
/// interleaves the rows, `pa[p·MR + r]`; the K-pair layout (`KS == 2`)
/// keeps each row contiguous, `pa[r·kc_pad + p]` with `kc_pad` the depth
/// rounded up to even — consecutive `k` are already adjacent there, the
/// pack is a straight widening copy, and the tile reads four row
/// streams instead of one interleaved one.
///
/// Kept out of line: it runs once per `K` panel, and inlined into
/// [`for_each_tile`] its row buffer changed the code generated for the
/// tile walk around it (QUInt8 GEMM 0.55 → 0.74 ms on 32 × 144 × 3136).
#[inline(never)]
fn pack_a<S: Copy, T: Copy, const KS: usize>(
    pa: &mut Vec<T>,
    a: &[S],
    (m, k): (usize, usize),
    (p0, kc): (usize, usize),
    zero: T,
    conv: impl Fn(&mut [T], &[S]),
) {
    let kc_pad = kc.next_multiple_of(KS);
    pa.clear();
    pa.resize(m.div_ceil(MR) * kc_pad * MR, zero);
    let mut converted = [zero; KC];
    for (it, panel) in pa.chunks_exact_mut(kc_pad * MR).enumerate() {
        let i0 = it * MR;
        for r in 0..MR.min(m - i0) {
            let row = &a[(i0 + r) * k + p0..(i0 + r) * k + p0 + kc];
            if KS == 1 {
                conv(&mut converted[..kc], row);
                for (dst, &v) in panel[r..].iter_mut().step_by(MR).zip(&converted[..kc]) {
                    *dst = v;
                }
            } else {
                conv(&mut panel[r * kc_pad..r * kc_pad + kc], row);
            }
        }
    }
}

/// The rows and columns of `C` one register tile covers.
#[derive(Clone, Copy)]
struct TileSpan {
    i0: usize,
    iw: usize,
    j0: usize,
    jw: usize,
}

impl TileSpan {
    /// Where the live part of tile row `r` sits in a row-major `m × n`
    /// matrix.
    fn row(&self, r: usize, n: usize) -> std::ops::Range<usize> {
        let start = (self.i0 + r) * n + self.j0;
        start..start + self.jw
    }
}

/// The blocked loop nest shared by every dtype: for each `K` panel in
/// ascending order, pack `A`, then for each [`NC`]-column block pack `B`
/// and run every (`MR`-row, `NRT`-column) micro-panel pair through
/// `tile` with the padded panel depth. Each tile starts from the live
/// part of `c` under its span (pad lanes zero) and is stored back, so
/// every element of `c` continues one accumulation chain from panel to
/// panel; `c` must hold the chains' starting values (zeros).
#[allow(clippy::too_many_arguments)]
fn for_each_tile<
    SA: Copy,
    SB: Copy,
    TA: Copy,
    TB: Copy,
    TC: Copy,
    const NRT: usize,
    const KS: usize,
>(
    c: &mut [TC],
    (m, k, n): (usize, usize, usize),
    a: &[SA],
    b: &[SB],
    (pa, pb): (&mut Vec<TA>, &mut Vec<TB>),
    (zero_a, zero_b, zero_c): (TA, TB, TC),
    conv_a: impl Fn(&mut [TA], &[SA]),
    conv_b: impl Fn(SB) -> TB,
    tile: impl Fn(&mut [[TC; NRT]; MR], &[TA], &[TB], usize),
) {
    debug_assert_eq!(NC % NRT, 0, "NC must be a multiple of the tile width");
    let mut p0 = 0;
    while p0 < k {
        let kc = KC.min(k - p0);
        let kc_pad = kc.next_multiple_of(KS);
        pack_a::<_, _, KS>(pa, a, (m, k), (p0, kc), zero_a, &conv_a);
        for jb in (0..n).step_by(NC) {
            let jb_end = n.min(jb + NC);
            pack_b::<_, _, KS>(pb, b, n, (jb, jb_end), (p0, kc), NRT, zero_b, &conv_b);
            for (jt, pb_panel) in pb.chunks_exact(kc_pad * NRT).enumerate() {
                let j0 = jb + jt * NRT;
                for (it, pa_panel) in pa.chunks_exact(kc_pad * MR).enumerate() {
                    let span = TileSpan {
                        i0: it * MR,
                        iw: MR.min(m - it * MR),
                        j0,
                        jw: NRT.min(n - j0),
                    };
                    let mut acc = [[zero_c; NRT]; MR];
                    for (r, row) in acc.iter_mut().enumerate().take(span.iw) {
                        row[..span.jw].copy_from_slice(&c[span.row(r, n)]);
                    }
                    tile(&mut acc, pa_panel, pb_panel, kc_pad);
                    for (r, row) in acc.iter().enumerate().take(span.iw) {
                        c[span.row(r, n)].copy_from_slice(&row[..span.jw]);
                    }
                }
            }
        }
        p0 += kc;
    }
}

/// Blocked f32 GEMM, `C[m×n] = A[m×k] × B[k×n] (+ bias[m]) (then ReLU)`,
/// writing into a caller-provided `m*n` buffer (overwritten).
#[allow(clippy::too_many_arguments)]
pub fn gemm_f32_blocked(
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    relu: bool,
    arena: &mut ScratchArena,
) {
    assert_eq!(a.len(), m * k, "gemm_f32_blocked: A length");
    assert_eq!(b.len(), k * n, "gemm_f32_blocked: B length");
    assert_eq!(c.len(), m * n, "gemm_f32_blocked: C length");
    if let Some(bias) = bias {
        assert_eq!(bias.len(), m, "gemm_f32_blocked: bias length");
    }
    c.iter_mut().for_each(|v| *v = 0.0);
    let simd = active_tier() > SimdTier::None;
    for_each_tile::<_, _, _, _, _, NR, 1>(
        c,
        (m, k, n),
        a,
        b,
        (&mut arena.pack_a_f32, &mut arena.pack_b_f32),
        (0.0f32, 0.0f32, 0.0f32),
        |dst, row| dst.copy_from_slice(row),
        |v| v,
        |acc, pa, pb, kc| {
            if simd && simd::tile_f32(acc, pa, pb, kc) {
                return;
            }
            for p in 0..kc {
                let avals = &pa[p * MR..(p + 1) * MR];
                let bvals = &pb[p * NR..(p + 1) * NR];
                for (r, &ar) in avals.iter().enumerate() {
                    for (x, &bv) in bvals.iter().enumerate() {
                        acc[r][x] += ar * bv;
                    }
                }
            }
        },
    );
    for i in 0..m {
        let row = &mut c[i * n..(i + 1) * n];
        if let Some(bias) = bias {
            for cv in row.iter_mut() {
                *cv += bias[i];
            }
        }
        if relu {
            for cv in row.iter_mut() {
                if *cv < 0.0 {
                    *cv = 0.0;
                }
            }
        }
    }
}

/// Blocked F16 GEMM writing into a caller-provided `m*n` buffer. Every
/// MAC is one binary16 fused multiply-add ([`F16::mul_add`], rounded
/// once); the f32 bias is narrowed once.
#[allow(clippy::too_many_arguments)]
pub fn gemm_f16_blocked(
    c: &mut [F16],
    m: usize,
    k: usize,
    n: usize,
    a: &[F16],
    b: &[F16],
    bias: Option<&[f32]>,
    relu: bool,
    arena: &mut ScratchArena,
) {
    assert_eq!(a.len(), m * k, "gemm_f16_blocked: A length");
    assert_eq!(b.len(), k * n, "gemm_f16_blocked: B length");
    assert_eq!(c.len(), m * n, "gemm_f16_blocked: C length");
    if let Some(bias) = bias {
        assert_eq!(bias.len(), m, "gemm_f16_blocked: bias length");
    }
    c.iter_mut().for_each(|v| *v = F16::ZERO);
    let tier = active_tier();
    let dims = (m, k, n);
    match tier {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512Fp16 => f16_panels(c, dims, a, b, arena, simd::tile_f16_fp16),
        _ => f16_panels::<NR>(c, dims, a, b, arena, |acc, pa, pb, kc| {
            for p in 0..kc {
                let avals = &pa[p * MR..(p + 1) * MR];
                let bvals = &pb[p * NR..(p + 1) * NR];
                for (r, &ar) in avals.iter().enumerate() {
                    for (x, &bv) in bvals.iter().enumerate() {
                        acc[r][x] = ar.mul_add(bv, acc[r][x]);
                    }
                }
            }
        }),
    }
    let simd = tier > SimdTier::None;
    for (i, row) in c.chunks_exact_mut(n.max(1)).enumerate() {
        let hb = bias.map(|b| F16::from_f32(b[i]));
        simd::f16_bias_relu(simd, row, hb, relu);
    }
}

/// The F16 panel walk for an `MR × NRT` tile: both panels packed as
/// binary16, the plain layout.
fn f16_panels<const NRT: usize>(
    c: &mut [F16],
    dims: (usize, usize, usize),
    a: &[F16],
    b: &[F16],
    arena: &mut ScratchArena,
    tile: impl Fn(&mut [[F16; NRT]; MR], &[F16], &[F16], usize),
) {
    for_each_tile::<_, _, _, _, _, NRT, 1>(
        c,
        dims,
        a,
        b,
        (&mut arena.pack_a_f16, &mut arena.pack_b_f16),
        (F16::ZERO, F16::ZERO, F16::ZERO),
        |dst, row| dst.copy_from_slice(row),
        |v| v,
        tile,
    );
}

/// Blocked QUInt8 GEMM with gemmlowp semantics, writing into a
/// caller-provided `m*n` buffer: zero points subtracted, products summed
/// in `i32`, the f32 bias scaled into the accumulator domain, the sums
/// requantized to `out_params` (clamped at the output zero point with
/// `relu`).
///
/// Operands are packed zero-point-subtracted into `i16` (the gemmlowp
/// trick: `u8 - zero_point` always fits in `i16`, and `i16 × i16`
/// products accumulate exactly in `i32`).
#[allow(clippy::too_many_arguments)]
pub fn gemm_quint8_blocked(
    c: &mut [u8],
    m: usize,
    k: usize,
    n: usize,
    a: &[u8],
    a_params: QuantParams,
    b: &[u8],
    b_params: QuantParams,
    bias: Option<&[f32]>,
    out_params: QuantParams,
    relu: bool,
    arena: &mut ScratchArena,
) -> Result<(), TensorError> {
    assert_eq!(a.len(), m * k, "gemm_quint8_blocked: A length");
    assert_eq!(b.len(), k * n, "gemm_quint8_blocked: B length");
    assert_eq!(c.len(), m * n, "gemm_quint8_blocked: C length");
    if let Some(bias) = bias {
        assert_eq!(bias.len(), m, "gemm_quint8_blocked: bias length");
    }
    let acc_scale = a_params.scale as f64 * b_params.scale as f64;
    if acc_scale <= 0.0 || !acc_scale.is_finite() {
        return Err(TensorError::BadQuantParams(format!(
            "accumulator scale {acc_scale} invalid"
        )));
    }
    let multiplier = FixedPointMultiplier::from_real(acc_scale / out_params.scale as f64)?;
    let zps = (a_params.zero_point as i16, b_params.zero_point as i16);

    arena.acc_i32.clear();
    arena.acc_i32.resize(m * n, 0);
    let dims = (m, k, n);
    match active_tier() {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 | SimdTier::Avx512Fp16 => {
            quint8_panels::<_, { simd::KSTEP_I16 }>(dims, a, b, zps, arena, simd::tile_i16_vnni)
        }
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => {
            quint8_panels::<_, { simd::KSTEP_I16 }>(dims, a, b, zps, arena, simd::tile_i16_avx2)
        }
        _ => quint8_panels::<NR, 1>(dims, a, b, zps, arena, |tile, pa, pb, kc| {
            for p in 0..kc {
                let avals = &pa[p * MR..(p + 1) * MR];
                let bvals = &pb[p * NR..(p + 1) * NR];
                for (r, &ar) in avals.iter().enumerate() {
                    let ar = ar as i32;
                    if ar == 0 {
                        continue;
                    }
                    for (x, &bv) in bvals.iter().enumerate() {
                        tile[r][x] += ar * bv as i32;
                    }
                }
            }
        }),
    }
    for i in 0..m {
        let qb = bias.map_or(0, |b| (b[i] as f64 / acc_scale).round() as i32);
        requantize_into(
            &mut c[i * n..(i + 1) * n],
            &arena.acc_i32[i * n..(i + 1) * n],
            qb,
            &multiplier,
            out_params.zero_point,
            relu,
        );
    }
    Ok(())
}

/// The QUInt8 panel walk for an `MR × NRT` tile over `KS`-interleaved
/// panels, accumulating into `arena.acc_i32` (`m × n`, pre-zeroed).
/// Operands are packed with the zero point pre-subtracted, so padded
/// lanes (value 0) contribute nothing to the `i32` accumulators.
fn quint8_panels<const NRT: usize, const KS: usize>(
    dims: (usize, usize, usize),
    a: &[u8],
    b: &[u8],
    (a_zp, b_zp): (i16, i16),
    arena: &mut ScratchArena,
    tile: impl Fn(&mut [[i32; NRT]; MR], &[i16], &[i16], usize),
) {
    for_each_tile::<_, _, _, _, _, NRT, KS>(
        &mut arena.acc_i32,
        dims,
        a,
        b,
        (&mut arena.pack_a_i16, &mut arena.pack_b_i16),
        (0i16, 0i16, 0i32),
        |dst, row| {
            for (d, &v) in dst.iter_mut().zip(row) {
                *d = v as i16 - a_zp;
            }
        },
        |v| v as i16 - b_zp,
        tile,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::gemm::{gemm_f16, gemm_f32, gemm_quint8};

    fn pseudo(i: usize) -> f32 {
        (((i * 2654435761) % 997) as f32 - 498.0) / 498.0
    }

    #[test]
    fn f32_blocked_matches_naive_small() {
        // k <= KC: one panel, identical accumulation order, bit-equal.
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (4, 8, 8), (5, 9, 11), (17, 32, 13)] {
            let a: Vec<f32> = (0..m * k).map(pseudo).collect();
            let b: Vec<f32> = (0..k * n).map(|i| pseudo(i + 31)).collect();
            let bias: Vec<f32> = (0..m).map(|i| pseudo(i + 77)).collect();
            let want = gemm_f32(m, k, n, &a, &b, Some(&bias), true);
            let mut got = vec![0.0f32; m * n];
            let mut arena = ScratchArena::new();
            gemm_f32_blocked(&mut got, m, k, n, &a, &b, Some(&bias), true, &mut arena);
            assert_eq!(got, want, "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn f32_blocked_multi_panel_is_bit_identical() {
        // k > KC: each tile continues C's running sums across panels, so
        // every element keeps the naive loop's single ascending chain.
        let (m, k, n) = (3, KC * 2 + 17, 5);
        let a: Vec<f32> = (0..m * k).map(pseudo).collect();
        let b: Vec<f32> = (0..k * n).map(|i| pseudo(i + 13)).collect();
        let want = gemm_f32(m, k, n, &a, &b, None, false);
        let mut got = vec![0.0f32; m * n];
        let mut arena = ScratchArena::new();
        gemm_f32_blocked(&mut got, m, k, n, &a, &b, None, false, &mut arena);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn f16_blocked_multi_panel_is_bit_identical() {
        // Adding per-panel binary16 sums would round differently from the
        // per-MAC chain; 5 × 257 × 17 is the smallest shape that showed it.
        for (m, k, n) in [(5, KC + 1, 17), (6, 3 * KC + 9, 33)] {
            let a: Vec<F16> = (0..m * k).map(|i| F16::from_f32(pseudo(i))).collect();
            let b: Vec<F16> = (0..k * n).map(|i| F16::from_f32(pseudo(i + 5))).collect();
            let bias: Vec<f32> = (0..m).map(|i| pseudo(i + 50)).collect();
            let want = gemm_f16(m, k, n, &a, &b, Some(&bias), true);
            let mut got = vec![F16::ZERO; m * n];
            let mut arena = ScratchArena::new();
            gemm_f16_blocked(&mut got, m, k, n, &a, &b, Some(&bias), true, &mut arena);
            let bits = |v: &[F16]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn f16_blocked_matches_naive_small() {
        let (m, k, n) = (6, 40, 9);
        let a: Vec<F16> = (0..m * k).map(|i| F16::from_f32(pseudo(i))).collect();
        let b: Vec<F16> = (0..k * n).map(|i| F16::from_f32(pseudo(i + 5))).collect();
        let bias: Vec<f32> = (0..m).map(|i| pseudo(i + 50)).collect();
        let want = gemm_f16(m, k, n, &a, &b, Some(&bias), false);
        let mut got = vec![F16::ZERO; m * n];
        let mut arena = ScratchArena::new();
        gemm_f16_blocked(&mut got, m, k, n, &a, &b, Some(&bias), false, &mut arena);
        assert_eq!(got, want);
    }

    #[test]
    fn quint8_blocked_bit_identical_even_multi_panel() {
        let (m, k, n) = (5, KC + 33, 7);
        let a: Vec<u8> = (0..m * k).map(|i| (i * 37 % 251) as u8).collect();
        let b: Vec<u8> = (0..k * n).map(|i| (i * 91 % 253) as u8).collect();
        let a_p = QuantParams::from_range(-1.0, 1.0).unwrap();
        let b_p = QuantParams::from_range(-2.0, 2.0).unwrap();
        let out_p = QuantParams::from_range(-40.0, 40.0).unwrap();
        let bias: Vec<f32> = (0..m).map(|i| pseudo(i + 9)).collect();
        let want = gemm_quint8(m, k, n, &a, a_p, &b, b_p, Some(&bias), out_p, true).unwrap();
        let mut got = vec![0u8; m * n];
        let mut arena = ScratchArena::new();
        gemm_quint8_blocked(
            &mut got,
            m,
            k,
            n,
            &a,
            a_p,
            &b,
            b_p,
            Some(&bias),
            out_p,
            true,
            &mut arena,
        )
        .unwrap();
        assert_eq!(got, want);
    }
}
