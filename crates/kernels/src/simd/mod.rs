//! Arch-gated SIMD micro-kernels for the blocked GEMM register tiles and
//! the rows around them.
//!
//! The blocked kernels in [`crate::blocked`] spend essentially all of
//! their time in one place: the register-tile accumulation over a
//! `KC`-panel. This module provides vectorized implementations of that
//! tile loop — plus the F16 bias/ReLU row epilogue, which would otherwise
//! dominate it at small `k`, the QUInt8 requantizer, the K-quad `B` pack
//! and the depthwise strips — so the blocking and epilogue logic (and
//! therefore the accumulation *order*) stays in one canonical scalar
//! place. The panel layout a tile reads is part of the tile (its width
//! below); the packing code follows it.
//!
//! ## Tiers
//!
//! Detection resolves once, per process, to the widest [`SimdTier`] the
//! host has, and the SIMD kernel path runs that tier:
//!
//! - **AVX512-FP16** — `avx512fp16` on top of the AVX-512 tier: a
//!   `8 × 32` F16 tile and the F16 depthwise strip on native binary16
//!   (`vfmadd231ph`), plus everything the AVX-512 tier runs.
//! - **AVX-512** — `avx512f + avx512bw + avx512vnni` on top of the AVX2
//!   tier's features: an `8 × 32` QUInt8 tile on `vpdpbusd` (the weight
//!   rows read in place as `u8`, `B` in `s8` K-quad panels), the row sums
//!   of the weights on `vpsadbw`, the QUInt8 depthwise strip on
//!   `vpdpwssd`, a sixteen-lane requantizer, and `u8` stride-2 max
//!   pooling — which also splits a stride-2 convolution's `u8` rows into
//!   their phase planes — 64 lanes per step.
//! - **AVX2** — `avx2 + fma + f16c`: a `4 × 16` QUInt8 tile on `i16`
//!   K-pair panels and the QUInt8 depthwise strip compiled for AVX2.
//!   Every tier shares the AVX2 f32 tile and F16 row epilogue.
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
//!   `vfmadd231ph` is that operation. `A` is read as binary16 in place.
//!   Identical for all finite values and infinities; NaN *payloads* may
//!   differ from the software path (both are quiet NaNs), which no
//!   kernel contract observes.
//! - QUInt8 sums integers in wrapping `i32` lanes: `i16 × i16` products
//!   of zero-point-subtracted operands (AVX2), or `u8 × s8` products of
//!   the raw weights and the activations minus 128 plus the zero-point
//!   terms [`crate::blocked`] adds (AVX-512). Integer arithmetic has no
//!   rounding and every sum fits `i32` exactly as the scalar one does,
//!   so equality is unconditional; the requantizer is the fixed-point
//!   pipeline of [`utensor::requantize_into`], operation for operation.
//!
//! The differential harness in `tests/equivalence.rs` enforces this
//! contract for every registered path; `ci.sh` runs it twice (forced
//! scalar and auto-detected SIMD). The unit tests below hold every
//! compiled tile body the host can run to the scalar tile directly, so
//! the AVX2 QUInt8 body stays verified on AVX-512 hosts, where no GEMM
//! reaches it; `tests/f16_fma.rs` adds near-tie and random triples.
//! `u8` max pooling is order-free, so its vector body is bit-identical
//! too (`tests/pool_props.rs`).

use std::sync::OnceLock;

use crate::blocked::{MR, NR};
use crate::depthwise::Strip;
use utensor::{FixedPointMultiplier, F16};

#[cfg(target_arch = "x86_64")]
mod x86;

/// Register-tile columns of the AVX2 QUInt8 tile.
pub(crate) const NR_AVX2: usize = 16;
/// Register-tile rows of the AVX-512 (VNNI) QUInt8 tile.
pub(crate) const MR_VNNI: usize = 8;
/// Register-tile columns of the AVX-512 (VNNI) QUInt8 tile.
pub(crate) const NR_VNNI: usize = 32;
/// Register-tile rows of the AVX512-FP16 F16 tile.
pub(crate) const MR_FP16: usize = 8;
/// Register-tile columns of the AVX512-FP16 F16 tile.
pub(crate) const NR_FP16: usize = 32;
/// Consecutive `k` per 32-bit lane of the AVX2 QUInt8 panels (K pairs).
pub(crate) const KSTEP_I16: usize = 2;
/// Consecutive `k` per 32-bit lane of the VNNI QUInt8 panels (K quads).
pub(crate) const KSTEP_U8: usize = 4;
/// Vectors of output lanes per depthwise strip.
pub(crate) const STRIP_RUNS: usize = 8;
/// Elements past a depthwise plane's last window that a strip's vectors
/// may read (a whole strip of F16 vectors).
pub(crate) const STRIP_SLACK: usize = STRIP_RUNS * STRIP_LANES_F16;
/// Output lanes per vector of a QUInt8 or f32 depthwise strip (one zmm
/// of `i32`).
pub(crate) const STRIP_LANES_I32: usize = 16;
/// Output lanes per vector of an F16 depthwise strip (one zmm of
/// binary16).
pub(crate) const STRIP_LANES_F16: usize = 32;

/// The `R` rows of `W` accumulators a register tile reads and writes
/// where they lie: rows of the GEMM's `C` block, or an edge tile's
/// scratch.
pub(crate) type TileRows<'t, T, const W: usize, const R: usize> = [&'t mut [T; W]; R];

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
    /// AVX512-FP16 on top of AVX-512: an `8 × 32` native binary16 F16 tile.
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
pub(crate) fn tile_f32(
    acc: &mut TileRows<'_, f32, NR, MR>,
    pa: &[f32],
    pb: &[f32],
    kc: usize,
) -> bool {
    assert!(pa.len() >= kc * MR && pb.len() >= kc * NR);
    if !simd_available() {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `simd_available()` verified avx2 above; the body is
        // safe code.
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
/// and the panels hold `kc` rows of an `mr × nr` tile.
#[cfg(target_arch = "x86_64")]
fn check_tile(tier: SimdTier, (pa, pb): (usize, usize), kc: usize, (mr, nr): (usize, usize)) {
    assert!(simd_tier() >= tier, "no {tier:?} tier on this host");
    assert!(pa >= kc * mr && pb >= kc * nr, "panels short of kc = {kc}");
}

/// One F16 register tile of the AVX512-FP16 tier: `acc[r][x] =
/// rows[r][p].mul_add(b(p)[x], acc[r][x])` for `p` in `0..kc`, on
/// `vfmadd231ph`, both operands read where they lie; `fresh`, it starts
/// from zero instead of `acc`. With `epilogue = Some((bias, relu))` the
/// rows then take `+ bias[r]` (one binary16 add, none without a bias)
/// and `if acc < 0 { 0 }` in registers, bit for bit the scalar
/// epilogue's (NaN payloads aside).
#[cfg(target_arch = "x86_64")]
pub(crate) fn tile_f16_fp16<'b>(
    acc: &mut TileRows<'_, F16, NR_FP16, MR_FP16>,
    rows: [&[F16]; MR_FP16],
    b: impl Fn(usize) -> &'b [F16; NR_FP16],
    (kc, fresh): (usize, bool),
    epilogue: Option<(Option<[F16; MR_FP16]>, bool)>,
) {
    assert!(
        simd_tier() >= SimdTier::Avx512Fp16,
        "no Avx512Fp16 tier on this host"
    );
    // SAFETY: the assert verified the tier's features; the body is safe
    // code (it checks the rows as it trims them).
    unsafe { x86::tile_f16_fp16(acc, rows, b, (kc, fresh), epilogue) }
}

/// One QUInt8 register tile of the AVX2 tier: exact `i16 × i16 → i32`
/// accumulation over `kc` K-pair panel rows, `kc` a multiple of
/// [`KSTEP_I16`].
#[cfg(target_arch = "x86_64")]
pub(crate) fn tile_i16_avx2(
    acc: &mut TileRows<'_, i32, NR_AVX2, MR>,
    pa: &[i16],
    pb: &[i16],
    kc: usize,
) {
    assert_eq!(kc % KSTEP_I16, 0, "panel depth not padded to the K step");
    check_tile(SimdTier::Avx2, (pa.len(), pb.len()), kc, (MR, NR_AVX2));
    // SAFETY: `check_tile` verified the tier's features; the body is
    // safe code.
    unsafe { x86::tile_i16_avx2(acc, pa, pb, kc) }
}

/// One QUInt8 register tile of the AVX-512 tier over `kc` K-quad steps,
/// `kc` a multiple of [`KSTEP_U8`]: `acc[r][x] += Σ_k a(r,k)·b′(k,x)`
/// with `rows[r]` the raw `u8` weights of row `r` from the panel's first
/// `k` (at least `kc` of them) and `pb` the activations minus 128 as
/// `i8`, K quads interleaved, on `vpdpbusd`, wrapping in `i32`; `fresh`,
/// it starts from zero instead of `acc`.
#[cfg(target_arch = "x86_64")]
pub(crate) fn tile_u8_vnni(
    acc: &mut TileRows<'_, i32, NR_VNNI, MR_VNNI>,
    rows: [&[u8]; MR_VNNI],
    pb: &[i8],
    (kc, fresh): (usize, bool),
) {
    assert_eq!(kc % KSTEP_U8, 0, "panel depth not padded to the K step");
    // The rows are checked as the body trims them.
    check_tile(SimdTier::Avx512, (kc, pb.len()), kc, (1, NR_VNNI));
    // SAFETY: `check_tile` verified the tier's features; the body is
    // safe code.
    unsafe { x86::tile_u8_vnni(acc, rows, pb, (kc, fresh)) }
}

/// One `NR_VNNI`-column micro-panel of the VNNI tier's `B` panel, K
/// quad by K quad: group `g` of `dst` gets `dst[g][x] = [r(4g)[x], …,
/// r(4g + 3)[x]]`, `r = row`, each byte of the first `kc` rows minus 128
/// as `i8` (the rows past `kc` are padding, zero), and `sums[x]` gains
/// the rows' raw sum (wrapping), sixteen columns per step.
///
/// # Panics
///
/// Panics unless `dst` holds the quad-padded depth of `kc` rows.
#[cfg(target_arch = "x86_64")]
pub(crate) fn pack_quads<'r>(
    dst: &mut [[[i8; KSTEP_U8]; NR_VNNI]],
    kc: usize,
    row: impl Fn(usize) -> &'r [u8; NR_VNNI],
    sums: &mut [i32; NR_VNNI],
) {
    assert!(
        simd_tier() >= SimdTier::Avx512,
        "no Avx512 tier on this host"
    );
    assert_eq!(dst.len(), kc.div_ceil(KSTEP_U8), "pack_quads: K groups");
    // SAFETY: the asserts verified avx512f/bw; the body is safe code.
    unsafe { x86::pack_quads(dst, kc, row, sums) }
}

/// The sums of the `k`-byte rows of `a` into `sums` (one per row),
/// wrapping in `i32`: the weight terms of the AVX-512 QUInt8 GEMM.
#[cfg(target_arch = "x86_64")]
pub(crate) fn row_sums(a: &[u8], k: usize, sums: &mut [i32]) {
    assert!(
        simd_tier() >= SimdTier::Avx512,
        "no Avx512 tier on this host"
    );
    assert!(k > 0 && a.len() == k * sums.len(), "row sums: lengths");
    // SAFETY: the asserts verified avx512f/bw; the body is safe code.
    unsafe { x86::row_sums(a, k, sums) }
}

/// Stride-2 max pooling of `u8` codes at vector width, the AVX-512
/// tiers only: for each output row `oy` in `0..out_rows` whose window
/// rows `rows(oy)` of the `w`-byte rows of `plane` are not empty, output
/// `i` in `0..len` is the byte max over those rows and over the `kw`
/// taps from column `t0 + 2i`, written to `out[at(oy) + i]`. The rows'
/// max is taken 64 lanes per step and split into its stride phases with
/// AVX-512BW alone; tap `kx` of output `i` is element `i + kx/2` of phase
/// `kx mod 2`. With one row and one tap it is the phase split of a row
/// (column `t0 + 2i`), which lays a stride-2 convolution's phase planes.
/// With `spill` the bytes of `out` after a row's outputs may be
/// overwritten (the caller rewrites them later; pooling writes its rows
/// in order); without, they keep their values.
///
/// # Panics
///
/// Panics unless `kw` is 1, 2 or 3, every tap lies in its row (`t0 +
/// 2·(len − 1) + kw ≤ w`) and every output lies in `out`.
#[cfg(target_arch = "x86_64")]
pub(crate) fn max_taps_s2(
    plane: &[u8],
    (w, out_rows): (usize, usize),
    rows: impl Fn(usize) -> std::ops::Range<usize>,
    (t0, kw, len): (usize, usize, usize),
    (out, at, spill): (&mut [u8], impl Fn(usize) -> usize, bool),
) {
    assert!(
        simd_tier() >= SimdTier::Avx512,
        "no Avx512 tier on this host"
    );
    assert!((1..=3).contains(&kw), "max_taps_s2: 1..=3 taps");
    assert!(
        len == 0 || t0 + 2 * (len - 1) + kw <= w,
        "max_taps_s2: taps past the row"
    );
    // SAFETY: the asserts verified avx512f/bw; the body is safe code.
    unsafe { x86::max_taps_s2(plane, (w, out_rows), rows, (t0, kw, len), (out, at, spill)) }
}

/// [`utensor::requantize_into`], bit for bit: each output is
/// `requantize(acc[i] + terms[i] + bias)` (`terms` empty: no term),
/// floored at the zero point with `relu`, every sum wrapping in `i32`.
/// With `simd` on an AVX-512 host the bulk runs sixteen lanes at a time
/// (for the right shifts and mantissas of utensor's vector body), the
/// terms added in its lanes; the rest, and every other case, is
/// utensor's, sixteen sums at a time where there are terms.
///
/// # Panics
///
/// Panics if `out`, `acc` and a non-empty `terms` differ in length.
#[inline]
pub(crate) fn requantize_into(
    simd: bool,
    out: &mut [u8],
    (acc, terms): (&[i32], &[i32]),
    bias: i32,
    multiplier: &FixedPointMultiplier,
    zero_point: u8,
    relu: bool,
) {
    assert_eq!(out.len(), acc.len(), "requantize_into: length mismatch");
    assert!(
        terms.is_empty() || terms.len() == acc.len(),
        "requantize_into: terms length"
    );
    let vector = (0..=31).contains(&multiplier.right_shift) && multiplier.multiplier >= 0;
    let done = if simd && vector && simd_tier() >= SimdTier::Avx512 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the tier check verified avx512f/bw; the body is safe
        // code.
        unsafe {
            x86::requantize(out, (acc, terms), bias, multiplier, zero_point, relu)
        }
        #[cfg(not(target_arch = "x86_64"))]
        0
    } else {
        0
    };
    let (out, acc) = (&mut out[done..], &acc[done..]);
    if terms.is_empty() {
        return utensor::requantize_into(out, acc, bias, multiplier, zero_point, relu);
    }
    let sums = acc.chunks(16).zip(terms[done..].chunks(16));
    for (out, (acc, terms)) in out.chunks_mut(16).zip(sums) {
        let mut sum = [0i32; 16];
        for (s, (&a, &t)) in sum.iter_mut().zip(acc.iter().zip(terms)) {
            *s = a.wrapping_add(t);
        }
        let sum = &sum[..acc.len()];
        utensor::requantize_into(out, sum, bias, multiplier, zero_point, relu);
    }
}

/// The F16 GEMM row epilogue: add the (already narrowed) bias, then
/// ReLU. With `simd` on an F16C host the bulk runs eight lanes at a
/// time, bit-identical to the scalar loop that finishes (or, elsewhere,
/// does) the job.
#[inline]
pub(crate) fn f16_bias_relu(simd: bool, row: &mut [F16], bias: Option<F16>, relu: bool) {
    let done = if simd && simd_available() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `simd_available()` verified avx2+f16c just above; the
        // body is safe code.
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

/// The QUInt8 depthwise strip: `out[..lanes]` receives `Σ (w − w_zp)·x`
/// over the taps in order, in wrapping `i32` (the caller folds the
/// input zero point out); lanes past them may be overwritten. With
/// `simd`, an AVX-512 host runs it on `vpdpwssd`, an AVX2 host the same
/// loop compiled for AVX2.
///
/// # Panics
///
/// Panics unless the strip fits [`STRIP_RUNS`] vectors of
/// [`STRIP_LANES_I32`] lanes and `out` holds all of them.
#[inline]
pub(crate) fn strip_u8(simd: bool, s: &Strip<'_, u8>, w_zp: i32, out: &mut [i32]) {
    s.check(out.len(), STRIP_LANES_I32);
    #[cfg(target_arch = "x86_64")]
    if simd {
        let tier = simd_tier();
        if tier >= SimdTier::Avx512 {
            // SAFETY: the tier check verified avx512f/bw/vnni; the body
            // is safe code.
            return unsafe { x86::strip_u8_vnni(s, w_zp, out) };
        }
        if tier >= SimdTier::Avx2 {
            // SAFETY: the tier check verified avx2; the body is safe code.
            return unsafe { x86::strip_u8_avx2(s, w_zp, out) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
    strip_u8_body(s, w_zp, out);
}

/// Body of [`strip_u8`], inlined into each instruction-set wrapper.
#[inline(always)]
fn strip_u8_body(s: &Strip<'_, u8>, w_zp: i32, out: &mut [i32]) {
    s.fold(out, 0, |acc, w, x| {
        acc.wrapping_add((w as i32 - w_zp) * x as i32)
    });
}

/// The F16 depthwise strip: `out[..lanes]` receives the chain `acc =
/// w.mul_add(x, acc)` from `+0` over the taps in order, one
/// [`F16::mul_add`] per tap, bit-identical either way; lanes past them
/// may be overwritten. With `simd` on an AVX512-FP16 host it runs on
/// `vfmadd231ph`, one instruction per vector and tap.
///
/// # Panics
///
/// Panics unless the strip fits [`STRIP_RUNS`] vectors of
/// [`STRIP_LANES_F16`] lanes and `out` holds all of them.
#[inline]
pub(crate) fn strip_f16(simd: bool, s: &Strip<'_, F16>, out: &mut [F16]) {
    s.check(out.len(), STRIP_LANES_F16);
    #[cfg(target_arch = "x86_64")]
    if simd && simd_tier() >= SimdTier::Avx512Fp16 {
        // SAFETY: the tier check verified avx512f/bw/fp16; the body is
        // safe code.
        return unsafe { x86::strip_f16(s, out) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
    s.fold(out, F16::ZERO, |acc, w, x| w.mul_add(x, acc));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Panel depths: unit, the smallest K pair, odd ones, a full panel.
    const KCS: [usize; 6] = [1, 2, 3, 7, 255, 256];

    /// A tile body: `MR × W` accumulators of `T`, panels of `A` and `B`.
    type Tile<T, A, B, const W: usize> = fn(&mut TileRows<'_, T, W, MR>, &[A], &[B], usize);

    /// A tile body that reads `A` in place: `R` row streams.
    type RowTile<T, B, const W: usize, const R: usize> =
        fn(&mut TileRows<'_, T, W, R>, [&[T]; R], &[B], (usize, bool));

    /// The `R` rows of the plain panel `pa[p·R + r]`, `kc` deep.
    fn rows_of<T: Copy, const R: usize>(pa: &[T], kc: usize) -> Vec<Vec<T>> {
        (0..R)
            .map(|r| (0..kc).map(|p| pa[p * R + r]).collect())
            .collect()
    }

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
            if tile_f32(&mut got.each_mut(), &pa, &pb, kc) {
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
    fn f16_starts<const W: usize, const R: usize>() -> [[[F16; W]; R]; 3] {
        let edge = [0x0001u16, 0x83ff, 0x7bff, 0xfbff, 0x7c00, 0xfc00];
        let ordinary = f16_operands(R * W, 9, false);
        let (mut seeded, mut rails) = ([[F16::ZERO; W]; R], [[F16::ZERO; W]; R]);
        for (i, cell) in seeded.iter_mut().flatten().enumerate() {
            *cell = ordinary[i];
        }
        for (i, cell) in rails.iter_mut().flatten().enumerate() {
            *cell = F16::from_bits(edge[i % edge.len()]);
        }
        [[[F16::ZERO; W]; R], seeded, rails]
    }

    /// `tile`, an `R × W` F16 tile body, against per-MAC `F16::mul_add`
    /// from each of [`f16_starts`]. NaNs (inf − inf after an overflow)
    /// compare as NaNs: their payloads may differ.
    fn check_f16_tile<const W: usize, const R: usize>(tile: RowTile<F16, F16, W, R>) {
        for (kc, huge) in KCS.into_iter().flat_map(|kc| [(kc, false), (kc, true)]) {
            let pa = f16_operands(kc * R, 1, huge);
            let pb = f16_operands(kc * W, 5, huge);
            let rows = rows_of::<_, R>(&pa, kc);
            for (s, start) in f16_starts::<W, R>().into_iter().enumerate() {
                let (mut want, mut got) = (start, start);
                for p in 0..kc {
                    for (r, row) in want.iter_mut().enumerate() {
                        for (x, cell) in row.iter_mut().enumerate() {
                            *cell = pa[p * R + r].mul_add(pb[p * W + x], *cell);
                        }
                    }
                }
                let rows = std::array::from_fn(|r| &rows[r][..]);
                tile(&mut got.each_mut(), rows, &pb, (kc, false));
                let mut fresh = [[F16::from_bits(0x7e00); W]; R];
                tile(&mut fresh.each_mut(), rows, &pb, (kc, true));
                let mut from_zero = [[F16::ZERO; W]; R];
                tile(&mut from_zero.each_mut(), rows, &pb, (kc, false));
                let bits = |t: &[[F16; W]; R]| t.map(|row| row.map(F16::to_bits));
                assert_eq!(
                    bits(&fresh),
                    bits(&from_zero),
                    "W={W} kc={kc}: fresh read acc"
                );
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
    fn check_f16_tile_near_ties<const W: usize, const R: usize>(tile: RowTile<F16, F16, W, R>) {
        let (h, a) = (F16::from_bits, F16::from_bits(0x3c04));
        let b: [F16; W] = std::array::from_fn(|x| h(0x3c80 + 0x100 * (x % 16) as u16));
        let mut got = [std::array::from_fn(|x| h([0x0001, 0x8001][x % 2])); R];
        let c = got[0];
        tile(&mut got.each_mut(), [&[a][..]; R], &b, (1, false));
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
            let tile: RowTile<F16, F16, NR_FP16, MR_FP16> = |acc, rows, pb, kc_fresh| {
                let step = |p: usize| pb[p * NR_FP16..][..NR_FP16].try_into().expect("a step");
                tile_f16_fp16(acc, rows, step, kc_fresh, None)
            };
            check_f16_tile(tile);
            check_f16_tile_near_ties(tile);
        }
    }

    /// The FP16 tile's in-register epilogue against the tile without one
    /// followed by the scalar row epilogue: biases of both signs and a
    /// negative zero (whose add must not flip a `-0.0` sum), each row's
    /// own, and both ReLU settings, over sums that reach the specials.
    #[test]
    fn fp16_tile_epilogue_matches_the_row_epilogue() {
        #[cfg(target_arch = "x86_64")]
        if simd_tier() >= SimdTier::Avx512Fp16 {
            const R: usize = MR_FP16;
            const W: usize = NR_FP16;
            for kc in [1, 2, 7] {
                let pa = f16_specials(kc * R, 3);
                let pb = f16_specials(kc * W, 8);
                let rows = rows_of::<_, R>(&pa, kc);
                let rows: [&[F16]; R] = std::array::from_fn(|r| &rows[r][..]);
                let step = |p: usize| pb[p * W..][..W].try_into().expect("a step");
                let biases: [F16; R] = f16_specials(R, 5).try_into().expect("R biases");
                let signed_zero = [F16::from_bits(0x8000); R];
                for (bias, relu) in [None, Some(biases), Some(signed_zero)]
                    .into_iter()
                    .flat_map(|b| [(b, false), (b, true)])
                {
                    let mut got = [[F16::ZERO; W]; R];
                    let epilogue = Some((bias, relu));
                    tile_f16_fp16(&mut got.each_mut(), rows, step, (kc, true), epilogue);
                    let mut want = [[F16::ZERO; W]; R];
                    tile_f16_fp16(&mut want.each_mut(), rows, step, (kc, true), None);
                    for (r, row) in want.iter_mut().enumerate() {
                        f16_bias_relu(false, row, bias.map(|b| b[r]), relu);
                    }
                    for (g, w) in got.iter().flatten().zip(want.iter().flatten()) {
                        let same = g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
                        assert!(same, "kc={kc} bias={bias:?} relu={relu}: {g:?} vs {w:?}");
                    }
                }
            }
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
            tile(&mut got.each_mut(), &pa, &pb, kc_pad);
            assert_eq!(got, want, "W={W} kc={kc} start={}", start[0][0]);
        }
        let kc = crate::blocked::KC;
        for (av, bv) in [(255i16, 255i16), (-255, 255), (-255, -255)] {
            let mut got = [[0i32; W]; MR];
            tile(
                &mut got.each_mut(),
                &vec![av; kc * MR],
                &vec![bv; kc * W],
                kc,
            );
            let want = kc as i32 * av as i32 * bv as i32;
            assert!(
                got.iter().flatten().all(|&v| v == want),
                "W={W} {av} x {bv}"
            );
        }
    }

    /// The VNNI tile against wrapping `i32` sums of its logical operands
    /// — `a` raw `u8` row streams, `b′ = b − 128` as `i8` — over K-quad
    /// panels whose depth `kc` is padded to [`KSTEP_U8`] with zero `b′`
    /// and junk `a` (the pad must not count). Random operands from zero,
    /// seeded and near-rail starts (the instruction must wrap, not
    /// saturate), then every operand at an extreme over a whole `KC`
    /// panel.
    #[cfg(target_arch = "x86_64")]
    fn check_u8_tile() {
        const R: usize = MR_VNNI;
        const W: usize = NR_VNNI;
        let mut seeded = [[0i32; W]; R];
        for (i, cell) in seeded.iter_mut().flatten().enumerate() {
            *cell = ((i * 2654435761) % (1 << 29)) as i32 - (1 << 28);
        }
        let mut rails = [[i32::MAX - 1000; W]; R];
        for row in rails.iter_mut().skip(1).step_by(2) {
            *row = [i32::MIN + 1000; W];
        }
        let starts = [[[0i32; W]; R], seeded, rails];
        for (kc, start) in KCS.into_iter().flat_map(|kc| starts.map(|s| (kc, s))) {
            let kc_pad = kc.next_multiple_of(KSTEP_U8);
            let a: Vec<u8> = (0..kc_pad * R)
                .map(|i| {
                    if i % kc_pad < kc {
                        (i * 48271 % 256) as u8
                    } else {
                        77
                    }
                })
                .collect();
            let b: Vec<i8> = (0..kc * W)
                .map(|i| ((i * 16807) % 256) as u8 as i8)
                .collect();
            let mut pb = vec![0i8; kc_pad * W];
            let (mut want, mut got) = (start, start);
            for k in 0..kc {
                let (g, s) = (k / KSTEP_U8, k % KSTEP_U8);
                for x in 0..W {
                    pb[(g * W + x) * KSTEP_U8 + s] = b[k * W + x];
                }
                for (r, row) in want.iter_mut().enumerate() {
                    for (x, cell) in row.iter_mut().enumerate() {
                        let product = a[r * kc_pad + k] as i32 * b[k * W + x] as i32;
                        *cell = cell.wrapping_add(product);
                    }
                }
            }
            let rows = std::array::from_fn(|r| &a[r * kc_pad..][..kc_pad]);
            tile_u8_vnni(&mut got.each_mut(), rows, &pb, (kc_pad, false));
            assert_eq!(got, want, "kc={kc} start={}", start[0][0]);
            // A fresh tile ignores what `acc` holds.
            let mut fresh = [[i32::MIN; W]; R];
            tile_u8_vnni(&mut fresh.each_mut(), rows, &pb, (kc_pad, true));
            let mut from_zero = [[0; W]; R];
            tile_u8_vnni(&mut from_zero.each_mut(), rows, &pb, (kc_pad, false));
            assert_eq!(fresh, from_zero, "kc={kc}: fresh read acc");
        }
        let kc = crate::blocked::KC;
        for (av, bv) in [(255u8, -128i8), (255, 127), (0, -128), (1, 127)] {
            for start in [0, i32::MAX, i32::MIN] {
                let mut got = [[start; W]; R];
                let row = vec![av; kc];
                let pb = vec![bv; kc * W];
                tile_u8_vnni(&mut got.each_mut(), [&row[..]; R], &pb, (kc, false));
                let want = start.wrapping_add(kc as i32 * av as i32 * bv as i32);
                let all = got.iter().flatten().all(|&v| v == want);
                assert!(all, "{av} x {bv} from {start}");
            }
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
                check_u8_tile();
            }
        }
    }

    /// Accumulators for the requantizer: the rails, zero, values around
    /// powers of two (rounding ties after the shift), then a spread.
    fn accumulators(n: usize, seed: usize) -> Vec<i32> {
        let edge = [i32::MIN, i32::MIN + 1, -1, 0, 1, i32::MAX - 1, i32::MAX];
        (0..n)
            .map(|i| match (i * 7 + seed) % 4 {
                0 => edge[(i + seed) % edge.len()],
                1 => {
                    let p = 1i32 << ((i + seed) % 31);
                    [p - 1, p, p + 1, -p, -p - 1][(i / 3 + seed) % 5]
                }
                _ => ((i + seed) as u32).wrapping_mul(2654435761) as i32 >> ((i + seed) % 24),
            })
            .collect()
    }

    #[test]
    fn requantize_matches_the_scalar_definition() {
        let mut multipliers: Vec<FixedPointMultiplier> = (0..32)
            .flat_map(|shift| {
                [0, 1, 1 << 30, (1 << 30) + 12345, i32::MAX].map(|multiplier| {
                    FixedPointMultiplier {
                        multiplier,
                        right_shift: shift,
                    }
                })
            })
            .collect();
        for real in [1e-9, 3.7e-5, 0.0123, 0.5, 0.999, 1.0, 3.5] {
            multipliers.push(FixedPointMultiplier::from_real(real).unwrap());
        }
        for (mi, m) in multipliers.iter().enumerate() {
            for (len, bias) in [
                (0, 0),
                (15, 7),
                (16, i32::MAX),
                (37, -99_999),
                (64, i32::MIN),
            ] {
                let acc = accumulators(len, mi);
                // Without per-lane terms, and with terms that wrap the sums.
                let none = vec![0; len];
                for terms in [&[][..], &accumulators(len, mi + 5)] {
                    for (zp, relu) in [(0u8, false), (3, true), (128, false), (255, true)] {
                        let mut got = vec![0u8; len];
                        requantize_into(true, &mut got, (&acc, terms), bias, m, zp, relu);
                        let floor = if relu { zp } else { 0 };
                        let lanes = acc.iter().zip(if terms.is_empty() { &none } else { terms });
                        for (i, (&g, (&a, &t))) in got.iter().zip(lanes).enumerate() {
                            let sum = a.wrapping_add(t).wrapping_add(bias);
                            let want = utensor::requantize(sum, m, zp).max(floor);
                            assert_eq!(
                                g, want,
                                "{m:?} acc {a} + {t} bias {bias} zp {zp} relu {relu} at {i}"
                            );
                        }
                    }
                }
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
        if tile_f32(&mut got.each_mut(), &pa, &pb, kc) {
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
