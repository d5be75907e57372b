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
//! ## Where `B` comes from
//!
//! The `B`-panel pack is the only step between a GEMM layer's input and
//! the register tile. It reads [`GemmB`]: either a plain `k × n` matrix
//! (1×1 convolutions, FC layers, the public GEMMs), whose rows it reads
//! in place, or a convolution's input plane with its im2col geometry
//! ([`Im2col`]). From a plane it gathers the `KC × NC` block of patches
//! the panel needs, row by row: per (patch row, output row) one copy — a
//! strided gather at stride > 1 — over the output columns whose tap
//! lies inside the plane, computed once per patch row, and the pad
//! value around them. The block stays in L2 and is packed at once; no
//! `K × N` patch matrix is ever built.
//!
//! ## Tile geometry
//!
//! The panel layout is a property of the register tile that reads it,
//! and the tile follows the thread's SIMD tier ([`crate::simd`]). The
//! scalar tiles use the plain `MR × NR = 4 × 8` layout: `pa[p·MR + r]`,
//! `pb[p·NR + x]`. The AVX2 QUInt8 tile, `4 × 16`, reads **K-pair**
//! panels of zero-point-subtracted `i16`, two consecutive `k` per 32-bit
//! lane: `B` interleaved, `pb[(g·16 + x)·2 + s]` for `k = 2g + s`, `A`
//! with each row contiguous, `pa[r·kc_pad + k]`, an odd `kc`
//! zero-padded — so one `vpmaddwd` multiplies operand pairs and
//! pair-sums them into `i32` lanes; a padded lane is a true zero. The
//! AVX-512 QUInt8 tile, `8 × 32`, reads **K-quad** panels at the
//! operands' 8-bit width, four consecutive `k` per 32-bit lane: `B` raw
//! `u8`, `pb[(g·32 + x)·4 + s]` for `k = 4g + s`, and `A` as `a ^ 0x80`
//! — `a − 128` as `i8` — interleaved by row one quad at a time,
//! `pa[(g·8 + r)·4 + s]`; `kc` is padded to a multiple of four with zero
//! `b`, so a padded lane adds nothing. One `vpdpbusd` multiplies sixteen
//! unsigned `B` quads by a broadcast signed `A` quad and adds the four
//! products into each `i32` lane: 64 MACs, against 32 for the `i16`
//! form, from half the panel bytes. The F16 tiles — scalar, and `4 × 64`
//! on AVX512-FP16 — read the plain layout with both panels packed as
//! binary16: the pack is a copy, and the FP16 tile broadcasts each `A`
//! element's 16 bits. Each GEMM matches on the tier and instantiates the
//! one walk below per geometry.
//!
//! ## Determinism and equivalence
//!
//! Every tile past the first `K` panel *continues* the running sums of
//! `C`: it loads the live part of `C` under its span into the register
//! tile, runs the panel's MACs on top, and stores the tile back (the
//! first panel's tiles start from zero). So each element of `C` takes
//! its `K` products in one ascending chain across all panels — exactly
//! the chain of the naive one-row-at-a-time loop (`tests/common/gemm.rs`)
//! — and the result is **bit-identical** to it for every shape and
//! dtype: the same `acc += a * b` sequence for f32, the same chain of
//! binary16 FMAs, each rounded once, for F16, and the same `i32` sums for
//! QUInt8 (Jacob et al.'s integer-only inference). Blocking, packing,
//! the tile width, the SIMD tier and how many worker threads split the
//! output rows cannot perturb a single bit.
//!
//! The K-quad tile computes `D = Σ_k b_kj·(a_ik − 128)`; the sum the
//! oracle forms, `T = Σ_k (a_ik − z_a)·(b_kj − z_b)`, follows from
//! rank-one terms:
//!
//! `T = D + (128 − z_a)·Σ_k b_kj − z_b·Σ_k a_ik + K·z_a·z_b`.
//!
//! The `B` pack sums each column as it touches each element (once per
//! GEMM); the per-row terms join the per-row bias `requantize_into`
//! already adds. Integer addition commutes, so the terms may enter in
//! any order, and every step wraps in `i32` (`vpdpbusd` does not
//! saturate): `T` fits `i32` exactly as the oracle's sum does, so every
//! output is bit-identical modulo 2³² and therefore equal. Each
//! [`NC`]-column block of `C` is requantized as soon as its last panel
//! is stored, while it is still in cache.
//!
//! The register-tile inner loops dispatch per thread
//! ([`crate::dispatch::set_kernel_path`]) to the scalar tiles here or to
//! the SIMD tiles of [`crate::simd`], which perform the same operations
//! in the same order; the path choice changes speed, never results.

use std::ops::Range;

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

/// The geometry of a convolution's im2col lowering over one CHW plane:
/// `B` row `(ci·kh + ky)·kw + kx`, column `oy·ow + ox` is the input at
/// row `oy·stride + ky − pad`, column `ox·stride + kx − pad` of channel
/// `ci`, or the pad value where that lies outside the plane.
#[derive(Clone, Copy)]
pub(crate) struct Im2col {
    pub(crate) c: usize,
    pub(crate) h: usize,
    pub(crate) w: usize,
    pub(crate) kh: usize,
    pub(crate) kw: usize,
    pub(crate) stride: usize,
    pub(crate) pad: usize,
    pub(crate) oh: usize,
    pub(crate) ow: usize,
}

impl Im2col {
    /// Writes columns `cols` of `B` row `p` into `dst`: `pad`, then per
    /// output row the columns whose tap lies inside the plane in one
    /// copy (a strided gather at stride > 1).
    fn gather<T: Copy>(&self, plane: &[T], p: usize, cols: Range<usize>, pad: T, dst: &mut [T]) {
        let (rest, kx) = (p / self.kw, p % self.kw);
        let (ci, ky) = (rest / self.kh, rest % self.kh);
        let s = self.stride;
        let over = |v: usize| if s == 1 { v } else { v.div_ceil(s) };
        // The output columns whose tap `ox·s + kx − pad` lies in `0..w`.
        let x_lo = over(self.pad.saturating_sub(kx)).min(self.ow);
        let x_hi = over((self.w + self.pad).saturating_sub(kx)).clamp(x_lo, self.ow);
        let channel = &plane[ci * self.h * self.w..][..self.h * self.w];
        let (mut oy, mut ox0) = (cols.start / self.ow, cols.start % self.ow);
        let mut dst = &mut dst[..cols.len()];
        // One fill for the whole row, then only the live columns: cheaper
        // than filling the few pad columns of every output row.
        dst.fill(pad);
        while !dst.is_empty() {
            let ox1 = self.ow.min(ox0 + dst.len());
            let (seg, rest) = std::mem::take(&mut dst).split_at_mut(ox1 - ox0);
            dst = rest;
            // Above the plane wraps to a huge row, so one test covers both
            // borders.
            let iy = (oy * s + ky).wrapping_sub(self.pad);
            let (a, b) = (x_lo.clamp(ox0, ox1) - ox0, x_hi.clamp(ox0, ox1) - ox0);
            if iy < self.h && a < b {
                let x = (ox0 + a) * s + kx - self.pad;
                let src = &channel[iy * self.w + x..][..(b - a - 1) * s + 1];
                let live = &mut seg[a..b];
                match s {
                    1 => live.copy_from_slice(src),
                    // `chunks_exact(2)` rather than `step_by(2)`: the
                    // fixed-width form is the one the compiler turns into
                    // a wide load plus a shuffle.
                    2 => {
                        let (last, body) = live.split_last_mut().expect("a < b");
                        for (d, pair) in body.iter_mut().zip(src.chunks_exact(2)) {
                            *d = pair[0];
                        }
                        *last = src[src.len() - 1];
                    }
                    _ => {
                        for (d, &v) in live.iter_mut().zip(src.iter().step_by(s)) {
                            *d = v;
                        }
                    }
                }
            }
            oy += 1;
            ox0 = 0;
        }
    }
}

/// The `B` operand of a blocked GEMM, as [`pack_b`] reads it.
#[derive(Clone, Copy)]
pub(crate) enum GemmB<'a, T> {
    /// A row-major `k × n` matrix (1×1 convolutions, FC layers).
    Matrix(&'a [T]),
    /// The im2col patches of a CHW plane, padded with the given value,
    /// gathered one panel block at a time.
    Patches(&'a [T], Im2col, T),
}

impl<'a, T: Copy> GemmB<'a, T> {
    /// Batch element `x` of a GEMM layer: its im2col patches under
    /// `lower`, or the plane itself as the matrix.
    pub(crate) fn of(x: &'a [T], lower: Option<Im2col>, pad: T) -> GemmB<'a, T> {
        match lower {
            None => GemmB::Matrix(x),
            Some(g) => GemmB::Patches(x, g, pad),
        }
    }

    /// Panics unless the operand is `k × n`.
    fn check(&self, k: usize, n: usize, what: &str) {
        match self {
            GemmB::Matrix(b) => assert_eq!(b.len(), k * n, "{what}: B length"),
            GemmB::Patches(x, g, _) => {
                assert_eq!(x.len(), g.c * g.h * g.w, "{what}: input plane length");
                assert_eq!((k, n), (g.c * g.kh * g.kw, g.oh * g.ow), "{what}: B shape");
            }
        }
    }
}

/// One `kc × width` block of `B`, as the panel packs read it: row `r`
/// at `rows[r·pitch..][..width]`, its first column `j0` of `B`.
struct Block<'a, S> {
    rows: &'a [S],
    pitch: usize,
    kc: usize,
    width: usize,
    j0: usize,
}

impl<S> Block<'_, S> {
    /// Columns `x0..x0 + len` of block row `r`.
    fn row(&self, r: usize, x0: usize, len: usize) -> &[S] {
        &self.rows[r * self.pitch + x0..][..len]
    }
}

/// Columns `j0..j1` (at most [`NC`]) of the `B` rows `p0..p0+kc`. A
/// matrix's rows are read in place; a plane's patches are gathered into
/// `block` first, one `kc × (j1 − j0)` block that stays in L2.
fn b_block<'a, S: Copy>(
    block: &'a mut Vec<S>,
    b: &GemmB<'a, S>,
    n: usize,
    (j0, j1): (usize, usize),
    (p0, kc): (usize, usize),
) -> Block<'a, S> {
    let width = j1 - j0;
    match *b {
        GemmB::Matrix(m) => Block {
            rows: &m[p0 * n + j0..],
            pitch: n,
            kc,
            width,
            j0,
        },
        GemmB::Patches(x, g, pad) => {
            block.resize(kc * width, pad);
            for (r, dst) in block.chunks_exact_mut(width).enumerate() {
                g.gather(x, p0 + r, j0..j1, pad, dst);
            }
            Block {
                rows: block,
                pitch: width,
                kc,
                width,
                j0,
            }
        }
    }
}

/// Packs `blk` into `NRT`-column micro-panels, `KS` consecutive `k`
/// interleaved per lane (`pb[(g·NRT + x)·KS + s]` for `k = g·KS + s`,
/// `KS` of 1 or 2), converting with `conv`. Each micro-panel is written
/// front to back, reading its columns from `kc` rows (the K-pair layout
/// zips two rows lane pair by lane pair, a loop the compiler
/// vectorises): measured faster than filling every micro-panel one row
/// at a time, whose stores go to panels `kc·NRT` elements apart. The
/// right edge and an odd `kc` are padded with `zero`.
fn pack_b<S: Copy, T: Copy, const NRT: usize, const KS: usize>(
    pb: &mut Vec<T>,
    blk: &Block<'_, S>,
    zero: T,
    conv: impl Fn(S) -> T,
) {
    let (kc, width) = (blk.kc, blk.width);
    let panel_len = kc.next_multiple_of(KS) * NRT;
    pb.resize(width.div_ceil(NRT) * panel_len, zero);
    for (panel, x0) in pb.chunks_exact_mut(panel_len).zip((0..).step_by(NRT)) {
        let jw = NRT.min(width - x0);
        for (g, lanes) in panel.chunks_exact_mut(NRT * KS).enumerate() {
            let (live, edge) = lanes.as_chunks_mut::<KS>().0.split_at_mut(jw);
            edge.fill([zero; KS]);
            let r = g * KS;
            let r0 = blk.row(r, x0, jw);
            if KS == 2 && r + 1 < kc {
                let r1 = blk.row(r + 1, x0, jw);
                for (d, (&v0, &v1)) in live.iter_mut().zip(r0.iter().zip(r1)) {
                    d[0] = conv(v0);
                    d[1] = conv(v1);
                }
            } else {
                for (d, &v) in live.iter_mut().zip(r0) {
                    d[0] = conv(v);
                    d[1..].fill(zero);
                }
            }
        }
    }
}

/// Packs `blk` into the VNNI tile's K-quad micro-panels of raw `u8`,
/// `pb[(g·NR_VNNI + x)·4 + s]` for `k = 4g + s`, and adds each column's
/// elements into `col_sums[j0 + x]`, in one pass over the block. Rows
/// past `kc` and columns past the right edge are zero.
#[cfg(target_arch = "x86_64")]
fn pack_b_quads(pb: &mut Vec<u8>, blk: &Block<'_, u8>, col_sums: &mut [i32]) {
    const NRT: usize = simd::NR_VNNI;
    const KS: usize = simd::KSTEP_U8;
    const ZEROS: [u8; NRT] = [0; NRT];
    let (kc, width) = (blk.kc, blk.width);
    let panel_len = kc.next_multiple_of(KS) * NRT;
    pb.resize(width.div_ceil(NRT) * panel_len, 0);
    let col_sums = &mut col_sums[blk.j0..][..width];
    let panels = pb.chunks_exact_mut(panel_len);
    for ((panel, sums), x0) in panels.zip(col_sums.chunks_mut(NRT)).zip((0..).step_by(NRT)) {
        let jw = sums.len();
        for (g, lanes) in panel
            .as_chunks_mut::<{ NRT * KS }>()
            .0
            .iter_mut()
            .enumerate()
        {
            let lanes = lanes.as_chunks_mut::<KS>().0;
            let row = |s: usize| match g * KS + s {
                r if r < kc => blk.row(r, x0, jw),
                _ => &ZEROS[..jw],
            };
            let rows = [row(0), row(1), row(2), row(3)];
            if let Ok(full) = <&mut [i32; NRT]>::try_from(&mut *sums) {
                let rows = rows.map(|r| r.try_into().expect("a full group"));
                simd::pack_quads(lanes.try_into().expect("NRT lanes"), rows, full);
                continue;
            }
            for (x, (d, sum)) in lanes.iter_mut().zip(sums.iter_mut()).enumerate() {
                *d = rows.map(|r| r[x]);
                *sum = d.iter().fold(*sum, |s, &v| s.wrapping_add(v as i32));
            }
        }
    }
}

/// Packs the `A` panel columns `p0..p0+kc` into `MRT`-row micro-panels,
/// padded with `zero` on the bottom edge and to the K step; `conv`
/// converts one row segment (at most [`KC`] elements) slice to slice.
/// The plain and K-quad layouts (`KS` of 1 or 4) interleave the rows
/// one K step at a time, `pa[(g·MRT + r)·KS + s]` for `k = g·KS + s`, so
/// the tile reads one contiguous run of `MRT·KS` elements per step; the
/// K-pair layout (`KS == 2`) keeps each row contiguous, `pa[r·kc_pad +
/// p]` with `kc_pad` the depth rounded up to even, and the tile reads
/// `MRT` row streams.
///
/// Kept out of line: it runs once per `K` panel, and inlined into
/// [`for_each_tile`] its row buffer changed the code generated for the
/// tile walk around it (QUInt8 GEMM 0.55 → 0.74 ms on 32 × 144 × 3136).
#[inline(never)]
fn pack_a<S: Copy, T: Copy, const MRT: usize, const KS: usize>(
    pa: &mut Vec<T>,
    a: &[S],
    (m, k): (usize, usize),
    (p0, kc): (usize, usize),
    zero: T,
    conv: impl Fn(&mut [T], &[S]),
) {
    let kc_pad = kc.next_multiple_of(KS);
    pa.clear();
    pa.resize(m.div_ceil(MRT) * kc_pad * MRT, zero);
    let mut converted = [zero; KC];
    for (it, panel) in pa.chunks_exact_mut(kc_pad * MRT).enumerate() {
        let i0 = it * MRT;
        for r in 0..MRT.min(m - i0) {
            let row = &a[(i0 + r) * k + p0..(i0 + r) * k + p0 + kc];
            if KS == 2 {
                conv(&mut panel[r * kc_pad..r * kc_pad + kc], row);
                continue;
            }
            conv(&mut converted[..kc], row);
            converted[kc..kc_pad].fill(zero);
            let steps = panel
                .chunks_exact_mut(MRT * KS)
                .zip(converted[..kc_pad].chunks_exact(KS));
            for (dst, step) in steps {
                dst[r * KS..(r + 1) * KS].copy_from_slice(step);
            }
        }
    }
}

/// The rows and columns of the `m × n` matrix `C` one register tile
/// covers.
#[derive(Clone, Copy)]
struct TileSpan {
    i0: usize,
    iw: usize,
    j0: usize,
    jw: usize,
    n: usize,
}

impl TileSpan {
    /// Where the live part of tile row `r` sits in row-major `C`.
    fn row(&self, r: usize) -> std::ops::Range<usize> {
        let start = (self.i0 + r) * self.n + self.j0;
        start..start + self.jw
    }
}

/// How a GEMM packs its panels: `a` converts an `A` row segment slice
/// to slice, `b` packs one block of `B` into the `B` panel buffer.
struct Packing<CA, CB> {
    a: CA,
    b: CB,
}

/// The blocked loop nest shared by every dtype: for each `K` panel in
/// ascending order, pack `A`, then for each [`NC`]-column block pack `B`
/// and run every (`MRT`-row, `NRT`-column) micro-panel pair through
/// `tile` with the padded panel depth. The first panel's tiles start
/// from `zero_c`; a later one's from the live part of `c` under its span
/// (pad lanes zero). Every tile is stored back into `c`, so every
/// element continues one accumulation chain from panel to panel, and
/// `c`'s prior contents are overwritten. Once the last panel has
/// stored a block's tiles, `finish(j0..j1, c, col_sums)` sees the
/// finished columns while they are still in cache. `col_sums` is the
/// state the `B` pack leaves for `finish` (the K-quad pack's column
/// sums; empty elsewhere).
#[allow(clippy::too_many_arguments)]
fn for_each_tile<
    SA: Copy,
    SB: Copy,
    TA: Copy,
    TB: Copy,
    TC: Copy,
    const MRT: usize,
    const NRT: usize,
    const KS: usize,
>(
    (c, col_sums): (&mut [TC], &mut [i32]),
    (m, k, n): (usize, usize, usize),
    a: &[SA],
    b: GemmB<'_, SB>,
    (pa, pb, block): (&mut Vec<TA>, &mut Vec<TB>, &mut Vec<SB>),
    (zero_a, zero_c): (TA, TC),
    packing: Packing<impl Fn(&mut [TA], &[SA]), impl Fn(&mut Vec<TB>, &Block<'_, SB>, &mut [i32])>,
    tile: impl Fn(&mut [[TC; NRT]; MRT], &[TA], &[TB], usize),
    mut finish: impl FnMut(Range<usize>, &mut [TC], &mut [i32]),
) {
    debug_assert_eq!(NC % NRT, 0, "NC must be a multiple of the tile width");
    if k == 0 {
        c.fill(zero_c);
        for jb in (0..n).step_by(NC) {
            finish(jb..n.min(jb + NC), c, col_sums);
        }
    }
    let mut p0 = 0;
    while p0 < k {
        let kc = KC.min(k - p0);
        let kc_pad = kc.next_multiple_of(KS);
        pack_a::<_, _, MRT, KS>(pa, a, (m, k), (p0, kc), zero_a, &packing.a);
        for jb in (0..n).step_by(NC) {
            let jb_end = n.min(jb + NC);
            let blk = b_block(block, &b, n, (jb, jb_end), (p0, kc));
            (packing.b)(pb, &blk, col_sums);
            for (jt, pb_panel) in pb.chunks_exact(kc_pad * NRT).enumerate() {
                let j0 = jb + jt * NRT;
                for (it, pa_panel) in pa.chunks_exact(kc_pad * MRT).enumerate() {
                    let span = TileSpan {
                        i0: it * MRT,
                        iw: MRT.min(m - it * MRT),
                        j0,
                        jw: NRT.min(n - j0),
                        n,
                    };
                    let mut acc = [[zero_c; NRT]; MRT];
                    // A whole tile row moves as one fixed-size copy, not a
                    // `memcpy` call.
                    if p0 > 0 {
                        for (r, row) in acc.iter_mut().enumerate().take(span.iw) {
                            match <&[TC; NRT]>::try_from(&c[span.row(r)]) {
                                Ok(src) => *row = *src,
                                Err(_) => row[..span.jw].copy_from_slice(&c[span.row(r)]),
                            }
                        }
                    }
                    tile(&mut acc, pa_panel, pb_panel, kc_pad);
                    for (r, row) in acc.iter().enumerate().take(span.iw) {
                        match <&mut [TC; NRT]>::try_from(&mut c[span.row(r)]) {
                            Ok(dst) => *dst = *row,
                            Err(_) => c[span.row(r)].copy_from_slice(&row[..span.jw]),
                        }
                    }
                }
            }
            if p0 + kc == k {
                finish(jb..jb_end, c, col_sums);
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
    gemm_f32(c, (m, k, n), a, GemmB::Matrix(b), bias, relu, arena);
}

/// [`gemm_f32_blocked`] over any `B` operand.
pub(crate) fn gemm_f32(
    c: &mut [f32],
    (m, k, n): (usize, usize, usize),
    a: &[f32],
    b: GemmB<'_, f32>,
    bias: Option<&[f32]>,
    relu: bool,
    arena: &mut ScratchArena,
) {
    assert_eq!(a.len(), m * k, "gemm_f32_blocked: A length");
    b.check(k, n, "gemm_f32_blocked");
    assert_eq!(c.len(), m * n, "gemm_f32_blocked: C length");
    if let Some(bias) = bias {
        assert_eq!(bias.len(), m, "gemm_f32_blocked: bias length");
    }
    let simd = active_tier() > SimdTier::None;
    for_each_tile::<_, _, _, _, _, MR, NR, 1>(
        (c, &mut []),
        (m, k, n),
        a,
        b,
        (
            &mut arena.pack_a_f32,
            &mut arena.pack_b_f32,
            &mut arena.patches_f32,
        ),
        (0.0f32, 0.0f32),
        Packing {
            a: |dst: &mut [f32], row: &[f32]| dst.copy_from_slice(row),
            b: |pb: &mut Vec<f32>, blk: &Block<'_, f32>, _: &mut [i32]| {
                pack_b::<_, _, NR, 1>(pb, blk, 0.0, |v| v)
            },
        },
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
        |_, _, _| {},
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
    gemm_f16(c, (m, k, n), a, GemmB::Matrix(b), bias, relu, arena);
}

/// [`gemm_f16_blocked`] over any `B` operand.
pub(crate) fn gemm_f16(
    c: &mut [F16],
    (m, k, n): (usize, usize, usize),
    a: &[F16],
    b: GemmB<'_, F16>,
    bias: Option<&[f32]>,
    relu: bool,
    arena: &mut ScratchArena,
) {
    assert_eq!(a.len(), m * k, "gemm_f16_blocked: A length");
    b.check(k, n, "gemm_f16_blocked");
    assert_eq!(c.len(), m * n, "gemm_f16_blocked: C length");
    if let Some(bias) = bias {
        assert_eq!(bias.len(), m, "gemm_f16_blocked: bias length");
    }
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
    b: GemmB<'_, F16>,
    arena: &mut ScratchArena,
    tile: impl Fn(&mut [[F16; NRT]; MR], &[F16], &[F16], usize),
) {
    for_each_tile::<_, _, _, _, _, MR, NRT, 1>(
        (c, &mut []),
        dims,
        a,
        b,
        (
            &mut arena.pack_a_f16,
            &mut arena.pack_b_f16,
            &mut arena.patches_f16,
        ),
        (F16::ZERO, F16::ZERO),
        Packing {
            a: |dst: &mut [F16], row: &[F16]| dst.copy_from_slice(row),
            b: |pb: &mut Vec<F16>, blk: &Block<'_, F16>, _: &mut [i32]| {
                pack_b::<_, _, NRT, 1>(pb, blk, F16::ZERO, |v| v)
            },
        },
        tile,
        |_, _, _| {},
    );
}

/// Blocked QUInt8 GEMM with gemmlowp semantics, writing into a
/// caller-provided `m*n` buffer: zero points subtracted, products summed
/// in `i32`, the f32 bias scaled into the accumulator domain, the sums
/// requantized to `out_params` (clamped at the output zero point with
/// `relu`).
///
/// On the AVX-512 tier the operands are packed at their 8-bit width —
/// `B` raw, `A` minus 128 as `i8` — and the zero points enter as
/// rank-one corrections (module docs, "Determinism"). Elsewhere they
/// are packed zero-point-subtracted into `i16` (the gemmlowp trick:
/// `u8 - zero_point` always fits in `i16`, and `i16 × i16` products
/// accumulate exactly in `i32`). Either way each `NC`-column block is
/// requantized into `c` as soon as its sums are final.
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
    let (a, b) = ((a, a_params), (GemmB::Matrix(b), b_params));
    gemm_quint8(c, (m, k, n), a, b, bias, out_params, relu, arena)
}

/// [`gemm_quint8_blocked`] over any `B` operand.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_quint8(
    c: &mut [u8],
    (m, k, n): (usize, usize, usize),
    (a, a_params): (&[u8], QuantParams),
    (b, b_params): (GemmB<'_, u8>, QuantParams),
    bias: Option<&[f32]>,
    out_params: QuantParams,
    relu: bool,
    arena: &mut ScratchArena,
) -> Result<(), TensorError> {
    assert_eq!(a.len(), m * k, "gemm_quint8_blocked: A length");
    b.check(k, n, "gemm_quint8_blocked");
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
    let tier = active_tier();
    let quads = tier >= SimdTier::Avx512;
    // Each row's bias in the accumulator domain; the K-quad tile's sums
    // also lack the zero-point terms, each row's added here and each
    // column's as its block finishes.
    let (za, zb) = (a_params.zero_point as i32, b_params.zero_point as i32);
    let kz = (k as i32).wrapping_mul(za * zb);
    arena.row_bias.clear();
    arena.row_bias.extend((0..m).map(|i| {
        let qb = bias.map_or(0, |b| (b[i] as f64 / acc_scale).round() as i32);
        if !quads {
            return qb;
        }
        let row_sum = a[i * k..(i + 1) * k]
            .iter()
            .fold(0i32, |s, &v| s.wrapping_add(v as i32));
        qb.wrapping_add(kz.wrapping_sub(zb.wrapping_mul(row_sum)))
    }));
    arena.acc_i32.resize(m * n, 0);
    let zp = out_params.zero_point;
    let rows = &arena.row_bias;
    // Requantizes columns `cols` of every row, adding each column's
    // zero-point term `(128 − z_a)·Σ_k b_kj` first where the K-quad pack
    // left the sums (none are left elsewhere).
    let scale = 128 - za;
    let requantize = |cols: Range<usize>, acc: &mut [i32], col_sums: &mut [i32]| {
        let terms = col_sums.get_mut(cols.clone()).unwrap_or_default();
        for t in terms.iter_mut() {
            *t = t.wrapping_mul(scale);
        }
        let rows = c.chunks_exact_mut(n).zip(acc.chunks_exact_mut(n)).zip(rows);
        for ((c_row, acc), &bias) in rows {
            let acc = &mut acc[cols.clone()];
            for (v, &t) in acc.iter_mut().zip(&*terms) {
                *v = v.wrapping_add(t);
            }
            let c_row = &mut c_row[cols.clone()];
            simd::requantize_into(quads, c_row, acc, bias, &multiplier, zp, relu);
        }
    };
    let dims = (m, k, n);
    let acc = &mut arena.acc_i32;
    match tier {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 | SimdTier::Avx512Fp16 => {
            arena.col_sums.clear();
            arena.col_sums.resize(n, 0);
            for_each_tile::<_, _, _, _, _, { simd::MR_VNNI }, { simd::NR_VNNI }, { simd::KSTEP_U8 }>(
                (acc, &mut arena.col_sums),
                dims,
                a,
                b,
                (
                    &mut arena.pack_a_i8,
                    &mut arena.pack_b_u8,
                    &mut arena.patches_u8,
                ),
                (0i8, 0i32),
                Packing {
                    a: |dst: &mut [i8], row: &[u8]| {
                        for (d, &v) in dst.iter_mut().zip(row) {
                            *d = (v ^ 0x80) as i8;
                        }
                    },
                    b: pack_b_quads,
                },
                simd::tile_u8_vnni,
                requantize,
            );
        }
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => {
            let zps = (a_params.zero_point, b_params.zero_point);
            let bufs = (
                &mut arena.pack_a_i16,
                &mut arena.pack_b_i16,
                &mut arena.patches_u8,
            );
            let tile = simd::tile_i16_avx2;
            quint8_panels::<_, { simd::KSTEP_I16 }>(acc, dims, a, b, zps, bufs, tile, requantize);
        }
        _ => {
            let zps = (a_params.zero_point, b_params.zero_point);
            let bufs = (
                &mut arena.pack_a_i16,
                &mut arena.pack_b_i16,
                &mut arena.patches_u8,
            );
            let tile = |tile: &mut [[i32; NR]; MR], pa: &[i16], pb: &[i16], kc: usize| {
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
            };
            quint8_panels::<NR, 1>(acc, dims, a, b, zps, bufs, tile, requantize);
        }
    }
    Ok(())
}

/// The QUInt8 panel walk for an `MR × NRT` tile over `KS`-interleaved
/// `i16` panels (the AVX2 and scalar tiles). Operands are packed with
/// the zero point pre-subtracted, so padded lanes (value 0) contribute
/// nothing to the `i32` accumulators.
#[allow(clippy::too_many_arguments)]
fn quint8_panels<const NRT: usize, const KS: usize>(
    sums: &mut [i32],
    dims: (usize, usize, usize),
    a: &[u8],
    b: GemmB<'_, u8>,
    (a_zp, b_zp): (u8, u8),
    bufs: (&mut Vec<i16>, &mut Vec<i16>, &mut Vec<u8>),
    tile: impl Fn(&mut [[i32; NRT]; MR], &[i16], &[i16], usize),
    finish: impl FnMut(Range<usize>, &mut [i32], &mut [i32]),
) {
    let (a_zp, b_zp) = (a_zp as i16, b_zp as i16);
    for_each_tile::<_, _, _, _, _, MR, NRT, KS>(
        (sums, &mut []),
        dims,
        a,
        b,
        bufs,
        (0i16, 0i32),
        Packing {
            a: |dst: &mut [i16], row: &[u8]| {
                for (d, &v) in dst.iter_mut().zip(row) {
                    *d = v as i16 - a_zp;
                }
            },
            b: |pb: &mut Vec<i16>, blk: &Block<'_, u8>, _: &mut [i32]| {
                pack_b::<_, _, NRT, KS>(pb, blk, 0, |v| v as i16 - b_zp)
            },
        },
        tile,
        finish,
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
            let mut arena = ScratchArena::default();
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
        let mut arena = ScratchArena::default();
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
            let mut arena = ScratchArena::default();
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
        let mut arena = ScratchArena::default();
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
        let mut arena = ScratchArena::default();
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
