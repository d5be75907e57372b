//! Cache-blocked GEMM micro-kernels that read their operands where they
//! lie.
//!
//! A GEMM that walks `C` one row at a time streams the whole `B` matrix
//! from memory once per row of `A` — fine as a numerics oracle (the test
//! suites keep one), hostile to real caches. These kernels follow the
//! GotoBLAS/gemmlowp structure the paper's backends (ACL, gemmlowp) use
//! on device:
//!
//! - `B` is taken [`NC`] columns at a time, and `K` is cut into panels of
//!   [`KC`], so one panel of `B`'s block stays in cache while every row
//!   tile of `A` runs against it;
//! - an `MR × nr` register-tile accumulator takes one multiply-add per
//!   operand pair before anything is written back, into the block's rows
//!   of `C` where they lie.
//!
//! Buffers come from a [`ScratchArena`], so steady-state execution does
//! not allocate.
//!
//! ## Where `B` comes from
//!
//! [`GemmB`] is one operand for every layer: `k` rows at offsets. A
//! convolution's input is laid out once per call as padded stride-phase
//! planes ([`PlaneGeom`]); row `p = (ci·kh + ky)·kw + kx` of `B` is then
//! the run of phase plane `(ky mod s, kx mod s)` of channel `ci` from
//! `(ky/s)·pitch + kx/s`, and column `j = oy·pitch + ox` is output `(oy,
//! ox)`. The columns run over the `(oh − 1)·pitch + ow` positions; the
//! `pitch − ow` junk columns between output rows are computed and
//! dropped. A 1×1 layer's plane and an FC layer's input are the case
//! `p·n`, with no junk. No patch matrix, or block of one, is built: the
//! `B` packs (and the F16 tiles, up to [`IN_PLACE_KC`] deep) read the
//! rows by offset. Each `NC` block's `finish` writes only the live
//! columns into the output: requantized for QUInt8, with the bias and
//! ReLU for f32; the F16 tiles add the bias and apply ReLU in registers
//! as the last `K` panel finishes. `C` itself is one block of arena
//! scratch.
//!
//! ## Tile geometry
//!
//! The layouts are a property of the register tile that reads them, and
//! the tile follows the thread's SIMD tier ([`crate::simd`]).
//!
//! - The scalar tiles are `MR × NR = 4 × 8` over the plain layout,
//!   `pa[p·MR + r]`, `pb[p·NR + x]` (the f32 and `i16` tiles pack `A`;
//!   the scalar F16 tile reads it in place).
//! - The AVX2 QUInt8 tile, `4 × 16`, reads **K-pair** panels of
//!   zero-point-subtracted `i16`, two consecutive `k` per 32-bit lane:
//!   `B` interleaved, `pb[(g·16 + x)·2 + s]` for `k = 2g + s`, `A` with
//!   each row contiguous, `pa[r·kc_pad + k]`, an odd `kc` zero-padded —
//!   so one `vpmaddwd` multiplies operand pairs and pair-sums them into
//!   `i32` lanes; a padded lane is a true zero.
//! - The AVX-512 QUInt8 tile, `8 × 32`, works at the operands' 8-bit
//!   width, four consecutive `k` per 32-bit lane. `A` is the weight rows
//!   themselves, raw `u8`: each of the 8 row streams is read in place
//!   from the panel's first `k`, one `vpbroadcastd` per quad. `B` is
//!   packed in **K-quads** as `b ^ 0x80` — `b − 128` as `i8` —
//!   `pb[(g·32 + x)·4 + s]` for `k = 4g + s`, padded to a multiple of
//!   four with `i8` zero, so the tail quad's bytes past `k` (the next
//!   row's) add nothing. One `vpdpbusd` multiplies the broadcast unsigned
//!   `A` quad by sixteen signed `B` quads and adds the four products into
//!   each `i32` lane: 64 MACs. Rows past `m` read a zero row; only a
//!   stream that would run past the end of the weights is staged.
//! - The FP16 tile, `8 × 32` on AVX512-FP16, broadcasts each `A` element
//!   from its weight row (inside the FMA, `{1to32}`) and reads each
//!   step's 32 columns of `B` from its row of the planes (or the matrix),
//!   both in place; deeper panels, and runs past the end of the data, are
//!   packed as binary16 first.
//!
//! Each GEMM matches on the tier and instantiates the one walk below per
//! geometry.
//!
//! ## Determinism and equivalence
//!
//! Every tile past the first `K` panel *continues* the running sums of
//! `C`: it runs the panel's MACs on top of its rows of `C` and stores
//! them back (the first panel's tiles start from zero). So each element
//! of `C` takes its `K` products in one ascending chain across all
//! panels — exactly the chain of the naive one-row-at-a-time loop
//! (`tests/common/gemm.rs`) — and the result is **bit-identical** to it
//! for every shape and dtype: the same `acc += a * b` sequence for f32,
//! the same chain of binary16 FMAs, each rounded once, for F16, and the
//! same `i32` sums for QUInt8 (Jacob et al.'s integer-only inference).
//! Blocking, packing, the tile width, the SIMD tier and how many worker
//! threads split the output rows cannot perturb a single bit.
//!
//! The K-quad tile computes `D = Σ_k a_ik·(b_kj − 128)`; the sum the
//! oracle forms, `T = Σ_k (a_ik − z_a)·(b_kj − z_b)`, follows from
//! rank-one terms:
//!
//! `T = D + (128 − z_b)·Σ_k a_ik − z_a·Σ_k b_kj + K·z_a·z_b`.
//!
//! The row sums of `A` are one vector pass over the weights per call
//! (`vpsadbw`); they and `K·z_a·z_b` join the per-row bias
//! `requantize_into` already adds. The `B` pack sums each column's raw
//! elements as it touches them, and each column's term is added as its
//! block finishes. Integer addition commutes, so the terms may enter in
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
use crate::conv::PlaneGeom;
use crate::depthwise::copy_live;
use crate::dispatch::active_tier;
use crate::simd::{self, SimdTier, TileRows};

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

/// The deepest `K` panel whose `B` runs the F16 tiles read in place. A
/// tile reads `kc` runs of its width in binary16, straddling cache lines
/// as they lie; up to this depth they stay in L1 while every row tile
/// reads them, and reading them in place beat packing them (SqueezeNet's
/// `K = 27` and `K = 144` layers). A full panel (`KC`) does not for
/// every layer: packed once per block its micro-panel is contiguous, and
/// the 500-row `conv10` part read it 6–11% faster so.
const IN_PLACE_KC: usize = 192;

/// The rows the tiles read past the last row of `A`: zeros.
static ZERO_ROW_U8: [u8; KC] = [0; KC];
/// [`ZERO_ROW_U8`] for the F16 tiles.
static ZERO_ROW_F16: [F16; KC] = [F16::ZERO; KC];

/// The `B` operand of a blocked GEMM: `k` rows of `n` elements of
/// `data`, row `p = (ci·kh + ky)·kw + kx` starting at `ci·s²·phase +
/// (ky mod s · s + kx mod s)·phase + (ky/s)·pitch + kx/s` — the run of
/// phase plane `(ky mod s, kx mod s)` of channel `ci` that tap `(ky,
/// kx)` reads ([`PlaneGeom`]). Column `j = oy·pitch + ox` is output
/// `(oy, ox)`; the columns run over the `(oh − 1)·pitch + ow` positions,
/// and those with `ox ≥ ow` are junk, computed and dropped. A `k × n`
/// matrix is the case `kh = kw = s = 1`, `pitch = phase = ow = n`: row
/// `p` at `p·n`, no junk.
#[derive(Clone, Copy)]
pub(crate) struct GemmB<'a, T> {
    data: &'a [T],
    kh: usize,
    kw: usize,
    stride: usize,
    pitch: usize,
    phase: usize,
    oh: usize,
    ow: usize,
}

impl<'a, T: Copy> GemmB<'a, T> {
    /// A row-major `k × n` matrix (1×1 convolutions, FC layers).
    pub(crate) fn matrix(data: &'a [T], n: usize) -> GemmB<'a, T> {
        GemmB {
            data,
            kh: 1,
            kw: 1,
            stride: 1,
            pitch: n,
            phase: n,
            oh: 1,
            ow: n,
        }
    }

    /// A convolution's input as the phase planes `g` lays out.
    pub(crate) fn planes(data: &'a [T], g: &PlaneGeom) -> GemmB<'a, T> {
        GemmB {
            data,
            kh: g.kh,
            kw: g.kw,
            stride: g.stride,
            pitch: g.pitch,
            phase: g.phase_len,
            oh: g.oh,
            ow: g.ow,
        }
    }

    /// The columns: `(oh − 1)·pitch + ow` positions.
    fn n(&self) -> usize {
        match self.oh * self.ow {
            0 => 0,
            _ => (self.oh - 1) * self.pitch + self.ow,
        }
    }

    /// The live columns, `oh·ow`: one row of the output.
    fn live(&self) -> usize {
        self.oh * self.ow
    }

    /// Whether some column is junk (the output is not the columns).
    fn junk(&self) -> bool {
        self.pitch != self.ow
    }

    /// Panics unless all `k` rows lie inside the data.
    fn check(&self, k: usize, what: &str) {
        if k > 0 && self.n() > 0 {
            let mut last = [0];
            self.row_starts(k - 1, &mut last);
            assert!(
                last[0] + self.n() <= self.data.len(),
                "{what}: B short of {k} rows"
            );
        }
    }

    /// Where rows `p0..p0 + starts.len()` start, walking `(ci, ky, kx)`
    /// in row-major order: no division per row.
    fn row_starts(&self, p0: usize, starts: &mut [usize]) {
        let (s, kw) = (self.stride, self.kw);
        let chan = s * s * self.phase;
        let (rest, kx0) = (p0 / kw, p0 % kw);
        let (ci, ky0) = (rest / self.kh, rest % self.kh);
        let mut base = ci * chan;
        let (mut ky, mut py, mut qy) = (ky0, ky0 % s, ky0 / s);
        let (mut kx, mut px, mut qx) = (kx0, kx0 % s, kx0 / s);
        for start in starts {
            *start = base + (py * s + px) * self.phase + qy * self.pitch + qx;
            (kx, px) = (kx + 1, px + 1);
            if px == s {
                (px, qx) = (0, qx + 1);
            }
            if kx < kw {
                continue;
            }
            (kx, px, qx) = (0, 0, 0);
            (ky, py) = (ky + 1, py + 1);
            if py == s {
                (py, qy) = (0, qy + 1);
            }
            if ky == self.kh {
                (ky, py, qy) = (0, 0, 0);
                base += chan;
            }
        }
    }

    /// Calls `f(run, at)` for each run of consecutive live columns among
    /// `cols`, in order: `run` relative to `cols.start`, `at` the output
    /// index of its first column.
    fn runs(&self, cols: Range<usize>, mut f: impl FnMut(Range<usize>, usize)) {
        if !self.junk() {
            return f(0..cols.len(), cols.start);
        }
        let mut oy = cols.start / self.pitch;
        while oy * self.pitch < cols.end {
            let row = oy * self.pitch;
            let (a, b) = (row.max(cols.start), (row + self.ow).min(cols.end));
            if a < b {
                f(a - cols.start..b - cols.start, oy * self.ow + a - row);
            }
            oy += 1;
        }
    }
}

/// One `kc × width` block of `B` from column `j0`, as the panel packs
/// and the F16 tiles read it: row `r` at `data[starts[r] + j0..][..width]`,
/// `last` the greatest of the starts.
struct Block<'a, S> {
    data: &'a [S],
    starts: &'a [usize],
    last: usize,
    j0: usize,
    kc: usize,
    width: usize,
}

impl<S> Block<'_, S> {
    /// Columns `x0..x0 + len` of block row `r`.
    fn row(&self, r: usize, x0: usize, len: usize) -> &[S] {
        &self.data[self.starts[r] + self.j0 + x0..][..len]
    }

    /// Whether a tile reads `len` columns from `x0` of every row in
    /// place: the panel is at most [`IN_PLACE_KC`] deep, and the columns
    /// lie inside the data (past the block's width they are other
    /// columns, or junk).
    fn in_place(&self, x0: usize, len: usize) -> bool {
        self.kc <= IN_PLACE_KC && self.last + self.j0 + x0 + len <= self.data.len()
    }

    /// The `N` columns from `x0` of row `r`, where [`Self::in_place`]
    /// holds.
    fn run<const N: usize>(&self, r: usize, x0: usize) -> &[S; N] {
        self.row(r, x0, N).try_into().expect("N columns")
    }
}

/// Packs `blk` into `NRT`-column micro-panels, `KS` consecutive `k`
/// interleaved per lane (`pb[(g·NRT + x)·KS + s]` for `k = g·KS + s`,
/// `KS` of 1 or 2), converting with `conv`. Each micro-panel is written
/// front to back, reading its columns from `kc` rows (the K-pair layout
/// zips two rows lane pair by lane pair, a loop the compiler
/// vectorises): measured faster than filling every micro-panel one row
/// at a time, whose stores go to panels `kc·NRT` elements apart. The
/// right edge and an odd `kc` are padded with `zero`. Only the
/// micro-panels from the columns `x0` that `which(x0)` keeps are written.
fn pack_b<S: Copy, T: Copy, const NRT: usize, const KS: usize>(
    pb: &mut Vec<T>,
    blk: &Block<'_, S>,
    (zero, conv): (T, impl Fn(S) -> T),
    which: impl Fn(usize) -> bool,
) {
    let (kc, width) = (blk.kc, blk.width);
    let panel_len = kc.next_multiple_of(KS) * NRT;
    pb.resize(width.div_ceil(NRT) * panel_len, zero);
    let panels = pb.chunks_exact_mut(panel_len).zip((0..).step_by(NRT));
    for (panel, x0) in panels.filter(|&(_, x0)| which(x0)) {
        let jw = NRT.min(width - x0);
        for (g, lanes) in panel.chunks_exact_mut(NRT * KS).enumerate() {
            let (live, edge) = lanes.as_chunks_mut::<KS>().0.split_at_mut(jw);
            edge.fill([zero; KS]);
            let r = g * KS;
            let r0 = blk.row(r, x0, jw);
            if KS == 1 {
                for (d, &v) in live.as_flattened_mut().iter_mut().zip(r0) {
                    *d = conv(v);
                }
                continue;
            }
            if KS == 2 && r + 1 < kc {
                let r1 = blk.row(r + 1, x0, jw);
                for (d, (&v0, &v1)) in live.iter_mut().zip(r0.iter().zip(r1)) {
                    d[0] = conv(v0);
                    d[1] = conv(v1);
                }
            } else {
                for (d, &v) in live.iter_mut().zip(r0) {
                    d[0] = conv(v);
                    d[1] = zero;
                }
            }
        }
    }
}

/// Packs `blk` into the VNNI tile's K-quad micro-panels of `b − 128` as
/// `i8`, `pb[(g·NR_VNNI + x)·4 + s]` for `k = 4g + s`, and adds each
/// column's raw elements into `col_sums[x]`, in one pass over the block.
/// Rows past `kc` are `i8` zero, so they add nothing to the tile.
#[cfg(target_arch = "x86_64")]
fn pack_b_quads(pb: &mut Vec<i8>, blk: &Block<'_, u8>, col_sums: &mut [i32]) {
    const NRT: usize = simd::NR_VNNI;
    const KS: usize = simd::KSTEP_U8;
    let (kc, width) = (blk.kc, blk.width);
    let panel_len = kc.next_multiple_of(KS) * NRT;
    pb.resize(width.div_ceil(NRT) * panel_len, 0);
    let panels = pb.chunks_exact_mut(panel_len);
    let col_sums = &mut col_sums[..width];
    for ((panel, sums), x0) in panels.zip(col_sums.chunks_mut(NRT)).zip((0..).step_by(NRT)) {
        let groups = panel.as_chunks_mut::<KS>().0.as_chunks_mut::<NRT>().0;
        if let Ok(full) = <&mut [i32; NRT]>::try_from(&mut *sums) {
            let row = |r| blk.row(r, x0, NRT).try_into().expect("a full micro-panel");
            simd::pack_quads(groups, kc, row, full);
            continue;
        }
        let jw = sums.len();
        for (g, lanes) in groups.iter_mut().enumerate() {
            let live = KS.min(kc - g * KS);
            let row = |s: usize| match s < live {
                true => blk.row(g * KS + s, x0, jw),
                false => &ZERO_ROW_U8[..jw],
            };
            let rows = [row(0), row(1), row(2), row(3)];
            for (x, (d, sum)) in lanes.iter_mut().zip(sums.iter_mut()).enumerate() {
                let raw = rows.map(|r| r[x]);
                *d = std::array::from_fn(|s| if s < live { (raw[s] ^ 0x80) as i8 } else { 0 });
                *sum = raw.iter().fold(*sum, |s, &v| s.wrapping_add(v as i32));
            }
        }
    }
}

/// Packs the `A` panel columns `p0..p0+kc` into `MRT`-row micro-panels,
/// padded with `zero` on the bottom edge and to the K step; `conv`
/// converts one row segment (at most [`KC`] elements) slice to slice.
/// Only the tiles that read `A` converted need it: the f32 tiles and the
/// AVX2 and scalar `i16` QUInt8 tiles (the VNNI and F16 tiles read the
/// weight rows where they lie). The plain layout (`KS == 1`) interleaves
/// the rows, `pa[p·MRT + r]`, so the tile reads one contiguous run of
/// `MRT` elements per step; the K-pair layout (`KS == 2`) keeps each row
/// contiguous, `pa[r·kc_pad + p]` with `kc_pad` the depth rounded up to
/// even, and the tile reads `MRT` row streams.
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
            for (dst, &v) in panel.chunks_exact_mut(MRT).zip(&converted[..kc]) {
                dst[r] = v;
            }
        }
    }
}

/// The register tiles of a GEMM and how they read `A`: `pack(pa, (p0,
/// kc))` lays `A`'s K panel into `pa` before that panel's tiles run (the
/// tiles that read `A` in place leave it alone), and `tile(acc, pa, i0,
/// (p0, kc), (pb, blk, j0))` adds the panel's products for rows `i0..i0
/// + MRT` and the `NRT` columns from `j0` of the block `blk` — read from
/// the packed `B` micro-panel `pb`, or in place — to the accumulator
/// rows `acc`, or on the first panel (`p0 == 0`) stores them there,
/// whatever `acc` held.
struct Tiles<P, T> {
    pack: P,
    tile: T,
}

/// The blocked loop nest shared by every dtype: for each [`NC`]-column
/// block of `B`, for each `K` panel in ascending order, pack the block of
/// `B` (and, on the first block or when there are several panels, `A`)
/// and run every (`MRT`-row, `NRT`-column) tile through `tiles` with the
/// padded panel depth. `C` is the block's `m × width` scratch in `c`,
/// and a whole tile reads and writes its rows of `C` where they lie; an
/// edge tile runs on scratch rows holding the live part of `C` (the
/// other lanes are never stored). The first panel's tiles start from
/// zero and a later one's from `C`, so every element continues one
/// accumulation chain from panel to panel. Once the last panel has
/// stored a block's tiles, `finish(cols, c, col_sums)` sees the finished
/// columns `cols` of `B` while they are still in cache, and writes their
/// live part out. `col_sums` is the state the `B` pack leaves for
/// `finish` (the K-quad pack's column sums, block-relative).
#[allow(clippy::too_many_arguments)]
fn for_each_tile<
    SB: Copy,
    TA,
    TB,
    TC: Copy,
    const MRT: usize,
    const NRT: usize,
    const KS: usize,
>(
    (c, col_sums): (&mut Vec<TC>, &mut Vec<i32>),
    (m, k): (usize, usize),
    b: &GemmB<'_, SB>,
    (pa, pb): (&mut Vec<TA>, &mut Vec<TB>),
    zero_c: TC,
    tiles: Tiles<
        impl Fn(&mut Vec<TA>, (usize, usize)),
        impl Fn(&mut TileRows<'_, TC, NRT, MRT>, &[TA], usize, (usize, usize), BPanel<'_, SB, TB>),
    >,
    pack_b: impl Fn(&mut Vec<TB>, &Block<'_, SB>, &mut [i32]),
    mut finish: impl FnMut(Range<usize>, &mut [TC], &mut [i32]),
) {
    debug_assert_eq!(NC % NRT, 0, "NC must be a multiple of the tile width");
    let n = b.n();
    let mut starts = [0usize; KC];
    let mut edge = [[zero_c; NRT]; MRT];
    for jb in (0..n).step_by(NC) {
        let cols = jb..n.min(jb + NC);
        let width = cols.len();
        c.resize(m * width, zero_c);
        col_sums.clear();
        col_sums.resize(width, 0);
        if k == 0 {
            c.fill(zero_c);
        }
        let mut p0 = 0;
        while p0 < k {
            let kc = KC.min(k - p0);
            let kc_pad = kc.next_multiple_of(KS);
            // Every block reads the same panels of `A`: with one panel
            // it is laid once.
            if jb == 0 || k > KC {
                (tiles.pack)(pa, (p0, kc));
            }
            b.row_starts(p0, &mut starts[..kc]);
            let blk = Block {
                data: b.data,
                starts: &starts[..kc],
                last: starts[..kc].iter().copied().max().unwrap_or(0),
                j0: jb,
                kc,
                width,
            };
            pack_b(pb, &blk, col_sums);
            for (jt, j0) in (0..width).step_by(NRT).enumerate() {
                let jw = NRT.min(width - j0);
                let packed = jt * kc_pad * NRT..(jt + 1) * kc_pad * NRT;
                let pb_panel = (pb.get(packed).unwrap_or_default(), &blk, j0);
                for i0 in (0..m).step_by(MRT) {
                    let iw = MRT.min(m - i0);
                    let panel = (p0, kc);
                    let mut rows = c[i0 * width..].chunks_exact_mut(width).take(iw);
                    if iw == MRT && jw == NRT {
                        let mut acc = std::array::from_fn(|_| {
                            let row = rows.next().expect("a whole tile's rows");
                            (&mut row[j0..j0 + NRT])
                                .try_into()
                                .expect("a whole tile's columns")
                        });
                        (tiles.tile)(&mut acc, pa, i0, panel, pb_panel);
                        continue;
                    }
                    if p0 > 0 {
                        for (dst, row) in edge.iter_mut().zip(rows.by_ref()) {
                            dst[..jw].copy_from_slice(&row[j0..j0 + jw]);
                        }
                    }
                    (tiles.tile)(&mut edge.each_mut(), pa, i0, panel, pb_panel);
                    let rows = c[i0 * width..].chunks_exact_mut(width).take(iw);
                    for (row, src) in rows.zip(&edge) {
                        row[j0..j0 + jw].copy_from_slice(&src[..jw]);
                    }
                }
            }
            p0 += kc;
        }
        finish(cols, c, col_sums);
    }
}

/// What a tile reads of `B`: the packed micro-panel (empty where the
/// tile reads in place), the block and the micro-panel's first column.
type BPanel<'p, S, T> = (&'p [T], &'p Block<'p, S>, usize);

/// Panics unless `A` is `m × k`, `B` holds `k` rows, `out` is `m` rows
/// of `B`'s live columns and the bias has one entry per row.
fn check_operands<T: Copy>(
    what: &str,
    (m, k): (usize, usize),
    (a, b): (usize, &GemmB<'_, T>),
    out: usize,
    bias: Option<&[f32]>,
) {
    assert_eq!(a, m * k, "{what}: A length");
    b.check(k, what);
    assert_eq!(out, m * b.live(), "{what}: C length");
    if let Some(bias) = bias {
        assert_eq!(bias.len(), m, "{what}: bias length");
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
    assert_eq!(b.len(), k * n, "gemm_f32_blocked: B length");
    gemm_f32(c, (m, k), a, GemmB::matrix(b, n), bias, relu, arena);
}

/// [`gemm_f32_blocked`] over any `B` operand, writing its live columns.
pub(crate) fn gemm_f32(
    out: &mut [f32],
    (m, k): (usize, usize),
    a: &[f32],
    b: GemmB<'_, f32>,
    bias: Option<&[f32]>,
    relu: bool,
    arena: &mut ScratchArena,
) {
    let what = "gemm_f32_blocked";
    check_operands(what, (m, k), (a.len(), &b), out.len(), bias);
    let simd = active_tier() > SimdTier::None;
    let live = b.live();
    for_each_tile::<_, _, _, _, MR, NR, 1>(
        (&mut arena.acc_f32, &mut arena.col_sums),
        (m, k),
        &b,
        (&mut arena.pack_a_f32, &mut arena.pack_b_f32),
        0.0f32,
        Tiles {
            pack: |pa: &mut Vec<f32>, panel| {
                pack_a::<_, _, MR, 1>(pa, a, (m, k), panel, 0.0, |d, row| d.copy_from_slice(row))
            },
            tile: |acc: &mut TileRows<'_, f32, NR, MR>,
                   pa: &[f32],
                   i0,
                   (p0, kc): (usize, usize),
                   (pb, _, _): BPanel<'_, f32, f32>| {
                if p0 == 0 {
                    acc.iter_mut().for_each(|row| **row = [0.0; NR]);
                }
                let pa = &pa[i0 / MR * kc * MR..][..kc * MR];
                if simd && simd::tile_f32(acc, pa, pb, kc) {
                    return;
                }
                for (avals, bvals) in pa.chunks_exact(MR).zip(pb.chunks_exact(NR)) {
                    for (r, &ar) in avals.iter().enumerate() {
                        for (x, &bv) in bvals.iter().enumerate() {
                            acc[r][x] += ar * bv;
                        }
                    }
                }
            },
        },
        |pb, blk, _| pack_b::<_, _, NR, 1>(pb, blk, (0.0, |v| v), |_| true),
        |cols, c, _| {
            let rows = c
                .chunks_exact_mut(cols.len())
                .zip(out.chunks_exact_mut(live));
            for (i, (c_row, o_row)) in rows.enumerate() {
                for cv in c_row.iter_mut() {
                    if let Some(bias) = bias {
                        *cv += bias[i];
                    }
                    if relu && *cv < 0.0 {
                        *cv = 0.0;
                    }
                }
                b.runs(cols.clone(), |run, at| {
                    copy_live(&mut o_row[at..], &c_row[run.start..], run.len())
                });
            }
        },
    );
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
    assert_eq!(b.len(), k * n, "gemm_f16_blocked: B length");
    gemm_f16(c, (m, k), a, GemmB::matrix(b, n), bias, relu, arena);
}

/// [`gemm_f16_blocked`] over any `B` operand, writing its live columns:
/// the bias, narrowed once per call, and ReLU join each tile of the last
/// `K` panel before it is stored, and each finished block of `C` is then
/// copied out.
pub(crate) fn gemm_f16(
    out: &mut [F16],
    (m, k): (usize, usize),
    a: &[F16],
    b: GemmB<'_, F16>,
    bias: Option<&[f32]>,
    relu: bool,
    arena: &mut ScratchArena,
) {
    let what = "gemm_f16_blocked";
    check_operands(what, (m, k), (a.len(), &b), out.len(), bias);
    let tier = active_tier();
    let (simd, live) = (tier > SimdTier::None, b.live());
    let mut hb = std::mem::take(&mut arena.row_bias_f16);
    hb.clear();
    hb.extend(bias.unwrap_or_default().iter().map(|&v| F16::from_f32(v)));
    let epilogue = (bias.is_some().then_some(&hb[..]), relu);
    // The tiles apply the bias and ReLU as the last `K` panel finishes;
    // with no panel (`k == 0`) the block of zeros takes them here.
    let finish = |cols: Range<usize>, c: &mut [F16], _: &mut [i32]| {
        let rows = c
            .chunks_exact_mut(cols.len())
            .zip(out.chunks_exact_mut(live));
        for (i, (c_row, o_row)) in rows.enumerate() {
            if k == 0 {
                simd::f16_bias_relu(simd, c_row, epilogue.0.map(|hb| hb[i]), relu);
            }
            b.runs(cols.clone(), |run, at| {
                copy_live(&mut o_row[at..], &c_row[run.start..], run.len())
            });
        }
    };
    match tier {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512Fp16 => f16_tiles::<_, _, Fp16>((m, k), (a, &b), epilogue, arena, finish),
        _ => f16_tiles::<MR, NR, ScalarF16>((m, k), (a, &b), epilogue, arena, finish),
    }
    arena.row_bias_f16 = hb;
}

/// The F16 epilogue a tile applies as the last `K` panel finishes: each
/// row's bias (narrowed to binary16; none without one), then ReLU.
type F16Epilogue<const MRT: usize> = Option<(Option<[F16; MRT]>, bool)>;

/// An F16 register tile of `MRT × NRT` that reads `A` and `B` in place:
/// `acc[r][x] = rows[r][p].mul_add(b(p)[x], acc[r][x])` in ascending `p`
/// for `p` in `0..kc`, from zero when `fresh`, then with `epilogue`
/// `acc[r][x] += bias[r]` (one binary16 add) and `if acc < 0 { 0 }`.
trait F16Tile<const MRT: usize, const NRT: usize> {
    fn run<'b>(
        acc: &mut TileRows<'_, F16, NRT, MRT>,
        rows: [&[F16]; MRT],
        b: impl Fn(usize) -> &'b [F16; NRT],
        kc_fresh: (usize, bool),
        epilogue: F16Epilogue<MRT>,
    );
}

/// The scalar F16 tile, `MR × NR`, [`F16::mul_add`] per MAC.
struct ScalarF16;

impl F16Tile<MR, NR> for ScalarF16 {
    fn run<'b>(
        acc: &mut TileRows<'_, F16, NR, MR>,
        rows: [&[F16]; MR],
        b: impl Fn(usize) -> &'b [F16; NR],
        (kc, fresh): (usize, bool),
        epilogue: F16Epilogue<MR>,
    ) {
        if fresh {
            acc.iter_mut().for_each(|row| **row = [F16::ZERO; NR]);
        }
        for p in 0..kc {
            let bvals = b(p);
            for (acc, row) in acc.iter_mut().zip(rows) {
                let ar = row[p];
                for (cv, &bv) in acc.iter_mut().zip(bvals) {
                    *cv = ar.mul_add(bv, *cv);
                }
            }
        }
        let Some((bias, relu)) = epilogue else {
            return;
        };
        for (r, acc) in acc.iter_mut().enumerate() {
            for cv in acc.iter_mut() {
                if let Some(bias) = bias {
                    *cv += bias[r];
                }
                if relu && *cv < F16::ZERO {
                    *cv = F16::ZERO;
                }
            }
        }
    }
}

/// The AVX512-FP16 tile ([`simd::tile_f16_fp16`]).
#[cfg(target_arch = "x86_64")]
struct Fp16;

#[cfg(target_arch = "x86_64")]
impl F16Tile<{ simd::MR_FP16 }, { simd::NR_FP16 }> for Fp16 {
    fn run<'b>(
        acc: &mut TileRows<'_, F16, { simd::NR_FP16 }, { simd::MR_FP16 }>,
        rows: [&[F16]; simd::MR_FP16],
        b: impl Fn(usize) -> &'b [F16; simd::NR_FP16],
        kc_fresh: (usize, bool),
        epilogue: F16Epilogue<{ simd::MR_FP16 }>,
    ) {
        simd::tile_f16_fp16(acc, rows, b, kc_fresh, epilogue)
    }
}

/// The F16 walk for an `MRT × NRT` tile `T`: each tile reads its `MRT`
/// rows of `A` in place from the panel's first `k` (rows past `m` read
/// zeros) and its `kc` runs of `NRT` columns of `B` in place too — from
/// the phase planes, or the matrix — except where a run would pass the
/// end of the data (the last columns of the last rows) or the panel is
/// deeper than [`IN_PLACE_KC`], whose micro-panels are packed as
/// binary16 in the plain layout. The tiles of the last panel apply the
/// `(bias, relu)` epilogue (`bias` narrowed, one per row of `A`).
fn f16_tiles<const MRT: usize, const NRT: usize, T: F16Tile<MRT, NRT>>(
    (m, k): (usize, usize),
    (a, b): (&[F16], &GemmB<'_, F16>),
    (bias, relu): (Option<&[F16]>, bool),
    arena: &mut ScratchArena,
    finish: impl FnMut(Range<usize>, &mut [F16], &mut [i32]),
) {
    for_each_tile::<_, _, _, _, MRT, NRT, 1>(
        (&mut arena.acc_f16, &mut arena.col_sums),
        (m, k),
        b,
        (&mut Vec::<F16>::new(), &mut arena.pack_b_f16),
        F16::ZERO,
        Tiles {
            pack: |_: &mut Vec<F16>, _| {},
            tile: |acc: &mut TileRows<'_, F16, NRT, MRT>,
                   _: &[F16],
                   i0: usize,
                   (p0, kc): (usize, usize),
                   (pb, blk, j0): BPanel<'_, F16, F16>| {
                let mut rows = [&ZERO_ROW_F16[..kc]; MRT];
                for (r, row) in rows.iter_mut().enumerate().take(m - i0) {
                    *row = &a[(i0 + r) * k + p0..][..kc];
                }
                let fresh = (kc, p0 == 0);
                let row_bias =
                    |b: &[F16]| std::array::from_fn(|r| b.get(i0 + r).copied().unwrap_or_default());
                let epilogue = (p0 + kc == k).then(|| (bias.map(row_bias), relu));
                if blk.in_place(j0, NRT) {
                    return T::run(acc, rows, |p| blk.run::<NRT>(p, j0), fresh, epilogue);
                }
                let step = |p: usize| pb[p * NRT..][..NRT].try_into().expect("a packed step");
                T::run(acc, rows, step, fresh, epilogue)
            },
        },
        |pb, blk, _| {
            let packed = |x0| !blk.in_place(x0, NRT);
            pack_b::<_, _, NRT, 1>(pb, blk, (F16::ZERO, |v| v), packed)
        },
        finish,
    )
}

/// Blocked QUInt8 GEMM with gemmlowp semantics, writing into a
/// caller-provided `m*n` buffer: zero points subtracted, products summed
/// in `i32`, the f32 bias scaled into the accumulator domain, the sums
/// requantized to `out_params` (clamped at the output zero point with
/// `relu`).
///
/// On the AVX-512 tier the operands stay at their 8-bit width — the
/// weights read in place as raw `u8`, `B` packed minus 128 as `i8` — and
/// the zero points enter as rank-one terms (module docs, "Determinism").
/// Elsewhere they are packed zero-point-subtracted into `i16` (the
/// gemmlowp trick: `u8 - zero_point` always fits in `i16`, and `i16 ×
/// i16` products accumulate exactly in `i32`). Either way each
/// `NC`-column block is requantized into `c` as soon as its sums are
/// final.
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
    assert_eq!(b.len(), k * n, "gemm_quint8_blocked: B length");
    let (a, b) = ((a, a_params), (GemmB::matrix(b, n), b_params));
    gemm_quint8(c, (m, k), a, b, bias, out_params, relu, arena)
}

/// [`gemm_quint8_blocked`] over any `B` operand, writing its live
/// columns.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_quint8(
    out: &mut [u8],
    (m, k): (usize, usize),
    (a, a_params): (&[u8], QuantParams),
    (b, b_params): (GemmB<'_, u8>, QuantParams),
    bias: Option<&[f32]>,
    out_params: QuantParams,
    relu: bool,
    arena: &mut ScratchArena,
) -> Result<(), TensorError> {
    let what = "gemm_quint8_blocked";
    check_operands(what, (m, k), (a.len(), &b), out.len(), bias);
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
    // also lack the zero-point terms, each row's added here — `(128 −
    // z_b)·Σ_k a + K·z_a·z_b`, the row sums one vector pass over the
    // weights — and each column's, `−z_a·Σ_k b`, as its block finishes.
    let (za, zb) = (a_params.zero_point as i32, b_params.zero_point as i32);
    arena.row_bias.clear();
    arena.row_bias.resize(m, 0);
    #[cfg(target_arch = "x86_64")]
    if quads && k > 0 {
        simd::row_sums(a, k, &mut arena.row_bias);
    }
    let kz = (k as i32).wrapping_mul(za * zb);
    for (i, row) in arena.row_bias.iter_mut().enumerate() {
        let qb = bias.map_or(0, |b| (b[i] as f64 / acc_scale).round() as i32);
        *row = match quads {
            true => qb
                .wrapping_add(kz)
                .wrapping_add((128 - zb).wrapping_mul(*row)),
            false => qb,
        };
    }
    let (zp, live) = (out_params.zero_point, b.live());
    let rows = &arena.row_bias;
    // Requantizes the block's columns `cols` of every row into their
    // live outputs, adding each column's zero-point term first where the
    // K-quad pack left the sums (none are left elsewhere). Each run of
    // live columns goes straight to its outputs, rounded up to whole
    // vectors where the block and the row have room: the extra outputs
    // land on positions a later run rewrites, since runs go in output
    // order.
    let requantize = |cols: Range<usize>, acc: &mut [i32], col_sums: &mut [i32]| {
        let acc = &*acc;
        let width = cols.len();
        let terms = if quads {
            &mut col_sums[..width]
        } else {
            &mut []
        };
        for t in terms.iter_mut() {
            *t = t.wrapping_mul(-za);
        }
        let c_rows = acc.chunks_exact(width).zip(out.chunks_exact_mut(live));
        for ((acc, o_row), &bias) in c_rows.zip(rows) {
            b.runs(cols.clone(), |run, at| {
                let n = run
                    .len()
                    .next_multiple_of(16)
                    .min(width - run.start)
                    .min(live - at);
                let cols = run.start..run.start + n;
                let terms = terms.get(cols.clone()).unwrap_or_default();
                let sums = (&acc[cols], terms);
                simd::requantize_into(
                    quads,
                    &mut o_row[at..at + n],
                    sums,
                    bias,
                    &multiplier,
                    zp,
                    relu,
                );
            });
        }
    };
    let dims = (m, k);
    let (acc, col_sums) = (&mut arena.acc_i32, &mut arena.col_sums);
    match tier {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 | SimdTier::Avx512Fp16 => {
            for_each_tile::<_, u8, _, _, { simd::MR_VNNI }, { simd::NR_VNNI }, { simd::KSTEP_U8 }>(
                (acc, col_sums),
                dims,
                &b,
                (&mut Vec::new(), &mut arena.pack_b_i8),
                0i32,
                Tiles {
                    pack: |_: &mut Vec<u8>, _| {},
                    tile: |acc: &mut TileRows<'_, i32, { simd::NR_VNNI }, { simd::MR_VNNI }>,
                           _: &[u8],
                           i0,
                           panel,
                           (pb, _, _): BPanel<'_, u8, i8>| {
                        vnni_tile(acc, a, dims, i0, panel, pb)
                    },
                },
                pack_b_quads,
                requantize,
            );
        }
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => {
            let zps = (a_params.zero_point, b_params.zero_point);
            let bufs = (acc, col_sums, &mut arena.pack_a_i16, &mut arena.pack_b_i16);
            let tile = simd::tile_i16_avx2;
            quint8_panels::<_, { simd::KSTEP_I16 }>(bufs, dims, a, &b, zps, tile, requantize);
        }
        _ => {
            let zps = (a_params.zero_point, b_params.zero_point);
            let bufs = (acc, col_sums, &mut arena.pack_a_i16, &mut arena.pack_b_i16);
            let tile = |tile: &mut TileRows<'_, i32, NR, MR>, pa: &[i16], pb: &[i16], kc: usize| {
                for (avals, bvals) in pa.chunks_exact(MR).zip(pb.chunks_exact(NR)).take(kc) {
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
            quint8_panels::<NR, 1>(bufs, dims, a, &b, zps, tile, requantize);
        }
    }
    Ok(())
}

/// One VNNI tile with the weights read in place: the stream of row `i0
/// + r` starts at its panel's first `k` and runs the quad-padded depth —
/// past `k` into the next row, whose bytes meet zero `B` lanes. Rows past
/// `m` read zeros; a row whose stream would run past the end of the
/// weights (only in the last rows of the last panel) sends the tile to
/// [`vnni_tile_staged`].
#[cfg(target_arch = "x86_64")]
#[inline]
fn vnni_tile(
    acc: &mut TileRows<'_, i32, { simd::NR_VNNI }, { simd::MR_VNNI }>,
    a: &[u8],
    (m, k): (usize, usize),
    i0: usize,
    (p0, kc): (usize, usize),
    pb: &[i8],
) {
    const R: usize = simd::MR_VNNI;
    let kc_pad = kc.next_multiple_of(simd::KSTEP_U8);
    let start = i0 * k + p0;
    let tile = a.get(start..start + (R - 1) * k + kc_pad);
    match tile {
        Some(tile) if i0 + R <= m => {
            let rows = std::array::from_fn(|r| &tile[r * k..r * k + kc_pad]);
            simd::tile_u8_vnni(acc, rows, pb, (kc_pad, p0 == 0))
        }
        _ => vnni_tile_staged(acc, a, (m, k), i0, (p0, kc), pb),
    }
}

/// [`vnni_tile`] for the last row tile: rows past `m` read zeros, and a
/// row whose stream would run past the end of the weights is staged
/// through a zero-padded copy of its `kc` weights.
#[cfg(target_arch = "x86_64")]
#[cold]
fn vnni_tile_staged(
    acc: &mut TileRows<'_, i32, { simd::NR_VNNI }, { simd::MR_VNNI }>,
    a: &[u8],
    (m, k): (usize, usize),
    i0: usize,
    (p0, kc): (usize, usize),
    pb: &[i8],
) {
    let kc_pad = kc.next_multiple_of(simd::KSTEP_U8);
    let mut staged = [[0u8; KC]; simd::MR_VNNI];
    let mut rows = [&ZERO_ROW_U8[..kc_pad]; simd::MR_VNNI];
    for (r, stage) in staged.iter_mut().enumerate().take(m - i0) {
        let start = (i0 + r) * k + p0;
        if let Some(stream) = a.get(start..start + kc_pad) {
            rows[r] = stream;
            continue;
        }
        stage[..kc].copy_from_slice(&a[start..][..kc]);
        rows[r] = &stage[..kc_pad];
    }
    simd::tile_u8_vnni(acc, rows, pb, (kc_pad, p0 == 0))
}

/// The QUInt8 walk for an `MR × NRT` tile over `KS`-interleaved `i16`
/// panels (the AVX2 and scalar tiles). Operands are packed with the zero
/// point pre-subtracted, so padded lanes (value 0) contribute nothing to
/// the `i32` accumulators.
#[allow(clippy::type_complexity)]
fn quint8_panels<const NRT: usize, const KS: usize>(
    (sums, col_sums, pa, pb): (&mut Vec<i32>, &mut Vec<i32>, &mut Vec<i16>, &mut Vec<i16>),
    (m, k): (usize, usize),
    a: &[u8],
    b: &GemmB<'_, u8>,
    (a_zp, b_zp): (u8, u8),
    tile: impl Fn(&mut TileRows<'_, i32, NRT, MR>, &[i16], &[i16], usize),
    finish: impl FnMut(Range<usize>, &mut [i32], &mut [i32]),
) {
    let (a_zp, b_zp) = (a_zp as i16, b_zp as i16);
    for_each_tile::<_, _, _, _, MR, NRT, KS>(
        (sums, col_sums),
        (m, k),
        b,
        (pa, pb),
        0i32,
        Tiles {
            pack: |pa: &mut Vec<i16>, panel| {
                pack_a::<_, _, MR, KS>(pa, a, (m, k), panel, 0, |dst, row| {
                    for (d, &v) in dst.iter_mut().zip(row) {
                        *d = v as i16 - a_zp;
                    }
                })
            },
            tile: |acc: &mut TileRows<'_, i32, NRT, MR>,
                   pa: &[i16],
                   i0,
                   (p0, kc): (usize, usize),
                   (pb, _, _): BPanel<'_, u8, i16>| {
                if p0 == 0 {
                    acc.iter_mut().for_each(|row| **row = [0; NRT]);
                }
                let kc_pad = kc.next_multiple_of(KS);
                tile(acc, &pa[i0 / MR * kc_pad * MR..][..kc_pad * MR], pb, kc_pad)
            },
        },
        |pb, blk, _| pack_b::<_, _, NRT, KS>(pb, blk, (0, |v| v as i16 - b_zp), |_| true),
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
