//! Direct (im2col-free) depthwise convolution.
//!
//! Lowered like a standard convolution, a depthwise layer is one
//! single-channel convolution per channel: one im2col, one degenerate
//! `1 × (kh·kw) × (oh·ow)` GEMM and one output tensor *per channel*,
//! plus a final concat — catastrophically slow for MobileNet's dw layers.
//!
//! This module computes the whole depthwise output in one pass over the
//! input, with zero intermediate allocation, a *strip* of outputs at a
//! time in every dtype. Each plane is copied once into scratch by the
//! convolutions' phase-plane builder ([`PlaneGeom::lay`]), padded with
//! what a padded patch entry holds (`0.0`, `+0`, the input zero point)
//! and split by the stride `s` into `s²` phase planes — phase `(py, px)`
//! holds the padded rows `≡ py` and columns `≡ px` (mod `s`), and a
//! stride-2 `u8` row splits into its two column phases at vector width
//! on the AVX-512 tiers — so output `(oy, ox)`'s tap `(ky, kx)` is
//! element `(oy + ky/s, ox + kx/s)` of phase `(ky mod s, kx mod s)`. In a phase plane's pitch,
//! consecutive outputs read consecutive inputs at any stride: a
//! [`Strip`] of up to [`STRIP_RUNS`] vectors of consecutive positions
//! (from one output row or several, so small planes still fill the
//! registers) takes all `kh·kw` taps in `(ky, kx)` row-major order with
//! its lanes in registers, then goes straight to its epilogue (the F16
//! strip's bias and ReLU are `simd::f16_bias_relu`), and its live lanes
//! are copied out. No accumulator plane is written or read
//! back. Each output pixel takes its taps in the order, and with the
//! zero-weight short-circuits, of the naive GEMM over the im2col patches
//! of that channel:
//!
//! - **f32**: `acc += w * x`, skipping zero weights; padded taps add
//!   `w * 0.0`, like a zero patch entry.
//! - **F16**: one [`F16::mul_add`] per tap, no skips — the same MAC
//!   sequence as the F16 GEMM; on an AVX512-FP16 host one `vfmadd231ph`
//!   per vector and tap.
//! - **QUInt8**: the strip sums `w′·x` with `w′ = w − w_zp`, one
//!   `vpdpwssd` per vector and tap on an AVX-512 host, and the epilogue
//!   folds the input zero point out with the bias:
//!   `Σ w′·(x − zp) = Σ w′·x − zp·Σ w′`, padded taps (`x = zp`)
//!   included. `i32` sums are exact modulo 2³² and order-free.
//!
//! The result is **bit-identical** to the per-channel im2col + GEMM
//! lowering for every dtype; the equivalence harness holds it to that
//! lowering over the naive GEMMs (`tests/common/conv.rs`).

use utensor::{
    FixedPointMultiplier, Shape, TensorError, TensorView, TensorViewMut, ViewData, ViewDataMut, F16,
};

use crate::conv::{conv_output_shape, Conv2dParams, PlaneElem, PlaneGeom};
use crate::simd::{self, STRIP_LANES_F16, STRIP_LANES_I32, STRIP_RUNS, STRIP_SLACK};

/// Validates shapes and computes the output shape of a depthwise conv
/// (`input` NCHW × `filters` `[c,1,kh,kw]`).
fn depthwise_output_shape(
    input: &Shape,
    filters: &Shape,
    p: &Conv2dParams,
) -> Result<Shape, TensorError> {
    if input.rank() != 4 || filters.rank() != 4 || filters.dim(0) != input.c() {
        return Err(TensorError::BadConcat(format!(
            "depthwise expects NCHW input and [c,1,kh,kw] filters, got {input} and {filters}"
        )));
    }
    // One single-channel convolution per channel.
    conv_output_shape(&input.with_dim(1, 1), filters, p)
}

/// Consecutive output positions of one channel plane: position `q =
/// oy·pitch + ox` in the phase planes' pitch, `lanes` of them from
/// `start`. Tap `(ky, kx)` of the channel's `kh·kw` weights, in `(ky,
/// kx)` row-major order, reads lane `i` at `plane[offset + start + i]`,
/// `offset` that of [`each_tap`](Strip::each_tap).
pub(crate) struct Strip<'a, X> {
    plane: &'a [X],
    start: usize,
    pub(crate) lanes: usize,
    weights: &'a [X],
    geom: &'a PlaneGeom,
}

impl<'a, X: Copy> Strip<'a, X> {
    /// Calls `f(w, offset)` for each tap in order: its weight and the
    /// offset of its input from position `q`, in phase `(ky mod s, kx
    /// mod s)`, `ky/s` rows and `kx/s` columns on.
    #[inline(always)]
    fn each_tap(&self, mut f: impl FnMut(X, usize)) {
        let g = self.geom;
        let (mut py, mut row) = (0, 0);
        for ws in self.weights.chunks_exact(g.kw) {
            let (mut px, mut col) = (0, 0);
            for &w in ws {
                f(w, (py * g.stride + px) * g.phase_len + row + col);
                px += 1;
                if px == g.stride {
                    (px, col) = (0, col + 1);
                }
            }
            py += 1;
            if py == g.stride {
                (py, row) = (0, row + g.pitch);
            }
        }
    }

    /// The vector walk of a SIMD strip: for each tap in order, `step(acc,
    /// inputs, w)` on each of the `V` vectors' accumulators, `w =
    /// weight(tap)` and `inputs` the `N` inputs of the vector's lanes.
    /// The accumulators stay in registers; the reads past the strip's
    /// last lane stay inside the planes' [`STRIP_SLACK`].
    #[inline(always)]
    pub(crate) fn sweep<A, W, const N: usize, const V: usize>(
        &self,
        acc: &mut [A; V],
        weight: impl Fn(X) -> W,
        step: impl Fn(&mut A, &[X; N], &W),
    ) {
        self.each_tap(|w, off| {
            let w = weight(w);
            let inputs = self.plane[self.start + off..].as_chunks::<N>().0;
            let inputs = inputs
                .first_chunk::<V>()
                .expect("the planes' slack covers a strip");
            for (a, x) in acc.iter_mut().zip(inputs) {
                step(a, x, &w);
            }
        });
    }

    /// Panics unless the strip fits [`STRIP_RUNS`] vectors of `width`
    /// lanes and `out` holds all of them.
    pub(crate) fn check(&self, out: usize, width: usize) {
        assert!(
            self.lanes <= STRIP_RUNS * width,
            "strip wider than its vectors"
        );
        assert!(out >= STRIP_RUNS * width, "strip lanes");
    }

    /// The scalar strip: `out[..lanes]` starts at `zero` and takes `acc
    /// = mac(acc, w, x)` per tap in order, lane by lane.
    #[inline(always)]
    pub(crate) fn fold<A: Copy>(&self, out: &mut [A], zero: A, mac: impl Fn(A, X, X) -> A) {
        let out = &mut out[..self.lanes];
        out.fill(zero);
        self.each_tap(|w, off| {
            let x = &self.plane[self.start + off..][..self.lanes];
            for (a, &v) in out.iter_mut().zip(x) {
                *a = mac(*a, w, v);
            }
        });
    }
}

/// Runs every (batch, channel) plane of the NCHW input `x` through its
/// channel's taps in `f` (`kh·kw` weights per channel), a [`Strip`] at a
/// time. `planes` holds the `s²` phase planes of one padded plane, laid
/// once per call with `fill` (border included) and [`STRIP_SLACK`] more
/// after them; each plane then rewrites their interior
/// ([`PlaneGeom::lay`], the convolutions' builder; `vector` as there).
/// Output `(oy, ox)` is position `oy·pitch + ox` of the phase pitch; the
/// positions `0..(oh−1)·pitch + ow` are cut into strips of up to
/// `STRIP_RUNS × LANES` lanes, and `strip(strip, buf, channel)` leaves
/// each lane's output in `buf`, whose live lanes (`ox < ow`) are then
/// copied out. Every tap of a live lane reads inside its phase plane
/// (the window fits the padded plane), and a vector from any lane's
/// input stays inside the slack.
fn plane_strips<X: PlaneElem, O: Copy + Default, const LANES: usize>(
    (x, f, out): (&[X], &[X], &mut [O]),
    g: &PlaneGeom,
    (planes, fill, vector): (&mut Vec<X>, X, bool),
    mut strip: impl FnMut(&Strip<'_, X>, &mut [O], usize),
) {
    let taps = g.kh * g.kw;
    let pitch = g.pitch;
    let positions = (g.oh - 1) * pitch + g.ow;
    let mut buf = [O::default(); STRIP_RUNS * STRIP_LANES_F16];
    let buf = &mut buf[..STRIP_RUNS * LANES];
    planes.clear();
    planes.resize(g.channel_len() + STRIP_SLACK, fill);
    let plane = g.h * g.w;
    for (i, op) in out.chunks_exact_mut(g.oh * g.ow).enumerate() {
        g.lay(&x[i * plane..], planes, vector);
        let ci = i % (f.len() / taps);
        let weights = &f[ci * taps..(ci + 1) * taps];
        let mut oy = 0;
        for q0 in (0..positions).step_by(buf.len()) {
            let lanes = buf.len().min(positions - q0);
            let s = Strip {
                plane: planes,
                start: q0,
                lanes,
                weights,
                geom: g,
            };
            strip(&s, buf, ci);
            // The live lanes, output row by output row: row `oy`'s
            // positions `oy·pitch..oy·pitch + ow` within the strip.
            while oy * pitch < q0 + lanes {
                let row = oy * pitch;
                let (a, b) = (row.max(q0), (row + g.ow).min(q0 + lanes));
                if a < b {
                    copy_live(&mut op[oy * g.ow + a - row..], &buf[a - q0..], b - a);
                }
                if row + g.ow > q0 + lanes {
                    break;
                }
                oy += 1;
            }
        }
    }
}

/// Copies `len` live lanes from `src` to `dst`, sixteen at a time where
/// both have room for sixteen: a copy past the run writes outputs a
/// later run of the plane rewrites, since runs are copied in output
/// order, and never writes past `dst`. The GEMMs copy their live
/// columns out the same way.
pub(crate) fn copy_live<O: Copy>(dst: &mut [O], src: &[O], len: usize) {
    const CHUNK: usize = 16;
    for at in (0..len).step_by(CHUNK) {
        let chunks = (
            dst[at..].first_chunk_mut::<CHUNK>(),
            src[at..].first_chunk::<CHUNK>(),
        );
        if let (Some(d), Some(s)) = chunks {
            *d = *s;
        } else {
            dst[at..len].copy_from_slice(&src[at..len]);
            return;
        }
    }
}

/// Depthwise 2-D convolution: `input` NCHW × `filters` `[c,1,kh,kw]`,
/// written into `out` (NCHW with the same channel count; MobileNet v1's
/// dw layers), computed in one im2col-free pass. Dtype and quantization
/// rules match [`crate::conv2d`].
///
/// For channel-wise distribution the executor narrows *both* the input
/// channels and the filters, since each output channel depends only on
/// its own input channel.
pub fn depthwise_conv2d(
    input: &TensorView<'_>,
    filters: &TensorView<'_>,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
    out: &mut TensorViewMut<'_>,
) -> Result<(), TensorError> {
    let out_shape = depthwise_output_shape(&input.shape, &filters.shape, params)?;
    crate::check_bias(bias, input.shape.c())?;
    crate::expect_out(out, &out_shape)?;
    let g = PlaneGeom::new(
        (input.shape.h(), input.shape.w()),
        (filters.shape.dim(2), filters.shape.dim(3)),
        (params.stride, params.pad),
        (out_shape.h(), out_shape.w()),
    );
    let dtypes = [input.dtype(), filters.dtype(), out.dtype()];
    let simd = crate::dispatch::active_kernel_path() == crate::dispatch::KernelPath::Simd;
    let vector = crate::dispatch::active_tier() >= simd::SimdTier::Avx512;
    let mut arena = crate::arena::ThreadArenaGuard::take();
    let arena = &mut *arena;

    match (input.data, filters.data, &mut out.data) {
        (ViewData::F32(x), ViewData::F32(f), ViewDataMut::F32(out)) => {
            plane_strips::<_, _, STRIP_LANES_I32>(
                (x, f, out),
                &g,
                (&mut arena.planes_f32, 0.0, vector),
                |s, buf, ci| {
                    // `acc += w * x` per tap, zero weights skipped; a
                    // padded tap adds `w * 0.0`, like a zero patch entry.
                    s.fold(
                        buf,
                        0.0,
                        |acc, w, x| if w != 0.0 { acc + w * x } else { acc },
                    );
                    for o in &mut buf[..s.lanes] {
                        // Guarded like the GEMM epilogue: an unconditional
                        // `+ 0.0` would flip a `-0.0` result.
                        if let Some(b) = bias {
                            *o += b[ci];
                        }
                        if params.relu && *o < 0.0 {
                            *o = 0.0;
                        }
                    }
                },
            )
        }
        (ViewData::F16(x), ViewData::F16(f), ViewDataMut::F16(out)) => {
            plane_strips::<_, _, STRIP_LANES_F16>(
                (x, f, out),
                &g,
                (&mut arena.planes_f16, F16::ZERO, vector),
                |s, buf, ci| {
                    simd::strip_f16(simd, s, buf);
                    let hb = bias.map(|b| F16::from_f32(b[ci]));
                    // Whole vectors; the lanes past the strip's are junk.
                    let n = s.lanes.next_multiple_of(STRIP_LANES_F16);
                    simd::f16_bias_relu(simd, &mut buf[..n], hb, params.relu);
                },
            )
        }
        (ViewData::QUInt8(x, x_p), ViewData::QUInt8(f, f_p), ViewDataMut::QUInt8(out, out_p)) => {
            let acc_scale = f_p.scale as f64 * x_p.scale as f64;
            if acc_scale <= 0.0 || !acc_scale.is_finite() {
                return Err(TensorError::BadQuantParams(format!(
                    "accumulator scale {acc_scale} invalid"
                )));
            }
            let multiplier = FixedPointMultiplier::from_real(acc_scale / out_p.scale as f64)?;
            let (f_zp, x_zp, out_zp) = (f_p.zero_point as i32, x_p.zero_point, out_p.zero_point);
            let mut sums = [0i32; STRIP_RUNS * STRIP_LANES_I32];
            // The channel whose bias `qb` holds.
            let (mut channel, mut qb) = (usize::MAX, 0);
            plane_strips::<_, _, STRIP_LANES_I32>(
                (x, f, out),
                &g,
                (&mut arena.planes_u8, x_zp, vector),
                |s, buf, ci| {
                    simd::strip_u8(simd, s, f_zp, &mut sums);
                    if ci != channel {
                        // The input zero point, folded out of the sums
                        // with the bias: Σ w′·(x − zp) = Σ w′·x − zp·Σ w′.
                        let w_sum: i32 = s.weights.iter().map(|&w| w as i32 - f_zp).sum();
                        let b = bias.map_or(0, |b| (b[ci] as f64 / acc_scale).round() as i32);
                        (channel, qb) = (ci, b.wrapping_sub((x_zp as i32).wrapping_mul(w_sum)));
                    }
                    // Whole vectors; the lanes past the strip's are junk.
                    let n = s.lanes.next_multiple_of(STRIP_LANES_I32);
                    let (out, sums) = (&mut buf[..n], (&sums[..n], &[][..]));
                    simd::requantize_into(simd, out, sums, qb, &multiplier, out_zp, params.relu);
                },
            );
        }
        _ => return Err(crate::mismatch(&dtypes)),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::alloc::depthwise_conv2d;
    use crate::oracle::conv::depthwise_im2col;
    use utensor::{DType, QuantParams, Tensor};

    fn tensor_from(shape: Shape, f: impl Fn(usize) -> f32) -> Tensor {
        let n = shape.numel();
        Tensor::from_f32(shape, (0..n).map(f).collect()).unwrap()
    }

    fn pseudo(i: usize) -> f32 {
        (((i * 2654435761) % 1000) as f32 - 500.0) / 500.0
    }

    #[test]
    fn direct_f32_bit_identical_to_im2col_path() {
        for (c, h, w, kk, stride, pad) in [
            (3usize, 6usize, 6usize, 3usize, 1usize, 1usize),
            (1, 5, 7, 3, 2, 0),
            (5, 9, 9, 5, 2, 2),
            (4, 4, 4, 1, 1, 0),
        ] {
            let input = tensor_from(Shape::nchw(2, c, h, w), pseudo);
            let filters = tensor_from(Shape::new(vec![c, 1, kk, kk]), |i| pseudo(i + 17));
            let bias: Vec<f32> = (0..c).map(|i| pseudo(i + 91)).collect();
            let p = Conv2dParams {
                stride,
                pad,
                relu: true,
            };
            let want = depthwise_im2col(&input, &filters, Some(&bias), &p, None);
            let got = depthwise_conv2d(&input, &filters, Some(&bias), &p, None).unwrap();
            assert!(got.bit_equal(&want), "c={c} k={kk} s={stride} p={pad}");
        }
    }

    #[test]
    fn direct_quint8_bit_identical_to_im2col_path() {
        let c = 4;
        let input = tensor_from(Shape::nchw(1, c, 7, 7), pseudo)
            .cast(
                DType::QUInt8,
                Some(QuantParams::from_range(-1.0, 1.0).unwrap()),
            )
            .unwrap();
        let filters = tensor_from(Shape::new(vec![c, 1, 3, 3]), |i| pseudo(i + 7))
            .cast(
                DType::QUInt8,
                Some(QuantParams::from_range(-1.0, 1.0).unwrap()),
            )
            .unwrap();
        let bias: Vec<f32> = (0..c).map(|i| pseudo(i + 201)).collect();
        let out_p = QuantParams::from_range(-4.0, 4.0).unwrap();
        let p = Conv2dParams {
            stride: 2,
            pad: 1,
            relu: true,
        };
        let want = depthwise_im2col(&input, &filters, Some(&bias), &p, Some(out_p));
        let got = depthwise_conv2d(&input, &filters, Some(&bias), &p, Some(out_p)).unwrap();
        assert!(got.bit_equal(&want));
    }

    #[test]
    fn direct_f16_bit_identical_to_im2col_path() {
        let c = 3;
        let input = tensor_from(Shape::nchw(1, c, 6, 6), pseudo)
            .cast(DType::F16, None)
            .unwrap();
        let filters = tensor_from(Shape::new(vec![c, 1, 3, 3]), |i| pseudo(i + 5))
            .cast(DType::F16, None)
            .unwrap();
        let p = Conv2dParams {
            stride: 1,
            pad: 1,
            relu: false,
        };
        let want = depthwise_im2col(&input, &filters, None, &p, None);
        let got = depthwise_conv2d(&input, &filters, None, &p, None).unwrap();
        assert!(got.bit_equal(&want));
    }

    #[test]
    fn direct_rejects_bad_shapes() {
        let input = tensor_from(Shape::nchw(1, 4, 6, 6), pseudo);
        let not_depthwise = tensor_from(Shape::new(vec![4, 2, 3, 3]), pseudo);
        let p = Conv2dParams::unit();
        assert!(depthwise_conv2d(&input, &not_depthwise, None, &p, None).is_err());
        let wrong_c = tensor_from(Shape::new(vec![3, 1, 3, 3]), pseudo);
        assert!(depthwise_conv2d(&input, &wrong_c, None, &p, None).is_err());
        let filters = tensor_from(Shape::new(vec![4, 1, 3, 3]), pseudo);
        assert!(depthwise_conv2d(&input, &filters, Some(&[0.0; 2]), &p, None).is_err());
        // QUInt8 without out_params.
        let q_in = input.cast(DType::QUInt8, None).unwrap();
        let q_fil = filters.cast(DType::QUInt8, None).unwrap();
        assert!(depthwise_conv2d(&q_in, &q_fil, None, &p, None).is_err());
        // Float with out_params.
        assert!(
            depthwise_conv2d(&input, &filters, None, &p, Some(QuantParams::default())).is_err()
        );
    }
}
