//! Direct (im2col-free) depthwise convolution.
//!
//! Lowered like a standard convolution, a depthwise layer is one
//! single-channel convolution per channel: one im2col, one degenerate
//! `1 × (kh·kw) × (oh·ow)` GEMM and one output tensor *per channel*,
//! plus a final concat — catastrophically slow for MobileNet's dw layers.
//!
//! This module computes the whole depthwise output in one pass over the
//! input, with zero intermediate allocation. The float planes accumulate
//! each output pixel's `kh·kw` taps in exactly the order — and with
//! exactly the zero-weight short-circuits — of the naive GEMM over the
//! im2col patches of that channel:
//!
//! - **f32**: taps in `(ky, kx)` row-major order, skipping zero weights;
//!   padded taps contribute `w * 0.0`, like a zero patch entry.
//! - **F16**: one [`F16::mul_add`] per tap, no skips, padded taps use
//!   [`F16::ZERO`] — the same MAC sequence as the F16 GEMM.
//!
//! (Skipping a padded tap there could flip a `-0.0`, so the float planes
//! keep the per-pixel form.)
//!
//! - **QUInt8** works a whole *plane* at a time: the plane is copied
//!   once into scratch padded with the input zero point at pitch
//!   `w + 2·pad`, an `i32` accumulator per padded-pitch output position
//!   takes one `w′·(x − zp)` pass per nonzero tap, reading
//!   `stride·i + ky·pitch + kx`, and the live columns are compacted and
//!   requantized in one vector pass. Padded patch entries equal the input
//!   zero point, so padded taps contribute exactly zero, and `i32` sums
//!   are order-free: the result is the per-pixel sum, bit for bit.
//!
//! The result is **bit-identical** to the per-channel im2col + GEMM
//! lowering for every dtype; the equivalence harness holds it to that
//! lowering over the naive GEMMs (`tests/common/conv.rs`).

use utensor::quant::requantize_into;
use utensor::{DType, FixedPointMultiplier, QuantParams, Shape, Tensor, TensorError, F16};

use crate::arena::ScratchArena;
use crate::conv::Conv2dParams;
use crate::out_dim;

/// Validates shapes and computes the output shape of a depthwise conv
/// (`input` NCHW × `filters` `[c,1,kh,kw]`).
fn depthwise_output_shape(
    input: &Shape,
    filters: &Shape,
    p: &Conv2dParams,
) -> Result<Shape, TensorError> {
    if input.rank() != 4 || filters.rank() != 4 || filters.dim(1) != 1 {
        return Err(TensorError::BadConcat(format!(
            "depthwise expects NCHW input and [c,1,kh,kw] filters, got {input} and {filters}"
        )));
    }
    if filters.dim(0) != input.c() {
        return Err(TensorError::BadConcat(format!(
            "depthwise filters {filters} do not match input channels of {input}"
        )));
    }
    let oh = out_dim(input.h(), filters.dim(2), p.stride, p.pad);
    let ow = out_dim(input.w(), filters.dim(3), p.stride, p.pad);
    match (oh, ow) {
        (Some(oh), Some(ow)) => Ok(Shape::nchw(input.n(), input.c(), oh, ow)),
        _ => Err(TensorError::BadConcat(format!(
            "depthwise window {filters} does not fit input {input} with stride {} pad {}",
            p.stride, p.pad
        ))),
    }
}

/// Geometry of one channel plane, shared by the per-dtype loops.
#[derive(Clone, Copy)]
struct PlaneGeom {
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
}

impl PlaneGeom {
    /// Input row for output row `oy`, tap `ky`; `None` when padded.
    #[inline]
    fn iy(&self, oy: usize, ky: usize) -> Option<usize> {
        let iy = (oy * self.stride + ky) as isize - self.pad as isize;
        (0..self.h as isize).contains(&iy).then_some(iy as usize)
    }

    /// Input column for output column `ox`, tap `kx`; `None` when padded.
    #[inline]
    fn ix(&self, ox: usize, kx: usize) -> Option<usize> {
        let ix = (ox * self.stride + kx) as isize - self.pad as isize;
        (0..self.w as isize).contains(&ix).then_some(ix as usize)
    }
}

fn dw_plane_f32(
    out: &mut [f32],
    x: &[f32],
    f: &[f32],
    g: &PlaneGeom,
    bias: Option<f32>,
    relu: bool,
) {
    for oy in 0..g.oh {
        for ox in 0..g.ow {
            let mut acc = 0.0f32;
            for ky in 0..g.kh {
                let iy = g.iy(oy, ky);
                for kx in 0..g.kw {
                    let wv = f[ky * g.kw + kx];
                    if wv == 0.0 {
                        continue;
                    }
                    let xv = match (iy, g.ix(ox, kx)) {
                        (Some(iy), Some(ix)) => x[iy * g.w + ix],
                        _ => 0.0,
                    };
                    acc += wv * xv;
                }
            }
            // Guarded like the GEMM epilogue: an unconditional `+ 0.0`
            // would flip a `-0.0` result.
            if let Some(bv) = bias {
                acc += bv;
            }
            if relu && acc < 0.0 {
                acc = 0.0;
            }
            out[oy * g.ow + ox] = acc;
        }
    }
}

fn dw_plane_f16(
    out: &mut [F16],
    x: &[F16],
    f: &[F16],
    g: &PlaneGeom,
    bias: Option<F16>,
    relu: bool,
) {
    for oy in 0..g.oh {
        for ox in 0..g.ow {
            let mut acc = F16::ZERO;
            for ky in 0..g.kh {
                let iy = g.iy(oy, ky);
                for kx in 0..g.kw {
                    let wv = f[ky * g.kw + kx];
                    let xv = match (iy, g.ix(ox, kx)) {
                        (Some(iy), Some(ix)) => x[iy * g.w + ix],
                        _ => F16::ZERO,
                    };
                    acc = wv.mul_add(xv, acc);
                }
            }
            if let Some(bv) = bias {
                acc += bv;
            }
            if relu && acc < F16::ZERO {
                acc = F16::ZERO;
            }
            out[oy * g.ow + ox] = acc;
        }
    }
}

/// What every plane of one quantized depthwise call shares.
struct QuantCall<'a> {
    /// Whether this thread's kernel path is SIMD.
    simd: bool,
    f_zp: i32,
    x_zp: u8,
    multiplier: &'a FixedPointMultiplier,
    out_zp: u8,
    relu: bool,
}

/// One QUInt8 plane, whole, in the arena's `patches_u8` (the padded
/// plane) and `acc_i32` (the accumulators).
///
/// Accumulator `i = oy·pitch + ox` sums the window whose top-left padded
/// input is `stride·i`, so tap `(ky, kx)` is one strided pass from
/// `ky·pitch + kx`; columns `ox >= ow` are junk and never read back. The
/// last row stops at `ow`, which keeps the farthest read,
/// `((oh−1)·s + kh − 1)·pitch + (ow−1)·s + kw − 1`, inside the padded
/// plane's `(h + 2·pad)·pitch` bytes.
fn dw_plane_quint8(
    out: &mut [u8],
    x: &[u8],
    f: &[u8],
    g: &PlaneGeom,
    q: &QuantCall<'_>,
    qbias: i32,
    arena: &mut ScratchArena,
) {
    let (padded, acc) = (&mut arena.patches_u8, &mut arena.acc_i32);
    let pitch = g.w + 2 * g.pad;
    padded.clear();
    padded.resize((g.h + 2 * g.pad) * pitch, q.x_zp);
    let rows = padded[g.pad * pitch..].chunks_exact_mut(pitch);
    for (row, src) in rows.zip(x.chunks_exact(g.w)) {
        row[g.pad..g.pad + g.w].copy_from_slice(src);
    }
    acc.clear();
    acc.resize((g.oh - 1) * pitch + g.ow, 0);
    for (tap, &wq) in f.iter().enumerate() {
        let wv = wq as i32 - q.f_zp;
        if wv != 0 {
            let start = tap / g.kw * pitch + tap % g.kw;
            crate::simd::mac_row_u8(q.simd, acc, &padded[start..], g.stride, wv, q.x_zp as i32);
        }
    }
    for oy in 1..g.oh {
        acc.copy_within(oy * pitch..oy * pitch + g.ow, oy * g.ow);
    }
    let live = &acc[..g.oh * g.ow];
    requantize_into(out, live, qbias, q.multiplier, q.out_zp, q.relu);
}

/// Depthwise 2-D convolution: `input` NCHW × `filters` `[c,1,kh,kw]` →
/// NCHW with the same channel count (MobileNet v1's dw layers), computed
/// in one im2col-free pass. Dtype and quantization rules match
/// [`crate::conv2d`].
///
/// For channel-wise distribution the executor slices *both* the input
/// channels and the filters, since each output channel depends only on
/// its own input channel.
pub fn depthwise_conv2d(
    input: &Tensor,
    filters: &Tensor,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
    out_params: Option<QuantParams>,
) -> Result<Tensor, TensorError> {
    if filters.dtype() != input.dtype() {
        return Err(TensorError::DTypeMismatch {
            expected: input.dtype(),
            found: filters.dtype(),
        });
    }
    let out_shape = depthwise_output_shape(input.shape(), filters.shape(), params)?;
    let c = input.shape().c();
    if let Some(bias) = bias {
        if bias.len() != c {
            return Err(TensorError::LengthMismatch {
                shape: Shape::new(vec![c]),
                len: bias.len(),
            });
        }
    }
    let (n, h, w) = (input.shape().n(), input.shape().h(), input.shape().w());
    let (kh, kw) = (filters.shape().dim(2), filters.shape().dim(3));
    let (oh, ow) = (out_shape.h(), out_shape.w());
    let g = PlaneGeom {
        h,
        w,
        oh,
        ow,
        kh,
        kw,
        stride: params.stride,
        pad: params.pad,
    };
    let in_plane = h * w;
    let out_plane = oh * ow;
    let taps = kh * kw;

    match input.dtype() {
        DType::F32 => {
            if out_params.is_some() {
                return Err(TensorError::BadQuantParams(
                    "out_params given for a float convolution".into(),
                ));
            }
            let x = input.as_f32()?;
            let f = filters.as_f32()?;
            let mut out = vec![0.0f32; out_shape.numel()];
            for b in 0..n {
                for ci in 0..c {
                    let xp = &x[(b * c + ci) * in_plane..(b * c + ci + 1) * in_plane];
                    let op = &mut out[(b * c + ci) * out_plane..(b * c + ci + 1) * out_plane];
                    let fp = &f[ci * taps..(ci + 1) * taps];
                    let bv = bias.map(|b| b[ci]);
                    dw_plane_f32(op, xp, fp, &g, bv, params.relu);
                }
            }
            Tensor::from_f32(out_shape, out)
        }
        DType::F16 => {
            if out_params.is_some() {
                return Err(TensorError::BadQuantParams(
                    "out_params given for a float convolution".into(),
                ));
            }
            let x = input.as_f16()?;
            let f = filters.as_f16()?;
            let mut out = vec![F16::ZERO; out_shape.numel()];
            for b in 0..n {
                for ci in 0..c {
                    let xp = &x[(b * c + ci) * in_plane..(b * c + ci + 1) * in_plane];
                    let op = &mut out[(b * c + ci) * out_plane..(b * c + ci + 1) * out_plane];
                    let fp = &f[ci * taps..(ci + 1) * taps];
                    let bv = bias.map(|b| F16::from_f32(b[ci]));
                    dw_plane_f16(op, xp, fp, &g, bv, params.relu);
                }
            }
            Tensor::new(out_shape, utensor::TensorData::F16(out))
        }
        DType::QUInt8 => {
            let out_params = out_params.ok_or_else(|| {
                TensorError::BadQuantParams("QUInt8 conv needs output quantization params".into())
            })?;
            let (x, x_p) = input.as_quint8()?;
            let (f, f_p) = filters.as_quint8()?;
            let acc_scale = f_p.scale as f64 * x_p.scale as f64;
            if acc_scale <= 0.0 || !acc_scale.is_finite() {
                return Err(TensorError::BadQuantParams(format!(
                    "accumulator scale {acc_scale} invalid"
                )));
            }
            let multiplier = FixedPointMultiplier::from_real(acc_scale / out_params.scale as f64)?;
            let mut out = vec![0u8; out_shape.numel()];
            let q = QuantCall {
                simd: crate::dispatch::active_kernel_path() == crate::dispatch::KernelPath::Simd,
                f_zp: f_p.zero_point as i32,
                x_zp: x_p.zero_point,
                multiplier: &multiplier,
                out_zp: out_params.zero_point,
                relu: params.relu,
            };
            let mut arena = crate::arena::ThreadArenaGuard::take();
            for b in 0..n {
                for ci in 0..c {
                    let xp = &x[(b * c + ci) * in_plane..(b * c + ci + 1) * in_plane];
                    let op = &mut out[(b * c + ci) * out_plane..(b * c + ci + 1) * out_plane];
                    let fp = &f[ci * taps..(ci + 1) * taps];
                    let qb = bias.map_or(0, |b| (b[ci] as f64 / acc_scale).round() as i32);
                    dw_plane_quint8(op, xp, fp, &g, &q, qb, &mut arena);
                }
            }
            Tensor::from_quantized(out_shape, out, out_params)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::conv::depthwise_im2col;

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
