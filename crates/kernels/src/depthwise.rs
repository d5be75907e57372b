//! Direct (im2col-free) depthwise convolution.
//!
//! Lowered like a standard convolution, a depthwise layer is one
//! single-channel convolution per channel: one im2col, one degenerate
//! `1 × (kh·kw) × (oh·ow)` GEMM and one output tensor *per channel*,
//! plus a final concat — catastrophically slow for MobileNet's dw layers.
//!
//! This module computes the whole depthwise output in one pass over the
//! input, with zero intermediate allocation, a whole *plane* at a time in
//! every dtype: the plane is copied once into scratch, padded at pitch
//! `w + 2·pad` with what a padded patch entry holds (`0.0`, `+0`, the
//! input zero point), and an accumulator per padded-pitch output
//! position takes one strided pass per tap, reading `stride·i +
//! ky·pitch + kx`. The live columns are then compacted and run through
//! the epilogue in one row pass. Each output pixel takes its `kh·kw`
//! taps in `(ky, kx)` row-major order — the order, and the zero-weight
//! short-circuits, of the naive GEMM over the im2col patches of that
//! channel:
//!
//! - **f32**: `acc += w * x`, skipping zero weights; padded taps add
//!   `w * 0.0`, like a zero patch entry.
//! - **F16**: one [`F16::mul_add`] per tap, no skips — the same MAC
//!   sequence as the F16 GEMM; on an AVX512-FP16 host a stride-1 or
//!   stride-2 pass is `vfmadd231ph`, 32 lanes at a time.
//! - **QUInt8**: one `w′·(x − zp)` pass per nonzero tap. Padded taps
//!   contribute exactly zero, and `i32` sums are order-free.
//!
//! The result is **bit-identical** to the per-channel im2col + GEMM
//! lowering for every dtype; the equivalence harness holds it to that
//! lowering over the naive GEMMs (`tests/common/conv.rs`).

use utensor::requantize_into;
use utensor::{DType, FixedPointMultiplier, QuantParams, Shape, Tensor, TensorError, F16};

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

/// Runs every (batch, channel) plane of the NCHW input `x` through its
/// channel's taps in `f` (`kh·kw` weights per channel), a whole plane at
/// a time, and hands the live accumulators, in output order, to
/// `store(out_plane, live, channel)`. Each plane is copied once into
/// `padded`, surrounded by `pad` rows and columns of `fill`, at pitch
/// `w + 2·pad`; `acc` holds one accumulator per padded-pitch output
/// position, starting at `zero`.
///
/// Accumulator `i = oy·pitch + ox` sums the window whose top-left padded
/// input is `stride·i`, so `pass(weight, acc, row)` updates every
/// accumulator with tap `(ky, kx)` in one strided pass over `row`, the
/// padded plane from `ky·pitch + kx`. Each output takes its taps in
/// `(ky, kx)` row-major order. Columns `ox >= ow` are junk, compacted
/// away before `store`. The last row stops at `ow`, which keeps the
/// farthest read, `((oh−1)·s + kh − 1)·pitch + (ow−1)·s + kw − 1`, inside
/// the padded plane's `(h + 2·pad)·pitch` elements.
fn plane_taps<X: Copy, A: Copy, O>(
    (x, f, out): (&[X], &[X], &mut [O]),
    g: &PlaneGeom,
    (padded, acc): (&mut Vec<X>, &mut Vec<A>),
    (fill, zero): (X, A),
    mut pass: impl FnMut(X, &mut [A], &[X]),
    mut store: impl FnMut(&mut [O], &[A], usize),
) {
    let (pitch, taps) = (g.w + 2 * g.pad, g.kh * g.kw);
    let planes = x
        .chunks_exact(g.h * g.w)
        .zip(out.chunks_exact_mut(g.oh * g.ow));
    for (i, (xp, op)) in planes.enumerate() {
        padded.clear();
        padded.resize((g.h + 2 * g.pad) * pitch, fill);
        let rows = padded[g.pad * pitch..].chunks_exact_mut(pitch);
        for (row, src) in rows.zip(xp.chunks_exact(g.w)) {
            row[g.pad..g.pad + g.w].copy_from_slice(src);
        }
        acc.clear();
        acc.resize((g.oh - 1) * pitch + g.ow, zero);
        let ci = i % (f.len() / taps);
        for (tap, &w) in f[ci * taps..(ci + 1) * taps].iter().enumerate() {
            pass(w, acc, &padded[tap / g.kw * pitch + tap % g.kw..]);
        }
        for oy in 1..g.oh {
            acc.copy_within(oy * pitch..oy * pitch + g.ow, oy * g.ow);
        }
        store(op, &acc[..g.oh * g.ow], ci);
    }
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
    let g = PlaneGeom {
        h: input.shape().h(),
        w: input.shape().w(),
        oh: out_shape.h(),
        ow: out_shape.w(),
        kh: filters.shape().dim(2),
        kw: filters.shape().dim(3),
        stride: params.stride,
        pad: params.pad,
    };
    let simd = crate::dispatch::active_kernel_path() == crate::dispatch::KernelPath::Simd;
    let mut arena = crate::arena::ThreadArenaGuard::take();
    let arena = &mut *arena;

    match input.dtype() {
        DType::F32 => {
            crate::float_out(out_params, "convolution")?;
            let (x, f) = (input.as_f32()?, filters.as_f32()?);
            let mut out = vec![0.0f32; out_shape.numel()];
            plane_taps(
                (x, f, &mut out),
                &g,
                (&mut arena.patches_f32, &mut arena.acc_f32),
                (0.0, 0.0),
                // `acc += w * x` per tap, zero weights skipped; a padded
                // tap adds `w * 0.0`, like a zero patch entry.
                |wv, acc, row| {
                    if wv != 0.0 {
                        for (a, &v) in acc.iter_mut().zip(row.iter().step_by(g.stride)) {
                            *a += wv * v;
                        }
                    }
                },
                |op, live, ci| {
                    for (o, &v) in op.iter_mut().zip(live) {
                        // Guarded like the GEMM epilogue: an unconditional
                        // `+ 0.0` would flip a `-0.0` result.
                        *o = bias.map_or(v, |b| v + b[ci]);
                        if params.relu && *o < 0.0 {
                            *o = 0.0;
                        }
                    }
                },
            );
            Tensor::from_f32(out_shape, out)
        }
        DType::F16 => {
            crate::float_out(out_params, "convolution")?;
            let (x, f) = (input.as_f16()?, filters.as_f16()?);
            let mut out = vec![F16::ZERO; out_shape.numel()];
            plane_taps(
                (x, f, &mut out),
                &g,
                (&mut arena.patches_f16, &mut arena.acc_f16),
                (F16::ZERO, F16::ZERO),
                |wv, acc, row| crate::simd::mac_row_f16(simd, acc, row, g.stride, wv),
                |op, live, ci| {
                    op.copy_from_slice(live);
                    let hb = bias.map(|b| F16::from_f32(b[ci]));
                    crate::simd::f16_bias_relu(simd, op, hb, params.relu);
                },
            );
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
            let (f_zp, x_zp) = (f_p.zero_point as i32, x_p.zero_point);
            let mut out = vec![0u8; out_shape.numel()];
            plane_taps(
                (x, f, &mut out),
                &g,
                (&mut arena.patches_u8, &mut arena.acc_i32),
                (x_zp, 0),
                |wq, acc, row| {
                    let wv = wq as i32 - f_zp;
                    if wv != 0 {
                        crate::simd::mac_row_u8(simd, acc, row, g.stride, wv, x_zp as i32);
                    }
                },
                |op, live, ci| {
                    let qb = bias.map_or(0, |b| (b[ci] as f64 / acc_scale).round() as i32);
                    let zp = out_params.zero_point;
                    requantize_into(op, live, qb, &multiplier, zp, params.relu);
                },
            );
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
