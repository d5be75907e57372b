//! The convolution oracles.
//!
//! - [`conv2d_naive_f32`]: the textbook seven-deep loop, with no
//!   lowering at all, so a bug in `im2col` or a GEMM cannot hide.
//! - [`conv2d_im2col`]: the library's former deployment path, im2col
//!   followed by the naive GEMMs of [`super::gemm`], in every dtype.
//!   `ukernels::conv2d` (blocked GEMMs, direct 1×1) must equal it bit
//!   for bit.
//! - [`depthwise_im2col`]: the library's former depthwise body, one
//!   single-channel [`conv2d_im2col`] per channel and a concat. The direct
//!   depthwise kernel must equal it bit for bit.
//!
//! All three panic where the library returns an error.

use ukernels::{out_dim, Conv2dParams};
use utensor::{QuantParams, Shape, Tensor, TensorData, ViewData, F16};

use super::gemm::{gemm_f16, gemm_f32, gemm_quint8};

/// The NCHW output shape of `input` convolved with OIHW `filters`.
fn output_shape(input: &Shape, filters: &Shape, p: &Conv2dParams) -> Shape {
    let oh = out_dim(input.h(), filters.dim(2), p.stride, p.pad).expect("window fits (h)");
    let ow = out_dim(input.w(), filters.dim(3), p.stride, p.pad).expect("window fits (w)");
    Shape::nchw(input.n(), filters.dim(0), oh, ow)
}

/// Naive direct f32 convolution: `input` NCHW × `filters` OIHW → NCHW.
pub(crate) fn conv2d_naive_f32(
    input: &Tensor,
    filters: &Tensor,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
) -> Tensor {
    let out_shape = output_shape(input.shape(), filters.shape(), params);
    let x = input.as_f32().unwrap();
    let f = filters.as_f32().unwrap();
    let s = input.shape();
    let (n, ic, h, w) = (s.n(), s.c(), s.h(), s.w());
    let (oc, kh, kw) = (
        out_shape.c(),
        filters.shape().dim(2),
        filters.shape().dim(3),
    );
    let (oh, ow) = (out_shape.h(), out_shape.w());

    let mut out = vec![0.0f32; out_shape.numel()];
    for b in 0..n {
        for o in 0..oc {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ci in 0..ic {
                        for ky in 0..kh {
                            let iy = (oy * params.stride + ky) as isize - params.pad as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..kw {
                                let ix = (ox * params.stride + kx) as isize - params.pad as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let xi = ((b * ic + ci) * h + iy as usize) * w + ix as usize;
                                let fi = ((o * ic + ci) * kh + ky) * kw + kx;
                                acc += x[xi] * f[fi];
                            }
                        }
                    }
                    if let Some(bias) = bias {
                        acc += bias[o];
                    }
                    if params.relu && acc < 0.0 {
                        acc = 0.0;
                    }
                    out[((b * oc + o) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    Tensor::from_f32(out_shape, out).unwrap()
}

/// The im2col patch matrix of one batch element `x` of `input`, built
/// here rather than by the library's packer: row `(ci, ky, kx)`, column
/// `(oy, ox)`, `pad` where the window hangs over the plane.
fn patches<T: Copy>(x: &[T], input: &Shape, filters: &Shape, p: &Conv2dParams, pad: T) -> Vec<T> {
    let (c, h, w) = (input.c(), input.h(), input.w());
    let (kh, kw) = (filters.dim(2), filters.dim(3));
    let oh = out_dim(h, kh, p.stride, p.pad).expect("window fits");
    let ow = out_dim(w, kw, p.stride, p.pad).expect("window fits");
    let mut out = Vec::with_capacity(c * kh * kw * oh * ow);
    for ci in 0..c {
        for ky in 0..kh {
            for kx in 0..kw {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let iy = (oy * p.stride + ky).checked_sub(p.pad).filter(|&i| i < h);
                        let ix = (ox * p.stride + kx).checked_sub(p.pad).filter(|&i| i < w);
                        out.push(match (iy, ix) {
                            (Some(iy), Some(ix)) => x[(ci * h + iy) * w + ix],
                            _ => pad,
                        });
                    }
                }
            }
        }
    }
    out
}

/// im2col + naive GEMM per batch element: `ukernels::conv2d`'s contract,
/// `out_params` required for QUInt8 and absent for floats.
pub(crate) fn conv2d_im2col(
    input: &Tensor,
    filters: &Tensor,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
    out_params: Option<QuantParams>,
) -> Tensor {
    let (s, fs) = (input.shape(), filters.shape());
    let out_shape = output_shape(s, fs, params);
    let (oc, k, cols) = (
        fs.dim(0),
        fs.numel() / fs.dim(0),
        out_shape.h() * out_shape.w(),
    );
    let plane = s.c() * s.h() * s.w();
    let batches = (0..s.n()).map(|b| b * plane..(b + 1) * plane);
    let relu = params.relu;
    match input.view().data {
        ViewData::F32(x) => {
            let f = filters.as_f32().unwrap();
            let out = batches
                .flat_map(|r| {
                    let b = patches(&x[r], s, fs, params, 0.0);
                    gemm_f32(oc, k, cols, f, &b, bias, relu)
                })
                .collect();
            Tensor::from_f32(out_shape, out).unwrap()
        }
        ViewData::F16(x) => {
            let f = filters.as_f16().unwrap();
            let out = batches
                .flat_map(|r| {
                    let b = patches(&x[r], s, fs, params, F16::ZERO);
                    gemm_f16(oc, k, cols, f, &b, bias, relu)
                })
                .collect();
            Tensor::new(out_shape, TensorData::F16(out)).unwrap()
        }
        ViewData::QUInt8(x, x_p) => {
            let (f, f_p) = filters.as_quint8().unwrap();
            let out_p = out_params.expect("QUInt8 needs out_params");
            let out = batches
                .flat_map(|r| {
                    let b = patches(&x[r], s, fs, params, x_p.zero_point);
                    gemm_quint8(oc, k, cols, f, f_p, &b, x_p, bias, out_p, relu).unwrap()
                })
                .collect();
            Tensor::from_quantized(out_shape, out, out_p).unwrap()
        }
    }
}

/// Depthwise convolution (`filters` `[c,1,kh,kw]`) as one
/// single-channel [`conv2d_im2col`] per channel, concatenated.
pub(crate) fn depthwise_im2col(
    input: &Tensor,
    filters: &Tensor,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
    out_params: Option<QuantParams>,
) -> Tensor {
    let parts: Vec<Tensor> = (0..input.shape().c())
        .map(|ci| {
            let xin = input.slice_axis(1, ci, ci + 1).unwrap();
            let fil = filters.slice_axis(0, ci, ci + 1).unwrap();
            let b = bias.map(|b| &b[ci..ci + 1]);
            conv2d_im2col(&xin, &fil, b, params, out_params)
        })
        .collect();
    Tensor::concat_axis(1, &parts.iter().collect::<Vec<_>>()).unwrap()
}
