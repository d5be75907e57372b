//! The test oracles: the naive loops the library's kernels replaced,
//! kept so every differential test takes its `want` from code the fast
//! paths do not share.
//!
//! - [`gemm`]: the naive GEMMs, one ascending chain per output element;
//! - [`conv`]: the seven-deep f32 convolution, im2col + naive GEMM in
//!   every dtype, and the per-channel depthwise body;
//! - [`alloc`]: allocating forms of the layer kernels (which write into
//!   a caller's view), so tests compare owned tensors;
//! - [`pool2d_windowed`] below: the library's former `pool2d` body. Every
//!   output visits its `k × k` window tap by tap, tests each tap against
//!   the plane's bounds, and folds the valid ones in row-major order.
//!   `ukernels::pool2d` walks output rows with the window clipped
//!   beforehand (and, for QUInt8, reduces rows before columns); the
//!   pooling property and the `pool/quint8/rowwise` equivalence cell hold
//!   it to this loop bit for bit.
//!
//! The library's unit tests mount this directory too, so the oracles
//! name the library as `ukernels`. Each test binary uses a different
//! subset of them.
#![allow(dead_code)]

pub(crate) mod alloc;
pub(crate) mod conv;
pub(crate) mod gemm;

use ukernels::{out_dim, PoolKind, PoolParams};
use utensor::{DType, QuantParams, Shape, Tensor, TensorData, ViewData, F16};

/// Visits the valid positions of each window, folding with `f`.
#[allow(clippy::too_many_arguments)]
fn pool_plane<T: Copy, A: Copy>(
    plane: &[T],
    (h, w): (usize, usize),
    (oh, ow): (usize, usize),
    p: &PoolParams,
    init: A,
    mut f: impl FnMut(A, T) -> A,
    mut finish: impl FnMut(A, usize) -> T,
    out: &mut Vec<T>,
) {
    for oy in 0..oh {
        for ox in 0..ow {
            let mut acc = init;
            let mut count = 0usize;
            for ky in 0..p.k {
                let iy = (oy * p.stride + ky) as isize - p.pad as isize;
                if iy < 0 || iy >= h as isize {
                    continue;
                }
                for kx in 0..p.k {
                    let ix = (ox * p.stride + kx) as isize - p.pad as isize;
                    if ix < 0 || ix >= w as isize {
                        continue;
                    }
                    acc = f(acc, plane[iy as usize * w + ix as usize]);
                    count += 1;
                }
            }
            out.push(finish(acc, count));
        }
    }
}

/// `ukernels::pool2d` by the windowed loop. Panics where `pool2d` errors.
pub(crate) fn pool2d_windowed(input: &Tensor, params: &PoolParams) -> Tensor {
    let s = input.shape();
    let (n, c, h, w) = (s.n(), s.c(), s.h(), s.w());
    let oh = out_dim(h, params.k, params.stride, params.pad).expect("window fits");
    let ow = out_dim(w, params.k, params.stride, params.pad).expect("window fits");
    let out_shape = Shape::nchw(n, c, oh, ow);
    let (dims, out_dims) = ((h, w), (oh, ow));
    let planes = |len: usize| (0..n * c).map(move |pl| pl * len..(pl + 1) * len);
    match input.view().data {
        ViewData::F32(x) => {
            let mut out = Vec::new();
            for plane in planes(h * w) {
                let plane = &x[plane];
                match params.kind {
                    PoolKind::Max => pool_plane(
                        plane,
                        dims,
                        out_dims,
                        params,
                        f32::NEG_INFINITY,
                        f32::max,
                        |a, _| a,
                        &mut out,
                    ),
                    PoolKind::Avg => pool_plane(
                        plane,
                        dims,
                        out_dims,
                        params,
                        0.0f32,
                        |a, v| a + v,
                        |a, count| if count == 0 { 0.0 } else { a / count as f32 },
                        &mut out,
                    ),
                }
            }
            Tensor::from_f32(out_shape, out).unwrap()
        }
        ViewData::F16(x) => {
            let mut out: Vec<F16> = Vec::new();
            for plane in planes(h * w) {
                let plane = &x[plane];
                match params.kind {
                    PoolKind::Max => pool_plane(
                        plane,
                        dims,
                        out_dims,
                        params,
                        F16::NEG_INFINITY,
                        |a, v| a.max(v),
                        |a, _| a,
                        &mut out,
                    ),
                    PoolKind::Avg => pool_plane(
                        plane,
                        dims,
                        out_dims,
                        params,
                        F16::ZERO,
                        |a, v| a + v,
                        |a, count| {
                            if count == 0 {
                                F16::ZERO
                            } else {
                                a / F16::from_f32(count as f32)
                            }
                        },
                        &mut out,
                    ),
                }
            }
            Tensor::new(out_shape, TensorData::F16(out)).unwrap()
        }
        ViewData::QUInt8(x, qp) => {
            let mut out: Vec<u8> = Vec::new();
            for plane in planes(h * w) {
                let plane = &x[plane];
                match params.kind {
                    PoolKind::Max => pool_plane(
                        plane,
                        dims,
                        out_dims,
                        params,
                        u8::MIN,
                        |a: u8, v: u8| a.max(v),
                        |a, count| if count == 0 { qp.zero_point } else { a },
                        &mut out,
                    ),
                    PoolKind::Avg => pool_plane(
                        plane,
                        dims,
                        out_dims,
                        params,
                        0i32,
                        |a, v| a + v as i32,
                        |a, count| {
                            if count == 0 {
                                qp.zero_point
                            } else {
                                ((a + count as i32 / 2) / count as i32).clamp(0, 255) as u8
                            }
                        },
                        &mut out,
                    ),
                }
            }
            Tensor::from_quantized(out_shape, out, qp).unwrap()
        }
    }
}

/// A deterministic NCHW tensor of `dtype` whose values stress pooling:
/// QUInt8 codes over the whole range; floats with both zeros, ties,
/// infinities and — one element in 23 — a NaN.
pub(crate) fn pool_input(shape: Shape, dtype: DType, seed: usize) -> Tensor {
    let mix = |i: usize| (i + seed).wrapping_mul(2654435761) >> 7;
    let n = shape.numel();
    match dtype {
        DType::QUInt8 => Tensor::from_quantized(
            shape,
            (0..n).map(|i| (mix(i) % 256) as u8).collect(),
            QuantParams {
                scale: 0.05,
                zero_point: (seed % 256) as u8,
            },
        )
        .unwrap(),
        DType::F16 => {
            let special = [0x0000u16, 0x8000, 0x7C00, 0xFC00, 0x7E00, 0x0001, 0x7BFF];
            let data = (0..n)
                .map(|i| match mix(i) % 23 {
                    0 => F16::from_bits(special[mix(i + 1) % special.len()]),
                    _ => F16::from_f32((mix(i) % 4001) as f32 / 8.0 - 250.0),
                })
                .collect();
            Tensor::new(shape, TensorData::F16(data)).unwrap()
        }
        DType::F32 => {
            let special = [
                0.0f32,
                -0.0,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::NAN,
                1e-40,
            ];
            let data = (0..n)
                .map(|i| match mix(i) % 23 {
                    0 => special[mix(i + 1) % special.len()],
                    _ => (mix(i) % 4001) as f32 / 7.0 - 285.0,
                })
                .collect();
            Tensor::from_f32(shape, data).unwrap()
        }
    }
}
