//! 2-D convolution over [`Tensor`]s.
//!
//! Convolution lowers to im2col + the blocked GEMMs of [`crate::blocked`]
//! per batch element, matching how ACL/gemmlowp execute it on the paper's
//! SoCs; 1×1 stride-1 unpadded layers skip the im2col copy
//! ([`crate::pointwise`]) and depthwise layers have their own direct
//! kernel ([`crate::depthwise`]). The test suites hold all of them to the
//! naive loops kept in `tests/common`.
//!
//! Channel-wise workload distribution (§3.2) does not need special kernel
//! support: the executor slices the *filter* tensor along output channels
//! (axis 0) and calls the same [`conv2d`] on each part.

use utensor::{DType, QuantParams, Shape, Tensor, TensorError, F16};

use crate::blocked::{gemm_f16_blocked, gemm_f32_blocked, gemm_quint8_blocked};
use crate::im2col::im2col_into;
use crate::out_dim;

/// Geometry and fusion options of a convolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conv2dParams {
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Symmetric zero padding in both spatial dimensions.
    pub pad: usize,
    /// Fused ReLU on the output.
    pub relu: bool,
}

impl Conv2dParams {
    /// A unit-stride, unpadded convolution without ReLU.
    pub fn unit() -> Conv2dParams {
        Conv2dParams {
            stride: 1,
            pad: 0,
            relu: false,
        }
    }
}

pub(crate) fn conv_output_shape(
    input: &Shape,
    filters: &Shape,
    p: &Conv2dParams,
) -> Result<Shape, TensorError> {
    if input.rank() != 4 || filters.rank() != 4 {
        return Err(TensorError::BadConcat(format!(
            "conv2d expects rank-4 input/filters, got {input} and {filters}"
        )));
    }
    if input.c() != filters.dim(1) {
        return Err(TensorError::ShapeMismatch {
            expected: input.with_dim(1, filters.dim(1)),
            found: input.clone(),
        });
    }
    let oh = out_dim(input.h(), filters.dim(2), p.stride, p.pad);
    let ow = out_dim(input.w(), filters.dim(3), p.stride, p.pad);
    match (oh, ow) {
        (Some(oh), Some(ow)) => Ok(Shape::nchw(input.n(), filters.dim(0), oh, ow)),
        _ => Err(TensorError::BadConcat(format!(
            "conv window {filters} does not fit input {input} with stride {} pad {}",
            p.stride, p.pad
        ))),
    }
}

/// 2-D convolution: `input` NCHW × `filters` OIHW → NCHW.
///
/// `input` and `filters` must share a dtype. For `QUInt8`, `out_params`
/// (the pre-trained output quantization range, §4.2) is required; for the
/// float types it must be `None`. The f32 `bias` has one entry per output
/// channel.
pub fn conv2d(
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
    // 1×1 stride-1 unpadded convolutions skip the im2col copy: the same
    // GEMM on the same bytes.
    if crate::pointwise::is_pointwise(filters.shape(), params) {
        return crate::pointwise::pointwise_conv2d(input, filters, bias, params, out_params);
    }
    let out_shape = conv_output_shape(input.shape(), filters.shape(), params)?;
    if let Some(bias) = bias {
        if bias.len() != out_shape.c() {
            return Err(TensorError::LengthMismatch {
                shape: Shape::new(vec![out_shape.c()]),
                len: bias.len(),
            });
        }
    }

    let (n, ic, h, w) = (
        input.shape().n(),
        input.shape().c(),
        input.shape().h(),
        input.shape().w(),
    );
    let (oc, kh, kw) = (
        filters.shape().dim(0),
        filters.shape().dim(2),
        filters.shape().dim(3),
    );
    let (oh, ow) = (out_shape.h(), out_shape.w());
    let k = ic * kh * kw;
    let cols = oh * ow;
    let plane = ic * h * w;

    // Patch matrices and the quantized accumulator row come from the
    // per-thread scratch arena: repeated convolutions (one per layer per
    // frame) reuse capacity instead of allocating in the hot loop.
    let mut arena = crate::arena::ThreadArenaGuard::take();
    match input.dtype() {
        DType::F32 => {
            crate::float_out(out_params, "convolution")?;
            let x = input.as_f32()?;
            let f = filters.as_f32()?;
            let mut out = vec![0.0f32; out_shape.numel()];
            // Move the patch buffer out so the GEMM can borrow the arena's
            // pack buffers mutably alongside it.
            let mut patches = std::mem::take(&mut arena.patches_f32);
            for b in 0..n {
                im2col_into(
                    &mut patches,
                    &x[b * plane..(b + 1) * plane],
                    ic,
                    h,
                    w,
                    kh,
                    kw,
                    params.stride,
                    params.pad,
                    0.0f32,
                );
                let c = &mut out[b * oc * cols..(b + 1) * oc * cols];
                gemm_f32_blocked(c, oc, k, cols, f, &patches, bias, params.relu, &mut arena);
            }
            arena.patches_f32 = patches;
            Tensor::from_f32(out_shape, out)
        }
        DType::F16 => {
            crate::float_out(out_params, "convolution")?;
            let x = input.as_f16()?;
            let f = filters.as_f16()?;
            let mut out: Vec<F16> = vec![F16::ZERO; out_shape.numel()];
            let mut patches = std::mem::take(&mut arena.patches_f16);
            for b in 0..n {
                im2col_into(
                    &mut patches,
                    &x[b * plane..(b + 1) * plane],
                    ic,
                    h,
                    w,
                    kh,
                    kw,
                    params.stride,
                    params.pad,
                    F16::ZERO,
                );
                let c = &mut out[b * oc * cols..(b + 1) * oc * cols];
                gemm_f16_blocked(c, oc, k, cols, f, &patches, bias, params.relu, &mut arena);
            }
            arena.patches_f16 = patches;
            Tensor::new(out_shape, utensor::TensorData::F16(out))
        }
        DType::QUInt8 => {
            let out_params = out_params.ok_or_else(|| {
                TensorError::BadQuantParams("QUInt8 conv needs output quantization params".into())
            })?;
            let (x, x_p) = input.as_quint8()?;
            let (f, f_p) = filters.as_quint8()?;
            let mut out: Vec<u8> = vec![0u8; out_shape.numel()];
            let mut patches = std::mem::take(&mut arena.patches_u8);
            let mut res: Result<(), TensorError> = Ok(());
            for b in 0..n {
                im2col_into(
                    &mut patches,
                    &x[b * plane..(b + 1) * plane],
                    ic,
                    h,
                    w,
                    kh,
                    kw,
                    params.stride,
                    params.pad,
                    x_p.zero_point,
                );
                let c = &mut out[b * oc * cols..(b + 1) * oc * cols];
                let r = gemm_quint8_blocked(
                    c,
                    oc,
                    k,
                    cols,
                    f,
                    f_p,
                    &patches,
                    x_p,
                    bias,
                    out_params,
                    params.relu,
                    &mut arena,
                );
                if let Err(e) = r {
                    res = Err(e);
                    break;
                }
            }
            arena.patches_u8 = patches;
            res.and_then(|()| Tensor::from_quantized(out_shape, out, out_params))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depthwise_conv2d;
    use crate::oracle::conv::conv2d_im2col;

    fn tensor_from(shape: Shape, f: impl Fn(usize) -> f32) -> Tensor {
        let n = shape.numel();
        Tensor::from_f32(shape, (0..n).map(f).collect()).unwrap()
    }

    fn pseudo(i: usize) -> f32 {
        (((i * 2654435761) % 1000) as f32 - 500.0) / 500.0
    }

    #[test]
    fn im2col_gemm_matches_naive() {
        for (ic, oc, h, w, kh, stride, pad) in [
            (1usize, 1usize, 5usize, 5usize, 3usize, 1usize, 0usize),
            (3, 4, 7, 6, 3, 1, 1),
            (2, 5, 9, 9, 5, 2, 2),
            (4, 2, 8, 8, 1, 1, 0),
            (2, 3, 6, 6, 3, 3, 0),
        ] {
            let input = tensor_from(Shape::nchw(2, ic, h, w), pseudo);
            let filters = tensor_from(Shape::oihw(oc, ic, kh, kh), |i| pseudo(i + 77));
            let bias: Vec<f32> = (0..oc).map(|i| pseudo(i + 999)).collect();
            let p = Conv2dParams {
                stride,
                pad,
                relu: false,
            };
            // The blocked GEMM keeps the naive GEMM's accumulation chains.
            let fast = conv2d(&input, &filters, Some(&bias), &p, None).unwrap();
            let slow = conv2d_im2col(&input, &filters, Some(&bias), &p, None);
            assert!(
                fast.bit_equal(&slow),
                "mismatch for ic={ic} oc={oc} k={kh} s={stride} p={pad}"
            );
        }
    }

    #[test]
    fn relu_fusion_matches_naive() {
        let input = tensor_from(Shape::nchw(1, 2, 5, 5), pseudo);
        let filters = tensor_from(Shape::oihw(3, 2, 3, 3), |i| pseudo(i + 13));
        let p = Conv2dParams {
            stride: 1,
            pad: 1,
            relu: true,
        };
        let fast = conv2d(&input, &filters, None, &p, None).unwrap();
        let slow = conv2d_im2col(&input, &filters, None, &p, None);
        assert!(fast.bit_equal(&slow));
        assert!(fast.as_f32().unwrap().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn f16_conv_tracks_f32() {
        let input = tensor_from(Shape::nchw(1, 3, 6, 6), pseudo);
        let filters = tensor_from(Shape::oihw(4, 3, 3, 3), |i| pseudo(i + 5));
        let p = Conv2dParams {
            stride: 1,
            pad: 1,
            relu: false,
        };
        let f32_out = conv2d(&input, &filters, None, &p, None).unwrap();
        let h_in = input.cast(DType::F16, None).unwrap();
        let h_fil = filters.cast(DType::F16, None).unwrap();
        let f16_out = conv2d(&h_in, &h_fil, None, &p, None).unwrap();
        assert_eq!(f16_out.dtype(), DType::F16);
        // 27-term accumulations of O(1) values: a loose but meaningful bound.
        assert!(f16_out.max_abs_diff(&f32_out) < 0.06);
    }

    #[test]
    fn quint8_conv_tracks_f32() {
        let input = tensor_from(Shape::nchw(1, 3, 6, 6), pseudo);
        let filters = tensor_from(Shape::oihw(4, 3, 3, 3), |i| pseudo(i + 5));
        let p = Conv2dParams {
            stride: 1,
            pad: 1,
            relu: false,
        };
        let f32_out = conv2d(&input, &filters, None, &p, None).unwrap();
        let out_range = QuantParams::from_data(f32_out.as_f32().unwrap()).unwrap();
        let q_in = input
            .cast(
                DType::QUInt8,
                Some(QuantParams::from_range(-1.0, 1.0).unwrap()),
            )
            .unwrap();
        let q_fil = filters
            .cast(
                DType::QUInt8,
                Some(QuantParams::from_range(-1.0, 1.0).unwrap()),
            )
            .unwrap();
        let q_out = conv2d(&q_in, &q_fil, None, &p, Some(out_range)).unwrap();
        assert_eq!(q_out.dtype(), DType::QUInt8);
        // 27 accumulations; each input/filter has <= scale/2 error.
        assert!(
            q_out.max_abs_diff(&f32_out) < 0.25,
            "diff = {}",
            q_out.max_abs_diff(&f32_out)
        );
    }

    #[test]
    fn channel_split_merge_equals_whole_conv() {
        // THE μLayer invariant: conv with filters split along output
        // channels, then concatenated, is bit-identical to the whole conv.
        let input = tensor_from(Shape::nchw(1, 3, 8, 8), pseudo);
        let filters = tensor_from(Shape::oihw(8, 3, 3, 3), |i| pseudo(i + 31));
        let bias: Vec<f32> = (0..8).map(|i| pseudo(i + 400)).collect();
        let p = Conv2dParams {
            stride: 1,
            pad: 1,
            relu: true,
        };
        let whole = conv2d(&input, &filters, Some(&bias), &p, None).unwrap();
        for cut in [0usize, 2, 4, 6, 8] {
            let f_lo = filters.slice_axis(0, 0, cut).unwrap();
            let f_hi = filters.slice_axis(0, cut, 8).unwrap();
            let mut parts = Vec::new();
            if cut > 0 {
                parts.push(conv2d(&input, &f_lo, Some(&bias[..cut]), &p, None).unwrap());
            }
            if cut < 8 {
                parts.push(conv2d(&input, &f_hi, Some(&bias[cut..]), &p, None).unwrap());
            }
            let refs: Vec<&Tensor> = parts.iter().collect();
            let merged = Tensor::concat_axis(1, &refs).unwrap();
            assert!(merged.bit_equal(&whole), "cut = {cut}");
        }
    }

    #[test]
    fn channel_split_merge_equals_whole_conv_quint8() {
        let input = tensor_from(Shape::nchw(1, 2, 6, 6), pseudo)
            .cast(
                DType::QUInt8,
                Some(QuantParams::from_range(-1.0, 1.0).unwrap()),
            )
            .unwrap();
        let filters = tensor_from(Shape::oihw(6, 2, 3, 3), |i| pseudo(i + 3))
            .cast(
                DType::QUInt8,
                Some(QuantParams::from_range(-1.0, 1.0).unwrap()),
            )
            .unwrap();
        let out_p = QuantParams::from_range(-4.0, 4.0).unwrap();
        let p = Conv2dParams {
            stride: 1,
            pad: 0,
            relu: false,
        };
        let whole = conv2d(&input, &filters, None, &p, Some(out_p)).unwrap();
        let f_lo = filters.slice_axis(0, 0, 2).unwrap();
        let f_hi = filters.slice_axis(0, 2, 6).unwrap();
        let lo = conv2d(&input, &f_lo, None, &p, Some(out_p)).unwrap();
        let hi = conv2d(&input, &f_hi, None, &p, Some(out_p)).unwrap();
        let merged = Tensor::concat_axis(1, &[&lo, &hi]).unwrap();
        assert!(merged.bit_equal(&whole));
    }

    #[test]
    fn shape_errors() {
        let input = tensor_from(Shape::nchw(1, 3, 5, 5), pseudo);
        // Channel mismatch.
        let bad_filters = tensor_from(Shape::oihw(2, 4, 3, 3), pseudo);
        assert!(conv2d(&input, &bad_filters, None, &Conv2dParams::unit(), None).is_err());
        // Window larger than input.
        let big = tensor_from(Shape::oihw(2, 3, 9, 9), pseudo);
        assert!(conv2d(&input, &big, None, &Conv2dParams::unit(), None).is_err());
        // Bias length.
        let filters = tensor_from(Shape::oihw(2, 3, 3, 3), pseudo);
        assert!(conv2d(
            &input,
            &filters,
            Some(&[0.0; 5]),
            &Conv2dParams::unit(),
            None
        )
        .is_err());
        // dtype mismatch between input and filters.
        let h_fil = filters.cast(DType::F16, None).unwrap();
        assert!(conv2d(&input, &h_fil, None, &Conv2dParams::unit(), None).is_err());
        // QUInt8 without out_params.
        let q_in = input.cast(DType::QUInt8, None).unwrap();
        let q_fil = filters.cast(DType::QUInt8, None).unwrap();
        assert!(conv2d(&q_in, &q_fil, None, &Conv2dParams::unit(), None).is_err());
        // Float with out_params.
        assert!(conv2d(
            &input,
            &filters,
            None,
            &Conv2dParams::unit(),
            Some(QuantParams::default())
        )
        .is_err());
    }

    #[test]
    fn depthwise_matches_per_channel_naive() {
        let c = 4;
        let input = tensor_from(Shape::nchw(1, c, 6, 6), pseudo);
        let filters = tensor_from(Shape::new(vec![c, 1, 3, 3]), |i| pseudo(i + 9));
        let bias: Vec<f32> = (0..c).map(pseudo).collect();
        let p = Conv2dParams {
            stride: 1,
            pad: 1,
            relu: false,
        };
        let out = depthwise_conv2d(&input, &filters, Some(&bias), &p, None).unwrap();
        assert_eq!(out.shape().dims(), &[1, c, 6, 6]);
        // Oracle: each channel is an independent 1-channel conv.
        for ci in 0..c {
            let xin = input.slice_axis(1, ci, ci + 1).unwrap();
            let fil = filters.slice_axis(0, ci, ci + 1).unwrap();
            let want = conv2d_im2col(&xin, &fil, Some(&bias[ci..ci + 1]), &p, None);
            let got = out.slice_axis(1, ci, ci + 1).unwrap();
            assert!(got.bit_equal(&want), "channel {ci}");
        }
    }

    #[test]
    fn depthwise_rejects_bad_filter_shape() {
        let input = tensor_from(Shape::nchw(1, 4, 6, 6), pseudo);
        let filters = tensor_from(Shape::new(vec![4, 2, 3, 3]), pseudo);
        assert!(depthwise_conv2d(&input, &filters, None, &Conv2dParams::unit(), None).is_err());
        let wrong_c = tensor_from(Shape::new(vec![3, 1, 3, 3]), pseudo);
        assert!(depthwise_conv2d(&input, &wrong_c, None, &Conv2dParams::unit(), None).is_err());
    }

    #[test]
    fn batch_dimension_is_independent() {
        // Running batch 2 equals running each batch element separately.
        let input = tensor_from(Shape::nchw(2, 2, 5, 5), pseudo);
        let filters = tensor_from(Shape::oihw(3, 2, 3, 3), |i| pseudo(i + 21));
        let p = Conv2dParams {
            stride: 1,
            pad: 0,
            relu: false,
        };
        let both = conv2d(&input, &filters, None, &p, None).unwrap();
        for b in 0..2 {
            let single = conv2d(
                &input.slice_axis(0, b, b + 1).unwrap(),
                &filters,
                None,
                &p,
                None,
            )
            .unwrap();
            let part = both.slice_axis(0, b, b + 1).unwrap();
            assert!(part.bit_equal(&single), "batch {b}");
        }
    }
}
