//! Direct pointwise (1×1) convolution.
//!
//! For a 1×1 kernel with stride 1 and no padding, the im2col patch
//! matrix *is* the input plane: `im2col` degenerates to an identity
//! copy of `ic × (h·w)` elements. MobileNet spends most of its MACs in
//! exactly these layers, so the copy is pure overhead — this module
//! feeds the input plane to the GEMM directly.
//!
//! [`crate::conv2d`] sends every eligible layer here. The blocked GEMM
//! runs on the same operand bytes the identity im2col would have built,
//! so the result is unconditionally **bit-identical** to the im2col
//! lowering in every dtype and on every kernel path.

use utensor::{DType, QuantParams, Shape, Tensor, TensorError, F16};

use crate::blocked::{gemm_f16_blocked, gemm_f32_blocked, gemm_quint8_blocked};
use crate::conv::{conv_output_shape, Conv2dParams};

/// Whether a convolution is eligible for the direct pointwise path.
pub fn is_pointwise(filters: &Shape, params: &Conv2dParams) -> bool {
    filters.rank() == 4
        && filters.dim(2) == 1
        && filters.dim(3) == 1
        && params.stride == 1
        && params.pad == 0
}

/// Direct 1×1 convolution: same contract as [`crate::conv2d`], without
/// the im2col copy. Errors if the geometry is not pointwise.
pub fn pointwise_conv2d(
    input: &Tensor,
    filters: &Tensor,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
    out_params: Option<QuantParams>,
) -> Result<Tensor, TensorError> {
    if !is_pointwise(filters.shape(), params) {
        return Err(TensorError::BadConcat(format!(
            "pointwise_conv2d requires 1x1 stride-1 pad-0 geometry, got {} stride {} pad {}",
            filters.shape(),
            params.stride,
            params.pad
        )));
    }
    if filters.dtype() != input.dtype() {
        return Err(TensorError::DTypeMismatch {
            expected: input.dtype(),
            found: filters.dtype(),
        });
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
    let (n, ic) = (input.shape().n(), input.shape().c());
    let oc = filters.shape().dim(0);
    let cols = out_shape.h() * out_shape.w();
    let plane = ic * cols;

    let mut arena = crate::arena::ThreadArenaGuard::take();
    match input.dtype() {
        DType::F32 => {
            crate::float_out(out_params, "convolution")?;
            let x = input.as_f32()?;
            let f = filters.as_f32()?;
            let mut out = vec![0.0f32; out_shape.numel()];
            for b in 0..n {
                let xb = &x[b * plane..(b + 1) * plane];
                let c = &mut out[b * oc * cols..(b + 1) * oc * cols];
                gemm_f32_blocked(c, oc, ic, cols, f, xb, bias, params.relu, &mut arena);
            }
            Tensor::from_f32(out_shape, out)
        }
        DType::F16 => {
            crate::float_out(out_params, "convolution")?;
            let x = input.as_f16()?;
            let f = filters.as_f16()?;
            let mut out = vec![F16::ZERO; out_shape.numel()];
            for b in 0..n {
                let xb = &x[b * plane..(b + 1) * plane];
                let c = &mut out[b * oc * cols..(b + 1) * oc * cols];
                gemm_f16_blocked(c, oc, ic, cols, f, xb, bias, params.relu, &mut arena);
            }
            Tensor::new(out_shape, utensor::TensorData::F16(out))
        }
        DType::QUInt8 => {
            let out_params = out_params.ok_or_else(|| {
                TensorError::BadQuantParams("QUInt8 conv needs output quantization params".into())
            })?;
            let (x, x_p) = input.as_quint8()?;
            let (f, f_p) = filters.as_quint8()?;
            let mut out = vec![0u8; out_shape.numel()];
            let mut res: Result<(), TensorError> = Ok(());
            for b in 0..n {
                let xb = &x[b * plane..(b + 1) * plane];
                let c = &mut out[b * oc * cols..(b + 1) * oc * cols];
                let r = gemm_quint8_blocked(
                    c,
                    oc,
                    ic,
                    cols,
                    f,
                    f_p,
                    xb,
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
            res.and_then(|()| Tensor::from_quantized(out_shape, out, out_params))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::conv::conv2d_im2col;
    use crate::{set_kernel_path, PathChoice};

    fn tensor_from(shape: Shape, f: impl Fn(usize) -> f32) -> Tensor {
        let n = shape.numel();
        Tensor::from_f32(shape, (0..n).map(f).collect()).unwrap()
    }

    fn pseudo(i: usize) -> f32 {
        (((i * 2654435761) % 1000) as f32 - 500.0) / 500.0
    }

    #[test]
    fn eligibility() {
        let p = Conv2dParams::unit();
        assert!(is_pointwise(&Shape::oihw(8, 4, 1, 1), &p));
        assert!(!is_pointwise(&Shape::oihw(8, 4, 3, 3), &p));
        let strided = Conv2dParams {
            stride: 2,
            pad: 0,
            relu: false,
        };
        assert!(!is_pointwise(&Shape::oihw(8, 4, 1, 1), &strided));
        let padded = Conv2dParams {
            stride: 1,
            pad: 1,
            relu: false,
        };
        assert!(!is_pointwise(&Shape::oihw(8, 4, 1, 1), &padded));
    }

    #[test]
    fn bit_identical_to_conv2d_all_dtypes() {
        let input = tensor_from(Shape::nchw(2, 5, 6, 7), pseudo);
        let filters = tensor_from(Shape::oihw(9, 5, 1, 1), |i| pseudo(i + 3));
        let bias: Vec<f32> = (0..9).map(|i| pseudo(i + 44)).collect();
        let p = Conv2dParams {
            stride: 1,
            pad: 0,
            relu: true,
        };
        // f32
        let want = conv2d_im2col(&input, &filters, Some(&bias), &p, None);
        let got = pointwise_conv2d(&input, &filters, Some(&bias), &p, None).unwrap();
        assert!(got.bit_equal(&want));
        // F16
        let h_in = input.cast(DType::F16, None).unwrap();
        let h_fil = filters.cast(DType::F16, None).unwrap();
        let want = conv2d_im2col(&h_in, &h_fil, Some(&bias), &p, None);
        let got = pointwise_conv2d(&h_in, &h_fil, Some(&bias), &p, None).unwrap();
        assert!(got.bit_equal(&want));
        // QUInt8
        let qp = QuantParams::from_range(-1.0, 1.0).unwrap();
        let q_in = input.cast(DType::QUInt8, Some(qp)).unwrap();
        let q_fil = filters.cast(DType::QUInt8, Some(qp)).unwrap();
        let out_p = QuantParams::from_range(-8.0, 8.0).unwrap();
        let want = conv2d_im2col(&q_in, &q_fil, Some(&bias), &p, Some(out_p));
        let got = pointwise_conv2d(&q_in, &q_fil, Some(&bias), &p, Some(out_p)).unwrap();
        assert!(got.bit_equal(&want));
    }

    #[test]
    fn bit_identical_on_blocked_path_too() {
        // More input channels than one K panel holds, on both kernel
        // paths: the GEMM carries every sum across panels.
        let ic = crate::blocked::KC + 9;
        let input = tensor_from(Shape::nchw(1, ic, 5, 5), pseudo);
        let filters = tensor_from(Shape::oihw(6, ic, 1, 1), |i| pseudo(i + 11));
        let p = Conv2dParams::unit();
        for dtype in [DType::F32, DType::F16] {
            let (x, f) = (
                input.cast(dtype, None).unwrap(),
                filters.cast(dtype, None).unwrap(),
            );
            let want = conv2d_im2col(&x, &f, None, &p, None);
            for path in [PathChoice::Scalar, PathChoice::Auto] {
                let prev = set_kernel_path(path);
                let got = pointwise_conv2d(&x, &f, None, &p, None).unwrap();
                set_kernel_path(prev);
                assert!(got.bit_equal(&want), "{dtype:?} {path:?}");
            }
        }
    }

    #[test]
    fn rejects_non_pointwise_geometry() {
        let input = tensor_from(Shape::nchw(1, 3, 5, 5), pseudo);
        let filters3 = tensor_from(Shape::oihw(2, 3, 3, 3), pseudo);
        assert!(pointwise_conv2d(&input, &filters3, None, &Conv2dParams::unit(), None).is_err());
    }
}
