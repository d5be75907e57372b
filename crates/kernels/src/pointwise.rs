//! Direct pointwise (1×1) convolution.
//!
//! For a 1×1 kernel with stride 1 and no padding, the im2col patch
//! matrix *is* the input plane: `im2col` degenerates to an identity
//! copy of `ic × (h·w)` elements. MobileNet spends most of its MACs in
//! exactly these layers, so the copy is pure overhead — this module
//! feeds the input plane to the GEMM directly.
//!
//! Because the *same* GEMM kernel (naive or blocked, per the
//! [`crate::blocked::set_blocked_kernels`] thread flag) runs on the
//! *same* operand bytes, the result is unconditionally **bit-identical**
//! to [`crate::conv2d`] in every dtype and on every kernel path.

use utensor::{DType, QuantParams, Shape, Tensor, TensorError, F16};

use crate::conv::{conv_output_shape, Conv2dParams};
use crate::gemm::{gemm_f16_into, gemm_f32_into, gemm_quint8_into};

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
            if out_params.is_some() {
                return Err(TensorError::BadQuantParams(
                    "out_params given for a float convolution".into(),
                ));
            }
            let x = input.as_f32()?;
            let f = filters.as_f32()?;
            let mut out = vec![0.0f32; out_shape.numel()];
            for b in 0..n {
                let xb = &x[b * plane..(b + 1) * plane];
                let c = &mut out[b * oc * cols..(b + 1) * oc * cols];
                if crate::blocked::blocked_kernels_enabled() {
                    crate::blocked::gemm_f32_blocked(
                        c,
                        oc,
                        ic,
                        cols,
                        f,
                        xb,
                        bias,
                        params.relu,
                        &mut arena,
                    );
                } else {
                    gemm_f32_into(c, oc, ic, cols, f, xb, bias, params.relu);
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
                let xb = &x[b * plane..(b + 1) * plane];
                let c = &mut out[b * oc * cols..(b + 1) * oc * cols];
                if crate::blocked::blocked_kernels_enabled() {
                    crate::blocked::gemm_f16_blocked(
                        c,
                        oc,
                        ic,
                        cols,
                        f,
                        xb,
                        bias,
                        params.relu,
                        &mut arena,
                    );
                } else {
                    gemm_f16_into(c, oc, ic, cols, f, xb, bias, params.relu);
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
            let mut out = vec![0u8; out_shape.numel()];
            let mut res: Result<(), TensorError> = Ok(());
            for b in 0..n {
                let xb = &x[b * plane..(b + 1) * plane];
                let c = &mut out[b * oc * cols..(b + 1) * oc * cols];
                let r = if crate::blocked::blocked_kernels_enabled() {
                    crate::blocked::gemm_quint8_blocked(
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
                    )
                } else {
                    gemm_quint8_into(
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
                        &mut arena.acc_i32,
                    )
                };
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
        let want = crate::conv2d(&input, &filters, Some(&bias), &p, None).unwrap();
        let got = pointwise_conv2d(&input, &filters, Some(&bias), &p, None).unwrap();
        assert!(got.bit_equal(&want));
        // F16
        let h_in = input.cast(DType::F16, None).unwrap();
        let h_fil = filters.cast(DType::F16, None).unwrap();
        let want = crate::conv2d(&h_in, &h_fil, Some(&bias), &p, None).unwrap();
        let got = pointwise_conv2d(&h_in, &h_fil, Some(&bias), &p, None).unwrap();
        assert!(got.bit_equal(&want));
        // QUInt8
        let qp = QuantParams::from_range(-1.0, 1.0).unwrap();
        let q_in = input.cast(DType::QUInt8, Some(qp)).unwrap();
        let q_fil = filters.cast(DType::QUInt8, Some(qp)).unwrap();
        let out_p = QuantParams::from_range(-8.0, 8.0).unwrap();
        let want = crate::conv2d(&q_in, &q_fil, Some(&bias), &p, Some(out_p)).unwrap();
        let got = pointwise_conv2d(&q_in, &q_fil, Some(&bias), &p, Some(out_p)).unwrap();
        assert!(got.bit_equal(&want));
    }

    #[test]
    fn bit_identical_on_blocked_path_too() {
        let input = tensor_from(Shape::nchw(1, 8, 9, 9), pseudo);
        let filters = tensor_from(Shape::oihw(6, 8, 1, 1), |i| pseudo(i + 11));
        let p = Conv2dParams::unit();
        let prev = crate::blocked::set_blocked_kernels(true);
        let want = crate::conv2d(&input, &filters, None, &p, None).unwrap();
        let got = pointwise_conv2d(&input, &filters, None, &p, None).unwrap();
        crate::blocked::set_blocked_kernels(prev);
        assert!(got.bit_equal(&want));
    }

    #[test]
    fn rejects_non_pointwise_geometry() {
        let input = tensor_from(Shape::nchw(1, 3, 5, 5), pseudo);
        let filters3 = tensor_from(Shape::oihw(2, 3, 3, 3), pseudo);
        assert!(pointwise_conv2d(&input, &filters3, None, &Conv2dParams::unit(), None).is_err());
    }
}
