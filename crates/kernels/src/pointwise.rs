//! Direct pointwise (1×1) convolution.
//!
//! For a 1×1 kernel with stride 1 and no padding, the im2col patches
//! *are* the input plane, an `ic × (h·w)` matrix. MobileNet spends most
//! of its MACs in exactly these layers, so [`crate::conv2d`] hands every
//! eligible layer's input plane to the GEMM-layer body as the `B`
//! matrix, whose rows the `B`-panel pack borrows as they are — no
//! window arithmetic at all. The operand bytes are those of the im2col
//! lowering, so the result is **bit-identical** to it in every dtype
//! and on every kernel path.

use utensor::Shape;

use crate::conv::Conv2dParams;

/// Whether a convolution is eligible for the direct pointwise path.
pub(crate) fn is_pointwise(filters: &Shape, params: &Conv2dParams) -> bool {
    filters.rank() == 4
        && filters.dim(2) == 1
        && filters.dim(3) == 1
        && params.stride == 1
        && params.pad == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::alloc::conv2d;
    use crate::oracle::conv::conv2d_im2col;
    use crate::oracle::host_tiers;
    use crate::set_kernel_path;
    use utensor::{DType, QuantParams, Tensor};

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
        let got = conv2d(&input, &filters, Some(&bias), &p, None).unwrap();
        assert!(got.bit_equal(&want));
        // F16
        let h_in = input.cast(DType::F16, None).unwrap();
        let h_fil = filters.cast(DType::F16, None).unwrap();
        let want = conv2d_im2col(&h_in, &h_fil, Some(&bias), &p, None);
        let got = conv2d(&h_in, &h_fil, Some(&bias), &p, None).unwrap();
        assert!(got.bit_equal(&want));
        // QUInt8
        let qp = QuantParams::from_range(-1.0, 1.0).unwrap();
        let q_in = input.cast(DType::QUInt8, Some(qp)).unwrap();
        let q_fil = filters.cast(DType::QUInt8, Some(qp)).unwrap();
        let out_p = QuantParams::from_range(-8.0, 8.0).unwrap();
        let want = conv2d_im2col(&q_in, &q_fil, Some(&bias), &p, Some(out_p));
        let got = conv2d(&q_in, &q_fil, Some(&bias), &p, Some(out_p)).unwrap();
        assert!(got.bit_equal(&want));
    }

    #[test]
    fn bit_identical_on_blocked_path_too() {
        // More input channels than one K panel holds, on every tier the
        // host has: the GEMM carries every sum across panels.
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
            for tier in host_tiers() {
                let prev = set_kernel_path(tier);
                let got = conv2d(&x, &f, None, &p, None).unwrap();
                set_kernel_path(prev);
                assert!(got.bit_equal(&want), "{dtype:?} {tier:?}");
            }
        }
    }
}
