//! Property-based tests for the compute kernels.
//!
//! Runs on the in-repo `testkit` property runner: deterministic in
//! `TESTKIT_SEED`, case count overridable via `TESTKIT_CASES`.

mod common;

use common::alloc::{conv2d, pool2d};
use common::conv::conv2d_naive_f32;
use testkit::{bools, prop_assert, prop_assume, props};
use ukernels::{Conv2dParams, PoolKind, PoolParams};
use utensor::{DType, QuantParams, Shape, Tensor};

fn pseudo_tensor(shape: Shape, seed: usize) -> Tensor {
    let n = shape.numel();
    let data: Vec<f32> = (0..n)
        .map(|i| ((((i + seed) * 2654435761) % 2000) as f32 - 1000.0) / 1000.0)
        .collect();
    Tensor::from_f32(shape, data).unwrap()
}

props! {
    #![cases(48)]

    /// The deployed conv path (im2col + GEMM) always matches the naive
    /// direct convolution, across random geometry.
    fn conv_gemm_equals_naive(
        ic in 1usize..4,
        oc in 1usize..5,
        hw in 3usize..9,
        k in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        relu in bools(),
        seed in 0usize..1000,
    ) {
        prop_assume!(hw + 2 * pad >= k);
        let input = pseudo_tensor(Shape::nchw(1, ic, hw, hw), seed);
        let filters = pseudo_tensor(Shape::oihw(oc, ic, k, k), seed + 1);
        let bias: Vec<f32> = (0..oc).map(|i| (i as f32 - 1.0) / 4.0).collect();
        let p = Conv2dParams { stride, pad, relu };
        let fast = conv2d(&input, &filters, Some(&bias), &p, None).unwrap();
        let slow = conv2d_naive_f32(&input, &filters, Some(&bias), &p);
        prop_assert!(fast.max_abs_diff(&slow) < 1e-4);
    }

    /// Channel-wise split/merge is bit-exact for conv in every dtype and
    /// at every split point — the core μLayer correctness invariant.
    fn conv_channel_split_is_lossless(
        ic in 1usize..4,
        oc in 2usize..8,
        hw in 3usize..8,
        k in 1usize..4,
        cut_frac in 0.0f64..=1.0,
        dtype_idx in 0usize..3,
        seed in 0usize..1000,
    ) {
        prop_assume!(hw >= k);
        let dtype = DType::ALL[dtype_idx];
        let qp = QuantParams::from_range(-1.0, 1.0).unwrap();
        let out_qp = QuantParams::from_range(-8.0, 8.0).unwrap();
        let input = pseudo_tensor(Shape::nchw(1, ic, hw, hw), seed)
            .cast(dtype, Some(qp)).unwrap();
        let filters = pseudo_tensor(Shape::oihw(oc, ic, k, k), seed + 9)
            .cast(dtype, Some(qp)).unwrap();
        let bias: Vec<f32> = (0..oc).map(|i| (i as f32) / 8.0).collect();
        let p = Conv2dParams { stride: 1, pad: 0, relu: false };
        let out_params = (dtype == DType::QUInt8).then_some(out_qp);
        let whole = conv2d(&input, &filters, Some(&bias), &p, out_params).unwrap();

        let cut = ((oc as f64) * cut_frac).round() as usize;
        let mut parts = Vec::new();
        if cut > 0 {
            let f = filters.slice_axis(0, 0, cut).unwrap();
            parts.push(conv2d(&input, &f, Some(&bias[..cut]), &p, out_params).unwrap());
        }
        if cut < oc {
            let f = filters.slice_axis(0, cut, oc).unwrap();
            parts.push(conv2d(&input, &f, Some(&bias[cut..]), &p, out_params).unwrap());
        }
        let refs: Vec<&Tensor> = parts.iter().collect();
        let merged = Tensor::concat_axis(1, &refs).unwrap();
        prop_assert!(merged.bit_equal(&whole));
    }

    /// Pooling's spatial-function property: splitting input channels and
    /// merging outputs is bit-exact, for both pool kinds and every dtype.
    fn pool_channel_split_is_lossless(
        c in 2usize..9,
        hw in 3usize..9,
        k in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        max_pool in bools(),
        cut_frac in 0.0f64..=1.0,
        dtype_idx in 0usize..3,
        seed in 0usize..1000,
    ) {
        prop_assume!(hw + 2 * pad >= k);
        let dtype = DType::ALL[dtype_idx];
        let qp = QuantParams::from_range(-1.0, 1.0).unwrap();
        let input = pseudo_tensor(Shape::nchw(1, c, hw, hw), seed)
            .cast(dtype, Some(qp)).unwrap();
        let p = PoolParams {
            kind: if max_pool { PoolKind::Max } else { PoolKind::Avg },
            k, stride, pad,
        };
        let whole = pool2d(&input, &p).unwrap();
        let cut = ((c as f64) * cut_frac).round() as usize;
        let mut parts = Vec::new();
        if cut > 0 {
            parts.push(pool2d(&input.slice_axis(1, 0, cut).unwrap(), &p).unwrap());
        }
        if cut < c {
            parts.push(pool2d(&input.slice_axis(1, cut, c).unwrap(), &p).unwrap());
        }
        let refs: Vec<&Tensor> = parts.iter().collect();
        let merged = Tensor::concat_axis(1, &refs).unwrap();
        prop_assert!(merged.bit_equal(&whole));
    }

    /// QUInt8 conv stays within an analytic error bound of the f32 result.
    fn quint8_conv_error_bounded(
        ic in 1usize..3,
        oc in 1usize..4,
        hw in 3usize..7,
        k in 1usize..4,
        seed in 0usize..1000,
    ) {
        prop_assume!(hw >= k);
        let input = pseudo_tensor(Shape::nchw(1, ic, hw, hw), seed);
        let filters = pseudo_tensor(Shape::oihw(oc, ic, k, k), seed + 3);
        let p = Conv2dParams { stride: 1, pad: 0, relu: false };
        let f_out = conv2d(&input, &filters, None, &p, None).unwrap();
        let qp = QuantParams::from_range(-1.0, 1.0).unwrap();
        let out_p = QuantParams::from_data(f_out.as_f32().unwrap()).unwrap();
        let q_in = input.cast(DType::QUInt8, Some(qp)).unwrap();
        let q_f = filters.cast(DType::QUInt8, Some(qp)).unwrap();
        let q_out = conv2d(&q_in, &q_f, None, &p, Some(out_p)).unwrap();
        // Each of the ic*k*k accumulated products carries at most
        // (|a| * sb/2 + |b| * sa/2 + sa*sb/4) error; |a|,|b| <= 1.
        let terms = (ic * k * k) as f32;
        let bound = terms * (qp.scale + qp.scale * qp.scale) + out_p.scale;
        prop_assert!(q_out.max_abs_diff(&f_out) <= bound,
            "diff = {}, bound = {bound}", q_out.max_abs_diff(&f_out));
    }
}
