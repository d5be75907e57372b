//! Property tests: direct depthwise/pointwise kernels vs im2col + the
//! naive GEMM (`tests/common/conv.rs`) on randomized MobileNet-style
//! shapes.
//!
//! MobileNet v1 alternates 3×3 depthwise (stride 1 or 2, pad 1) with 1×1
//! pointwise convolutions; these properties randomize over exactly that
//! family and require the direct kernels to reproduce the im2col
//! reference bit for bit. On top of whole layers, the split properties
//! cut the channel range with `usoc::split_cuts` — the same helper the
//! executor's channel-wise distribution uses — run each sub-range
//! through the direct path, and require the concatenation to equal the
//! whole-layer reference, so per-part execution under a split plan is
//! covered too.

mod common;

use common::alloc::{conv2d, depthwise_conv2d};
use common::conv::{conv2d_im2col, depthwise_im2col};
use testkit::{bools, prop_assert, props};
use ukernels::Conv2dParams;
use utensor::{DType, QuantParams, Shape, Tensor};

fn pseudo_f32(n: usize, seed: usize) -> Vec<f32> {
    (0..n)
        .map(|i| ((((i + seed) * 2654435761) % 2000) as f32 - 1000.0) / 1000.0)
        .collect()
}

fn dtype_of(pick: usize) -> DType {
    match pick % 3 {
        0 => DType::F32,
        1 => DType::F16,
        _ => DType::QUInt8,
    }
}

fn cast_pair(input: Tensor, filters: Tensor, dtype: DType) -> (Tensor, Tensor) {
    if dtype == DType::F32 {
        return (input, filters);
    }
    let qp = QuantParams::from_range(-1.0, 1.0).unwrap();
    let q = (dtype == DType::QUInt8).then_some(qp);
    (
        input.cast(dtype, q).unwrap(),
        filters.cast(dtype, q).unwrap(),
    )
}

props! {
    #![cases(32)]

    /// Direct depthwise == per-channel im2col+GEMM on MobileNet-style
    /// dw layers (3×3, stride 1 or 2, pad 1), all dtypes, bit for bit.
    fn direct_depthwise_equals_im2col(
        c in 1usize..24,
        hw in 3usize..12,
        stride2 in bools(),
        with_bias in bools(),
        relu in bools(),
        dtype_pick in 0usize..3,
        seed in 0usize..1000,
    ) {
        let dtype = dtype_of(dtype_pick);
        let input = Tensor::from_f32(
            Shape::nchw(1, c, hw, hw), pseudo_f32(c * hw * hw, seed),
        ).unwrap();
        let filters = Tensor::from_f32(
            Shape::oihw(c, 1, 3, 3), pseudo_f32(c * 9, seed + 5),
        ).unwrap();
        let (input, filters) = cast_pair(input, filters, dtype);
        let bias = pseudo_f32(c, seed + 9);
        let bias = with_bias.then_some(&bias[..]);
        let p = Conv2dParams { stride: if stride2 { 2 } else { 1 }, pad: 1, relu };
        let out_p = (dtype == DType::QUInt8)
            .then(|| QuantParams::from_range(-5.0, 5.0).unwrap());
        let want = depthwise_im2col(&input, &filters, bias, &p, out_p);
        let got = depthwise_conv2d(&input, &filters, bias, &p, out_p).unwrap();
        prop_assert!(got.bit_equal(&want));
    }

    /// Direct pointwise (1×1 stride-1) == im2col+GEMM conv, all dtypes,
    /// bit for bit.
    fn direct_pointwise_equals_im2col(
        ic in 1usize..24,
        oc in 1usize..24,
        hw in 1usize..10,
        with_bias in bools(),
        relu in bools(),
        dtype_pick in 0usize..3,
        seed in 0usize..1000,
    ) {
        let dtype = dtype_of(dtype_pick);
        let input = Tensor::from_f32(
            Shape::nchw(1, ic, hw, hw), pseudo_f32(ic * hw * hw, seed),
        ).unwrap();
        let filters = Tensor::from_f32(
            Shape::oihw(oc, ic, 1, 1), pseudo_f32(oc * ic, seed + 3),
        ).unwrap();
        let (input, filters) = cast_pair(input, filters, dtype);
        let bias = pseudo_f32(oc, seed + 7);
        let bias = with_bias.then_some(&bias[..]);
        let p = Conv2dParams { stride: 1, pad: 0, relu };
        let out_p = (dtype == DType::QUInt8)
            .then(|| QuantParams::from_range(-8.0, 8.0).unwrap());
        let want = conv2d_im2col(&input, &filters, bias, &p, out_p);
        let got = conv2d(&input, &filters, bias, &p, out_p).unwrap();
        prop_assert!(got.bit_equal(&want));
    }

    /// Channel-split depthwise through the direct path: cut the channel
    /// range with `usoc::split_cuts`, run each sub-range (sliced input
    /// AND filters — dw distributes both), concatenate, and compare to
    /// the whole-layer im2col reference.
    fn split_direct_depthwise_recomposes(
        c in 2usize..20,
        hw in 4usize..10,
        stride2 in bools(),
        frac_pct in 5usize..96,
        dtype_pick in 0usize..3,
        seed in 0usize..1000,
    ) {
        let dtype = dtype_of(dtype_pick);
        let input = Tensor::from_f32(
            Shape::nchw(1, c, hw, hw), pseudo_f32(c * hw * hw, seed),
        ).unwrap();
        let filters = Tensor::from_f32(
            Shape::oihw(c, 1, 3, 3), pseudo_f32(c * 9, seed + 5),
        ).unwrap();
        let (input, filters) = cast_pair(input, filters, dtype);
        let bias = pseudo_f32(c, seed + 9);
        let p = Conv2dParams { stride: if stride2 { 2 } else { 1 }, pad: 1, relu: false };
        let out_p = (dtype == DType::QUInt8)
            .then(|| QuantParams::from_range(-5.0, 5.0).unwrap());
        let want = depthwise_im2col(&input, &filters, Some(&bias), &p, out_p);

        let f = frac_pct as f64 / 100.0;
        let cuts = usoc::split_cuts(c, &[f, 1.0 - f]);
        let parts: Vec<Tensor> = cuts
            .windows(2)
            .filter(|w| w[0] < w[1])
            .map(|w| {
                let xin = input.slice_axis(1, w[0], w[1]).unwrap();
                let fil = filters.slice_axis(0, w[0], w[1]).unwrap();
                depthwise_conv2d(&xin, &fil, Some(&bias[w[0]..w[1]]), &p, out_p).unwrap()
            })
            .collect();
        let refs: Vec<&Tensor> = parts.iter().collect();
        let got = Tensor::concat_axis(1, &refs).unwrap();
        prop_assert!(got.bit_equal(&want));
    }

    /// Channel-split pointwise through the direct path: output channels
    /// are cut with `usoc::split_cuts` (filters distributed, input
    /// shared), each sub-range runs the direct 1×1 kernel, and the
    /// concatenation equals the whole-layer im2col reference.
    fn split_direct_pointwise_recomposes(
        ic in 1usize..16,
        oc in 2usize..20,
        hw in 2usize..9,
        frac_pct in 5usize..96,
        dtype_pick in 0usize..3,
        seed in 0usize..1000,
    ) {
        let dtype = dtype_of(dtype_pick);
        let input = Tensor::from_f32(
            Shape::nchw(1, ic, hw, hw), pseudo_f32(ic * hw * hw, seed),
        ).unwrap();
        let filters = Tensor::from_f32(
            Shape::oihw(oc, ic, 1, 1), pseudo_f32(oc * ic, seed + 3),
        ).unwrap();
        let (input, filters) = cast_pair(input, filters, dtype);
        let bias = pseudo_f32(oc, seed + 7);
        let p = Conv2dParams { stride: 1, pad: 0, relu: true };
        let out_p = (dtype == DType::QUInt8)
            .then(|| QuantParams::from_range(-8.0, 8.0).unwrap());
        let want = conv2d_im2col(&input, &filters, Some(&bias), &p, out_p);

        let f = frac_pct as f64 / 100.0;
        let cuts = usoc::split_cuts(oc, &[f, 1.0 - f]);
        let parts: Vec<Tensor> = cuts
            .windows(2)
            .filter(|w| w[0] < w[1])
            .map(|w| {
                let fil = filters.slice_axis(0, w[0], w[1]).unwrap();
                conv2d(&input, &fil, Some(&bias[w[0]..w[1]]), &p, out_p).unwrap()
            })
            .collect();
        let refs: Vec<&Tensor> = parts.iter().collect();
        let got = Tensor::concat_axis(1, &refs).unwrap();
        prop_assert!(got.bit_equal(&want));
    }
}
