//! Golden-vector regression tests for the QUInt8 and F16 kernels.
//!
//! Each test runs a kernel on a fixed, seed-generated input and pins the
//! exact (bit-for-bit) dequantized output against a committed vector
//! under `tests/golden/`. QUInt8 kernels are pure integer math followed
//! by a deterministic requantization, so `GoldenMode::Exact` is the
//! right comparison: any refactor that changes a single output byte
//! fails loudly here instead of silently shifting accuracy downstream.
//! The F16 kernels round every MAC to binary16 in a fixed order, so
//! their outputs (widened to f32, exactly) are pinned the same way.
//!
//! To regenerate after an *intended* numeric change:
//!
//! ```text
//! TESTKIT_BLESS=1 cargo test -q -p ukernels --test golden
//! ```
//!
//! then review and commit the diff under `tests/golden/`.

use testkit::Rng;
use testkit::{check_f32, GoldenMode};
use ukernels::{
    conv2d, depthwise_conv2d, fully_connected, pool2d, Conv2dParams, PoolKind, PoolParams,
};
use utensor::{DType, QuantParams, Shape, Tensor, TensorData, F16};

/// Absolute path of a committed golden vector.
macro_rules! golden_path {
    ($name:literal) => {
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/", $name)
    };
}

/// Deterministic QUInt8 tensor: f32 values drawn uniformly from
/// `[lo, hi]` with a fixed seed, then quantized over that same range.
fn quint8_tensor(shape: Shape, seed: u64, lo: f32, hi: f32) -> Tensor {
    let mut rng = Rng::seed_from_u64(seed);
    let mut data = vec![0.0f32; shape.numel()];
    rng.fill_f32(&mut data, lo, hi);
    let qp = QuantParams::from_range(lo, hi).expect("range");
    Tensor::from_f32(shape, data)
        .expect("sized buffer")
        .cast(DType::QUInt8, Some(qp))
        .expect("cast")
}

/// Deterministic F16 tensor: f32 values drawn uniformly from `[lo, hi]`
/// with a fixed seed, narrowed to binary16.
fn f16_tensor(shape: Shape, seed: u64, lo: f32, hi: f32) -> Tensor {
    let mut rng = Rng::seed_from_u64(seed);
    let mut data = vec![0.0f32; shape.numel()];
    rng.fill_f32(&mut data, lo, hi);
    Tensor::from_f32(shape, data)
        .expect("sized buffer")
        .cast(DType::F16, None)
        .expect("cast")
}

#[test]
fn quint8_conv2d_matches_golden() {
    let input = quint8_tensor(Shape::nchw(1, 3, 8, 8), 0xC0_0001, -1.0, 1.0);
    let filters = quint8_tensor(Shape::oihw(4, 3, 3, 3), 0xC0_0002, -0.5, 0.5);
    let bias: Vec<f32> = (0..4).map(|i| (i as f32 - 1.5) / 8.0).collect();
    let params = Conv2dParams {
        stride: 1,
        pad: 1,
        relu: false,
    };
    let out_qp = QuantParams::from_range(-6.0, 6.0).unwrap();
    let out = conv2d(&input, &filters, Some(&bias), &params, Some(out_qp)).unwrap();
    assert_eq!(out.shape().dims(), &[1, 4, 8, 8]);
    check_f32(
        golden_path!("quint8_conv2d.txt"),
        &out.to_f32_vec(),
        GoldenMode::Exact,
    );
}

#[test]
fn quint8_conv2d_strided_relu_matches_golden() {
    // A second conv geometry: stride 2, no padding, with the fused ReLU —
    // exercises the requantize-then-clamp path.
    let input = quint8_tensor(Shape::nchw(1, 2, 9, 9), 0xC0_0003, -1.0, 1.0);
    let filters = quint8_tensor(Shape::oihw(3, 2, 3, 3), 0xC0_0004, -0.5, 0.5);
    let params = Conv2dParams {
        stride: 2,
        pad: 0,
        relu: true,
    };
    let out_qp = QuantParams::from_range(0.0, 4.0).unwrap();
    let out = conv2d(&input, &filters, None, &params, Some(out_qp)).unwrap();
    assert_eq!(out.shape().dims(), &[1, 3, 4, 4]);
    check_f32(
        golden_path!("quint8_conv2d_strided_relu.txt"),
        &out.to_f32_vec(),
        GoldenMode::Exact,
    );
}

#[test]
fn quint8_depthwise_conv2d_matches_golden() {
    let input = quint8_tensor(Shape::nchw(1, 4, 6, 6), 0xC0_0005, -1.0, 1.0);
    let filters = quint8_tensor(Shape::oihw(4, 1, 3, 3), 0xC0_0006, -0.5, 0.5);
    let bias: Vec<f32> = (0..4).map(|i| (i as f32) / 16.0).collect();
    let params = Conv2dParams {
        stride: 1,
        pad: 1,
        relu: false,
    };
    let out_qp = QuantParams::from_range(-3.0, 3.0).unwrap();
    let out = depthwise_conv2d(&input, &filters, Some(&bias), &params, Some(out_qp)).unwrap();
    assert_eq!(out.shape().dims(), &[1, 4, 6, 6]);
    check_f32(
        golden_path!("quint8_depthwise_conv2d.txt"),
        &out.to_f32_vec(),
        GoldenMode::Exact,
    );
}

#[test]
fn quint8_fully_connected_matches_golden() {
    let input = quint8_tensor(Shape::nchw(2, 16, 1, 1), 0xC0_0007, -1.0, 1.0);
    let weights = quint8_tensor(Shape::new(vec![6, 16]), 0xC0_0008, -0.5, 0.5);
    let bias: Vec<f32> = (0..6).map(|i| (i as f32 - 2.0) / 10.0).collect();
    let out_qp = QuantParams::from_range(-4.0, 4.0).unwrap();
    let out = fully_connected(&input, &weights, Some(&bias), true, Some(out_qp)).unwrap();
    assert_eq!(out.shape().dims(), &[2, 6, 1, 1]);
    check_f32(
        golden_path!("quint8_fully_connected.txt"),
        &out.to_f32_vec(),
        GoldenMode::Exact,
    );
}

#[test]
fn quint8_maxpool_matches_golden() {
    let input = quint8_tensor(Shape::nchw(1, 3, 8, 8), 0xC0_0009, 0.0, 1.0);
    let params = PoolParams {
        kind: PoolKind::Max,
        k: 2,
        stride: 2,
        pad: 0,
    };
    let out = pool2d(&input, &params).unwrap();
    assert_eq!(out.shape().dims(), &[1, 3, 4, 4]);
    check_f32(
        golden_path!("quint8_maxpool.txt"),
        &out.to_f32_vec(),
        GoldenMode::Exact,
    );
}

#[test]
fn quint8_avgpool_matches_golden() {
    // Odd size + padding exercises the edge-window averaging (and its
    // integer rounding) in the quantized domain.
    let input = quint8_tensor(Shape::nchw(1, 2, 7, 7), 0xC0_000A, 0.0, 1.0);
    let params = PoolParams {
        kind: PoolKind::Avg,
        k: 3,
        stride: 2,
        pad: 1,
    };
    let out = pool2d(&input, &params).unwrap();
    assert_eq!(out.shape().dims(), &[1, 2, 4, 4]);
    check_f32(
        golden_path!("quint8_avgpool.txt"),
        &out.to_f32_vec(),
        GoldenMode::Exact,
    );
}

#[test]
fn f16_conv2d_matches_golden() {
    // 3 × 3 × 16 = 144-deep patches: one blocked-GEMM panel of per-MAC
    // binary16 rounding, with the bias and ReLU epilogue.
    let input = f16_tensor(Shape::nchw(1, 16, 7, 7), 0xF1_0001, -2.0, 2.0);
    let filters = f16_tensor(Shape::oihw(8, 16, 3, 3), 0xF1_0002, -0.5, 0.5);
    let bias: Vec<f32> = (0..8).map(|i| (i as f32 - 3.5) / 4.0).collect();
    let params = Conv2dParams {
        stride: 1,
        pad: 1,
        relu: true,
    };
    let out = conv2d(&input, &filters, Some(&bias), &params, None).unwrap();
    assert_eq!(out.shape().dims(), &[1, 8, 7, 7]);
    check_f32(
        golden_path!("f16_conv2d.txt"),
        &out.to_f32_vec(),
        GoldenMode::Exact,
    );
}

#[test]
fn f16_pointwise_conv2d_matches_golden() {
    // 1 × 1 over 300 channels: two K panels on the direct pointwise path.
    let input = f16_tensor(Shape::nchw(1, 300, 4, 5), 0xF1_0003, -1.0, 1.0);
    let filters = f16_tensor(Shape::oihw(6, 300, 1, 1), 0xF1_0004, -0.25, 0.25);
    let out = conv2d(&input, &filters, None, &Conv2dParams::unit(), None).unwrap();
    assert_eq!(out.shape().dims(), &[1, 6, 4, 5]);
    check_f32(
        golden_path!("f16_pointwise_conv2d.txt"),
        &out.to_f32_vec(),
        GoldenMode::Exact,
    );
}

#[test]
fn f16_depthwise_conv2d_matches_golden() {
    for (stride, name) in [
        (1, golden_path!("f16_depthwise_conv2d.txt")),
        (2, golden_path!("f16_depthwise_conv2d_s2.txt")),
    ] {
        let input = f16_tensor(Shape::nchw(1, 4, 9, 9), 0xF1_0005, -4.0, 4.0);
        let filters = f16_tensor(Shape::oihw(4, 1, 3, 3), 0xF1_0006, -1.0, 1.0);
        let bias: Vec<f32> = (0..4).map(|i| i as f32 / 8.0 - 0.2).collect();
        let params = Conv2dParams {
            stride,
            pad: 1,
            relu: stride == 2,
        };
        let out = depthwise_conv2d(&input, &filters, Some(&bias), &params, None).unwrap();
        check_f32(name, &out.to_f32_vec(), GoldenMode::Exact);
    }
}

#[test]
fn f16_fully_connected_matches_golden() {
    let input = f16_tensor(Shape::nchw(3, 40, 1, 1), 0xF1_0007, -1.0, 1.0);
    let weights = f16_tensor(Shape::new(vec![10, 40]), 0xF1_0008, -0.5, 0.5);
    let bias: Vec<f32> = (0..10).map(|i| (i as f32 - 5.0) / 10.0).collect();
    let out = fully_connected(&input, &weights, Some(&bias), false, None).unwrap();
    assert_eq!(out.shape().dims(), &[3, 10, 1, 1]);
    check_f32(
        golden_path!("f16_fully_connected.txt"),
        &out.to_f32_vec(),
        GoldenMode::Exact,
    );
}

#[test]
fn f16_fully_connected_near_ties_matches_golden() {
    // Batch row `i` computes `1 · c + a · b` for weights `[1, a]` and
    // input `[c, b]`: the first MAC leaves exactly `c` in the
    // accumulator, the second is one binary16 FMA of `a · b + c`. Each
    // `a · b` lies exactly on a binary16 tie and `c` is a subnormal a
    // fraction of an f32 ulp away from it, so only an FMA that rounds
    // once sees which side of the tie the sum is on.
    let a = 0x3c04u16;
    let bc: [(u16, u16); 8] = [
        (0x3f80, 0x8001),
        (0x3c80, 0x0001),
        (0x3d80, 0x8001),
        (0x4080, 0x0002),
        (0x4580, 0x8003),
        (0x4a80, 0x0003),
        (0x3c00, 0x8001),
        (0x3e00, 0x0001),
    ];
    let h = F16::from_bits;
    let x: Vec<F16> = bc.iter().flat_map(|&(b, c)| [h(c), h(b)]).collect();
    let input = Tensor::new(Shape::nchw(bc.len(), 2, 1, 1), TensorData::F16(x)).unwrap();
    let weights = Tensor::new(
        Shape::new(vec![1, 2]),
        TensorData::F16(vec![F16::ONE, h(a)]),
    )
    .unwrap();
    let out = fully_connected(&input, &weights, None, false, None).unwrap();
    check_f32(
        golden_path!("f16_fully_connected_near_ties.txt"),
        &out.to_f32_vec(),
        GoldenMode::Exact,
    );
}
