//! Property tests: blocked packed GEMM kernels vs the naive references
//! of `tests/common`.
//!
//! The equivalence contract: **bit-identical for every shape and dtype**.
//! Each tile continues `C`'s running sums across `K` panels, so every
//! element keeps the naive loop's single ascending accumulation chain —
//! f32 and F16 included, at any depth;
//!
//! and the scratch-arena contract: repeated layer executions reuse
//! capacity instead of growing monotonically.

mod common;

use common::conv::conv2d_im2col;
use common::gemm::{gemm_f16, gemm_f32, gemm_quint8};
use testkit::{bools, prop_assert, prop_assume, props};
use ukernels::{
    conv2d, depthwise_conv2d, fully_connected, pointwise_conv2d, thread_arena_capacity_bytes,
    Conv2dParams, ScratchArena,
};
use ukernels::{gemm_f16_blocked, gemm_f32_blocked, gemm_quint8_blocked, KC};
use utensor::{DType, QuantParams, Shape, Tensor, F16};

fn pseudo_f32(n: usize, seed: usize) -> Vec<f32> {
    (0..n)
        .map(|i| ((((i + seed) * 2654435761) % 2000) as f32 - 1000.0) / 1000.0)
        .collect()
}

fn pseudo_u8(n: usize, seed: usize) -> Vec<u8> {
    (0..n).map(|i| (((i + seed) * 48271) % 256) as u8).collect()
}

props! {
    #![cases(40)]

    /// f32 blocked GEMM is bit-equal to the naive loop across random
    /// shapes, one to three `K` panels deep.
    fn f32_blocked_equals_naive(
        m in 1usize..24,
        k_small in 1usize..64,
        panels in 0usize..3,
        n in 1usize..24,
        relu in bools(),
        seed in 0usize..1000,
    ) {
        let k = panels * KC + k_small;
        let a = pseudo_f32(m * k, seed);
        let b = pseudo_f32(k * n, seed + 7);
        let bias = pseudo_f32(m, seed + 13);
        let want = gemm_f32(m, k, n, &a, &b, Some(&bias), relu);
        let mut got = vec![0.0f32; m * n];
        let mut arena = ScratchArena::new();
        gemm_f32_blocked(&mut got, m, k, n, &a, &b, Some(&bias), relu, &mut arena);
        prop_assert!(got.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits()));
    }

    /// F16 blocked GEMM is bit-equal to the naive loop — the same
    /// per-MAC binary16 rounding — one to three `K` panels deep.
    fn f16_blocked_equals_naive(
        m in 1usize..16,
        k_small in 1usize..48,
        panels in 0usize..3,
        n in 1usize..16,
        relu in bools(),
        seed in 0usize..1000,
    ) {
        let k = panels * KC + k_small;
        let a: Vec<F16> = pseudo_f32(m * k, seed).iter().map(|&v| F16::from_f32(v)).collect();
        let b: Vec<F16> = pseudo_f32(k * n, seed + 3).iter().map(|&v| F16::from_f32(v)).collect();
        let bias = pseudo_f32(m, seed + 13);
        let want = gemm_f16(m, k, n, &a, &b, Some(&bias), relu);
        let mut got = vec![F16::ZERO; m * n];
        let mut arena = ScratchArena::new();
        gemm_f16_blocked(&mut got, m, k, n, &a, &b, Some(&bias), relu, &mut arena);
        prop_assert!(got.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits()));
    }

    /// QUInt8 blocked GEMM is bit-identical to gemmlowp-style naive for
    /// every shape, bias, ReLU, and zero-point combination.
    fn quint8_blocked_bit_identical(
        m in 1usize..20,
        k_small in 1usize..80,
        multi_panel in bools(),
        n in 1usize..20,
        relu in bools(),
        with_bias in bools(),
        seed in 0usize..1000,
    ) {
        let k = if multi_panel { KC + k_small } else { k_small };
        let a = pseudo_u8(m * k, seed);
        let b = pseudo_u8(k * n, seed + 11);
        let a_p = QuantParams::from_range(-1.0, 1.0).unwrap();
        let b_p = QuantParams::from_range(-3.0, 2.0).unwrap();
        let out_p = QuantParams::from_range(-60.0, 60.0).unwrap();
        let bias = pseudo_f32(m, seed + 17);
        let bias = with_bias.then_some(&bias[..]);
        let want = gemm_quint8(m, k, n, &a, a_p, &b, b_p, bias, out_p, relu).unwrap();
        let mut got = vec![0u8; m * n];
        let mut arena = ScratchArena::new();
        gemm_quint8_blocked(
            &mut got, m, k, n, &a, a_p, &b, b_p, bias, out_p, relu, &mut arena,
        ).unwrap();
        prop_assert!(got == want);
    }

    /// `conv2d` (im2col or the direct 1×1 path, then the blocked GEMM)
    /// equals im2col + the naive QUInt8 GEMM bit for bit.
    fn conv2d_quint8_bit_identical_to_naive(
        ic in 1usize..4,
        oc in 1usize..6,
        hw in 3usize..8,
        k in 1usize..4,
        seed in 0usize..1000,
    ) {
        prop_assume!(hw >= k);
        let qp = QuantParams::from_range(-1.0, 1.0).unwrap();
        let out_qp = QuantParams::from_range(-8.0, 8.0).unwrap();
        let input = Tensor::from_f32(
            Shape::nchw(1, ic, hw, hw), pseudo_f32(ic * hw * hw, seed),
        ).unwrap().cast(utensor::DType::QUInt8, Some(qp)).unwrap();
        let filters = Tensor::from_f32(
            Shape::oihw(oc, ic, k, k), pseudo_f32(oc * ic * k * k, seed + 5),
        ).unwrap().cast(utensor::DType::QUInt8, Some(qp)).unwrap();
        let p = Conv2dParams { stride: 1, pad: 0, relu: false };
        let naive = conv2d_im2col(&input, &filters, None, &p, Some(out_qp));
        let got = conv2d(&input, &filters, None, &p, Some(out_qp)).unwrap();
        prop_assert!(got.bit_equal(&naive));
    }
}

/// Repeated layer executions reuse arena capacity — the footprint
/// ratchets to a high-water mark and then stays flat: patch matrices,
/// pack buffers and the QUInt8 depthwise layer's zero-point-padded plane.
#[test]
fn repeated_conv_does_not_grow_the_arena() {
    let qp = QuantParams::from_range(-1.0, 1.0).unwrap();
    let run = |seed: usize| {
        let input =
            Tensor::from_f32(Shape::nchw(1, 8, 14, 14), pseudo_f32(8 * 14 * 14, seed)).unwrap();
        let filters =
            Tensor::from_f32(Shape::oihw(16, 8, 3, 3), pseudo_f32(16 * 8 * 9, seed + 1)).unwrap();
        let p = Conv2dParams {
            stride: 1,
            pad: 1,
            relu: true,
        };
        conv2d(&input, &filters, None, &p, None).unwrap();
        let q = |t: Tensor| t.cast(DType::QUInt8, Some(qp)).unwrap();
        let dw_in = Tensor::from_f32(Shape::nchw(1, 8, 14, 14), pseudo_f32(1568, seed + 2));
        let dw_f = Tensor::from_f32(Shape::oihw(8, 1, 3, 3), pseudo_f32(72, seed + 3));
        depthwise_conv2d(&q(dw_in.unwrap()), &q(dw_f.unwrap()), None, &p, Some(qp)).unwrap();
    };
    // Warm-up: the first call grows the arena to this workload's needs.
    run(0);
    let warm = thread_arena_capacity_bytes();
    assert!(warm > 0, "arena should hold capacity after a conv");
    for i in 1..12 {
        run(i);
        assert_eq!(
            thread_arena_capacity_bytes(),
            warm,
            "arena grew on iteration {i}"
        );
    }
}

/// A kernel call that fails after taking the thread arena (a QUInt8 call
/// without `out_params`, a float call with them) must hand the warmed
/// arena back, not the empty placeholder.
#[test]
fn error_paths_keep_the_warmed_arena() {
    let qp = QuantParams::from_range(-1.0, 1.0).unwrap();
    let input = Tensor::from_f32(Shape::nchw(1, 8, 14, 14), pseudo_f32(8 * 14 * 14, 0)).unwrap();
    let conv_f = Tensor::from_f32(Shape::oihw(16, 8, 3, 3), pseudo_f32(16 * 8 * 9, 1)).unwrap();
    let pw_f = Tensor::from_f32(Shape::oihw(16, 8, 1, 1), pseudo_f32(16 * 8, 2)).unwrap();
    let fc_w = Tensor::from_f32(Shape::new(vec![4, 8 * 14 * 14]), pseudo_f32(4 * 1568, 3)).unwrap();
    let q = |t: &Tensor| t.cast(DType::QUInt8, Some(qp)).unwrap();
    let p = Conv2dParams::unit();

    conv2d(&input, &conv_f, None, &p, None).unwrap();
    conv2d(&q(&input), &q(&conv_f), None, &p, Some(qp)).unwrap();
    let warm = thread_arena_capacity_bytes();
    assert!(warm > 0);

    assert!(conv2d(&q(&input), &q(&conv_f), None, &p, None).is_err());
    assert_eq!(thread_arena_capacity_bytes(), warm, "conv2d QUInt8");
    assert!(conv2d(&input, &conv_f, None, &p, Some(qp)).is_err());
    assert_eq!(thread_arena_capacity_bytes(), warm, "conv2d f32");
    assert!(pointwise_conv2d(&q(&input), &q(&pw_f), None, &p, None).is_err());
    assert_eq!(thread_arena_capacity_bytes(), warm, "pointwise QUInt8");
    assert!(pointwise_conv2d(&input, &pw_f, None, &p, Some(qp)).is_err());
    assert_eq!(thread_arena_capacity_bytes(), warm, "pointwise f32");
    assert!(fully_connected(&q(&input), &q(&fc_w), None, false, None).is_err());
    assert_eq!(thread_arena_capacity_bytes(), warm, "fc QUInt8");
    assert!(fully_connected(&input, &fc_w, None, false, Some(qp)).is_err());
    assert_eq!(thread_arena_capacity_bytes(), warm, "fc f32");
}
