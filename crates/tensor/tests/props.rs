//! Property-based tests for the tensor crate's numeric foundations.
//!
//! Runs on the in-repo `testkit` property runner: deterministic in
//! `TESTKIT_SEED`, case count overridable via `TESTKIT_CASES`.

use testkit::{bools, prop_assert, prop_assert_eq, prop_assume, props, Rng};
use utensor::{f16_bits_to_f32, f32_to_f16_bits};
use utensor::{requantize, requantize_into};
use utensor::{DType, FixedPointMultiplier, QuantParams, Shape, Tensor, F16};

/// The scalar definition [`requantize_into`] is held to, one element.
fn requantize_scalar(acc: i32, bias: i32, m: &FixedPointMultiplier, zp: u8, relu: bool) -> u8 {
    requantize(acc.wrapping_add(bias), m, zp).max(if relu { zp } else { 0 })
}

props! {
    #![cases(256)]

    /// Narrowing any finite f32 yields the nearest representable f16:
    /// the round-trip error is at most half an f16 ulp.
    fn f16_narrowing_is_nearest(x in -65000.0f32..65000.0) {
        let h = F16::from_f32(x);
        let back = h.to_f32();
        // ulp at |x|: spacing of f16 around the value.
        let exp = if x == 0.0 { -24 } else { (x.abs().log2().floor() as i32).clamp(-14, 15) };
        let ulp = 2.0f32.powi(exp - 10);
        prop_assert!((back - x).abs() <= ulp * 0.5 + f32::EPSILON,
            "x = {x}, back = {back}, ulp = {ulp}");
    }

    /// f16 -> f32 -> f16 is the identity on non-NaN bit patterns.
    fn f16_widening_round_trips(bits in 0u16..=u16::MAX) {
        let h = F16::from_bits(bits);
        prop_assume!(!h.is_nan());
        prop_assert_eq!(f32_to_f16_bits(f16_bits_to_f32(bits)), bits);
    }

    /// Narrowing is monotonic: a <= b implies f16(a) <= f16(b).
    fn f16_narrowing_monotonic(a in -70000.0f32..70000.0, b in -70000.0f32..70000.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(F16::from_f32(lo) <= F16::from_f32(hi));
    }

    /// Quantize/dequantize error is bounded by half the scale for values
    /// inside the representable range.
    fn quant_round_trip_error_bounded(
        lo in -100.0f32..0.0,
        hi in 0.001f32..100.0,
        x in -100.0f32..100.0,
    ) {
        let p = QuantParams::from_range(lo, hi).unwrap();
        let clamped = x.clamp(p.real_min(), p.real_max());
        let err = (p.dequantize(p.quantize(clamped)) - clamped).abs();
        prop_assert!(err <= p.scale * 0.5 + p.scale * 1e-3,
            "x = {x}, clamped = {clamped}, err = {err}, scale = {}", p.scale);
    }

    /// Quantization is monotonic.
    fn quantize_monotonic(a in -50.0f32..50.0, b in -50.0f32..50.0) {
        let p = QuantParams::from_range(-50.0, 50.0).unwrap();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(p.quantize(lo) <= p.quantize(hi));
    }

    /// The fixed-point multiplier matches f64 math within 1 unit on
    /// accumulators that do not overflow.
    fn fixed_point_multiplier_accurate(
        real in 1e-6f64..8.0,
        acc in -1_000_000i32..1_000_000,
    ) {
        let m = FixedPointMultiplier::from_real(real).unwrap();
        let want = acc as f64 * real;
        prop_assume!(want.abs() < (i32::MAX / 2) as f64);
        let got = m.apply(acc) as f64;
        prop_assert!((got - want).abs() <= 1.0 + want.abs() * 1e-6,
            "real = {real}, acc = {acc}, got = {got}, want = {want}");
    }

    /// The slice requantizer (vector body where the host has one, scalar
    /// tail) equals the scalar definition element for element: random
    /// accumulators of every magnitude, multipliers in (0, 4) — so both
    /// the right-shift and the left-shift form — every zero point, with
    /// and without ReLU, and lengths that leave a tail.
    fn requantize_into_equals_scalar(
        real in 1e-9f64..4.0,
        zp in 0u8..=255,
        relu in bools(),
        bias in -1_000_000i32..1_000_000,
        len in 0usize..70,
        seed in 0u64..u64::MAX,
    ) {
        let m = FixedPointMultiplier::from_real(real).unwrap();
        let mut rng = Rng::seed_from_u64(seed);
        let acc: Vec<i32> = (0..len)
            .map(|_| {
                // A uniform bit width, so small and huge values both occur.
                let bits = rng.gen_range(0u32..=32);
                (rng.next_u64() as i64 >> (64 - bits.max(1))) as i32
            })
            .collect();
        let mut got = vec![0u8; len];
        requantize_into(&mut got, &acc, bias, &m, zp, relu);
        for (i, &a) in acc.iter().enumerate() {
            let want = requantize_scalar(a, bias, &m, zp, relu);
            prop_assert!(got[i] == want, "acc = {a}, m = {m:?}: got {}, want {want}", got[i]);
        }
    }

    /// Slicing a tensor in two along any axis and concatenating restores
    /// the original bits, for every dtype.
    fn slice_concat_identity(
        n in 1usize..3,
        c in 1usize..8,
        h in 1usize..6,
        w in 1usize..6,
        axis in 0usize..4,
        frac in 0.0f64..=1.0,
        dtype_idx in 0usize..3,
    ) {
        let shape = Shape::nchw(n, c, h, w);
        let data: Vec<f32> = (0..shape.numel()).map(|i| (i as f32 * 0.37).sin()).collect();
        let dtype = DType::ALL[dtype_idx];
        let t = Tensor::from_f32(shape.clone(), data).unwrap()
            .cast(dtype, Some(QuantParams::from_range(-1.0, 1.0).unwrap()))
            .unwrap();
        let len = shape.dim(axis);
        let cut = ((len as f64) * frac).round() as usize;
        let a = t.slice_axis(axis, 0, cut).unwrap();
        let b = t.slice_axis(axis, cut, len).unwrap();
        let merged = Tensor::concat_axis(axis, &[&a, &b]).unwrap();
        prop_assert!(merged.bit_equal(&t));
    }

    /// Three-way split/merge (CPU + GPU + NPU extension case).
    fn three_way_split_merge(
        c in 3usize..12,
        cut1 in 0usize..12,
        cut2 in 0usize..12,
    ) {
        let shape = Shape::nchw(1, c, 3, 3);
        let data: Vec<f32> = (0..shape.numel()).map(|i| i as f32).collect();
        let t = Tensor::from_f32(shape, data).unwrap();
        let a = cut1.min(c);
        let b = cut2.min(c).max(a);
        let p1 = t.slice_axis(1, 0, a).unwrap();
        let p2 = t.slice_axis(1, a, b).unwrap();
        let p3 = t.slice_axis(1, b, c).unwrap();
        let merged = Tensor::concat_axis(1, &[&p1, &p2, &p3]).unwrap();
        prop_assert!(merged.bit_equal(&t));
    }
}

/// Regression pinned from the retired proptest suite's saved failure
/// corpus (`props.proptest-regressions`): this (real, acc) pair once
/// exceeded the fixed-point multiplier's 1-unit error bound.
#[test]
fn fixed_point_multiplier_regression_case() {
    let real = 2.215425531657657f64;
    let acc = -2110i32;
    let m = FixedPointMultiplier::from_real(real).unwrap();
    let want = acc as f64 * real;
    let got = m.apply(acc) as f64;
    assert!(
        (got - want).abs() <= 1.0 + want.abs() * 1e-6,
        "real = {real}, acc = {acc}, got = {got}, want = {want}"
    );
}

/// The i32 extremes through [`requantize_into`], for right- and
/// left-shift multipliers: the accumulator rails, values around zero and
/// around the rounding ties, in every lane position.
#[test]
fn requantize_into_extremes_equal_scalar() {
    let edge = [
        i32::MIN,
        i32::MIN + 1,
        -(1 << 30) - 1,
        -(1 << 30),
        -3,
        -2,
        -1,
        0,
        1,
        2,
        3,
        (1 << 30) - 1,
        1 << 30,
        i32::MAX - 1,
        i32::MAX,
    ];
    // 19 elements: two full vector blocks plus a tail, rotated so every
    // edge value visits every lane.
    for rot in 0..edge.len() {
        let acc: Vec<i32> = (0..19).map(|i| edge[(i + rot) % edge.len()]).collect();
        for real in [
            1e-9,
            0.000_3,
            0.25,
            0.5,
            0.731,
            0.999_999_999,
            1.0,
            1.5,
            3.999,
        ] {
            let m = FixedPointMultiplier::from_real(real).unwrap();
            for zp in [0u8, 1, 128, 254, 255] {
                for relu in [false, true] {
                    for bias in [0i32, 1, -1, i32::MAX, i32::MIN] {
                        let mut got = vec![0u8; acc.len()];
                        requantize_into(&mut got, &acc, bias, &m, zp, relu);
                        let want: Vec<u8> = acc
                            .iter()
                            .map(|&a| requantize_scalar(a, bias, &m, zp, relu))
                            .collect();
                        assert_eq!(got, want, "real {real} zp {zp} relu {relu} bias {bias}");
                    }
                }
            }
        }
    }
}
