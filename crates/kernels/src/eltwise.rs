//! Elementwise binary operations (residual additions).
//!
//! ResNet-style skip connections add two activation tensors. On the
//! integer path this is a genuine requantization problem: the two inputs
//! carry different affine parameters, so each is rescaled into the output
//! scale with a fixed-point multiplier before the add — the same
//! machinery TFLite's quantized `ADD` uses.

use utensor::saturating_rounding_doubling_high_mul;
use utensor::{FixedPointMultiplier, QuantParams, TensorError, TensorView, TensorViewMut};
use utensor::{ViewData, ViewDataMut, F16};

/// Elementwise `a + b` into `out`, with an optional fused ReLU — the
/// kernel of the `Add { relu }` layer (the fusion pass produces the
/// `relu` form).
///
/// Inputs and `out` share shape and dtype; a `QUInt8` sum is rescaled
/// onto `out`'s grid (the calibrated output range). The activation is
/// applied exactly as the standalone [`crate::relu`] would apply it to
/// the add's output (`max(x, 0)` on floats, clamping codes at the zero
/// point on `QUInt8`), so fusing a following ReLU into the add is
/// bit-identical in every dtype.
pub fn add_fused(
    a: &TensorView<'_>,
    b: &TensorView<'_>,
    relu: bool,
    out: &mut TensorViewMut<'_>,
) -> Result<(), TensorError> {
    if a.shape != b.shape {
        return Err(TensorError::ShapeMismatch {
            expected: a.shape.clone(),
            found: b.shape.clone(),
        });
    }
    crate::expect_out(out, &a.shape)?;
    let dtypes = [a.dtype(), b.dtype(), out.dtype()];
    match (a.data, b.data, &mut out.data) {
        (ViewData::F32(x), ViewData::F32(y), ViewDataMut::F32(out)) => {
            for ((o, u), v) in out.iter_mut().zip(x).zip(y) {
                let s = u + v;
                *o = if relu { s.max(0.0) } else { s };
            }
        }
        (ViewData::F16(x), ViewData::F16(y), ViewDataMut::F16(out)) => {
            for ((o, &u), &v) in out.iter_mut().zip(x).zip(y) {
                let s = u + v;
                *o = if relu && s < F16::ZERO { F16::ZERO } else { s };
            }
        }
        (ViewData::QUInt8(x, pa), ViewData::QUInt8(y, pb), ViewDataMut::QUInt8(out, out_p)) => {
            let out_p = *out_p;
            // Rescale both inputs into a shared high-precision domain
            // (TFLite's quantized ADD): values are left-shifted to gain
            // headroom, each input is scaled by s_in / (s_out * 2^shift),
            // summed, and the sum is scaled back down.
            const LEFT_SHIFT: i32 = 20;
            let shifted = |p: &QuantParams| -> Result<FixedPointMultiplier, TensorError> {
                FixedPointMultiplier::from_real(
                    p.scale as f64 / out_p.scale as f64 * (1i64 << LEFT_SHIFT) as f64,
                )
            };
            let ma = shifted(&pa)?;
            let mb = shifted(&pb)?;
            let zp_a = pa.zero_point as i32;
            let zp_b = pb.zero_point as i32;
            for ((o, &u), &v) in out.iter_mut().zip(x).zip(y) {
                let ua = ma.apply(u as i32 - zp_a);
                let vb = mb.apply(v as i32 - zp_b);
                let sum = ua.saturating_add(vb);
                // Scale back down by 2^LEFT_SHIFT with rounding: use
                // the rounding-doubling high-mul against 2^(31-shift).
                let scaled = saturating_rounding_doubling_high_mul(sum, 1i32 << (31 - LEFT_SHIFT));
                let q = (scaled + out_p.zero_point as i32).clamp(0, 255) as u8;
                *o = if relu { q.max(out_p.zero_point) } else { q };
            }
        }
        _ => return Err(crate::mismatch(&dtypes)),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::alloc::{add, add_fused, relu};
    use utensor::{DType, Shape, Tensor};

    fn t(v: Vec<f32>) -> Tensor {
        Tensor::from_f32(Shape::new(vec![v.len()]), v).unwrap()
    }

    #[test]
    fn f32_add() {
        let out = add(&t(vec![1.0, 2.0]), &t(vec![0.5, -1.0]), None).unwrap();
        assert_eq!(out.as_f32().unwrap(), &[1.5, 1.0]);
    }

    #[test]
    fn f16_add_rounds() {
        let a = t(vec![2048.0]).cast(DType::F16, None).unwrap();
        let b = t(vec![1.0]).cast(DType::F16, None).unwrap();
        let out = add(&a, &b, None).unwrap();
        // f16 spacing at 2048 is 2: the add rounds back to 2048.
        assert_eq!(out.to_f32_vec(), vec![2048.0]);
    }

    #[test]
    fn quint8_add_rescales_mismatched_inputs() {
        let pa = QuantParams::from_range(0.0, 2.0).unwrap();
        let pb = QuantParams::from_range(0.0, 8.0).unwrap();
        let po = QuantParams::from_range(0.0, 10.0).unwrap();
        let a = t(vec![0.5, 1.0, 1.5])
            .cast(DType::QUInt8, Some(pa))
            .unwrap();
        let b = t(vec![4.0, 2.0, 6.0])
            .cast(DType::QUInt8, Some(pb))
            .unwrap();
        let out = add(&a, &b, Some(po)).unwrap();
        let got = out.to_f32_vec();
        for (g, want) in got.iter().zip([4.5f32, 3.0, 7.5]) {
            assert!(
                (g - want).abs() <= po.scale + pa.scale + pb.scale,
                "got {g}, want {want}"
            );
        }
    }

    #[test]
    fn quint8_add_saturates() {
        let p = QuantParams::from_range(0.0, 10.0).unwrap();
        let po = QuantParams::from_range(0.0, 10.0).unwrap();
        let a = t(vec![9.0]).cast(DType::QUInt8, Some(p)).unwrap();
        let b = t(vec![9.0]).cast(DType::QUInt8, Some(p)).unwrap();
        // 18 > 10: clamps to the output rail.
        let out = add(&a, &b, Some(po)).unwrap();
        let (q, _) = out.as_quint8().unwrap();
        assert_eq!(q[0], 255);
    }

    #[test]
    fn mismatches_rejected() {
        let a = t(vec![1.0, 2.0]);
        let b = t(vec![1.0]);
        assert!(add(&a, &b, None).is_err());
        let h = a.cast(DType::F16, None).unwrap();
        assert!(add(&a, &h, None).is_err());
        // QUInt8 without out_params.
        let q = a.cast(DType::QUInt8, None).unwrap();
        assert!(add(&q, &q, None).is_err());
        // Float with out_params.
        assert!(add(&a, &a, Some(QuantParams::default())).is_err());
    }

    #[test]
    fn fused_relu_matches_standalone_in_every_dtype() {
        let a = t(vec![-3.0, 1.0, -0.5, 2.0]);
        let b = t(vec![1.0, -2.0, 0.25, 3.0]);

        let fused = add_fused(&a, &b, None, true).unwrap();
        let standalone = relu(&add(&a, &b, None).unwrap()).unwrap();
        assert!(fused.bit_equal(&standalone));

        let ah = a.cast(DType::F16, None).unwrap();
        let bh = b.cast(DType::F16, None).unwrap();
        let fused = add_fused(&ah, &bh, None, true).unwrap();
        let standalone = relu(&add(&ah, &bh, None).unwrap()).unwrap();
        assert!(fused.bit_equal(&standalone));

        let p = QuantParams::from_range(-4.0, 4.0).unwrap();
        let aq = a.cast(DType::QUInt8, Some(p)).unwrap();
        let bq = b.cast(DType::QUInt8, Some(p)).unwrap();
        let fused = add_fused(&aq, &bq, Some(p), true).unwrap();
        let standalone = relu(&add(&aq, &bq, Some(p)).unwrap()).unwrap();
        assert!(fused.bit_equal(&standalone));
    }

    #[test]
    fn quint8_add_zero_is_identity_within_a_step() {
        let p = QuantParams::from_range(-4.0, 4.0).unwrap();
        let a = t(vec![-2.0, 0.0, 3.0])
            .cast(DType::QUInt8, Some(p))
            .unwrap();
        let zero = Tensor::zeros(Shape::new(vec![3]), DType::QUInt8, Some(p));
        let out = add(&a, &zero, Some(p)).unwrap();
        assert!(out.max_abs_diff(&a) <= p.scale);
    }
}
