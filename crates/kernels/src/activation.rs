//! Standalone activation functions.
//!
//! Most ReLUs are fused into the preceding convolution/FC (the deployment
//! path); the standalone [`relu`] exists for graphs that keep them as
//! separate layers and for tests. [`softmax_f32`] is used by the accuracy
//! experiments and the example classifiers.

use utensor::{QuantParams, TensorError, TensorView, TensorViewMut, ViewData, ViewDataMut, F16};

/// Elementwise ReLU of `input` into `out` (same shape and dtype).
///
/// For `QUInt8` tensors, clamps codes at the zero point (the quantized
/// image of real zero), matching the fused path in the GEMM kernels; the
/// codes keep the input's grid, which `out` must carry.
pub fn relu(input: &TensorView<'_>, out: &mut TensorViewMut<'_>) -> Result<(), TensorError> {
    crate::expect_out(out, &input.shape)?;
    match (input.data, &mut out.data) {
        (ViewData::F32(x), ViewDataMut::F32(o)) => {
            for (o, &v) in o.iter_mut().zip(x) {
                *o = v.max(0.0);
            }
        }
        (ViewData::F16(x), ViewDataMut::F16(o)) => {
            for (o, &v) in o.iter_mut().zip(x) {
                *o = if v < F16::ZERO { F16::ZERO } else { v };
            }
        }
        (ViewData::QUInt8(x, p), ViewDataMut::QUInt8(o, out_p)) if p == *out_p => {
            for (o, &q) in o.iter_mut().zip(x) {
                *o = q.max(p.zero_point);
            }
        }
        _ => return Err(crate::mismatch(&[input.dtype(), out.dtype()])),
    }
    Ok(())
}

/// Fake-quantization through an 8-bit affine grid: snaps every value of
/// `input` to the nearest representable point of `params`
/// (quantize→dequantize), written into `out` in the input's dtype — the
/// kernel of the `Quantize` boundary layer. A `QUInt8` input is
/// requantized onto `params`, which `out` must carry.
///
/// The snap is idempotent: a tensor already on the `params` grid passes
/// through bit-identically (a `QUInt8` tensor carrying the same params
/// is copied code-for-code), so an adjacent same-params pair snaps
/// once.
pub fn fake_quant(
    input: &TensorView<'_>,
    params: QuantParams,
    out: &mut TensorViewMut<'_>,
) -> Result<(), TensorError> {
    crate::expect_out(out, &input.shape)?;
    let snap = |x: f32| params.dequantize(params.quantize(x));
    match (input.data, &mut out.data) {
        (ViewData::F32(x), ViewDataMut::F32(o)) => {
            for (o, &v) in o.iter_mut().zip(x) {
                *o = snap(v);
            }
        }
        (ViewData::F16(x), ViewDataMut::F16(o)) => {
            for (o, &v) in o.iter_mut().zip(x) {
                *o = F16::from_f32(snap(v.to_f32()));
            }
        }
        (ViewData::QUInt8(..), ViewDataMut::QUInt8(_, out_p)) if *out_p == params => {
            return out.convert_from(input)
        }
        _ => return Err(crate::mismatch(&[input.dtype(), out.dtype()])),
    }
    Ok(())
}

/// Numerically-stable softmax of one row of logits, in place: the row
/// becomes its probability vector.
pub fn softmax_f32(values: &mut [f32]) {
    let max = values.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    for v in values.iter_mut() {
        *v = (*v - max).exp();
    }
    let sum: f32 = values.iter().sum();
    for v in values.iter_mut() {
        *v /= sum;
    }
}

/// Index of the maximum element (the predicted class).
pub fn argmax(values: &[f32]) -> Option<usize> {
    if values.is_empty() {
        return None;
    }
    let mut best = 0usize;
    for (i, &v) in values.iter().enumerate() {
        if v > values[best] {
            best = i;
        }
    }
    Some(best)
}

/// Indices of the `k` largest elements, in descending value order.
#[cfg(test)]
pub(crate) fn top_k(values: &[f32], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| {
        values[b]
            .partial_cmp(&values[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::alloc::{fake_quant, relu, softmax_f32};
    use utensor::Tensor;
    use utensor::{DType, QuantParams, Shape};

    #[test]
    fn relu_f32() {
        let t = Tensor::from_f32(Shape::new(vec![4]), vec![-1.0, 0.0, 2.0, -0.5]).unwrap();
        let r = relu(&t).unwrap();
        assert_eq!(r.as_f32().unwrap(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn relu_f16() {
        let t = Tensor::from_f32(Shape::new(vec![3]), vec![-1.0, 0.5, 3.0])
            .unwrap()
            .cast(DType::F16, None)
            .unwrap();
        let r = relu(&t).unwrap();
        assert_eq!(r.to_f32_vec(), vec![0.0, 0.5, 3.0]);
    }

    #[test]
    fn fake_quant_snaps_and_is_idempotent() {
        let p = QuantParams::from_range(-2.0, 2.0).unwrap();
        let x = Tensor::from_f32(
            utensor::Shape::new(vec![4]),
            vec![-3.0, -0.013, 0.4999, 1.7],
        )
        .unwrap();
        let once = fake_quant(&x, p).unwrap();
        // Values land on the grid: each is an exact dequantized code.
        for &v in once.as_f32().unwrap() {
            assert_eq!(p.dequantize(p.quantize(v)), v);
        }
        // Idempotent in f32.
        let twice = fake_quant(&once, p).unwrap();
        assert!(twice.bit_equal(&once));

        // Idempotent in f16.
        let xh = x.cast(DType::F16, None).unwrap();
        let once_h = fake_quant(&xh, p).unwrap();
        let twice_h = fake_quant(&once_h, p).unwrap();
        assert!(twice_h.bit_equal(&once_h));

        // Same-params QUInt8 passes through code-for-code; changed params
        // requantize.
        let q = x.cast(DType::QUInt8, Some(p)).unwrap();
        assert!(fake_quant(&q, p).unwrap().bit_equal(&q));
        let p2 = QuantParams::from_range(-4.0, 4.0).unwrap();
        let rq = fake_quant(&q, p2).unwrap();
        let (_, got) = rq.as_quint8().unwrap();
        assert_eq!(got, p2);
    }

    #[test]
    fn relu_quint8_clamps_at_zero_point() {
        let p = QuantParams::from_range(-2.0, 2.0).unwrap();
        let t = Tensor::from_f32_quantized(Shape::new(vec![3]), &[-1.5, 0.0, 1.5], p).unwrap();
        let r = relu(&t).unwrap();
        let vals = r.to_f32_vec();
        assert_eq!(vals[0], 0.0);
        assert_eq!(vals[1], 0.0);
        assert!((vals[2] - 1.5).abs() <= p.scale);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let p = softmax_f32(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_stable_for_large_logits() {
        let p = softmax_f32(&[1000.0, 1001.0]);
        assert!(p.iter().all(|v| v.is_finite()));
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_empty() {
        assert!(softmax_f32(&[]).is_empty());
    }

    #[test]
    fn argmax_and_top_k() {
        let v = [0.1f32, 0.7, 0.2, 0.05];
        assert_eq!(argmax(&v), Some(1));
        assert_eq!(top_k(&v, 2), vec![1, 2]);
        assert_eq!(argmax(&[]), None);
        assert_eq!(top_k(&v, 10).len(), 4);
    }
}
