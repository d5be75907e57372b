//! Standalone activation functions.
//!
//! Most ReLUs are fused into the preceding convolution/FC (the deployment
//! path); the standalone [`relu`] exists for graphs that keep them as
//! separate layers and for tests. [`softmax_f32`] is used by the accuracy
//! experiments and the example classifiers.

use utensor::{TensorError, TensorView, TensorViewMut, ViewData, ViewDataMut, F16};

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
    use crate::oracle::alloc::{relu, softmax_f32};
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
