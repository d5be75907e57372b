//! Standalone activation functions.
//!
//! Most ReLUs are fused into the preceding convolution/FC (the deployment
//! path); the standalone [`relu`] exists for graphs that keep them as
//! separate layers and for tests. [`softmax_f32`] is used by the accuracy
//! experiments and the example classifiers.

use utensor::{DType, QuantParams, Tensor, TensorData, TensorError, F16};

/// Elementwise ReLU.
///
/// For `QUInt8` tensors, clamps codes at the zero point (the quantized
/// image of real zero), matching the fused path in the GEMM kernels.
pub fn relu(input: &Tensor) -> Result<Tensor, TensorError> {
    let data = match input.data() {
        TensorData::F32(v) => TensorData::F32(v.iter().map(|&x| x.max(0.0)).collect()),
        TensorData::F16(v) => TensorData::F16(
            v.iter()
                .map(|&x| if x < F16::ZERO { F16::ZERO } else { x })
                .collect(),
        ),
        TensorData::QUInt8 { data, params } => TensorData::QUInt8 {
            data: data.iter().map(|&q| q.max(params.zero_point)).collect(),
            params: *params,
        },
    };
    Tensor::new(input.shape().clone(), data)
}

/// Fake-quantization through an 8-bit affine grid: snaps every value to
/// the nearest representable point of `params` (quantize→dequantize)
/// while keeping the tensor's dtype — the kernel of the `Quantize`
/// boundary layer.
///
/// The snap is idempotent: a tensor already on the `params` grid passes
/// through bit-identically (a `QUInt8` tensor carrying the same params
/// is returned code-for-code). That idempotence is what lets the
/// quant-pair elision pass drop the second of an adjacent same-params
/// pair without changing any output bit.
pub fn fake_quant(input: &Tensor, params: QuantParams) -> Result<Tensor, TensorError> {
    match input.data() {
        TensorData::F32(v) => Tensor::from_f32(
            input.shape().clone(),
            v.iter()
                .map(|&x| params.dequantize(params.quantize(x)))
                .collect(),
        ),
        TensorData::F16(v) => Tensor::new(
            input.shape().clone(),
            TensorData::F16(
                v.iter()
                    .map(|&x| F16::from_f32(params.dequantize(params.quantize(x.to_f32()))))
                    .collect(),
            ),
        ),
        TensorData::QUInt8 { params: p, .. } => {
            if *p == params {
                Ok(input.clone())
            } else {
                input.cast(DType::QUInt8, Some(params))
            }
        }
    }
}

/// Numerically-stable softmax over the last axis of a flattened f32
/// tensor (a `[n, classes]`-style logits tensor).
///
/// Returns a probability vector per batch row.
pub fn softmax_f32(logits: &[f32]) -> Vec<f32> {
    if logits.is_empty() {
        return Vec::new();
    }
    let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&v| (v - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|v| v / sum).collect()
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
