//! Fully-connected (inner product) layers.
//!
//! As the paper notes (§2.1), an FC layer is a convolution whose filter
//! covers the whole input and whose output-channel count equals the number
//! of output neurons. The implementation flattens the input and runs the
//! GEMM directly: `weights [out × in] × input [in × n_batch]`.
//!
//! Channel-wise distribution narrows the weight rows (output neurons),
//! exactly like convolution filters.

use utensor::{Shape, TensorError, TensorView, TensorViewMut};

use crate::conv::gemm_layer;

/// Fully-connected layer: `input` (any shape with `n` as dim 0) ×
/// `weights [out_features, in_features]`, written into `out`
/// (`[n, out_features, 1, 1]`).
///
/// `in_features` must equal the input's per-batch element count. Dtype and
/// quantization rules match [`crate::conv2d`], whose GEMM-layer body this
/// runs with the flattened input as `B`.
pub fn fully_connected(
    input: &TensorView<'_>,
    weights: &TensorView<'_>,
    bias: Option<&[f32]>,
    relu: bool,
    out: &mut TensorViewMut<'_>,
) -> Result<(), TensorError> {
    let ws = &weights.shape;
    if ws.rank() != 2 {
        return Err(TensorError::BadConcat(format!(
            "fc weights must be rank-2 [out, in], got {ws}"
        )));
    }
    let (out_f, in_f) = (ws.dim(0), ws.dim(1));
    let xs = &input.shape;
    let n = if xs.rank() >= 1 { xs.dim(0) } else { 1 };
    if xs.numel() / n.max(1) != in_f || xs.numel() != n * in_f {
        return Err(TensorError::ShapeMismatch {
            expected: Shape::new(vec![n, in_f]),
            found: xs.clone(),
        });
    }
    crate::check_bias(bias, out_f)?;
    crate::expect_out(out, &Shape::nchw(n, out_f, 1, 1))?;
    gemm_layer((input, weights, bias), None, relu, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::alloc::fully_connected;
    use utensor::{DType, QuantParams, Tensor};

    fn pseudo(i: usize) -> f32 {
        (((i * 2654435761) % 997) as f32 - 498.0) / 498.0
    }

    #[test]
    fn matches_manual_dot_product() {
        let input = Tensor::from_f32(Shape::nchw(1, 3, 1, 1), vec![1.0, 2.0, 3.0]).unwrap();
        let weights =
            Tensor::from_f32(Shape::new(vec![2, 3]), vec![1.0, 0.0, 0.0, 0.5, 0.5, 0.5]).unwrap();
        let out = fully_connected(&input, &weights, Some(&[10.0, -10.0]), false, None).unwrap();
        assert_eq!(out.shape().dims(), &[1, 2, 1, 1]);
        assert_eq!(out.as_f32().unwrap(), &[11.0, -7.0]);
    }

    #[test]
    fn accepts_conv_shaped_input() {
        // FC over a [1, 2, 2, 2] feature map = dot with 8 flattened values.
        let input =
            Tensor::from_f32(Shape::nchw(1, 2, 2, 2), (0..8).map(|i| i as f32).collect()).unwrap();
        let weights = Tensor::from_f32(Shape::new(vec![1, 8]), vec![1.0; 8]).unwrap();
        let out = fully_connected(&input, &weights, None, false, None).unwrap();
        assert_eq!(out.as_f32().unwrap(), &[28.0]);
    }

    #[test]
    fn row_split_merge_equals_whole_fc() {
        // μLayer invariant for FC layers: splitting output neurons.
        let input =
            Tensor::from_f32(Shape::nchw(1, 10, 1, 1), (0..10).map(pseudo).collect()).unwrap();
        let weights = Tensor::from_f32(
            Shape::new(vec![6, 10]),
            (0..60).map(|i| pseudo(i + 7)).collect(),
        )
        .unwrap();
        let bias: Vec<f32> = (0..6).map(|i| pseudo(i + 100)).collect();
        let whole = fully_connected(&input, &weights, Some(&bias), true, None).unwrap();
        let w_lo = weights.slice_axis(0, 0, 2).unwrap();
        let w_hi = weights.slice_axis(0, 2, 6).unwrap();
        let lo = fully_connected(&input, &w_lo, Some(&bias[..2]), true, None).unwrap();
        let hi = fully_connected(&input, &w_hi, Some(&bias[2..]), true, None).unwrap();
        let merged = Tensor::concat_axis(1, &[&lo, &hi]).unwrap();
        assert!(merged.bit_equal(&whole));
    }

    #[test]
    fn quint8_fc_tracks_f32() {
        let xs: Vec<f32> = (0..16).map(pseudo).collect();
        let ws: Vec<f32> = (0..64).map(|i| pseudo(i + 3)).collect();
        let input = Tensor::from_f32(Shape::nchw(1, 16, 1, 1), xs.clone()).unwrap();
        let weights = Tensor::from_f32(Shape::new(vec![4, 16]), ws.clone()).unwrap();
        let f_out = fully_connected(&input, &weights, None, false, None).unwrap();
        let qp = QuantParams::from_range(-1.0, 1.0).unwrap();
        let q_in = input.cast(DType::QUInt8, Some(qp)).unwrap();
        let q_w = weights.cast(DType::QUInt8, Some(qp)).unwrap();
        let out_p = QuantParams::from_data(f_out.as_f32().unwrap()).unwrap();
        let q_out = fully_connected(&q_in, &q_w, None, false, Some(out_p)).unwrap();
        assert!(q_out.max_abs_diff(&f_out) < 0.15);
    }

    #[test]
    fn batch_rows_independent() {
        let input =
            Tensor::from_f32(Shape::nchw(2, 3, 1, 1), (0..6).map(|i| i as f32).collect()).unwrap();
        let weights = Tensor::from_f32(Shape::new(vec![2, 3]), vec![1.0; 6]).unwrap();
        let out = fully_connected(&input, &weights, None, false, None).unwrap();
        assert_eq!(out.shape().dims(), &[2, 2, 1, 1]);
        assert_eq!(out.as_f32().unwrap(), &[3.0, 3.0, 12.0, 12.0]);
    }

    #[test]
    fn shape_errors() {
        let input = Tensor::from_f32(Shape::nchw(1, 4, 1, 1), vec![0.0; 4]).unwrap();
        let bad_rank = Tensor::from_f32(Shape::new(vec![2, 2, 1]), vec![0.0; 4]).unwrap();
        assert!(fully_connected(&input, &bad_rank, None, false, None).is_err());
        let wrong_in = Tensor::from_f32(Shape::new(vec![2, 5]), vec![0.0; 10]).unwrap();
        assert!(fully_connected(&input, &wrong_in, None, false, None).is_err());
        let weights = Tensor::from_f32(Shape::new(vec![2, 4]), vec![0.0; 8]).unwrap();
        assert!(fully_connected(&input, &weights, Some(&[0.0; 3]), false, None).is_err());
    }
}
