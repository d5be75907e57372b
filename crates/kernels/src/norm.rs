//! Local Response Normalization (AlexNet-style, across channels).
//!
//! `b[c] = a[c] / (k + alpha/n * sum_{j in window(c)} a[j]^2)^beta`.
//!
//! LRN involves a power function, which mobile GPUs evaluate in special
//! function units at full precision; both float paths therefore compute
//! the normalization in f32 and the F16 path rounds the final result.
//! QUInt8 inputs are dequantized, normalized, and requantized — the same
//! approach TensorFlow Lite takes for ops without integer kernels.

use utensor::{TensorError, TensorView, TensorViewMut, ViewData, ViewDataMut};

/// Parameters of an LRN layer (defaults match AlexNet).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LrnParams {
    /// Window size across channels.
    pub n: usize,
    /// Scaling coefficient.
    pub alpha: f32,
    /// Exponent.
    pub beta: f32,
    /// Additive constant.
    pub k: f32,
}

impl Default for LrnParams {
    fn default() -> Self {
        LrnParams {
            n: 5,
            alpha: 1e-4,
            beta: 0.75,
            k: 2.0,
        }
    }
}

/// Applies across-channel LRN to an NCHW tensor, written into `out`
/// (same shape): the normalization runs in f32 on the widened input, and
/// the result is converted to `out`'s dtype (onto its grid, for
/// `QUInt8`). Both f32 planes are scratch buffers of the thread's arena.
pub fn lrn(
    input: &TensorView<'_>,
    params: &LrnParams,
    out: &mut TensorViewMut<'_>,
) -> Result<(), TensorError> {
    let s = &input.shape;
    if s.rank() != 4 {
        return Err(TensorError::BadConcat(format!(
            "lrn expects a rank-4 input, got {s}"
        )));
    }
    if params.n == 0 {
        return Err(TensorError::BadConcat("lrn window must be nonzero".into()));
    }
    crate::expect_out(out, s)?;
    let (n, c, h, w) = (s.n(), s.c(), s.h(), s.w());
    let mut arena = crate::arena::ThreadArenaGuard::take();
    let arena = &mut *arena;
    let (x, y) = (&mut arena.planes_f32, &mut arena.acc_f32);
    for buf in [&mut *x, &mut *y] {
        buf.clear();
        buf.resize(s.numel(), 0.0);
    }
    TensorViewMut {
        shape: s.clone(),
        data: ViewDataMut::F32(x),
    }
    .convert_from(input)?;
    let half = params.n / 2;
    let hw = h * w;
    for b in 0..n {
        for ci in 0..c {
            let lo = ci.saturating_sub(half);
            let hi = (ci + half).min(c - 1);
            for pos in 0..hw {
                let mut sum_sq = 0.0f32;
                for cj in lo..=hi {
                    let v = x[(b * c + cj) * hw + pos];
                    sum_sq += v * v;
                }
                let denom = (params.k + params.alpha / params.n as f32 * sum_sq).powf(params.beta);
                let i = (b * c + ci) * hw + pos;
                y[i] = x[i] / denom;
            }
        }
    }
    out.convert_from(&TensorView {
        shape: s.clone(),
        data: ViewData::F32(y),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::alloc::lrn;
    use utensor::{DType, Shape, Tensor};

    #[test]
    fn uniform_input_scales_uniformly() {
        // With all values equal, every output is input / same denominator.
        let c = 5;
        let input = Tensor::from_f32(Shape::nchw(1, c, 1, 1), vec![2.0; c]).unwrap();
        let p = LrnParams {
            n: 5,
            alpha: 1.0,
            beta: 1.0,
            k: 1.0,
        };
        let out = lrn(&input, &p).unwrap();
        let v = out.as_f32().unwrap();
        // Middle channel sees the full window (5 channels of 2.0):
        // denom = 1 + 1/5 * 5*4 = 5 -> 2/5.
        assert!((v[2] - 0.4).abs() < 1e-6);
        // Edge channel sees 3 channels: denom = 1 + 1/5*12 = 3.4.
        assert!((v[0] - 2.0 / 3.4).abs() < 1e-6);
    }

    #[test]
    fn identity_when_alpha_zero() {
        let input =
            Tensor::from_f32(Shape::nchw(1, 3, 2, 2), (0..12).map(|i| i as f32).collect()).unwrap();
        let p = LrnParams {
            n: 5,
            alpha: 0.0,
            beta: 0.75,
            k: 1.0,
        };
        let out = lrn(&input, &p).unwrap();
        assert!(out.max_abs_diff(&input) < 1e-6);
    }

    #[test]
    fn dtype_preserved() {
        let input = Tensor::from_f32(Shape::nchw(1, 4, 2, 2), vec![0.5; 16]).unwrap();
        let h = input.cast(DType::F16, None).unwrap();
        let out = lrn(&h, &LrnParams::default()).unwrap();
        assert_eq!(out.dtype(), DType::F16);
        let q = input.cast(DType::QUInt8, None).unwrap();
        let out = lrn(&q, &LrnParams::default()).unwrap();
        assert_eq!(out.dtype(), DType::QUInt8);
    }

    #[test]
    fn rejects_bad_inputs() {
        let input = Tensor::from_f32(Shape::new(vec![4]), vec![0.0; 4]).unwrap();
        assert!(lrn(&input, &LrnParams::default()).is_err());
        let input4 = Tensor::from_f32(Shape::nchw(1, 1, 2, 2), vec![0.0; 4]).unwrap();
        let bad = LrnParams {
            n: 0,
            ..LrnParams::default()
        };
        assert!(lrn(&input4, &bad).is_err());
    }

    #[test]
    fn channel_window_clamps_at_edges() {
        // A large window on few channels must not index out of bounds and
        // must normalize against all channels.
        let input = Tensor::from_f32(Shape::nchw(1, 2, 1, 1), vec![1.0, 3.0]).unwrap();
        let p = LrnParams {
            n: 11,
            alpha: 1.0,
            beta: 1.0,
            k: 0.0,
        };
        let out = lrn(&input, &p).unwrap();
        let v = out.as_f32().unwrap();
        // denom = (1/11) * (1 + 9) = 10/11 for both channels.
        assert!((v[0] - 1.0 / (10.0 / 11.0)).abs() < 1e-5);
        assert!((v[1] - 3.0 / (10.0 / 11.0)).abs() < 1e-5);
    }
}
