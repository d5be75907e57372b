//! Dense tensors over the three μLayer data types.
//!
//! A [`Tensor`] owns a row-major buffer of `f32`, [`F16`], or quantized
//! `u8` elements plus its [`Shape`]. The operations the runtime needs are
//! deliberately small: dtype conversion (quantize / dequantize / narrow),
//! axis slicing and concatenation (for the channel-wise workload
//! distribution), and elementwise comparison helpers for the test suites.

use std::ops::Range;

use crate::convert::{self, filled};
use crate::dtype::DType;
use crate::error::TensorError;
use crate::f16::F16;
use crate::quant::QuantParams;
use crate::shape::Shape;

/// The storage of a [`Tensor`].
#[derive(Clone, Debug, PartialEq)]
pub enum TensorData {
    /// 32-bit floats.
    F32(Vec<f32>),
    /// Software half-precision floats.
    F16(Vec<F16>),
    /// 8-bit affine-quantized values with their parameters.
    QUInt8 {
        /// Quantized elements.
        data: Vec<u8>,
        /// The affine mapping to real values.
        params: QuantParams,
    },
}

impl TensorData {
    fn len(&self) -> usize {
        match self {
            TensorData::F32(v) => v.len(),
            TensorData::F16(v) => v.len(),
            TensorData::QUInt8 { data, .. } => data.len(),
        }
    }

    fn dtype(&self) -> DType {
        match self {
            TensorData::F32(_) => DType::F32,
            TensorData::F16(_) => DType::F16,
            TensorData::QUInt8 { .. } => DType::QUInt8,
        }
    }
}

/// A dense row-major tensor.
///
/// # Examples
///
/// Channel slicing and concatenation — the primitive of μLayer's
/// channel-wise workload distribution — is exactly lossless:
///
/// ```
/// use utensor::{Shape, Tensor};
///
/// let t = Tensor::from_f32(Shape::nchw(1, 4, 2, 2), (0..16).map(|i| i as f32).collect())
///     .unwrap();
/// let lo = t.slice_axis(1, 0, 1).unwrap(); // CPU's share
/// let hi = t.slice_axis(1, 1, 4).unwrap(); // GPU's share
/// let merged = Tensor::concat_axis(1, &[&lo, &hi]).unwrap();
/// assert!(merged.bit_equal(&t));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: TensorData,
}

impl Tensor {
    /// Creates a tensor from storage, checking the element count.
    pub fn new(shape: Shape, data: TensorData) -> Result<Tensor, TensorError> {
        if shape.numel() != data.len() {
            return Err(TensorError::LengthMismatch {
                shape,
                len: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates an `F32` tensor from a flat vector.
    pub fn from_f32(shape: Shape, data: Vec<f32>) -> Result<Tensor, TensorError> {
        Tensor::new(shape, TensorData::F32(data))
    }

    /// Creates an `F16` tensor by narrowing a flat `f32` vector.
    pub fn from_f32_as_f16(shape: Shape, data: &[f32]) -> Result<Tensor, TensorError> {
        let half = filled(data.len(), F16::ZERO, |out| convert::f32_to_f16(out, data));
        Tensor::new(shape, TensorData::F16(half))
    }

    /// Creates a `QUInt8` tensor by quantizing a flat `f32` vector with the
    /// given parameters.
    pub fn from_f32_quantized(
        shape: Shape,
        data: &[f32],
        params: QuantParams,
    ) -> Result<Tensor, TensorError> {
        Tensor::new(
            shape,
            TensorData::QUInt8 {
                data: params.quantize_slice(data),
                params,
            },
        )
    }

    /// Creates a raw `QUInt8` tensor from already-quantized bytes.
    pub fn from_quantized(
        shape: Shape,
        data: Vec<u8>,
        params: QuantParams,
    ) -> Result<Tensor, TensorError> {
        Tensor::new(shape, TensorData::QUInt8 { data, params })
    }

    /// An all-zeros tensor of the given type. For `QUInt8` the zero point
    /// encodes real zero, so the buffer is filled with it.
    pub fn zeros(shape: Shape, dtype: DType, params: Option<QuantParams>) -> Tensor {
        let n = shape.numel();
        let data = match dtype {
            DType::F32 => TensorData::F32(vec![0.0; n]),
            DType::F16 => TensorData::F16(vec![F16::ZERO; n]),
            DType::QUInt8 => {
                let params = params.unwrap_or_default();
                TensorData::QUInt8 {
                    data: vec![params.zero_point; n],
                    params,
                }
            }
        };
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The tensor's element type.
    pub fn dtype(&self) -> DType {
        self.data.dtype()
    }

    /// The tensor's storage.
    pub fn data(&self) -> &TensorData {
        &self.data
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Size of the stored buffer in bytes (drives traffic accounting).
    pub fn size_bytes(&self) -> usize {
        self.numel() * self.dtype().size_bytes()
    }

    /// The quantization parameters, if this is a `QUInt8` tensor.
    pub fn quant_params(&self) -> Option<QuantParams> {
        match &self.data {
            TensorData::QUInt8 { params, .. } => Some(*params),
            _ => None,
        }
    }

    /// Borrows the `f32` buffer, failing for other types.
    pub fn as_f32(&self) -> Result<&[f32], TensorError> {
        match &self.data {
            TensorData::F32(v) => Ok(v),
            other => Err(TensorError::DTypeMismatch {
                expected: DType::F32,
                found: other.dtype(),
            }),
        }
    }

    /// Borrows the `F16` buffer, failing for other types.
    pub fn as_f16(&self) -> Result<&[F16], TensorError> {
        match &self.data {
            TensorData::F16(v) => Ok(v),
            other => Err(TensorError::DTypeMismatch {
                expected: DType::F16,
                found: other.dtype(),
            }),
        }
    }

    /// Borrows the quantized byte buffer, failing for other types.
    pub fn as_quint8(&self) -> Result<(&[u8], QuantParams), TensorError> {
        match &self.data {
            TensorData::QUInt8 { data, params } => Ok((data, *params)),
            other => Err(TensorError::DTypeMismatch {
                expected: DType::QUInt8,
                found: other.dtype(),
            }),
        }
    }

    /// Materializes the tensor as real-valued `f32`s (dequantizing /
    /// widening as needed).
    pub fn to_f32_vec(&self) -> Vec<f32> {
        match &self.data {
            TensorData::F32(v) => v.clone(),
            TensorData::F16(v) => filled(v.len(), 0.0, |out| convert::f16_to_f32(out, v)),
            TensorData::QUInt8 { data, params } => params.dequantize_slice(data),
        }
    }

    /// Converts to another dtype, one pass from the stored elements into
    /// the new buffer through the exact `convert` functions.
    ///
    /// Converting *to* `QUInt8` requires `params` (the pre-trained
    /// quantization information of §4.2); converting to a float type
    /// ignores it. A `QUInt8` tensor given other parameters than its own
    /// is requantized through real space; without parameters an `f32` or
    /// `F16` tensor is quantized over its own range.
    pub fn cast(&self, dtype: DType, params: Option<QuantParams>) -> Result<Tensor, TensorError> {
        let n = self.numel();
        let data = match dtype {
            DType::F32 => TensorData::F32(self.to_f32_vec()),
            DType::F16 => TensorData::F16(match &self.data {
                TensorData::F32(v) => filled(n, F16::ZERO, |out| convert::f32_to_f16(out, v)),
                TensorData::F16(v) => v.clone(),
                TensorData::QUInt8 { data, params } => filled(n, F16::ZERO, |out| {
                    convert::quint8_to_f16(out, data, *params)
                }),
            }),
            DType::QUInt8 => {
                let to = match (params, &self.data) {
                    (Some(p), _) => p,
                    (None, TensorData::QUInt8 { params, .. }) => *params,
                    (None, TensorData::F32(v)) => QuantParams::from_data(v)?,
                    (None, TensorData::F16(_)) => QuantParams::from_data(&self.to_f32_vec())?,
                };
                let codes = filled(n, 0, |out| match &self.data {
                    TensorData::F32(v) => convert::f32_to_quint8(out, v, to),
                    TensorData::F16(v) => convert::f16_to_quint8(out, v, to),
                    TensorData::QUInt8 { data, params } => {
                        convert::quint8_to_quint8(out, data, *params, to)
                    }
                });
                TensorData::QUInt8 {
                    data: codes,
                    params: to,
                }
            }
        };
        Ok(Tensor {
            shape: self.shape.clone(),
            data,
        })
    }

    /// Extracts the sub-tensor `[start, end)` along `axis`.
    ///
    /// This is the slicing primitive of the channel-wise workload
    /// distribution: filters are sliced along axis 0 (output channels),
    /// activations along axis 1 (channels) or axis 2 (rows, for pooling's
    /// spatial split).
    pub fn slice_axis(&self, axis: usize, start: usize, end: usize) -> Result<Tensor, TensorError> {
        let rank = self.shape.rank();
        if axis >= rank {
            return Err(TensorError::BadAxis { axis, rank });
        }
        let len = self.shape.dim(axis);
        if start > end || end > len {
            return Err(TensorError::BadRange { start, end, len });
        }
        let out_shape = self.shape.with_dim(axis, end - start);

        // The buffer decomposes into `outer` blocks of `len * inner`
        // elements; we copy `[start, end) * inner` from each block.
        let dims = self.shape.dims();
        let outer: usize = dims[..axis].iter().product();
        let inner: usize = dims[axis + 1..].iter().product();

        fn gather<T: Copy>(
            src: &[T],
            outer: usize,
            len: usize,
            inner: usize,
            start: usize,
            end: usize,
        ) -> Vec<T> {
            let mut out = Vec::with_capacity(outer * (end - start) * inner);
            for o in 0..outer {
                let base = o * len * inner;
                out.extend_from_slice(&src[base + start * inner..base + end * inner]);
            }
            out
        }

        let data = match &self.data {
            TensorData::F32(v) => TensorData::F32(gather(v, outer, len, inner, start, end)),
            TensorData::F16(v) => TensorData::F16(gather(v, outer, len, inner, start, end)),
            TensorData::QUInt8 { data, params } => TensorData::QUInt8 {
                data: gather(data, outer, len, inner, start, end),
                params: *params,
            },
        };
        Tensor::new(out_shape, data)
    }

    /// Concatenates tensors along `axis`.
    ///
    /// All parts must share dtype, rank, every non-`axis` dimension, and —
    /// for `QUInt8` — identical quantization parameters (parts of one
    /// layer are stored with the layer's output parameters, so this
    /// always holds in practice).
    pub fn concat_axis(axis: usize, parts: &[&Tensor]) -> Result<Tensor, TensorError> {
        Tensor::concat(axis, parts, None)
    }

    /// Concatenates `QUInt8` tensors along `axis` onto the grid `params`,
    /// requantizing each part while it is copied (a plain copy for a part
    /// already on that grid). Equal, element for element, to casting every
    /// part to `params` and concatenating the casts.
    pub fn concat_axis_quantized(
        axis: usize,
        parts: &[&Tensor],
        params: QuantParams,
    ) -> Result<Tensor, TensorError> {
        Tensor::concat(axis, parts, Some(params))
    }

    /// The one concatenation: `target` is the grid `QUInt8` parts are
    /// brought onto, `None` demanding that they already share one.
    fn concat(
        axis: usize,
        parts: &[&Tensor],
        target: Option<QuantParams>,
    ) -> Result<Tensor, TensorError> {
        let first = parts
            .first()
            .ok_or_else(|| TensorError::BadConcat("no inputs".into()))?;
        let rank = first.shape.rank();
        if axis >= rank {
            return Err(TensorError::BadAxis { axis, rank });
        }
        let dtype = match target {
            Some(_) => DType::QUInt8,
            None => first.dtype(),
        };
        let mut axis_total = 0usize;
        for p in parts {
            if p.dtype() != dtype {
                return Err(TensorError::DTypeMismatch {
                    expected: dtype,
                    found: p.dtype(),
                });
            }
            if p.shape.rank() != rank {
                return Err(TensorError::BadConcat(format!(
                    "rank mismatch: {} vs {}",
                    p.shape, first.shape
                )));
            }
            for d in 0..rank {
                if d != axis && p.shape.dim(d) != first.shape.dim(d) {
                    return Err(TensorError::BadConcat(format!(
                        "dim {d} mismatch: {} vs {}",
                        p.shape, first.shape
                    )));
                }
            }
            if target.is_none() && p.quant_params() != first.quant_params() {
                return Err(TensorError::BadConcat(
                    "QUInt8 parts have different quantization parameters".into(),
                ));
            }
            axis_total += p.shape.dim(axis);
        }
        let out_shape = first.shape.with_dim(axis, axis_total);

        let dims = first.shape.dims();
        let outer: usize = dims[..axis].iter().product();
        let inner: usize = dims[axis + 1..].iter().product();

        /// Lays the parts' blocks side by side: `copy(dst, part, range)`
        /// fills `dst` from elements `range` of `part`.
        fn scatter<T: Clone>(
            parts: &[&Tensor],
            (outer, inner, axis, total): (usize, usize, usize, usize),
            zero: T,
            copy: impl Fn(&mut [T], &Tensor, Range<usize>),
        ) -> Vec<T> {
            let mut out = vec![zero; outer * total * inner];
            let mut at = 0;
            for o in 0..outer {
                for p in parts {
                    let len = p.shape.dim(axis) * inner;
                    copy(&mut out[at..at + len], p, o * len..(o + 1) * len);
                    at += len;
                }
            }
            out
        }

        let geometry = (outer, inner, axis, axis_total);
        let data = match dtype {
            DType::F32 => TensorData::F32(scatter(parts, geometry, 0.0, |dst, t, range| {
                dst.copy_from_slice(&t.as_f32().expect("checked dtype")[range])
            })),
            DType::F16 => TensorData::F16(scatter(parts, geometry, F16::ZERO, |dst, t, range| {
                dst.copy_from_slice(&t.as_f16().expect("checked dtype")[range])
            })),
            DType::QUInt8 => {
                let params = target.or(first.quant_params()).expect("QUInt8 has params");
                TensorData::QUInt8 {
                    data: scatter(parts, geometry, 0, |dst, t, range| {
                        let (src, from) = t.as_quint8().expect("checked dtype");
                        convert::quint8_to_quint8(dst, &src[range], from, params)
                    }),
                    params,
                }
            }
        };
        Tensor::new(out_shape, data)
    }

    /// Maximum absolute elementwise difference between two tensors, after
    /// materializing both as `f32`. Intended for tests and accuracy
    /// reporting.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(
            self.shape, other.shape,
            "max_abs_diff: shape mismatch {} vs {}",
            self.shape, other.shape
        );
        let a = self.to_f32_vec();
        let b = other.to_f32_vec();
        a.iter()
            .zip(&b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max)
    }

    /// True when the stored bits are identical (shape, dtype, raw values).
    pub fn bit_equal(&self, other: &Tensor) -> bool {
        if self.shape != other.shape {
            return false;
        }
        match (&self.data, &other.data) {
            (TensorData::F32(a), TensorData::F32(b)) => {
                a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (TensorData::F16(a), TensorData::F16(b)) => {
                a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (
                TensorData::QUInt8 {
                    data: a,
                    params: pa,
                },
                TensorData::QUInt8 {
                    data: b,
                    params: pb,
                },
            ) => pa == pb && a == b,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_tensor(shape: Shape) -> Tensor {
        let n = shape.numel();
        Tensor::from_f32(shape, (0..n).map(|i| i as f32).collect()).unwrap()
    }

    #[test]
    fn construction_checks_length() {
        let err = Tensor::from_f32(Shape::nchw(1, 2, 2, 2), vec![0.0; 7]).unwrap_err();
        assert!(matches!(err, TensorError::LengthMismatch { .. }));
    }

    #[test]
    fn zeros_quint8_uses_zero_point() {
        let p = QuantParams::from_range(-1.0, 1.0).unwrap();
        let t = Tensor::zeros(Shape::nchw(1, 1, 2, 2), DType::QUInt8, Some(p));
        let (q, _) = t.as_quint8().unwrap();
        assert!(q.iter().all(|&v| v == p.zero_point));
        assert!(t.to_f32_vec().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn size_bytes_tracks_dtype() {
        let s = Shape::nchw(1, 2, 3, 4);
        assert_eq!(Tensor::zeros(s.clone(), DType::F32, None).size_bytes(), 96);
        assert_eq!(Tensor::zeros(s.clone(), DType::F16, None).size_bytes(), 48);
        assert_eq!(Tensor::zeros(s, DType::QUInt8, None).size_bytes(), 24);
    }

    #[test]
    fn cast_round_trips() {
        let t = seq_tensor(Shape::nchw(1, 2, 3, 3));
        let h = t.cast(DType::F16, None).unwrap();
        assert_eq!(h.dtype(), DType::F16);
        // Small integers are exact in f16.
        assert_eq!(h.max_abs_diff(&t), 0.0);
        let q = t.cast(DType::QUInt8, None).unwrap();
        let params = q.quant_params().unwrap();
        assert!(q.max_abs_diff(&t) <= params.scale * 0.5 + 1e-5);
        let back = q.cast(DType::F32, None).unwrap();
        assert_eq!(back.dtype(), DType::F32);
    }

    #[test]
    fn cast_same_dtype_is_identity() {
        let t = seq_tensor(Shape::new(vec![5]));
        let u = t.cast(DType::F32, None).unwrap();
        assert!(t.bit_equal(&u));
    }

    #[test]
    fn cast_requantizes_when_params_change() {
        let p1 = QuantParams::from_range(0.0, 10.0).unwrap();
        let p2 = QuantParams::from_range(0.0, 20.0).unwrap();
        let t = Tensor::from_f32_quantized(Shape::new(vec![3]), &[1.0, 5.0, 9.0], p1).unwrap();
        let u = t.cast(DType::QUInt8, Some(p2)).unwrap();
        assert_eq!(u.quant_params(), Some(p2));
        assert!(u.max_abs_diff(&t) <= p2.scale + 1e-5);
    }

    #[test]
    fn slice_axis0_of_filters() {
        // OIHW [4, 2, 1, 1]: slicing output channels.
        let t = seq_tensor(Shape::oihw(4, 2, 1, 1));
        let lo = t.slice_axis(0, 0, 2).unwrap();
        let hi = t.slice_axis(0, 2, 4).unwrap();
        assert_eq!(lo.shape().dims(), &[2, 2, 1, 1]);
        assert_eq!(lo.as_f32().unwrap(), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(hi.as_f32().unwrap(), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn slice_axis1_of_activations() {
        // NCHW [1, 3, 2, 2].
        let t = seq_tensor(Shape::nchw(1, 3, 2, 2));
        let mid = t.slice_axis(1, 1, 2).unwrap();
        assert_eq!(mid.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(mid.as_f32().unwrap(), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn slice_with_batch_outer_dim() {
        // Slicing channels with n = 2 exercises the outer loop.
        let t = seq_tensor(Shape::nchw(2, 2, 1, 2));
        let c1 = t.slice_axis(1, 1, 2).unwrap();
        assert_eq!(c1.shape().dims(), &[2, 1, 1, 2]);
        assert_eq!(c1.as_f32().unwrap(), &[2.0, 3.0, 6.0, 7.0]);
    }

    #[test]
    fn slice_errors() {
        let t = seq_tensor(Shape::nchw(1, 3, 2, 2));
        assert!(matches!(
            t.slice_axis(7, 0, 1).unwrap_err(),
            TensorError::BadAxis { .. }
        ));
        assert!(matches!(
            t.slice_axis(1, 2, 5).unwrap_err(),
            TensorError::BadRange { .. }
        ));
        assert!(matches!(
            t.slice_axis(1, 2, 1).unwrap_err(),
            TensorError::BadRange { .. }
        ));
    }

    #[test]
    fn concat_inverts_slice() {
        for axis in 0..4 {
            let t = seq_tensor(Shape::nchw(2, 4, 3, 5));
            let len = t.shape().dim(axis);
            let a = t.slice_axis(axis, 0, len / 2).unwrap();
            let b = t.slice_axis(axis, len / 2, len).unwrap();
            let merged = Tensor::concat_axis(axis, &[&a, &b]).unwrap();
            assert!(merged.bit_equal(&t), "axis {axis}");
        }
    }

    #[test]
    fn concat_inverts_slice_quint8() {
        let p = QuantParams::from_range(0.0, 120.0).unwrap();
        let data: Vec<f32> = (0..24).map(|i| i as f32).collect();
        let t = Tensor::from_f32_quantized(Shape::nchw(1, 6, 2, 2), &data, p).unwrap();
        let a = t.slice_axis(1, 0, 2).unwrap();
        let b = t.slice_axis(1, 2, 6).unwrap();
        let merged = Tensor::concat_axis(1, &[&a, &b]).unwrap();
        assert!(merged.bit_equal(&t));
    }

    #[test]
    fn concat_rejects_mismatches() {
        let a = seq_tensor(Shape::nchw(1, 2, 2, 2));
        let b = seq_tensor(Shape::nchw(1, 2, 3, 2));
        assert!(Tensor::concat_axis(1, &[&a, &b]).is_err());
        let h = a.cast(DType::F16, None).unwrap();
        assert!(Tensor::concat_axis(1, &[&a, &h]).is_err());
        assert!(Tensor::concat_axis(0, &[]).is_err());
        let p1 = QuantParams::from_range(0.0, 1.0).unwrap();
        let p2 = QuantParams::from_range(0.0, 2.0).unwrap();
        let qa = a.cast(DType::QUInt8, Some(p1)).unwrap();
        let qb = a.cast(DType::QUInt8, Some(p2)).unwrap();
        assert!(Tensor::concat_axis(1, &[&qa, &qb]).is_err());
    }

    #[test]
    fn empty_slice_is_allowed() {
        let t = seq_tensor(Shape::nchw(1, 3, 2, 2));
        let empty = t.slice_axis(1, 1, 1).unwrap();
        assert_eq!(empty.numel(), 0);
    }

    #[test]
    fn max_abs_diff_basics() {
        let a = Tensor::from_f32(Shape::new(vec![3]), vec![1.0, 2.0, 3.0]).unwrap();
        let b = Tensor::from_f32(Shape::new(vec![3]), vec![1.0, 2.5, 2.0]).unwrap();
        assert_eq!(a.max_abs_diff(&b), 1.0);
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }
}
