//! Borrowed tensor views: the operands and outputs of every layer kernel.
//!
//! A [`TensorView`] is a shape plus a dtype-tagged slice, a
//! [`TensorViewMut`] the same over a mutable slice. Kernels read views
//! and write into the caller's view, so the caller owns every buffer:
//! μLayer's executor (§6) allocates a layer's output once and each
//! processor writes its disjoint output channels (§3.2) straight into
//! it.
//!
//! For a batch-1 NCHW tensor a channel range is one contiguous slice, so
//! views need no strides: [`TensorView::narrow`] and
//! [`TensorViewMut::split_ranges`] cut along an axis whose leading
//! dimensions are all 1, and return [`TensorError::Strided`] for any
//! other cut (a range covering the whole axis is the whole buffer and is
//! always allowed). Both fields are public; a view built by hand must
//! keep the slice's length equal to `shape.numel()`, since kernels index
//! by the shape.

use std::ops::Range;

use crate::convert;
use crate::dtype::DType;
use crate::error::TensorError;
use crate::f16::F16;
use crate::quant::QuantParams;
use crate::shape::Shape;

/// The elements of a [`TensorView`].
#[derive(Clone, Copy, Debug)]
pub enum ViewData<'a> {
    /// 32-bit floats.
    F32(&'a [f32]),
    /// Software half-precision floats.
    F16(&'a [F16]),
    /// 8-bit affine-quantized codes with their parameters.
    QUInt8(&'a [u8], QuantParams),
}

/// The elements of a [`TensorViewMut`]; a `QUInt8` output's parameters
/// are the grid its kernel writes codes on.
#[derive(Debug)]
pub enum ViewDataMut<'a> {
    /// 32-bit floats.
    F32(&'a mut [f32]),
    /// Software half-precision floats.
    F16(&'a mut [F16]),
    /// 8-bit affine-quantized codes with their parameters.
    QUInt8(&'a mut [u8], QuantParams),
}

/// A borrowed, read-only tensor.
#[derive(Clone, Debug)]
pub struct TensorView<'a> {
    /// The viewed tensor's shape.
    pub shape: Shape,
    /// The viewed elements, `shape.numel()` of them.
    pub data: ViewData<'a>,
}

/// A borrowed, writable tensor: where a kernel puts its output.
#[derive(Debug)]
pub struct TensorViewMut<'a> {
    /// The viewed tensor's shape.
    pub shape: Shape,
    /// The viewed elements, `shape.numel()` of them.
    pub data: ViewDataMut<'a>,
}

/// The element range of `range` along `axis` of `shape`, when it is one
/// contiguous run of the buffer.
fn span(shape: &Shape, axis: usize, range: &Range<usize>) -> Result<Range<usize>, TensorError> {
    let rank = shape.rank();
    if axis >= rank {
        return Err(TensorError::BadAxis { axis, rank });
    }
    let len = shape.dim(axis);
    if range.start > range.end || range.end > len {
        return Err(TensorError::BadRange {
            start: range.start,
            end: range.end,
            len,
        });
    }
    let dims = shape.dims();
    let inner: usize = dims[axis + 1..].iter().product();
    if *range == (0..len) {
        Ok(0..shape.numel())
    } else if dims[..axis].iter().product::<usize>() == 1 {
        Ok(range.start * inner..range.end * inner)
    } else {
        Err(TensorError::Strided {
            shape: shape.clone(),
            axis,
        })
    }
}

impl<'a> TensorView<'a> {
    /// The viewed element type.
    pub fn dtype(&self) -> DType {
        match self.data {
            ViewData::F32(_) => DType::F32,
            ViewData::F16(_) => DType::F16,
            ViewData::QUInt8(..) => DType::QUInt8,
        }
    }

    /// The sub-view `range` along `axis`, without copying: filter rows
    /// along axis 0, batch-1 activation channels along axis 1.
    pub fn narrow(&self, axis: usize, range: Range<usize>) -> Result<TensorView<'a>, TensorError> {
        let at = span(&self.shape, axis, &range)?;
        Ok(TensorView {
            shape: self.shape.with_dim(axis, range.len()),
            data: match self.data {
                ViewData::F32(v) => ViewData::F32(&v[at]),
                ViewData::F16(v) => ViewData::F16(&v[at]),
                ViewData::QUInt8(v, p) => ViewData::QUInt8(&v[at], p),
            },
        })
    }
}

/// The disjoint, ascending element `spans` of `v`, borrowed apart.
fn carve<'s, T>(mut v: &'s mut [T], spans: &[Range<usize>]) -> Vec<&'s mut [T]> {
    let mut at = 0;
    let mut carve = |span: &Range<usize>| {
        let (_, rest) = std::mem::take(&mut v).split_at_mut(span.start - at);
        let (piece, rest) = rest.split_at_mut(span.len());
        (v, at) = (rest, span.end);
        piece
    };
    spans.iter().map(&mut carve).collect()
}

impl TensorViewMut<'_> {
    /// The viewed element type.
    pub fn dtype(&self) -> DType {
        match self.data {
            ViewDataMut::F32(_) => DType::F32,
            ViewDataMut::F16(_) => DType::F16,
            ViewDataMut::QUInt8(..) => DType::QUInt8,
        }
    }

    /// Splits the view into disjoint writable views of `ranges` along
    /// `axis` (ascending and non-overlapping; gaps between them are left
    /// out), the `split_at_mut` of views: each part of a layer, and each
    /// worker chunk of a part, writes its own channel range of the
    /// layer's output.
    pub fn split_ranges(
        &mut self,
        axis: usize,
        ranges: &[Range<usize>],
    ) -> Result<Vec<TensorViewMut<'_>>, TensorError> {
        let spans = ranges
            .iter()
            .map(|r| span(&self.shape, axis, r))
            .collect::<Result<Vec<_>, _>>()?;
        if let Some(i) = spans.windows(2).position(|w| w[1].start < w[0].end) {
            let (start, end) = (ranges[i + 1].start, ranges[i + 1].end);
            let len = self.shape.dim(axis);
            return Err(TensorError::BadRange { start, end, len });
        }
        let data: Vec<ViewDataMut<'_>> = match &mut self.data {
            ViewDataMut::F32(v) => carve(v, &spans).into_iter().map(ViewDataMut::F32).collect(),
            ViewDataMut::F16(v) => carve(v, &spans).into_iter().map(ViewDataMut::F16).collect(),
            ViewDataMut::QUInt8(v, p) => {
                let p = *p;
                carve(v, &spans)
                    .into_iter()
                    .map(|v| ViewDataMut::QUInt8(v, p))
                    .collect()
            }
        };
        let shapes = ranges.iter().map(|r| self.shape.with_dim(axis, r.len()));
        Ok(shapes
            .zip(data)
            .map(|(shape, data)| TensorViewMut { shape, data })
            .collect())
    }

    /// Writes `src` into this view, converting each element to the
    /// view's dtype (onto its grid, for `QUInt8`) through the exact
    /// [`crate::convert`] functions; a plain copy when the two already
    /// agree. Shapes must be equal.
    pub fn convert_from(&mut self, src: &TensorView<'_>) -> Result<(), TensorError> {
        if src.shape != self.shape {
            return Err(TensorError::ShapeMismatch {
                expected: self.shape.clone(),
                found: src.shape.clone(),
            });
        }
        match (&mut self.data, src.data) {
            (ViewDataMut::F32(o), ViewData::F32(s)) => o.copy_from_slice(s),
            (ViewDataMut::F32(o), ViewData::F16(s)) => convert::f16_to_f32(o, s),
            (ViewDataMut::F32(o), ViewData::QUInt8(s, p)) => convert::quint8_to_f32(o, s, p),
            (ViewDataMut::F16(o), ViewData::F32(s)) => convert::f32_to_f16(o, s),
            (ViewDataMut::F16(o), ViewData::F16(s)) => o.copy_from_slice(s),
            (ViewDataMut::F16(o), ViewData::QUInt8(s, p)) => convert::quint8_to_f16(o, s, p),
            (ViewDataMut::QUInt8(o, to), ViewData::F32(s)) => convert::f32_to_quint8(o, s, *to),
            (ViewDataMut::QUInt8(o, to), ViewData::F16(s)) => convert::f16_to_quint8(o, s, *to),
            (ViewDataMut::QUInt8(o, to), ViewData::QUInt8(s, from)) => {
                convert::quint8_to_quint8(o, s, from, *to)
            }
        }
        Ok(())
    }
}
