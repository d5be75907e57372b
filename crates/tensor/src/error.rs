//! Error type for tensor operations.

use std::fmt;

use crate::dtype::DType;
use crate::shape::Shape;

/// Errors produced by tensor construction and manipulation.
#[derive(Clone, Debug, PartialEq)]
pub enum TensorError {
    /// The element count does not match the shape.
    LengthMismatch {
        /// Shape the caller requested.
        shape: Shape,
        /// Number of elements actually provided.
        len: usize,
    },
    /// Two shapes that must agree do not.
    ShapeMismatch {
        /// Expected shape.
        expected: Shape,
        /// Shape found.
        found: Shape,
    },
    /// An operation received a tensor of the wrong data type.
    DTypeMismatch {
        /// Expected data type.
        expected: DType,
        /// Data type found.
        found: DType,
    },
    /// An axis index is out of range for the tensor's rank.
    BadAxis {
        /// The offending axis.
        axis: usize,
        /// The tensor's rank.
        rank: usize,
    },
    /// A slice range `[start, end)` is invalid for the axis length.
    BadRange {
        /// Range start.
        start: usize,
        /// Range end.
        end: usize,
        /// Axis length.
        len: usize,
    },
    /// A view cut along `axis` would need strides: a dimension before
    /// `axis` is not 1 (a batch larger than one) and the cut is not the
    /// whole axis.
    Strided {
        /// The viewed shape.
        shape: Shape,
        /// The axis cut.
        axis: usize,
    },
    /// Concatenation received no inputs or inputs with incompatible shapes.
    BadConcat(String),
    /// Quantization parameters are invalid (non-finite or non-positive
    /// scale).
    BadQuantParams(String),
    /// A graph structure is invalid (non-topological wiring, dangling
    /// output, malformed pass rewrite).
    BadGraph(String),
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::LengthMismatch { shape, len } => {
                write!(
                    f,
                    "shape {shape} needs {} elements, got {len}",
                    shape.numel()
                )
            }
            TensorError::ShapeMismatch { expected, found } => {
                write!(f, "shape mismatch: expected {expected}, found {found}")
            }
            TensorError::DTypeMismatch { expected, found } => {
                write!(f, "dtype mismatch: expected {expected}, found {found}")
            }
            TensorError::BadAxis { axis, rank } => {
                write!(f, "axis {axis} out of range for rank {rank}")
            }
            TensorError::BadRange { start, end, len } => {
                write!(f, "range {start}..{end} invalid for axis of length {len}")
            }
            TensorError::Strided { shape, axis } => {
                write!(f, "cutting axis {axis} of {shape} needs strides")
            }
            TensorError::BadConcat(msg) => write!(f, "bad concat: {msg}"),
            TensorError::BadQuantParams(msg) => write!(f, "bad quantization params: {msg}"),
            TensorError::BadGraph(msg) => write!(f, "bad graph: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {}
