//! Tensors and numeric types for the μLayer reproduction.
//!
//! The paper's processor-friendly quantization (§4) relies on three data
//! types: 32-bit floats (`F32`, the NN default), 16-bit half-precision
//! floats (`F16`, the GPU's fast path), and 8-bit linearly-quantized
//! unsigned integers (`QUInt8`, the CPU's fast path, per Jacob et al. /
//! gemmlowp). The target host has no half-precision hardware and no
//! gemmlowp, so this crate implements both from scratch:
//!
//! - [`F16`] — a bit-accurate software IEEE 754 binary16 with
//!   round-to-nearest-even conversions and per-operation rounding, exactly
//!   what a Mali GPU's `half` ALU produces.
//! - [`QuantParams`] / [`requantize`] — asymmetric affine quantization
//!   (`real = scale * (q - zero_point)`), including the gemmlowp-style
//!   fixed-point **requantization** pipeline (§4.1) that converts i32
//!   accumulators back to 8-bit outputs using an integer multiplier and a
//!   rounding right shift.
//! - [`Tensor`] — an NCHW dense tensor over any of the three types, with
//!   the axis slicing/concatenation the channel-wise workload distribution
//!   (§3.2) needs.
//! - [`f32_to_f16`], [`quint8_to_f32`], … — the exact slice converters
//!   between the three types (tables for 8-bit sources, AVX2 / F16C
//!   bodies for the rest) that every cast, concat and GEMM pack goes
//!   through.

#![warn(unreachable_pub)]

mod convert;
mod dtype;
mod error;
mod f16;
mod quant;
mod shape;
mod tensor;

pub use convert::{
    convert_simd_available, f16_to_f32, f16_to_quint8, f32_to_f16, f32_to_quint8, quint8_to_f16,
    quint8_to_f32, quint8_to_quint8,
};
pub use dtype::DType;
pub use error::TensorError;
pub use f16::{f16_bits_to_f32, f32_to_f16_bits, F16};
pub use quant::{
    requantize, requantize_into, requantize_simd_available, saturating_rounding_doubling_high_mul,
    FixedPointMultiplier, QuantParams,
};
pub use shape::Shape;
pub use tensor::{Tensor, TensorData};

/// Convenience alias for fallible tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;
