//! Functional NN compute kernels for the μLayer reproduction.
//!
//! These kernels stand in for ARM Compute Library's NEON/OpenCL kernels and
//! for gemmlowp (§6 of the paper): they compute *real numerics* for every
//! layer type the five evaluated networks need, in all three data types of
//! processor-friendly quantization (§4):
//!
//! - **F32** — the unoptimized baseline.
//! - **F16** — every arithmetic operation rounds to binary16, as on a Mali
//!   GPU's `half` ALUs.
//! - **QUInt8** — u8×u8→i32 GEMM with gemmlowp-style fixed-point
//!   requantization, as on NEON vector ALUs.
//!
//! The GPU path of processor-friendly quantization (load QUInt8,
//! dequantize on the fly, compute in F16, requantize the output) is
//! composed by the executor from these primitives: a QUInt8→F16 load, the
//! F16 kernel, and an F16→QUInt8 store into the part's output range.
//!
//! Every layer kernel reads [`utensor::TensorView`]s and writes into the
//! caller's [`utensor::TensorViewMut`], whose shape, dtype and — for
//! `QUInt8` — quantization grid are the output's: the caller owns every
//! buffer, so a split part writes its channel range of the layer's
//! output in place. Kernels check the output view and return a typed
//! error; none allocates its output.
//!
//! Every layer has one route on every thread: convolutions ([`conv2d`])
//! and FC layers ([`fully_connected`]) share one GEMM-layer body over the
//! cache-blocked GEMMs ([`gemm_f32_blocked`], [`gemm_f16_blocked`],
//! [`gemm_quint8_blocked`]), implicit over a convolution's padded
//! stride-phase planes — laid out once per call, each `B` row a run of
//! them, no patch matrix built — and reading a 1×1 stride-1 unpadded
//! layer's plane, or an FC layer's input, as the matrix itself;
//! depthwise layers run their direct kernel over the same phase planes
//! ([`depthwise_conv2d`]). The only
//! per-thread choice is the register tiles: the thread's tier cap
//! ([`set_kernel_path`]), one [`SimdTier`] from the scalar tiles
//! ([`SimdTier::None`]) up to the host's widest ([`simd_tier`]), which
//! every kernel decision reads. Every tier is bit-identical, and every
//! tier the host has runs in the test suites, which hold every kernel to
//! the naive loops kept as oracles in `tests/common` — bit for bit in
//! all three dtypes.

#![warn(unreachable_pub)]

mod activation;
mod arena;
mod blocked;
mod conv;
mod depthwise;
mod dispatch;
mod eltwise;
mod fc;
mod norm;
mod pointwise;
mod pool;
mod simd;

use utensor::{DType, Shape, TensorError, TensorViewMut};

pub use activation::{argmax, relu, softmax_f32};
pub use arena::{thread_arena_capacity_bytes, ScratchArena};
pub use blocked::{gemm_f16_blocked, gemm_f32_blocked, gemm_quint8_blocked, KC, MR, NR};
pub use conv::{conv2d, Conv2dParams};
pub use depthwise::depthwise_conv2d;
pub use dispatch::{registered_fast_paths, set_kernel_path, PathChoice, KERNEL_PATHS};
pub use eltwise::add_fused;
pub use fc::fully_connected;
pub use norm::{lrn, LrnParams};
pub use pool::{global_avg_pool, pool2d, PoolKind, PoolParams};
pub use simd::{cpu_features, simd_tier, SimdTier};

// The unit tests mount the oracles of `tests/common`, which name this
// crate the way the integration tests do.
#[cfg(test)]
extern crate self as ukernels;
#[cfg(test)]
mod gemm;
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod oracle;

/// Checks that a kernel's output view has the shape it computes.
fn expect_out(out: &TensorViewMut<'_>, shape: &Shape) -> Result<(), TensorError> {
    if out.shape != *shape {
        return Err(TensorError::ShapeMismatch {
            expected: shape.clone(),
            found: out.shape.clone(),
        });
    }
    Ok(())
}

/// The error for operands and an output a kernel cannot combine: the
/// first dtype of `dtypes` that differs from the first one — or, all of
/// them alike, a `QUInt8` output off the grid the kernel writes.
fn mismatch(dtypes: &[DType]) -> TensorError {
    match dtypes.iter().find(|&&d| d != dtypes[0]) {
        Some(&found) => TensorError::DTypeMismatch {
            expected: dtypes[0],
            found,
        },
        None => TensorError::BadQuantParams("QUInt8 output off the kernel's grid".into()),
    }
}

/// Checks a per-channel bias against the channel count.
fn check_bias(bias: Option<&[f32]>, channels: usize) -> Result<(), TensorError> {
    match bias {
        Some(b) if b.len() != channels => Err(TensorError::LengthMismatch {
            shape: Shape::new(vec![channels]),
            len: b.len(),
        }),
        _ => Ok(()),
    }
}

/// Computes the output spatial dimension of a sliding-window op.
///
/// `floor((in + 2*pad - k) / stride) + 1`; returns `None` when the window
/// does not fit or the stride is zero.
pub fn out_dim(input: usize, k: usize, stride: usize, pad: usize) -> Option<usize> {
    let padded = input + 2 * pad;
    if padded < k || stride == 0 {
        return None;
    }
    Some((padded - k) / stride + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_dim_basics() {
        assert_eq!(out_dim(224, 3, 1, 1), Some(224));
        assert_eq!(out_dim(224, 11, 4, 2), Some(55));
        assert_eq!(out_dim(28, 3, 2, 0), Some(13));
        assert_eq!(out_dim(2, 5, 1, 0), None);
        assert_eq!(out_dim(8, 2, 0, 0), None);
        assert_eq!(out_dim(1, 1, 1, 0), Some(1));
    }
}
