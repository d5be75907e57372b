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
//! composed by the executor from these primitives: a QUInt8→F16 cast, the
//! F16 kernel, and an F16→QUInt8 cast.
//!
//! Every layer has one route on every thread: convolutions ([`conv2d`],
//! [`pointwise_conv2d`]) and FC layers ([`fully_connected`]) run the
//! cache-blocked GEMMs ([`gemm_f32_blocked`], [`gemm_f16_blocked`],
//! [`gemm_quint8_blocked`]; [`im2col`] first, except for 1×1 stride-1
//! unpadded layers, which feed the input plane straight in), depthwise
//! layers their direct kernel ([`depthwise_conv2d`]). The only
//! per-thread choice is the register tiles ([`set_kernel_path`]: scalar,
//! or the host's [`SimdTier`]), and those are bit-identical. The test
//! suites hold every kernel to the naive loops kept as oracles in
//! `tests/common` — bit for bit in all three dtypes.

#![warn(unreachable_pub)]

mod activation;
mod arena;
mod blocked;
mod conv;
mod depthwise;
mod dispatch;
mod eltwise;
mod fc;
mod im2col;
mod norm;
mod pointwise;
mod pool;
mod simd;

use utensor::TensorError;

pub use activation::{argmax, fake_quant, relu, softmax_f32};
pub use arena::{thread_arena_capacity_bytes, ScratchArena};
pub use blocked::{gemm_f16_blocked, gemm_f32_blocked, gemm_quint8_blocked, KC, MR, NR};
pub use conv::{conv2d, Conv2dParams};
pub use depthwise::depthwise_conv2d;
pub use dispatch::{registered_fast_paths, set_kernel_path, KernelPath, PathChoice};
pub use eltwise::{add, add_fused};
pub use fc::fully_connected;
pub use im2col::im2col;
pub use norm::{lrn, LrnParams};
pub use pointwise::pointwise_conv2d;
pub use pool::{global_avg_pool, pool2d, PoolKind, PoolParams};
pub use simd::{cpu_features, simd_available, simd_tier, SimdTier};

// The unit tests mount the oracles of `tests/common`, which name this
// crate the way the integration tests do.
#[cfg(test)]
extern crate self as ukernels;
#[cfg(test)]
mod gemm;
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod oracle;

/// Float kernels take no output quantization: an error naming `op` if
/// `out_params` is given.
fn float_out(out_params: Option<utensor::QuantParams>, op: &str) -> Result<(), TensorError> {
    match out_params {
        Some(_) => Err(TensorError::BadQuantParams(format!(
            "out_params given for a float {op}"
        ))),
        None => Ok(()),
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
