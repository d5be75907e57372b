//! Allocating forms of the layer kernels, for the tests only.
//!
//! The library's kernels write into a caller's view; these wrappers
//! allocate the output a test expects and run the kernel into it, so the
//! differential tests read as `want == got` over owned tensors. Output
//! rules of the GEMM-style kernels: `out_params: Some(p)` asks for a
//! `QUInt8` output on grid `p`; `None` for the input's float dtype, or
//! `F32` for a `QUInt8` input — which the kernel refuses, as it refuses a
//! `QUInt8` output from float operands. A shape the wrapper cannot infer
//! (a window that does not fit, a wrong rank) allocates an empty output
//! and leaves the geometry error to the kernel.

use ukernels::{out_dim, Conv2dParams, LrnParams, PoolParams};
use utensor::{DType, QuantParams, Shape, Tensor, TensorError, TensorViewMut};

/// Runs `kernel` into a fresh `shape` tensor of `dtype` (an empty one
/// when `shape` is `None`).
fn alloc(
    shape: Option<Shape>,
    (dtype, params): (DType, Option<QuantParams>),
    kernel: impl FnOnce(&mut TensorViewMut<'_>) -> Result<(), TensorError>,
) -> Result<Tensor, TensorError> {
    let mut out = Tensor::zeros(shape.unwrap_or_else(|| Shape::new(vec![0])), dtype, params);
    kernel(&mut out.view_mut())?;
    Ok(out)
}

/// The output type of a GEMM-style kernel under the rules above.
fn gemm_out(input: &Tensor, out_params: Option<QuantParams>) -> (DType, Option<QuantParams>) {
    match (out_params, input.dtype()) {
        (Some(p), _) => (DType::QUInt8, Some(p)),
        (None, DType::QUInt8) => (DType::F32, None),
        (None, dtype) => (dtype, None),
    }
}

/// `[n, c, oh, ow]` of a `kh × kw` window over an NCHW input.
fn windowed(
    input: &Shape,
    c: usize,
    (kh, kw): (usize, usize),
    stride: usize,
    pad: usize,
) -> Option<Shape> {
    let &[n, _, h, w] = input.dims() else {
        return None;
    };
    Some(Shape::nchw(
        n,
        c,
        out_dim(h, kh, stride, pad)?,
        out_dim(w, kw, stride, pad)?,
    ))
}

/// The input's own type, for kernels that keep it.
fn same_type(t: &Tensor) -> (DType, Option<QuantParams>) {
    (t.dtype(), t.quant_params())
}

pub(crate) fn conv2d(
    input: &Tensor,
    filters: &Tensor,
    bias: Option<&[f32]>,
    p: &Conv2dParams,
    out_params: Option<QuantParams>,
) -> Result<Tensor, TensorError> {
    let f = filters.shape();
    let shape = (f.rank() == 4)
        .then(|| {
            windowed(
                input.shape(),
                f.dim(0),
                (f.dim(2), f.dim(3)),
                p.stride,
                p.pad,
            )
        })
        .flatten();
    alloc(shape, gemm_out(input, out_params), |out| {
        ukernels::conv2d(&input.view(), &filters.view(), bias, p, out)
    })
}

pub(crate) fn depthwise_conv2d(
    input: &Tensor,
    filters: &Tensor,
    bias: Option<&[f32]>,
    p: &Conv2dParams,
    out_params: Option<QuantParams>,
) -> Result<Tensor, TensorError> {
    let f = filters.shape();
    let shape = (f.rank() == 4 && input.shape().rank() == 4)
        .then(|| {
            let c = input.shape().c();
            windowed(input.shape(), c, (f.dim(2), f.dim(3)), p.stride, p.pad)
        })
        .flatten();
    alloc(shape, gemm_out(input, out_params), |out| {
        ukernels::depthwise_conv2d(&input.view(), &filters.view(), bias, p, out)
    })
}

pub(crate) fn fully_connected(
    input: &Tensor,
    weights: &Tensor,
    bias: Option<&[f32]>,
    relu: bool,
    out_params: Option<QuantParams>,
) -> Result<Tensor, TensorError> {
    let n = input.shape().dims().first().copied().unwrap_or(1);
    let shape = Shape::nchw(n, weights.shape().dims()[0], 1, 1);
    alloc(Some(shape), gemm_out(input, out_params), |out| {
        ukernels::fully_connected(&input.view(), &weights.view(), bias, relu, out)
    })
}

pub(crate) fn pool2d(input: &Tensor, p: &PoolParams) -> Result<Tensor, TensorError> {
    let c = input.shape().dims().get(1).copied().unwrap_or(0);
    alloc(
        windowed(input.shape(), c, (p.k, p.k), p.stride, p.pad),
        same_type(input),
        |out| ukernels::pool2d(&input.view(), p, out),
    )
}

pub(crate) fn global_avg_pool(input: &Tensor) -> Result<Tensor, TensorError> {
    let shape = match input.shape().dims() {
        &[n, c, _, _] => Some(Shape::nchw(n, c, 1, 1)),
        _ => None,
    };
    alloc(shape, same_type(input), |out| {
        ukernels::global_avg_pool(&input.view(), out)
    })
}

pub(crate) fn lrn(input: &Tensor, p: &LrnParams) -> Result<Tensor, TensorError> {
    alloc(Some(input.shape().clone()), same_type(input), |out| {
        ukernels::lrn(&input.view(), p, out)
    })
}

pub(crate) fn relu(input: &Tensor) -> Result<Tensor, TensorError> {
    alloc(Some(input.shape().clone()), same_type(input), |out| {
        ukernels::relu(&input.view(), out)
    })
}

pub(crate) fn add_fused(
    a: &Tensor,
    b: &Tensor,
    out_params: Option<QuantParams>,
    relu: bool,
) -> Result<Tensor, TensorError> {
    alloc(Some(a.shape().clone()), gemm_out(a, out_params), |out| {
        ukernels::add_fused(&a.view(), &b.view(), relu, out)
    })
}

pub(crate) fn add(
    a: &Tensor,
    b: &Tensor,
    out_params: Option<QuantParams>,
) -> Result<Tensor, TensorError> {
    add_fused(a, b, out_params, false)
}

/// The in-place softmax on a copy of `logits`.
pub(crate) fn softmax_f32(logits: &[f32]) -> Vec<f32> {
    let mut probs = logits.to_vec();
    ukernels::softmax_f32(&mut probs);
    probs
}
