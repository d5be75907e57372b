//! Reference (single-host) graph execution and range calibration.
//!
//! [`run_layer_into`] is the single entry point that maps a
//! [`LayerKind`] onto the compute kernels, writing into the caller's
//! output view; both this module's whole-graph [`forward`] (through
//! [`run_layer`], the one allocating form) and the device executors in
//! the runtime crates (writing each part into its channel range of the
//! layer's output) go through it, so the numerics of every execution
//! mechanism are identical by construction.

use utensor::ViewDataMut;
use utensor::{DType, QuantParams, Shape, Tensor, TensorError, TensorView, TensorViewMut};

use crate::graph::{Graph, NodeId};
use crate::layer::{LayerKind, PoolFunc};
use crate::weights::{Calibration, Weights};

/// Executes one layer on already-prepared inputs and weights into a
/// freshly allocated output — the one allocating form of
/// [`run_layer_into`]: it infers the output's shape from the operands
/// (a row-sliced filter gives fewer output channels) and its type from
/// the layer, allocates it, and runs the layer into it.
///
/// `filter`/`bias` must be present exactly when the layer has weights,
/// and `filter` must already be in the input's dtype. `out_params` is
/// required for QUInt8 execution of conv / FC / add / concat (the §4.2
/// pre-trained output range) and ignored otherwise: pooling, ReLU and
/// LRN keep their input's grid, a quantize layer stores on its own, and
/// softmax always produces f32 probabilities.
pub fn run_layer(
    kind: &LayerKind,
    inputs: &[&Tensor],
    filter: Option<&Tensor>,
    bias: Option<&[f32]>,
    out_params: Option<QuantParams>,
) -> Result<Tensor, TensorError> {
    let x = inputs
        .first()
        .ok_or_else(|| TensorError::BadConcat(format!("{} got no inputs", kind.op_name())))?;
    let shapes: Vec<&Shape> = inputs.iter().map(|t| t.shape()).collect();
    let mut shape = kind.infer_shape(&shapes)?;
    if let (LayerKind::Conv { .. } | LayerKind::FullyConnected { .. }, Some(f)) = (kind, filter) {
        shape = shape.with_dim(1, f.shape().dims().first().copied().unwrap_or(0));
    }
    let (dtype, params) = match kind {
        LayerKind::Softmax => (DType::F32, None),
        LayerKind::Pool { .. }
        | LayerKind::GlobalAvgPool
        | LayerKind::Relu
        | LayerKind::Lrn { .. } => (x.dtype(), x.quant_params()),
        _ if x.dtype() == DType::QUInt8 => (
            DType::QUInt8,
            Some(out_params.ok_or_else(|| {
                TensorError::BadQuantParams(format!(
                    "QUInt8 {} needs output quantization params",
                    kind.op_name()
                ))
            })?),
        ),
        _ => (x.dtype(), None),
    };
    let mut out = Tensor::zeros(shape, dtype, params);
    let views: Vec<TensorView<'_>> = inputs.iter().map(|t| t.view()).collect();
    let filter = filter.map(Tensor::view);
    run_layer_into(kind, &views, filter.as_ref(), bias, &mut out.view_mut())?;
    Ok(out)
}

/// Executes one layer into `out`, whose shape, dtype and — for QUInt8 —
/// grid are the output's: a whole layer's output, or one part's channel
/// range of it with the part's filter rows (and, for layers split by
/// input channels, its input channels) already narrowed.
///
/// `filter`/`bias` must be present exactly when the layer has weights,
/// and `filter` must already be in the input's dtype.
pub fn run_layer_into(
    kind: &LayerKind,
    inputs: &[TensorView<'_>],
    filter: Option<&TensorView<'_>>,
    bias: Option<&[f32]>,
    out: &mut TensorViewMut<'_>,
) -> Result<(), TensorError> {
    let x = inputs
        .first()
        .ok_or_else(|| TensorError::BadConcat(format!("{} got no inputs", kind.op_name())))?;
    let need_filter = || -> Result<&TensorView<'_>, TensorError> {
        let f = filter.ok_or_else(|| {
            TensorError::BadConcat(format!("{} is missing its filter tensor", kind.op_name()))
        })?;
        // The filter must match the layer's declared geometry — weights
        // from a different model must not silently change the layer.
        if let Some(expected) = kind.weight_shape(&x.shape) {
            // Channel-split parts carry a row-sliced filter: dim 0 may be
            // any value up to the declared output-channel count, but all
            // inner dimensions must match exactly.
            let fs = &f.shape;
            let rank_ok = fs.rank() == expected.rank();
            let inner_ok = rank_ok
                && (1..expected.rank()).all(|d| fs.dim(d) == expected.dim(d))
                && fs.dim(0) <= expected.dim(0);
            if !inner_ok {
                return Err(TensorError::ShapeMismatch {
                    expected,
                    found: fs.clone(),
                });
            }
        }
        Ok(f)
    };
    let conv = |stride: usize, pad: usize, relu: bool| ukernels::Conv2dParams { stride, pad, relu };
    match kind {
        LayerKind::Conv {
            stride, pad, relu, ..
        } => ukernels::conv2d(x, need_filter()?, bias, &conv(*stride, *pad, *relu), out),
        LayerKind::DepthwiseConv {
            stride, pad, relu, ..
        } => {
            let p = conv(*stride, *pad, *relu);
            ukernels::depthwise_conv2d(x, need_filter()?, bias, &p, out)
        }
        LayerKind::FullyConnected { relu, .. } => {
            ukernels::fully_connected(x, need_filter()?, bias, *relu, out)
        }
        LayerKind::Pool {
            func,
            k,
            stride,
            pad,
        } => {
            let kind = match func {
                PoolFunc::Max => ukernels::PoolKind::Max,
                PoolFunc::Avg => ukernels::PoolKind::Avg,
            };
            let (k, stride, pad) = (*k, *stride, *pad);
            ukernels::pool2d(
                x,
                &ukernels::PoolParams {
                    kind,
                    k,
                    stride,
                    pad,
                },
                out,
            )
        }
        LayerKind::GlobalAvgPool => ukernels::global_avg_pool(x, out),
        LayerKind::Lrn { n, alpha, beta, k } => {
            let (n, alpha, beta, k) = (*n, *alpha, *beta, *k);
            ukernels::lrn(x, &ukernels::LrnParams { n, alpha, beta, k }, out)
        }
        LayerKind::Relu => ukernels::relu(x, out),
        LayerKind::Concat => {
            // Each branch lands in its channel range of the output. QUInt8
            // branches carry different ranges; each is brought onto the
            // concat's own output range (the TFLite approach) as its codes
            // are copied into place.
            let mut ranges: Vec<std::ops::Range<usize>> = Vec::with_capacity(inputs.len());
            for t in inputs {
                let at = ranges.last().map_or(0, |r| r.end);
                ranges.push(at..at + t.shape.dims().get(1).copied().unwrap_or(0));
            }
            if ranges.last().map(|r| r.end) != out.shape.dims().get(1).copied() {
                return Err(TensorError::BadConcat(format!(
                    "concat inputs do not fill the {} output",
                    out.shape
                )));
            }
            for (t, mut piece) in inputs.iter().zip(out.split_ranges(1, &ranges)?) {
                if t.dtype() != piece.dtype() {
                    let (expected, found) = (piece.dtype(), t.dtype());
                    return Err(TensorError::DTypeMismatch { expected, found });
                }
                piece.convert_from(t)?;
            }
            Ok(())
        }
        LayerKind::Add { relu } => match inputs {
            [a, b] => ukernels::add_fused(a, b, *relu, out),
            _ => Err(TensorError::BadConcat(format!(
                "add expects 2 inputs, got {}",
                inputs.len()
            ))),
        },
        LayerKind::Softmax => {
            // Classifier head: always f32 probabilities, one softmax per
            // batch row of the widened logits.
            out.convert_from(x)?;
            let rows = out.shape.dims().first().map_or(1, |&n| n.max(1));
            let found = out.dtype();
            let ViewDataMut::F32(probs) = &mut out.data else {
                let expected = DType::F32;
                return Err(TensorError::DTypeMismatch { expected, found });
            };
            let per = (probs.len() / rows).max(1);
            probs.chunks_mut(per).for_each(ukernels::softmax_f32);
            Ok(())
        }
    }
}

/// Prepares a node's filter in the dtype the executing processor wants.
///
/// Mirrors §6: the f32 master is narrowed to F16 for GPU upload or
/// quantized with the calibrated weight range for the CPU.
pub(crate) fn filter_for_dtype(
    weights: &Weights,
    calib: &Calibration,
    id: NodeId,
    dtype: DType,
) -> Result<Option<Tensor>, TensorError> {
    match &weights.of(id).filter {
        None => Ok(None),
        Some(f) => Ok(Some(f.cast(dtype, calib.weight_params[id.0])?)),
    }
}

/// Runs the whole graph in `dtype`, returning every node's output.
///
/// - `F32` — the float reference.
/// - `F16` — all arithmetic in binary16.
/// - `QUInt8` — the 8-bit linear-quantized network, using the calibrated
///   ranges for every activation (requires `calib`).
pub fn forward(
    graph: &Graph,
    weights: &Weights,
    calib: &Calibration,
    input: &Tensor,
    dtype: DType,
) -> Result<Vec<Tensor>, TensorError> {
    let x = input.cast(dtype, Some(calib.input_params))?;
    let mut outputs: Vec<Tensor> = Vec::with_capacity(graph.len());
    for (i, node) in graph.nodes().iter().enumerate() {
        let id = NodeId(i);
        let inputs: Vec<&Tensor> = if node.inputs.is_empty() {
            vec![&x]
        } else {
            node.inputs.iter().map(|d| &outputs[d.0]).collect()
        };
        let filter = filter_for_dtype(weights, calib, id, dtype)?;
        let out = run_layer(
            &node.kind,
            &inputs,
            filter.as_ref(),
            weights.of(id).bias.as_deref(),
            Some(calib.act_params[i]),
        )?;
        outputs.push(out);
    }
    Ok(outputs)
}

/// Runs the f32 reference over `samples` and derives [`Calibration`] from
/// the observed per-node output ranges — the reproduction's analogue of
/// TensorFlow's fake-quantization range learning (§4.3).
pub fn calibrate(
    graph: &Graph,
    weights: &Weights,
    samples: &[Tensor],
) -> Result<Calibration, TensorError> {
    if samples.is_empty() {
        return Err(TensorError::BadConcat("calibration needs samples".into()));
    }
    let mut input_range = (f32::MAX, f32::MIN);
    let mut ranges = vec![(f32::MAX, f32::MIN); graph.len()];
    // A provisional calibration lets us run the f32 forward pass (f32
    // execution ignores the quantization ranges).
    let provisional = Calibration::synthetic(graph, weights);
    for sample in samples {
        for v in sample.to_f32_vec() {
            input_range.0 = input_range.0.min(v);
            input_range.1 = input_range.1.max(v);
        }
        let outs = forward(graph, weights, &provisional, sample, DType::F32)?;
        for (i, out) in outs.iter().enumerate() {
            for v in out.to_f32_vec() {
                ranges[i].0 = ranges[i].0.min(v);
                ranges[i].1 = ranges[i].1.max(v);
            }
        }
    }
    Calibration::from_ranges(graph, weights, input_range, &ranges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use utensor::Shape;

    fn branchy_graph() -> Graph {
        let mut g = Graph::new("branchy", Shape::nchw(1, 3, 8, 8));
        let stem = g.add_input_layer(
            "stem",
            LayerKind::Conv {
                oc: 4,
                k: 3,
                stride: 1,
                pad: 1,
                relu: true,
            },
        );
        let b0 = g.add(
            "b0",
            LayerKind::Conv {
                oc: 2,
                k: 1,
                stride: 1,
                pad: 0,
                relu: true,
            },
            stem,
        );
        let b1 = g.add(
            "b1",
            LayerKind::Conv {
                oc: 3,
                k: 3,
                stride: 1,
                pad: 1,
                relu: true,
            },
            stem,
        );
        let j = g.add_multi("join", LayerKind::Concat, &[b0, b1]);
        let gp = g.add("gap", LayerKind::GlobalAvgPool, j);
        let fc = g.add(
            "fc",
            LayerKind::FullyConnected {
                out: 6,
                relu: false,
            },
            gp,
        );
        g.add("softmax", LayerKind::Softmax, fc);
        g
    }

    fn sample(seed: usize) -> Tensor {
        let shape = Shape::nchw(1, 3, 8, 8);
        let data: Vec<f32> = (0..shape.numel())
            .map(|i| ((((i + seed) * 131) % 255) as f32) / 255.0)
            .collect();
        Tensor::from_f32(shape, data).unwrap()
    }

    #[test]
    fn f32_forward_produces_probabilities() {
        let g = branchy_graph();
        let w = Weights::random(&g, 3).unwrap();
        let calib = Calibration::synthetic(&g, &w);
        let outs = forward(&g, &w, &calib, &sample(0), DType::F32).unwrap();
        let probs = outs.last().unwrap().as_f32().unwrap().to_vec();
        assert_eq!(probs.len(), 6);
        assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn calibrated_quint8_tracks_f32() {
        let g = branchy_graph();
        let w = Weights::random(&g, 3).unwrap();
        let samples: Vec<Tensor> = (0..4).map(sample).collect();
        let calib = calibrate(&g, &w, &samples).unwrap();
        let f32_out = forward(&g, &w, &calib, &sample(9), DType::F32).unwrap();
        let q_out = forward(&g, &w, &calib, &sample(9), DType::QUInt8).unwrap();
        // Compare the logits (node before softmax).
        let fl = &f32_out[f32_out.len() - 2];
        let ql = &q_out[q_out.len() - 2];
        assert!(
            ql.max_abs_diff(fl) < 0.3,
            "quantized logits diverged: {}",
            ql.max_abs_diff(fl)
        );
    }

    #[test]
    fn f16_forward_tracks_f32_closely() {
        let g = branchy_graph();
        let w = Weights::random(&g, 3).unwrap();
        let calib = Calibration::synthetic(&g, &w);
        let f32_out = forward(&g, &w, &calib, &sample(5), DType::F32).unwrap();
        let f16_out = forward(&g, &w, &calib, &sample(5), DType::F16).unwrap();
        let fl = &f32_out[f32_out.len() - 2];
        let hl = &f16_out[f16_out.len() - 2];
        assert!(hl.max_abs_diff(fl) < 0.05);
    }

    #[test]
    fn quint8_concat_requantizes_mismatched_branches() {
        let a = Tensor::from_f32_quantized(
            Shape::nchw(1, 1, 1, 1),
            &[1.0],
            QuantParams::from_range(0.0, 2.0).unwrap(),
        )
        .unwrap();
        let b = Tensor::from_f32_quantized(
            Shape::nchw(1, 1, 1, 1),
            &[3.0],
            QuantParams::from_range(0.0, 4.0).unwrap(),
        )
        .unwrap();
        let target = QuantParams::from_range(0.0, 4.0).unwrap();
        let out = run_layer(&LayerKind::Concat, &[&a, &b], None, None, Some(target)).unwrap();
        let vals = out.to_f32_vec();
        assert!((vals[0] - 1.0).abs() < target.scale);
        assert!((vals[1] - 3.0).abs() < target.scale);
        // Without out_params it must fail.
        assert!(run_layer(&LayerKind::Concat, &[&a, &b], None, None, None).is_err());
    }

    #[test]
    fn global_avg_pool_after_a_non_square_conv_evaluates() {
        // `infer_shapes` types a GAP over any plane as [n, c, 1, 1]; the
        // kernel used to reject every plane that is not square.
        let mut g = Graph::new("wide", Shape::nchw(1, 3, 6, 10));
        let conv = g.add_input_layer(
            "conv",
            LayerKind::Conv {
                oc: 4,
                k: 3,
                stride: 1,
                pad: 0,
                relu: true,
            },
        );
        g.add("gap", LayerKind::GlobalAvgPool, conv);
        let shapes = g.infer_shapes().unwrap();
        assert_eq!(shapes[0].dims(), &[1, 4, 4, 8]);
        let w = Weights::random(&g, 7).unwrap();
        let x = Tensor::from_f32(
            Shape::nchw(1, 3, 6, 10),
            (0..180)
                .map(|i| ((i * 37) % 100) as f32 / 100.0 - 0.5)
                .collect(),
        )
        .unwrap();
        let calib = calibrate(&g, &w, std::slice::from_ref(&x)).unwrap();
        for dtype in [DType::F32, DType::F16, DType::QUInt8] {
            let outs = forward(&g, &w, &calib, &x, dtype).unwrap();
            assert_eq!(outs[1].shape(), &shapes[1], "{dtype}");
            // The mean of each conv plane, within the dtype's resolution.
            let conv_out = outs[0].to_f32_vec();
            let want: Vec<f32> = conv_out
                .chunks(32)
                .map(|p| p.iter().sum::<f32>() / 32.0)
                .collect();
            let got = outs[1].to_f32_vec();
            for (g, w) in got.iter().zip(&want) {
                assert!(
                    (g - w).abs() <= 0.01 + calib.act_params[0].scale,
                    "{dtype}: {g} vs {w}"
                );
            }
        }
    }

    #[test]
    fn missing_filter_is_an_error() {
        let x = sample(0);
        let kind = LayerKind::Conv {
            oc: 2,
            k: 1,
            stride: 1,
            pad: 0,
            relu: false,
        };
        assert!(run_layer(&kind, &[&x], None, None, None).is_err());
    }

    #[test]
    fn calibration_requires_samples() {
        let g = branchy_graph();
        let w = Weights::random(&g, 3).unwrap();
        assert!(calibrate(&g, &w, &[]).is_err());
    }

    #[test]
    fn forward_deterministic() {
        let g = branchy_graph();
        let w = Weights::random(&g, 3).unwrap();
        let calib = Calibration::synthetic(&g, &w);
        let a = forward(&g, &w, &calib, &sample(1), DType::QUInt8).unwrap();
        let b = forward(&g, &w, &calib, &sample(1), DType::QUInt8).unwrap();
        assert!(a.last().unwrap().bit_equal(b.last().unwrap()));
    }
}
