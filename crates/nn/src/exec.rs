//! Reference (single-host) graph execution and range calibration.
//!
//! [`run_layer`] is the single entry point that maps a [`LayerKind`] onto
//! the compute kernels; both this module's whole-graph [`forward`] and the
//! device executors in the runtime crates go through it, so the numerics
//! of every execution mechanism are identical by construction.

use utensor::{DType, QuantParams, Tensor, TensorError};

use crate::graph::{Graph, NodeId};
use crate::layer::{LayerKind, PoolFunc};
use crate::weights::{Calibration, Weights};

/// Executes one layer on already-prepared inputs and weights.
///
/// `filter`/`bias` must be present exactly when the layer has weights,
/// and `filter` must already be in the input's dtype. `out_params` is
/// required for QUInt8 execution of conv / FC / concat (the §4.2
/// pre-trained output range) and ignored otherwise.
pub fn run_layer(
    kind: &LayerKind,
    inputs: &[&Tensor],
    filter: Option<&Tensor>,
    bias: Option<&[f32]>,
    out_params: Option<QuantParams>,
) -> Result<Tensor, TensorError> {
    let single = || -> Result<&Tensor, TensorError> {
        inputs
            .first()
            .copied()
            .ok_or_else(|| TensorError::BadConcat(format!("{} got no inputs", kind.op_name())))
    };
    let need_filter = || -> Result<&Tensor, TensorError> {
        let f = filter.ok_or_else(|| {
            TensorError::BadConcat(format!("{} is missing its filter tensor", kind.op_name()))
        })?;
        // The filter must match the layer's declared geometry — weights
        // from a different model must not silently change the layer.
        let x = inputs
            .first()
            .copied()
            .ok_or_else(|| TensorError::BadConcat(format!("{} got no inputs", kind.op_name())))?;
        if let Some(expected) = kind.weight_shape(x.shape()) {
            // Channel-split parts carry a row-sliced filter: dim 0 may be
            // any value up to the declared output-channel count, but all
            // inner dimensions must match exactly.
            let fs = f.shape();
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
    match kind {
        LayerKind::Conv {
            stride, pad, relu, ..
        } => {
            let x = single()?;
            let quant = (x.dtype() == DType::QUInt8).then_some(out_params).flatten();
            ukernels::conv2d(
                x,
                need_filter()?,
                bias,
                &ukernels::Conv2dParams {
                    stride: *stride,
                    pad: *pad,
                    relu: *relu,
                },
                quant,
            )
        }
        LayerKind::DepthwiseConv {
            stride, pad, relu, ..
        } => {
            let x = single()?;
            let quant = (x.dtype() == DType::QUInt8).then_some(out_params).flatten();
            ukernels::depthwise_conv2d(
                x,
                need_filter()?,
                bias,
                &ukernels::Conv2dParams {
                    stride: *stride,
                    pad: *pad,
                    relu: *relu,
                },
                quant,
            )
        }
        LayerKind::FullyConnected { relu, .. } => {
            let x = single()?;
            let quant = (x.dtype() == DType::QUInt8).then_some(out_params).flatten();
            ukernels::fully_connected(x, need_filter()?, bias, *relu, quant)
        }
        LayerKind::Pool {
            func,
            k,
            stride,
            pad,
        } => ukernels::pool2d(
            single()?,
            &ukernels::PoolParams {
                kind: match func {
                    PoolFunc::Max => ukernels::PoolKind::Max,
                    PoolFunc::Avg => ukernels::PoolKind::Avg,
                },
                k: *k,
                stride: *stride,
                pad: *pad,
            },
        ),
        LayerKind::GlobalAvgPool => ukernels::global_avg_pool(single()?),
        LayerKind::Lrn { n, alpha, beta, k } => ukernels::lrn(
            single()?,
            &ukernels::LrnParams {
                n: *n,
                alpha: *alpha,
                beta: *beta,
                k: *k,
            },
        ),
        LayerKind::Relu => ukernels::relu(single()?),
        LayerKind::Concat => {
            if inputs.is_empty() {
                return Err(TensorError::BadConcat("concat got no inputs".into()));
            }
            if inputs[0].dtype() == DType::QUInt8 {
                // Branch outputs carry different ranges; each is brought
                // onto the concat's own output range (the TFLite approach)
                // as its codes are copied into place.
                let target = out_params.ok_or_else(|| {
                    TensorError::BadQuantParams("QUInt8 concat needs output params".into())
                })?;
                Tensor::concat_axis_quantized(1, inputs, target)
            } else {
                Tensor::concat_axis(1, inputs)
            }
        }
        LayerKind::Add { relu } => {
            if inputs.len() != 2 {
                return Err(TensorError::BadConcat(format!(
                    "add expects 2 inputs, got {}",
                    inputs.len()
                )));
            }
            let quant = (inputs[0].dtype() == DType::QUInt8)
                .then_some(out_params)
                .flatten();
            ukernels::add_fused(inputs[0], inputs[1], quant, *relu)
        }
        LayerKind::Quantize { params } => ukernels::fake_quant(single()?, *params),
        LayerKind::Softmax => {
            // Classifier head: always produces f32 probabilities.
            let x = single()?;
            let logits = x.to_f32_vec();
            let n = x.shape().dim(0).max(1);
            let per = logits.len() / n;
            let mut out = Vec::with_capacity(logits.len());
            for b in 0..n {
                out.extend(ukernels::softmax_f32(&logits[b * per..(b + 1) * per]));
            }
            Tensor::from_f32(x.shape().clone(), out)
        }
    }
}

/// Prepares a node's filter in the dtype the executing processor wants.
///
/// Mirrors §6: the f32 master is narrowed to F16 for GPU upload or
/// quantized with the calibrated weight range for the CPU.
pub fn filter_for_dtype(
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
