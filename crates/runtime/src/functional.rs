//! Functional (numeric) evaluation of an execution plan.
//!
//! The evaluator reads the same lowered [`crate::PlanLayout`] as the
//! timing engine: a `Split` placement narrows filters along output
//! channels (conv/FC) or input channels (pooling, depthwise) over the
//! layout's channel ranges, and each part computes its channels in the
//! part's dtypes — the GPU's dequantizing load and requantizing store
//! (§4.2) included, both inside the part — straight into its channel
//! range of the node's output, which the evaluator allocates once (the
//! zero-copy shared buffer of §6). Running both halves of the
//! co-simulation over one plan yields the latency *and* the actual output
//! tensor, so tests can assert the μLayer correctness invariant: a split
//! layer's output equals the whole-layer output.

use std::borrow::Cow;
use std::ops::Range;

use usoc::DtypePlan;
use utensor::{DType, QuantParams, Shape, Tensor, TensorError, TensorView, TensorViewMut};

use unn::{Calibration, Graph, LayerKind, NodeId, Weights};

use crate::backend::{ExecBackend, SimulatedBackend};
use crate::layout::SplitAxis;
use crate::plan::ExecutionPlan;

/// One schedulable unit of plan execution: a whole single-placement
/// layer, or one channel-range part of a split layer.
///
/// A task is self-contained — everything needed to compute its output
/// is borrowed or carried here (the output view it writes into carries
/// the storage dtype and grid), and the borrowed data is all `Sync` — so
/// an [`crate::backend::ExecBackend`] may run tasks of one node on any
/// threads, in any order, each writing its own channel range of the
/// node's output (its split's range: output channel `c` comes from
/// filter row `c` or input channel `c` alike). A part's arithmetic
/// depends only on its dtypes and channel range, never on the executing
/// thread, which is what makes parallel execution bit-reproducible.
///
/// Tasks are `Clone` without allocating, so a backend may subdivide one
/// part's channel range into finer chunks (same borrows, narrower `split`).
#[derive(Clone)]
pub struct PartTask<'a> {
    /// The graph node this task belongs to.
    pub node: NodeId,
    /// Index of this part within the node's placement (0 for single).
    pub part_index: usize,
    /// The processor the plan assigns this part to.
    pub device: usoc::DeviceId,
    /// The layer operation.
    pub kind: &'a LayerKind,
    /// The node's name (diagnostics).
    pub name: &'a str,
    /// Stored inputs, in the plan's storage dtype: one slice per node,
    /// shared by all of its tasks.
    pub inputs: &'a [&'a Tensor],
    /// The graph's weights; this task reads `weights.of(node)`.
    pub weights: &'a Weights,
    /// Quantization parameters for casting the filter.
    pub weight_params: Option<QuantParams>,
    /// The node's calibrated activation parameters.
    pub act: QuantParams,
    /// Storage/compute dtypes of this part.
    pub dtypes: DtypePlan,
    /// `Some((axis, lo, hi))` for a task owning channels `lo..hi` of a
    /// layer that can be channel-split — a split part its cut, a whole
    /// layer every channel, a backend's worker chunk a narrower cut;
    /// `None` for a layer that cannot be split.
    pub split: Option<(SplitAxis, usize, usize)>,
}

impl<'a> PartTask<'a> {
    /// The node's full (unsliced, uncast) master filter, if any.
    pub(crate) fn master_filter(&self) -> Option<&'a Tensor> {
        self.weights.of(self.node).filter.as_ref()
    }
}

/// Splits a node's output into the channel ranges (axis 1) `tasks`
/// write — a task's split range, or every channel — one view
/// per task in task order; a range outside the output, or out of order,
/// is a typed error.
pub(crate) fn task_outputs<'o>(
    tasks: &[PartTask<'_>],
    out: &'o mut TensorViewMut<'_>,
) -> Result<Vec<TensorViewMut<'o>>, TensorError> {
    let channels = out.shape.dims().get(1).copied().unwrap_or(0);
    let ranges: Vec<Range<usize>> = tasks
        .iter()
        .map(|t| t.split.map_or(0..channels, |(_, lo, hi)| lo..hi))
        .collect();
    out.split_ranges(1, &ranges)
}

/// Executes one [`PartTask`] into `out`, its channel range of the node's
/// output, **stored**: computed in the part's compute dtype, then
/// converted to the plan's storage dtype under the node's store
/// parameters (the requantization at the store, §4.2 — the GPU
/// requantizes its own outputs). When the two dtypes agree the kernel
/// writes `out` directly; otherwise it computes into one scratch tensor
/// of the part's channels, which is then converted into `out` on the
/// same thread. The softmax head is f32 whatever the dtypes.
pub fn eval_part_task(t: &PartTask<'_>, out: &mut TensorViewMut<'_>) -> Result<(), TensorError> {
    if matches!(t.kind, LayerKind::Concat | LayerKind::Add { .. }) {
        // Multi-input joins consume stored tensors directly (requantizing
        // QUInt8 inputs onto the node's grid).
        let inputs: Vec<TensorView<'_>> = t.inputs.iter().map(|x| x.view()).collect();
        return unn::run_layer_into(t.kind, &inputs, None, None, out);
    }
    let x = t.inputs[0].view();
    // The input channels and the filter/bias rows this part owns.
    let (x, rows) = match t.split {
        None => (x, None),
        Some((SplitAxis::Filters, lo, hi)) => {
            if t.master_filter().is_none() {
                return Err(TensorError::BadConcat(format!(
                    "{} has no filter to split",
                    t.name
                )));
            }
            (x, Some(lo..hi))
        }
        Some((SplitAxis::InputChannels, lo, hi)) => (x.narrow(1, lo..hi)?, Some(lo..hi)),
    };
    let filter = part_filter(t, rows.clone())?;
    let filter = filter.as_ref().map(|(f, rows)| match rows {
        Some(rows) => f.view().narrow(0, rows.clone()),
        None => Ok(f.view()),
    });
    let filter = filter.transpose()?;
    let bias = t.weights.of(t.node).bias.as_deref();
    let bias = bias.map(|b| rows.clone().map_or(b, |r| &b[r]));

    // Dequantize/convert the input to the compute dtype if they differ
    // (the §4.2 GPU path: QUInt8 loads converted to F16 on the fly).
    let compute = t.dtypes.compute;
    let converted;
    let x = if x.dtype() == compute {
        x
    } else {
        converted = scratch(&x.shape, compute, t.act, |c| c.convert_from(&x))?;
        converted.view()
    };
    let run = |out: &mut TensorViewMut<'_>| {
        unn::run_layer_into(t.kind, std::slice::from_ref(&x), filter.as_ref(), bias, out)
    };
    if matches!(t.kind, LayerKind::Softmax) || compute == out.dtype() {
        run(out)
    } else {
        out.convert_from(&scratch(&out.shape, compute, t.act, run)?.view())
    }
}

/// A fresh `shape` tensor of `dtype` (on grid `act`, for `QUInt8`)
/// written by `fill`.
fn scratch(
    shape: &Shape,
    dtype: DType,
    act: QuantParams,
    fill: impl FnOnce(&mut TensorViewMut<'_>) -> Result<(), TensorError>,
) -> Result<Tensor, TensorError> {
    let mut t = Tensor::zeros(shape.clone(), dtype, Some(act));
    fill(&mut t.view_mut())?;
    Ok(t)
}

/// A filter and the rows of it a part narrows to (all of them: `None`).
type RowsOf<'a> = (Cow<'a, Tensor>, Option<Range<usize>>);

/// The filter of the task's node in the part's compute dtype, with the
/// `rows` the part narrows it to without copying: the whole-layer copy
/// [`Weights::filter_as`] memoises instead of re-casting the f32 master
/// every frame. Casting is elementwise under fixed parameters, so rows of
/// the cast copy equal the cast of the rows, bit for bit.
fn part_filter<'a>(
    t: &PartTask<'a>,
    rows: Option<Range<usize>>,
) -> Result<Option<RowsOf<'a>>, TensorError> {
    let compute = t.dtypes.compute;
    if let (Some(rows), DType::QUInt8, None) = (&rows, compute, t.weight_params) {
        // Uncalibrated: the parameters come from the rows' own range,
        // which no whole-layer copy can provide. Copy the rows, then
        // quantize.
        let quantize =
            |f: &Tensor| Tensor::from(f.view().narrow(0, rows.clone())?).cast(compute, None);
        return t
            .master_filter()
            .map(|f| Ok((Cow::Owned(quantize(f)?), None)))
            .transpose();
    }
    let whole = t.weights.filter_as(t.node, compute, t.weight_params)?;
    Ok(whole.map(|f| (f, rows)))
}

/// Evaluates the plan numerically on the calling thread, returning
/// every node's output in the plan's storage dtype (the final softmax is
/// always f32).
pub fn evaluate_plan(
    graph: &Graph,
    plan: &ExecutionPlan,
    weights: &Weights,
    calib: &Calibration,
    input: &Tensor,
) -> Result<Vec<Tensor>, TensorError> {
    let backend = SimulatedBackend::default();
    evaluate_plan_with_backend(graph, plan, weights, calib, input, &backend)
}

/// The evaluator loop, with part execution delegated to an
/// [`ExecBackend`]. The plan is lowered once ([`ExecutionPlan::layout`]):
/// a mutated plan is a typed error, and so, before any node runs, is an
/// input that is not the graph's input shape. Every node's output is
/// allocated up front at the layout's shape, in the plan's storage dtype
/// on the node's store grid (f32 for the softmax head); each node's
/// running parts then go to the backend as one batch (the layer barrier)
/// with that output, each task writing its part's channel range.
pub fn evaluate_plan_with_backend(
    graph: &Graph,
    plan: &ExecutionPlan,
    weights: &Weights,
    calib: &Calibration,
    input: &Tensor,
    backend: &dyn ExecBackend,
) -> Result<Vec<Tensor>, TensorError> {
    let layout = plan.layout(graph)?;
    if input.shape() != graph.input_shape() {
        return Err(TensorError::ShapeMismatch {
            expected: graph.input_shape().clone(),
            found: input.shape().clone(),
        });
    }
    let storage = layout.storage;
    let x0 = input.cast(storage, Some(calib.input_params))?;

    // Every node's output is allocated before the first node runs, and
    // carries its store grid to its consumers. The tasks overwrite every
    // element; filling each buffer just before the workers write it left
    // its cache lines with this thread (2 ms of a 17 ms cooperative
    // SqueezeNet frame on a 2-vCPU x86-64 host).
    let mut outputs: Vec<Tensor> = Vec::with_capacity(graph.len());
    for (i, (node, nl)) in graph.nodes().iter().zip(&layout.nodes).enumerate() {
        let act = calib.act_params[i];
        let first = node.inputs.first().map_or(&x0, |d| &outputs[d.0]);
        // Quantization-preserving layers (pooling, ReLU, LRN) keep their
        // input's grid on the integer path, so every part of a split —
        // F16-computed GPU parts included — requantizes to it, not to the
        // calibrated range.
        let (dtype, grid) = match &node.kind {
            LayerKind::Softmax => (DType::F32, act),
            LayerKind::Pool { .. }
            | LayerKind::GlobalAvgPool
            | LayerKind::Relu
            | LayerKind::Lrn { .. } => (storage, first.quant_params().unwrap_or(act)),
            _ => (storage, act),
        };
        outputs.push(Tensor::zeros(nl.output.clone(), dtype, Some(grid)));
    }
    for (i, (node, nl)) in graph.nodes().iter().zip(&layout.nodes).enumerate() {
        let (done, rest) = outputs.split_at_mut(i);
        let inputs: Vec<&Tensor> = match node.inputs.as_slice() {
            [] => vec![&x0],
            producers => producers.iter().map(|d| &done[d.0]).collect(),
        };
        let tasks: Vec<PartTask<'_>> = nl
            .running()
            .map(|part| PartTask {
                node: NodeId(i),
                part_index: part.index,
                device: part.device,
                kind: &node.kind,
                name: &node.name,
                inputs: &inputs,
                weights,
                weight_params: calib.weight_params[i],
                act: calib.act_params[i],
                dtypes: part.dtypes,
                split: part.range.as_ref().map(|(axis, r)| (*axis, r.start, r.end)),
            })
            .collect();
        backend.run_node(&tasks, &mut rest[0].view_mut())?;
    }
    Ok(outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::NodePlacement;
    use usoc::SocSpec;

    fn graph() -> Graph {
        let mut g = Graph::new("g", Shape::nchw(1, 4, 10, 10));
        let c1 = g.add_input_layer(
            "conv1",
            LayerKind::Conv {
                oc: 8,
                k: 3,
                stride: 1,
                pad: 1,
                relu: true,
            },
        );
        let p1 = g.add(
            "pool1",
            LayerKind::Pool {
                func: unn::PoolFunc::Max,
                k: 2,
                stride: 2,
                pad: 0,
            },
            c1,
        );
        let c2 = g.add(
            "conv2",
            LayerKind::Conv {
                oc: 6,
                k: 1,
                stride: 1,
                pad: 0,
                relu: false,
            },
            p1,
        );
        g.add(
            "fc",
            LayerKind::FullyConnected {
                out: 4,
                relu: false,
            },
            c2,
        );
        g
    }

    fn sample() -> Tensor {
        let shape = Shape::nchw(1, 4, 10, 10);
        let data: Vec<f32> = (0..shape.numel())
            .map(|i| (((i * 37) % 100) as f32) / 100.0 - 0.5)
            .collect();
        Tensor::from_f32(shape, data).unwrap()
    }

    fn setup() -> (Graph, Weights, Calibration, Tensor) {
        let g = graph();
        let w = Weights::random(&g, 11).unwrap();
        let calib = unn::calibrate(&g, &w, &[sample()]).unwrap();
        (g, w, calib, sample())
    }

    #[test]
    fn all_cpu_f32_plan_matches_reference_forward() {
        let (g, w, calib, x) = setup();
        let spec = SocSpec::exynos_7420();
        let plan = ExecutionPlan::new(
            &g,
            &spec,
            (0..g.len())
                .map(|_| NodePlacement::single(spec.cpu(), DType::F32))
                .collect(),
            "cpu-f32",
        )
        .unwrap();
        let got = evaluate_plan(&g, &plan, &w, &calib, &x).unwrap();
        let want = unn::forward(&g, &w, &calib, &x, DType::F32).unwrap();
        for (a, b) in got.iter().zip(&want) {
            assert!(a.bit_equal(b));
        }
    }

    #[test]
    fn split_plan_is_bit_identical_to_single_for_uniform_dtypes() {
        // THE correctness theorem of channel-wise distribution: identical
        // arithmetic on both processors => identical merged output.
        let (g, w, calib, x) = setup();
        let spec = SocSpec::exynos_7420();
        for dtype in [DType::F32, DType::QUInt8] {
            let single = ExecutionPlan::new(
                &g,
                &spec,
                (0..g.len())
                    .map(|_| NodePlacement::single(spec.cpu(), dtype))
                    .collect(),
                "single",
            )
            .unwrap();
            let splits = ExecutionPlan::new(
                &g,
                &spec,
                g.nodes()
                    .iter()
                    .map(|n| {
                        if n.kind.is_distributable() {
                            NodePlacement::Split {
                                parts: vec![
                                    (spec.cpu(), DtypePlan::uniform(dtype), 0.25),
                                    (spec.gpu(), DtypePlan::uniform(dtype), 0.75),
                                ],
                            }
                        } else {
                            NodePlacement::single(spec.cpu(), dtype)
                        }
                    })
                    .collect(),
                "split",
            )
            .unwrap();
            let a = evaluate_plan(&g, &single, &w, &calib, &x).unwrap();
            let b = evaluate_plan(&g, &splits, &w, &calib, &x).unwrap();
            assert!(
                a.last().unwrap().bit_equal(b.last().unwrap()),
                "dtype {dtype}"
            );
        }
    }

    #[test]
    fn proc_friendly_split_tracks_f32() {
        // Mixed CPU-QUInt8 / GPU-F16 cooperative execution stays close to
        // the float reference (the §4.3 accuracy argument).
        let (g, w, calib, x) = setup();
        let spec = SocSpec::exynos_7420();
        let coop = ExecutionPlan::new(
            &g,
            &spec,
            g.nodes()
                .iter()
                .map(|n| {
                    if n.kind.is_distributable() {
                        NodePlacement::Split {
                            parts: vec![
                                (spec.cpu(), DtypePlan::proc_friendly_cpu(), 0.5),
                                (spec.gpu(), DtypePlan::proc_friendly_gpu(), 0.5),
                            ],
                        }
                    } else {
                        NodePlacement::single(spec.cpu(), DType::QUInt8)
                    }
                })
                .collect(),
            "ulayer",
        )
        .unwrap();
        let got = evaluate_plan(&g, &coop, &w, &calib, &x).unwrap();
        let want = unn::forward(&g, &w, &calib, &x, DType::F32).unwrap();
        let diff = got.last().unwrap().max_abs_diff(want.last().unwrap());
        assert!(diff < 0.35, "diff = {diff}");
    }

    #[test]
    fn uncalibrated_quint8_part_quantizes_its_own_rows() {
        // With no calibrated filter parameters, each part's come from the
        // range of the rows it owns — so a split layer cannot take rows
        // of one whole-layer copy. Pinned against the layer computed by
        // hand: slice the f32 master, quantize the slice, run the part.
        let (g, w, mut calib, x) = setup();
        let spec = SocSpec::exynos_7420();
        let conv = NodeId(0);
        calib.weight_params[conv.0] = None;
        let fracs = [0.37, 0.63];
        let plan = ExecutionPlan::new(
            &g,
            &spec,
            (0..g.len())
                .map(|i| {
                    if i == conv.0 {
                        NodePlacement::Split {
                            parts: vec![
                                (spec.cpu(), DtypePlan::uniform(DType::QUInt8), fracs[0]),
                                (spec.gpu(), DtypePlan::uniform(DType::QUInt8), fracs[1]),
                            ],
                        }
                    } else {
                        NodePlacement::single(spec.cpu(), DType::QUInt8)
                    }
                })
                .collect(),
            "uncalibrated-split",
        )
        .unwrap();
        let got = evaluate_plan(&g, &plan, &w, &calib, &x).unwrap();

        let layer = w.of(conv);
        let master = layer.filter.as_ref().unwrap();
        let x0 = x.cast(DType::QUInt8, Some(calib.input_params)).unwrap();
        let parts: Vec<Tensor> = plan.layout(&g).unwrap().nodes[conv.0]
            .parts
            .iter()
            .map(|part| {
                let (_, c) = part.range.clone().unwrap();
                let rows = master.slice_axis(0, c.start, c.end).unwrap();
                let f = rows.cast(DType::QUInt8, None).unwrap();
                let bias = &layer.bias.as_ref().unwrap()[c];
                let act = Some(calib.act_params[conv.0]);
                unn::run_layer(&g.nodes()[conv.0].kind, &[&x0], Some(&f), Some(bias), act).unwrap()
            })
            .collect();
        let want = Tensor::concat_axis(1, &parts.iter().collect::<Vec<_>>()).unwrap();
        assert!(got[conv.0].bit_equal(&want));
        assert_eq!(
            w.filter_casts_built(),
            2,
            "conv2 and fc; not the uncalibrated conv1"
        );
    }

    #[test]
    fn empty_share_is_tolerated() {
        // A 0.95/0.05 split of a 6-channel layer rounds one share to zero
        // channels; the evaluator must still produce the full output.
        let (g, w, calib, x) = setup();
        let spec = SocSpec::exynos_7420();
        let plan = ExecutionPlan::new(
            &g,
            &spec,
            g.nodes()
                .iter()
                .enumerate()
                .map(|(i, n)| {
                    if i == 2 && n.kind.is_distributable() {
                        NodePlacement::Split {
                            parts: vec![
                                (spec.cpu(), DtypePlan::uniform(DType::F32), 0.97),
                                (spec.gpu(), DtypePlan::uniform(DType::F32), 0.03),
                            ],
                        }
                    } else {
                        NodePlacement::single(spec.cpu(), DType::F32)
                    }
                })
                .collect(),
            "uneven",
        )
        .unwrap();
        let out = evaluate_plan(&g, &plan, &w, &calib, &x).unwrap();
        assert_eq!(out[2].shape().c(), 6);
    }
}
