//! Functional (numeric) evaluation of an execution plan.
//!
//! The timing engine and this evaluator share the plan semantics: a
//! `Split` placement slices filters along output channels (conv/FC),
//! slices input channels (pooling, depthwise), computes each part in the
//! part's dtypes — the GPU's dequantizing load and requantizing store
//! (§4.2) included, both inside the part — and merges the stored partial
//! outputs by channel concatenation. Running both
//! halves of the co-simulation over one plan yields the latency *and* the
//! actual output tensor, so tests can assert the μLayer correctness
//! invariant: a split layer's merged output equals the whole-layer
//! output.

use std::borrow::Cow;

use usoc::DtypePlan;
use utensor::{DType, QuantParams, Tensor, TensorError};

use unn::{Calibration, Graph, LayerKind, NodeId, Weights};

use crate::backend::{ExecBackend, SimulatedBackend};
use crate::engine::{FallbackPart, FallbackScope};
use crate::plan::{ExecutionPlan, NodePlacement};

/// Computes one layer in a part's dtypes.
///
/// `input` is in the plan's storage dtype; the result is returned in the
/// *compute* dtype of the part ([`eval_part_task`] stores it).
fn compute_part(
    kind: &LayerKind,
    input: &Tensor,
    filter: Option<&Tensor>,
    bias: Option<&[f32]>,
    dtypes: DtypePlan,
    act_params: QuantParams,
) -> Result<Tensor, TensorError> {
    // Dequantize/convert the input to the compute dtype if they differ
    // (the §4.2 GPU path: QUInt8 loads converted to F16 on the fly).
    let x;
    let x_ref = if input.dtype() == dtypes.compute {
        input
    } else {
        x = input.cast(dtypes.compute, Some(act_params))?;
        &x
    };
    let out_params = (dtypes.compute == DType::QUInt8).then_some(act_params);
    unn::run_layer(kind, &[x_ref], filter, bias, out_params)
}

/// How a layer kind is split channel-wise (§3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplitAxis {
    /// Filters sliced along output channels; input shared (Figure 7a).
    Filters,
    /// Input sliced along channels (Figure 7b); filters sliced alongside
    /// for depthwise convolutions.
    InputChannels,
}

/// The split axis of a layer kind, or `None` for kinds that cannot be
/// channel-split.
pub fn split_axis(kind: &LayerKind) -> Option<SplitAxis> {
    match kind {
        LayerKind::Conv { .. } | LayerKind::FullyConnected { .. } => Some(SplitAxis::Filters),
        LayerKind::DepthwiseConv { .. } | LayerKind::Pool { .. } | LayerKind::GlobalAvgPool => {
            Some(SplitAxis::InputChannels)
        }
        _ => None,
    }
}

/// One schedulable unit of plan execution: a whole single-placement
/// layer, or one channel-range part of a split layer.
///
/// A task is self-contained — everything needed to compute its output
/// and store it (the plan's storage dtype, the node's store parameters)
/// is borrowed or carried here, and the borrowed data is all `Sync` — so
/// an [`crate::backend::ExecBackend`] may run tasks of one node on any
/// threads, in any order, as long as it returns the outputs in task
/// order. A part's arithmetic depends only
/// on its dtypes and channel range, never on the executing thread, which
/// is what makes parallel execution bit-reproducible.
///
/// Tasks are `Clone` so a backend may subdivide one part's channel
/// range into finer chunks (same borrows, narrower `split`).
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
    /// Stored inputs, in the plan's storage dtype.
    pub inputs: Vec<&'a Tensor>,
    /// The graph's weights; this task reads `weights.of(node)`.
    pub weights: &'a Weights,
    /// Quantization parameters for casting the filter.
    pub weight_params: Option<QuantParams>,
    /// The node's calibrated activation parameters.
    pub act: QuantParams,
    /// Storage/compute dtypes of this part.
    pub dtypes: DtypePlan,
    /// `Some((axis, lo, hi))` for a split part owning channels
    /// `lo..hi`; `None` for a whole-layer task.
    pub split: Option<(SplitAxis, usize, usize)>,
    /// The plan-wide activation storage dtype the output is returned in.
    pub storage: DType,
    /// The parameters the node's output is stored with when `storage`
    /// is QUInt8 — the same for every part, so the parts concatenate.
    pub store_params: QuantParams,
}

impl<'a> PartTask<'a> {
    /// The node's full (unsliced, uncast) master filter, if any.
    pub fn master_filter(&self) -> Option<&'a Tensor> {
        self.weights.of(self.node).filter.as_ref()
    }

    /// The channels this task owns along its split axis: its part's cut,
    /// or — for a whole-layer task — every channel the layer distributes.
    /// `None` for kinds that cannot be channel-split. A backend
    /// subdividing a task cuts this range, exactly as the plan's own
    /// split cuts the whole layer's.
    pub fn channel_range(&self) -> Option<(SplitAxis, usize, usize)> {
        self.split
            .or_else(|| whole_range(self.kind, self.inputs[0]))
    }
}

/// The channel range a whole execution of `kind` over input `x`
/// distributes, from the same count as the timing engine
/// (`usoc::split_channel_count`).
fn whole_range(kind: &LayerKind, x: &Tensor) -> Option<(SplitAxis, usize, usize)> {
    let channels = usoc::split_channel_count(kind, x.shape())?;
    Some((split_axis(kind)?, 0, channels))
}

/// Executes one [`PartTask`], returning the channels it owns **stored**:
/// computed in the part's compute dtype, then converted to the plan's
/// storage dtype under the node's store parameters (the requantization
/// at the store, §4.2 — the GPU requantizes its own outputs). The
/// conversion is elementwise under parameters every part shares, so it
/// commutes with the channel concatenation that merges the parts. The
/// softmax head stays f32.
pub fn eval_part_task(t: &PartTask<'_>) -> Result<Tensor, TensorError> {
    let raw = compute_task(t)?;
    if matches!(t.kind, LayerKind::Softmax) || raw.dtype() == t.storage {
        return Ok(raw);
    }
    raw.cast(t.storage, Some(t.store_params))
}

/// The task's output in its compute dtype.
fn compute_task(t: &PartTask<'_>) -> Result<Tensor, TensorError> {
    if matches!(
        t.kind,
        LayerKind::Concat | LayerKind::Add { .. } | LayerKind::Quantize { .. }
    ) {
        // Multi-input joins and quantization boundaries consume stored
        // tensors directly (requantizing QUInt8 inputs to the node's
        // range).
        return unn::run_layer(t.kind, &t.inputs, None, None, Some(t.act));
    }
    let x = t.inputs[0];
    // The input channels and the filter/bias rows this part owns.
    let (x_part, rows) = match t.split {
        None => (None, None),
        Some((SplitAxis::Filters, lo, hi)) => {
            if t.master_filter().is_none() {
                return Err(TensorError::BadConcat(format!(
                    "{} has no filter to split",
                    t.name
                )));
            }
            (None, Some((lo, hi)))
        }
        Some((SplitAxis::InputChannels, lo, hi)) => {
            (Some(x.slice_axis(1, lo, hi)?), Some((lo, hi)))
        }
    };
    let filter = part_filter(t, rows)?;
    let bias = t.weights.of(t.node).bias.as_deref();
    let bias = bias.map(|b| rows.map_or(b, |(lo, hi)| &b[lo..hi]));
    compute_part(
        t.kind,
        x_part.as_ref().unwrap_or(x),
        filter.as_deref(),
        bias,
        t.dtypes,
        t.act,
    )
}

/// The filter rows `rows` (all of them for `None`) of the task's node in
/// the part's compute dtype, taken from the whole-layer copy
/// [`Weights::filter_as`] memoises instead of re-casting the f32 master
/// every frame. Casting is elementwise under fixed parameters, so rows of
/// the cast copy equal the cast of the rows, bit for bit.
fn part_filter<'a>(
    t: &PartTask<'a>,
    rows: Option<(usize, usize)>,
) -> Result<Option<Cow<'a, Tensor>>, TensorError> {
    let compute = t.dtypes.compute;
    if let (Some((lo, hi)), DType::QUInt8, None) = (rows, compute, t.weight_params) {
        // Uncalibrated: the parameters come from the slice's own range,
        // which no whole-layer copy can provide. Slice, then quantize.
        return t
            .master_filter()
            .map(|f| f.slice_axis(0, lo, hi)?.cast(compute, None).map(Cow::Owned))
            .transpose();
    }
    let whole = t.weights.filter_as(t.node, compute, t.weight_params)?;
    match (whole, rows) {
        (Some(whole), Some((lo, hi))) => Ok(Some(Cow::Owned(whole.slice_axis(0, lo, hi)?))),
        (whole, _) => Ok(whole),
    }
}

/// Builds the [`PartTask`]s of one node under its placement: `task`
/// makes the task of (part index, device, dtypes, channel range). Empty
/// shares (zero channels after rounding) are skipped; the channel cuts
/// come from the same shared helpers as the timing engine
/// (`usoc::split_cuts`), so the two co-simulation halves cannot disagree
/// about which channels each part owns.
fn node_tasks<'a>(
    kind: &LayerKind,
    placement: &NodePlacement,
    x: &Tensor,
    task: impl Fn(usize, usoc::DeviceId, DtypePlan, Option<(SplitAxis, usize, usize)>) -> PartTask<'a>,
) -> Result<Vec<PartTask<'a>>, TensorError> {
    match placement {
        NodePlacement::Single { device, dtypes } => Ok(vec![task(0, *device, *dtypes, None)]),
        NodePlacement::Split { parts } => {
            let (axis, _, channels) = whole_range(kind, x).ok_or_else(|| {
                TensorError::BadConcat(format!("{} cannot be channel-split", kind.op_name()))
            })?;
            let fracs: Vec<f64> = parts.iter().map(|p| p.2).collect();
            let cuts = usoc::split_cuts(channels, &fracs);
            Ok(parts
                .iter()
                .enumerate()
                // An empty share (rounding on tiny layers) runs nothing.
                .filter(|(p, _)| cuts[*p] < cuts[p + 1])
                .map(|(p, (device, dtypes, _))| {
                    task(p, *device, *dtypes, Some((axis, cuts[p], cuts[p + 1])))
                })
                .collect())
        }
    }
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
    evaluate_plan_with_backend(graph, plan, weights, calib, input, &SimulatedBackend)
}

/// [`evaluate_plan`] through the engine's recovery path: for every part
/// in `recovered` the primary attempt's output is discarded and the
/// part's output channels are recomputed, exactly as the fallback task
/// does after a device failure. A part's arithmetic depends only on its
/// dtypes and channel range — never on the processor hosting it — and
/// the channel cuts are shared with the timing engine
/// (`usoc::split_cuts`), so the recovered outputs are bit-identical to
/// the fault-free ones. The fault-injection tests assert this.
pub fn evaluate_plan_with_recovery(
    graph: &Graph,
    plan: &ExecutionPlan,
    weights: &Weights,
    calib: &Calibration,
    input: &Tensor,
    recovered: &[FallbackPart],
) -> Result<Vec<Tensor>, TensorError> {
    evaluate_plan_with_backend(graph, plan, weights, calib, input, &Recovering(recovered))
}

/// The sequential backend of [`evaluate_plan_with_recovery`]: a task
/// named in the fallback list runs twice.
struct Recovering<'a>(&'a [FallbackPart]);

impl ExecBackend for Recovering<'_> {
    fn name(&self) -> &str {
        "simulated-recovery"
    }

    fn run_node(&self, tasks: &[PartTask<'_>]) -> Result<Vec<Tensor>, TensorError> {
        tasks
            .iter()
            .map(|task| {
                let mut out = eval_part_task(task)?;
                let hit = self.0.iter().any(|f| {
                    f.node == task.node
                        && match (f.scope, task.split) {
                            (FallbackScope::WholeNode, None) => true,
                            (FallbackScope::Channels { index, .. }, Some(_)) => {
                                index == task.part_index
                            }
                            _ => false,
                        }
                });
                if hit {
                    // This task's kernel failed on its device: discard the
                    // attempt and re-execute the same channel range (the
                    // fallback). Same cuts, same dtypes — exact.
                    out = eval_part_task(task)?;
                }
                Ok(out)
            })
            .collect()
    }
}

/// The evaluator loop, with part execution delegated to an
/// [`ExecBackend`]: each node's tasks are handed to the backend as one
/// batch (the layer barrier), stored outputs come back in task order,
/// and the evaluator concatenates them along the channel axis. The plan
/// is checked against the graph first ([`ExecutionPlan::validate`]), so
/// a plan mutated after construction is a typed error, not a panic.
pub fn evaluate_plan_with_backend(
    graph: &Graph,
    plan: &ExecutionPlan,
    weights: &Weights,
    calib: &Calibration,
    input: &Tensor,
    backend: &dyn ExecBackend,
) -> Result<Vec<Tensor>, TensorError> {
    plan.validate(graph).map_err(TensorError::BadGraph)?;
    let storage = plan.storage_dtype();
    let x0 = input.cast(storage, Some(calib.input_params))?;

    let mut outputs: Vec<Tensor> = Vec::with_capacity(graph.len());
    for (i, node) in graph.nodes().iter().enumerate() {
        let act = calib.act_params[i];
        let inputs: Vec<&Tensor> = if node.inputs.is_empty() {
            vec![&x0]
        } else {
            node.inputs.iter().map(|d| &outputs[d.0]).collect()
        };
        let store_params = store_params_of(&node.kind, &inputs, act);
        let tasks = node_tasks(
            &node.kind,
            &plan.placements[i],
            inputs[0],
            |part_index, device, dtypes, split| PartTask {
                node: NodeId(i),
                part_index,
                device,
                kind: &node.kind,
                name: &node.name,
                inputs: inputs.clone(),
                weights,
                weight_params: calib.weight_params[i],
                act,
                dtypes,
                split,
                storage,
                store_params,
            },
        )?;
        let mut parts = backend.run_node(&tasks)?;
        debug_assert_eq!(parts.len(), tasks.len());
        // The merge is a pure channel copy: every part came back stored.
        outputs.push(if parts.len() == 1 {
            parts.pop().expect("len checked")
        } else {
            Tensor::concat_axis(1, &parts.iter().collect::<Vec<_>>())?
        });
    }
    Ok(outputs)
}

/// The quantization parameters a node's output is stored with.
///
/// Quantization-preserving layers (pooling, ReLU, LRN) keep their
/// input's parameters on the integer path, so every part of a split —
/// including F16-computed GPU parts — must requantize to those, not to
/// the calibrated range, for the merge to agree.
fn store_params_of(kind: &LayerKind, inputs: &[&Tensor], act: QuantParams) -> QuantParams {
    match kind {
        LayerKind::Pool { .. }
        | LayerKind::GlobalAvgPool
        | LayerKind::Relu
        | LayerKind::Lrn { .. } => inputs[0].quant_params().unwrap_or(act),
        // A quantize boundary's whole purpose is to put activations on
        // its own grid; storing with any other params would undo it.
        LayerKind::Quantize { params } => *params,
        _ => act,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usoc::SocSpec;
    use utensor::Shape;

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
        let cuts = usoc::split_cuts(master.shape().dim(0), &fracs);
        let parts: Vec<Tensor> = cuts
            .windows(2)
            .map(|c| {
                let rows = master.slice_axis(0, c[0], c[1]).unwrap();
                let f = rows.cast(DType::QUInt8, None).unwrap();
                let bias = &layer.bias.as_ref().unwrap()[c[0]..c[1]];
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
