//! Plan lowering: the one realized layout every executor reads.
//!
//! A plan records *nominal* channel fractions; a split can only hand out
//! whole channels. [`ExecutionPlan::layout`] lowers a plan once into a
//! [`PlanLayout`]: per node its shapes, the buffer it writes and that
//! buffer's bytes, and each part's channel range, realized share and
//! weight elements. The timing engine costs those shares, allocates those
//! buffers and registers fallbacks over those ranges; the evaluator
//! computes those ranges; the measurer fits each part to its share. No
//! reader re-derives a cut, so timing and numerics cannot drift apart.
//!
//! The lowering also decides concat elision, on every plan: a concat
//! whose branches only feed it joins in place, each branch writing its
//! channels into the join's buffer ([`NodeLayout::elided`]).

use std::ops::Range;

use usoc::{split_cuts, DeviceId, DtypePlan};
use utensor::{DType, Shape, TensorError};

use unn::{Graph, LayerKind, NodeId};

use crate::plan::{ExecutionPlan, NodePlacement};

/// How a layer kind is split channel-wise (§3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplitAxis {
    /// Filters sliced along output channels; input shared (Figure 7a).
    Filters,
    /// Input sliced along channels (Figure 7b); filters sliced alongside
    /// for depthwise convolutions.
    InputChannels,
}

/// One part of a node's placement, as realized over whole channels.
#[derive(Clone, Debug, PartialEq)]
pub struct PartLayout {
    /// The part's index in the placement (0 for a single placement).
    pub index: usize,
    /// The processor the plan assigns the part to.
    pub device: DeviceId,
    /// Storage/compute/weight dtypes of the part.
    pub dtypes: DtypePlan,
    /// The channels the part owns along its layer's split axis — every
    /// channel for a single placement — or `None` for a layer that cannot
    /// be channel-split.
    pub range: Option<(SplitAxis, Range<usize>)>,
    /// The share of the layer the part executes, `(hi − lo) / channels`
    /// (1.0 for a single placement). A zero-channel layer keeps its
    /// nominal shares, having no channels to round them to.
    pub share: f64,
    /// Weight and bias elements the part holds; a split's parts sum
    /// exactly to the whole layer's.
    pub weight_elems: usize,
}

/// One node of a lowered plan.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeLayout {
    /// The node's first input shape (the graph input for source layers),
    /// the shape its work is costed and cut over.
    pub input: Shape,
    /// The node's output shape.
    pub output: Shape,
    /// The node whose output buffer this node writes: itself, or the
    /// concat whose join buffer it writes its channels into.
    pub buffer: NodeId,
    /// That buffer's size at the plan's storage dtype.
    pub buffer_bytes: usize,
    /// True when the placement is a channel-wise split.
    pub split: bool,
    /// True for a concat that joins in place (an elided concat): it has
    /// at least two inputs, each read by it alone and none itself joined
    /// in place (its buffer would have to be a view into this one), so
    /// its branches already wrote the join.
    pub elided: bool,
    /// Every part of the placement in plan order, empty shares included
    /// (they still hold their weight buffers); [`NodeLayout::running`]
    /// names the ones that execute.
    pub parts: Vec<PartLayout>,
}

impl NodeLayout {
    /// The parts that execute. A share rounded to zero channels runs no
    /// kernel and pays no issue or merge-wait overhead; this one rule is
    /// what the engine schedules and the evaluator computes.
    pub(crate) fn running(&self) -> impl Iterator<Item = &PartLayout> {
        self.parts.iter().filter(|p| p.share > 0.0)
    }
}

/// An [`ExecutionPlan`] lowered over its graph: see the module docs.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanLayout {
    /// The plan-wide activation storage dtype.
    pub storage: DType,
    /// One entry per graph node, in node order.
    pub nodes: Vec<NodeLayout>,
}

impl ExecutionPlan {
    /// Validates the plan against `graph` and lowers it into the
    /// [`PlanLayout`] the executors read. A plan that fails the
    /// structural checks is [`TensorError::BadGraph`] naming the first
    /// problem; a graph whose shapes do not infer returns that error.
    pub fn layout(&self, graph: &Graph) -> Result<PlanLayout, TensorError> {
        self.validate(graph).map_err(TensorError::BadGraph)?;
        let shapes = graph.infer_shapes()?;
        let storage = self.storage_dtype();
        // How many input slots read each node's output.
        let mut readers = vec![0usize; graph.len()];
        for d in graph.nodes().iter().flat_map(|n| &n.inputs) {
            readers[d.0] += 1;
        }
        let mut nodes: Vec<NodeLayout> = Vec::with_capacity(graph.len());
        let placed = graph.nodes().iter().zip(&self.placements);
        for (i, ((node, placement), output)) in placed.zip(shapes).enumerate() {
            let input = match node.inputs.first() {
                Some(d) => nodes[d.0].output.clone(),
                None => graph.input_shape().clone(),
            };
            let buffer_bytes = output.numel() * storage.size_bytes();
            // Inputs precede their consumers, so each branch's layout is
            // final here and a branch of a join writes the join's buffer.
            let elided = matches!(node.kind, LayerKind::Concat)
                && node.inputs.len() >= 2
                && (node.inputs.iter()).all(|d| readers[d.0] == 1 && !nodes[d.0].elided);
            if elided {
                for d in &node.inputs {
                    (nodes[d.0].buffer, nodes[d.0].buffer_bytes) = (NodeId(i), buffer_bytes);
                }
            }
            nodes.push(NodeLayout {
                buffer: NodeId(i),
                buffer_bytes,
                parts: realize(&node.kind, &input, placement),
                input,
                output,
                split: matches!(placement, NodePlacement::Split { .. }),
                elided,
            });
        }
        Ok(PlanLayout { storage, nodes })
    }
}

/// The parts of one placement of `kind` over `input`, in plan order; a
/// single placement is one part owning every channel.
fn realize(kind: &LayerKind, input: &Shape, placement: &NodePlacement) -> Vec<PartLayout> {
    let cut = split_channels(kind, input);
    let channels = cut.map_or(0, |(_, c)| c);
    let weight_elems = kind.weight_count(input) + kind.bias_count(input);
    let part = |index, (device, dtypes, frac), c: Range<usize>| PartLayout {
        index,
        device,
        dtypes,
        range: cut.map(|(axis, _)| (axis, c.clone())),
        share: match channels {
            0 => frac,
            n => c.len() as f64 / n as f64,
        },
        weight_elems: split_weight_elems(weight_elems, c, channels),
    };
    match placement {
        NodePlacement::Single { device, dtypes } => {
            vec![part(0, (*device, *dtypes, 1.0), 0..channels)]
        }
        NodePlacement::Split { parts } => {
            let fracs: Vec<f64> = parts.iter().map(|p| p.2).collect();
            let cuts = split_cuts(channels, &fracs);
            let cuts = cuts.windows(2).map(|c| c[0]..c[1]);
            (parts.iter().zip(cuts).enumerate())
                .map(|(index, (&p, c))| part(index, p, c))
                .collect()
        }
    }
}

/// The axis a layer's channel-wise split runs along and how many
/// channels it distributes (§3.2): output channels for filter-sliced
/// layers (conv, FC), input channels for input-sliced layers (depthwise
/// conv, pooling). `None` for layers that cannot be channel-split.
fn split_channels(kind: &LayerKind, input: &Shape) -> Option<(SplitAxis, usize)> {
    match kind {
        LayerKind::Conv { oc, .. } => Some((SplitAxis::Filters, *oc)),
        LayerKind::FullyConnected { out, .. } => Some((SplitAxis::Filters, *out)),
        LayerKind::DepthwiseConv { .. } | LayerKind::Pool { .. } | LayerKind::GlobalAvgPool => {
            Some((SplitAxis::InputChannels, input.c()))
        }
        _ => None,
    }
}

/// The share of a layer's `E` weight/bias elements held by the part
/// owning `cut` of its `C` channels: `⌊E·hi/C⌋ − ⌊E·lo/C⌋`. The terms
/// telescope, so over any cut sequence the parts sum exactly to `E` and
/// split weight-buffer bytes agree with the single-placement total.
fn split_weight_elems(weight_elems: usize, cut: Range<usize>, channels: usize) -> usize {
    match channels {
        0 => 0,
        c => weight_elems * cut.end / c - weight_elems * cut.start / c,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usoc::SocSpec;

    fn conv_kind(oc: usize) -> LayerKind {
        LayerKind::Conv {
            oc,
            k: 3,
            stride: 1,
            pad: 1,
            relu: true,
        }
    }

    #[test]
    fn split_channels_follow_the_split_axis() {
        let input = Shape::nchw(1, 32, 28, 28);
        let fc = LayerKind::FullyConnected {
            out: 10,
            relu: false,
        };
        let pool = LayerKind::Pool {
            func: unn::PoolFunc::Max,
            k: 2,
            stride: 2,
            pad: 0,
        };
        for (kind, want) in [
            (conv_kind(64), Some((SplitAxis::Filters, 64))),
            (fc, Some((SplitAxis::Filters, 10))),
            (pool, Some((SplitAxis::InputChannels, 32))),
            (
                LayerKind::GlobalAvgPool,
                Some((SplitAxis::InputChannels, 32)),
            ),
            (LayerKind::Softmax, None),
            (LayerKind::Concat, None),
        ] {
            assert_eq!(split_channels(&kind, &input), want, "{}", kind.op_name());
        }
    }

    #[test]
    fn split_weight_elems_sum_exactly() {
        for (elems, channels) in [(577usize, 7usize), (64 * 32 * 9 + 64, 64), (10, 3), (0, 4)] {
            for fracs in [vec![0.5, 0.5], vec![0.97, 0.03], vec![0.2, 0.3, 0.5]] {
                let cuts = split_cuts(channels, &fracs);
                let sum: usize = (cuts.windows(2))
                    .map(|c| split_weight_elems(elems, c[0]..c[1], channels))
                    .sum();
                assert_eq!(sum, elems, "{cuts:?}");
            }
        }
        // Degenerate zero-channel layer: nothing to distribute.
        assert_eq!(split_weight_elems(10, 0..0, 0), 0);
    }

    #[test]
    fn parts_run_their_realized_whole_channels() {
        // `(channels, CPU share)` → realized ranges and shares: 0.37 of 16
        // channels runs 6 (0.375); 0.03 of 6 runs none, so that part keeps
        // its place (and its empty weight buffer) but does not run; a
        // zero-channel layer keeps its nominal shares.
        let spec = SocSpec::exynos_7420();
        for (oc, cpu_share, cut, shares) in [
            (16, 0.37, 6, [0.375, 0.625]),
            (6, 0.97, 6, [1.0, 0.0]),
            (0, 0.25, 0, [0.25, 0.75]),
        ] {
            let mut g = Graph::new("g", Shape::nchw(1, 3, 8, 8));
            g.add_input_layer("conv", conv_kind(oc));
            let dtypes = DtypePlan::uniform(DType::F32);
            let plan = ExecutionPlan {
                placements: vec![NodePlacement::Split {
                    parts: vec![
                        (spec.cpu(), dtypes, cpu_share),
                        (spec.gpu(), dtypes, 1.0 - cpu_share),
                    ],
                }],
                label: "split".into(),
            };
            let node = &plan.layout(&g).unwrap().nodes[0];
            let ranges: Vec<_> = node.parts.iter().map(|p| p.range.clone()).collect();
            let axis = SplitAxis::Filters;
            assert_eq!(ranges, [Some((axis, 0..cut)), Some((axis, cut..oc))]);
            assert_eq!(
                node.parts.iter().map(|p| p.share).collect::<Vec<_>>(),
                shares
            );
            let weights: usize = node.parts.iter().map(|p| p.weight_elems).sum();
            assert_eq!(weights, oc * 3 * 9 + oc, "{oc} channels");
            let running = node.running().count();
            assert_eq!(running, shares.iter().filter(|&&s| s > 0.0).count());
        }
    }
}
