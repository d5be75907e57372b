//! Execution plans: who runs each layer, in what dtypes, at what split.
//!
//! A plan assigns every graph node a [`NodePlacement`]: either a single
//! processor or a channel-wise split across several processors (§3.2).
//! Baseline mechanisms produce all-`Single` plans; μLayer's partitioner
//! and branch distributor produce mixed plans. Every executor runs a plan
//! through its one lowering, [`ExecutionPlan::layout`] (`crate::layout`),
//! which validates it, realizes its nominal fractions as whole-channel
//! cuts and decides which concats join in place, so every mechanism
//! shares scheduling, timing, energy, and numeric machinery.

use usoc::{DeviceId, DtypePlan, SocSpec};
use utensor::{DType, TensorError};

use unn::Graph;

/// Where (and how) one layer executes.
#[derive(Clone, Debug, PartialEq)]
pub enum NodePlacement {
    /// The whole layer on one processor.
    Single {
        /// The processor.
        device: DeviceId,
        /// Storage/compute dtypes on that processor.
        dtypes: DtypePlan,
    },
    /// Channel-wise workload distribution across processors. Fractions
    /// must be positive and sum to 1.
    Split {
        /// `(processor, dtypes, fraction of output channels)` per part.
        parts: Vec<(DeviceId, DtypePlan, f64)>,
    },
}

impl NodePlacement {
    /// A single-processor placement with uniform dtypes.
    pub fn single(device: DeviceId, dtype: DType) -> NodePlacement {
        NodePlacement::Single {
            device,
            dtypes: DtypePlan::uniform(dtype),
        }
    }

    /// The devices this placement touches.
    pub fn devices(&self) -> Vec<DeviceId> {
        match self {
            NodePlacement::Single { device, .. } => vec![*device],
            NodePlacement::Split { parts } => parts.iter().map(|p| p.0).collect(),
        }
    }

    /// The storage dtype of the produced tensor.
    pub(crate) fn storage_dtype(&self) -> DType {
        match self {
            NodePlacement::Single { dtypes, .. } => dtypes.storage,
            NodePlacement::Split { parts } => {
                parts.first().map(|p| p.1.storage).unwrap_or(DType::F32)
            }
        }
    }
}

/// A complete execution plan for a graph.
#[derive(Clone, Debug)]
pub struct ExecutionPlan {
    /// One placement per node, in node order.
    pub placements: Vec<NodePlacement>,
    /// Short mechanism label for reports (e.g. `"layer-to-processor"`).
    pub label: String,
}

impl ExecutionPlan {
    /// Builds a plan, validating it against the graph and SoC: the
    /// structural checks of [`ExecutionPlan::validate`], every referenced
    /// device exists, and — what the planner owes on top of what the
    /// executors need — split fractions are positive and sum to ~1.
    pub fn new(
        graph: &Graph,
        spec: &SocSpec,
        placements: Vec<NodePlacement>,
        label: impl Into<String>,
    ) -> Result<ExecutionPlan, TensorError> {
        let plan = ExecutionPlan {
            placements,
            label: label.into(),
        };
        plan.validate(graph).map_err(TensorError::BadGraph)?;
        for (i, p) in plan.placements.iter().enumerate() {
            for dev in p.devices() {
                if spec.device(dev).is_err() {
                    return Err(TensorError::BadGraph(format!(
                        "placement {i} references unknown device {dev}"
                    )));
                }
            }
            if let NodePlacement::Split { parts } = p {
                let sum: f64 = parts.iter().map(|p| p.2).sum();
                if parts.iter().any(|p| p.2 <= 0.0) || (sum - 1.0).abs() > 1e-6 {
                    return Err(TensorError::BadGraph(format!(
                        "placement {i}: split fractions must be positive and sum to 1 (sum = {sum})"
                    )));
                }
            }
        }
        Ok(plan)
    }

    /// The structural checks every consumer of a plan relies on. The
    /// fields are public, so a plan can be mutated after construction;
    /// [`ExecutionPlan::layout`] runs this before indexing anything, and
    /// a failure names the first problem:
    ///
    /// - one placement per node;
    /// - every placement stores activations in the same dtype (consumers
    ///   must be able to read producers' outputs without extra
    ///   conversions);
    /// - a split has at least two parts, finite shares in `[0, 1]`, and
    ///   sits on a distributable layer (§3.2).
    pub(crate) fn validate(&self, graph: &Graph) -> Result<(), String> {
        if self.placements.len() != graph.len() {
            return Err(format!(
                "plan has {} placements for {} nodes",
                self.placements.len(),
                graph.len()
            ));
        }
        let storage = self.storage_dtype();
        for (i, p) in self.placements.iter().enumerate() {
            if p.storage_dtype() != storage {
                return Err(format!(
                    "placement {i} stores {} but the plan stores {storage}",
                    p.storage_dtype()
                ));
            }
            if let NodePlacement::Split { parts } = p {
                if parts.len() < 2 {
                    return Err(format!("placement {i}: split needs >= 2 parts"));
                }
                if let Some(&(_, _, f)) = parts
                    .iter()
                    .find(|p| !p.2.is_finite() || !(0.0..=1.0).contains(&p.2))
                {
                    return Err(format!("placement {i} has a split share of {f}"));
                }
                if !graph.nodes()[i].kind.is_distributable() {
                    return Err(format!(
                        "placement {i}: {} is not channel-distributable",
                        graph.nodes()[i].kind.op_name()
                    ));
                }
            }
        }
        Ok(())
    }

    /// The spec half of validation, which the timing engine adds to
    /// [`ExecutionPlan::layout`]: every placement is on a device the spec
    /// has and the host can reach over its links.
    pub(crate) fn validate_for(&self, spec: &SocSpec) -> Result<(), String> {
        let host = spec.cpu();
        for (i, p) in self.placements.iter().enumerate() {
            // There is no route to a device the spec does not have, either.
            if let Some(d) = p
                .devices()
                .into_iter()
                .find(|&d| spec.route(host, d).is_none())
            {
                return Err(format!(
                    "placement {i} is on {d}, which the spec lacks or the host cannot reach"
                ));
            }
        }
        Ok(())
    }

    /// The plan-wide activation storage dtype.
    pub(crate) fn storage_dtype(&self) -> DType {
        self.placements
            .first()
            .map(NodePlacement::storage_dtype)
            .unwrap_or(DType::F32)
    }

    /// Number of layers executed cooperatively (split across devices).
    pub fn split_count(&self) -> usize {
        self.placements
            .iter()
            .filter(|p| matches!(p, NodePlacement::Split { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use unn::{LayerKind, ModelId, NodeId};
    use utensor::Shape;

    fn graph() -> Graph {
        let mut g = Graph::new("g", Shape::nchw(1, 3, 8, 8));
        let c = g.add_input_layer(
            "conv",
            LayerKind::Conv {
                oc: 8,
                k: 3,
                stride: 1,
                pad: 1,
                relu: true,
            },
        );
        g.add("softmax", LayerKind::Softmax, c);
        g
    }

    #[test]
    fn valid_single_plan() {
        let g = graph();
        let soc = SocSpec::exynos_7420();
        let p = ExecutionPlan::new(
            &g,
            &soc,
            vec![
                NodePlacement::single(soc.cpu(), DType::F32),
                NodePlacement::single(soc.cpu(), DType::F32),
            ],
            "test",
        )
        .unwrap();
        assert_eq!(p.split_count(), 0);
        assert_eq!(p.storage_dtype(), DType::F32);
    }

    #[test]
    fn valid_split_plan() {
        let g = graph();
        let soc = SocSpec::exynos_7420();
        let p = ExecutionPlan::new(
            &g,
            &soc,
            vec![
                NodePlacement::Split {
                    parts: vec![
                        (soc.cpu(), DtypePlan::proc_friendly_cpu(), 0.5),
                        (soc.gpu(), DtypePlan::proc_friendly_gpu(), 0.5),
                    ],
                },
                NodePlacement::single(soc.cpu(), DType::QUInt8),
            ],
            "ulayer",
        )
        .unwrap();
        assert_eq!(p.split_count(), 1);
        assert_eq!(p.storage_dtype(), DType::QUInt8);
    }

    #[test]
    fn wrong_length_rejected() {
        let g = graph();
        let soc = SocSpec::exynos_7420();
        assert!(ExecutionPlan::new(
            &g,
            &soc,
            vec![NodePlacement::single(soc.cpu(), DType::F32)],
            "bad"
        )
        .is_err());
    }

    #[test]
    fn bad_fractions_rejected() {
        let g = graph();
        let soc = SocSpec::exynos_7420();
        for fracs in [vec![0.5, 0.4], vec![1.2, -0.2]] {
            let parts: Vec<_> = fracs
                .iter()
                .map(|&f| (soc.cpu(), DtypePlan::uniform(DType::F32), f))
                .collect();
            assert!(ExecutionPlan::new(
                &g,
                &soc,
                vec![
                    NodePlacement::Split { parts },
                    NodePlacement::single(soc.cpu(), DType::F32),
                ],
                "bad"
            )
            .is_err());
        }
    }

    #[test]
    fn split_on_softmax_rejected() {
        let g = graph();
        let soc = SocSpec::exynos_7420();
        assert!(ExecutionPlan::new(
            &g,
            &soc,
            vec![
                NodePlacement::single(soc.cpu(), DType::F32),
                NodePlacement::Split {
                    parts: vec![
                        (soc.cpu(), DtypePlan::uniform(DType::F32), 0.5),
                        (soc.gpu(), DtypePlan::uniform(DType::F32), 0.5),
                    ],
                },
            ],
            "bad"
        )
        .is_err());
    }

    #[test]
    fn mixed_storage_rejected() {
        let g = graph();
        let soc = SocSpec::exynos_7420();
        assert!(ExecutionPlan::new(
            &g,
            &soc,
            vec![
                NodePlacement::single(soc.cpu(), DType::QUInt8),
                NodePlacement::single(soc.cpu(), DType::F32),
            ],
            "bad"
        )
        .is_err());
    }

    fn conv(oc: usize) -> LayerKind {
        LayerKind::Conv {
            oc,
            k: 3,
            stride: 1,
            pad: 1,
            relu: true,
        }
    }

    /// The concats a single-CPU plan over `g` joins in place.
    fn elided(g: &Graph) -> BTreeSet<usize> {
        let soc = SocSpec::exynos_7420();
        let plan = crate::single_processor_plan(g, &soc, soc.cpu(), DType::F32).unwrap();
        let layout = plan.layout(g).unwrap();
        for (i, node) in layout.nodes.iter().enumerate() {
            // A branch of an in-place join writes the join's buffer.
            let join = (g.nodes().iter().enumerate())
                .find(|(c, n)| layout.nodes[*c].elided && n.inputs.contains(&NodeId(i)));
            let buffer = join.map_or(i, |(c, _)| c);
            assert_eq!(node.buffer, NodeId(buffer), "{}", g.nodes()[i].name);
        }
        (layout.nodes.iter().enumerate())
            .filter(|(_, n)| n.elided)
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn concat_elision_marks_single_consumer_joins_only() {
        let mut g = Graph::new("c", Shape::nchw(1, 4, 8, 8));
        let stem = g.add_input_layer("stem", conv(4));
        let a = g.add("a", conv(2), stem);
        let b = g.add("b", conv(3), stem);
        let j1 = g.add_multi("j1", LayerKind::Concat, &[a, b]);
        // The second join reads the stem (which has other consumers) and
        // the first join.
        let j2 = g.add_multi("j2", LayerKind::Concat, &[j1, stem]);
        g.add("gap", LayerKind::GlobalAvgPool, j2);
        // j1 is elidable (a and b each feed only j1). j2 is not: stem
        // has three consumers, and j1 is already elided.
        assert_eq!(elided(&g), BTreeSet::from([j1.0]));
    }

    #[test]
    fn nested_eligible_concats_elide_outer_only_inner() {
        // Both joins structurally single-consumer: the inner one wins,
        // the outer is skipped (no views-of-views).
        let mut g = Graph::new("n", Shape::nchw(1, 4, 8, 8));
        let stem = g.add_input_layer("stem", conv(4));
        let a = g.add("a", conv(2), stem);
        let b = g.add("b", conv(3), stem);
        let inner = g.add_multi("inner", LayerKind::Concat, &[a, b]);
        let c = g.add("c", conv(2), stem);
        let outer = g.add_multi("outer", LayerKind::Concat, &[inner, c]);
        g.add("gap", LayerKind::GlobalAvgPool, outer);
        assert_eq!(elided(&g), BTreeSet::from([inner.0]));
    }

    #[test]
    fn googlenet_concats_all_elide() {
        let g = ModelId::GoogLeNet.build_miniature();
        let concats: BTreeSet<usize> = (g.nodes().iter().enumerate())
            .filter(|(_, n)| matches!(n.kind, LayerKind::Concat))
            .map(|(i, _)| i)
            .collect();
        assert!(
            concats.len() >= 2,
            "miniature googlenet keeps its inceptions"
        );
        assert_eq!(elided(&g), concats);
    }

    #[test]
    fn elision_counts_across_the_zoo() {
        // (net, full-size elisions, miniature elisions): only the fire and
        // inception joins elide.
        let counts = [
            (ModelId::SqueezeNet, 8, 3),
            (ModelId::GoogLeNet, 9, 2),
            (ModelId::Vgg16, 0, 0),
            (ModelId::AlexNet, 0, 0),
            (ModelId::MobileNet, 0, 0),
            (ModelId::ResNet18, 0, 0),
            (ModelId::LeNet, 0, 0),
        ];
        for (id, full, mini) in counts {
            assert_eq!(elided(&id.build()).len(), full, "{}", id.name());
            assert_eq!(
                elided(&id.build_miniature()).len(),
                mini,
                "{} mini",
                id.name()
            );
        }
    }

    #[test]
    fn unknown_device_rejected() {
        let g = graph();
        let soc = SocSpec::exynos_7420();
        assert!(ExecutionPlan::new(
            &g,
            &soc,
            vec![
                NodePlacement::single(DeviceId(17), DType::F32),
                NodePlacement::single(soc.cpu(), DType::F32),
            ],
            "bad"
        )
        .is_err());
    }
}
