//! Execution plans: who runs each layer, in what dtypes, at what split.
//!
//! A plan assigns every graph node a [`NodePlacement`]: either a single
//! processor or a channel-wise split across several processors (§3.2).
//! Baseline mechanisms produce all-`Single` plans; μLayer's partitioner
//! and branch distributor produce mixed plans. Every executor runs a plan
//! through its one lowering, [`ExecutionPlan::layout`] (`crate::layout`),
//! which validates it and realizes its nominal fractions as whole-channel
//! cuts, so every mechanism shares scheduling, timing, energy, and numeric
//! machinery.

use std::collections::BTreeSet;

use usoc::{DeviceId, DtypePlan, SocSpec};
use utensor::{DType, TensorError};

use unn::{Graph, LayerKind, NodeId};

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
    /// Concat nodes whose merge copy the scheduler elides: every branch
    /// writes its channel range directly into the join buffer, so the
    /// engine replaces the concat's copy kernel with a zero-span merge
    /// point (see [`ExecutionPlan::with_elided_concats`]). Empty unless
    /// the `elide-concats` pass annotated the graph.
    pub elided_concats: BTreeSet<usize>,
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
            elided_concats: BTreeSet::new(),
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
    ///   sits on a distributable layer (§3.2);
    /// - elided-concat indices are in range.
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
        match self.elided_concats.iter().find(|&&c| c >= graph.len()) {
            Some(c) => Err(format!(
                "elided concat index {c} out of range for a {}-node graph",
                graph.len()
            )),
            None => Ok(()),
        }
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

    /// Attaches a concat-elision set (from the `elide-concats` pass),
    /// revalidating it against the graph: every entry must be a concat
    /// with at least two inputs, each input consumed *only* by that
    /// concat, and no elided concat may feed another (the inner buffer
    /// would have to be a view into the outer one).
    ///
    /// The annotation only changes the timing engine's task graph — the
    /// functional evaluator computes the identical join either way — so
    /// a plan with a stale or foreign set fails here rather than
    /// silently under-costing merges.
    pub fn with_elided_concats(
        mut self,
        graph: &Graph,
        elided: BTreeSet<NodeId>,
    ) -> Result<ExecutionPlan, TensorError> {
        let consumers = graph.consumers();
        for &c in &elided {
            if c.0 >= graph.len() {
                return Err(TensorError::BadGraph(format!(
                    "elided concat {c} out of range for {} nodes",
                    graph.len()
                )));
            }
            let node = &graph.nodes()[c.0];
            if !matches!(node.kind, LayerKind::Concat) || node.inputs.len() < 2 {
                return Err(TensorError::BadGraph(format!(
                    "elided node {} is not a multi-input concat",
                    node.name
                )));
            }
            for &b in &node.inputs {
                if consumers.get(&Some(b)).map(Vec::as_slice) != Some(&[c]) {
                    return Err(TensorError::BadGraph(format!(
                        "branch {} of elided concat {} has other consumers",
                        graph.nodes()[b.0].name,
                        node.name
                    )));
                }
                if elided.contains(&b) {
                    return Err(TensorError::BadGraph(format!(
                        "elided concat {} feeds elided concat {}",
                        graph.nodes()[b.0].name,
                        node.name
                    )));
                }
            }
        }
        self.elided_concats = elided.into_iter().map(|id| id.0).collect();
        Ok(self)
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
    use unn::LayerKind;
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
