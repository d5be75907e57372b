//! Planning as an ordered pass pipeline.
//!
//! PR 7 turns the planner's hard-wired sequence (partition, then maybe
//! branch-distribute) into the same shape as the graph-level pipeline in
//! [`unn::passes`]: each stage is a [`PlanPass`] over a mutable
//! [`PlanDraft`], run in order by a [`PlanPassRunner`] that records a
//! per-pass change report. Channel splits (§3.2) and branch
//! distribution (§5) now *compose* — a new planning stage (say, a
//! memory-pressure rebalancer) slots into the list instead of growing
//! `ULayer::plan` another special case — and the report log surfaces in
//! [`crate::PlanReport::pass_log`] for `repro passes`.
//!
//! The concrete passes live next to the logic they wrap:
//! [`crate::partitioner::PartitionPass`] and
//! [`crate::branch::BranchDistributionPass`].

use simcore::SimSpan;
use unn::Graph;
use uruntime::NodePlacement;
use usoc::{DeviceId, SocSpec};

use crate::adapt::DriftAdapter;
use crate::branch::{BranchDistributionPass, BranchMapping};
use crate::config::ULayerConfig;
use crate::error::ULayerError;
use crate::partitioner::PartitionPass;
use crate::predictor::LatencyPredictor;

/// Everything a planning pass may consult; immutable for the whole run.
pub struct PlanContext<'a> {
    /// The SoC being planned for.
    pub spec: &'a SocSpec,
    /// The trained latency predictor.
    pub predictor: &'a LatencyPredictor,
    /// The active mechanism configuration.
    pub config: &'a ULayerConfig,
    /// The network (already graph-optimized if the caller ran
    /// [`unn::optimize`]).
    pub graph: &'a Graph,
    /// Optional online drift correction (PR 3).
    pub drift: Option<&'a DriftAdapter>,
    /// The devices the partition stage may place layers on or split
    /// them across: the spec's full set for the cooperative plan, a
    /// surviving subset or a single processor for the degradation
    /// ladder's lower rungs. Branch distribution maps onto the spec's
    /// CPU/GPU pair, so a configuration planning over a subset turns it
    /// off (as the ladder's do).
    pub devices: &'a [DeviceId],
}

/// The mutable plan under construction.
///
/// Starts empty; [`PartitionPass`] fills both vectors to `graph.len()`,
/// later passes rewrite placements in place (costs stay the
/// partitioner's per-layer estimates, which is what the serial-latency
/// prediction and the degradation ladder consume).
#[derive(Clone, Debug, Default)]
pub struct PlanDraft {
    /// Per-node placements, parallel to `graph.nodes()` once populated.
    pub placements: Vec<NodePlacement>,
    /// Per-node predicted costs, parallel to `placements`.
    pub costs: Vec<SimSpan>,
    /// Branch mappings applied so far (§5).
    pub branch_mappings: Vec<BranchMapping>,
}

/// What one planning pass did — mirrors [`unn::PassReport`].
#[derive(Clone, Debug)]
pub struct PlanPassReport {
    /// [`PlanPass::name`] of the pass that produced this report.
    pub pass: &'static str,
    /// Number of placements this pass wrote or rewrote.
    pub rewrites: usize,
    /// Human-readable summary for `repro passes`.
    pub detail: String,
}

/// One stage of the planning pipeline.
pub trait PlanPass {
    /// Stable name used in reports and logs.
    fn name(&self) -> &'static str;

    /// Runs the pass, mutating `draft` and reporting what changed.
    fn run(
        &self,
        cx: &PlanContext<'_>,
        draft: &mut PlanDraft,
    ) -> Result<PlanPassReport, ULayerError>;
}

/// Runs an ordered list of planning passes and validates the result.
pub struct PlanPassRunner {
    passes: Vec<Box<dyn PlanPass>>,
}

impl PlanPassRunner {
    /// A runner over an explicit pass list.
    pub fn new(passes: Vec<Box<dyn PlanPass>>) -> PlanPassRunner {
        PlanPassRunner { passes }
    }

    /// The standard μLayer pipeline: partition every layer, then let
    /// branch distribution rewrite divergent regions where it wins.
    pub fn default_pipeline() -> PlanPassRunner {
        PlanPassRunner::new(vec![
            Box::new(PartitionPass),
            Box::new(BranchDistributionPass),
        ])
    }

    /// Names of the passes in run order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs every pass in order. After each pass the draft must remain
    /// coherent: placement and cost vectors either still empty (pass
    /// ran before partitioning) or exactly graph-sized. The finished
    /// draft must cover every node.
    pub fn run(
        &self,
        cx: &PlanContext<'_>,
    ) -> Result<(PlanDraft, Vec<PlanPassReport>), ULayerError> {
        let mut draft = PlanDraft::default();
        let mut log = Vec::with_capacity(self.passes.len());
        for pass in &self.passes {
            log.push(pass.run(cx, &mut draft)?);
            let n = draft.placements.len();
            if (n != 0 && n != cx.graph.len()) || draft.costs.len() != n {
                return Err(ULayerError::Plan(format!(
                    "pass '{}' left a malformed draft: {} placements / {} costs for {} nodes",
                    pass.name(),
                    n,
                    draft.costs.len(),
                    cx.graph.len()
                )));
            }
        }
        if draft.placements.len() != cx.graph.len() {
            return Err(ULayerError::Plan(format!(
                "planning pipeline [{}] produced no complete placement set",
                self.pass_names().join(", ")
            )));
        }
        Ok((draft, log))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::ULayer;
    use unn::ModelId;

    #[test]
    fn branch_pass_before_partition_is_rejected() {
        // Ordering is a contract: branch distribution rewrites an
        // existing placement set and must refuse an empty draft.
        let rt = ULayer::new(SocSpec::exynos_7420()).unwrap();
        let g = ModelId::GoogLeNet.build_miniature();
        let cx = PlanContext {
            spec: rt.spec(),
            predictor: rt.predictor(),
            config: rt.config(),
            graph: &g,
            drift: None,
            devices: &rt.spec().device_ids(),
        };
        let runner = PlanPassRunner::new(vec![Box::new(BranchDistributionPass)]);
        assert!(runner.run(&cx).is_err());
    }

    #[test]
    fn partition_only_pipeline_covers_every_node() {
        let rt = ULayer::new(SocSpec::exynos_7880()).unwrap();
        let g = ModelId::SqueezeNet.build_miniature();
        let cx = PlanContext {
            spec: rt.spec(),
            predictor: rt.predictor(),
            config: rt.config(),
            graph: &g,
            drift: None,
            devices: &rt.spec().device_ids(),
        };
        let runner = PlanPassRunner::new(vec![Box::new(PartitionPass)]);
        let (draft, log) = runner.run(&cx).unwrap();
        assert_eq!(draft.placements.len(), g.len());
        assert_eq!(draft.costs.len(), g.len());
        assert!(draft.branch_mappings.is_empty());
        assert_eq!(log.len(), 1);
    }
}
