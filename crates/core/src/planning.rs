//! The one planning path (Figure 13, §5–§6).
//!
//! [`draft`] is how this crate turns a graph into placements: the NN
//! partitioner ([`crate::partition`]) asks the latency predictor for
//! each layer's best placement over [`PlanContext::devices`] — or copies
//! a base draft's decision where the margin test proves it unchanged —
//! and §5 branch distribution then rewrites the divergent groups where a
//! whole-branch mapping wins, over the same [`CostTables`] shapes.
//! [`crate::ULayer::plan_with_drift`], every degradation-ladder rung and
//! both kinds of plan-cache miss call it.

use simcore::SimSpan;
use unn::Graph;
use uruntime::NodePlacement;
use usoc::{DeviceId, SocSpec};

use crate::adapt::DriftAdapter;
use crate::branch::{apply_branch_distribution, BranchMapping};
use crate::config::ULayerConfig;
use crate::error::ULayerError;
use crate::partitioner::{partition, CostTables, LayerCoster, PlacementChoice};
use crate::plancache::{DriftSnapshot, PlanSource};
use crate::predictor::LatencyPredictor;

/// Everything planning consults; immutable for the whole run.
pub struct PlanContext<'a> {
    /// The SoC being planned for.
    pub spec: &'a SocSpec,
    /// The trained latency predictor.
    pub predictor: &'a LatencyPredictor,
    /// The active mechanism configuration.
    pub config: &'a ULayerConfig,
    /// The network, as built: nothing rewrites it, and concat elision
    /// is a property of every plan's lowering
    /// ([`uruntime::NodeLayout::elided`]).
    pub graph: &'a Graph,
    /// Optional online drift correction.
    pub drift: Option<&'a DriftAdapter>,
    /// The devices the partitioner may place layers on or split them
    /// across: the spec's full set for the cooperative plan, a
    /// surviving subset or a single processor for the degradation
    /// ladder's lower rungs. Branch distribution maps whole branches
    /// onto the spec's CPU and GPU, so it runs only when both are
    /// members.
    pub devices: &'a [DeviceId],
}

impl PlanContext<'_> {
    /// The layer coster over this context's spec, config and drift.
    pub(crate) fn coster(&self) -> LayerCoster<'_> {
        LayerCoster {
            spec: self.spec,
            predictor: self.predictor,
            cfg: self.config,
            drift: self.drift,
        }
    }
}

/// A plan before it becomes an [`uruntime::ExecutionPlan`].
#[derive(Clone, Debug)]
pub struct PlanDraft {
    /// Per-node placements, parallel to `graph.nodes()`.
    pub placements: Vec<NodePlacement>,
    /// Per-node predicted costs: the partitioner's per-layer estimates,
    /// which branch distribution leaves alone (the serial-latency
    /// prediction and the degradation ladder consume them).
    pub costs: Vec<SimSpan>,
    /// Branch mappings applied (§5).
    pub branch_mappings: Vec<BranchMapping>,
    /// The partitioner's decisions with their margins, before branch
    /// distribution: what a draft planned from this one as its base
    /// reuses.
    pub(crate) choices: Vec<PlacementChoice>,
    /// The drift state `choices` were made under.
    pub(crate) drift: DriftSnapshot,
    /// Whether the partitioner enumerated every layer or started from
    /// a base draft.
    pub(crate) source: PlanSource,
}

/// Plans `cx`: partitions every layer (from `base` where its decisions
/// still hold, see [`crate::partition`]), then applies branch
/// distribution when the configuration enables it. `tables` must have
/// been built for `cx`.
pub fn draft(
    cx: &PlanContext<'_>,
    tables: &CostTables,
    base: Option<&PlanDraft>,
) -> Result<PlanDraft, ULayerError> {
    let mut draft = partition(cx, tables, base)?;
    if cx.config.branch_distribution {
        draft.branch_mappings = apply_branch_distribution(
            &cx.coster(),
            cx.devices,
            cx.graph,
            &tables.shapes,
            &mut draft.placements,
            &draft.costs,
        );
    }
    Ok(draft)
}
