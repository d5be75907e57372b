//! Branch distribution (§5).
//!
//! For networks with divergent branches (Inception, Fire), per-layer
//! channel splitting exposes CPU↔GPU synchronization on every small
//! layer. Branch distribution instead assigns *whole branches* to
//! processors and runs them in parallel: it collects each branch's
//! CPU-only and GPU-only latency estimates, enumerates every
//! branch-to-processor mapping, estimates each mapping's latency as the
//! max over per-processor sums, and keeps the best (the paper's exact
//! procedure). A group is rewritten only when the best mapping beats the
//! partitioner's per-layer plan for the same nodes — this is the
//! "selectively increases the distribution granularity" of the abstract.

use simcore::SimSpan;
use usoc::{DeviceId, DeviceKind, SocSpec};
use utensor::Shape;

use unn::{Graph, NodeId};
use uruntime::NodePlacement;

use crate::config::ULayerConfig;
use crate::error::ULayerError;
use crate::partitioner::{device_dtypes, LayerCoster};
use crate::planning::{PlanContext, PlanDraft, PlanPass, PlanPassReport};

/// A branch mapping replaces the per-layer plan only when its predicted
/// latency beats the per-layer estimate by this factor. The margin
/// absorbs latency-predictor error so that borderline mappings (which
/// could regress at runtime) are left to the channel-wise plan — the
/// "selective" in §5's selective granularity increase.
const APPLY_MARGIN: f64 = 0.97;

/// The outcome of optimizing one branch group.
#[derive(Clone, Debug)]
pub struct BranchMapping {
    /// The group's join node (identifies the group).
    pub join: NodeId,
    /// Chosen processor per branch (parallel to the group's branches).
    pub assignment: Vec<DeviceId>,
    /// Predicted latency of the chosen mapping.
    pub mapped_cost: SimSpan,
    /// Predicted latency of the per-layer (channel-split) plan it
    /// replaces.
    pub baseline_cost: SimSpan,
}

/// Estimates one branch's serialized latency on one device.
///
/// Returns `(device_time, host_time)`: the time the branch occupies its
/// device's timeline (kernel chain) and the time it occupies the *host*
/// timeline (CPU dispatch for CPU branches; asynchronous command issues
/// for accelerator branches). The host time of GPU branches competes
/// with the CPU branches for the host, which the mapping cost accounts
/// for.
fn branch_cost(
    coster: &LayerCoster<'_>,
    graph: &Graph,
    shapes: &[Shape],
    branch: &[NodeId],
    device: DeviceId,
) -> Option<(SimSpan, SimSpan)> {
    let mut device_time = SimSpan::ZERO;
    let mut host_time = SimSpan::ZERO;
    for &id in branch {
        let node = graph.node(id);
        let in_shape = graph.node_input_shape(id, shapes);
        let dtypes = device_dtypes(coster.spec, device, coster.cfg);
        let work = usoc::layer_work(&node.kind, in_shape, &shapes[id.0], dtypes, 1.0);
        let kernel = coster.corrected(
            device,
            work.class,
            coster.predictor.predict(device, &work).ok()?,
        );
        match coster.spec.devices[device.0].kind {
            DeviceKind::CpuCluster => {
                device_time += kernel + coster.spec.cpu_dispatch_span();
            }
            DeviceKind::Gpu | DeviceKind::Npu => {
                device_time += kernel;
                host_time += coster.spec.gpu_issue_span();
            }
        }
    }
    Some((device_time, host_time))
}

/// Optimizes every branch group of `graph`, rewriting `placements` in
/// place where a branch mapping beats the per-layer plan.
///
/// `layer_costs` are the partitioner's predicted per-node costs for the
/// current placements.
pub(crate) fn apply_branch_distribution(
    spec: &SocSpec,
    coster: &LayerCoster<'_>,
    cfg: &ULayerConfig,
    graph: &Graph,
    placements: &mut [NodePlacement],
    layer_costs: &[SimSpan],
) -> Result<Vec<BranchMapping>, ULayerError> {
    let shapes = graph.infer_shapes()?;
    let groups = unn::find_branch_groups(graph);
    let cpu = spec.cpu();
    // Branch distribution maps whole branches onto the CPU/GPU pair
    // (§3.3); a spec without a GPU (an MCU mesh, say) has nothing to
    // map onto and keeps its per-layer placements.
    let Some(gpu) = spec.find(DeviceKind::Gpu) else {
        return Ok(Vec::new());
    };
    let mut applied = Vec::new();

    for group in &groups {
        let b = group.branches.len();
        if b == 0 || b > 16 {
            continue;
        }
        // Per-branch, per-device serialized costs.
        let mut cpu_costs = Vec::with_capacity(b);
        let mut gpu_costs = Vec::with_capacity(b);
        let mut feasible = true;
        for branch in &group.branches {
            match (
                branch_cost(coster, graph, &shapes, branch, cpu),
                branch_cost(coster, graph, &shapes, branch, gpu),
            ) {
                (Some(c), Some(g)) => {
                    cpu_costs.push(c);
                    gpu_costs.push(g);
                }
                _ => {
                    feasible = false;
                    break;
                }
            }
        }
        if !feasible {
            continue;
        }

        // Enumerate every branch-to-processor mapping (2^b).
        let mut best: Option<(u32, SimSpan)> = None;
        for mask in 0..(1u32 << b) {
            let total = mapping_cost(spec, &cpu_costs, &gpu_costs, mask);
            if best.map(|(_, c)| total < c).unwrap_or(true) {
                best = Some((mask, total));
            }
        }
        let (mask, mapped_cost) = best.expect("at least one mapping");

        // The per-layer baseline cost of the same nodes (serial sum of
        // the partitioner's choices).
        let baseline_cost: SimSpan = group
            .branches
            .iter()
            .flatten()
            .map(|id| layer_costs[id.0])
            .sum();

        if mapped_cost.as_secs_f64() < baseline_cost.as_secs_f64() * APPLY_MARGIN {
            let mut assignment = Vec::with_capacity(b);
            for (i, branch) in group.branches.iter().enumerate() {
                let device = if mask & (1 << i) != 0 { gpu } else { cpu };
                assignment.push(device);
                for &id in branch {
                    placements[id.0] = NodePlacement::Single {
                        device,
                        dtypes: device_dtypes(spec, device, cfg),
                    };
                }
            }
            applied.push(BranchMapping {
                join: group.join,
                assignment,
                mapped_cost,
                baseline_cost,
            });
        }
    }
    Ok(applied)
}

/// The estimated latency of one branch-to-processor mapping: the host
/// timeline runs the CPU branches *plus* the GPU branches' command
/// issues; the GPU timeline runs the GPU kernel chains; the two proceed
/// in parallel and the host pays one synchronization at the join.
///
/// `mask` bit `i` set assigns branch `i` to the GPU. Costs are the
/// `(device_time, host_time)` pairs from the per-branch estimator.
pub(crate) fn mapping_cost(
    spec: &SocSpec,
    cpu_costs: &[(SimSpan, SimSpan)],
    gpu_costs: &[(SimSpan, SimSpan)],
    mask: u32,
) -> SimSpan {
    let mut host_sum = SimSpan::ZERO;
    let mut gpu_sum = SimSpan::ZERO;
    for i in 0..cpu_costs.len() {
        if mask & (1 << i) != 0 {
            gpu_sum += gpu_costs[i].0;
            host_sum += gpu_costs[i].1; // async issues occupy the host
        } else {
            host_sum += cpu_costs[i].0;
        }
    }
    let mut total = host_sum.max(gpu_sum);
    if mask != 0 {
        total += spec.gpu_wait_span() + spec.map_span();
    }
    total
}

/// The §5 stage of the planning pipeline: rewrites divergent branch
/// groups branch-per-processor where the mapping beats the per-layer
/// plan. Reports a no-op when the configuration disables the mechanism;
/// errors if it runs before a partitioning pass populated the draft.
pub(crate) struct BranchDistributionPass;

impl PlanPass for BranchDistributionPass {
    fn name(&self) -> &'static str {
        "branch-distribution"
    }

    fn run(
        &self,
        cx: &PlanContext<'_>,
        draft: &mut PlanDraft,
    ) -> Result<PlanPassReport, ULayerError> {
        if !cx.config.branch_distribution {
            return Ok(PlanPassReport {
                pass: self.name(),
                rewrites: 0,
                detail: "disabled by configuration".into(),
            });
        }
        if draft.placements.len() != cx.graph.len() {
            return Err(ULayerError::Plan(
                "branch distribution requires a fully partitioned draft \
                 (order a partition pass before it)"
                    .into(),
            ));
        }
        let coster = LayerCoster {
            spec: cx.spec,
            predictor: cx.predictor,
            cfg: cx.config,
            drift: cx.drift,
        };
        let mappings = apply_branch_distribution(
            cx.spec,
            &coster,
            cx.config,
            cx.graph,
            &mut draft.placements,
            &draft.costs,
        )?;
        let rewrites: usize = mappings.iter().map(|m| m.assignment.len()).sum();
        let detail = format!("{} branch groups remapped", mappings.len());
        draft.branch_mappings.extend(mappings);
        Ok(PlanPassReport {
            pass: self.name(),
            rewrites,
            detail,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::tests::partitioned;
    use crate::predictor::LatencyPredictor;

    fn setup() -> (SocSpec, LatencyPredictor, ULayerConfig) {
        let spec = SocSpec::exynos_7420();
        let pred = LatencyPredictor::train(&spec).unwrap();
        (spec, pred, ULayerConfig::full())
    }

    #[test]
    fn googlenet_gets_branch_mappings() {
        let (spec, pred, cfg) = setup();
        let g = unn::ModelId::GoogLeNet.build();
        let (mut placements, costs) = partitioned(&spec, &pred, &cfg, &g, &spec.device_ids());
        let coster = LayerCoster {
            spec: &spec,
            predictor: &pred,
            cfg: &cfg,
            drift: None,
        };
        let applied =
            apply_branch_distribution(&spec, &coster, &cfg, &g, &mut placements, &costs).unwrap();
        // The Inception modules' small layers make branch mapping a win
        // for at least some modules.
        assert!(
            !applied.is_empty(),
            "no branch mapping applied on GoogLeNet"
        );
        for m in &applied {
            assert!(m.mapped_cost < m.baseline_cost);
            // Both processors should participate in a 4-branch module.
            let has_cpu = m.assignment.iter().any(|&d| d == spec.cpu());
            let has_gpu = m.assignment.iter().any(|&d| d == spec.gpu());
            assert!(has_cpu && has_gpu, "degenerate mapping {:?}", m.assignment);
        }
    }

    #[test]
    fn mapped_nodes_become_singles() {
        let (spec, pred, cfg) = setup();
        let g = unn::ModelId::SqueezeNet.build();
        let (mut placements, costs) = partitioned(&spec, &pred, &cfg, &g, &spec.device_ids());
        let coster = LayerCoster {
            spec: &spec,
            predictor: &pred,
            cfg: &cfg,
            drift: None,
        };
        let applied =
            apply_branch_distribution(&spec, &coster, &cfg, &g, &mut placements, &costs).unwrap();
        for m in &applied {
            let groups = unn::find_branch_groups(&g);
            let group = groups.iter().find(|grp| grp.join == m.join).unwrap();
            for branch in &group.branches {
                for &id in branch {
                    assert!(
                        matches!(placements[id.0], NodePlacement::Single { .. }),
                        "branch node {id} still split"
                    );
                }
            }
        }
    }

    #[test]
    fn chosen_mapping_is_exhaustively_optimal() {
        let (spec, _, _) = setup();
        // Synthetic 4-branch (device, host) costs echoing Figure 12's
        // asymmetry; GPU branches put their issue time on the host.
        let us = |v: u64| SimSpan::from_micros(v);
        let iss = spec.gpu_issue_span();
        let cpu_costs: Vec<(SimSpan, SimSpan)> = [900u64, 2500, 1200, 800]
            .iter()
            .map(|&v| (us(v), us(v)))
            .collect();
        let gpu_costs: Vec<(SimSpan, SimSpan)> = [1100u64, 2100, 1500, 700]
            .iter()
            .map(|&v| (us(v), iss))
            .collect();
        let mut best_mask = 0u32;
        let mut best = SimSpan::from_millis(1_000);
        for mask in 0..16u32 {
            let c = mapping_cost(&spec, &cpu_costs, &gpu_costs, mask);
            if c < best {
                best = c;
                best_mask = mask;
            }
        }
        // Brute-force re-check.
        for mask in 0..16u32 {
            assert!(mapping_cost(&spec, &cpu_costs, &gpu_costs, mask) >= best);
        }
        // The best mapping must use both processors (pure-CPU serializes
        // everything; the numbers above make that clearly worse).
        assert!(best_mask != 0 && best_mask != 15, "mask = {best_mask:#b}");
    }

    #[test]
    fn linear_networks_are_untouched() {
        let (spec, pred, cfg) = setup();
        let g = unn::ModelId::Vgg16.build();
        let (mut placements, costs) = partitioned(&spec, &pred, &cfg, &g, &spec.device_ids());
        let before = placements.clone();
        let coster = LayerCoster {
            spec: &spec,
            predictor: &pred,
            cfg: &cfg,
            drift: None,
        };
        let applied =
            apply_branch_distribution(&spec, &coster, &cfg, &g, &mut placements, &costs).unwrap();
        assert!(applied.is_empty());
        assert_eq!(before.len(), placements.len());
        for (a, b) in before.iter().zip(&placements) {
            assert_eq!(a, b);
        }
    }
}
