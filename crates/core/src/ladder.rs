//! Degradation-ladder emission: an ordered set of plans trading
//! fidelity and latency for resource footprint.
//!
//! The serving frontend ([`uruntime::serve_stream`]) needs more than one plan
//! per network: under overload the full cooperative plan — which
//! occupies *every* processor for each frame — cannot drain a backlog,
//! but cheaper plans that pin a frame to a single processor let
//! consecutive frames overlap on disjoint devices. The partitioner
//! already knows how to produce each rung; this module lines them up:
//!
//! 1. **`full`** — the complete μLayer plan under the runtime's active
//!    configuration (channel distribution at every configured `p`,
//!    processor-friendly quantization, branch distribution).
//! 2. **`coarse`** — channel distribution restricted to the single
//!    `p = 0.5` candidate with branch distribution off: a cheaper
//!    pre-computed cooperative plan (coarser split granularity, fewer
//!    management tasks). Skipped when it degenerates to the full plan.
//! 3. **`single-<dev>`** — one single-processor plan per device, in
//!    QUInt8, ordered fastest-predicted first.
//!
//! Every rung's `predicted` latency is the partitioner's own per-layer
//! cost sum (see [`crate::partitioner`]), including the PR 3
//! [`DriftAdapter`] correction — so a throttled GPU inflates the
//! predicted latency of every rung that touches the GPU, the serving
//! loop sees less slack for those rungs, and degradation kicks in
//! earlier; a lost device pushes its single-processor rung to the
//! bottom of the ladder (and its predicted latency beyond any
//! plausible deadline).

use unn::Graph;
use uruntime::{ExecutionPlan, LadderRung};
use usoc::DeviceId;
use utensor::DType;

use crate::adapt::DriftAdapter;
use crate::config::ULayerConfig;
use crate::error::ULayerError;
use crate::planning::PlanDraft;
use crate::runtime::ULayer;

/// True when `subset` is connected in the subgraph induced by the
/// spec's link table (only links with *both* endpoints in the subset
/// count — a surviving subset cannot relay through a partitioned-away
/// device).
fn subset_is_connected(spec: &usoc::SocSpec, subset: &[DeviceId]) -> bool {
    let Some(&start) = subset.first() else {
        return false;
    };
    let mut seen = vec![start];
    let mut queue = vec![start];
    while let Some(d) = queue.pop() {
        for l in &spec.links {
            if let Some(other) = l.other_end(d) {
                if subset.contains(&other) && !seen.contains(&other) {
                    seen.push(other);
                    queue.push(other);
                }
            }
        }
    }
    seen.len() == subset.len()
}

impl ULayer {
    /// Emits the degradation ladder for `graph`: highest fidelity
    /// first, cheapest resource footprint last. `drift` (the PR 3
    /// adapter) corrects every rung's predicted latency, which is what
    /// the serving loop's slack estimate consumes.
    ///
    /// Every rung is the same planning pipeline (`ULayer::draft`) under
    /// a different `(configuration, device set)`.
    pub fn degradation_ladder(
        &self,
        graph: &Graph,
        drift: Option<&DriftAdapter>,
    ) -> Result<Vec<LadderRung>, ULayerError> {
        let spec = self.spec();
        let ids = spec.device_ids();
        let draft = |config: &ULayerConfig, devices: &[DeviceId]| {
            self.draft(graph, drift, config, devices).map(|(d, _)| d)
        };
        let rung = |label: String, plan_label: &str, draft: PlanDraft| {
            Ok::<_, ULayerError>(LadderRung {
                label,
                predicted: draft.costs.iter().copied().sum(),
                plan: ExecutionPlan::new(graph, spec, draft.placements, plan_label)?,
            })
        };

        // Rung 0: the full cooperative plan.
        let full = draft(self.config(), &ids)?;
        let full_placements = full.placements.clone();
        let mut ladder = vec![rung("full".into(), &self.config().label(), full)?];

        // Rung 1: coarse cooperative plan — single p = 0.5 candidate, no
        // branch distribution. Cheaper to realize (fewer candidate
        // placements, fewer management tasks) but still cooperative.
        if self.config().channel_distribution {
            let coarse_cfg = ULayerConfig {
                branch_distribution: false,
                p_candidates: vec![0.5],
                ..self.config().clone()
            };
            let coarse = draft(&coarse_cfg, &ids)?;
            if coarse.placements != full_placements {
                ladder.push(rung("coarse".into(), "ulayer-coarse", coarse)?);
            }
        }

        // Surviving-subset rungs (networked specs only): one uniform
        // QUInt8 cooperative plan per proper connected device subset
        // containing the host. When a link fault partitions the mesh,
        // the serving loop degrades to the rung whose footprint is the
        // surviving component instead of shedding the frame. Subsets
        // with no feasible plan (a layer that fits nowhere) are skipped.
        let uniform_cfg = ULayerConfig {
            proc_friendly_quant: false,
            branch_distribution: false,
            ..self.config().clone()
        };
        let networked = spec.has_network_links();
        if networked && spec.devices.len() <= 16 {
            let host = spec.cpu();
            let full_mask: u32 = ((1u64 << ids.len()) - 1) as u32;
            let mut subsets = Vec::new();
            for mask in 1u32..=full_mask {
                if mask == full_mask || mask.count_ones() < 2 || mask & (1 << host.0) == 0 {
                    continue;
                }
                let subset: Vec<DeviceId> = ids
                    .iter()
                    .copied()
                    .filter(|d| mask & (1 << d.0) != 0)
                    .collect();
                if !subset_is_connected(spec, &subset) {
                    continue;
                }
                let Ok(planned) = draft(&uniform_cfg, &subset) else {
                    continue;
                };
                let label = format!(
                    "subset-{}",
                    subset
                        .iter()
                        .map(|d| d.0.to_string())
                        .collect::<Vec<_>>()
                        .join("+")
                );
                subsets.push(rung(label.clone(), &label, planned)?);
            }
            subsets.sort_by_key(|r| r.predicted);
            ladder.extend(subsets);
        }

        // Single-processor rungs: one per device, fastest predicted
        // first — the partitioner over a one-device set, which can only
        // place every layer whole on that device. Uniform QUInt8 keeps
        // every rung's storage dtype compatible with the quantized
        // network regardless of the active quantization config.
        let single_cfg = ULayerConfig {
            channel_distribution: false,
            ..uniform_cfg
        };
        let mut singles = Vec::new();
        for device in ids.iter().copied() {
            let planned = match draft(&single_cfg, &[device]) {
                Ok(p) => p,
                // On a networked mesh a device whose RAM cannot hold
                // some layer simply has no single-processor rung; on
                // legacy specs infeasibility is still an error.
                Err(_) if networked => continue,
                Err(e) => return Err(e),
            };
            let kind = spec.devices[device.0].kind.name();
            singles.push(rung(
                format!("single-{}", kind.to_ascii_lowercase()),
                &format!("single-{kind}-{}", DType::QUInt8),
                planned,
            )?);
        }
        singles.sort_by_key(|r| r.predicted);
        // Duplicate kinds (two CPU clusters, say) get their ladder
        // position appended so labels stay unique metric keys.
        for i in 0..singles.len() {
            let label = singles[i].label.clone();
            if singles.iter().filter(|r| r.label == label).count() > 1 {
                for (j, r) in singles.iter_mut().enumerate() {
                    if r.label == label {
                        r.label = format!("{label}#{j}");
                    }
                }
            }
        }
        ladder.extend(singles);
        Ok(ladder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimSpan;
    use usoc::SocSpec;

    #[test]
    fn ladder_orders_full_coarse_singles() {
        let rt = ULayer::new(SocSpec::exynos_7420()).unwrap();
        let g = unn::ModelId::SqueezeNet.build();
        let ladder = rt.degradation_ladder(&g, None).unwrap();
        assert!(ladder.len() >= 3, "got {} rungs", ladder.len());
        assert_eq!(ladder[0].label, "full");
        let labels: Vec<&str> = ladder.iter().map(|r| r.label.as_str()).collect();
        assert!(labels.contains(&"single-cpu"), "labels: {labels:?}");
        assert!(labels.contains(&"single-gpu"), "labels: {labels:?}");
        // Labels are unique (they become metric keys).
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
        // Every rung has a positive predicted latency and a valid plan.
        for r in &ladder {
            assert!(r.predicted > SimSpan::ZERO, "{}", r.label);
            assert_eq!(r.plan.placements.len(), g.len(), "{}", r.label);
        }
    }

    #[test]
    fn single_rungs_have_single_device_footprint() {
        let rt = ULayer::new(SocSpec::exynos_7880()).unwrap();
        let g = unn::ModelId::SqueezeNet.build_miniature();
        let ladder = rt.degradation_ladder(&g, None).unwrap();
        for r in &ladder {
            if r.label.starts_with("single-") {
                let mut devs: Vec<usize> = r
                    .plan
                    .placements
                    .iter()
                    .flat_map(|p| p.devices())
                    .map(|d| d.0)
                    .collect();
                devs.sort();
                devs.dedup();
                assert_eq!(devs.len(), 1, "{} touches {devs:?}", r.label);
            }
        }
    }

    #[test]
    fn drift_inflates_gpu_rung_predictions_and_reorders_singles() {
        let spec = SocSpec::exynos_7420();
        let rt = ULayer::new(spec.clone()).unwrap();
        let g = unn::ModelId::SqueezeNet.build();
        let clean = rt.degradation_ladder(&g, None).unwrap();

        // Pretend the GPU runs 50x slower than predicted across classes.
        let mut drift = DriftAdapter::with_rates(1.0, 0.5);
        for class in [
            usoc::WorkClass::Gemm,
            usoc::WorkClass::Pointwise,
            usoc::WorkClass::Depthwise,
            usoc::WorkClass::Pool,
            usoc::WorkClass::Elementwise,
            usoc::WorkClass::Norm,
            usoc::WorkClass::Copy,
        ] {
            drift.observe(
                spec.gpu(),
                class,
                SimSpan::from_micros(100),
                SimSpan::from_micros(5_000),
            );
        }
        let drifted = rt.degradation_ladder(&g, Some(&drift)).unwrap();

        let find = |l: &[LadderRung], name: &str| -> SimSpan {
            l.iter().find(|r| r.label == name).unwrap().predicted
        };
        // The GPU-only rung's slack estimate inflates by the drift.
        assert!(
            find(&drifted, "single-gpu") > find(&clean, "single-gpu") * 10u64,
            "drift did not feed the gpu rung's estimate"
        );
        // The CPU-only rung is untouched.
        assert_eq!(find(&drifted, "single-cpu"), find(&clean, "single-cpu"));
        // Fastest-first ordering now puts the CPU rung ahead of the GPU.
        let pos = |l: &[LadderRung], name: &str| l.iter().position(|r| r.label == name).unwrap();
        assert!(pos(&drifted, "single-cpu") < pos(&drifted, "single-gpu"));
    }

    #[test]
    fn mesh_ladder_has_a_rung_per_surviving_connected_subset() {
        let spec = SocSpec::mcu_mesh(4);
        let rt = ULayer::new(spec.clone()).unwrap();
        let g = unn::ModelId::LeNet.build_miniature();
        let ladder = rt.degradation_ladder(&g, None).unwrap();
        let labels: Vec<&str> = ladder.iter().map(|r| r.label.as_str()).collect();
        // Line topology 0-1-2-3, host = node 0: the proper connected
        // subsets containing the host are exactly {0,1} and {0,1,2}.
        assert!(labels.contains(&"subset-0+1"), "labels: {labels:?}");
        assert!(labels.contains(&"subset-0+1+2"), "labels: {labels:?}");
        assert!(
            !labels
                .iter()
                .any(|l| l.contains('3') && l.starts_with("subset")),
            "the full set is the `full` rung, not a subset rung: {labels:?}"
        );
        // Subset rungs stay inside their subset.
        for r in &ladder {
            if let Some(members) = r.label.strip_prefix("subset-") {
                let allowed: Vec<usize> = members.split('+').map(|s| s.parse().unwrap()).collect();
                for p in &r.plan.placements {
                    for d in p.devices() {
                        assert!(allowed.contains(&d.0), "{} uses dev#{}", r.label, d.0);
                    }
                }
            }
        }
        // Labels stay unique metric keys.
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }

    #[test]
    fn lost_device_sinks_its_rung_beyond_any_deadline() {
        let spec = SocSpec::exynos_7420();
        let rt = ULayer::new(spec.clone()).unwrap();
        let g = unn::ModelId::SqueezeNet.build_miniature();
        let mut drift = DriftAdapter::new();
        drift.mark_lost(spec.gpu());
        let ladder = rt.degradation_ladder(&g, Some(&drift)).unwrap();
        let gpu = ladder.iter().find(|r| r.label == "single-gpu").unwrap();
        let cpu = ladder.iter().find(|r| r.label == "single-cpu").unwrap();
        assert!(gpu.predicted > cpu.predicted * 1000u64);
        assert_eq!(ladder.last().unwrap().label, "single-gpu");
        // The full rung plans around the lost device entirely: nothing
        // lands on the GPU.
        let full = &ladder[0];
        assert!(full
            .plan
            .placements
            .iter()
            .all(|p| p.devices().iter().all(|d| *d != spec.gpu())));
    }
}
