//! Differential back-compat gate for the N-device partitioner.
//!
//! This PR generalized `best_placement` from the hardwired
//! {CPU cluster, accelerators} pair to an arbitrary device subset
//! joined by typed links. The legacy 2-device behaviour is a load-
//! bearing contract: on the shared-memory evaluated SoCs the
//! generalized enumeration must reproduce the legacy `p`-split plans
//! *byte-identically* — same placements, same costs, same quantized
//! outputs — across the whole network zoo.
//!
//! The reference here is a line-for-line transcription of the legacy
//! enumeration (singles in device order; two-way CPU+accelerator splits
//! at every configured `p`; the throughput-proportional n-way split
//! when two or more accelerators exist), kept in this test so a change
//! to the production enumeration order fails loudly instead of silently
//! re-ranking tie-broken candidates.

use simcore::SimSpan;
use ulayer::{partition, LayerCoster};
use ulayer::{LatencyPredictor, PlanContext, ULayerConfig};
use unn::{Graph, ModelId, NodeId, Weights};
use uruntime::{evaluate_plan, ExecutionPlan, NodePlacement};
use usoc::{DeviceId, DeviceKind, DtypePlan, SocSpec};
use utensor::{DType, Shape, Tensor};

/// The full zoo: the five evaluated networks plus the two extras.
const ZOO: [ModelId; 7] = [
    ModelId::GoogLeNet,
    ModelId::SqueezeNet,
    ModelId::Vgg16,
    ModelId::AlexNet,
    ModelId::MobileNet,
    ModelId::ResNet18,
    ModelId::LeNet,
];

/// The dtype plan the legacy partitioner assigned per device kind.
fn legacy_dtypes(spec: &SocSpec, device: DeviceId, cfg: &ULayerConfig) -> DtypePlan {
    if !cfg.proc_friendly_quant {
        return DtypePlan::uniform(DType::QUInt8);
    }
    match spec.devices[device.0].kind {
        DeviceKind::CpuCluster | DeviceKind::Npu => DtypePlan::proc_friendly_cpu(),
        DeviceKind::Gpu => DtypePlan::proc_friendly_gpu(),
    }
}

/// A transcription of the pre-generalization `best_placement`: the
/// 2-device-era candidate enumeration, in its exact order (strictly
/// cheaper wins, first candidate wins ties).
fn legacy_best_placement(
    coster: &LayerCoster,
    kind: &unn::LayerKind,
    in_shape: &Shape,
    out_shape: &Shape,
) -> Option<(NodePlacement, SimSpan)> {
    let spec = coster.spec;
    let cfg = coster.cfg;
    let mut best: Option<(NodePlacement, SimSpan)> = None;
    let mut consider = |placement: NodePlacement, cost: SimSpan| {
        if best.as_ref().map(|(_, c)| cost < *c).unwrap_or(true) {
            best = Some((placement, cost));
        }
    };

    for device in spec.device_ids() {
        if let Some(cost) = coster.single_cost(device, kind, in_shape, out_shape) {
            consider(
                NodePlacement::Single {
                    device,
                    dtypes: legacy_dtypes(spec, device, cfg),
                },
                cost,
            );
        }
    }

    if cfg.channel_distribution && kind.is_distributable() {
        let cpu = spec.cpu();
        let accels: Vec<DeviceId> = spec
            .device_ids()
            .into_iter()
            .filter(|d| spec.devices[d.0].kind != DeviceKind::CpuCluster)
            .collect();
        for &accel in &accels {
            for &p in &cfg.p_candidates {
                let parts = [(cpu, p), (accel, 1.0 - p)];
                if let Some(cost) = coster.split_cost(&parts, kind, in_shape, out_shape) {
                    consider(
                        NodePlacement::Split {
                            parts: parts
                                .iter()
                                .map(|&(d, f)| (d, legacy_dtypes(spec, d, cfg), f))
                                .collect(),
                        },
                        cost,
                    );
                }
            }
        }
        if accels.len() >= 2 {
            let devices: Vec<DeviceId> =
                std::iter::once(cpu).chain(accels.iter().copied()).collect();
            let speeds: Option<Vec<f64>> = devices
                .iter()
                .map(|&d| {
                    coster
                        .single_cost(d, kind, in_shape, out_shape)
                        .map(|c| 1.0 / c.as_secs_f64().max(1e-12))
                })
                .collect();
            if let Some(speeds) = speeds {
                let total: f64 = speeds.iter().sum();
                if total > 0.0 {
                    let mut parts: Vec<(DeviceId, f64)> = devices
                        .iter()
                        .zip(&speeds)
                        .map(|(&d, &s)| (d, s / total))
                        .collect();
                    let sum: f64 = parts.iter().map(|p| p.1).sum();
                    for p in &mut parts {
                        p.1 /= sum;
                    }
                    if parts.iter().all(|p| p.1 > 0.01) {
                        if let Some(cost) = coster.split_cost(&parts, kind, in_shape, out_shape) {
                            consider(
                                NodePlacement::Split {
                                    parts: parts
                                        .iter()
                                        .map(|&(d, f)| (d, legacy_dtypes(spec, d, cfg), f))
                                        .collect(),
                                },
                                cost,
                            );
                        }
                    }
                }
            }
        }
    }
    best
}

/// Plans `graph` with the legacy transcription, node by node.
fn legacy_partition(
    spec: &SocSpec,
    predictor: &LatencyPredictor,
    cfg: &ULayerConfig,
    graph: &Graph,
) -> (Vec<NodePlacement>, Vec<SimSpan>) {
    let shapes = graph.infer_shapes().unwrap();
    let coster = LayerCoster {
        spec,
        predictor,
        cfg,
        drift: None,
    };
    let mut placements = Vec::with_capacity(graph.len());
    let mut costs = Vec::with_capacity(graph.len());
    for (i, node) in graph.nodes().iter().enumerate() {
        let in_shape = graph.node_input_shape(NodeId(i), &shapes);
        let (p, c) = legacy_best_placement(&coster, &node.kind, in_shape, &shapes[i])
            .expect("legacy reference found no placement");
        placements.push(p);
        costs.push(c);
    }
    (placements, costs)
}

/// Plans `graph` with the production partitioner over every device.
fn partitioned(
    spec: &SocSpec,
    predictor: &LatencyPredictor,
    config: &ULayerConfig,
    graph: &Graph,
) -> (Vec<NodePlacement>, Vec<SimSpan>) {
    let cx = PlanContext {
        spec,
        predictor,
        config,
        graph,
        drift: None,
        devices: &spec.device_ids(),
    };
    let choices = partition(&cx, None).unwrap();
    choices.into_iter().map(|c| (c.placement, c.cost)).unzip()
}

#[test]
fn generalized_partitioner_reproduces_legacy_plans_across_the_zoo() {
    for spec in SocSpec::evaluated() {
        let predictor = LatencyPredictor::train(&spec).unwrap();
        let cfg = ULayerConfig::default();
        for id in ZOO {
            let g = id.build_miniature();
            let (legacy_placements, legacy_costs) = legacy_partition(&spec, &predictor, &cfg, &g);
            let (placements, costs) = partitioned(&spec, &predictor, &cfg, &g);
            assert_eq!(
                placements, legacy_placements,
                "{}/{:?}: generalized plan diverged from the legacy enumeration",
                spec.name, id
            );
            assert_eq!(
                costs, legacy_costs,
                "{}/{:?}: generalized costs diverged",
                spec.name, id
            );
        }
    }
}

#[test]
fn generalized_partitioner_reproduces_legacy_plans_with_npu() {
    // The n-way branch only fires with >= 2 accelerators: exercise it.
    let spec = SocSpec::exynos_7420().with_npu();
    let predictor = LatencyPredictor::train(&spec).unwrap();
    let cfg = ULayerConfig::default();
    for id in [ModelId::SqueezeNet, ModelId::MobileNet, ModelId::LeNet] {
        let g = id.build_miniature();
        let (legacy_placements, legacy_costs) = legacy_partition(&spec, &predictor, &cfg, &g);
        let (placements, costs) = partitioned(&spec, &predictor, &cfg, &g);
        assert_eq!(placements, legacy_placements, "{:?} (npu)", id);
        assert_eq!(costs, legacy_costs, "{:?} (npu)", id);
    }
}

#[test]
fn generalized_plans_keep_quint8_outputs_bit_identical() {
    // Under uniform quantization the generalized plan's numerics must
    // equal the single-CPU QUInt8 reference bit for bit — the same
    // contract the serving ladder pins, now guarded against the
    // N-device generalization.
    for spec in SocSpec::evaluated() {
        let predictor = LatencyPredictor::train(&spec).unwrap();
        let cfg = ULayerConfig::channel_distribution_only();
        for id in [ModelId::SqueezeNet, ModelId::LeNet] {
            let g = id.build_miniature();
            let w = Weights::random(&g, 11).unwrap();
            let input = Tensor::from_f32(
                g.input_shape().clone(),
                (0..g.input_shape().numel())
                    .map(|i| ((i % 255) as f32) / 255.0)
                    .collect(),
            )
            .unwrap();
            let calib = unn::calibrate(&g, &w, std::slice::from_ref(&input)).unwrap();
            let reference = unn::forward(&g, &w, &calib, &input, DType::QUInt8).unwrap();
            let logits = g.len() - 2;

            let (placements, _) = partitioned(&spec, &predictor, &cfg, &g);
            let plan = ExecutionPlan::new(&g, &spec, placements, "backcompat").unwrap();
            let outputs = evaluate_plan(&g, &plan, &w, &calib, &input).unwrap();
            assert!(
                outputs[logits].bit_equal(&reference[logits]),
                "{}/{:?}: generalized plan diverged from the QUInt8 reference",
                spec.name,
                id
            );
        }
    }
}
