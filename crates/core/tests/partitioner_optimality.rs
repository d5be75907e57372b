//! Partitioner optimality: the placement chosen by
//! [`ulayer::LayerCoster::best_placement`] must be the
//! cheapest over the full candidate set it enumerates — single-device
//! placements plus CPU+accelerator channel splits at every configured
//! `p` — for every layer kind, and its reported cost must agree with
//! re-costing the returned placement from scratch.
//!
//! This pins the §6 selection rule itself (argmin over candidates), not
//! just individual cost numbers: a regression that skips a candidate or
//! mixes up a cost comparison fails here even if each `single_cost` /
//! `split_cost` stays individually correct.

use simcore::SimSpan;
use ulayer::LayerCoster;
use ulayer::{LatencyPredictor, ULayerConfig};
use unn::{LayerKind, PoolFunc};
use usoc::{DeviceId, DeviceKind, SocSpec};
use utensor::Shape;

const P_VALUES: [f64; 3] = [0.25, 0.5, 0.75];

/// Output shape for `kind`; multi-input kinds (Concat, Add) get the
/// input twice.
fn out_shape_of(kind: &LayerKind, in_shape: &Shape) -> Shape {
    let inputs: &[&Shape] = match kind {
        LayerKind::Concat | LayerKind::Add { .. } => &[in_shape, in_shape],
        _ => &[in_shape],
    };
    kind.infer_shape(inputs).unwrap()
}

/// One representative instance of every [`LayerKind`] variant, with an
/// input shape sized so compute is non-trivial.
fn all_layer_kinds() -> Vec<(LayerKind, Shape)> {
    vec![
        (
            LayerKind::Conv {
                oc: 128,
                k: 3,
                stride: 1,
                pad: 1,
                relu: true,
            },
            Shape::nchw(1, 64, 28, 28),
        ),
        (
            LayerKind::DepthwiseConv {
                k: 3,
                stride: 1,
                pad: 1,
                relu: true,
            },
            Shape::nchw(1, 96, 28, 28),
        ),
        (
            LayerKind::FullyConnected {
                out: 512,
                relu: true,
            },
            Shape::nchw(1, 256, 7, 7),
        ),
        (
            LayerKind::Pool {
                func: PoolFunc::Max,
                k: 2,
                stride: 2,
                pad: 0,
            },
            Shape::nchw(1, 64, 28, 28),
        ),
        (
            LayerKind::Pool {
                func: PoolFunc::Avg,
                k: 3,
                stride: 2,
                pad: 1,
            },
            Shape::nchw(1, 64, 28, 28),
        ),
        (LayerKind::GlobalAvgPool, Shape::nchw(1, 256, 7, 7)),
        (
            LayerKind::Lrn {
                n: 5,
                alpha: 1e-4,
                beta: 0.75,
                k: 2.0,
            },
            Shape::nchw(1, 96, 27, 27),
        ),
        (LayerKind::Relu, Shape::nchw(1, 128, 14, 14)),
        (LayerKind::Concat, Shape::nchw(1, 128, 14, 14)),
        (LayerKind::Add { relu: false }, Shape::nchw(1, 128, 14, 14)),
        (
            LayerKind::Quantize {
                params: utensor::QuantParams::from_range(-4.0, 4.0).unwrap(),
            },
            Shape::nchw(1, 128, 14, 14),
        ),
        (LayerKind::Softmax, Shape::nchw(1, 1000, 1, 1)),
    ]
}

/// Every candidate `best_placement` considers on a two-processor SoC
/// with the given `p` values: each single device, then a CPU+accel
/// split per (accelerator, p).
fn enumerate_costs(
    coster: &LayerCoster,
    kind: &LayerKind,
    in_shape: &Shape,
    out_shape: &Shape,
    p_values: &[f64],
) -> Vec<(String, SimSpan)> {
    let spec = coster.spec;
    let mut costs = Vec::new();
    for device in spec.device_ids() {
        if let Some(c) = coster.single_cost(device, kind, in_shape, out_shape) {
            costs.push((format!("single:{}", spec.devices[device.0].name), c));
        }
    }
    if coster.cfg.channel_distribution && kind.is_distributable() {
        let cpu = spec.cpu();
        for accel in spec
            .device_ids()
            .into_iter()
            .filter(|d| spec.devices[d.0].kind != DeviceKind::CpuCluster)
        {
            for &p in p_values {
                let parts = [(cpu, p), (accel, 1.0 - p)];
                if let Some(c) = coster.split_cost(&parts, kind, in_shape, out_shape) {
                    costs.push((format!("split:{}@p={p}", spec.devices[accel.0].name), c));
                }
            }
        }
    }
    costs
}

/// Re-costs the placement `best_placement` returned, through the same
/// public costing entry points.
fn recost(
    coster: &LayerCoster,
    placement: &uruntime::NodePlacement,
    kind: &LayerKind,
    in_shape: &Shape,
    out_shape: &Shape,
) -> SimSpan {
    match placement {
        uruntime::NodePlacement::Single { device, .. } => coster
            .single_cost(*device, kind, in_shape, out_shape)
            .expect("chosen single placement must be costable"),
        uruntime::NodePlacement::Split { parts } => {
            let parts: Vec<(DeviceId, f64)> = parts.iter().map(|&(d, _, f)| (d, f)).collect();
            coster
                .split_cost(&parts, kind, in_shape, out_shape)
                .expect("chosen split placement must be costable")
        }
    }
}

#[test]
fn best_placement_is_argmin_over_candidates() {
    let spec = SocSpec::exynos_7420();
    let predictor = LatencyPredictor::train(&spec).unwrap();
    let cfg = ULayerConfig::full();
    assert_eq!(cfg.p_candidates, P_VALUES.to_vec(), "test mirrors config");
    let coster = LayerCoster {
        spec: &spec,
        predictor: &predictor,
        cfg: &cfg,
        drift: None,
    };
    for (kind, in_shape) in all_layer_kinds() {
        let out_shape = out_shape_of(&kind, &in_shape);
        let choice = coster
            .best_placement(&spec.device_ids(), &kind, &in_shape, &out_shape, None)
            .unwrap();
        let (placement, cost) = (choice.placement, choice.cost);
        let candidates = enumerate_costs(&coster, &kind, &in_shape, &out_shape, &P_VALUES);
        assert!(!candidates.is_empty(), "{}: no candidates", kind.op_name());
        let (min_name, min_cost) = candidates
            .iter()
            .min_by(|a, b| a.1.cmp(&b.1))
            .cloned()
            .unwrap();
        assert_eq!(
            cost,
            min_cost,
            "{}: chose cost {cost} but the cheapest enumerated candidate is {min_name} at {min_cost}",
            kind.op_name()
        );
        // The reported cost must be the cost *of the returned placement*,
        // not just numerically equal to some candidate's.
        assert_eq!(
            recost(&coster, &placement, &kind, &in_shape, &out_shape),
            cost,
            "{}: reported cost disagrees with re-costing the placement",
            kind.op_name()
        );
    }
}

#[test]
fn best_placement_is_argmin_at_each_single_p() {
    // Restrict the configuration to one p at a time: the winner must
    // still be the argmin of the reduced candidate set, for every
    // p in {0.25, 0.5, 0.75} and every layer kind.
    let spec = SocSpec::exynos_7420();
    let predictor = LatencyPredictor::train(&spec).unwrap();
    for p in P_VALUES {
        let mut cfg = ULayerConfig::full();
        cfg.p_candidates = vec![p];
        let coster = LayerCoster {
            spec: &spec,
            predictor: &predictor,
            cfg: &cfg,
            drift: None,
        };
        for (kind, in_shape) in all_layer_kinds() {
            let out_shape = out_shape_of(&kind, &in_shape);
            let choice = coster
                .best_placement(&spec.device_ids(), &kind, &in_shape, &out_shape, None)
                .unwrap();
            let (placement, cost) = (choice.placement, choice.cost);
            let candidates = enumerate_costs(&coster, &kind, &in_shape, &out_shape, &[p]);
            let min_cost = candidates.iter().map(|(_, c)| *c).min().unwrap();
            assert_eq!(
                cost,
                min_cost,
                "{} at p={p}: best_placement cost is not the candidate minimum",
                kind.op_name()
            );
            assert_eq!(
                recost(&coster, &placement, &kind, &in_shape, &out_shape),
                cost,
                "{} at p={p}: reported cost disagrees with the placement",
                kind.op_name()
            );
        }
    }
}

#[test]
fn non_distributable_kinds_never_split() {
    // The candidate set for non-distributable layers is singles only;
    // the chosen placement must reflect that.
    let spec = SocSpec::exynos_7420();
    let predictor = LatencyPredictor::train(&spec).unwrap();
    let cfg = ULayerConfig::full();
    let coster = LayerCoster {
        spec: &spec,
        predictor: &predictor,
        cfg: &cfg,
        drift: None,
    };
    for (kind, in_shape) in all_layer_kinds() {
        if kind.is_distributable() {
            continue;
        }
        let out_shape = out_shape_of(&kind, &in_shape);
        let placement = coster
            .best_placement(&spec.device_ids(), &kind, &in_shape, &out_shape, None)
            .unwrap()
            .placement;
        assert!(
            matches!(placement, uruntime::NodePlacement::Single { .. }),
            "{}: non-distributable layer got {placement:?}",
            kind.op_name()
        );
    }
}
