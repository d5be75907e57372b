//! End-to-end checks of concat elision: every plan the planner, the
//! baselines and the degradation ladder emit joins the same concats in
//! place, no in-place join runs a concat kernel or spends merge time,
//! and the functional evaluator computes the same join a copy would.

use simcore::SimSpan;
use ulayer::ULayer;
use unn::{LayerKind, ModelId};
use uruntime::{
    execute_plan, layer_to_processor_plan, single_processor_plan, ExecutionPlan, OverheadClass,
};
use usoc::SocSpec;
use utensor::DType;

#[test]
fn every_plan_joins_in_place() {
    // (net, in-place joins full size, miniature): the fire and inception
    // joins; no other zoo net has a concat whose branches only feed it.
    let zoo = [
        (ModelId::SqueezeNet, 8, 3),
        (ModelId::GoogLeNet, 9, 2),
        (ModelId::Vgg16, 0, 0),
        (ModelId::AlexNet, 0, 0),
        (ModelId::MobileNet, 0, 0),
        (ModelId::ResNet18, 0, 0),
        (ModelId::LeNet, 0, 0),
    ];
    for spec in SocSpec::evaluated() {
        let rt = ULayer::new(spec.clone()).unwrap();
        for (id, full, mini) in zoo {
            for (g, joins) in [(id.build(), full), (id.build_miniature(), mini)] {
                let mut plans: Vec<ExecutionPlan> = vec![
                    rt.plan(&g).unwrap().plan,
                    single_processor_plan(&g, &spec, spec.cpu(), DType::QUInt8).unwrap(),
                    single_processor_plan(&g, &spec, spec.gpu(), DType::F16).unwrap(),
                    layer_to_processor_plan(&g, &spec, DType::QUInt8).unwrap(),
                ];
                let ladder = rt.degradation_ladder(&g, None).unwrap();
                plans.extend(ladder.into_iter().map(|rung| rung.plan));
                for plan in &plans {
                    let what = format!("{} {} {} ({})", spec.name, g.name(), g.len(), plan.label);
                    let layout = plan.layout(&g).unwrap();
                    let elided: Vec<&str> = (g.nodes().iter().zip(&layout.nodes))
                        .filter(|(_, nl)| nl.elided)
                        .map(|(n, _)| n.name.as_str())
                        .collect();
                    assert_eq!(elided.len(), joins, "{what}");
                    let run = execute_plan(&spec, &g, plan).unwrap();
                    for name in elided {
                        let kernel = format!("{name}@");
                        assert!(
                            !run.trace
                                .records()
                                .iter()
                                .any(|t| t.label.starts_with(&kernel)),
                            "{what}: in-place join {name} ran a concat kernel"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn concat_elision_shrinks_merge_on_googlenet() {
    // Every inception join is in place, so none adds to the merge class
    // the trace attribution exposes: an in-place join runs no kernel, and
    // its merge is a zero-span point on the host or, with its branches
    // resident on one accelerator, absent.
    for spec in SocSpec::evaluated() {
        let rt = ULayer::new(spec.clone()).unwrap();
        for (g, joins) in [
            (ModelId::GoogLeNet.build(), 9),
            (ModelId::GoogLeNet.build_miniature(), 2),
        ] {
            let what = format!("{} {} {}", spec.name, g.name(), g.len());
            let plan = rt.plan(&g).unwrap().plan;
            let layout = plan.layout(&g).unwrap();
            let run = execute_plan(&spec, &g, &plan).unwrap();
            let mut in_place = 0;
            for (i, (node, nl)) in g.nodes().iter().zip(&layout.nodes).enumerate() {
                if !matches!(node.kind, LayerKind::Concat) {
                    continue;
                }
                assert!(nl.elided, "{what}: {} copies its branches", node.name);
                in_place += 1;
                let tasks =
                    (run.trace.records().iter()).filter(|t| t.payload.node == Some(unn::NodeId(i)));
                let mut merges = 0;
                for t in tasks {
                    // Waiting for accelerator-resident branches is a sync,
                    // not a merge; a copy would be a kernel.
                    assert_ne!(
                        t.payload.class,
                        OverheadClass::Compute,
                        "{what}: {}",
                        t.label
                    );
                    if t.payload.class == OverheadClass::Merge {
                        merges += 1;
                        assert_eq!(t.label, format!("{}::elided", node.name), "{what}");
                        assert_eq!(
                            t.end - t.start,
                            SimSpan::ZERO,
                            "{what}: {} takes time",
                            t.label
                        );
                    }
                }
                assert!(merges <= 1, "{what}: {} merges {merges} times", node.name);
            }
            assert_eq!(in_place, joins, "{what}");
        }
    }
}

#[test]
fn run_functional_is_unaffected_by_elision_annotations() {
    // The in-place marks only change the timing engine's task graph; the
    // functional evaluator computes the join a copying concat computes,
    // on the caller's own weights and calibration.
    let rt = ULayer::new(SocSpec::exynos_7420()).unwrap();
    let g = ModelId::SqueezeNet.build_miniature();
    let weights = unn::Weights::random(&g, 3).unwrap();
    let input = utensor::Tensor::from_f32(
        g.input_shape().clone(),
        (0..g.input_shape().numel())
            .map(|i| ((i % 251) as f32) / 251.0)
            .collect(),
    )
    .unwrap();
    let calib = unn::calibrate(&g, &weights, std::slice::from_ref(&input)).unwrap();
    let plan = rt.plan(&g).unwrap().plan;
    let layout = plan.layout(&g).unwrap();
    let outputs = uruntime::evaluate_plan(&g, &plan, &weights, &calib, &input).unwrap();
    let mut in_place = 0;
    for ((node, nl), joined) in g.nodes().iter().zip(&layout.nodes).zip(&outputs) {
        if !nl.elided {
            continue;
        }
        in_place += 1;
        let branches: Vec<&utensor::Tensor> = node.inputs.iter().map(|d| &outputs[d.0]).collect();
        let copied =
            unn::run_layer(&node.kind, &branches, None, None, joined.quant_params()).unwrap();
        assert!(
            joined.bit_equal(&copied),
            "{}: in-place join differs from a copy",
            node.name
        );
    }
    assert_eq!(in_place, 3);
}
