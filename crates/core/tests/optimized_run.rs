//! End-to-end checks of the pass-optimized execution path: concat
//! elision must show up in the schedule as zero-span merge points and
//! shrink the `merge` overhead class the trace attribution exposes.

use simcore::SimSpan;
use ulayer::ULayer;
use unn::ModelId;
use uruntime::OverheadClass;
use usoc::SocSpec;

#[test]
fn concat_elision_shrinks_merge_on_googlenet() {
    let rt = ULayer::new(SocSpec::exynos_7420()).unwrap();
    let g = ModelId::GoogLeNet.build_miniature();

    let base = rt.run(&g).unwrap();
    let opt = rt.plan_optimized(&g, None).unwrap();
    let optimized = uruntime::execute_plan(rt.spec(), &opt.graph, &opt.report.plan).unwrap();

    assert!(
        !opt.report.plan.elided_concats.is_empty(),
        "GoogLeNet's inception joins should all be elidable"
    );
    let before = base.attribution.class_span(OverheadClass::Merge);
    let after = optimized.attribution.class_span(OverheadClass::Merge);
    assert!(before > SimSpan::ZERO, "baseline schedule pays no merge");
    assert!(
        after < before,
        "merge did not shrink: {before} -> {after} with {} elisions",
        opt.report.plan.elided_concats.len()
    );
    assert!(
        optimized.latency <= base.latency,
        "elision regressed latency: {} -> {}",
        base.latency,
        optimized.latency
    );
    // The elided joins appear as explicit zero-span merge points.
    let elided_tasks = optimized
        .trace
        .records()
        .iter()
        .filter(|t| t.label.ends_with("::elided"))
        .count();
    assert_eq!(elided_tasks, opt.report.plan.elided_concats.len());
}

#[test]
fn optimized_plan_reports_both_pass_logs() {
    let rt = ULayer::new(SocSpec::exynos_7880()).unwrap();
    let g = ModelId::SqueezeNet.build_miniature();
    let opt = rt.plan_optimized(&g, None).unwrap();
    let graph_names: Vec<&str> = opt.graph_passes.iter().map(|p| p.pass).collect();
    assert_eq!(
        graph_names,
        [
            "fuse-activations",
            "elide-quant-pairs",
            "eliminate-dead-nodes",
            "elide-concats"
        ]
    );
    let plan_names: Vec<&str> = opt.report.pass_log.iter().map(|p| p.pass).collect();
    assert_eq!(plan_names, ["partition", "branch-distribution"]);
    // SqueezeNet's fire modules join expand1x1/expand3x3 — all elidable.
    assert!(!opt.report.plan.elided_concats.is_empty());
    // The optimized plan still covers every node of the optimized graph.
    assert_eq!(opt.report.plan.placements.len(), opt.graph.len());
}

#[test]
fn run_functional_is_unaffected_by_elision_annotations() {
    // The annotation only changes the timing engine's task graph; the
    // functional evaluator computes the identical join either way.
    let rt = ULayer::new(SocSpec::exynos_7420()).unwrap();
    let g = ModelId::SqueezeNet.build_miniature();
    let weights = unn::Weights::random(&g, 3).unwrap();
    let calib = {
        let input = utensor::Tensor::from_f32(
            g.input_shape().clone(),
            (0..g.input_shape().numel())
                .map(|i| ((i % 251) as f32) / 251.0)
                .collect(),
        )
        .unwrap();
        unn::calibrate(&g, &weights, std::slice::from_ref(&input)).unwrap()
    };
    let opt = rt.plan_optimized(&g, Some((&weights, &calib))).unwrap();
    let w = opt.weights.as_ref().unwrap();
    let c = opt.calib.as_ref().unwrap();
    let input = utensor::Tensor::from_f32(
        opt.graph.input_shape().clone(),
        (0..opt.graph.input_shape().numel())
            .map(|i| ((i % 251) as f32) / 251.0)
            .collect(),
    )
    .unwrap();
    let with = uruntime::evaluate_plan(&opt.graph, &opt.report.plan, w, c, &input).unwrap();
    let mut bare = opt.report.plan.clone();
    bare.elided_concats.clear();
    let without = uruntime::evaluate_plan(&opt.graph, &bare, w, c, &input).unwrap();
    for (a, b) in with.iter().zip(&without) {
        assert!(a.bit_equal(b));
    }
}
