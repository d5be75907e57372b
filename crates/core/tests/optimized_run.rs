//! End-to-end checks of concat elision on μLayer plans: it must show up
//! in the schedule as zero-span merge points, shrink the `merge`
//! overhead class the trace attribution exposes, and leave the
//! functional outputs alone.

use simcore::SimSpan;
use ulayer::ULayer;
use unn::ModelId;
use uruntime::OverheadClass;
use usoc::SocSpec;

#[test]
fn concat_elision_shrinks_merge_on_googlenet() {
    let rt = ULayer::new(SocSpec::exynos_7420()).unwrap();
    let g = ModelId::GoogLeNet.build_miniature();

    let plan = rt.plan(&g).unwrap().plan;
    let base = uruntime::execute_plan(rt.spec(), &g, &plan).unwrap();
    let elided = plan.with_elided_concats(&g);
    let optimized = uruntime::execute_plan(rt.spec(), &g, &elided).unwrap();

    assert!(
        !elided.elided_concats.is_empty(),
        "GoogLeNet's inception joins should all be elidable"
    );
    let before = base.attribution.class_span(OverheadClass::Merge);
    let after = optimized.attribution.class_span(OverheadClass::Merge);
    assert!(before > SimSpan::ZERO, "baseline schedule pays no merge");
    assert!(
        after < before,
        "merge did not shrink: {before} -> {after} with {} elisions",
        elided.elided_concats.len()
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
    assert_eq!(elided_tasks, elided.elided_concats.len());
}

#[test]
fn optimized_plan_reports_both_pass_logs() {
    let rt = ULayer::new(SocSpec::exynos_7880()).unwrap();
    let g = ModelId::SqueezeNet.build_miniature();
    let report = rt.plan(&g).unwrap();
    let plan_names: Vec<&str> = report.pass_log.iter().map(|p| p.pass).collect();
    assert_eq!(plan_names, ["partition", "branch-distribution"]);
    let plan = report.plan.with_elided_concats(&g);
    // SqueezeNet's fire modules join expand1x1/expand3x3 — all elidable.
    assert!(!plan.elided_concats.is_empty());
    // Elision keeps one placement per node of the graph as built.
    assert_eq!(plan.placements.len(), g.len());
}

#[test]
fn run_functional_is_unaffected_by_elision_annotations() {
    // The annotation only changes the timing engine's task graph; the
    // functional evaluator computes the identical join either way.
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
    let bare = rt.plan(&g).unwrap().plan;
    let elided = bare.clone().with_elided_concats(&g);
    assert!(!elided.elided_concats.is_empty());
    let with = uruntime::evaluate_plan(&g, &elided, &weights, &calib, &input).unwrap();
    let without = uruntime::evaluate_plan(&g, &bare, &weights, &calib, &input).unwrap();
    for (a, b) in with.iter().zip(&without) {
        assert!(a.bit_equal(b));
    }
}
