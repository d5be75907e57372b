//! Numeric correctness of cooperative execution: the functional half of
//! the co-simulation must produce the same answers as single-processor
//! reference execution.

use ulayer::{ULayer, ULayerConfig};
use unn::{calibrate, forward, ModelId, Weights};
use uruntime::evaluate_plan;
use usoc::SocSpec;
use utensor::{DType, Shape, Tensor};

fn lenet_setup() -> (unn::Graph, Weights, unn::Calibration, Tensor) {
    let g = ModelId::LeNet.build();
    let w = Weights::random(&g, 99).expect("weights");
    let input = Tensor::from_f32(
        g.input_shape().clone(),
        (0..g.input_shape().numel())
            .map(|i| ((i * 131) % 255) as f32 / 255.0)
            .collect(),
    )
    .expect("input");
    let calib = calibrate(&g, &w, std::slice::from_ref(&input)).expect("calibration");
    (g, w, calib, input)
}

#[test]
fn cooperative_quint8_is_bit_identical_to_cpu_only_quint8() {
    // With uniform QUInt8 on both processors (ablation step 1), the
    // channel-wise split is numerically lossless: μLayer's merged outputs
    // equal the single-CPU quantized network bit for bit.
    let (g, w, calib, input) = lenet_setup();
    let spec = SocSpec::exynos_7420();
    let runtime =
        ULayer::with_config(spec, ULayerConfig::channel_distribution_only()).expect("ulayer");
    let plan = runtime.plan(&g).expect("plan").plan;
    let outputs = evaluate_plan(&g, &plan, &w, &calib, &input).expect("run");
    let reference = forward(&g, &w, &calib, &input, DType::QUInt8).expect("reference");
    // Every node except the f32 softmax head must match exactly.
    for (i, (a, b)) in outputs.iter().zip(&reference).enumerate().take(g.len() - 1) {
        assert!(a.bit_equal(b), "node {i} ({}) diverged", g.nodes()[i].name);
    }
}

#[test]
fn processor_friendly_execution_tracks_the_float_reference() {
    // The full μLayer (CPU QUInt8 + GPU F16) stays close to F32 — the
    // §4.3 accuracy argument, end to end.
    let (g, w, calib, input) = lenet_setup();
    let spec = SocSpec::exynos_7420();
    let runtime = ULayer::new(spec).expect("ulayer");
    let plan = runtime.plan(&g).expect("plan").plan;
    let outputs = evaluate_plan(&g, &plan, &w, &calib, &input).expect("run");
    let reference = forward(&g, &w, &calib, &input, DType::F32).expect("reference");
    let probs = outputs.last().expect("probs");
    let ref_probs = reference.last().expect("ref probs");
    let diff = probs.max_abs_diff(ref_probs);
    assert!(diff < 0.08, "probability divergence {diff}");
    // And the predicted class is the same.
    let a = ukernels::argmax(&probs.to_f32_vec());
    let b = ukernels::argmax(&ref_probs.to_f32_vec());
    assert_eq!(a, b);
}

#[test]
fn every_p_ratio_yields_identical_quint8_results() {
    // The choice of split ratio must never affect results: p only moves
    // work, not values. Check p ∈ {0.25, 0.5, 0.75} produce bit-equal
    // quantized outputs.
    let (g, w, calib, input) = lenet_setup();
    let spec = SocSpec::exynos_7420();
    let mut last: Option<Vec<Tensor>> = None;
    for p in [0.25f64, 0.5, 0.75] {
        let cfg = ULayerConfig {
            p_candidates: vec![p],
            ..ULayerConfig::channel_distribution_only()
        };
        let runtime = ULayer::with_config(spec.clone(), cfg).expect("ulayer");
        let plan = runtime.plan(&g).expect("plan").plan;
        let outputs = evaluate_plan(&g, &plan, &w, &calib, &input).expect("run");
        if let Some(prev) = &last {
            for (a, b) in outputs.iter().zip(prev).take(g.len() - 1) {
                assert!(a.bit_equal(b), "p = {p} changed results");
            }
        }
        last = Some(outputs);
    }
}

#[test]
fn plan_evaluation_agrees_with_reference_on_branchy_graph() {
    // SqueezeNet's Fire modules exercise concat-with-requantization in
    // the plan evaluator. Use a reduced-size fire network to keep the
    // functional run fast.
    let mut g = unn::Graph::new("mini-fire", Shape::nchw(1, 3, 16, 16));
    let c1 = g.add_input_layer(
        "conv1",
        unn::LayerKind::Conv {
            oc: 8,
            k: 3,
            stride: 2,
            pad: 1,
            relu: true,
        },
    );
    let f2 = unn::fire(&mut g, "fire2", c1, 4, 8, 8);
    let f3 = unn::fire(&mut g, "fire3", f2, 4, 8, 8);
    let gap = g.add("gap", unn::LayerKind::GlobalAvgPool, f3);
    let fc = g.add(
        "fc",
        unn::LayerKind::FullyConnected {
            out: 5,
            relu: false,
        },
        gap,
    );
    g.add("softmax", unn::LayerKind::Softmax, fc);

    let w = Weights::random(&g, 17).expect("weights");
    let input = Tensor::from_f32(
        Shape::nchw(1, 3, 16, 16),
        (0..3 * 16 * 16)
            .map(|i| ((i * 37) % 100) as f32 / 100.0)
            .collect(),
    )
    .expect("input");
    let calib = calibrate(&g, &w, std::slice::from_ref(&input)).expect("calibration");

    let spec = SocSpec::exynos_7420();
    let runtime = ULayer::with_config(spec.clone(), ULayerConfig::channel_distribution_only())
        .expect("ulayer");
    let report = runtime.plan(&g).expect("plan");
    let got = evaluate_plan(&g, &report.plan, &w, &calib, &input).expect("evaluate");
    let want = forward(&g, &w, &calib, &input, DType::QUInt8).expect("reference");
    for (i, (a, b)) in got.iter().zip(&want).enumerate().take(g.len() - 1) {
        assert!(a.bit_equal(b), "node {i} diverged");
    }
}

#[test]
fn functional_and_timing_halves_agree_on_the_plan() {
    // The plan `run()` times is the plan `plan()` hands the evaluator.
    let (g, w, calib, input) = lenet_setup();
    let runtime = ULayer::new(SocSpec::exynos_7880()).expect("ulayer");
    let timing_only = runtime.run(&g).expect("run");
    let plan = runtime.plan(&g).expect("plan").plan;
    let timed = uruntime::execute_plan(runtime.spec(), &g, &plan).expect("run");
    let outputs = evaluate_plan(&g, &plan, &w, &calib, &input).expect("evaluate");
    assert_eq!(timing_only.latency, timed.latency);
    assert_eq!(outputs.len(), g.len());
}
