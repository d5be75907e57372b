//! The incremental-vs-scratch planning equivalence gate.
//!
//! The plan cache's correctness contract (DESIGN.md §15): a
//! [`ulayer::PlannerSession`] under [`ulayer::ReusePolicy::Exact`] must
//! return, for every frame, a plan **byte-identical** to what a
//! from-scratch [`ULayer::plan_with_drift`] produces under the same
//! drift state — placements (including split fractions), branch
//! mappings, and predicted latency. Hits are only taken when the exact
//! drift snapshot matches, and misses replan incrementally by copying
//! margin-safe layers; neither shortcut may change a single byte of the
//! answer.
//!
//! The sweep covers the 7-net zoo (miniatures) × both evaluated SoCs ×
//! the NPU variant × the 4-node MCU mesh, each under a seeded random
//! drift/fault walk (EWMA observations, device losses, relaxation).
//! One arm additionally executes the planned frames functionally and
//! pins the QUInt8 outputs to the scratch plan's, and one plans the same
//! layers on two input sizes through one session.

use testkit::Rng;
use ulayer::{DriftAdapter, PlanReport, PlannerSession, ReusePolicy, ULayer, ULayerConfig};
use unn::ModelId;
use usoc::{DeviceId, SocSpec, WorkClass};

const ZOO: [ModelId; 7] = [
    ModelId::GoogLeNet,
    ModelId::SqueezeNet,
    ModelId::Vgg16,
    ModelId::AlexNet,
    ModelId::MobileNet,
    ModelId::ResNet18,
    ModelId::LeNet,
];

/// Everything the equivalence contract covers, in one comparable
/// rendering: per-layer placements with realized split fractions,
/// branch mappings, and the predicted serial latency.
fn fingerprint(report: &PlanReport) -> String {
    format!(
        "{:?}|{:?}|{:?}",
        report.plan.placements, report.branch_mappings, report.predicted_serial_latency
    )
}

/// One seeded drift step: a few EWMA observations on random
/// (device, class) slots, an occasional device loss, then frame-end
/// relaxation — the same state evolution `run_adaptive_stream` feeds
/// the planner.
fn drift_step(adapter: &mut DriftAdapter, spec: &SocSpec, rng: &mut Rng, allow_loss: bool) {
    use simcore::SimSpan;
    let predicted = SimSpan::from_millis(5);
    for _ in 0..3 {
        let d = DeviceId(rng.gen_range(0..spec.devices.len()));
        let class = WorkClass::ALL[rng.gen_range(0..WorkClass::ALL.len())];
        // Ratios in [0.5, 3.0): spans several log buckets.
        let ratio = 0.5 + 2.5 * rng.unit_f64();
        adapter.observe(d, class, predicted, predicted * ratio);
    }
    // Losing the host would leave no coordinator; lose a non-host
    // device occasionally instead.
    if allow_loss && spec.devices.len() > 1 && rng.gen_range(0..4) == 0 {
        let d = DeviceId(rng.gen_range(1..spec.devices.len()));
        adapter.mark_lost(d);
    }
    adapter.finish_frame();
}

fn assert_equivalent_walk(rt: &ULayer, graph: &unn::Graph, label: &str, seed: u64, steps: usize) {
    let mut session = PlannerSession::new(rt, ReusePolicy::Exact);
    let mut adapter = DriftAdapter::new();
    let mut rng = Rng::seed_from_u64(seed);
    let spec = rt.spec().clone();
    // Frame 0: calm. Then the seeded walk.
    for step in 0..steps {
        if step > 0 {
            drift_step(&mut adapter, &spec, &mut rng, step > 1);
        }
        let incremental = session
            .plan_frame(graph, Some(&adapter))
            .unwrap_or_else(|e| panic!("{label}: session plan failed at step {step}: {e}"));
        let scratch = rt
            .plan_with_drift(graph, Some(&adapter))
            .unwrap_or_else(|e| panic!("{label}: scratch plan failed at step {step}: {e}"));
        assert_eq!(
            fingerprint(&incremental.report),
            fingerprint(&scratch),
            "{label}: step {step} ({:?}) diverged from scratch",
            incremental.source
        );
    }
}

#[test]
fn zoo_replans_match_scratch_on_both_socs() {
    for (si, spec) in SocSpec::evaluated().into_iter().enumerate() {
        for (mi, model) in ZOO.into_iter().enumerate() {
            let g = model.build_miniature();
            let rt = ULayer::new(spec.clone()).expect("ulayer");
            let label = format!("{} / {}", spec.name, model.name());
            let seed = 0xE0_5EED ^ ((si as u64) << 8) ^ mi as u64;
            assert_equivalent_walk(&rt, &g, &label, seed, 5);
        }
    }
}

#[test]
fn npu_replans_match_scratch() {
    let spec = SocSpec::exynos_7420().with_npu();
    for model in [ModelId::SqueezeNet, ModelId::GoogLeNet, ModelId::MobileNet] {
        let g = model.build_miniature();
        let rt = ULayer::new(spec.clone()).expect("ulayer");
        let label = format!("{} / {}", spec.name, model.name());
        assert_equivalent_walk(&rt, &g, &label, 0x7u64, 5);
    }
}

#[test]
fn mesh_replans_match_scratch() {
    let spec = SocSpec::mcu_mesh(4);
    for model in [ModelId::LeNet, ModelId::SqueezeNet] {
        let g = model.build_miniature();
        let rt = ULayer::with_config(spec.clone(), ULayerConfig::channel_distribution_only())
            .expect("ulayer");
        let label = format!("mcu_mesh(4) / {}", model.name());
        assert_equivalent_walk(&rt, &g, &label, 0x1234u64, 4);
    }
}

#[test]
fn quantized_outputs_of_cached_plans_match_scratch() {
    use utensor::DType;

    let spec = SocSpec::exynos_7420();
    let g = ModelId::SqueezeNet.build_miniature();
    let rt = ULayer::new(spec.clone()).expect("ulayer");
    let w = unn::Weights::random(&g, 11).expect("weights");
    let input = utensor::Tensor::from_f32(
        g.input_shape().clone(),
        (0..g.input_shape().numel())
            .map(|i| ((i % 251) as f32) / 251.0)
            .collect(),
    )
    .expect("input");
    let calib = unn::calibrate(&g, &w, std::slice::from_ref(&input)).expect("calib");
    let reference = unn::forward(&g, &w, &calib, &input, DType::QUInt8).expect("reference");

    let mut session = PlannerSession::new(&rt, ReusePolicy::Exact);
    let mut adapter = DriftAdapter::new();
    let mut rng = Rng::seed_from_u64(99);
    for step in 0..3 {
        if step > 0 {
            drift_step(&mut adapter, &spec, &mut rng, false);
        }
        let planned = session.plan_frame(&g, Some(&adapter)).expect("plan");
        let scratch = rt.plan_with_drift(&g, Some(&adapter)).expect("scratch");
        let a = uruntime::evaluate_plan(&g, &planned.report.plan, &w, &calib, &input)
            .expect("session outputs");
        let b = uruntime::evaluate_plan(&g, &scratch.plan, &w, &calib, &input)
            .expect("scratch outputs");
        let logits = g.len() - 2;
        assert!(
            a[logits].bit_equal(&b[logits]) && a[logits].bit_equal(&reference[logits]),
            "step {step}: QUInt8 outputs diverged"
        );
    }
}

/// Conv, pool, conv on a `side`×`side` input.
fn three_layers(side: usize) -> unn::Graph {
    let conv = |oc| unn::LayerKind::Conv {
        oc,
        k: 3,
        stride: 1,
        pad: 1,
        relu: true,
    };
    let pool = unn::LayerKind::Pool {
        func: unn::PoolFunc::Max,
        k: 2,
        stride: 2,
        pad: 0,
    };
    let mut g = unn::Graph::new("three", utensor::Shape::nchw(1, 3, side, side));
    let c1 = g.add_input_layer("conv1", conv(32));
    let p = g.add("pool", pool, c1);
    g.add("conv2", conv(64), p);
    g
}

/// The input shape is part of the cache key: the same layers at 16×16
/// and at 224×224 plan separately in one session, each byte-identical
/// to `ULayer::plan`, and each hits its own entry when it comes back.
#[test]
fn each_input_size_gets_its_own_plan() {
    let rt = ULayer::new(SocSpec::exynos_7420()).unwrap();
    let mut session = PlannerSession::new(&rt, ReusePolicy::Exact);
    for (round, side) in [16, 224, 16, 224].into_iter().enumerate() {
        let g = three_layers(side);
        let frame = session.plan_frame(&g, None).unwrap();
        let hit = frame.source == ulayer::PlanSource::CacheHit;
        assert_eq!(hit, round >= 2, "{side}×{side}: {:?}", frame.source);
        let direct = rt.plan(&g).unwrap();
        assert_eq!(format!("{:?}", frame.report), format!("{direct:?}"));
    }
}
