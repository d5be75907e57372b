//! Full-pipeline functional tests over the miniature zoo: every
//! architecture family (Inception branches, Fire modules, plain deep
//! convs, LRN, depthwise separability) goes through channel-wise
//! cooperative execution — scheduling plus numeric evaluation — and must
//! agree with reference execution.

use ulayer::ULayer;
use unn::{calibrate, forward, ModelId, Weights};
use uruntime::{evaluate_plan, execute_plan, ExecutionPlan, NodePlacement};
use usoc::{DtypePlan, SocSpec};
use utensor::{DType, Tensor};

fn input_for(g: &unn::Graph, seed: usize) -> Tensor {
    let shape = g.input_shape().clone();
    let data: Vec<f32> = (0..shape.numel())
        .map(|i| ((((i + seed) * 131) % 255) as f32) / 255.0)
        .collect();
    Tensor::from_f32(shape, data).expect("input")
}

/// A plan that force-splits every distributable layer at `p` with the
/// given per-device dtype plans.
fn forced_split_plan(
    g: &unn::Graph,
    spec: &SocSpec,
    p: f64,
    cpu_dt: DtypePlan,
    gpu_dt: DtypePlan,
    storage_single: DType,
) -> ExecutionPlan {
    let placements: Vec<NodePlacement> = g
        .nodes()
        .iter()
        .map(|n| {
            if n.kind.is_distributable() {
                NodePlacement::Split {
                    parts: vec![(spec.cpu(), cpu_dt, p), (spec.gpu(), gpu_dt, 1.0 - p)],
                }
            } else {
                NodePlacement::single(spec.cpu(), storage_single)
            }
        })
        .collect();
    ExecutionPlan::new(g, spec, placements, "forced-split").expect("plan")
}

#[test]
fn every_architecture_is_lossless_under_uniform_quint8_cooperation() {
    // Channel-wise distribution must be numerically invisible for every
    // operator family in the zoo, at every split ratio.
    let spec = SocSpec::exynos_7420();
    let q = DtypePlan::uniform(DType::QUInt8);
    for id in ModelId::EVALUATED {
        let g = id.build_miniature();
        let w = Weights::random(&g, 7).expect("weights");
        let input = input_for(&g, 3);
        let calib = calibrate(&g, &w, std::slice::from_ref(&input)).expect("calib");
        let want = forward(&g, &w, &calib, &input, DType::QUInt8).expect("reference");
        for p in [0.25, 0.5, 0.75] {
            let plan = forced_split_plan(&g, &spec, p, q, q, DType::QUInt8);
            assert!(plan.split_count() > 0, "{}: no split layers", g.name());
            let got = evaluate_plan(&g, &plan, &w, &calib, &input).expect("eval");
            // All nodes except the f32 softmax head must match bit for bit.
            for (i, (a, b)) in got.iter().zip(&want).enumerate().take(g.len() - 1) {
                assert!(
                    a.bit_equal(b),
                    "{} (p = {p}): node {i} ({}) diverged",
                    g.name(),
                    g.nodes()[i].name
                );
            }
            // And the forced plan also schedules.
            execute_plan(&spec, &g, &plan).expect("schedule");
        }
    }
}

#[test]
fn processor_friendly_cooperation_tracks_float_on_every_architecture() {
    // The §4.2 mixed-dtype cooperation (CPU QUInt8 / GPU F16) stays close
    // to the float reference across every operator family.
    let spec = SocSpec::exynos_7420();
    for id in ModelId::EVALUATED {
        let g = id.build_miniature();
        let w = Weights::random(&g, 11).expect("weights");
        let samples: Vec<Tensor> = (0..3).map(|s| input_for(&g, s)).collect();
        let calib = calibrate(&g, &w, &samples).expect("calib");
        let input = input_for(&g, 9);
        let plan = forced_split_plan(
            &g,
            &spec,
            0.5,
            DtypePlan::proc_friendly_cpu(),
            DtypePlan::proc_friendly_gpu(),
            DType::QUInt8,
        );
        let got = evaluate_plan(&g, &plan, &w, &calib, &input).expect("eval");
        let want = forward(&g, &w, &calib, &input, DType::F32).expect("reference");
        let probs = got.last().expect("probs").to_f32_vec();
        let ref_probs = want.last().expect("ref probs").to_f32_vec();
        let max_diff = probs
            .iter()
            .zip(&ref_probs)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        // Random-weight logits are nearly flat, so class flips are
        // legitimate; the probability vector itself must stay close.
        assert!(max_diff < 0.25, "{}: prob diff {max_diff}", g.name());
        // And the mixed-dtype result must also stay close to the
        // all-QUInt8 reference (same storage rails).
        let q_want = forward(&g, &w, &calib, &input, DType::QUInt8).expect("q reference");
        let q_probs = q_want.last().expect("q probs").to_f32_vec();
        let q_diff = probs
            .iter()
            .zip(&q_probs)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(q_diff < 0.25, "{}: vs QUInt8 diff {q_diff}", g.name());
    }
}

#[test]
fn partitioner_keeps_tiny_networks_on_one_processor() {
    // The flip side of §5: for miniature (overhead-dominated) networks,
    // the partitioner should largely *avoid* cooperative splitting — the
    // sync costs exceed the gains. This is the same reasoning that makes
    // it skip small layers in the full-size networks.
    let spec = SocSpec::exynos_7420();
    let runtime = ULayer::new(spec).expect("runtime");
    for id in ModelId::EVALUATED {
        let g = id.build_miniature();
        let report = runtime.plan(&g).expect("plan");
        let splits = report.plan.split_count();
        assert!(
            splits * 2 <= g.len(),
            "{}: {splits}/{} layers split despite overhead dominance",
            g.name(),
            g.len()
        );
        // The plan still runs and wins nothing-or-little vs CPU-only,
        // but never loses badly.
        let u = uruntime::execute_plan(runtime.spec(), &g, &report.plan).expect("run");
        let cpu =
            uruntime::run_single_processor(runtime.spec(), &g, runtime.spec().cpu(), DType::QUInt8)
                .expect("cpu");
        assert!(
            u.latency.as_secs_f64() <= cpu.latency.as_secs_f64() * 1.05,
            "{}: ulayer {} vs cpu {}",
            g.name(),
            u.latency,
            cpu.latency
        );
    }
}

#[test]
fn resnet_residual_adds_survive_the_full_pipeline() {
    // The Add join's dual-input requantization must compose with
    // cooperative execution: split the convolutions, keep the adds
    // single, and stay close to the float reference.
    let spec = SocSpec::exynos_7420();
    let g = ModelId::ResNet18.build_miniature();
    let w = Weights::random(&g, 21).expect("weights");
    let samples: Vec<Tensor> = (0..3).map(|s| input_for(&g, s)).collect();
    let calib = calibrate(&g, &w, &samples).expect("calib");
    let input = input_for(&g, 9);

    // Bit-exactness under uniform QUInt8 splits.
    let q = DtypePlan::uniform(DType::QUInt8);
    let plan = forced_split_plan(&g, &spec, 0.5, q, q, DType::QUInt8);
    let got = evaluate_plan(&g, &plan, &w, &calib, &input).expect("eval");
    let want = forward(&g, &w, &calib, &input, DType::QUInt8).expect("reference");
    for (i, (a, b)) in got.iter().zip(&want).enumerate().take(g.len() - 1) {
        assert!(a.bit_equal(b), "node {i} ({}) diverged", g.nodes()[i].name);
    }

    // Closeness to float under the mixed-dtype plan.
    let coop = forced_split_plan(
        &g,
        &spec,
        0.5,
        DtypePlan::proc_friendly_cpu(),
        DtypePlan::proc_friendly_gpu(),
        DType::QUInt8,
    );
    let got = evaluate_plan(&g, &coop, &w, &calib, &input).expect("eval");
    let f32_want = forward(&g, &w, &calib, &input, DType::F32).expect("reference");
    let diff = got
        .last()
        .expect("probs")
        .max_abs_diff(f32_want.last().expect("probs"));
    assert!(diff < 0.25, "prob diff {diff}");

    // The full runtime plans and schedules it too.
    let runtime = ULayer::new(spec).expect("runtime");
    let r = runtime.run(&ModelId::ResNet18.build()).expect("run");
    assert!(r.latency.as_nanos() > 0);
}

#[test]
fn miniatures_run_on_both_socs_deterministically() {
    for spec in SocSpec::evaluated() {
        let runtime = ULayer::new(spec).expect("runtime");
        for id in ModelId::EVALUATED {
            let g = id.build_miniature();
            let a = runtime.run(&g).expect("run");
            let b = runtime.run(&g).expect("run");
            assert_eq!(a.latency, b.latency, "{}", g.name());
        }
    }
}
