//! Fault injection through the engine: watchdog retries, CPU fallback
//! re-execution, attribution tiling under faults, reproducibility, and
//! the bit-identical recovery guarantee.

use simcore::{FaultPlan, ResourceId, RetryPolicy, Scenario, SimSpan};
use unn::{Graph, ModelId, Weights};
use uruntime::{
    attribute, evaluate_plan, evaluate_plan_with_recovery, execute_plan, execute_plan_with_faults,
    ExecutionPlan, NodePlacement, OverheadClass, RunOptions,
};
use usoc::{DtypePlan, SocSpec};
use utensor::{DType, Tensor};

/// A cooperative CPU+GPU split plan over the miniature SqueezeNet: every
/// distributable layer is split 0.5/0.5 with processor-friendly dtypes,
/// the rest run single on the CPU. Exercises both fallback scopes
/// (channel parts and whole accelerator nodes are absent here, so a
/// GPU-single variant covers the latter).
fn split_plan(spec: &SocSpec, g: &Graph) -> ExecutionPlan {
    ExecutionPlan::new(
        g,
        spec,
        g.nodes()
            .iter()
            .map(|n| {
                if n.kind.is_distributable() {
                    NodePlacement::Split {
                        parts: vec![
                            (spec.cpu(), DtypePlan::proc_friendly_cpu(), 0.5),
                            (spec.gpu(), DtypePlan::proc_friendly_gpu(), 0.5),
                        ],
                    }
                } else {
                    NodePlacement::single(spec.cpu(), DType::QUInt8)
                }
            })
            .collect(),
        "split-test",
    )
    .expect("plan")
}

/// A deterministic scenario plan aimed at the GPU, sized from the
/// fault-free baseline of `plan` (horizon and dispatch count).
fn gpu_scenario(
    spec: &SocSpec,
    g: &Graph,
    plan: &ExecutionPlan,
    scenario: Scenario,
    seed: u64,
) -> FaultPlan {
    let baseline = execute_plan(spec, g, plan).expect("baseline");
    let gpu = ResourceId(spec.gpu().0);
    let dispatches = baseline
        .trace
        .records()
        .iter()
        .filter(|r| r.resource == gpu)
        .count();
    scenario.plan(
        gpu,
        baseline.latency,
        dispatches,
        RetryPolicy::default().max_attempts,
        seed,
    )
}

fn assert_tiles(result: &uruntime::RunResult, spec: &SocSpec) {
    let attr = attribute(&result.trace, &result.resource_names, spec);
    for res in &attr.per_resource {
        let total: SimSpan = OverheadClass::ALL.iter().map(|&c| res.of(c)).sum();
        assert_eq!(
            total, attr.makespan,
            "classes do not tile the makespan on {}",
            res.name
        );
    }
}

fn functional_setup(g: &Graph) -> (Weights, unn::Calibration, Tensor) {
    let w = Weights::random(g, 7).expect("weights");
    let shape = g.input_shape().clone();
    let data: Vec<f32> = (0..shape.numel())
        .map(|i| (((i * 31) % 97) as f32) / 97.0 - 0.5)
        .collect();
    let x = Tensor::from_f32(shape, data).expect("input");
    let calib = unn::calibrate(g, &w, std::slice::from_ref(&x)).expect("calib");
    (w, calib, x)
}

#[test]
fn empty_fault_plan_is_exactly_the_fault_free_run() {
    let spec = SocSpec::exynos_7420();
    let g = ModelId::SqueezeNet.build_miniature();
    let plan = split_plan(&spec, &g);
    let base = execute_plan(&spec, &g, &plan).expect("base");
    let (faulted, report) = execute_plan_with_faults(
        &spec,
        &g,
        &plan,
        &FaultPlan::none(),
        &RetryPolicy::default(),
    )
    .expect("run");
    assert_eq!(base.latency, faulted.latency);
    assert_eq!(base.trace.records().len(), faulted.trace.records().len());
    assert_eq!(report.injected, 0);
    assert_eq!(report.retries, 0);
    assert!(report.fallbacks.is_empty());
    assert!(report.wasted.is_empty());
    assert!((base.energy.total_j() - faulted.energy.total_j()).abs() < 1e-12);
}

#[test]
fn throttle_slows_the_run_and_attribution_still_tiles() {
    let spec = SocSpec::exynos_7420();
    let g = ModelId::SqueezeNet.build_miniature();
    let plan = split_plan(&spec, &g);
    let base = execute_plan(&spec, &g, &plan).expect("base");
    let faults = gpu_scenario(&spec, &g, &plan, Scenario::Throttle, 11);
    let (result, report) =
        execute_plan_with_faults(&spec, &g, &plan, &faults, &RetryPolicy::default()).expect("run");
    assert!(report.injected > 0, "no throttle windows injected");
    assert!(
        result.latency > base.latency,
        "throttle did not slow the run: {} vs {}",
        result.latency,
        base.latency
    );
    assert!(result.metrics.counter("fault.injected") > 0);
    assert_tiles(&result, &spec);
}

#[test]
fn flaky_gpu_retries_falls_back_and_recovers_bit_identical() {
    let spec = SocSpec::exynos_7420();
    let g = ModelId::SqueezeNet.build_miniature();
    let plan = split_plan(&spec, &g);
    let faults = gpu_scenario(&spec, &g, &plan, Scenario::FlakyGpu, 11);
    let (result, report) =
        execute_plan_with_faults(&spec, &g, &plan, &faults, &RetryPolicy::default()).expect("run");
    assert!(report.retries >= 1, "expected at least one retry");
    assert!(
        !report.fallbacks.is_empty(),
        "the persistent transient should force a fallback"
    );
    assert!(result.metrics.counter("task.retries") >= 1);
    assert!(result.metrics.counter("fallback.parts") >= 1);
    assert_tiles(&result, &spec);

    // The recovery is exact: recomputing the failed parts' channels on
    // the CPU yields the same bits as the fault-free evaluation.
    let (w, calib, x) = functional_setup(&g);
    let clean = evaluate_plan(&g, &plan, &w, &calib, &x).expect("clean");
    let recovered =
        evaluate_plan_with_recovery(&g, &plan, &w, &calib, &x, &report.fallbacks).expect("rec");
    for (i, (a, b)) in clean.iter().zip(&recovered).enumerate() {
        assert!(a.bit_equal(b), "node {i} diverged under recovery");
    }
}

#[test]
fn gpu_loss_falls_back_to_cpu_bit_identical() {
    let spec = SocSpec::exynos_7420();
    let g = ModelId::SqueezeNet.build_miniature();
    let plan = split_plan(&spec, &g);
    let faults = gpu_scenario(&spec, &g, &plan, Scenario::GpuLoss, 11);
    let (result, report) =
        execute_plan_with_faults(&spec, &g, &plan, &faults, &RetryPolicy::default()).expect("run");
    assert!(
        !report.fallbacks.is_empty(),
        "losing the GPU must trigger CPU fallbacks"
    );
    // Every fallback re-executes on the CPU.
    for f in &report.fallbacks {
        assert_eq!(f.to, spec.cpu());
        assert_eq!(f.from, spec.gpu());
    }
    assert_tiles(&result, &spec);

    let (w, calib, x) = functional_setup(&g);
    let clean = evaluate_plan(&g, &plan, &w, &calib, &x).expect("clean");
    let recovered =
        evaluate_plan_with_recovery(&g, &plan, &w, &calib, &x, &report.fallbacks).expect("rec");
    for (i, (a, b)) in clean.iter().zip(&recovered).enumerate() {
        assert!(a.bit_equal(b), "node {i} diverged under recovery");
    }
}

#[test]
fn whole_node_fallback_recovers_gpu_single_plan() {
    // A GPU-single plan exercises the WholeNode fallback scope.
    let spec = SocSpec::exynos_7420();
    let g = ModelId::SqueezeNet.build_miniature();
    let plan = uruntime::single_processor_plan(&g, &spec, spec.gpu(), DType::F16).expect("plan");
    let faults = gpu_scenario(&spec, &g, &plan, Scenario::GpuLoss, 3);
    let (result, report) =
        execute_plan_with_faults(&spec, &g, &plan, &faults, &RetryPolicy::default()).expect("run");
    assert!(!report.fallbacks.is_empty());
    assert!(report
        .fallbacks
        .iter()
        .all(|f| f.scope == uruntime::FallbackScope::WholeNode));
    assert!(result.metrics.counter("fallback.parts") >= 1);
    assert_tiles(&result, &spec);
}

#[test]
fn fault_runs_are_reproducible_per_seed() {
    let spec = SocSpec::exynos_7420();
    let g = ModelId::SqueezeNet.build_miniature();
    let plan = split_plan(&spec, &g);
    for scenario in Scenario::ALL {
        let a_faults = gpu_scenario(&spec, &g, &plan, scenario, 42);
        let b_faults = gpu_scenario(&spec, &g, &plan, scenario, 42);
        assert_eq!(
            a_faults,
            b_faults,
            "{}: scenario plan not deterministic",
            scenario.name()
        );
        let (a, ra) =
            execute_plan_with_faults(&spec, &g, &plan, &a_faults, &RetryPolicy::default())
                .expect("a");
        let (b, rb) =
            execute_plan_with_faults(&spec, &g, &plan, &b_faults, &RetryPolicy::default())
                .expect("b");
        assert_eq!(a.latency, b.latency, "{}", scenario.name());
        assert_eq!(ra.retries, rb.retries, "{}", scenario.name());
        assert_eq!(ra.injected, rb.injected, "{}", scenario.name());
        assert_eq!(
            ra.fallbacks.len(),
            rb.fallbacks.len(),
            "{}",
            scenario.name()
        );
        for (x, y) in a.trace.records().iter().zip(b.trace.records()) {
            assert_eq!(x.start, y.start);
            assert_eq!(x.end, y.end);
        }
    }
}

#[test]
fn fault_trace_exports_overlay_tracks() {
    let spec = SocSpec::exynos_7420();
    let g = ModelId::SqueezeNet.build_miniature();
    let plan = split_plan(&spec, &g);
    let faults = gpu_scenario(&spec, &g, &plan, Scenario::Throttle, 11);
    let (result, report) =
        execute_plan_with_faults(&spec, &g, &plan, &faults, &RetryPolicy::default()).expect("run");
    let json = uruntime::chrome_trace_json(
        &result.trace,
        &result.resource_names,
        Some((&faults, &report.wasted)),
    );
    let summary = simcore::validate_chrome_trace(&json).expect("valid trace");
    assert!(
        summary.complete_events > result.trace.records().len(),
        "fault overlays missing from the export"
    );
    assert!(json.contains("throttle"), "throttle window not rendered");
}

#[test]
fn pipeline_degrades_frames_after_gpu_loss_and_counts_deadline_misses() {
    let spec = SocSpec::exynos_7420();
    let g = ModelId::SqueezeNet.build_miniature();
    let plan = split_plan(&spec, &g);
    let single = execute_plan(&spec, &g, &plan).expect("single");
    let degraded = uruntime::single_processor_plan(&g, &spec, spec.cpu(), DType::QUInt8)
        .expect("degraded plan");

    // Lose the GPU midway through a 6-frame stream: frames arriving after
    // the loss must run the degraded single-CPU plan.
    let interval = single.latency;
    let faults = FaultPlan::none().with_loss(simcore::DeviceLoss {
        resource: ResourceId(spec.gpu().0),
        at: simcore::SimTime::ZERO + interval * 2.5,
    });
    let deadline = single.latency * 3.0;
    let options = RunOptions {
        faults,
        degraded: Some(&degraded),
        deadline: Some(deadline),
        ..RunOptions::default()
    };
    let (result, report) =
        uruntime::execute_pipeline(&spec, &g, &plan, 6, interval, &options).expect("pipeline");
    assert_eq!(result.inputs, 6);
    assert!(
        !report.fallbacks.is_empty(),
        "the in-flight frame at the loss instant must fall back"
    );
    let frames_degraded = result.metrics.counter("frames.degraded");
    assert!(
        (1..6).contains(&frames_degraded),
        "expected a strict subset of frames degraded, got {frames_degraded}"
    );
    assert_eq!(
        result.metrics.counter("deadline.missed"),
        result.latencies.iter().filter(|&&l| l > deadline).count() as u64
    );
    assert!(result.metrics.counter("fault.injected") > 0);
}

#[test]
fn fault_free_pipeline_is_unchanged_by_the_resilient_path() {
    let spec = SocSpec::exynos_7420();
    let g = ModelId::SqueezeNet.build_miniature();
    let plan = split_plan(&spec, &g);
    let interval = SimSpan::from_micros(500);
    // With nothing injected the resilient machinery is inert: no fallback
    // is registered, and a degraded plan that is on offer is never used.
    let degraded = uruntime::single_processor_plan(&g, &spec, spec.cpu(), DType::QUInt8)
        .expect("degraded plan");
    let (base, _) =
        uruntime::execute_pipeline(&spec, &g, &plan, 4, interval, &RunOptions::default())
            .expect("base");
    let options = RunOptions {
        degraded: Some(&degraded),
        ..RunOptions::default()
    };
    let (faulted, report) =
        uruntime::execute_pipeline(&spec, &g, &plan, 4, interval, &options).expect("faulted");
    assert_eq!(base.makespan, faulted.makespan);
    assert_eq!(base.latencies, faulted.latencies);
    assert_eq!(base.trace.records().len(), faulted.trace.records().len());
    assert_eq!(report.injected, 0);
    assert!(report.fallbacks.is_empty());
}
