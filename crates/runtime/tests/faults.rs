//! Fault injection through the engine: watchdog retries, CPU fallback
//! re-execution, attribution tiling under faults, reproducibility, and
//! the bit-identical recovery guarantee.

use std::sync::Mutex;

use simcore::{DeviceLoss, FaultPlan, ResourceId, RetryPolicy, Scenario, SimSpan, SimTime};
use unn::{Graph, ModelId, Weights};
use uruntime::{
    attribute, evaluate_plan, evaluate_plan_with_backend, execute_plan, execute_plan_with_faults,
    ExecBackend, ExecutionPlan, FallbackScope, NodePlacement, OverheadClass, PartTask,
    SimulatedBackend,
};
use usoc::{DtypePlan, SocSpec};
use utensor::{DType, Tensor, TensorError, TensorViewMut};

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
    let recovered = evaluate_plan_with_backend(
        &g,
        &plan,
        &w,
        &calib,
        &x,
        &SimulatedBackend {
            fallbacks: &report.fallbacks,
        },
    )
    .expect("rec");
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
    let recovered = evaluate_plan_with_backend(
        &g,
        &plan,
        &w,
        &calib,
        &x,
        &SimulatedBackend {
            fallbacks: &report.fallbacks,
        },
    )
    .expect("rec");
    for (i, (a, b)) in clean.iter().zip(&recovered).enumerate() {
        assert!(a.bit_equal(b), "node {i} diverged under recovery");
    }
}

/// `(node, part index, channel range)` of one evaluator task.
type TaskRange = (usize, usize, Option<(usize, usize)>);

/// Forwards to an inner backend, recording the [`TaskRange`] of every
/// task the evaluator hands it.
struct TaskRanges<'a> {
    inner: SimulatedBackend<'a>,
    ranges: Mutex<Vec<TaskRange>>,
}

impl ExecBackend for TaskRanges<'_> {
    fn name(&self) -> &str {
        "task-ranges"
    }

    fn run_node(
        &self,
        tasks: &[PartTask<'_>],
        out: &mut TensorViewMut<'_>,
    ) -> Result<(), TensorError> {
        let ranges = tasks
            .iter()
            .map(|t| (t.node.0, t.part_index, t.split.map(|(_, lo, hi)| (lo, hi))));
        self.ranges.lock().unwrap().extend(ranges);
        self.inner.run_node(tasks, out)
    }
}

#[test]
fn fallback_ranges_are_the_channels_the_evaluator_writes() {
    // Distributable layers alternate between a 0.37 CPU share, which
    // divides none of the miniature's channel counts, and 0.97, whose
    // 0.03 GPU share rounds to no channel of a layer narrower than 17.
    // With the GPU lost from the start every GPU part falls back, and
    // each fallback must recompute exactly the channels the evaluator
    // gives that part; an empty share neither runs nor falls back.
    let spec = SocSpec::exynos_7420();
    let g = ModelId::SqueezeNet.build_miniature();
    let mut splits = 0;
    let placements = g
        .nodes()
        .iter()
        .map(|n| {
            if !n.kind.is_distributable() {
                return NodePlacement::single(spec.cpu(), DType::QUInt8);
            }
            splits += 1;
            let cpu_share = if splits % 2 == 0 { 0.97 } else { 0.37 };
            NodePlacement::Split {
                parts: vec![
                    (spec.cpu(), DtypePlan::proc_friendly_cpu(), cpu_share),
                    (spec.gpu(), DtypePlan::proc_friendly_gpu(), 1.0 - cpu_share),
                ],
            }
        })
        .collect();
    let plan = ExecutionPlan::new(&g, &spec, placements, "uneven").expect("plan");
    let faults = FaultPlan::none().with_loss(DeviceLoss {
        resource: ResourceId(spec.gpu().0),
        at: SimTime::ZERO,
    });
    let (_, report) =
        execute_plan_with_faults(&spec, &g, &plan, &faults, &RetryPolicy::default()).expect("run");
    assert!(!report.fallbacks.is_empty());

    let (w, calib, x) = functional_setup(&g);
    let recorder = TaskRanges {
        inner: SimulatedBackend {
            fallbacks: &report.fallbacks,
        },
        ranges: Mutex::new(Vec::new()),
    };
    let recovered = evaluate_plan_with_backend(&g, &plan, &w, &calib, &x, &recorder).expect("rec");
    let ranges = recorder.ranges.into_inner().unwrap();
    let mut uneven = 0;
    for f in &report.fallbacks {
        let FallbackScope::Channels { index, lo, hi } = f.scope else {
            panic!("GPU work of this plan is split work: {f:?}");
        };
        let written: Vec<_> = ranges
            .iter()
            .filter(|r| r.0 == f.node.0 && r.1 == index)
            .collect();
        assert_eq!(written, [&(f.node.0, index, Some((lo, hi)))], "{f:?}");
        let NodePlacement::Split { parts } = &plan.placements[f.node.0] else {
            panic!("a fallback by channels is of a split node: {f:?}");
        };
        let channels = recovered[f.node.0].shape().c() as f64;
        if (hi - lo) as f64 / channels != parts[index].2 {
            uneven += 1;
        }
    }
    assert!(uneven > 0, "no fallback of a share that does not divide");
    // Some split ran its CPU part alone: its GPU share rounded to empty.
    let empty: Vec<usize> = (0..g.len())
        .filter(|&i| {
            plan.placements[i].devices().len() == 2 && !ranges.iter().any(|r| r.0 == i && r.1 == 1)
        })
        .collect();
    assert!(!empty.is_empty(), "no share rounded to empty");
    assert!(report.fallbacks.iter().all(|f| !empty.contains(&f.node.0)));

    let clean = evaluate_plan(&g, &plan, &w, &calib, &x).expect("clean");
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
