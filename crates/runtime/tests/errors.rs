//! Error-path coverage: every `RunError` arm has a faithful `Display`
//! and `From` conversion, and the engine never panics on structurally
//! valid but adversarially perturbed plans — invalid inputs surface as
//! typed errors, faults as recoverable reports.

use simcore::{FaultPlan, ResourceId, RetryPolicy, Scenario, ScheduleError, SimSpan, TaskId};
use unn::{Graph, ModelId};
use uruntime::{execute_plan, execute_plan_with_faults, ExecutionPlan, NodePlacement, RunError};
use usoc::{DtypePlan, SocError, SocSpec};
use utensor::{DType, Shape, Tensor, TensorError};

#[test]
fn run_error_display_names_every_arm() {
    let tensor = RunError::from(TensorError::LengthMismatch {
        shape: Shape::nchw(1, 3, 2, 2),
        len: 7,
    });
    assert!(tensor.to_string().starts_with("tensor error:"));
    assert!(matches!(tensor, RunError::Tensor(_)));

    let soc = RunError::from(SocError::UnknownDevice(usoc::DeviceId(42)));
    assert!(soc.to_string().starts_with("soc error:"));
    assert!(soc.to_string().contains("42"));
    assert!(matches!(soc, RunError::Soc(_)));

    let sched = RunError::from(ScheduleError::Cycle { unscheduled: 3 });
    assert!(sched.to_string().starts_with("schedule error:"));
    assert!(sched.to_string().contains("3 task(s)"));
    assert!(matches!(sched, RunError::Schedule(_)));

    let malformed = RunError::MalformedPlan("no cpu part".into());
    assert_eq!(malformed.to_string(), "malformed plan: no cpu part");

    let unrec = RunError::Unrecoverable("task 9 lost".into());
    assert_eq!(unrec.to_string(), "unrecoverable failure: task 9 lost");
}

#[test]
fn run_error_is_a_std_error_with_sources() {
    // The error type composes with `?` and `Box<dyn Error>` callers.
    let boxed: Box<dyn std::error::Error> =
        Box::new(RunError::from(ScheduleError::UnknownDependency {
            task: TaskId(1),
            dep: TaskId(99),
        }));
    assert!(boxed.to_string().contains("nonexistent"));
}

#[test]
fn soc_error_display_round_trips_through_run_error() {
    let cases = [
        SocError::UnknownDevice(usoc::DeviceId(7)),
        SocError::UnsupportedDtype {
            device: "NPU".into(),
            dtype: DType::F32,
        },
    ];
    for e in cases {
        let inner = e.to_string();
        let wrapped = RunError::from(e);
        assert_eq!(wrapped.to_string(), format!("soc error: {inner}"));
    }
}

#[test]
fn an_input_of_the_wrong_shape_is_rejected_before_any_node_runs() {
    // The evaluator takes its shapes from the graph the engine costs, so
    // an input of any other shape is a typed error up front, not a run
    // over shapes the plan was never lowered for.
    struct NoNode;
    impl uruntime::ExecBackend for NoNode {
        fn name(&self) -> &str {
            "no-node"
        }
        fn run_node(
            &self,
            _: &[uruntime::PartTask<'_>],
            _: &mut utensor::TensorViewMut<'_>,
        ) -> Result<(), TensorError> {
            panic!("a node ran on a mis-shaped input")
        }
    }
    let spec = SocSpec::exynos_7420();
    let g = ModelId::SqueezeNet.build_miniature();
    let plan = uruntime::single_processor_plan(&g, &spec, spec.cpu(), DType::QUInt8).expect("plan");
    let w = unn::Weights::random(&g, 3).expect("weights");
    let expected = g.input_shape().clone();
    let x = Tensor::zeros(expected.clone(), DType::F32, None);
    let calib = unn::calibrate(&g, &w, std::slice::from_ref(&x)).expect("calibration");
    let found = Shape::nchw(1, expected.c(), expected.h() + 2, expected.w() + 2);
    let wrong = Tensor::zeros(found.clone(), DType::F32, None);
    let err = uruntime::evaluate_plan_with_backend(&g, &plan, &w, &calib, &wrong, &NoNode)
        .expect_err("a mis-shaped input must not evaluate");
    assert_eq!(err, TensorError::ShapeMismatch { expected, found });
}

#[test]
fn unrecoverable_runs_report_not_panic() {
    // A GPU-single plan with the GPU lost at t=0 and no fallback path is
    // unrecoverable by construction when resilience is off... but the
    // resilient entry point always registers fallbacks, so instead build
    // a plan whose only fallback target is the lost device itself: lose
    // the *CPU*. Host tasks can never complete, every part fails, and
    // the run must surface `RunError::Unrecoverable`.
    let spec = SocSpec::exynos_7420();
    let g = ModelId::SqueezeNet.build_miniature();
    let plan = uruntime::single_processor_plan(&g, &spec, spec.cpu(), DType::QUInt8).expect("plan");
    let faults = FaultPlan::none().with_loss(simcore::DeviceLoss {
        resource: ResourceId(spec.cpu().0),
        at: simcore::SimTime::ZERO,
    });
    let err = execute_plan_with_faults(&spec, &g, &plan, &faults, &RetryPolicy::default())
        .expect_err("losing the only processor cannot be recovered");
    assert!(matches!(err, RunError::Unrecoverable(_)), "got {err}");
}

/// Builds a structurally valid plan for `g` from per-layer draws: each
/// distributable layer is CPU-single, GPU-single, or CPU+GPU split at a
/// perturbed fraction; non-distributable layers stay on the CPU.
fn perturbed_plan(
    spec: &SocSpec,
    g: &Graph,
    choices: &[(u8, f64)],
) -> Result<ExecutionPlan, TensorError> {
    let placements = g
        .nodes()
        .iter()
        .enumerate()
        .map(|(i, n)| {
            let (kind, p) = choices[i % choices.len()];
            if !n.kind.is_distributable() {
                return NodePlacement::single(spec.cpu(), DType::QUInt8);
            }
            match kind % 3 {
                0 => NodePlacement::single(spec.cpu(), DType::QUInt8),
                1 => NodePlacement::Single {
                    device: spec.gpu(),
                    dtypes: DtypePlan::proc_friendly_gpu(),
                },
                _ => NodePlacement::Split {
                    parts: vec![
                        (spec.cpu(), DtypePlan::proc_friendly_cpu(), p),
                        (spec.gpu(), DtypePlan::proc_friendly_gpu(), 1.0 - p),
                    ],
                },
            }
        })
        .collect();
    ExecutionPlan::new(g, spec, placements, "perturbed")
}

testkit::props! {
    #![cases(48)]

    /// Mutated N-device mesh plans never panic: a plan corrupted
    /// *after* construction (unknown device, device cut off from the
    /// host, non-finite or out-of-range split fractions, an empty split,
    /// a missing placement, a split on a layer that cannot be distributed,
    /// mixed storage dtypes) is
    /// rejected by the engine with `RunError::MalformedPlan` and — for
    /// the mutations that need no spec to detect — by the functional
    /// evaluator with a typed `TensorError`. Never a panic, never `Ok`.
    fn mesh_plan_mutations_are_typed_errors_not_panics(
        mutation in testkit::select(vec![0usize, 1, 2, 3, 4, 5, 6]),
        node in 0usize..64,
        bad_dev in 4usize..32,
        frac in testkit::select(vec![-0.5f64, 1.5, f64::NAN, f64::INFINITY]),
    ) {
        let mut spec = SocSpec::mcu_mesh(4);
        let g = ModelId::LeNet.build_miniature();
        let mut plan =
            uruntime::single_processor_plan(&g, &spec, spec.cpu(), DType::QUInt8)
                .expect("base mesh plan");
        let i = node % plan.placements.len();
        let cpu = spec.cpu();
        let split = move |first: f64| NodePlacement::Split {
            parts: vec![
                (cpu, DtypePlan::uniform(DType::QUInt8), first),
                (usoc::DeviceId(1), DtypePlan::uniform(DType::QUInt8), 1.0 - first),
            ],
        };
        match mutation {
            0 => {
                // Unknown device: index past the spec's device table.
                plan.placements[i] = NodePlacement::single(usoc::DeviceId(bad_dev), DType::QUInt8);
            }
            1 => {
                // Cut the last link: node 3 still exists but has no
                // route from the host.
                spec.links.pop();
                plan.placements[i] = NodePlacement::single(usoc::DeviceId(3), DType::QUInt8);
            }
            2 => {
                // A split fraction that is non-finite or outside [0, 1].
                plan.placements[i] = split(frac);
            }
            3 => {
                // A split with no parts at all.
                plan.placements[i] = NodePlacement::Split { parts: vec![] };
            }
            4 => {
                // One placement short of the graph.
                plan.placements.pop();
            }
            5 => {
                // A sane split, on the softmax head.
                let softmax = g
                    .nodes()
                    .iter()
                    .position(|n| !n.kind.is_distributable())
                    .expect("the net has a non-distributable layer");
                plan.placements[softmax] = split(0.5);
            }
            _ => {
                // One layer storing f32 in a QUInt8 plan.
                plan.placements[i.max(1)] = NodePlacement::single(cpu, DType::F32);
            }
        }
        let err = execute_plan(&spec, &g, &plan)
            .expect_err("a corrupted plan must not execute");
        testkit::prop_assert!(
            matches!(err, RunError::MalformedPlan(_)),
            "expected MalformedPlan, got: {err}"
        );
        // The two spec-level mutations are invisible without a spec.
        if mutation >= 2 {
            let w = unn::Weights::random(&g, 3).expect("weights");
            let x = Tensor::zeros(g.input_shape().clone(), DType::F32, None);
            let calib = unn::calibrate(&g, &w, std::slice::from_ref(&x)).expect("calibration");
            let evaluated = uruntime::evaluate_plan(&g, &plan, &w, &calib, &x);
            testkit::prop_assert!(
                matches!(evaluated, Err(TensorError::BadGraph(_))),
                "expected a typed plan error, got: {:?}",
                evaluated.map(|outputs| outputs.len())
            );
        }
    }

    /// The engine never panics on a perturbed-but-valid plan: it either
    /// executes (positive latency, non-empty trace) or rejects the plan
    /// with a typed error at construction.
    fn execute_never_panics_on_perturbed_plans(
        choices in testkit::vec_of((0u8..3, 0.05f64..0.95), 4..12),
        seed in 0u64..1_000,
        scenario in testkit::select(vec![0usize, 1, 2]),
    ) {
        let spec = SocSpec::exynos_7420();
        let g = ModelId::SqueezeNet.build_miniature();
        let plan = match perturbed_plan(&spec, &g, &choices) {
            Ok(plan) => plan,
            // Extreme fractions can make a split share round to zero
            // channels; rejection is the correct non-panic outcome.
            Err(_) => return Ok(()),
        };
        let base = execute_plan(&spec, &g, &plan);
        testkit::prop_assert!(base.is_ok(), "fault-free run failed: {:?}", base.err().map(|e| e.to_string()));
        let base = base.unwrap();
        testkit::prop_assert!(base.latency > SimSpan::ZERO);
        testkit::prop_assert!(!base.trace.records().is_empty());

        // And under every fault scenario the resilient path either
        // recovers or reports a typed error — never a panic.
        let sc = Scenario::ALL[scenario];
        let gpu = ResourceId(spec.gpu().0);
        let dispatches = base.trace.records().iter().filter(|r| r.resource == gpu).count();
        let faults = sc.plan(
            gpu,
            base.latency,
            dispatches,
            RetryPolicy::default().max_attempts,
            seed,
        );
        match execute_plan_with_faults(&spec, &g, &plan, &faults, &RetryPolicy::default()) {
            Ok((result, _)) => {
                testkit::prop_assert!(result.latency >= base.latency);
            }
            Err(e) => {
                testkit::prop_assert!(
                    matches!(e, RunError::Unrecoverable(_)),
                    "unexpected error class: {e}"
                );
            }
        }
    }
}
