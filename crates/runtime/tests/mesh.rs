//! Mesh serving and the engine paths under it: per-hop transfer tasks,
//! link drops retried by the shared policy, and the stream entry on a
//! networked spec — a partition degrades frames to the surviving
//! subset's rung, a throttled link stretches service, and the frame
//! accounting stays exact throughout.

use simcore::{
    DeviceLoss, FaultPlan, ResourceId, RetryPolicy, SimSpan, SimTime, ThrottleWindow,
    TransientFault,
};
use unn::Graph;
use uruntime::{
    execute_plan, execute_plan_with_faults, serve_stream, single_processor_plan, FrameFate,
    LadderRung, ServeConfig,
};
use usoc::{DeviceId, SocSpec};
use utensor::DType;

fn mesh() -> (SocSpec, Graph) {
    (SocSpec::mcu_mesh(4), unn::ModelId::LeNet.build_miniature())
}

/// A hand-built ladder: full rung on the far node (crosses every
/// link), then node 1 (first link only), then the host alone.
fn ladder(spec: &SocSpec, g: &Graph) -> Vec<LadderRung> {
    [3usize, 1, 0]
        .iter()
        .map(|&d| LadderRung {
            label: format!("node-{d}"),
            plan: single_processor_plan(g, spec, DeviceId(d), DType::QUInt8).unwrap(),
            predicted: SimSpan::from_millis(1),
        })
        .collect()
}

#[test]
fn remote_plan_schedules_transfer_tasks_per_hop() {
    let (spec, g) = mesh();
    let plan = single_processor_plan(&g, &spec, DeviceId(2), DType::QUInt8).unwrap();
    let r = execute_plan(&spec, &g, &plan).unwrap();
    let xfers: Vec<&str> = r
        .trace
        .records()
        .iter()
        .filter(|t| t.label.contains("::xfer"))
        .map(|t| t.label.as_str())
        .collect();
    // Input crosses links 0 and 1 to reach node 2, the output
    // crosses back: at least four hop tasks.
    assert!(xfers.len() >= 4, "transfer tasks: {xfers:?}");
    assert!(xfers.iter().any(|l| l.contains("[0-1]")));
    assert!(xfers.iter().any(|l| l.contains("[1-2]")));
    // Transfers occupy the link resources, not device timelines.
    let ndev = spec.devices.len();
    for t in r.trace.records() {
        if t.label.contains("::xfer") {
            assert!(t.resource.0 >= ndev, "{} on {:?}", t.label, t.resource);
        }
    }
    // A remote run is slower than a host-local one (it pays the
    // wire), but still completes.
    let local = execute_plan(
        &spec,
        &g,
        &single_processor_plan(&g, &spec, spec.cpu(), DType::QUInt8).unwrap(),
    )
    .unwrap();
    assert!(r.latency > local.latency);
}

#[test]
fn link_drop_is_retried_by_the_shared_policy() {
    let (spec, g) = mesh();
    let plan = single_processor_plan(&g, &spec, DeviceId(1), DType::QUInt8).unwrap();
    let ndev = spec.devices.len();
    let mut faults = FaultPlan::none();
    faults.transients.push(TransientFault {
        resource: ResourceId(ndev), // link 0-1
        ordinal: 0,
        failures: 1,
    });
    let policy = RetryPolicy::default();
    let (r, report) = execute_plan_with_faults(&spec, &g, &plan, &faults, &policy).unwrap();
    assert!(report.retries >= 1, "drop was not retried");
    assert!(r.latency > SimSpan::ZERO);
}

#[test]
fn partition_degrades_to_surviving_rung_and_accounts_exactly() {
    let (spec, g) = mesh();
    let ladder = ladder(&spec, &g);
    let ndev = spec.devices.len();
    // Cut the middle link (1-2) halfway through: nodes 2 and 3
    // become unreachable, so the far-node rung is ineligible and
    // frames fall through to node 1 / host rungs.
    let full = execute_plan(&spec, &g, &ladder[0].plan).unwrap().latency;
    let n = 24u64;
    let interval = full * 2u64;
    let cut = SimTime::ZERO + interval * (n / 2);
    let mut faults = FaultPlan::none();
    faults.losses.push(DeviceLoss {
        resource: ResourceId(ndev + 1),
        at: cut,
    });
    let arrivals: Vec<SimTime> = (0..n).map(|k| SimTime::ZERO + interval * k).collect();
    let cfg = ServeConfig {
        queue_capacity: 4,
        deadline: full * 4u64,
    };
    let report = serve_stream(&spec, &g, &ladder, &arrivals, &cfg, &faults).unwrap();
    report.check_invariants().unwrap();
    assert_eq!(report.shed, 0, "every frame should find a rung");
    assert!(report.completed > 0, "pre-cut frames run rung 0");
    assert!(report.degraded > 0, "post-cut frames degrade");
    assert!(report.frames_during_partition > 0);
    assert!(report.partition_degraded > 0);
    assert_eq!(
        report.completed + report.degraded + report.shed,
        report.offered
    );
    // After the cut, nothing executes on the far rung.
    for rec in &report.frames {
        if let FrameFate::Executed { rung } = rec.fate {
            if rec.arrival >= cut {
                assert_ne!(rung, 0, "frame {} ran the cut-off rung", rec.frame);
            }
        }
    }
}

#[test]
fn throttled_link_stretches_service_without_shedding() {
    let (spec, g) = mesh();
    let ladder = ladder(&spec, &g);
    let full = execute_plan(&spec, &g, &ladder[0].plan).unwrap().latency;
    let ndev = spec.devices.len();
    let mut faults = FaultPlan::none();
    faults.throttles.push(ThrottleWindow {
        resource: ResourceId(ndev),
        factor: 0.5,
        from: SimTime::ZERO,
        until: SimTime::ZERO + full * 100u64,
    });
    let arrivals: Vec<SimTime> = (0..8u64)
        .map(|k| SimTime::ZERO + (full * 4u64) * k)
        .collect();
    let cfg = ServeConfig {
        queue_capacity: 4,
        deadline: full * 3u64,
    };
    let clean = serve_stream(&spec, &g, &ladder, &arrivals, &cfg, &FaultPlan::none()).unwrap();
    let slow = serve_stream(&spec, &g, &ladder, &arrivals, &cfg, &faults).unwrap();
    clean.check_invariants().unwrap();
    slow.check_invariants().unwrap();
    assert_eq!(slow.offered, clean.offered);
    // Throttling the first link makes remote rungs slower, so the
    // throttled run cannot complete more full-fidelity frames.
    assert!(slow.completed <= clean.completed);
    assert_eq!(slow.frames_during_partition, 0, "throttle is not a cut");
}
