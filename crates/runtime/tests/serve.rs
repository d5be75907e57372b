//! Serving-frontend integration: bounded admission under sustained
//! overload, deadline-driven degradation with recovery, exact frame
//! accounting, shed paths, determinism, and the trace/metrics surface.

use simcore::{validate_chrome_trace, ArrivalKind, ArrivalProcess, FaultPlan, SimSpan, SimTime};
use unn::{Graph, ModelId};
use uruntime::{
    execute_plan, serve_stream, single_processor_plan, ExecutionPlan, FrameFate, LadderRung,
    NodePlacement, RunError, ServeConfig,
};
use usoc::{DtypePlan, SocSpec};
use utensor::DType;

fn net() -> Graph {
    ModelId::SqueezeNet.build_miniature()
}

/// A cooperative CPU+GPU split plan: every distributable layer is split
/// 0.5/0.5 with processor-friendly dtypes, the rest are CPU-single.
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
        "serve-full",
    )
    .expect("plan")
}

/// A three-rung ladder built without the partitioner: full cooperative
/// split, then single-CPU, then single-GPU. `predicted` carries each
/// rung's realized latency (the serving loop dispatches on realized
/// latencies; `predicted` is planner metadata).
fn ladder(spec: &SocSpec, g: &Graph) -> Vec<LadderRung> {
    let mut rungs = Vec::new();
    for (label, plan) in [
        ("full".to_string(), split_plan(spec, g)),
        (
            "single-cpu".to_string(),
            single_processor_plan(g, spec, spec.cpu(), DType::QUInt8).expect("cpu plan"),
        ),
        (
            "single-gpu".to_string(),
            single_processor_plan(g, spec, spec.gpu(), DType::QUInt8).expect("gpu plan"),
        ),
    ] {
        let predicted = execute_plan(spec, g, &plan).expect("rung run").latency;
        rungs.push(LadderRung {
            label,
            plan,
            predicted,
        });
    }
    rungs
}

/// Service latency of the full cooperative rung — the yardstick every
/// arrival schedule in this file is sized against.
fn full_latency(spec: &SocSpec, g: &Graph, ladder: &[LadderRung]) -> SimSpan {
    execute_plan(spec, g, &ladder[0].plan).expect("run").latency
}

fn fixed_arrivals(n: usize, interval: SimSpan) -> Vec<SimTime> {
    ArrivalProcess::Fixed { interval }.times(n, 1)
}

#[test]
fn underload_stays_on_the_full_rung() {
    let spec = SocSpec::exynos_7420();
    let g = net();
    let ladder = ladder(&spec, &g);
    let full = full_latency(&spec, &g, &ladder);
    let arrivals = fixed_arrivals(24, full * 3u64);
    let cfg = ServeConfig {
        queue_capacity: 4,
        deadline: full * 2u64,
    };
    let report =
        serve_stream(&spec, &g, &ladder, &arrivals, &cfg, &FaultPlan::none()).expect("serve");
    report.check_invariants().expect("invariants");
    assert_eq!(report.offered, 24);
    assert_eq!(report.completed, 24, "{:?}", report.rung_counts);
    assert_eq!(report.degraded, 0);
    assert_eq!(report.shed, 0);
    assert_eq!(report.rejected, 0);
    assert_eq!(report.queue_peak, 0, "no frame should ever wait");
    // Every executed frame ran start == arrival, finish == start + full.
    for r in &report.frames {
        assert_eq!(r.fate, FrameFate::Executed { rung: 0 });
        assert_eq!(r.start, r.arrival);
    }
}

#[test]
fn sustained_overload_bounds_the_queue_and_accounts_every_frame() {
    let spec = SocSpec::exynos_7420();
    let g = net();
    let ladder = ladder(&spec, &g);
    let full = full_latency(&spec, &g, &ladder);
    // Offered load far above capacity: arrivals every full/6.
    let arrivals = fixed_arrivals(200, SimSpan::from_nanos((full.as_nanos() / 6).max(1)));
    let cfg = ServeConfig {
        queue_capacity: 4,
        deadline: full * 3u64,
    };
    let report =
        serve_stream(&spec, &g, &ladder, &arrivals, &cfg, &FaultPlan::none()).expect("serve");
    report.check_invariants().expect("invariants");
    assert_eq!(report.offered, 200);
    assert!(
        report.queue_peak <= cfg.queue_capacity,
        "queue peak {} > bound {}",
        report.queue_peak,
        cfg.queue_capacity
    );
    assert!(
        report.rejected > 0,
        "6x overload with queue 4 must exercise backpressure"
    );
    // Nothing silently lost: the partition is exact (also re-derivable
    // from the per-frame fates).
    let by_fate = |f: fn(&FrameFate) -> bool| report.frames.iter().filter(|r| f(&r.fate)).count();
    let executed = by_fate(|f| matches!(f, FrameFate::Executed { .. })) as u64;
    let shed = by_fate(|f| matches!(f, FrameFate::Shed | FrameFate::Rejected)) as u64;
    assert_eq!(executed + shed, report.offered);
    assert_eq!(report.completed + report.degraded, executed);
    assert_eq!(report.shed, shed);
    // Under this pressure the ladder must have been used.
    assert!(
        report.degraded > 0,
        "overload should push frames onto degraded rungs: {:?}",
        report.rung_counts
    );
}

#[test]
fn burst_degrades_then_recovers_to_full_fidelity() {
    let spec = SocSpec::exynos_7420();
    let g = net();
    let ladder = ladder(&spec, &g);
    let full = full_latency(&spec, &g, &ladder);
    // A hard burst (20 frames at full/4 spacing) followed by a sparse
    // tail (frames at 4x the full-plan latency).
    let mut arrivals = Vec::new();
    let burst_gap = SimSpan::from_nanos((full.as_nanos() / 4).max(1));
    for k in 0..20u64 {
        arrivals.push(SimTime::ZERO + burst_gap * k);
    }
    let tail_start = SimTime::ZERO + burst_gap * 20u64 + full * 8u64;
    for k in 0..6u64 {
        arrivals.push(tail_start + (full * 4u64) * k);
    }
    let cfg = ServeConfig {
        queue_capacity: 6,
        deadline: full * 2u64,
    };
    let report =
        serve_stream(&spec, &g, &ladder, &arrivals, &cfg, &FaultPlan::none()).expect("serve");
    report.check_invariants().expect("invariants");
    // The burst forces degradation (or shedding)...
    assert!(
        report.degraded + report.shed > 0,
        "burst absorbed without any degradation: {:?}",
        report.rung_counts
    );
    // ...and the sparse tail climbs back to the full cooperative plan.
    for r in report.frames.iter().rev().take(5) {
        assert_eq!(
            r.fate,
            FrameFate::Executed { rung: 0 },
            "frame {} after the backlog drained should run rung 0",
            r.frame
        );
    }
}

#[test]
fn impossible_deadline_sheds_every_admitted_frame() {
    let spec = SocSpec::exynos_7420();
    let g = net();
    let ladder = ladder(&spec, &g);
    let arrivals = fixed_arrivals(16, SimSpan::from_millis(5));
    let cfg = ServeConfig {
        queue_capacity: 8,
        deadline: SimSpan::from_nanos(1),
    };
    let report =
        serve_stream(&spec, &g, &ladder, &arrivals, &cfg, &FaultPlan::none()).expect("serve");
    report.check_invariants().expect("invariants");
    assert_eq!(report.completed + report.degraded, 0);
    assert_eq!(report.shed, 16);
    // Shedding is instantaneous, so the waiting room never backs up and
    // admission never rejects.
    assert_eq!(report.rejected, 0);
    assert_eq!(report.latencies.len(), 0);
    // An all-shed stream has no completion tail: the percentile is
    // absent, not a healthy-looking 0 ms, and the latency gauges are
    // deliberately unset.
    for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
        assert_eq!(report.latency_percentile(q), None, "q = {q}");
    }
    assert!(report.metrics.gauge_of("serve.latency_p50_ms").is_none());
    assert!(report.metrics.gauge_of("serve.latency_p95_ms").is_none());
    assert!(report.metrics.gauge_of("serve.latency_p99_ms").is_none());
}

#[test]
fn malformed_inputs_are_rejected() {
    let spec = SocSpec::exynos_7420();
    let g = net();
    let ladder = ladder(&spec, &g);
    let cfg = ServeConfig {
        queue_capacity: 4,
        deadline: SimSpan::from_millis(10),
    };
    let arrivals = fixed_arrivals(4, SimSpan::from_millis(1));

    let err = serve_stream(&spec, &g, &[], &arrivals, &cfg, &FaultPlan::none()).unwrap_err();
    assert!(
        matches!(err, RunError::MalformedPlan(ref m) if m.contains("ladder")),
        "{err:?}"
    );

    let zero_q = ServeConfig {
        queue_capacity: 0,
        ..cfg
    };
    let err = serve_stream(&spec, &g, &ladder, &arrivals, &zero_q, &FaultPlan::none()).unwrap_err();
    assert!(
        matches!(err, RunError::MalformedPlan(ref m) if m.contains("capacity")),
        "{err:?}"
    );

    let unsorted = vec![SimTime::from_nanos(10), SimTime::from_nanos(5)];
    let err = serve_stream(&spec, &g, &ladder, &unsorted, &cfg, &FaultPlan::none()).unwrap_err();
    assert!(
        matches!(err, RunError::MalformedPlan(ref m) if m.contains("sorted")),
        "{err:?}"
    );
}

#[test]
fn serving_is_deterministic_per_arrival_schedule() {
    let spec = SocSpec::exynos_7880();
    let g = net();
    let ladder = ladder(&spec, &g);
    let full = full_latency(&spec, &g, &ladder);
    let mean = SimSpan::from_nanos((full.as_nanos() / 3).max(1));
    let arrivals = ArrivalProcess::from_kind(ArrivalKind::Bursty, mean).times(96, 42);
    let cfg = ServeConfig {
        queue_capacity: 5,
        deadline: full * 3u64,
    };
    let a = serve_stream(&spec, &g, &ladder, &arrivals, &cfg, &FaultPlan::none()).expect("serve");
    let b = serve_stream(&spec, &g, &ladder, &arrivals, &cfg, &FaultPlan::none()).expect("serve");
    assert_eq!(a.rung_counts, b.rung_counts);
    assert_eq!(a.queue_peak, b.queue_peak);
    assert_eq!(a.latencies, b.latencies);
    assert_eq!(a.metrics.render(), b.metrics.render());
    for (ra, rb) in a.frames.iter().zip(&b.frames) {
        assert_eq!(ra.fate, rb.fate);
        assert_eq!(ra.start, rb.start);
        assert_eq!(ra.finish, rb.finish);
    }
}

#[test]
fn seeded_bursty_overload_is_fully_accounted() {
    // The ISSUE's acceptance scenario: seeded bursty arrivals, bounded
    // queue, exact accounting, shed/degraded counters populated.
    let spec = SocSpec::exynos_7420();
    let g = net();
    let ladder = ladder(&spec, &g);
    let full = full_latency(&spec, &g, &ladder);
    let mean = SimSpan::from_nanos((full.as_nanos() / 2).max(1));
    let arrivals = ArrivalProcess::from_kind(ArrivalKind::Bursty, mean).times(128, 7);
    let cfg = ServeConfig {
        queue_capacity: 6,
        deadline: full * 2u64,
    };
    let report =
        serve_stream(&spec, &g, &ladder, &arrivals, &cfg, &FaultPlan::none()).expect("serve");
    report.check_invariants().expect("invariants");
    assert_eq!(report.offered, 128);
    assert_eq!(
        report.completed + report.degraded + report.shed,
        report.offered
    );
    assert!(report.queue_peak <= cfg.queue_capacity);
    let m = &report.metrics;
    assert_eq!(m.counter("frames.offered"), report.offered);
    assert_eq!(m.counter("frames.shed"), report.shed);
    assert_eq!(m.counter("frames.degraded_load"), report.degraded);
    assert_eq!(m.counter("queue.rejected"), report.rejected);
    assert_eq!(m.counter("queue.peak_depth"), report.queue_peak as u64);
    assert_eq!(m.counter("serve.rung.full"), report.rung_counts[0]);
    assert!(m.gauge_of("serve.latency_p95_ms").is_some());
    assert!(m.gauge_of("serve.latency_p99_ms").is_some());
    // Percentiles are monotone in q.
    let p50 = report.latency_percentile(0.50).expect("frames completed");
    let p95 = report.latency_percentile(0.95).expect("frames completed");
    let p99 = report.latency_percentile(0.99).expect("frames completed");
    assert!(p50 <= p95);
    assert!(p95 <= p99);
}

#[test]
fn chrome_trace_overlay_is_valid_and_carries_serve_tracks() {
    let spec = SocSpec::exynos_7420();
    let g = net();
    let ladder = ladder(&spec, &g);
    let full = full_latency(&spec, &g, &ladder);
    let arrivals = fixed_arrivals(40, SimSpan::from_nanos((full.as_nanos() / 5).max(1)));
    let cfg = ServeConfig {
        queue_capacity: 3,
        deadline: full * 2u64,
    };
    let report =
        serve_stream(&spec, &g, &ladder, &arrivals, &cfg, &FaultPlan::none()).expect("serve");
    let json = report.chrome_trace_json();
    let summary = validate_chrome_trace(&json).expect("valid chrome trace");
    assert!(summary.complete_events > 0);
    assert!(summary.tracks >= 2, "expected admission + rung tracks");
    assert!(json.contains("serve:admission"));
    assert!(json.contains("serve:rung:full"));
    if report.rejected > 0 {
        assert!(json.contains("\"reject\""));
    }
    if report.shed > report.rejected {
        assert!(json.contains("serve:shed"));
    }
}

#[test]
fn a_single_soc_reports_no_partition_and_no_mesh_counters() {
    // A spec without links is the mesh with nothing to cut: the stream
    // entry reports zero partition statistics and keeps the `mesh.*`
    // counters out of the registry.
    let spec = SocSpec::exynos_7420();
    let g = net();
    let ladder = ladder(&spec, &g);
    let full = full_latency(&spec, &g, &ladder);
    let arrivals = fixed_arrivals(32, SimSpan::from_nanos((full.as_nanos() / 3).max(1)));
    let cfg = ServeConfig {
        queue_capacity: 3,
        deadline: full * 2u64,
    };
    let report =
        serve_stream(&spec, &g, &ladder, &arrivals, &cfg, &FaultPlan::none()).expect("serve");
    report.check_invariants().expect("invariants");
    assert!(report.degraded > 0, "the overload should degrade frames");
    assert_eq!(report.links, 0);
    assert_eq!(report.down_links_at_arrival, vec![0; 32]);
    assert_eq!(report.frames_during_partition, 0);
    assert_eq!(report.partition_degraded, 0);
    let rendered = report.metrics.render();
    assert!(!rendered.contains("mesh."), "{rendered}");
}
