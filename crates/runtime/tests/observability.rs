//! Integration tests for the observability subsystem and the
//! split-accounting fixes that ride along with it:
//!
//! - attribution invariants: per-resource class totals tile the makespan
//!   for single-device and split runs;
//! - Chrome trace round-trip: the export is valid JSON with one complete
//!   event per trace record and monotonically non-decreasing timestamps
//!   per track;
//! - split weight accounting: a uniform-dtype split allocates exactly the
//!   same weight bytes as the single placement (no per-part truncation);
//! - zero-channel split parts schedule no tasks (no issue, no kernel).

use simcore::{JsonValue, SimSpan};
use uruntime::{
    chrome_trace_json, execute_plan, single_processor_plan, ExecutionPlan, NodePlacement,
    OverheadClass, RunResult,
};
use usoc::{DtypePlan, SocSpec};
use utensor::{DType, Shape};

use unn::{Graph, LayerKind, ModelId};

/// A two-conv graph big enough that splitting engages both processors.
fn two_conv_graph() -> Graph {
    let mut g = Graph::new("two-conv", Shape::nchw(1, 64, 56, 56));
    let a = g.add_input_layer(
        "conv_a",
        LayerKind::Conv {
            oc: 128,
            k: 3,
            stride: 1,
            pad: 1,
            relu: true,
        },
    );
    g.add(
        "conv_b",
        LayerKind::Conv {
            oc: 128,
            k: 3,
            stride: 1,
            pad: 1,
            relu: true,
        },
        a,
    );
    g
}

fn split_plan(g: &Graph, spec: &SocSpec, cpu_frac: f64) -> ExecutionPlan {
    let mk = || NodePlacement::Split {
        parts: vec![
            (spec.cpu(), DtypePlan::proc_friendly_cpu(), cpu_frac),
            (spec.gpu(), DtypePlan::proc_friendly_gpu(), 1.0 - cpu_frac),
        ],
    };
    ExecutionPlan::new(g, spec, (0..g.len()).map(|_| mk()).collect(), "coop").expect("plan")
}

fn assert_tiles_makespan(attribution: &uruntime::Attribution, what: &str) {
    for ra in &attribution.per_resource {
        assert_eq!(
            ra.total(),
            attribution.makespan,
            "{what}: resource {} classes do not tile the makespan",
            ra.name
        );
        let overhead: SimSpan = OverheadClass::ALL
            .iter()
            .filter(|c| !matches!(c, OverheadClass::Compute | OverheadClass::Idle))
            .map(|c| ra.of(*c))
            .sum();
        assert_eq!(
            ra.of(OverheadClass::Compute) + overhead + ra.of(OverheadClass::Idle),
            attribution.makespan,
            "{what}: compute + overhead + idle != makespan on {}",
            ra.name
        );
    }
}

#[test]
fn attribution_tiles_makespan_single_and_split() {
    let spec = SocSpec::exynos_7420();
    let g = two_conv_graph();

    let single = execute_plan(
        &spec,
        &g,
        &single_processor_plan(&g, &spec, spec.gpu(), DType::F16).expect("plan"),
    )
    .expect("single run");
    assert_tiles_makespan(&single.attribution, "single");

    let split = execute_plan(&spec, &g, &split_plan(&g, &spec, 0.5)).expect("split run");
    assert_tiles_makespan(&split.attribution, "split");

    // Per-layer totals cover the same busy time the resources report.
    let busy: SimSpan = split
        .attribution
        .per_resource
        .iter()
        .map(|ra| ra.busy())
        .sum();
    let layers: SimSpan = split
        .attribution
        .per_layer
        .values()
        .flat_map(|spans| spans.iter().copied())
        .sum();
    assert_eq!(busy, layers, "per-layer rollup misses busy time");
}

#[test]
fn chrome_round_trip_is_valid_and_ordered() {
    let spec = SocSpec::exynos_7420();
    let g = two_conv_graph();
    let r = execute_plan(&spec, &g, &split_plan(&g, &spec, 0.5)).expect("run");
    let json = chrome_trace_json(&r.trace, &r.resource_names, None);

    // The shared validator accepts it and counts one complete event per
    // trace record.
    let summary = simcore::validate_chrome_trace(&json).expect("valid chrome trace");
    assert_eq!(summary.complete_events, r.trace.records().len());
    assert!(summary.tracks >= 2, "expected CPU and GPU tracks");

    // Independent round-trip: parse the document ourselves and check the
    // per-track timestamp ordering the viewer relies on.
    let doc = JsonValue::parse(&json).expect("parses as JSON");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .expect("traceEvents array");
    let mut complete = 0usize;
    let mut last_ts: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
    for ev in events {
        let ph = ev.get("ph").and_then(JsonValue::as_str).expect("ph");
        if ph != "X" {
            continue;
        }
        complete += 1;
        let tid = ev.get("tid").and_then(JsonValue::as_num).expect("tid") as u64;
        let ts = ev.get("ts").and_then(JsonValue::as_num).expect("ts");
        assert!(
            ev.get("dur").and_then(JsonValue::as_num).expect("dur") >= 0.0,
            "negative duration"
        );
        if let Some(prev) = last_ts.get(&tid) {
            assert!(ts >= *prev, "track {tid}: ts {ts} before previous {prev}");
        }
        last_ts.insert(tid, ts);
    }
    assert_eq!(complete, r.trace.records().len());
}

#[test]
fn uniform_dtype_split_allocates_exactly_the_single_placement_bytes() {
    // Weight buffers of a split layer are cut along the realized channel
    // boundaries, so with a uniform dtype their byte counts must sum to
    // exactly the single placement's — per-part truncation used to lose
    // up to one element per part. 56 input / 128 output channels split
    // 3 ways unevenly exercises the rounding.
    let spec = SocSpec::exynos_7420();
    let g = two_conv_graph();
    let mk = || NodePlacement::Split {
        parts: vec![
            (spec.cpu(), DtypePlan::uniform(DType::F32), 0.33),
            (spec.gpu(), DtypePlan::uniform(DType::F32), 0.45),
            (spec.cpu(), DtypePlan::uniform(DType::F32), 0.22),
        ],
    };
    let split = ExecutionPlan::new(&g, &spec, vec![mk(), mk()], "split3").expect("plan");
    let single = single_processor_plan(&g, &spec, spec.cpu(), DType::F32).expect("plan");

    let rs = execute_plan(&spec, &g, &split).expect("split run");
    let r1 = execute_plan(&spec, &g, &single).expect("single run");
    // Activations are identically sized (same storage dtype, same
    // shapes), so equality of the peaks pins the weight bytes.
    assert_eq!(
        rs.memory.peak_bytes, r1.memory.peak_bytes,
        "split weight bytes drift from the single placement"
    );
}

#[test]
fn zero_channel_split_part_schedules_no_tasks() {
    // 6 output channels at 0.97/0.03 realize as 6/0: the GPU part owns
    // zero channels, so it must contribute no tasks at all — no kernel,
    // and no issue/merge-wait overhead either.
    let spec = SocSpec::exynos_7420();
    let mut g = Graph::new("tiny", Shape::nchw(1, 3, 8, 8));
    g.add_input_layer(
        "conv",
        LayerKind::Conv {
            oc: 6,
            k: 3,
            stride: 1,
            pad: 1,
            relu: false,
        },
    );
    let plan = ExecutionPlan::new(
        &g,
        &spec,
        vec![NodePlacement::Split {
            parts: vec![
                (spec.cpu(), DtypePlan::proc_friendly_cpu(), 0.97),
                (spec.gpu(), DtypePlan::proc_friendly_gpu(), 0.03),
            ],
        }],
        "tiny-split",
    )
    .expect("plan");
    let r = execute_plan(&spec, &g, &plan).expect("run");
    for rec in r.trace.records() {
        assert_ne!(
            rec.payload.device,
            spec.gpu(),
            "zero-channel GPU part scheduled task {:?}",
            rec.label
        );
        assert_ne!(
            rec.payload.class,
            OverheadClass::Issue,
            "zero-channel GPU part still paid an issue task"
        );
    }
    // With no accelerator part the merge degrades to a CPU dispatch and
    // the run pays no sync either.
    assert_eq!(r.attribution.class_span(OverheadClass::Sync), SimSpan::ZERO);
    assert!(r.attribution.class_span(OverheadClass::Merge) > SimSpan::ZERO);
}

#[test]
fn metrics_cover_scheduler_memory_and_energy() {
    let spec = SocSpec::exynos_7420();
    let g = ModelId::SqueezeNet.build_miniature();
    let plan = single_processor_plan(&g, &spec, spec.cpu(), DType::QUInt8).expect("plan");
    let r: RunResult = execute_plan(&spec, &g, &plan).expect("run");
    assert_eq!(
        r.metrics.counter("sched.tasks"),
        r.trace.records().len() as u64
    );
    assert!(r.metrics.counter("sched.peak_queue_depth") > 0);
    assert_eq!(
        r.metrics.counter("tasks.compute"),
        r.trace
            .records()
            .iter()
            .filter(|t| t.payload.class == OverheadClass::Compute)
            .count() as u64
    );
    assert_eq!(
        r.metrics.counter("memory.peak_bytes"),
        r.memory.peak_bytes as u64
    );
    assert!(r.metrics.gauge_of("latency.ms").expect("latency gauge") > 0.0);
    assert!(r.metrics.gauge_of("energy.total_mj").expect("energy gauge") > 0.0);
    let text = r.metrics.render();
    assert!(text.contains("sched.tasks"));
    assert!(text.contains("latency.ms"));
}
