//! Absolute pins on the planner's decisions.
//!
//! `plan_equivalence` and `backcompat_gate` compare one planner path
//! with another, so a change that moves both consistently passes them.
//! These pins hash what the planner *emits* — every placement, per-layer
//! cost, predicted serial latency and branch mapping of
//! `ULayer::plan_with_drift`, and the label, plan label, placements and
//! predicted latency of every `degradation_ladder` rung — over the
//! seven-net zoo (full size and miniature) on four specs, three drift
//! states and three configurations, and compare the hashes with
//! constants recorded before the `partition*` / `best_placement*` chains
//! and the ladder's four ways of planning a rung were folded into one
//! call. The constants are the contract: a refactor of the planner must
//! leave them alone. Only the shim (`draft`) follows the public API.
//!
//! On a mismatch the test prints one hash per matrix group, so the same
//! test run on two checkouts shows which group moved.

use std::fmt::Write as _;

use simcore::SimSpan;
use testkit::fnv1a;
use ulayer::{CostTables, DriftAdapter, PlanContext, PlanDraft, ULayer, ULayerConfig};
use unn::{Graph, ModelId};
use usoc::{DeviceId, DeviceKind, SocSpec, WorkClass};

// ---------------------------------------------------------------------
// Entry-point shim: the only lines that follow the public API.
// ---------------------------------------------------------------------

/// The planner's draft — the per-layer costs `PlanReport` sums away.
fn draft(rt: &ULayer, g: &Graph, drift: Option<&DriftAdapter>) -> Option<PlanDraft> {
    let cx = PlanContext {
        spec: rt.spec(),
        predictor: rt.predictor(),
        config: rt.config(),
        graph: g,
        drift,
        devices: &rt.spec().device_ids(),
    };
    let tables = CostTables::build(&cx).ok()?;
    ulayer::draft(&cx, &tables, None).ok()
}

// ---------------------------------------------------------------------
// The matrix.
// ---------------------------------------------------------------------

const ZOO: [ModelId; 7] = [
    ModelId::GoogLeNet,
    ModelId::SqueezeNet,
    ModelId::Vgg16,
    ModelId::AlexNet,
    ModelId::MobileNet,
    ModelId::ResNet18,
    ModelId::LeNet,
];

fn specs() -> Vec<(&'static str, SocSpec)> {
    vec![
        ("7420", SocSpec::exynos_7420()),
        ("7880", SocSpec::exynos_7880()),
        ("7420+npu", SocSpec::exynos_7420().with_npu()),
        ("mesh4", SocSpec::mcu_mesh(4)),
    ]
}

fn configs() -> [(&'static str, ULayerConfig); 3] {
    [
        ("full", ULayerConfig::full()),
        ("proc-quant", ULayerConfig::with_proc_quant()),
        ("channel-only", ULayerConfig::channel_distribution_only()),
    ]
}

/// The device drift acts on: the GPU on a SoC, a non-host node on the
/// mesh.
fn drifting_device(spec: &SocSpec) -> DeviceId {
    spec.find(DeviceKind::Gpu).unwrap_or(DeviceId(2))
}

/// No drift, a settled 3x throttle of one device, and that device lost.
fn drift_states(spec: &SocSpec) -> [(&'static str, Option<DriftAdapter>); 3] {
    let device = drifting_device(spec);
    let mut throttled = DriftAdapter::new();
    for _ in 0..8 {
        for class in WorkClass::ALL {
            throttled.observe(
                device,
                class,
                SimSpan::from_micros(100),
                SimSpan::from_micros(300),
            );
        }
        throttled.finish_frame();
    }
    let mut lost = DriftAdapter::new();
    lost.mark_lost(device);
    [
        ("calm", None),
        ("throttled", Some(throttled)),
        ("lost", Some(lost)),
    ]
}

fn nanos(spans: &[SimSpan]) -> Vec<u64> {
    spans.iter().map(|s| s.as_nanos()).collect()
}

/// Everything `plan_with_drift` decides, as one string (or its error).
fn plan_text(rt: &ULayer, g: &Graph, drift: Option<&DriftAdapter>) -> String {
    match rt.plan_with_drift(g, drift) {
        Ok(r) => {
            let costs = draft(rt, g, drift).map(|d| nanos(&d.costs));
            format!(
                "{}|{:?}|{:?}|{}|{:?}",
                r.plan.label,
                r.plan.placements,
                costs,
                r.predicted_serial_latency.as_nanos(),
                r.branch_mappings,
            )
        }
        Err(e) => format!("{e:?}"),
    }
}

/// Every rung of the ladder, as one string (or its error), with the
/// number of rungs of each kind: full, coarse, subset, single.
fn ladder_text(rt: &ULayer, g: &Graph, drift: Option<&DriftAdapter>) -> (String, [usize; 4]) {
    let mut kinds = [0usize; 4];
    match rt.degradation_ladder(g, drift) {
        Ok(ladder) => {
            let mut s = String::new();
            for r in &ladder {
                let kind = ["full", "coarse", "subset-", "single-"]
                    .iter()
                    .position(|k| r.label.starts_with(k))
                    .expect("a known rung kind");
                kinds[kind] += 1;
                let _ = write!(
                    s,
                    "{}|{}|{:?}|{};",
                    r.label,
                    r.plan.label,
                    r.plan.placements,
                    r.predicted.as_nanos()
                );
            }
            (s, kinds)
        }
        Err(e) => (format!("{e:?}"), kinds),
    }
}

#[test]
fn plans_and_ladders_are_pinned() {
    let mut groups: Vec<(String, u64)> = Vec::new();
    let mut cells = 0usize;
    let mut rungs = [0usize; 4];
    let mut errors = 0usize;
    for (spec_name, spec) in specs() {
        let drifts = drift_states(&spec);
        for (cfg_name, cfg) in configs() {
            let rt = ULayer::with_config(spec.clone(), cfg).expect("runtime");
            let mut acc = 0u64;
            for id in ZOO {
                for g in [id.build(), id.build_miniature()] {
                    for (_, drift) in &drifts {
                        let plan = plan_text(&rt, &g, drift.as_ref());
                        let (ladder, n) = ladder_text(&rt, &g, drift.as_ref());
                        cells += 1;
                        errors += usize::from(n == [0; 4]);
                        for (total, k) in rungs.iter_mut().zip(n) {
                            *total += k;
                        }
                        for text in [plan, ladder] {
                            acc = (acc ^ fnv1a(text.as_bytes()))
                                .rotate_left(9)
                                .wrapping_mul(0x100_0000_01b3);
                        }
                    }
                }
            }
            groups.push((format!("{spec_name}/{cfg_name}"), acc));
        }
    }
    // The matrix must keep reaching every kind of rung and the
    // infeasible-plan error path (full-size nets overflow an MCU node).
    assert!(
        rungs.iter().all(|&n| n > 0) && errors > 0,
        "full, coarse, subset, single rungs = {rungs:?}; {errors} errors"
    );
    let rendered: Vec<String> = groups
        .iter()
        .map(|(g, h)| format!("{g}: {h:#018x}"))
        .collect();
    assert_eq!(
        (cells, rendered.as_slice()),
        (CELLS, &PINNED.map(String::from)[..]),
        "planner decisions moved"
    );
}

// Recorded at the commit before the planner's entry points were folded,
// and re-recorded when the plan's elided-concat set (empty in every
// cell then) and the planning log (a function of the placements, the
// branch mappings and the configuration, all hashed here) left the
// text. The matrix emitted 450 full, 88 coarse, 144 subset and 1170 single
// rungs, and 54 cells with no feasible plan.
const CELLS: usize = 504;
const PINNED: [&str; 12] = [
    "7420/full: 0x19c615df2a995c5c",
    "7420/proc-quant: 0xbd267b775993d1bd",
    "7420/channel-only: 0x04cef7e32a034018",
    "7880/full: 0x8b0cf13e1640b75c",
    "7880/proc-quant: 0x500cdca3f358f516",
    "7880/channel-only: 0x56c4d557c8646d27",
    "7420+npu/full: 0xf0bd2b3e0a1d168c",
    "7420+npu/proc-quant: 0xe973aefd1fcfd1e5",
    "7420+npu/channel-only: 0xd03c66e07a47bff2",
    "mesh4/full: 0x959303b4273d6b96",
    "mesh4/proc-quant: 0xc965329b3897c23a",
    "mesh4/channel-only: 0x83359d9fc8c3de3d",
];
