//! Schedule observability: overhead attribution and Chrome trace export.
//!
//! The §6 runtime behaviours (async command issue, zero-copy map/unmap,
//! cooperative merge) all cost host time that the latency figures hide
//! inside the makespan. This module makes that time visible:
//!
//! - [`attribute`] classifies every nanosecond of every resource into an
//!   [`OverheadClass`] — compute, issue, sync, map, unmap, merge, arrival
//!   pacing, or idle — with per-resource, per-class, and per-layer
//!   rollups. The classification is exact: for each resource the class
//!   totals sum to the trace makespan, a property the test suite asserts.
//! - [`chrome_trace_json`] exports any engine trace as a Chrome
//!   trace-event JSON document loadable in `chrome://tracing` or
//!   Perfetto, one track per resource, with MACs/bytes/node/class carried
//!   as event arguments.
//!
//! Tasks that bundle a wait with a map on one host reservation (sync and
//! merge tasks) are *not* split into two scheduled tasks — that would
//! perturb the schedule under the engine's reserve-on-ready scheduler.
//! Instead [`crate::TaskMeta::map`] records the map portion and the
//! attribution splits the span arithmetically.

use std::collections::BTreeMap;

use simcore::{ResourceId, SimSpan, Trace, TraceArg};
use usoc::SocSpec;

use unn::NodeId;

use crate::engine::TaskMeta;

/// What a slice of resource time was spent on.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum OverheadClass {
    /// Kernel execution (including the bundled CPU dispatch).
    Compute,
    /// Asynchronous accelerator command issue (§6).
    Issue,
    /// Host waiting for an accelerator queue (sync, xsync, final sync).
    Sync,
    /// Mapping a shared buffer for host access (zero-copy, §6).
    Map,
    /// Unmapping a shared buffer for accelerator access.
    Unmap,
    /// Cooperative merge of a split layer's partial outputs (§3.2).
    Merge,
    /// Input arrival pacing (the pipeline's virtual source).
    Arrival,
    /// Recovery work: re-executing a failed task's output channels on the
    /// surviving processor (watchdog/fallback path). Skipped fallbacks
    /// are zero-span and contribute nothing.
    Fallback,
    /// Serial network-link occupancy moving tensors between devices
    /// (store-and-forward, one task per hop).
    Transfer,
    /// Planner time: partitioning / replanning charged on the host
    /// before a frame's work is dispatched (the plan cache makes this
    /// small in steady state; cache misses pay the full span).
    Planning,
    /// No task scheduled.
    Idle,
}

impl OverheadClass {
    /// Number of classes (array dimension for per-class totals).
    pub const COUNT: usize = 11;

    /// Every class, in display order.
    pub const ALL: [OverheadClass; OverheadClass::COUNT] = [
        OverheadClass::Compute,
        OverheadClass::Issue,
        OverheadClass::Sync,
        OverheadClass::Map,
        OverheadClass::Unmap,
        OverheadClass::Merge,
        OverheadClass::Arrival,
        OverheadClass::Fallback,
        OverheadClass::Transfer,
        OverheadClass::Planning,
        OverheadClass::Idle,
    ];

    /// Stable lowercase name (used as the Chrome event category).
    pub fn name(self) -> &'static str {
        match self {
            OverheadClass::Compute => "compute",
            OverheadClass::Issue => "issue",
            OverheadClass::Sync => "sync",
            OverheadClass::Map => "map",
            OverheadClass::Unmap => "unmap",
            OverheadClass::Merge => "merge",
            OverheadClass::Arrival => "arrival",
            OverheadClass::Fallback => "fallback",
            OverheadClass::Transfer => "transfer",
            OverheadClass::Planning => "planning",
            OverheadClass::Idle => "idle",
        }
    }

    fn index(self) -> usize {
        OverheadClass::ALL
            .iter()
            .position(|c| *c == self)
            .expect("class in ALL")
    }
}

impl std::fmt::Display for OverheadClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One resource's time, fully classified over the trace horizon.
#[derive(Clone, Debug)]
pub struct ResourceAttribution {
    /// The resource.
    pub resource: ResourceId,
    /// Its human-readable name.
    pub name: String,
    /// Time per class, indexed by [`OverheadClass::ALL`] order. Includes
    /// the idle entry, so the entries sum to the trace makespan.
    pub by_class: [SimSpan; OverheadClass::COUNT],
}

impl ResourceAttribution {
    /// Time spent in `class`.
    pub fn of(&self, class: OverheadClass) -> SimSpan {
        self.by_class[class.index()]
    }

    /// Total non-idle time.
    pub fn busy(&self) -> SimSpan {
        OverheadClass::ALL
            .iter()
            .filter(|c| **c != OverheadClass::Idle)
            .map(|c| self.by_class[c.index()])
            .sum()
    }

    /// Total classified time — always equals the trace makespan.
    pub fn total(&self) -> SimSpan {
        self.by_class.iter().copied().sum()
    }
}

/// A complete overhead-attribution report for one trace.
#[derive(Clone, Debug)]
pub struct Attribution {
    /// The trace horizon every resource is classified over.
    pub makespan: SimSpan,
    /// Per-resource class totals, in resource order.
    pub per_resource: Vec<ResourceAttribution>,
    /// Per-layer class totals. The `None` key collects run-level tasks
    /// that belong to no layer (final sync, arrival pacing).
    pub per_layer: BTreeMap<Option<NodeId>, [SimSpan; OverheadClass::COUNT]>,
    /// Dynamic (active-power + DRAM) energy per class, in joules. The
    /// static term is horizon-proportional and reported separately by the
    /// energy breakdown, so it is not attributed to a class.
    pub energy_per_class_j: [f64; OverheadClass::COUNT],
}

impl Attribution {
    /// Class totals summed over every resource.
    pub(crate) fn per_class(&self) -> [SimSpan; OverheadClass::COUNT] {
        let mut totals = [SimSpan::ZERO; OverheadClass::COUNT];
        for ra in &self.per_resource {
            for (t, v) in totals.iter_mut().zip(ra.by_class.iter()) {
                *t += *v;
            }
        }
        totals
    }

    /// Total time in `class` across all resources.
    pub fn class_span(&self, class: OverheadClass) -> SimSpan {
        self.per_class()[class.index()]
    }

    /// The fraction of total busy time spent on non-compute overhead.
    pub(crate) fn overhead_fraction(&self) -> f64 {
        let busy: SimSpan = self
            .per_resource
            .iter()
            .map(ResourceAttribution::busy)
            .sum();
        if busy.is_zero() {
            return 0.0;
        }
        let overhead = busy - self.class_span(OverheadClass::Compute);
        overhead.as_secs_f64() / busy.as_secs_f64()
    }

    /// Renders the per-resource/per-class table as aligned text.
    pub fn render_text(&self) -> String {
        let ms = |s: SimSpan| format!("{:.3}", s.as_millis_f64());
        let name_w = self
            .per_resource
            .iter()
            .map(|r| r.name.len())
            .max()
            .unwrap_or(4)
            .max("total".len());
        let mut out = format!(
            "overhead attribution (makespan {:.3} ms)\n",
            self.makespan.as_millis_f64()
        );
        out.push_str(&format!("{:<name_w$}", ""));
        for class in OverheadClass::ALL {
            out.push_str(&format!(" {:>9}", class.name()));
        }
        out.push_str(&format!(" {:>9}\n", "total"));
        for ra in &self.per_resource {
            out.push_str(&format!("{:<name_w$}", ra.name));
            for span in ra.by_class {
                out.push_str(&format!(" {:>9}", ms(span)));
            }
            out.push_str(&format!(" {:>9}\n", ms(ra.total())));
        }
        let totals = self.per_class();
        out.push_str(&format!("{:<name_w$}", "total"));
        for span in totals {
            out.push_str(&format!(" {:>9}", ms(span)));
        }
        out.push_str(&format!(
            " {:>9}\n",
            ms(totals.iter().copied().sum::<SimSpan>())
        ));
        out.push_str(&format!(
            "overhead fraction of busy time: {:.1}%\n",
            self.overhead_fraction() * 100.0
        ));
        out
    }
}

/// Classifies every task of `trace` into overhead classes.
///
/// `resource_names` gives one name per resource in resource order (extra
/// trace resources fall back to `res#N`). Tasks that bundle a map with a
/// wait carry the map portion in `TaskMeta::map`; that portion is
/// attributed to [`OverheadClass::Map`] and the remainder to the task's
/// own class, so the per-resource totals tile the makespan exactly.
pub fn attribute(
    trace: &Trace<TaskMeta>,
    resource_names: &[String],
    spec: &SocSpec,
) -> Attribution {
    let makespan = trace.makespan();
    let n_res = resource_names
        .len()
        .max(trace.resources().iter().map(|r| r.0 + 1).max().unwrap_or(0));
    let mut per_resource: Vec<ResourceAttribution> = (0..n_res)
        .map(|i| ResourceAttribution {
            resource: ResourceId(i),
            name: resource_names
                .get(i)
                .cloned()
                .unwrap_or_else(|| format!("res#{i}")),
            by_class: [SimSpan::ZERO; OverheadClass::COUNT],
        })
        .collect();
    let mut per_layer: BTreeMap<Option<NodeId>, [SimSpan; OverheadClass::COUNT]> = BTreeMap::new();
    let mut energy_per_class_j = [0.0f64; OverheadClass::COUNT];

    for rec in trace.records() {
        let meta = &rec.payload;
        let span = rec.span();
        let map_part = meta.map.min(span);
        let main_part = span - map_part;
        let portions = [(meta.class, main_part), (OverheadClass::Map, map_part)];
        let layer = per_layer
            .entry(meta.node)
            .or_insert([SimSpan::ZERO; OverheadClass::COUNT]);
        for (class, portion) in portions {
            if portion.is_zero() && class != meta.class {
                continue;
            }
            per_resource[rec.resource.0].by_class[class.index()] += portion;
            layer[class.index()] += portion;
            // Dynamic energy: active power over the portion, plus DRAM
            // traffic (carried entirely by the task's own class). The
            // virtual arrival source and the network links are not
            // processors and burn nothing (no link power model yet).
            if !matches!(class, OverheadClass::Arrival | OverheadClass::Transfer) {
                if let Ok(dev) = spec.device(meta.device) {
                    let mut j = dev.active_power_w * portion.as_secs_f64();
                    if class == meta.class {
                        j += meta.work.total_bytes() as f64 * spec.memory.dram_pj_per_byte * 1e-12;
                    }
                    energy_per_class_j[class.index()] += j;
                }
            }
        }
    }

    for ra in &mut per_resource {
        let busy = ra.busy();
        ra.by_class[OverheadClass::Idle.index()] = makespan - busy;
    }

    Attribution {
        makespan,
        per_resource,
        per_layer,
        energy_per_class_j,
    }
}

/// Exports an engine trace as a Chrome trace-event JSON document.
///
/// One track (`tid`) per resource, named from `resource_names`; one
/// complete (`"X"`) event per task with its class as the category and
/// `class`/`instance`/`macs`/`bytes` (plus `node` where known) as event
/// arguments. The result loads in `chrome://tracing` and Perfetto.
///
/// `faults` — the plan a resilient run was perturbed with and the
/// wasted attempts its report lists — is rendered as overlay tracks
/// above the resource tracks, one `faults:<resource>` track per affected
/// resource: throttle windows, device losses, and retried/failed
/// attempts.
pub fn chrome_trace_json(
    trace: &Trace<TaskMeta>,
    resource_names: &[String],
    faults: Option<(&simcore::FaultPlan, &[simcore::AttemptRecord])>,
) -> String {
    let tracks: Vec<(ResourceId, String)> = resource_names
        .iter()
        .enumerate()
        .map(|(i, n)| (ResourceId(i), n.clone()))
        .collect();
    let overlay = |resource: ResourceId, name: String, start, dur, args| {
        let track = resource_names.get(resource.0).map(String::as_str);
        simcore::OverlayEvent {
            track: format!("faults:{}", track.unwrap_or("resource")),
            name,
            cat: "fault".to_string(),
            start,
            dur,
            args,
        }
    };
    let horizon = simcore::SimTime::ZERO + trace.makespan();
    let mut overlays = Vec::new();
    if let Some((plan, wasted)) = faults {
        for w in &plan.throttles {
            overlays.push(overlay(
                w.resource,
                format!("throttle x{:.2}", w.factor),
                w.from,
                w.until.since(w.from),
                vec![("factor".to_string(), TraceArg::Num(w.factor))],
            ));
        }
        for l in &plan.losses {
            let dur = if horizon > l.at {
                horizon.since(l.at)
            } else {
                SimSpan::ZERO
            };
            overlays.push(overlay(
                l.resource,
                "device lost".to_string(),
                l.at,
                dur,
                Vec::new(),
            ));
        }
        for a in wasted {
            let task = TraceArg::Str(trace.records()[a.task.0].label.clone());
            overlays.push(overlay(
                a.resource,
                "failed attempt".to_string(),
                a.start,
                a.end.since(a.start),
                vec![("task".to_string(), task)],
            ));
        }
    }
    simcore::export_chrome_trace(
        trace,
        &tracks,
        |rec| rec.payload.class.name().to_string(),
        |rec| {
            let meta = &rec.payload;
            let mut args = vec![
                ("class".to_string(), TraceArg::Str(meta.class.name().into())),
                ("instance".to_string(), TraceArg::Num(meta.instance as f64)),
                ("macs".to_string(), TraceArg::Num(meta.work.macs as f64)),
                (
                    "bytes".to_string(),
                    TraceArg::Num(meta.work.total_bytes() as f64),
                ),
            ];
            if let Some(node) = meta.node {
                args.push(("node".to_string(), TraceArg::Num(node.0 as f64)));
            }
            args
        },
        &overlays,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::single_processor_plan;
    use crate::engine::execute_plan;
    use utensor::DType;

    fn run() -> crate::engine::RunResult {
        let spec = SocSpec::exynos_7420();
        let g = unn::ModelId::SqueezeNet.build_miniature();
        let plan = single_processor_plan(&g, &spec, spec.gpu(), DType::F16).expect("plan");
        execute_plan(&spec, &g, &plan).expect("run")
    }

    #[test]
    fn classes_tile_the_makespan() {
        let r = run();
        for ra in &r.attribution.per_resource {
            assert_eq!(ra.total(), r.attribution.makespan, "{}", ra.name);
        }
    }

    #[test]
    fn gpu_run_pays_issue_and_sync() {
        let r = run();
        assert!(r.attribution.class_span(OverheadClass::Issue) > SimSpan::ZERO);
        assert!(r.attribution.class_span(OverheadClass::Sync) > SimSpan::ZERO);
        assert!(r.attribution.class_span(OverheadClass::Map) > SimSpan::ZERO);
        assert!(r.attribution.overhead_fraction() > 0.0);
        assert!(r.attribution.overhead_fraction() < 1.0);
    }

    #[test]
    fn render_text_mentions_every_class() {
        let r = run();
        let text = r.attribution.render_text();
        for class in OverheadClass::ALL {
            assert!(text.contains(class.name()), "missing {class}");
        }
        assert!(text.contains("makespan"));
    }

    #[test]
    fn chrome_export_validates() {
        let r = run();
        let json = chrome_trace_json(&r.trace, &r.resource_names, None);
        let summary = simcore::validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(summary.complete_events, r.trace.records().len());
    }
}
