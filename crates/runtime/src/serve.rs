//! Overload-robust, partition-tolerant serving of one arrival stream:
//! the [`crate::serving`] step over one SoC or one networked mesh.
//!
//! [`crate::execute_pipeline`] models a camera at a fixed interval with
//! an *unbounded* backlog: past saturation, latency grows without bound
//! and every frame still runs the full cooperative plan. [`serve_stream`]
//! is the serving frontend the ROADMAP's "heavy traffic" goal needs — a
//! bounded admission queue, a deadline-aware degradation ladder and
//! exact frame accounting, all of it the shared serving step — with
//! *link state* as this entry's policy:
//!
//! - **Reachability-gated rungs.** At each frame's arrival the down
//!   links are read from the [`FaultPlan`] ([`FaultPlan::is_down_at`]
//!   over the link resources at `ResourceId(ndev + link_index)`, the
//!   engine's convention: lost by then, or throttled below
//!   [`FaultPlan::DOWN_FACTOR`]), and only rungs whose whole device
//!   footprint is reachable from the host over surviving links are
//!   eligible. The ladder built by the core crate carries one rung per
//!   surviving connected subset, so a partitioned mesh degrades to the
//!   rung matching its surviving component instead of shedding.
//! - **Throttle-aware service times.** A throttled (but up) link
//!   stretches the service time of every eligible rung routed over it
//!   by the worst link speed factor along its routes.
//! - **A single SoC is the mesh with no links**: every device is
//!   reachable, no factor applies, and a rung costs what executing its
//!   plan once cost. Such a spec passes [`FaultPlan::none`].
//! - **Recovery.** Rung selection is re-evaluated from slack every
//!   frame, so when the backlog drains (or a flapping link comes back)
//!   the stream climbs back to the full plan on its own.
//!
//! Link state is sampled at the frame's *arrival*: it feeds the
//! estimate, which is made for the frame as it comes in. A fleet
//! instance samples device throttles at the dispatch *start*
//! ([`crate::fleet`]): they feed the realization, what the silicon did
//! once it began. `tests/serving_pins.rs` pins both rules.
//!
//! Retry/timeout behaviour of individual transfers is *engine-level*:
//! transfer tasks scheduled by [`crate::execute_plan_with_faults`] are
//! retried by the same watchdog and [`simcore::RetryPolicy`] as kernel
//! tasks, so link drops and device hiccups share one backoff bound.

use simcore::{
    export_chrome_trace, nearest_rank, FaultPlan, OverlayEvent, ResourceId, SimSpan, SimTime,
    Trace, TraceArg,
};
use unn::Graph;
use usoc::{DeviceId, SocSpec};

use crate::engine::{RunError, TaskMeta};
use crate::metrics::MetricsRegistry;
use crate::serving::{
    audit_partition, realize_ladder, FrameFate, FrameRecord, LadderRung, Realized, RealizedRung,
    ServePolicy, Server,
};

/// Serving-loop configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Maximum number of admitted-but-not-yet-dispatched frames. A
    /// frame arriving at a full queue is rejected (and counted shed).
    pub queue_capacity: usize,
    /// Per-frame deadline, measured from the frame's arrival.
    pub deadline: SimSpan,
}

/// The outcome of [`serve_stream`].
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Per-frame records, in arrival order.
    pub frames: Vec<FrameRecord>,
    /// Rung labels, ladder order.
    pub rung_labels: Vec<String>,
    /// Each rung's realized (simulated) service latency.
    pub rung_latency: Vec<SimSpan>,
    /// Frames executed per rung.
    pub rung_counts: Vec<u64>,
    /// Frames offered (== `frames.len()`).
    pub offered: u64,
    /// Frames executed at full fidelity (rung 0).
    pub completed: u64,
    /// Frames executed on a degraded rung (rung > 0).
    pub degraded: u64,
    /// Frames shed: rejected at admission + dropped at dispatch.
    pub shed: u64,
    /// The admission-rejection subset of `shed`.
    pub rejected: u64,
    /// The configured queue bound.
    pub queue_capacity: usize,
    /// Peak waiting-room occupancy ever observed.
    pub queue_peak: usize,
    /// Arrival→finish latencies of executed frames, sorted ascending.
    pub latencies: Vec<SimSpan>,
    /// Number of network links in the spec (0 on a single SoC).
    pub links: usize,
    /// Per frame, in arrival order: how many links were down at its
    /// arrival.
    pub down_links_at_arrival: Vec<usize>,
    /// Frames that arrived while at least one link was down.
    pub frames_during_partition: u64,
    /// Frames executed on a degraded rung (rung > 0) while at least one
    /// link was down.
    pub partition_degraded: u64,
    /// Counters and gauges (`frames.*`, `queue.*`, `serve.*`, and on a
    /// spec with links `mesh.*`).
    pub metrics: MetricsRegistry,
}

impl ServeReport {
    /// Nearest-rank percentile of executed-frame latency (`q` in 0..=1);
    /// `None` when nothing executed (an all-shed stream has no tail).
    pub fn latency_percentile(&self, q: f64) -> Option<SimSpan> {
        nearest_rank(&self.latencies, q)
    }

    /// Checks the serving invariants, returning the first violation:
    /// the frame-partition audit every serving report shares (queue
    /// bound, exact completed / degraded / shed partition, per-rung
    /// counts and latency samples covering exactly the executed
    /// frames), causal per-frame times (`arrival <= start <= finish`),
    /// and the partition bookkeeping — a down-link record per offered
    /// frame, partition-degraded frames a subset of both the degraded
    /// and the during-partition populations.
    pub fn check_invariants(&self) -> Result<(), String> {
        audit_partition(
            "",
            [
                self.offered,
                self.completed,
                self.degraded,
                self.shed,
                self.rejected,
            ],
            (self.queue_peak, self.queue_capacity),
            Some((self.rung_counts.iter().sum(), self.latencies.len())),
        )?;
        for r in &self.frames {
            if r.start < r.arrival || r.finish < r.start {
                return Err(format!(
                    "frame {}: non-causal times {} <= {} <= {} violated",
                    r.frame, r.arrival, r.start, r.finish
                ));
            }
        }
        if self.down_links_at_arrival.len() as u64 != self.offered {
            return Err(format!(
                "down-link records cover {} frames of {} offered",
                self.down_links_at_arrival.len(),
                self.offered
            ));
        }
        if self.partition_degraded > self.frames_during_partition {
            return Err(format!(
                "partition-degraded {} exceeds frames during partition {}",
                self.partition_degraded, self.frames_during_partition
            ));
        }
        if self.partition_degraded > self.degraded {
            return Err(format!(
                "partition-degraded {} exceeds degraded {}",
                self.partition_degraded, self.degraded
            ));
        }
        Ok(())
    }

    /// Renders the serving timeline as a Chrome trace-event JSON
    /// document: one track per ladder rung (an `X` event per executed
    /// frame) plus `serve:admission` and `serve:shed` overlay tracks
    /// with zero-duration admission/rejection/shed markers.
    pub fn chrome_trace_json(&self) -> String {
        let mut overlays: Vec<OverlayEvent> = Vec::new();
        for rec in &self.frames {
            let (adm_name, adm_args) = match rec.fate {
                FrameFate::Rejected => ("reject", vec![]),
                _ => ("admit", vec![]),
            };
            let mut args = adm_args;
            args.push((
                "depth".to_string(),
                TraceArg::Num(rec.depth_at_arrival as f64),
            ));
            args.push(("frame".to_string(), TraceArg::Num(rec.frame as f64)));
            overlays.push(OverlayEvent {
                track: "serve:admission".into(),
                name: adm_name.into(),
                cat: "serve".into(),
                start: rec.arrival,
                dur: SimSpan::ZERO,
                args,
            });
            match rec.fate {
                FrameFate::Executed { rung } => overlays.push(OverlayEvent {
                    track: format!("serve:rung:{}", self.rung_labels[rung]),
                    name: format!("frame {}", rec.frame),
                    cat: "serve".into(),
                    start: rec.start,
                    dur: rec.finish.since(rec.start),
                    args: vec![
                        (
                            "rung".to_string(),
                            TraceArg::Str(self.rung_labels[rung].clone()),
                        ),
                        (
                            "wait_us".to_string(),
                            TraceArg::Num(rec.start.since(rec.arrival).as_micros_f64()),
                        ),
                    ],
                }),
                FrameFate::Shed | FrameFate::Rejected => overlays.push(OverlayEvent {
                    track: "serve:shed".into(),
                    name: if rec.fate == FrameFate::Rejected {
                        format!("rejected {}", rec.frame)
                    } else {
                        format!("shed {}", rec.frame)
                    },
                    cat: "serve".into(),
                    start: rec.start,
                    dur: SimSpan::ZERO,
                    args: vec![("frame".to_string(), TraceArg::Num(rec.frame as f64))],
                }),
            }
        }
        let empty: Trace<TaskMeta> = Trace::new(Vec::new());
        export_chrome_trace(&empty, &[], |_| String::new(), |_| Vec::new(), &overlays)
    }
}

/// The stream policy: rung eligibility and service stretch from link
/// state at the frame's arrival; a dispatch costs what was estimated;
/// planning is charged by the caller's planner session, not here.
struct LinkPolicy<'a> {
    spec: &'a SocSpec,
    faults: &'a FaultPlan,
    host: DeviceId,
    /// Links down at the arrival last sampled.
    down: Vec<usize>,
    energy_j: f64,
}

impl LinkPolicy<'_> {
    fn link(&self, j: usize) -> ResourceId {
        ResourceId(self.spec.devices.len() + j)
    }

    /// Reads which links are down for a frame arriving at `arrival`.
    fn sample_links(&mut self, arrival: SimTime) {
        self.down = (0..self.spec.links.len())
            .filter(|&j| self.faults.is_down_at(self.link(j), arrival))
            .collect();
    }
}

impl ServePolicy for LinkPolicy<'_> {
    #[inline]
    fn planning(&mut self) -> SimSpan {
        SimSpan::ZERO
    }

    /// Every device the rung touches must be reachable over the
    /// surviving links, and the rung pays the worst throttle on its
    /// routes.
    #[inline]
    fn estimate(&mut self, rung: &RealizedRung, arrival: SimTime) -> Option<SimSpan> {
        let mut factor = 1.0f64;
        for &d in &rung.devices {
            let route = self
                .spec
                .route_avoiding(self.host, DeviceId(d), &self.down)?;
            for j in route {
                factor = factor.min(self.faults.speed_factor_at(self.link(j), arrival));
            }
        }
        Some(rung.latency * (1.0 / factor.max(1e-3)))
    }

    #[inline]
    fn realize(
        &mut self,
        rungs: &[RealizedRung],
        r: usize,
        start: SimTime,
        estimate: SimSpan,
        device_free: &mut [SimTime],
    ) -> Realized {
        let finish = start + estimate;
        for &d in &rungs[r].devices {
            device_free[d] = finish;
        }
        self.energy_j += rungs[r].energy_j;
        Realized::Served { rung: r, finish }
    }
}

/// Serves `arrivals` through the degradation `ladder` on `spec` under
/// the link faults of `faults` ([`FaultPlan::none`] for a single SoC or
/// a healthy mesh).
///
/// Each rung's fault-free service time and device footprint come from
/// executing its plan once; every frame then takes the shared serving
/// step ([`Server::offer`]) with link state as its policy (module
/// docs). Frames meeting no reachable rung are shed; frames arriving at
/// a full waiting room are rejected.
///
/// Errors if the ladder is empty, the queue capacity is zero, the
/// arrivals are not sorted, or any rung's plan fails to execute.
pub fn serve_stream(
    spec: &SocSpec,
    graph: &Graph,
    ladder: &[LadderRung],
    arrivals: &[SimTime],
    cfg: &ServeConfig,
    faults: &FaultPlan,
) -> Result<ServeReport, RunError> {
    let malformed = |what: &str| Err(RunError::MalformedPlan(format!("serve: {what}")));
    if ladder.is_empty() {
        return malformed("degradation ladder is empty");
    }
    if cfg.queue_capacity == 0 {
        return malformed("queue capacity must be >= 1");
    }
    if arrivals.windows(2).any(|w| w[1] < w[0]) {
        return malformed("arrivals must be sorted");
    }

    let rungs = realize_ladder(spec, graph, ladder)?;
    let mut policy = LinkPolicy {
        spec,
        faults,
        host: spec.cpu(),
        down: Vec::new(),
        energy_j: 0.0,
    };
    let mut server = Server::new(spec.devices.len(), rungs.len());
    let mut frames = Vec::with_capacity(arrivals.len());
    let mut down_links_at_arrival = Vec::with_capacity(arrivals.len());
    let mut frames_during_partition = 0u64;
    let mut partition_degraded = 0u64;
    for (k, &arrival) in arrivals.iter().enumerate() {
        policy.sample_links(arrival);
        let partitioned = !policy.down.is_empty();
        down_links_at_arrival.push(policy.down.len());
        frames_during_partition += u64::from(partitioned);
        let record = server.offer(
            k,
            arrival,
            cfg.queue_capacity,
            cfg.deadline,
            &rungs,
            &mut policy,
        );
        if partitioned && matches!(record.fate, FrameFate::Executed { rung } if rung > 0) {
            partition_degraded += 1;
        }
        frames.push(record);
    }

    let mut tally = server.tally;
    tally.latencies.sort();
    let mut report = ServeReport {
        frames,
        rung_labels: rungs.iter().map(|r| r.label.clone()).collect(),
        rung_latency: rungs.iter().map(|r| r.latency).collect(),
        rung_counts: tally.rung_counts,
        offered: tally.offered,
        completed: tally.completed,
        degraded: tally.degraded,
        shed: tally.shed,
        rejected: tally.rejected,
        queue_capacity: cfg.queue_capacity,
        queue_peak: tally.queue_peak,
        latencies: tally.latencies,
        links: spec.links.len(),
        down_links_at_arrival,
        frames_during_partition,
        partition_degraded,
        metrics: MetricsRegistry::new(),
    };
    report.metrics = serve_metrics(&report, policy.energy_j);
    Ok(report)
}

fn serve_metrics(report: &ServeReport, energy_j: f64) -> MetricsRegistry {
    let mut m = MetricsRegistry::new();
    m.inc("frames.offered", report.offered);
    m.inc("frames.completed", report.completed);
    m.inc("frames.degraded_load", report.degraded);
    m.inc("frames.shed", report.shed);
    m.inc("queue.rejected", report.rejected);
    m.counter_max("queue.peak_depth", report.queue_peak as u64);
    m.counter_max("queue.capacity", report.queue_capacity as u64);
    for (label, count) in report.rung_labels.iter().zip(&report.rung_counts) {
        m.inc(&format!("serve.rung.{label}"), *count);
    }
    // Latency gauges are only meaningful when something completed; an
    // all-shed stream deliberately leaves them unset rather than
    // reporting a healthy-looking 0 ms tail.
    for (name, p) in simcore::LatencyRollup::of(&report.latencies).entries() {
        if let Some(p) = p {
            m.gauge(&format!("serve.latency_{name}_ms"), p.as_millis_f64());
        }
    }
    m.gauge("serve.energy_j", energy_j);
    if let (Some(first), Some(last)) = (report.frames.first(), report.frames.last()) {
        let makespan = last.finish.since(first.arrival).as_secs_f64();
        if makespan > 0.0 {
            m.gauge(
                "serve.goodput_ips",
                (report.completed + report.degraded) as f64 / makespan,
            );
        }
    }
    // A single SoC has no partition to report.
    if report.links > 0 {
        m.inc("mesh.links", report.links as u64);
        m.inc(
            "mesh.frames_during_partition",
            report.frames_during_partition,
        );
        m.inc("mesh.partition_degraded", report.partition_degraded);
    }
    m
}
