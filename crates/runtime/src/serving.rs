//! The serving core: one per-instance step every serving entry runs.
//!
//! A single-SoC stream, a networked mesh and every instance of a fleet
//! serve a frame the same way ([`Server::offer`]):
//!
//! 1. **Bounded admission.** The waiting room holds the frames admitted
//!    earlier whose dispatch is still in the future; a frame arriving
//!    when `capacity` of them wait is *rejected* at the door.
//! 2. **FIFO ready time.** An admitted frame is ready no earlier than
//!    its arrival or its predecessor's dispatch, plus whatever planning
//!    the policy charges.
//! 3. **First fit by fidelity.** Rungs are scanned in ladder order; the
//!    first eligible rung whose estimated completion — from the moment
//!    the frame is ready and every device of the rung's footprint is
//!    free — meets `arrival + deadline` is dispatched. A frame no rung
//!    fits is *shed* at its ready time, with zero service.
//! 4. **Realize.** The policy turns the dispatch into what really
//!    happened: the rung that served the frame and when it finished, or
//!    a frame lost to a fault with no way out.
//! 5. **Account.** Every offered frame ends in exactly one of completed
//!    (rung 0), degraded (rung > 0) or shed (rejected, dropped or
//!    lost); [`Tally::audit`] checks that partition.
//!
//! What differs between the callers is a [`ServePolicy`], dispatched
//! statically: which rungs are eligible and what they are estimated to
//! cost, what a dispatch really costs, and whether planning is charged.
//! There are two: link state for a stream on one SoC or a mesh
//! ([`crate::serve`]), and silicon perturbation, drift, device faults
//! and a modelled plan cache for a fleet instance ([`crate::fleet`]).
//!
//! Each rung's plan is executed once ([`realize_ladder`]; the engine is
//! deterministic, so one execution is the rung's nominal service time
//! and device footprint) and the step plays arrivals against per-device
//! availability. Cheaper rungs occupy fewer devices, so under pressure
//! consecutive frames overlap on disjoint processors, which is what
//! drains a backlog.

use simcore::{SimSpan, SimTime};
use unn::Graph;
use usoc::SocSpec;

use crate::engine::{execute_plan, RunError};
use crate::plan::ExecutionPlan;

/// One rung of the degradation ladder: a pre-computed plan plus the
/// planner's predicted latency (ladder metadata — the serving step
/// reasons with the realized latency of [`RealizedRung`]).
#[derive(Clone, Debug)]
pub struct LadderRung {
    /// Short rung label (`"full"`, `"coarse"`, `"single-gpu"`, ...).
    pub label: String,
    /// The executable plan for this rung.
    pub plan: ExecutionPlan,
    /// Predicted serial latency of the plan (drift-corrected when the
    /// ladder was built with a `DriftAdapter`).
    pub predicted: SimSpan,
}

/// One realized ladder rung: nominal service time, energy and device
/// footprint on the spec it was executed on.
#[derive(Clone, Debug, PartialEq)]
pub struct RealizedRung {
    /// Rung label (`"full"`, `"single-cpu"`, ...).
    pub label: String,
    /// Sorted device indices the rung's plan touches.
    pub devices: Vec<usize>,
    /// Realized fault-free service latency of one frame (remote rungs
    /// include their transfers).
    pub latency: SimSpan,
    /// Energy of one frame, joules.
    pub energy_j: f64,
    /// The planner's predicted latency (ladder metadata).
    pub predicted: SimSpan,
}

/// Executes each rung's plan once on `spec` for its nominal service
/// latency, energy and device footprint.
pub fn realize_ladder(
    spec: &SocSpec,
    graph: &Graph,
    ladder: &[LadderRung],
) -> Result<Vec<RealizedRung>, RunError> {
    ladder
        .iter()
        .map(|rung| {
            let result = execute_plan(spec, graph, &rung.plan)?;
            let mut devices: Vec<usize> = rung
                .plan
                .placements
                .iter()
                .flat_map(|p| p.devices())
                .map(|d| d.0)
                .collect();
            devices.sort_unstable();
            devices.dedup();
            Ok(RealizedRung {
                label: rung.label.clone(),
                devices,
                latency: result.latency,
                energy_j: result.energy.total_j(),
                predicted: rung.predicted,
            })
        })
        .collect()
}

/// Modelled host time to fetch a cached plan for one frame. The planner
/// session in `ulayer` and the fleet's plan-cache model both charge
/// these spans, so stream and fleet numbers attribute planning on one
/// scale. They are a function of how much enumeration ran, never of
/// host wall-clock, so no simulated number depends on the machine.
pub const PLAN_HIT_SPAN: SimSpan = SimSpan::from_nanos(1_000);

/// Modelled span of one from-scratch plan of a `layers`-deep network: a
/// fixed cost (cost-table probe, pass runner) plus a per-layer cost.
#[inline]
pub fn plan_scratch_span(layers: usize) -> SimSpan {
    SimSpan::from_nanos(8_000 + 4_000 * layers as u64)
}

/// What became of one offered frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameFate {
    /// Executed on ladder rung `rung` (0 = full fidelity).
    Executed {
        /// Index into the ladder.
        rung: usize,
    },
    /// Rejected at admission: the bounded queue was full.
    Rejected,
    /// Admitted, but no rung could meet the deadline at dispatch, or
    /// the dispatch was lost to a fault no other rung could absorb.
    Shed,
}

/// One frame's serving record.
#[derive(Clone, Copy, Debug)]
pub struct FrameRecord {
    /// Frame index in arrival order.
    pub frame: usize,
    /// Arrival instant.
    pub arrival: SimTime,
    /// Dispatch instant (service start); for rejected/shed frames, the
    /// instant the frame left the waiting room.
    pub start: SimTime,
    /// Completion instant (equals `start` for rejected/shed frames).
    pub finish: SimTime,
    /// Waiting frames observed at this frame's arrival (pre-admission).
    pub depth_at_arrival: usize,
    /// The outcome.
    pub fate: FrameFate,
}

/// What a policy made of one dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Realized {
    /// The frame was served — on the dispatched rung, or on another one
    /// the policy fell back to — and finished at `finish`.
    Served {
        /// The rung that produced the output.
        rung: usize,
        /// Completion instant.
        finish: SimTime,
    },
    /// The dispatch failed and nothing could take the frame over.
    Lost,
}

/// What differs between the serving entries. Every method is called at
/// most once per rung per frame, in the order of the step.
pub trait ServePolicy {
    /// Modelled planner time the frame pays before it is ready to
    /// dispatch; called once per *admitted* frame. Zero when the caller
    /// accounts for planning elsewhere.
    fn planning(&mut self) -> SimSpan;

    /// Estimated service span of `rung` for a frame that arrived at
    /// `arrival`, or `None` when the rung cannot run at all (a device
    /// lost, its footprint unreachable).
    fn estimate(&mut self, rung: &RealizedRung, arrival: SimTime) -> Option<SimSpan>;

    /// Realizes the dispatch of `rungs[r]` at `start` (`estimate` is what
    /// [`ServePolicy::estimate`] returned for it). The policy marks every
    /// device it occupies in `device_free`.
    fn realize(
        &mut self,
        rungs: &[RealizedRung],
        r: usize,
        start: SimTime,
        estimate: SimSpan,
        device_free: &mut [SimTime],
    ) -> Realized;
}

/// The frame accounting of one served instance.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Frames offered.
    pub offered: u64,
    /// Frames executed at full fidelity (rung 0).
    pub completed: u64,
    /// Frames executed on a degraded rung (rung > 0).
    pub degraded: u64,
    /// Frames shed: rejected at admission, dropped at dispatch, or lost.
    pub shed: u64,
    /// The admission-rejection subset of `shed`.
    pub rejected: u64,
    /// Peak waiting-room occupancy ever observed.
    pub queue_peak: usize,
    /// Frames executed per rung, ladder order.
    pub rung_counts: Vec<u64>,
    /// Arrival→finish latencies of executed frames, dispatch order.
    pub latencies: Vec<SimSpan>,
}

impl Tally {
    /// The frame-partition audit ([`audit_partition`]) of this tally.
    pub fn audit(&self, queue_capacity: usize) -> Result<(), String> {
        audit_partition(
            "",
            [
                self.offered,
                self.completed,
                self.degraded,
                self.shed,
                self.rejected,
            ],
            (self.queue_peak, queue_capacity),
            Some((self.rung_counts.iter().sum(), self.latencies.len())),
        )
    }
}

/// The one frame-partition audit, returning the first violation:
///
/// 1. the waiting room never exceeded its bound;
/// 2. offered frames partition exactly into completed / degraded / shed
///    (nothing lost, nothing double-counted), rejections being a subset
///    of shed;
/// 3. when the caller has them (`witnesses`: the sum of the per-rung
///    counts and the number of latency samples), both cover exactly the
///    executed frames.
///
/// `counts` is `[offered, completed, degraded, shed, rejected]`, `queue`
/// is `(peak, capacity)`, and `who` prefixes the message.
pub(crate) fn audit_partition(
    who: &str,
    [offered, completed, degraded, shed, rejected]: [u64; 5],
    (queue_peak, queue_capacity): (usize, usize),
    witnesses: Option<(u64, usize)>,
) -> Result<(), String> {
    if queue_peak > queue_capacity {
        return Err(format!(
            "{who}queue depth {queue_peak} exceeded its bound {queue_capacity}"
        ));
    }
    if completed + degraded + shed != offered {
        return Err(format!(
            "{who}frame accounting leaks: completed {completed} + degraded {degraded} + shed {shed} != offered {offered}"
        ));
    }
    if rejected > shed {
        return Err(format!("{who}rejected {rejected} exceeds shed {shed}"));
    }
    let executed = completed + degraded;
    match witnesses {
        Some((by_rung, _)) if by_rung != executed => Err(format!(
            "{who}rung counts sum to {by_rung}, but {executed} frames executed"
        )),
        Some((_, samples)) if samples as u64 != executed => Err(format!(
            "{who}{samples} latency samples recorded for {executed} executed frames"
        )),
        _ => Ok(()),
    }
}

/// One serving instance: device availability, the FIFO cursor, the
/// waiting room and the running [`Tally`].
#[derive(Clone, Debug)]
pub struct Server {
    device_free: Vec<SimTime>,
    /// FIFO: no frame dispatches before its predecessor.
    prev_dispatch: SimTime,
    /// Dispatch instants of admitted frames that may still be waiting.
    waiting: Vec<SimTime>,
    /// The accounting so far.
    pub tally: Tally,
}

impl Server {
    /// An idle instance of `devices` devices serving a `rungs`-rung
    /// ladder.
    pub fn new(devices: usize, rungs: usize) -> Server {
        Server {
            device_free: vec![SimTime::ZERO; devices],
            prev_dispatch: SimTime::ZERO,
            waiting: Vec::new(),
            tally: Tally {
                rung_counts: vec![0; rungs],
                ..Tally::default()
            },
        }
    }

    /// Offers frame `frame`, arriving at `arrival`, to the instance and
    /// returns what became of it. Arrivals must be offered in
    /// non-decreasing order.
    ///
    /// **Queue-peak rule.** A frame occupies the waiting room from its
    /// arrival to its dispatch, so it counts toward the peak at its own
    /// arrival only if it had to wait. The peak is folded at admitted
    /// frames only: the frames waiting at any later arrival were all
    /// counted when the last of them was admitted.
    #[inline]
    pub fn offer<P: ServePolicy>(
        &mut self,
        frame: usize,
        arrival: SimTime,
        queue_capacity: usize,
        deadline: SimSpan,
        rungs: &[RealizedRung],
        policy: &mut P,
    ) -> FrameRecord {
        self.tally.offered += 1;
        self.waiting.retain(|&start| start > arrival);
        let depth = self.waiting.len();
        let record = |start, finish, fate| FrameRecord {
            frame,
            arrival,
            start,
            finish,
            depth_at_arrival: depth,
            fate,
        };
        if depth >= queue_capacity {
            self.tally.rejected += 1;
            self.tally.shed += 1;
            return record(arrival, arrival, FrameFate::Rejected);
        }

        let ready = arrival.max(self.prev_dispatch) + policy.planning();
        let deadline_at = arrival + deadline;
        let chosen = rungs.iter().enumerate().find_map(|(r, rung)| {
            let estimate = policy.estimate(rung, arrival)?;
            let start = rung
                .devices
                .iter()
                .fold(ready, |at, &d| at.max(self.device_free[d]));
            (start + estimate <= deadline_at).then_some((r, start, estimate))
        });
        let (start, outcome) = match chosen {
            Some((r, start, estimate)) => (
                start,
                policy.realize(rungs, r, start, estimate, &mut self.device_free),
            ),
            // No rung can meet the deadline: drop now, releasing the
            // waiting room immediately.
            None => (ready, Realized::Lost),
        };
        self.prev_dispatch = start;
        self.waiting.push(start);
        self.tally.queue_peak = self
            .tally
            .queue_peak
            .max(depth + usize::from(start > arrival));
        match outcome {
            Realized::Served { rung, finish } => {
                debug_assert!(start >= arrival && finish >= start, "dispatch causality");
                if rung == 0 {
                    self.tally.completed += 1;
                } else {
                    self.tally.degraded += 1;
                }
                self.tally.rung_counts[rung] += 1;
                self.tally.latencies.push(finish.since(arrival));
                record(start, finish, FrameFate::Executed { rung })
            }
            Realized::Lost => {
                self.tally.shed += 1;
                record(start, start, FrameFate::Shed)
            }
        }
    }
}
