//! Deterministic fault injection for the discrete-event scheduler.
//!
//! A [`FaultPlan`] describes per-resource perturbations the scheduler
//! realizes while it runs a task graph:
//!
//! - [`ThrottleWindow`] — the resource runs at `factor` of its nominal
//!   speed over `[from, until)` (thermal throttling, a DVFS governor, or
//!   a UI workload stealing the GPU).
//! - [`TransientFault`] — the k-th task dispatched on a resource fails
//!   its first `failures` attempts; the watchdog detects each failure
//!   only after the attempt's full predicted span, and the retry policy
//!   decides whether to try again.
//! - [`DeviceLoss`] — the resource stops completing work at `at`; every
//!   attempt from then on times out, and only a registered fallback task
//!   can recover the work.
//!
//! Plans are plain data: built directly for targeted tests, or generated
//! reproducibly from a [`Scenario`] + seed through [`testkit::Rng`], so a
//! fault run is exactly repeatable under `TESTKIT_SEED`.

use crate::resource::ResourceId;
use crate::time::{SimSpan, SimTime};

/// A speed perturbation of one resource over a half-open time window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ThrottleWindow {
    /// The throttled resource.
    pub resource: ResourceId,
    /// Speed multiplier in `(0, 1]`: 0.5 means half speed, so a task
    /// whose reservation starts inside the window takes twice as long.
    pub factor: f64,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
}

/// A transient failure of one dispatched task.
///
/// Tasks are identified positionally: `ordinal` is the index of the
/// task's *first* dispatch among all first dispatches on `resource`, in
/// schedule order — a stable, plan-independent coordinate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransientFault {
    /// The resource whose dispatch stream is faulted.
    pub resource: ResourceId,
    /// Zero-based index of the victim among first dispatches on the
    /// resource.
    pub ordinal: usize,
    /// How many consecutive attempts fail before one succeeds. At or
    /// above the retry policy's `max_attempts` the task fails
    /// permanently and must be recovered by a fallback.
    pub failures: usize,
}

/// A hard device loss: nothing completes on `resource` from `at` on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeviceLoss {
    /// The lost resource.
    pub resource: ResourceId,
    /// The instant the device stops completing work.
    pub at: SimTime,
}

/// A complete description of the perturbations of one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Throttle windows (may target any resource; may be empty).
    pub throttles: Vec<ThrottleWindow>,
    /// Transient task failures.
    pub transients: Vec<TransientFault>,
    /// Hard device losses (at most one per resource is meaningful; the
    /// earliest wins).
    pub losses: Vec<DeviceLoss>,
}

impl FaultPlan {
    /// The empty plan (a fault-free run).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// True when the plan perturbs nothing.
    pub fn is_empty(&self) -> bool {
        self.throttles.is_empty() && self.transients.is_empty() && self.losses.is_empty()
    }

    /// Adds a throttle window (builder style).
    pub fn with_throttle(mut self, w: ThrottleWindow) -> FaultPlan {
        self.throttles.push(w);
        self
    }

    /// Adds a transient fault (builder style).
    pub fn with_transient(mut self, t: TransientFault) -> FaultPlan {
        self.transients.push(t);
        self
    }

    /// Adds a device loss (builder style).
    pub fn with_loss(mut self, l: DeviceLoss) -> FaultPlan {
        self.losses.push(l);
        self
    }

    /// The speed factor of `resource` for a reservation starting at `t`
    /// (the product of all windows containing `t`, clamped away from 0).
    pub fn speed_factor_at(&self, resource: ResourceId, t: SimTime) -> f64 {
        let mut factor = 1.0;
        for w in &self.throttles {
            if w.resource == resource && w.from <= t && t < w.until {
                factor *= w.factor;
            }
        }
        factor.max(0.01)
    }

    /// Speed factor below which a resource counts as *down* rather than
    /// merely slow (see [`FaultPlan::is_down_at`]).
    pub const DOWN_FACTOR: f64 = 0.05;

    /// True when `resource` is unusable at `t`: hard-lost by then, or
    /// inside a throttle window so deep (below
    /// [`FaultPlan::DOWN_FACTOR`]) that it models an outage — a link
    /// flap, a bricked radio — rather than congestion.
    pub fn is_down_at(&self, resource: ResourceId, t: SimTime) -> bool {
        if self.loss_at(resource).map(|at| at <= t).unwrap_or(false) {
            return true;
        }
        self.speed_factor_at(resource, t) < FaultPlan::DOWN_FACTOR
    }

    /// The earliest loss instant of `resource`, if it is lost at all.
    pub fn loss_at(&self, resource: ResourceId) -> Option<SimTime> {
        self.losses
            .iter()
            .filter(|l| l.resource == resource)
            .map(|l| l.at)
            .min()
    }

    /// The transient fault targeting the `ordinal`-th dispatch on
    /// `resource`, if any.
    pub fn transient_for(&self, resource: ResourceId, ordinal: usize) -> Option<&TransientFault> {
        self.transients
            .iter()
            .find(|t| t.resource == resource && t.ordinal == ordinal)
    }

    /// Shifts the plan's time-based faults `cursor` earlier, for
    /// replaying a global fault timeline against a run that starts at
    /// `cursor` (e.g. frame `k` of an adaptive stream). Windows entirely
    /// in the past are dropped; a loss already in the past becomes a loss
    /// at t = 0. Ordinal-based transients are positional, not temporal,
    /// and are kept unchanged.
    pub fn shifted_by(&self, cursor: SimTime) -> FaultPlan {
        let c = cursor.as_nanos();
        let shift = |t: SimTime| SimTime::from_nanos(t.as_nanos().saturating_sub(c));
        FaultPlan {
            throttles: self
                .throttles
                .iter()
                .filter(|w| w.until > cursor)
                .map(|w| ThrottleWindow {
                    resource: w.resource,
                    factor: w.factor,
                    from: shift(w.from),
                    until: shift(w.until),
                })
                .collect(),
            transients: self.transients.clone(),
            losses: self
                .losses
                .iter()
                .map(|l| DeviceLoss {
                    resource: l.resource,
                    at: shift(l.at),
                })
                .collect(),
        }
    }
}

/// How failed attempts are retried — shared by the task watchdog
/// ([`crate::dag::TaskGraph::run`]) and link-transfer
/// retries, so one policy object bounds every retry loop in a run.
///
/// The delay the policy can add to one task is provably bounded:
/// per-attempt backoff doubles from `backoff` (capped at 64×), optional
/// seeded jitter adds at most `jitter` per wait, and the *cumulative*
/// backoff across all attempts is clamped to `max_total_backoff` — see
/// [`RetryPolicy::total_backoff_bound`] and
/// [`RetryPolicy::worst_case_delay`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts per task (first try included). At least 1.
    pub max_attempts: usize,
    /// Backoff before attempt 2; doubles per further attempt (bounded
    /// exponential backoff).
    pub backoff: SimSpan,
    /// Upper bound of the deterministic jitter added to each backoff
    /// (decorrelates retry storms across tasks sharing a policy). ZERO
    /// — the default — disables jitter entirely, preserving the
    /// pre-jitter schedule byte-for-byte.
    pub jitter: SimSpan,
    /// Seed of the jitter stream. Two equal policies produce identical
    /// backoff sequences; policies differing only in seed produce
    /// different (but individually deterministic) jitter.
    pub seed: u64,
    /// Hard cap on the cumulative backoff one task can accumulate
    /// across *all* its retries. The previous doubling scheme was
    /// unbounded in `max_attempts`; this clamp makes the total delay a
    /// documented constant regardless of the attempt budget.
    pub max_total_backoff: SimSpan,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff: SimSpan::from_micros(50),
            jitter: SimSpan::ZERO,
            seed: 0,
            // 1024x the base backoff: far above what default doubling
            // can reach (so legacy schedules are unchanged), yet a hard
            // ceiling for pathological attempt budgets.
            max_total_backoff: SimSpan::from_micros(50 * 1024),
        }
    }
}

impl RetryPolicy {
    /// The uncapped exponential term for attempt `next_attempt`:
    /// doubles per attempt, capped at 64x the base backoff.
    fn raw_backoff(&self, next_attempt: usize) -> SimSpan {
        let exp = next_attempt.saturating_sub(2).min(6) as u32;
        self.backoff * (1u64 << exp)
    }

    /// The deterministic jitter term for attempt `next_attempt`: a hash
    /// of `(seed, attempt)` reduced into `[0, jitter]`.
    fn jitter_before(&self, next_attempt: usize) -> SimSpan {
        if self.jitter.is_zero() {
            return SimSpan::ZERO;
        }
        let mut buf = [0u8; 16];
        buf[..8].copy_from_slice(&self.seed.to_le_bytes());
        buf[8..].copy_from_slice(&(next_attempt as u64).to_le_bytes());
        let h = testkit::rng::fnv1a(&buf);
        SimSpan::from_nanos(h % (self.jitter.as_nanos() + 1))
    }

    /// The backoff inserted before attempt number `next_attempt`
    /// (2-based: the wait between attempt `n-1` failing and attempt `n`
    /// starting). Doubles per attempt (capped at 64x), plus the seeded
    /// jitter term, with the whole sequence clamped so the cumulative
    /// backoff through this attempt never exceeds `max_total_backoff`.
    pub fn backoff_before(&self, next_attempt: usize) -> SimSpan {
        let mut prior = SimSpan::ZERO;
        for a in 2..next_attempt {
            prior += self.raw_backoff(a) + self.jitter_before(a);
        }
        if prior >= self.max_total_backoff {
            return SimSpan::ZERO;
        }
        let this = self.raw_backoff(next_attempt) + self.jitter_before(next_attempt);
        this.min(self.max_total_backoff - prior)
    }

    /// The exact cumulative backoff this policy can insert across one
    /// task's full attempt budget: the sum of every
    /// [`RetryPolicy::backoff_before`], which by construction is
    /// `<= max_total_backoff`.
    pub fn total_backoff_bound(&self) -> SimSpan {
        (2..=self.max_attempts)
            .map(|a| self.backoff_before(a))
            .sum()
    }

    /// The provable worst-case delay of one task whose every attempt
    /// takes `attempt_span`: all `max_attempts` attempts run to their
    /// watchdog timeout, plus the full (capped) backoff budget.
    pub fn worst_case_delay(&self, attempt_span: SimSpan) -> SimSpan {
        attempt_span * (self.max_attempts.max(1) as u64) + self.total_backoff_bound()
    }
}

/// The outcome of one failed attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// A transient fault: the attempt completed "failed".
    Transient,
    /// The device was lost; the watchdog timed the attempt out.
    Lost,
}

/// One failed attempt that was later retried (the retried attempts are
/// the resource time the trace does not show: the trace records a task's
/// *final* attempt only).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AttemptRecord {
    /// The task (index into the trace's records).
    pub task: crate::dag::TaskId,
    /// The resource the attempt occupied.
    pub resource: ResourceId,
    /// Attempt start.
    pub start: SimTime,
    /// Attempt end (when the watchdog detected the failure).
    pub end: SimTime,
    /// Why it failed.
    pub outcome: AttemptOutcome,
}

/// Counters and records collected while scheduling under a [`FaultPlan`].
#[derive(Clone, Debug, Default)]
pub struct FaultLog {
    /// Number of injected perturbations (throttled reservations + failed
    /// attempts).
    pub injected: u64,
    /// Number of retry attempts dispatched.
    pub retries: u64,
    /// Number of reservations slowed by a throttle window.
    pub throttled: u64,
    /// Failed attempts that were retried; their intervals occupy the
    /// resource timelines but are not trace records (the trace shows the
    /// final attempt), so energy accounting must add them explicitly.
    pub wasted: Vec<AttemptRecord>,
    /// Tasks that failed permanently (retries exhausted or device lost).
    /// Their trace record is the last, failed attempt.
    pub failed: Vec<crate::dag::TaskId>,
    /// Fallback tasks that actually executed (their primary failed).
    pub recovered: Vec<crate::dag::TaskId>,
    /// Fallback tasks skipped because their primary succeeded (kept in
    /// the trace as zero-span records).
    pub skipped: Vec<crate::dag::TaskId>,
    /// Permanently-failed tasks with no (successful) fallback: the run's
    /// output is not trustworthy and the caller must surface an error.
    pub unrecovered: Vec<crate::dag::TaskId>,
}

/// The built-in fault scenarios of the `repro faults` subcommand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// Thermal-throttle windows on the target resource.
    Throttle,
    /// Transient task failures: one retried successfully, one exhausting
    /// its retries (so the run provably exercises both the retry and the
    /// fallback path).
    FlakyGpu,
    /// Hard device loss partway through the run.
    GpuLoss,
}

impl Scenario {
    /// Every scenario, in display order.
    pub const ALL: [Scenario; 3] = [Scenario::Throttle, Scenario::FlakyGpu, Scenario::GpuLoss];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Throttle => "throttle",
            Scenario::FlakyGpu => "flaky-gpu",
            Scenario::GpuLoss => "gpu-loss",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(name: &str) -> Option<Scenario> {
        Scenario::ALL.iter().copied().find(|s| s.name() == name)
    }

    /// Generates the scenario's fault plan against `resource`,
    /// deterministically from `seed`.
    ///
    /// `horizon` is the fault-free makespan (times are placed inside it)
    /// and `dispatches` the number of tasks the fault-free run dispatched
    /// on the resource (transient ordinals are drawn from it).
    /// `max_attempts` is the retry policy's limit, used to make one
    /// flaky-gpu fault persistent by construction.
    pub fn plan(
        self,
        resource: ResourceId,
        horizon: SimSpan,
        dispatches: usize,
        max_attempts: usize,
        seed: u64,
    ) -> FaultPlan {
        let mut rng = testkit::Rng::seed_from_u64(
            seed ^ testkit::rng::fnv1a(self.name().as_bytes()).rotate_left(17),
        );
        let at = |frac: f64| SimTime::ZERO + horizon * frac;
        match self {
            Scenario::Throttle => {
                let mut plan = FaultPlan::none();
                let windows = rng.gen_range(1..3usize);
                let mut lo = 0.15;
                for _ in 0..windows {
                    let from = lo + rng.unit_f64() * 0.1;
                    let until = from + 0.2 + rng.unit_f64() * 0.15;
                    plan = plan.with_throttle(ThrottleWindow {
                        resource,
                        factor: 0.3 + rng.unit_f64() * 0.4,
                        from: at(from),
                        until: at(until.min(0.9)),
                    });
                    lo = until + 0.05;
                }
                plan
            }
            Scenario::FlakyGpu => {
                // One transient that a single retry fixes, and one that
                // exhausts the retry budget and forces a fallback — both
                // guaranteed, so the smoke run always counts >= 1 retry
                // and >= 1 fallback.
                let n = dispatches.max(1);
                let retried = rng.gen_range(0..n);
                let persistent = if n > 1 {
                    let mut p = rng.gen_range(0..n - 1);
                    if p >= retried {
                        p += 1;
                    }
                    p
                } else {
                    // Degenerate single-dispatch run: keep only the
                    // persistent fault (it still retries before falling
                    // back, so both counters stay nonzero).
                    retried
                };
                let mut plan = FaultPlan::none().with_transient(TransientFault {
                    resource,
                    ordinal: persistent,
                    failures: max_attempts,
                });
                if persistent != retried {
                    plan = plan.with_transient(TransientFault {
                        resource,
                        ordinal: retried,
                        failures: 1,
                    });
                }
                plan
            }
            Scenario::GpuLoss => FaultPlan::none().with_loss(DeviceLoss {
                resource,
                at: at(0.25 + rng.unit_f64() * 0.25),
            }),
        }
    }
}

/// The built-in *link* fault scenarios of the `repro mesh` subcommand.
///
/// Links are scheduler resources like devices, so link faults reuse the
/// [`FaultPlan`] machinery directly: a *drop* is a transient failure of
/// a transfer task (retried under the shared [`RetryPolicy`]), *delay*
/// and *jitter* are throttle windows stretching transfer reservations,
/// a *flap* is a train of near-total throttles (the link is effectively
/// down inside each window, see [`FaultPlan::is_down_at`]), and a
/// *partition* is a hard [`DeviceLoss`] of the link — the mesh splits
/// into connected components and only surviving-subset plans can run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkFaultScenario {
    /// Transient transfer drops, each recovered by bounded retries.
    Drop,
    /// One long high-latency window (bufferbloat, a congested link).
    Delay,
    /// Several short seeded slow windows of varying depth.
    Jitter,
    /// The link flaps: repeated near-total outage windows with
    /// recovery gaps between them.
    Flap,
    /// A hard network partition: the link goes down and stays down.
    Partition,
}

impl LinkFaultScenario {
    /// Every scenario, in display order.
    pub const ALL: [LinkFaultScenario; 5] = [
        LinkFaultScenario::Drop,
        LinkFaultScenario::Delay,
        LinkFaultScenario::Jitter,
        LinkFaultScenario::Flap,
        LinkFaultScenario::Partition,
    ];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            LinkFaultScenario::Drop => "drop",
            LinkFaultScenario::Delay => "delay",
            LinkFaultScenario::Jitter => "jitter",
            LinkFaultScenario::Flap => "flap",
            LinkFaultScenario::Partition => "partition",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(name: &str) -> Option<LinkFaultScenario> {
        LinkFaultScenario::ALL
            .iter()
            .copied()
            .find(|s| s.name() == name)
    }

    /// Generates the scenario's fault plan against one link `resource`,
    /// deterministically from `seed`. `horizon` is the fault-free
    /// stream makespan, `transfers` the number of transfer tasks the
    /// fault-free run dispatched on the link (drop ordinals are drawn
    /// from it), and `max_attempts` the retry budget (drops stay below
    /// it, so every dropped transfer is recovered by retries).
    pub fn plan(
        self,
        resource: ResourceId,
        horizon: SimSpan,
        transfers: usize,
        max_attempts: usize,
        seed: u64,
    ) -> FaultPlan {
        let mut rng = testkit::Rng::seed_from_u64(
            seed ^ testkit::rng::fnv1a(self.name().as_bytes()).rotate_left(11),
        );
        let at = |frac: f64| SimTime::ZERO + horizon * frac.clamp(0.0, 1.0);
        match self {
            LinkFaultScenario::Drop => {
                let n = transfers.max(1);
                let drops = rng.gen_range(1..(n / 4 + 2).min(6));
                let mut plan = FaultPlan::none();
                let mut used = Vec::new();
                for _ in 0..drops {
                    let ordinal = rng.gen_range(0..n);
                    if used.contains(&ordinal) {
                        continue;
                    }
                    used.push(ordinal);
                    plan = plan.with_transient(TransientFault {
                        resource,
                        ordinal,
                        // Always recoverable: below the retry budget.
                        failures: rng.gen_range(1..max_attempts.max(2)),
                    });
                }
                plan
            }
            LinkFaultScenario::Delay => {
                let from = 0.15 + rng.unit_f64() * 0.2;
                FaultPlan::none().with_throttle(ThrottleWindow {
                    resource,
                    factor: 0.2 + rng.unit_f64() * 0.2,
                    from: at(from),
                    until: at(from + 0.3 + rng.unit_f64() * 0.2),
                })
            }
            LinkFaultScenario::Jitter => {
                let mut plan = FaultPlan::none();
                let windows = rng.gen_range(3..6usize);
                let mut lo = 0.05;
                for _ in 0..windows {
                    let from = lo + rng.unit_f64() * 0.05;
                    let until = from + 0.05 + rng.unit_f64() * 0.08;
                    plan = plan.with_throttle(ThrottleWindow {
                        resource,
                        factor: 0.3 + rng.unit_f64() * 0.5,
                        from: at(from),
                        until: at(until.min(0.95)),
                    });
                    lo = until + 0.03;
                }
                plan
            }
            LinkFaultScenario::Flap => {
                let mut plan = FaultPlan::none();
                let flaps = rng.gen_range(2..4usize);
                let mut lo = 0.1;
                for _ in 0..flaps {
                    let from = lo + rng.unit_f64() * 0.08;
                    let until = from + 0.08 + rng.unit_f64() * 0.08;
                    plan = plan.with_throttle(ThrottleWindow {
                        resource,
                        // Effectively down: below the is_down_at cutoff.
                        factor: FaultPlan::DOWN_FACTOR * 0.5,
                        from: at(from),
                        until: at(until.min(0.95)),
                    });
                    lo = until + 0.1;
                }
                plan
            }
            LinkFaultScenario::Partition => FaultPlan::none().with_loss(DeviceLoss {
                resource,
                at: at(0.3 + rng.unit_f64() * 0.3),
            }),
        }
    }
}

/// Correlated fault storms over a *fleet* of simulated devices.
///
/// [`Scenario`] perturbs one run of one device; a `FleetScenario` is the
/// population-level version: every instance of a fleet draws its own
/// [`FaultPlan`] from the same storm, and the plans are *correlated* —
/// a thermal wave rolls across the fleet in instance order, a GPU-loss
/// storm strikes a seeded fraction of devices inside a rolling window,
/// a flaky-GPU epidemic gives each infected device a seeded onset and
/// recovery time. Each instance's plan depends only on
/// `(storm, seed, instance, fleet_size)` — never on the order instances
/// are visited — so fleet runs stay deterministic and immune to event
/// reordering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FleetScenario {
    /// A fleet-wide thermal throttle wave: every device is throttled
    /// once, with the window's onset rolling across the fleet (early
    /// instances first) and seeded per-device factor/duration jitter.
    ThrottleWave,
    /// Rolling hard GPU loss over a seeded fraction (~30%) of the
    /// fleet; loss instants roll across the affected devices.
    RollingGpuLoss,
    /// A flaky-GPU epidemic: a seeded fraction (~50%) of devices
    /// suffer transient dispatch failures between a seeded onset and
    /// recovery point, mixing retryable faults with retry-exhausting
    /// ones (which force the CPU fallback path).
    FlakyEpidemic,
    /// A rolling *link* partition: a seeded fraction (~40%) of
    /// instances lose the interconnect to their accelerator — the link
    /// degrades briefly (a deep pre-cut throttle), then partitions hard
    /// at a wave-rolled instant. From then on the accelerator is
    /// unreachable and every frame must degrade to plans the surviving
    /// subset supports.
    LinkPartition,
}

impl FleetScenario {
    /// Every storm, in display order.
    pub const ALL: [FleetScenario; 4] = [
        FleetScenario::ThrottleWave,
        FleetScenario::RollingGpuLoss,
        FleetScenario::FlakyEpidemic,
        FleetScenario::LinkPartition,
    ];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            FleetScenario::ThrottleWave => "throttle-wave",
            FleetScenario::RollingGpuLoss => "gpu-loss",
            FleetScenario::FlakyEpidemic => "flaky-epidemic",
            FleetScenario::LinkPartition => "link-partition",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(name: &str) -> Option<FleetScenario> {
        FleetScenario::ALL
            .iter()
            .copied()
            .find(|s| s.name() == name)
    }

    /// The storm's fault plan for one fleet `instance` (of
    /// `fleet_size`), targeting `resource` (the instance's GPU).
    ///
    /// `horizon` is the instance's expected stream makespan and
    /// `dispatches` the number of frames it will offer; `max_attempts`
    /// is the retry budget (epidemic faults at or above it are
    /// persistent and force a fallback). Deterministic in
    /// `(self, seed, instance, fleet_size)` alone.
    #[allow(clippy::too_many_arguments)]
    pub fn plan_for(
        self,
        instance: usize,
        fleet_size: usize,
        resource: ResourceId,
        horizon: SimSpan,
        dispatches: usize,
        max_attempts: usize,
        seed: u64,
    ) -> FaultPlan {
        let mut rng = testkit::Rng::seed_from_u64(
            seed ^ testkit::rng::fnv1a(self.name().as_bytes()).rotate_left(29)
                ^ testkit::rng::fnv1a(&(instance as u64).to_le_bytes()).rotate_left(7),
        );
        // The instance's position in the wave front, in [0, 1).
        let wave = instance as f64 / fleet_size.max(1) as f64;
        let at = |frac: f64| SimTime::ZERO + horizon * frac.clamp(0.0, 1.0);
        match self {
            FleetScenario::ThrottleWave => {
                let from = 0.05 + 0.55 * wave + rng.unit_f64() * 0.05;
                let until = from + 0.15 + rng.unit_f64() * 0.15;
                FaultPlan::none().with_throttle(ThrottleWindow {
                    resource,
                    factor: 0.25 + rng.unit_f64() * 0.35,
                    from: at(from),
                    until: at(until),
                })
            }
            FleetScenario::RollingGpuLoss => {
                if !rng.gen_bool(0.3) {
                    return FaultPlan::none();
                }
                FaultPlan::none().with_loss(DeviceLoss {
                    resource,
                    at: at(0.1 + 0.6 * wave + rng.unit_f64() * 0.05),
                })
            }
            FleetScenario::FlakyEpidemic => {
                if !rng.gen_bool(0.5) {
                    return FaultPlan::none();
                }
                let onset = 0.1 + rng.unit_f64() * 0.4;
                let recovery = (onset + 0.2 + rng.unit_f64() * 0.3).min(1.0);
                let n = dispatches.max(1);
                let first = ((n as f64) * onset) as usize;
                let last = (((n as f64) * recovery) as usize).min(n);
                let mut plan = FaultPlan::none();
                for ordinal in first..last {
                    if !rng.gen_bool(0.5) {
                        continue;
                    }
                    // 1 in 4 infected dispatches exhausts the retry
                    // budget (persistent -> fallback); the rest recover
                    // after one or two retries.
                    let failures = if rng.gen_bool(0.25) {
                        max_attempts
                    } else {
                        rng.gen_range(1..max_attempts.max(2))
                    };
                    plan = plan.with_transient(TransientFault {
                        resource,
                        ordinal,
                        failures,
                    });
                }
                plan
            }
            FleetScenario::LinkPartition => {
                if !rng.gen_bool(0.4) {
                    return FaultPlan::none();
                }
                let cut = 0.15 + 0.5 * wave + rng.unit_f64() * 0.05;
                FaultPlan::none()
                    .with_throttle(ThrottleWindow {
                        resource,
                        factor: 0.3 + rng.unit_f64() * 0.2,
                        from: at(cut - 0.08),
                        until: at(cut),
                    })
                    .with_loss(DeviceLoss {
                        resource,
                        at: at(cut),
                    })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_factor_composes_windows() {
        let r = ResourceId(1);
        let plan = FaultPlan::none()
            .with_throttle(ThrottleWindow {
                resource: r,
                factor: 0.5,
                from: SimTime::from_nanos(100),
                until: SimTime::from_nanos(200),
            })
            .with_throttle(ThrottleWindow {
                resource: r,
                factor: 0.5,
                from: SimTime::from_nanos(150),
                until: SimTime::from_nanos(300),
            });
        assert_eq!(plan.speed_factor_at(r, SimTime::from_nanos(50)), 1.0);
        assert_eq!(plan.speed_factor_at(r, SimTime::from_nanos(120)), 0.5);
        assert_eq!(plan.speed_factor_at(r, SimTime::from_nanos(160)), 0.25);
        // Half-open: the window end is not inside.
        assert_eq!(plan.speed_factor_at(r, SimTime::from_nanos(300)), 1.0);
        // Other resources are unaffected.
        assert_eq!(
            plan.speed_factor_at(ResourceId(0), SimTime::from_nanos(160)),
            1.0
        );
    }

    #[test]
    fn loss_picks_earliest() {
        let r = ResourceId(0);
        let plan = FaultPlan::none()
            .with_loss(DeviceLoss {
                resource: r,
                at: SimTime::from_nanos(500),
            })
            .with_loss(DeviceLoss {
                resource: r,
                at: SimTime::from_nanos(200),
            });
        assert_eq!(plan.loss_at(r), Some(SimTime::from_nanos(200)));
        assert_eq!(plan.loss_at(ResourceId(1)), None);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            backoff: SimSpan::from_micros(10),
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_before(2), SimSpan::from_micros(10));
        assert_eq!(p.backoff_before(3), SimSpan::from_micros(20));
        assert_eq!(p.backoff_before(4), SimSpan::from_micros(40));
        assert_eq!(p.backoff_before(12), SimSpan::from_micros(640));
    }

    #[test]
    fn total_backoff_respects_the_cap() {
        let p = RetryPolicy {
            max_attempts: 100,
            backoff: SimSpan::from_micros(100),
            max_total_backoff: SimSpan::from_micros(500),
            ..RetryPolicy::default()
        };
        // 100 + 200 + clamp(400 -> 200) + 0 + 0 + ... = exactly the cap.
        assert_eq!(p.backoff_before(2), SimSpan::from_micros(100));
        assert_eq!(p.backoff_before(3), SimSpan::from_micros(200));
        assert_eq!(p.backoff_before(4), SimSpan::from_micros(200));
        assert_eq!(p.backoff_before(5), SimSpan::ZERO);
        assert_eq!(p.total_backoff_bound(), SimSpan::from_micros(500));
        // The worst-case delay is attempts x span + the capped budget.
        let wc = p.worst_case_delay(SimSpan::from_micros(10));
        assert_eq!(wc, SimSpan::from_micros(100 * 10 + 500));
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_bounded() {
        let mk = |seed| RetryPolicy {
            jitter: SimSpan::from_micros(30),
            seed,
            ..RetryPolicy::default()
        };
        let seq = |p: RetryPolicy| -> Vec<SimSpan> {
            (2..=p.max_attempts).map(|a| p.backoff_before(a)).collect()
        };
        assert_eq!(seq(mk(7)), seq(mk(7)));
        assert_ne!(seq(mk(7)), seq(mk(8)), "seeds should decorrelate");
        // Jitter never exceeds its bound per wait.
        let p = mk(7);
        for a in 2..=p.max_attempts {
            let extra = p.backoff_before(a);
            let base = RetryPolicy {
                jitter: SimSpan::ZERO,
                ..p
            }
            .backoff_before(a);
            assert!(extra >= base && extra <= base + SimSpan::from_micros(30));
        }
    }

    testkit::props! {
        #![cases(64)]
        fn retry_backoff_total_is_capped_and_deterministic(
            max_attempts in 1usize..24,
            backoff_us in 1u64..500,
            jitter_us in 0u64..200,
            seed in 0u64..1_000,
            cap_us in 1u64..2_000,
        ) {
            let p = RetryPolicy {
                max_attempts,
                backoff: SimSpan::from_micros(backoff_us),
                jitter: SimSpan::from_micros(jitter_us),
                seed,
                max_total_backoff: SimSpan::from_micros(cap_us),
            };
            let waits: Vec<SimSpan> =
                (2..=max_attempts).map(|a| p.backoff_before(a)).collect();
            let total: SimSpan = waits.iter().copied().sum();
            testkit::prop_assert!(total <= p.max_total_backoff);
            testkit::prop_assert!(total == p.total_backoff_bound());
            // Deterministic: recomputing yields the identical sequence.
            let again: Vec<SimSpan> =
                (2..=max_attempts).map(|a| p.backoff_before(a)).collect();
            testkit::prop_assert!(waits == again);
            // The documented worst case dominates any realizable delay.
            let span = SimSpan::from_micros(80);
            let realized = span * (max_attempts as u64) + total;
            testkit::prop_assert!(realized <= p.worst_case_delay(span));
        }
    }

    #[test]
    fn scenarios_are_deterministic_per_seed() {
        let r = ResourceId(1);
        for s in Scenario::ALL {
            let a = s.plan(r, SimSpan::from_millis(10), 12, 3, 42);
            let b = s.plan(r, SimSpan::from_millis(10), 12, 3, 42);
            assert_eq!(a, b, "{}", s.name());
            assert!(!a.is_empty(), "{}", s.name());
        }
        // Different seeds give different throttle plans.
        let a = Scenario::Throttle.plan(r, SimSpan::from_millis(10), 12, 3, 1);
        let b = Scenario::Throttle.plan(r, SimSpan::from_millis(10), 12, 3, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn flaky_scenario_always_has_retry_and_persistent_faults() {
        let r = ResourceId(1);
        for seed in 0..50 {
            let plan = Scenario::FlakyGpu.plan(r, SimSpan::from_millis(5), 7, 3, seed);
            assert!(
                plan.transients.iter().any(|t| t.failures >= 3),
                "seed {seed}: no persistent fault"
            );
            assert!(
                plan.transients.iter().any(|t| t.failures < 3),
                "seed {seed}: no retried fault"
            );
            let mut ords: Vec<usize> = plan.transients.iter().map(|t| t.ordinal).collect();
            assert!(ords.iter().all(|&o| o < 7));
            ords.dedup();
            assert_eq!(ords.len(), plan.transients.len(), "seed {seed}: collision");
        }
    }

    #[test]
    fn scenario_names_round_trip() {
        for s in Scenario::ALL {
            assert_eq!(Scenario::from_name(s.name()), Some(s));
        }
        assert_eq!(Scenario::from_name("nope"), None);
    }

    #[test]
    fn fleet_storms_are_deterministic_per_seed_and_instance() {
        let r = ResourceId(1);
        let h = SimSpan::from_millis(50);
        for s in FleetScenario::ALL {
            for inst in [0usize, 17, 999] {
                let a = s.plan_for(inst, 1000, r, h, 32, 3, 42);
                let b = s.plan_for(inst, 1000, r, h, 32, 3, 42);
                assert_eq!(a, b, "{} inst {inst}", s.name());
            }
            // Different instances draw from independent streams.
            let p0 = s.plan_for(0, 1000, r, h, 32, 3, 42);
            let p1 = s.plan_for(1, 1000, r, h, 32, 3, 42);
            if !p0.is_empty() && !p1.is_empty() {
                assert_ne!(p0, p1, "{}: instances got identical plans", s.name());
            }
        }
    }

    #[test]
    fn throttle_wave_rolls_across_the_fleet() {
        let r = ResourceId(1);
        let h = SimSpan::from_millis(100);
        let onset = |inst: usize| {
            FleetScenario::ThrottleWave
                .plan_for(inst, 1000, r, h, 32, 3, 7)
                .throttles[0]
                .from
        };
        // Early instances throttle well before late ones (jitter is
        // +-5% of the horizon; the wave spans 55%).
        assert!(onset(0) < onset(500));
        assert!(onset(500) < onset(999));
    }

    #[test]
    fn gpu_loss_storm_strikes_a_seeded_fraction() {
        let r = ResourceId(1);
        let h = SimSpan::from_millis(100);
        let lost: usize = (0..1000)
            .filter(|&i| {
                !FleetScenario::RollingGpuLoss
                    .plan_for(i, 1000, r, h, 32, 3, 42)
                    .is_empty()
            })
            .count();
        assert!(
            (150..=450).contains(&lost),
            "expected ~30% of 1000 devices lost, got {lost}"
        );
    }

    #[test]
    fn flaky_epidemic_mixes_retryable_and_persistent_faults() {
        let r = ResourceId(1);
        let h = SimSpan::from_millis(100);
        let mut retryable = 0usize;
        let mut persistent = 0usize;
        for inst in 0..200 {
            let plan = FleetScenario::FlakyEpidemic.plan_for(inst, 200, r, h, 64, 3, 42);
            for t in &plan.transients {
                assert!(t.ordinal < 64, "ordinal past the dispatch horizon");
                if t.failures >= 3 {
                    persistent += 1;
                } else {
                    retryable += 1;
                }
            }
        }
        assert!(retryable > 0, "epidemic produced no retryable faults");
        assert!(persistent > 0, "epidemic produced no persistent faults");
    }

    #[test]
    fn link_scenarios_are_deterministic_and_typed() {
        let r = ResourceId(4);
        let h = SimSpan::from_millis(20);
        for s in LinkFaultScenario::ALL {
            let a = s.plan(r, h, 16, 3, 42);
            let b = s.plan(r, h, 16, 3, 42);
            assert_eq!(a, b, "{}", s.name());
            assert!(!a.is_empty(), "{}", s.name());
            assert_eq!(LinkFaultScenario::from_name(s.name()), Some(s));
        }
        assert_eq!(LinkFaultScenario::from_name("nope"), None);
        // Drops stay strictly below the retry budget (always recovered).
        let drops = LinkFaultScenario::Drop.plan(r, h, 16, 3, 7);
        assert!(!drops.transients.is_empty());
        assert!(drops.transients.iter().all(|t| t.failures < 3));
        // A partition is a hard loss; a flap is down inside its windows
        // but recovers between them.
        let cut = LinkFaultScenario::Partition.plan(r, h, 16, 3, 7);
        let at = cut.loss_at(r).expect("partition has a loss");
        assert!(cut.is_down_at(r, at) && !cut.is_down_at(r, SimTime::ZERO));
        let flap = LinkFaultScenario::Flap.plan(r, h, 16, 3, 7);
        assert!(flap.losses.is_empty());
        let w = flap.throttles[0];
        assert!(flap.is_down_at(r, w.from));
        assert!(!flap.is_down_at(r, w.until + SimSpan::from_nanos(1)));
    }

    #[test]
    fn link_partition_storm_cuts_a_seeded_fraction_for_good() {
        let r = ResourceId(1);
        let h = SimSpan::from_millis(100);
        let mut cut = 0usize;
        for i in 0..500 {
            let plan = FleetScenario::LinkPartition.plan_for(i, 500, r, h, 32, 3, 42);
            if plan.is_empty() {
                continue;
            }
            cut += 1;
            let at = plan.loss_at(r).expect("partition is a hard loss");
            assert!(plan.is_down_at(r, at));
            // The pre-cut degradation window ends at the cut.
            assert!(plan.throttles[0].until <= at + SimSpan::from_nanos(1));
        }
        assert!((120..=280).contains(&cut), "expected ~40% cut, got {cut}");
    }

    #[test]
    fn fleet_scenario_names_round_trip() {
        for s in FleetScenario::ALL {
            assert_eq!(FleetScenario::from_name(s.name()), Some(s));
        }
        assert_eq!(FleetScenario::from_name("nope"), None);
    }

    #[test]
    fn shifted_plan_drops_past_windows_and_clamps_losses() {
        let r = ResourceId(0);
        let plan = FaultPlan::none()
            .with_throttle(ThrottleWindow {
                resource: r,
                factor: 0.5,
                from: SimTime::from_nanos(100),
                until: SimTime::from_nanos(200),
            })
            .with_throttle(ThrottleWindow {
                resource: r,
                factor: 0.5,
                from: SimTime::from_nanos(400),
                until: SimTime::from_nanos(600),
            })
            .with_loss(DeviceLoss {
                resource: r,
                at: SimTime::from_nanos(300),
            });
        let shifted = plan.shifted_by(SimTime::from_nanos(350));
        assert_eq!(shifted.throttles.len(), 1);
        assert_eq!(shifted.throttles[0].from, SimTime::from_nanos(50));
        assert_eq!(shifted.throttles[0].until, SimTime::from_nanos(250));
        // The loss already happened: it is a loss at t = 0 now.
        assert_eq!(shifted.loss_at(r), Some(SimTime::ZERO));
    }
}
