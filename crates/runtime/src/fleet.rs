//! Fleet-scale chaos serving: thousands of SoC instances, each running
//! the [`crate::serving`] step, driven by one discrete-event core.
//!
//! [`crate::serve_stream`] serves one SoC and one arrival stream. This
//! module is the population-level version the ROADMAP's "millions of
//! users" goal needs — every instance is a [`Server`] with its own
//! policy, and a stream is a fleet of one:
//!
//! - **Cohorts, not copies.** A [`FleetCohort`] realizes a degradation
//!   ladder once per SoC model ([`realize_ladder`]). Instances are
//!   assigned to cohorts by seed and perturb their silicon with
//!   per-device speed factors (the [`usoc::SocSpec::with_device_speeds`]
//!   model): a rung's service time on an instance scales by the slowest
//!   involved device's inverse factor. This keeps a 1000-device run at
//!   thousands of cheap analytic dispatches instead of thousands of
//!   full plan executions.
//! - **One weight copy per network.** Every instance holds an
//!   [`Arc`] clone of the same [`FleetNetwork`] weight set; the report
//!   counts distinct allocations across the fleet and
//!   [`FleetReport::check_invariants`] asserts exactly one per network
//!   (`naive_weight_bytes` records what per-device copies would have
//!   cost).
//! - **Correlated storms.** Each instance draws its own
//!   [`FaultPlan`] from a fleet-wide [`FleetScenario`] — throttle
//!   waves, rolling GPU loss, flaky-GPU epidemics — keyed by
//!   `(storm, seed, instance)` only, never by visit order.
//! - **Per-instance drift isolation.** Every instance gets its own
//!   [`InstanceAdapter`] from a factory; one device's throttle
//!   inflates only its own corrections (the `crates/core` isolation
//!   test pins this down against `DriftAdapter`).
//! - **Schedule-order fuzzing.** The event core runs under a
//!   [`TieOrder`]: FIFO by default, seeded-shuffled for fuzz runs.
//!   Instances are causally independent and aggregation folds in
//!   instance order, so a correct fleet produces *identical* reports
//!   under both orderings — [`FleetReport::digest`] makes that a
//!   byte-comparison, and the `repro fleet` gate ships it in CI.
//!
//! What an instance's policy supplies to the shared step:
//!
//! - **Planning as overhead.** A modelled drift-keyed plan cache: the
//!   adapter's corrections are quantized into a [`DriftKeyQuantizer`]
//!   key and probed against a small per-instance LRU. A hit charges
//!   [`PLAN_HIT_SPAN`], a miss [`plan_scratch_span`] of the network
//!   depth; either delays the frame's ready time, so planner cost is
//!   served latency. `plan_cache: false` replans every frame from
//!   scratch (the ablation the CI hit-rate gate compares against).
//! - **Estimates.** A rung touching a device the adapter knows is lost
//!   is ineligible; the others cost their nominal latency scaled by the
//!   instance's perturbation and the adapter's drift correction.
//! - **Fault realization.** Throttle windows inflate the realized
//!   service; they are sampled at the dispatch *start*, when the device
//!   begins the work (link state, by contrast, is sampled at arrival,
//!   see [`crate::serve`]). Flaky transients burn retry attempts and,
//!   when persistent, re-route the frame to the first GPU-free rung
//!   (the CPU fallback path) or lose it when there is none. Hard losses
//!   that struck by a frame's arrival reach the adapter before the step.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use simcore::stats::nearest_rank;
use simcore::{
    ArrivalKind, ArrivalProcess, DriftKeyQuantizer, EventQueue, FaultPlan, FleetScenario,
    ResourceId, RetryPolicy, SimSpan, SimTime, TieOrder,
};
use testkit::rng::fnv1a;
use testkit::Rng;
use unn::{Graph, Weights};
use usoc::{DeviceId, DeviceKind, SocSpec};

use crate::engine::RunError;
use crate::serving::{
    audit_partition, plan_scratch_span, realize_ladder, FrameFate, LadderRung, Realized,
    RealizedRung, ServePolicy, Server, PLAN_HIT_SPAN,
};

/// Per-instance drift-adaptation seam. `ulayer::DriftAdapter`
/// implements this in `crates/core` (this crate sits below the
/// planner, so the fleet only sees the trait); [`UnitAdapter`] is the
/// no-learning implementation for tests and baselines.
pub trait InstanceAdapter {
    /// Multiplicative correction on predicted latency for work
    /// touching `device` (1.0 = trust the prediction; large = the
    /// device has been observed running slow or is lost).
    fn correction(&self, device: DeviceId) -> f64;
    /// Feeds one realized dispatch: `observed` service against the
    /// fault-free `predicted` service for work touching `device`.
    fn observe(&mut self, device: DeviceId, predicted: SimSpan, observed: SimSpan);
    /// Marks `device` permanently lost.
    fn mark_lost(&mut self, device: DeviceId);
    /// True once `device` was marked lost.
    fn is_lost(&self, device: DeviceId) -> bool;
    /// Frame boundary (adapters relax unobserved state here).
    fn finish_frame(&mut self);
}

/// The trivial adapter: unit corrections, remembers losses, learns
/// nothing.
#[derive(Clone, Debug, Default)]
pub struct UnitAdapter {
    lost: BTreeSet<usize>,
}

impl InstanceAdapter for UnitAdapter {
    fn correction(&self, device: DeviceId) -> f64 {
        if self.lost.contains(&device.0) {
            1e6
        } else {
            1.0
        }
    }
    fn observe(&mut self, _device: DeviceId, _predicted: SimSpan, _observed: SimSpan) {}
    fn mark_lost(&mut self, device: DeviceId) {
        self.lost.insert(device.0);
    }
    fn is_lost(&self, device: DeviceId) -> bool {
        self.lost.contains(&device.0)
    }
    fn finish_frame(&mut self) {}
}

/// One network's shared assets: the graph and ONE weight allocation
/// the whole fleet clones [`Arc`] handles of.
#[derive(Clone, Debug)]
pub struct FleetNetwork {
    /// Network name (e.g. `"squeezenet"`).
    pub name: String,
    /// The graph (shared read-only).
    pub graph: Arc<Graph>,
    /// The master weight set — one allocation per network, per the
    /// ROADMAP's fleet memory contract.
    pub weights: Arc<Weights>,
}

impl FleetNetwork {
    /// Wraps shared network assets.
    pub fn new(name: impl Into<String>, graph: Graph, weights: Weights) -> FleetNetwork {
        FleetNetwork {
            name: name.into(),
            graph: Arc::new(graph),
            weights: Arc::new(weights),
        }
    }

    /// Bytes of the shared master weight allocation.
    pub fn weight_bytes(&self) -> u64 {
        self.weights.total_bytes_f32() as u64
    }
}

/// A SoC model's realized ladder: what every instance assigned to this
/// cohort serves with (scaled by its own perturbation factors).
#[derive(Clone, Debug)]
pub struct FleetCohort {
    /// The base SoC name.
    pub soc: String,
    /// The base spec (instances perturb per-device speeds around it).
    pub spec: SocSpec,
    /// Device index of the GPU (the storm target).
    pub gpu: usize,
    /// Layers in the served graph (scales the modeled replan span).
    pub layers: usize,
    /// Realized rungs on the base (unperturbed) spec, fidelity order.
    pub rungs: Vec<RealizedRung>,
}

impl FleetCohort {
    /// Realizes `ladder` on `spec`: executes each rung's plan once for
    /// its nominal service latency, energy, and device footprint.
    ///
    /// Errors if the ladder is empty, the spec has no GPU (the fleet's
    /// storms and its fallback path are defined against one), or a
    /// rung's plan fails to execute.
    pub fn build(
        spec: &SocSpec,
        graph: &Graph,
        ladder: &[LadderRung],
    ) -> Result<FleetCohort, RunError> {
        if ladder.is_empty() {
            return Err(RunError::MalformedPlan(
                "fleet: degradation ladder is empty".into(),
            ));
        }
        let Some(gpu) = spec.find(DeviceKind::Gpu) else {
            return Err(RunError::MalformedPlan(format!(
                "fleet: `{}` has no GPU, the device fleet storms target",
                spec.name
            )));
        };
        Ok(FleetCohort {
            soc: spec.name.clone(),
            gpu: gpu.0,
            layers: graph.nodes().len(),
            spec: spec.clone(),
            rungs: realize_ladder(spec, graph, ladder)?,
        })
    }
}

/// Fleet-run configuration.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of SoC instances.
    pub devices: usize,
    /// Frames offered per instance.
    pub frames: usize,
    /// Master seed: cohort assignment, perturbation, arrivals, and
    /// storms all derive from it (per instance, never from visit
    /// order).
    pub seed: u64,
    /// Arrival process shape per instance.
    pub arrivals: ArrivalKind,
    /// Mean inter-arrival interval per instance; `SimSpan::ZERO`
    /// auto-derives half the slowest cohort's full-rung latency
    /// (sustained 2x overload).
    pub mean_interval: SimSpan,
    /// Per-frame deadline from arrival; `SimSpan::ZERO` auto-derives
    /// twice the slowest cohort's full-rung latency.
    pub deadline: SimSpan,
    /// Bounded admission queue per instance.
    pub queue_capacity: usize,
    /// Max +- fractional per-device throughput perturbation (silicon
    /// binning spread).
    pub perturb: f64,
    /// Retry budget per dispatch (flaky epidemics at or above it force
    /// the fallback path).
    pub max_attempts: usize,
    /// Same-timestamp delivery order of the fleet event core.
    pub order: TieOrder,
    /// Modeled per-instance plan cache: `true` reuses plans keyed on
    /// quantized drift, `false` replans every frame from scratch (the
    /// ablation arm).
    pub plan_cache: bool,
    /// LRU capacity of each instance's plan cache (drift regimes held
    /// live at once).
    pub plan_cache_capacity: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            devices: 64,
            frames: 32,
            seed: 42,
            arrivals: ArrivalKind::Bursty,
            mean_interval: SimSpan::ZERO,
            deadline: SimSpan::ZERO,
            queue_capacity: 8,
            perturb: 0.15,
            max_attempts: 3,
            order: TieOrder::Fifo,
            plan_cache: true,
            plan_cache_capacity: 8,
        }
    }
}

/// What the fault-plan callback of [`run_fleet_with_faults`] sees for
/// one instance.
#[derive(Clone, Copy, Debug)]
pub struct FleetInstanceInfo {
    /// Instance index in `0..fleet_size`.
    pub instance: usize,
    /// Fleet size.
    pub fleet_size: usize,
    /// The instance's cohort index.
    pub cohort: usize,
    /// The instance's GPU as a fault-plan resource.
    pub gpu: ResourceId,
    /// Expected stream makespan (storm times are placed inside it).
    pub horizon: SimSpan,
    /// Frames the instance will offer (transient ordinals draw from it).
    pub frames: usize,
    /// The retry budget.
    pub max_attempts: usize,
    /// The master seed.
    pub seed: u64,
}

/// One instance's rollup inside a [`FleetReport`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct InstanceSummary {
    /// Instance index.
    pub instance: usize,
    /// Cohort index.
    pub cohort: usize,
    /// Frames offered / completed at full fidelity / degraded / shed /
    /// rejected-at-admission (rejected is a subset of shed).
    pub offered: u64,
    /// See `offered`.
    pub completed: u64,
    /// See `offered`.
    pub degraded: u64,
    /// See `offered`.
    pub shed: u64,
    /// See `offered`.
    pub rejected: u64,
    /// Retry attempts burned on flaky dispatches.
    pub retries: u64,
    /// Frames re-routed to a GPU-free rung after persistent failure.
    pub fallbacks: u64,
    /// Dispatches slowed by a throttle window.
    pub throttled: u64,
    /// Executed frames whose *realized* finish overran the deadline
    /// (admission predicted they would fit; faults said otherwise).
    pub missed: u64,
    /// Plan-cache hits across the instance's planned (non-rejected)
    /// frames.
    pub plan_hits: u64,
    /// Plan-cache misses (scratch replans). `plan_hits + plan_misses`
    /// equals `offered - rejected` exactly.
    pub plan_misses: u64,
    /// Total modeled planner time charged before dispatches.
    pub planning: SimSpan,
    /// Peak admission-queue depth observed.
    pub queue_peak: usize,
    /// True when the instance's GPU was lost.
    pub gpu_lost: bool,
    /// The adapter's final correction for the GPU (the isolation
    /// test's witness: storms on one instance must not move another's).
    pub gpu_correction: f64,
    /// Energy spent by the instance, joules.
    pub energy_j: f64,
}

/// The counters a [`FleetReport`] totals over its [`InstanceSummary`]s,
/// in one order for both.
macro_rules! summed {
    ($s:expr) => {
        [
            $s.offered,
            $s.completed,
            $s.degraded,
            $s.shed,
            $s.rejected,
            $s.retries,
            $s.fallbacks,
            $s.throttled,
            $s.missed,
            $s.plan_hits,
            $s.plan_misses,
        ]
    };
}

/// Aggregate fleet rollup. Everything in it is derived in instance
/// order from per-instance state, so two runs with the same seed — or
/// the same run under FIFO vs. shuffled event order — produce
/// field-identical reports (`PartialEq`) and byte-identical
/// [`FleetReport::digest`] strings.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FleetReport {
    /// Network name.
    pub net: String,
    /// Storm label (`"none"`, a [`FleetScenario`] name, or `"custom"`).
    pub scenario: String,
    /// Instances simulated.
    pub fleet_size: usize,
    /// Frames offered per instance.
    pub frames_per_device: usize,
    /// The master seed.
    pub seed: u64,
    /// The mean inter-arrival interval the fleet ran with
    /// ([`FleetConfig::mean_interval`], auto-sizing resolved).
    pub mean_interval: SimSpan,
    /// The per-frame deadline the fleet ran with
    /// ([`FleetConfig::deadline`], auto-sizing resolved).
    pub deadline: SimSpan,
    /// Instances per cohort, cohort order.
    pub cohort_instances: Vec<u64>,
    /// Cohort SoC names, cohort order.
    pub cohort_socs: Vec<String>,
    /// Fleet-wide frame accounting: `offered = completed + degraded +
    /// shed`, exact ([`FleetReport::check_invariants`]).
    pub offered: u64,
    /// See `offered`.
    pub completed: u64,
    /// See `offered`.
    pub degraded: u64,
    /// See `offered`.
    pub shed: u64,
    /// Admission rejections (subset of shed).
    pub rejected: u64,
    /// Fleet-wide retry attempts.
    pub retries: u64,
    /// Fleet-wide persistent-failure fallbacks.
    pub fallbacks: u64,
    /// Fleet-wide throttled dispatches.
    pub throttled: u64,
    /// Fleet-wide realized deadline misses among executed frames.
    pub missed: u64,
    /// Instances whose GPU was lost.
    pub gpu_lost_devices: u64,
    /// Whether the modeled per-instance plan cache was enabled.
    pub plan_cache_enabled: bool,
    /// Fleet-wide plan-cache hits.
    pub plan_hits: u64,
    /// Fleet-wide scratch replans; `plan_hits + plan_misses ==
    /// offered - rejected` ([`FleetReport::check_invariants`]).
    pub plan_misses: u64,
    /// Fleet-wide modeled planner time.
    pub planning: SimSpan,
    /// Executed frames per rung label.
    pub rung_occupancy: BTreeMap<String, u64>,
    /// All executed-frame latencies, sorted ascending.
    pub latencies: Vec<SimSpan>,
    /// The per-instance admission bound and the worst peak observed.
    pub queue_capacity: usize,
    /// See `queue_capacity`.
    pub queue_peak: usize,
    /// Fleet energy, joules.
    pub energy_j: f64,
    /// Bytes of the shared master weight allocation.
    pub weight_bytes: u64,
    /// Distinct weight allocations observed across all instances —
    /// the memory-accounting assertion pins this to 1 per network.
    pub weight_copies: usize,
    /// What per-device weight copies would have cost.
    pub naive_weight_bytes: u64,
    /// Per-instance rollups, instance order.
    pub per_instance: Vec<InstanceSummary>,
}

impl FleetReport {
    /// Nearest-rank latency percentile over executed frames; `None`
    /// when the whole fleet shed everything.
    pub fn latency_percentile(&self, q: f64) -> Option<SimSpan> {
        nearest_rank(&self.latencies, q)
    }

    /// Fraction of planned frames served from the plan cache (0.0 when
    /// nothing was planned). A calm fleet should sit near 1.0 — the
    /// `repro fleet --min-hit-rate` gate pins that down in CI.
    pub fn plan_hit_rate(&self) -> f64 {
        let planned = self.plan_hits + self.plan_misses;
        if planned == 0 {
            0.0
        } else {
            self.plan_hits as f64 / planned as f64
        }
    }

    /// Checks the fleet invariants, returning the first violation: the
    /// frame-partition audit every serving report shares, fleet-wide
    /// and per instance, then what only a fleet has — every instance
    /// offered every frame, a sorted latency list, weight memory
    /// accounted at one copy per network, planner accounting, and
    /// per-instance sums cross-checked against the fleet totals.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.per_instance.len() != self.fleet_size {
            return Err(format!(
                "{} instance summaries for fleet size {}",
                self.per_instance.len(),
                self.fleet_size
            ));
        }
        let expected = self.fleet_size as u64 * self.frames_per_device as u64;
        if self.offered != expected {
            return Err(format!(
                "offered {} != fleet {} x {} frames",
                self.offered, self.fleet_size, self.frames_per_device
            ));
        }
        audit_partition(
            "fleet: ",
            [
                self.offered,
                self.completed,
                self.degraded,
                self.shed,
                self.rejected,
            ],
            (self.queue_peak, self.queue_capacity),
            Some((self.rung_occupancy.values().sum(), self.latencies.len())),
        )?;
        if self.latencies.windows(2).any(|w| w[1] < w[0]) {
            return Err("latency list is not sorted".into());
        }
        if self.weight_copies != 1 {
            return Err(format!(
                "weight memory not shared: {} allocations for 1 network",
                self.weight_copies
            ));
        }
        if self.naive_weight_bytes != self.weight_bytes * self.fleet_size as u64 {
            return Err("naive weight accounting is inconsistent".into());
        }
        if self.plan_hits + self.plan_misses != self.offered - self.rejected {
            return Err(format!(
                "planner accounting leaks: hits {} + misses {} != planned frames {}",
                self.plan_hits,
                self.plan_misses,
                self.offered - self.rejected
            ));
        }
        if !self.plan_cache_enabled && self.plan_hits != 0 {
            return Err(format!(
                "plan cache disabled but {} hits recorded",
                self.plan_hits
            ));
        }
        let mut planning = SimSpan::ZERO;
        let mut sums = [0u64; 11];
        for s in &self.per_instance {
            // The summary keeps neither per-rung counts nor samples, so
            // its executed total has no second witness.
            audit_partition(
                &format!("instance {}: ", s.instance),
                [s.offered, s.completed, s.degraded, s.shed, s.rejected],
                (s.queue_peak, self.queue_capacity),
                None,
            )?;
            for (acc, v) in sums.iter_mut().zip(summed!(s)) {
                *acc += v;
            }
            planning += s.planning;
        }
        let totals = summed!(self);
        if sums != totals {
            return Err(format!(
                "per-instance sums {sums:?} disagree with fleet totals {totals:?}"
            ));
        }
        if planning != self.planning {
            return Err(format!(
                "per-instance planning sums to {}ns, fleet total says {}ns",
                planning.as_nanos(),
                self.planning.as_nanos()
            ));
        }
        Ok(())
    }

    /// A deterministic serialization of everything the report asserts:
    /// aggregates, occupancy, percentiles, a hash over every latency
    /// sample, and every per-instance rollup. Two reports are
    /// behaviorally identical iff their digests are byte-identical —
    /// this is what the same-seed determinism test and the
    /// FIFO-vs-shuffled order gate compare.
    pub fn digest(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fleet/v2 net={} scenario={} size={} frames={} seed={}",
            self.net, self.scenario, self.fleet_size, self.frames_per_device, self.seed
        );
        let _ = writeln!(
            out,
            "cohorts={:?} instances={:?}",
            self.cohort_socs, self.cohort_instances
        );
        let _ = writeln!(
            out,
            "offered={} completed={} degraded={} shed={} rejected={} retries={} fallbacks={} throttled={} missed={} gpu_lost={}",
            self.offered, self.completed, self.degraded, self.shed, self.rejected,
            self.retries, self.fallbacks, self.throttled, self.missed, self.gpu_lost_devices
        );
        let _ = writeln!(
            out,
            "plan cache={} hits={} misses={} rate={:.9} planning={}ns",
            if self.plan_cache_enabled { "on" } else { "off" },
            self.plan_hits,
            self.plan_misses,
            self.plan_hit_rate(),
            self.planning.as_nanos()
        );
        for (label, count) in &self.rung_occupancy {
            let _ = writeln!(out, "rung {label}={count}");
        }
        for (name, q) in simcore::stats::SLO_QUANTILES {
            match self.latency_percentile(q) {
                Some(p) => {
                    let _ = writeln!(out, "{name}={}ns", p.as_nanos());
                }
                None => {
                    let _ = writeln!(out, "{name}=-");
                }
            }
        }
        let mut lat_bytes = Vec::with_capacity(self.latencies.len() * 8);
        for l in &self.latencies {
            lat_bytes.extend_from_slice(&l.as_nanos().to_le_bytes());
        }
        let _ = writeln!(
            out,
            "latency_hash={:016x} queue={}/{} energy_j={:.9e} weights={}x{}(naive {})",
            fnv1a(&lat_bytes),
            self.queue_peak,
            self.queue_capacity,
            self.energy_j,
            self.weight_copies,
            self.weight_bytes,
            self.naive_weight_bytes
        );
        for s in &self.per_instance {
            let _ = writeln!(
                out,
                "inst {} cohort={} o={} c={} d={} s={} rej={} ret={} fb={} thr={} miss={} ph={} pm={} pl={}ns peak={} lost={} gc={:.9e} e={:.9e}",
                s.instance, s.cohort, s.offered, s.completed, s.degraded, s.shed, s.rejected,
                s.retries, s.fallbacks, s.throttled, s.missed, s.plan_hits, s.plan_misses,
                s.planning.as_nanos(), s.queue_peak, s.gpu_lost, s.gpu_correction, s.energy_j
            );
        }
        out
    }
}

/// One instance's serving policy and everything it tracks beside the
/// shared [`crate::serving::Tally`]: silicon perturbation, the fault
/// plan, the drift adapter, the modelled plan cache, and — counted
/// straight into the instance's summary — planning, chaos and energy.
struct InstancePolicy<'a> {
    cohort: &'a FleetCohort,
    cfg: &'a FleetConfig,
    retry: &'a RetryPolicy,
    /// Per-device perturbation speed factors (>= 0.05).
    factors: Vec<f64>,
    faults: FaultPlan,
    adapter: Box<dyn InstanceAdapter>,
    /// Per-instance GPU dispatch ordinal (transient-fault coordinate).
    gpu_ord: usize,
    /// Drift-key quantizer over device-index slots (hysteresis state
    /// lives across frames, like a real planning session's).
    quantizer: DriftKeyQuantizer,
    /// Plan-cache LRU of drift keys, most-recent last.
    plan_lru: Vec<Vec<(u64, i32)>>,
    /// The frame accounting is filled in from the tally at the end.
    stats: InstanceSummary,
}

impl InstancePolicy<'_> {
    /// Perturbation slowdown of a rung: the slowest involved device
    /// bounds the cooperative makespan.
    fn slowdown(&self, rung: &RealizedRung) -> f64 {
        rung.devices
            .iter()
            .map(|&d| 1.0 / self.factors[d])
            .fold(f64::MIN_POSITIVE, f64::max)
    }

    /// Drift correction of a rung: the worst involved device.
    fn correction(&self, rung: &RealizedRung) -> f64 {
        rung.devices
            .iter()
            .map(|&d| self.adapter.correction(DeviceId(d)))
            .fold(f64::MIN_POSITIVE, f64::max)
            .clamp(1e-3, 1e6)
    }

    fn touches_lost_device(&self, rung: &RealizedRung) -> bool {
        rung.devices
            .iter()
            .any(|&d| self.adapter.is_lost(DeviceId(d)))
    }

    /// Throttle slowdown of a rung dispatched at `start`: the deepest
    /// window open on any involved device at that instant.
    fn throttle_slowdown(&self, rung: &RealizedRung, start: SimTime) -> f64 {
        rung.devices.iter().fold(1.0f64, |slow, &d| {
            slow.max(1.0 / self.faults.speed_factor_at(ResourceId(d), start))
        })
    }

    /// Hard losses that have struck by `t` feed the adapter (the
    /// fleet's analogue of the watchdog noticing the device is gone).
    fn notice_losses(&mut self, t: SimTime) {
        for l in &self.faults.losses {
            if l.at <= t && !self.adapter.is_lost(DeviceId(l.resource.0)) {
                self.adapter.mark_lost(DeviceId(l.resource.0));
            }
        }
    }

    /// Occupies `rung`'s devices until `until` for a realized `span`
    /// (`base` is its perturbation-scaled nominal service — what the
    /// adapter treats as "predicted"), charging energy pro rata.
    fn occupy(
        &mut self,
        rung: &RealizedRung,
        base: SimSpan,
        span: SimSpan,
        until: SimTime,
        device_free: &mut [SimTime],
    ) {
        self.stats.energy_j += rung.energy_j * span_ratio(span, rung.latency);
        for &d in &rung.devices {
            device_free[d] = until;
            self.adapter.observe(DeviceId(d), base, span);
        }
    }
}

impl ServePolicy for InstancePolicy<'_> {
    /// Quantizes the adapter's current corrections into a drift key and
    /// probes the instance's plan cache. Hit or miss, the span is served
    /// latency, as `OverheadClass::Planning` charges it in the engine.
    #[inline]
    fn planning(&mut self) -> SimSpan {
        let factors: Vec<(u64, f64)> = (0..self.factors.len())
            .map(|d| {
                let correction = self.adapter.correction(DeviceId(d));
                (d as u64, correction.clamp(1e-3, 1e6))
            })
            .collect();
        let key = self.quantizer.snapshot_key(&factors);
        let hit = self.cfg.plan_cache
            && match self.plan_lru.iter().position(|k| *k == key) {
                Some(pos) => {
                    let k = self.plan_lru.remove(pos);
                    self.plan_lru.push(k);
                    true
                }
                None => {
                    self.plan_lru.push(key);
                    if self.plan_lru.len() > self.cfg.plan_cache_capacity {
                        self.plan_lru.remove(0);
                    }
                    false
                }
            };
        let span = if hit {
            self.stats.plan_hits += 1;
            PLAN_HIT_SPAN
        } else {
            self.stats.plan_misses += 1;
            plan_scratch_span(self.cohort.layers)
        };
        self.stats.planning += span;
        span
    }

    #[inline]
    fn estimate(&mut self, rung: &RealizedRung, _arrival: SimTime) -> Option<SimSpan> {
        if self.touches_lost_device(rung) {
            return None;
        }
        Some(rung.latency * (self.slowdown(rung) * self.correction(rung)))
    }

    #[inline]
    fn realize(
        &mut self,
        rungs: &[RealizedRung],
        r: usize,
        start: SimTime,
        _estimate: SimSpan,
        device_free: &mut [SimTime],
    ) -> Realized {
        let rung = &rungs[r];
        let gpu = self.cohort.gpu;
        let max_attempts = self.cfg.max_attempts;
        let base = rung.latency * self.slowdown(rung);
        let slow = self.throttle_slowdown(rung, start);
        if slow > 1.0 {
            self.stats.throttled += 1;
        }
        let mut service = base * slow;

        if rung.devices.contains(&gpu) {
            let ord = self.gpu_ord;
            self.gpu_ord += 1;
            let failures = self
                .faults
                .transient_for(ResourceId(gpu), ord)
                .map_or(0, |tf| tf.failures);
            if failures >= max_attempts {
                // Persistent: the watchdog burns the whole retry budget
                // on the faulted rung, then re-routes to the first rung
                // that avoids the GPU (the CPU fallback path).
                self.stats.retries += max_attempts.saturating_sub(1) as u64;
                let mut burn = service * max_attempts as u64;
                for a in 2..=max_attempts {
                    burn += self.retry.backoff_before(a);
                }
                let detect = start + burn;
                self.occupy(rung, base, burn, detect, device_free);
                let fallback = rungs
                    .iter()
                    .position(|fr| !fr.devices.contains(&gpu) && !self.touches_lost_device(fr));
                // No GPU-free rung survives: the frame is lost.
                let Some(fb) = fallback else {
                    return Realized::Lost;
                };
                let rung = &rungs[fb];
                let fb_start = rung
                    .devices
                    .iter()
                    .fold(detect, |at, &d| at.max(device_free[d]));
                let base = rung.latency * self.slowdown(rung);
                let service = base * self.throttle_slowdown(rung, fb_start);
                let finish = fb_start + service;
                self.occupy(rung, base, service, finish, device_free);
                self.stats.fallbacks += 1;
                return Realized::Served { rung: fb, finish };
            }
            // Recoverable: each failed attempt costs a full service
            // span plus its backoff before the retry succeeds.
            self.stats.retries += failures as u64;
            let mut extra = SimSpan::ZERO;
            for a in 0..failures {
                extra += service + self.retry.backoff_before(a + 2);
            }
            service += extra;
        }

        let finish = start + service;
        self.occupy(rung, base, service, finish, device_free);
        Realized::Served { rung: r, finish }
    }
}

/// One fleet instance: its arrival stream, its handle on the shared
/// weights, and the serving step's state and policy.
struct Instance<'a> {
    arrivals: Vec<SimTime>,
    /// Shared weight handle — the memory-accounting witness.
    weights: Arc<Weights>,
    server: Server,
    policy: InstancePolicy<'a>,
}

fn instance_seed(seed: u64, instance: usize) -> u64 {
    seed ^ fnv1a(&(instance as u64).to_le_bytes()).rotate_left(23)
}

fn span_ratio(num: SimSpan, den: SimSpan) -> f64 {
    num.as_nanos() as f64 / den.as_nanos().max(1) as f64
}

/// Runs the fleet under an optional correlated storm. See
/// [`run_fleet_with_faults`] for the mechanics; this wrapper derives
/// each instance's fault plan from the [`FleetScenario`].
pub fn run_fleet(
    net: &FleetNetwork,
    cohorts: &[FleetCohort],
    scenario: Option<FleetScenario>,
    cfg: &FleetConfig,
    new_adapter: &dyn Fn() -> Box<dyn InstanceAdapter>,
) -> Result<FleetReport, RunError> {
    let label = scenario.map_or("none", |s| s.name());
    run_fleet_with_faults(
        net,
        cohorts,
        cfg,
        label,
        &|info: &FleetInstanceInfo| match scenario {
            Some(s) => s.plan_for(
                info.instance,
                info.fleet_size,
                info.gpu,
                info.horizon,
                info.frames,
                info.max_attempts,
                info.seed,
            ),
            None => FaultPlan::none(),
        },
        new_adapter,
    )
}

/// Runs the fleet with a caller-supplied per-instance fault plan
/// (targeted tests inject faults into exactly one instance this way).
///
/// Every instance's parameters — cohort, perturbation factors, arrival
/// stream, fault plan — derive from `(cfg.seed, instance)` alone, and
/// instances share no mutable state, so the simulation commutes over
/// same-timestamp event reordering; aggregation folds per-instance
/// state in instance order. That is the property the
/// [`TieOrder`] fuzz gate checks.
pub fn run_fleet_with_faults(
    net: &FleetNetwork,
    cohorts: &[FleetCohort],
    cfg: &FleetConfig,
    scenario_label: &str,
    fault_for: &dyn Fn(&FleetInstanceInfo) -> FaultPlan,
    new_adapter: &dyn Fn() -> Box<dyn InstanceAdapter>,
) -> Result<FleetReport, RunError> {
    let malformed = |what: &str| Err(RunError::MalformedPlan(format!("fleet: {what}")));
    let Some(full_max) = cohorts.iter().map(|c| c.rungs[0].latency).max() else {
        return malformed("no cohorts");
    };
    if cfg.devices == 0 || cfg.frames == 0 {
        return malformed("devices and frames must be >= 1");
    }
    if cfg.queue_capacity == 0 || cfg.max_attempts == 0 {
        return malformed("queue capacity and max attempts must be >= 1");
    }
    if cfg.plan_cache && cfg.plan_cache_capacity == 0 {
        return malformed("plan cache capacity must be >= 1 when the cache is on");
    }
    // The one sizing rule: an unset interval is a sustained 2x overload
    // of the slowest cohort's full rung, an unset deadline twice its
    // latency. The report carries what was resolved.
    let mean = if cfg.mean_interval == SimSpan::ZERO {
        SimSpan::from_nanos((full_max.as_nanos() / 2).max(1))
    } else {
        cfg.mean_interval
    };
    let deadline = if cfg.deadline == SimSpan::ZERO {
        full_max * 2u64
    } else {
        cfg.deadline
    };
    let horizon = mean * cfg.frames as u64 + deadline;
    let retry = RetryPolicy {
        max_attempts: cfg.max_attempts,
        ..RetryPolicy::default()
    };

    // Instance setup: everything derives from (seed, instance), never
    // from construction or visit order.
    let mut insts: Vec<Instance> = Vec::with_capacity(cfg.devices);
    for i in 0..cfg.devices {
        let mut rng = Rng::seed_from_u64(instance_seed(cfg.seed, i) ^ fnv1a(b"fleet-instance"));
        let cohort = rng.gen_range(0..cohorts.len());
        let ndev = cohorts[cohort].spec.devices.len();
        let factors: Vec<f64> = (0..ndev)
            .map(|_| (1.0 + cfg.perturb * (2.0 * rng.unit_f64() - 1.0)).max(0.05))
            .collect();
        let arrivals =
            ArrivalProcess::from_kind(cfg.arrivals, mean).times(cfg.frames, rng.next_u64());
        let info = FleetInstanceInfo {
            instance: i,
            fleet_size: cfg.devices,
            cohort,
            gpu: ResourceId(cohorts[cohort].gpu),
            horizon,
            frames: cfg.frames,
            max_attempts: cfg.max_attempts,
            seed: cfg.seed,
        };
        insts.push(Instance {
            arrivals,
            weights: Arc::clone(&net.weights),
            server: Server::new(ndev, cohorts[cohort].rungs.len()),
            policy: InstancePolicy {
                cohort: &cohorts[cohort],
                cfg,
                retry: &retry,
                factors,
                faults: fault_for(&info),
                adapter: new_adapter(),
                gpu_ord: 0,
                quantizer: DriftKeyQuantizer::default(),
                plan_lru: Vec::new(),
                stats: InstanceSummary {
                    instance: i,
                    cohort,
                    ..InstanceSummary::default()
                },
            },
        });
    }

    // The event core: one arrival event in flight per instance; each
    // processed arrival schedules the next, so intra-instance order is
    // causal even under shuffled tie-breaking.
    let mut q: EventQueue<(usize, usize)> = EventQueue::with_order(cfg.order);
    for (i, inst) in insts.iter().enumerate() {
        q.push(inst.arrivals[0], (i, 0));
    }
    while let Some((t, (i, frame))) = q.pop() {
        let inst = &mut insts[i];
        if frame + 1 < cfg.frames {
            q.push(inst.arrivals[frame + 1], (i, frame + 1));
        }
        inst.policy.notice_losses(t);
        let record = inst.server.offer(
            frame,
            t,
            cfg.queue_capacity,
            deadline,
            &inst.policy.cohort.rungs,
            &mut inst.policy,
        );
        if matches!(record.fate, FrameFate::Executed { .. }) && record.finish > t + deadline {
            inst.policy.stats.missed += 1;
        }
        inst.policy.adapter.finish_frame();
    }

    // Aggregation, instance order (deterministic f64 fold order).
    let mut report = FleetReport {
        net: net.name.clone(),
        scenario: scenario_label.to_string(),
        fleet_size: cfg.devices,
        frames_per_device: cfg.frames,
        seed: cfg.seed,
        mean_interval: mean,
        deadline,
        cohort_instances: vec![0; cohorts.len()],
        cohort_socs: cohorts.iter().map(|c| c.soc.clone()).collect(),
        plan_cache_enabled: cfg.plan_cache,
        queue_capacity: cfg.queue_capacity,
        weight_bytes: net.weight_bytes(),
        naive_weight_bytes: net.weight_bytes() * cfg.devices as u64,
        per_instance: Vec::with_capacity(insts.len()),
        ..FleetReport::default()
    };
    let mut weight_ptrs: BTreeSet<usize> = BTreeSet::new();
    for inst in insts {
        let (tally, policy) = (inst.server.tally, inst.policy);
        let gpu = DeviceId(policy.cohort.gpu);
        let s = InstanceSummary {
            offered: tally.offered,
            completed: tally.completed,
            degraded: tally.degraded,
            shed: tally.shed,
            rejected: tally.rejected,
            queue_peak: tally.queue_peak,
            gpu_lost: policy.adapter.is_lost(gpu),
            gpu_correction: policy.adapter.correction(gpu),
            ..policy.stats
        };
        report.cohort_instances[s.cohort] += 1;
        weight_ptrs.insert(Arc::as_ptr(&inst.weights) as usize);
        for (rung, count) in policy.cohort.rungs.iter().zip(&tally.rung_counts) {
            *report.rung_occupancy.entry(rung.label.clone()).or_insert(0) += count;
        }
        report.latencies.extend_from_slice(&tally.latencies);
        report.offered += s.offered;
        report.completed += s.completed;
        report.degraded += s.degraded;
        report.shed += s.shed;
        report.rejected += s.rejected;
        report.retries += s.retries;
        report.fallbacks += s.fallbacks;
        report.throttled += s.throttled;
        report.missed += s.missed;
        report.plan_hits += s.plan_hits;
        report.plan_misses += s.plan_misses;
        report.planning += s.planning;
        report.queue_peak = report.queue_peak.max(s.queue_peak);
        report.energy_j += s.energy_j;
        report.gpu_lost_devices += u64::from(s.gpu_lost);
        report.per_instance.push(s);
    }
    report.latencies.sort();
    report.weight_copies = weight_ptrs.len();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::single_processor_plan;
    use utensor::DType;

    fn mini_net() -> FleetNetwork {
        let graph = unn::ModelId::SqueezeNet.build_miniature();
        let weights = Weights::random(&graph, 5).expect("weights");
        FleetNetwork::new("squeezenet-mini", graph, weights)
    }

    /// A two-rung ladder built without the planner: "full" pinned to
    /// the GPU, "single-cpu" pinned to the CPU — enough structure for
    /// degradation, loss, and fallback to be observable.
    fn stub_ladder(spec: &SocSpec, graph: &Graph) -> Vec<LadderRung> {
        let gpu = single_processor_plan(graph, spec, spec.gpu(), DType::F16).expect("gpu plan");
        let cpu = single_processor_plan(graph, spec, spec.cpu(), DType::QUInt8).expect("cpu plan");
        vec![
            LadderRung {
                label: "full".into(),
                plan: gpu,
                predicted: SimSpan::from_millis(1),
            },
            LadderRung {
                label: "single-cpu".into(),
                plan: cpu,
                predicted: SimSpan::from_millis(1),
            },
        ]
    }

    fn cohorts(net: &FleetNetwork) -> Vec<FleetCohort> {
        [SocSpec::exynos_7420(), SocSpec::exynos_7880()]
            .iter()
            .map(|spec| {
                let ladder = stub_ladder(spec, &net.graph);
                FleetCohort::build(spec, &net.graph, &ladder).expect("cohort")
            })
            .collect()
    }

    fn unit_adapter() -> Box<dyn InstanceAdapter> {
        Box::<UnitAdapter>::default()
    }

    #[test]
    fn small_fleet_accounts_every_frame_and_shares_weights() {
        let net = mini_net();
        let cohorts = cohorts(&net);
        let cfg = FleetConfig {
            devices: 24,
            frames: 12,
            ..FleetConfig::default()
        };
        let report = run_fleet(&net, &cohorts, None, &cfg, &unit_adapter).expect("fleet");
        report.check_invariants().expect("invariants");
        assert_eq!(report.offered, 24 * 12);
        assert_eq!(report.weight_copies, 1);
        assert_eq!(report.naive_weight_bytes, report.weight_bytes * 24);
        assert_eq!(report.cohort_instances.iter().sum::<u64>(), 24);
        // Both cohorts drew instances at this seed.
        assert!(report.cohort_instances.iter().all(|&n| n > 0));
    }

    #[test]
    fn gpu_loss_storm_pushes_frames_to_the_cpu_rung() {
        let net = mini_net();
        let cohorts = cohorts(&net);
        let cfg = FleetConfig {
            devices: 48,
            frames: 16,
            ..FleetConfig::default()
        };
        let calm = run_fleet(&net, &cohorts, None, &cfg, &unit_adapter).expect("calm");
        let storm = run_fleet(
            &net,
            &cohorts,
            Some(FleetScenario::RollingGpuLoss),
            &cfg,
            &unit_adapter,
        )
        .expect("storm");
        storm.check_invariants().expect("invariants");
        assert!(storm.gpu_lost_devices > 0, "storm lost no GPUs");
        assert!(
            storm.rung_occupancy["single-cpu"]
                > calm.rung_occupancy.get("single-cpu").copied().unwrap_or(0),
            "GPU loss did not shift occupancy to the CPU rung"
        );
        // Lost-GPU instances are visible per instance.
        assert!(storm.per_instance.iter().any(|s| s.gpu_lost));
    }

    #[test]
    fn throttle_wave_counts_throttled_dispatches() {
        let net = mini_net();
        let cohorts = cohorts(&net);
        let cfg = FleetConfig {
            devices: 32,
            frames: 16,
            ..FleetConfig::default()
        };
        let report = run_fleet(
            &net,
            &cohorts,
            Some(FleetScenario::ThrottleWave),
            &cfg,
            &unit_adapter,
        )
        .expect("fleet");
        report.check_invariants().expect("invariants");
        assert!(report.throttled > 0, "wave throttled nothing");
    }

    #[test]
    fn flaky_epidemic_burns_retries_and_falls_back() {
        let net = mini_net();
        let cohorts = cohorts(&net);
        let cfg = FleetConfig {
            devices: 64,
            frames: 24,
            // Relax the deadline so GPU rungs keep winning dispatch and
            // the epidemic has a dispatch stream to infect.
            deadline: SimSpan::from_secs_f64(10.0),
            ..FleetConfig::default()
        };
        let report = run_fleet(
            &net,
            &cohorts,
            Some(FleetScenario::FlakyEpidemic),
            &cfg,
            &unit_adapter,
        )
        .expect("fleet");
        report.check_invariants().expect("invariants");
        assert!(report.retries > 0, "epidemic burned no retries");
        assert!(report.fallbacks > 0, "epidemic forced no fallbacks");
        // Realized misses are possible but accounting stays exact.
        assert_eq!(
            report.completed + report.degraded + report.shed,
            report.offered
        );
    }

    #[test]
    fn same_seed_reports_are_field_identical() {
        let net = mini_net();
        let cohorts = cohorts(&net);
        let cfg = FleetConfig {
            devices: 32,
            frames: 12,
            ..FleetConfig::default()
        };
        let a = run_fleet(
            &net,
            &cohorts,
            Some(FleetScenario::RollingGpuLoss),
            &cfg,
            &unit_adapter,
        )
        .expect("a");
        let b = run_fleet(
            &net,
            &cohorts,
            Some(FleetScenario::RollingGpuLoss),
            &cfg,
            &unit_adapter,
        )
        .expect("b");
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn malformed_configs_are_rejected() {
        let net = mini_net();
        let cohorts = cohorts(&net);
        for cfg in [
            FleetConfig {
                devices: 0,
                ..FleetConfig::default()
            },
            FleetConfig {
                frames: 0,
                ..FleetConfig::default()
            },
            FleetConfig {
                queue_capacity: 0,
                ..FleetConfig::default()
            },
            FleetConfig {
                max_attempts: 0,
                ..FleetConfig::default()
            },
            FleetConfig {
                plan_cache: true,
                plan_cache_capacity: 0,
                ..FleetConfig::default()
            },
        ] {
            assert!(run_fleet(&net, &cohorts, None, &cfg, &unit_adapter).is_err());
        }
        assert!(run_fleet(&net, &[], None, &FleetConfig::default(), &unit_adapter).is_err());
    }

    #[test]
    fn a_spec_without_a_gpu_is_a_typed_error() {
        // The MCU mesh has CPU clusters only, so there is no storm
        // target: an error, not a panic in `SocSpec::gpu()`.
        let spec = SocSpec::mcu_mesh(4);
        let graph = unn::ModelId::LeNet.build_miniature();
        let ladder = vec![LadderRung {
            label: "host".into(),
            plan: single_processor_plan(&graph, &spec, spec.cpu(), DType::QUInt8).expect("plan"),
            predicted: SimSpan::from_millis(1),
        }];
        let err = FleetCohort::build(&spec, &graph, &ladder).unwrap_err();
        assert!(
            matches!(err, RunError::MalformedPlan(ref m) if m.contains("no GPU")),
            "{err:?}"
        );
    }

    #[test]
    fn calm_fleet_serves_plans_from_the_cache() {
        let net = mini_net();
        let cohorts = cohorts(&net);
        let cfg = FleetConfig {
            devices: 64,
            frames: 32,
            ..FleetConfig::default()
        };
        let report = run_fleet(&net, &cohorts, None, &cfg, &unit_adapter).expect("fleet");
        report.check_invariants().expect("invariants");
        assert_eq!(
            report.plan_hits + report.plan_misses,
            report.offered - report.rejected
        );
        assert!(
            report.plan_hit_rate() >= 0.9,
            "calm fleet hit rate {:.3} below 0.9 ({} hits / {} misses)",
            report.plan_hit_rate(),
            report.plan_hits,
            report.plan_misses
        );
        assert!(report.planning > SimSpan::ZERO);
    }

    #[test]
    fn disabling_the_plan_cache_replans_every_frame() {
        let net = mini_net();
        let cohorts = cohorts(&net);
        let on = FleetConfig {
            devices: 24,
            frames: 16,
            ..FleetConfig::default()
        };
        let off = FleetConfig {
            plan_cache: false,
            ..on.clone()
        };
        let cached = run_fleet(&net, &cohorts, None, &on, &unit_adapter).expect("on");
        let scratch = run_fleet(&net, &cohorts, None, &off, &unit_adapter).expect("off");
        scratch.check_invariants().expect("invariants");
        assert_eq!(scratch.plan_hits, 0);
        assert_eq!(scratch.plan_misses, scratch.offered - scratch.rejected);
        // The ablation pays strictly more planner time per planned frame.
        assert!(
            scratch.planning.as_nanos() * (cached.plan_hits + cached.plan_misses)
                > cached.planning.as_nanos() * (scratch.plan_hits + scratch.plan_misses),
            "scratch planning {}ns over {} frames is not worse than cached {}ns over {}",
            scratch.planning.as_nanos(),
            scratch.plan_misses,
            cached.planning.as_nanos(),
            cached.plan_hits + cached.plan_misses
        );
    }

    #[test]
    fn storms_churn_the_plan_cache_but_accounting_stays_exact() {
        let net = mini_net();
        let cohorts = cohorts(&net);
        let cfg = FleetConfig {
            devices: 32,
            frames: 16,
            ..FleetConfig::default()
        };
        let calm = run_fleet(&net, &cohorts, None, &cfg, &unit_adapter).expect("calm");
        let storm = run_fleet(
            &net,
            &cohorts,
            Some(FleetScenario::RollingGpuLoss),
            &cfg,
            &|| Box::new(UnitAdapter::default()) as Box<dyn InstanceAdapter>,
        )
        .expect("storm");
        storm.check_invariants().expect("invariants");
        // Losses move corrections, so the storm forces extra replans.
        assert!(
            storm.plan_misses > calm.plan_misses,
            "storm misses {} not above calm {}",
            storm.plan_misses,
            calm.plan_misses
        );
    }

    #[test]
    fn unit_adapter_tracks_losses_only() {
        let mut a = UnitAdapter::default();
        assert_eq!(a.correction(DeviceId(1)), 1.0);
        a.observe(
            DeviceId(1),
            SimSpan::from_millis(1),
            SimSpan::from_millis(9),
        );
        assert_eq!(a.correction(DeviceId(1)), 1.0, "UnitAdapter must not learn");
        a.mark_lost(DeviceId(1));
        assert!(a.is_lost(DeviceId(1)));
        assert!(a.correction(DeviceId(1)) >= 1e6);
        assert!(!a.is_lost(DeviceId(0)));
    }
}
