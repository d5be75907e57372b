//! Online predictor-drift adaptation (fault-aware replanning).
//!
//! The partitioner's `p` choices are only as good as the latency
//! predictor, and the predictor is trained on a healthy SoC. When a
//! device is thermally throttled its kernels run slower than predicted;
//! when it is lost they never complete. [`DriftAdapter`] closes the
//! loop: after every frame the realized trace is compared against the
//! predictions, an EWMA of the observed/predicted ratio is kept per
//! `(device, work class)`, and the partitioner multiplies its kernel
//! estimates by that factor on the next frame — so a throttled device's
//! share shrinks (or the layer goes single-processor) while the window
//! lasts.
//!
//! Re-promotion needs no exploration policy: keys that go *unobserved*
//! in a frame (because the planner stopped using the device) are
//! relaxed back toward 1.0 each frame, so a parked device becomes
//! attractive again a few frames after its throttle window ends. A lost
//! device is never re-promoted.

use simcore::{FaultPlan, RetryPolicy, SimSpan, SimTime};
use unn::Graph;
use uruntime::{execute_plan_with_faults, ExecutionPlan, NodePlacement, OverheadClass};
use usoc::{DeviceId, DeviceKind, SocSpec, WorkClass};

use crate::error::ULayerError;
use crate::runtime::ULayer;

/// The cost multiplier assigned to a lost device: large enough that no
/// placement using it can ever win, small enough not to overflow
/// nanosecond arithmetic.
const LOST_FACTOR: f64 = 1e6;

/// Bounds on a single observation's observed/predicted ratio and on the
/// EWMA factor itself. A near-zero prediction paired with a large
/// observation (e.g. a watchdog-timeout span fed back for a trivial
/// kernel) must not drive the factor to infinity — and the ceiling stays
/// well below [`LOST_FACTOR`] so an actually-lost device always costs
/// more than the worst drift. The floor keeps an implausibly fast
/// observation from zeroing every later cost estimate.
const MIN_CORRECTION: f64 = 1e-3;
const MAX_CORRECTION: f64 = 1e4;

/// EWMA tracker of observed/predicted kernel latency per
/// `(device, work class)`.
#[derive(Clone, Debug)]
pub struct DriftAdapter {
    /// Weight of the newest observation in the EWMA.
    alpha: f64,
    /// Per-frame pull of *unobserved* keys back toward 1.0.
    relax: f64,
    /// One row per device index, grown on first observation or loss.
    devices: Vec<DeviceDrift>,
}

/// One device's drift state, indexed by `class as usize`.
#[derive(Clone, Copy, Debug, Default)]
struct DeviceDrift {
    /// The EWMA factor; `None` until the class is first observed.
    factors: [Option<f64>; WorkClass::ALL.len()],
    /// Classes observed this frame.
    touched: [bool; WorkClass::ALL.len()],
    lost: bool,
}

impl Default for DriftAdapter {
    fn default() -> Self {
        DriftAdapter::new()
    }
}

impl DriftAdapter {
    /// An adapter with the default rates (`alpha = 0.5`, `relax = 0.5`):
    /// responsive enough to react within a frame or two of a throttle
    /// window opening or closing.
    pub fn new() -> DriftAdapter {
        DriftAdapter::with_rates(0.5, 0.5)
    }

    /// An adapter with explicit smoothing (`alpha`) and re-promotion
    /// (`relax`) rates, both clamped to `[0, 1]`.
    pub(crate) fn with_rates(alpha: f64, relax: f64) -> DriftAdapter {
        DriftAdapter {
            alpha: alpha.clamp(0.0, 1.0),
            relax: relax.clamp(0.0, 1.0),
            devices: Vec::new(),
        }
    }

    /// `device`'s row, created (with its lower neighbours) if missing.
    fn row_mut(&mut self, device: DeviceId) -> &mut DeviceDrift {
        if self.devices.len() <= device.0 {
            self.devices.resize(device.0 + 1, DeviceDrift::default());
        }
        &mut self.devices[device.0]
    }

    /// The multiplier the partitioner should apply to a predicted kernel
    /// latency on `device`. 1.0 when nothing has been observed.
    pub fn factor(&self, device: DeviceId, class: WorkClass) -> f64 {
        match self.devices.get(device.0) {
            Some(row) if row.lost => LOST_FACTOR,
            Some(row) => row.factors[class as usize].unwrap_or(1.0),
            None => 1.0,
        }
    }

    /// Feeds one realized kernel: `observed` time against the
    /// predictor's `predicted` time. Zero predictions are ignored, and
    /// both the single observation's ratio and the running factor are
    /// clamped to `[MIN_CORRECTION, MAX_CORRECTION]` so one degenerate
    /// sample (near-zero prediction, watchdog-length observation) cannot
    /// push the correction unboundedly far. Observations for a device
    /// already marked lost are ignored — `LOST_FACTOR` stays pinned.
    pub fn observe(
        &mut self,
        device: DeviceId,
        class: WorkClass,
        predicted: SimSpan,
        observed: SimSpan,
    ) {
        let p = predicted.as_secs_f64();
        if p <= 0.0 || self.is_lost(device) {
            return;
        }
        let ratio = observed.as_secs_f64() / p;
        if !ratio.is_finite() {
            return;
        }
        let ratio = ratio.clamp(MIN_CORRECTION, MAX_CORRECTION);
        let alpha = self.alpha;
        let row = self.row_mut(device);
        let f = row.factors[class as usize].get_or_insert(1.0);
        *f = (*f * (1.0 - alpha) + ratio * alpha).clamp(MIN_CORRECTION, MAX_CORRECTION);
        row.touched[class as usize] = true;
    }

    /// Ends a frame: every key *not* observed this frame relaxes toward
    /// 1.0 (the re-promotion path — a parked device regains trust).
    pub fn finish_frame(&mut self) {
        let relax = self.relax;
        for row in &mut self.devices {
            for (f, touched) in row.factors.iter_mut().zip(&mut row.touched) {
                if let Some(f) = f.as_mut().filter(|_| !*touched) {
                    *f = *f * (1.0 - relax) + relax;
                }
                *touched = false;
            }
        }
    }

    /// Marks a device permanently failed: its factor pins at
    /// `LOST_FACTOR` and never relaxes.
    pub fn mark_lost(&mut self, device: DeviceId) {
        self.row_mut(device).lost = true;
    }

    /// Whether the device has been marked lost.
    pub fn is_lost(&self, device: DeviceId) -> bool {
        self.devices.get(device.0).is_some_and(|row| row.lost)
    }

    /// The largest factor currently held for `device` (1.0 if none).
    pub(crate) fn worst_factor(&self, device: DeviceId) -> f64 {
        match self.devices.get(device.0) {
            Some(row) if row.lost => LOST_FACTOR,
            Some(row) => row.factors.iter().flatten().copied().fold(1.0, f64::max),
            None => 1.0,
        }
    }

    /// The lost devices, ascending.
    pub(crate) fn lost_devices(&self) -> impl Iterator<Item = usize> + '_ {
        self.devices
            .iter()
            .enumerate()
            .filter_map(|(d, row)| row.lost.then_some(d))
    }
}

/// The fleet simulator's per-instance adaptation seam
/// ([`uruntime::InstanceAdapter`]) bridged onto the drift tracker.
///
/// Fleet dispatches are whole-rung service spans, not per-kernel
/// traces, so observations land on the device's [`WorkClass::Gemm`]
/// key (the class that dominates every supported network) and the
/// fleet-facing correction is `DriftAdapter::worst_factor` — the
/// most pessimistic view of the device, which is what admission
/// control should reason with.
impl uruntime::InstanceAdapter for DriftAdapter {
    fn correction(&self, device: DeviceId) -> f64 {
        self.worst_factor(device)
    }

    fn observe(&mut self, device: DeviceId, predicted: SimSpan, observed: SimSpan) {
        DriftAdapter::observe(self, device, WorkClass::Gemm, predicted, observed);
    }

    fn mark_lost(&mut self, device: DeviceId) {
        DriftAdapter::mark_lost(self, device);
    }

    fn is_lost(&self, device: DeviceId) -> bool {
        DriftAdapter::is_lost(self, device)
    }

    fn finish_frame(&mut self) {
        DriftAdapter::finish_frame(self);
    }
}

/// One frame of an adaptive stream.
#[derive(Clone, Copy, Debug)]
pub struct FrameOutcome {
    /// Frame index.
    pub frame: usize,
    /// Realized latency.
    pub latency: SimSpan,
    /// Mean accelerator share over the network's distributable layers in
    /// the plan this frame ran (0.0 = CPU only, 1.0 = all accelerator).
    pub accel_share: f64,
    /// Transient retries during the frame.
    pub retries: u64,
    /// Fallback parts executed during the frame.
    pub fallbacks: u64,
    /// The plan placed no work on any accelerator.
    pub degraded: bool,
    /// The frame exceeded the stream's deadline (if one was given).
    pub missed: bool,
}

/// The outcome of [`run_adaptive_stream`].
#[derive(Clone, Debug)]
pub struct AdaptiveStreamReport {
    /// Per-frame outcomes, in order.
    pub frames: Vec<FrameOutcome>,
    /// Total faults injected across the stream.
    pub injected: u64,
    /// Total transient retries.
    pub retries: u64,
    /// Total fallback parts executed.
    pub fallbacks: u64,
    /// Frames planned without any accelerator work.
    pub degraded_frames: u64,
    /// Frames that missed the deadline (0 when no deadline was given).
    pub deadline_missed: u64,
    /// Sum of frame latencies (the stream's virtual clock).
    pub total_latency: SimSpan,
    /// Planner accounting: cache hits, incremental replans, and layer
    /// copy/re-enumeration counts across the stream (PR 10). Planning
    /// is charged on its own ledger — frame latencies above are pure
    /// execution, as before.
    pub planner: crate::plancache::PlannerStats,
    /// Sum of modeled per-frame planning spans
    /// ([`crate::plancache::planning_span`]) — the stream's
    /// [`uruntime::OverheadClass::Planning`] total.
    pub planning_total: SimSpan,
}

/// Mean accelerator share over the distributable layers of `plan`.
pub fn accel_share(spec: &SocSpec, graph: &Graph, plan: &ExecutionPlan) -> f64 {
    let is_accel = |d: DeviceId| -> bool { spec.devices[d.0].kind != DeviceKind::CpuCluster };
    let mut total = 0.0;
    let mut n = 0usize;
    for (i, node) in graph.nodes().iter().enumerate() {
        if !node.kind.is_distributable() {
            continue;
        }
        n += 1;
        total += match &plan.placements[i] {
            NodePlacement::Single { device, .. } => {
                if is_accel(*device) {
                    1.0
                } else {
                    0.0
                }
            }
            NodePlacement::Split { parts } => parts
                .iter()
                .filter(|(d, _, _)| is_accel(*d))
                .map(|(_, _, f)| *f)
                .sum(),
        };
    }
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// Streams `frames` inferences, replanning every frame with a
/// [`DriftAdapter`] fed from the previous frames' realized traces.
///
/// `faults` is expressed on the stream's virtual timeline: frame `k`
/// starts at the sum of the previous frames' latencies, and sees the
/// plan shifted to its own origin ([`FaultPlan::shifted_by`]). A device
/// observed lost during a frame is marked lost in the adapter, so every
/// later frame plans around it; a throttled device's share shrinks
/// while its window lasts and recovers a few frames after it closes.
pub fn run_adaptive_stream(
    rt: &ULayer,
    graph: &Graph,
    frames: usize,
    faults: &FaultPlan,
    policy: &RetryPolicy,
    deadline: Option<SimSpan>,
) -> Result<AdaptiveStreamReport, ULayerError> {
    let mut adapter = DriftAdapter::new();
    // Exact reuse: every plan the session hands back is byte-identical
    // to `plan_with_drift` under the same adapter state, so the stream
    // behaves exactly as before — it just stops paying full enumeration
    // on frames where the drift state repeats or barely moves.
    let mut planner =
        crate::plancache::PlannerSession::new(rt, crate::plancache::ReusePolicy::Exact);
    let mut report = AdaptiveStreamReport {
        frames: Vec::with_capacity(frames),
        injected: 0,
        retries: 0,
        fallbacks: 0,
        degraded_frames: 0,
        deadline_missed: 0,
        total_latency: SimSpan::ZERO,
        planner: crate::plancache::PlannerStats::default(),
        planning_total: SimSpan::ZERO,
    };
    let mut cursor = SimTime::ZERO;
    for k in 0..frames {
        let planned = planner.plan_frame(graph, Some(&adapter))?;
        report.planning_total += planned.planning;
        let frame_faults = faults.shifted_by(cursor);
        let (result, fr) = execute_plan_with_faults(
            rt.spec(),
            graph,
            &planned.report.plan,
            &frame_faults,
            policy,
        )?;

        // Feed every realized kernel back into the adapter.
        for rec in result.trace.records() {
            let meta = &rec.payload;
            if meta.class != OverheadClass::Compute || meta.work.macs == 0 {
                continue;
            }
            if let Ok(predicted) = rt.predictor().predict(meta.device, &meta.work) {
                adapter.observe(meta.device, meta.work.class, predicted, rec.span());
            }
        }
        // A loss that struck within this frame is permanent: plan around
        // the device from the next frame on.
        let frame_end = SimTime::ZERO + result.latency;
        for l in &frame_faults.losses {
            if l.at < frame_end {
                adapter.mark_lost(DeviceId(l.resource.0));
            }
        }
        adapter.finish_frame();

        let share = accel_share(rt.spec(), graph, &planned.report.plan);
        let missed = deadline.is_some_and(|d| result.latency > d);
        report.frames.push(FrameOutcome {
            frame: k,
            latency: result.latency,
            accel_share: share,
            retries: fr.retries,
            fallbacks: fr.fallbacks.len() as u64,
            degraded: share == 0.0,
            missed,
        });
        report.injected += fr.injected;
        report.retries += fr.retries;
        report.fallbacks += fr.fallbacks.len() as u64;
        if share == 0.0 {
            report.degraded_frames += 1;
        }
        if missed {
            report.deadline_missed += 1;
        }
        report.total_latency += result.latency;
        cursor += result.latency;
    }
    report.planner = *planner.stats();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unobserved_devices_have_unit_factor() {
        let a = DriftAdapter::new();
        assert_eq!(a.factor(DeviceId(0), WorkClass::Gemm), 1.0);
        assert_eq!(a.worst_factor(DeviceId(1)), 1.0);
    }

    #[test]
    fn observation_moves_factor_toward_ratio() {
        let mut a = DriftAdapter::new();
        let d = DeviceId(1);
        // Observed 4x slower than predicted, twice: EWMA approaches 4.
        a.observe(
            d,
            WorkClass::Gemm,
            SimSpan::from_micros(100),
            SimSpan::from_micros(400),
        );
        a.finish_frame();
        let f1 = a.factor(d, WorkClass::Gemm);
        assert!(f1 > 2.0 && f1 < 4.0, "f1 = {f1}");
        a.observe(
            d,
            WorkClass::Gemm,
            SimSpan::from_micros(100),
            SimSpan::from_micros(400),
        );
        a.finish_frame();
        let f2 = a.factor(d, WorkClass::Gemm);
        assert!(f2 > f1 && f2 < 4.0, "f2 = {f2}");
    }

    #[test]
    fn unobserved_keys_relax_back_to_one() {
        let mut a = DriftAdapter::new();
        let d = DeviceId(1);
        a.observe(
            d,
            WorkClass::Gemm,
            SimSpan::from_micros(100),
            SimSpan::from_micros(400),
        );
        a.finish_frame();
        let inflated = a.factor(d, WorkClass::Gemm);
        // The device is parked (no observations): trust returns.
        for _ in 0..8 {
            a.finish_frame();
        }
        let relaxed = a.factor(d, WorkClass::Gemm);
        assert!(relaxed < inflated);
        assert!((relaxed - 1.0).abs() < 0.02, "relaxed = {relaxed}");
    }

    #[test]
    fn zero_and_near_zero_predictions_cannot_explode_the_factor() {
        let mut a = DriftAdapter::new();
        let d = DeviceId(0);
        // Exactly zero prediction: ignored entirely.
        a.observe(d, WorkClass::Gemm, SimSpan::ZERO, SimSpan::from_millis(50));
        assert_eq!(a.factor(d, WorkClass::Gemm), 1.0);
        // Near-zero prediction (1 ns) against a watchdog-scale
        // observation (1 s): the raw ratio is 1e9 but the correction is
        // clamped, and stays strictly below the lost-device pin.
        for _ in 0..64 {
            a.observe(
                d,
                WorkClass::Gemm,
                SimSpan::from_nanos(1),
                SimSpan::from_secs_f64(1.0),
            );
            a.finish_frame();
        }
        let f = a.factor(d, WorkClass::Gemm);
        assert!(f <= MAX_CORRECTION, "unbounded correction: {f}");
        assert!(f < LOST_FACTOR, "drift must stay below the lost pin: {f}");
        assert!(f > 1.0, "the slowdown signal itself must survive: {f}");
    }

    #[test]
    fn implausibly_fast_observations_floor_not_zero() {
        let mut a = DriftAdapter::new();
        let d = DeviceId(1);
        for _ in 0..64 {
            a.observe(d, WorkClass::Gemm, SimSpan::from_millis(100), SimSpan::ZERO);
            a.finish_frame();
        }
        let f = a.factor(d, WorkClass::Gemm);
        assert!(f >= MIN_CORRECTION, "factor collapsed to {f}");
        assert!(f < 1.0);
        // A floored factor still yields a usable (non-zero, finite) cost.
        let corrected = SimSpan::from_millis(10) * f;
        assert!(corrected > SimSpan::ZERO && corrected < SimSpan::from_millis(10));
    }

    #[test]
    fn observations_on_a_device_mid_loss_do_not_unpin_it() {
        // A device can die mid-frame: the trace still carries kernels
        // that completed before the loss, and the feedback loop replays
        // them *after* mark_lost. Those stale observations must not
        // soften the pin.
        let mut a = DriftAdapter::new();
        let d = DeviceId(1);
        a.mark_lost(d);
        a.observe(
            d,
            WorkClass::Gemm,
            SimSpan::from_micros(100),
            SimSpan::from_micros(100),
        );
        a.finish_frame();
        assert_eq!(a.factor(d, WorkClass::Gemm), LOST_FACTOR);
        assert_eq!(a.worst_factor(d), LOST_FACTOR);
        // And the reverse order: an in-flight healthy observation
        // followed by the loss in the same frame.
        let mut a = DriftAdapter::new();
        a.observe(
            d,
            WorkClass::Gemm,
            SimSpan::from_micros(100),
            SimSpan::from_micros(400),
        );
        a.mark_lost(d);
        a.finish_frame();
        assert_eq!(a.factor(d, WorkClass::Gemm), LOST_FACTOR);
    }

    #[test]
    fn ewma_stays_clamped_and_finite_under_extreme_streams() {
        let mut a = DriftAdapter::new();
        let d = DeviceId(0);
        // Alternate absurd slowdowns and absurd speedups; the factor must
        // remain finite and inside the documented band throughout.
        for i in 0..100u64 {
            let (p, o) = if i % 2 == 0 {
                (SimSpan::from_nanos(1), SimSpan::from_secs_f64(10.0))
            } else {
                (SimSpan::from_secs_f64(10.0), SimSpan::from_nanos(1))
            };
            a.observe(d, WorkClass::Gemm, p, o);
            let f = a.factor(d, WorkClass::Gemm);
            assert!(f.is_finite());
            assert!((MIN_CORRECTION..=MAX_CORRECTION).contains(&f), "f = {f}");
        }
    }

    #[test]
    fn lost_devices_never_relax() {
        let mut a = DriftAdapter::new();
        let d = DeviceId(1);
        a.mark_lost(d);
        for _ in 0..10 {
            a.finish_frame();
        }
        assert!(a.is_lost(d));
        assert!(a.factor(d, WorkClass::Gemm) >= LOST_FACTOR);
    }
}
