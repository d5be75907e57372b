//! Streaming (pipelined) execution: many inputs through one plan.
//!
//! The figures of the paper measure single-input latency; real services
//! (continuous vision, §1) stream inputs. This executor chains `n`
//! inference instances of the same plan through the shared device
//! timelines: instance `k`'s source layers are gated on its arrival (a
//! camera frame every `interval`), and all instances contend for the
//! processors — so later frames naturally pipeline into the idle gaps of
//! earlier ones. The result reports sustained throughput *and* the
//! per-input latency distribution, the two metrics the
//! network-to-processor comparison (§2.2) distinguishes.

use simcore::{FaultPlan, RetryPolicy, SimSpan, TaskId, Trace};
use usoc::{EnergyBreakdown, KernelWork, SocSpec};

use unn::Graph;

use crate::engine::{
    alloc_weight_buffers, lower, realize, schedule_instance, FaultReport, RealizedRun, RunError,
    TaskMeta,
};
use crate::metrics::MetricsRegistry;
use crate::observe::{Attribution, OverheadClass};
use crate::plan::ExecutionPlan;

/// The outcome of a pipelined run.
#[derive(Clone, Debug)]
pub struct PipelineResult {
    /// Number of inputs processed.
    pub inputs: usize,
    /// Arrival interval between consecutive inputs.
    pub interval: SimSpan,
    /// Wall-clock of the whole stream (first arrival to last completion).
    pub makespan: SimSpan,
    /// Sustained throughput, inferences per second.
    pub throughput_ips: f64,
    /// Per-input latency: completion minus arrival, in arrival order.
    pub latencies: Vec<SimSpan>,
    /// Total energy over the stream.
    pub energy: EnergyBreakdown,
    /// The realized schedule of the whole stream.
    pub trace: Trace<TaskMeta>,
    /// Resource names in resource order (devices, then the virtual
    /// arrival source).
    pub resource_names: Vec<String>,
    /// Scheduler/memory/energy/backlog counters of the stream.
    pub metrics: MetricsRegistry,
    /// Overhead attribution over the stream's schedule.
    pub attribution: Attribution,
}

impl PipelineResult {
    /// The worst per-input latency.
    pub fn max_latency(&self) -> SimSpan {
        self.latencies
            .iter()
            .copied()
            .fold(SimSpan::ZERO, SimSpan::max)
    }

    /// The mean per-input latency.
    pub fn mean_latency(&self) -> SimSpan {
        if self.latencies.is_empty() {
            return SimSpan::ZERO;
        }
        self.latencies.iter().copied().sum::<SimSpan>() / self.latencies.len() as u64
    }

    /// Number of inputs whose latency exceeded `deadline`.
    pub fn missed(&self, deadline: SimSpan) -> usize {
        self.latencies.iter().filter(|&&l| l > deadline).count()
    }
}

/// What a stream runs under beyond its plan and arrival pattern.
/// `RunOptions::default()` is a fault-free stream with no degraded plan
/// and no deadline.
#[derive(Clone, Debug, Default)]
pub struct RunOptions<'a> {
    /// Perturbations to realize (empty = fault-free).
    pub faults: FaultPlan,
    /// Watchdog retry policy for transiently failed tasks.
    pub policy: RetryPolicy,
    /// The plan frames switch to once a (non-CPU) device is lost.
    pub degraded: Option<&'a ExecutionPlan>,
    /// When given, frames slower than this count under `deadline.missed`.
    pub deadline: Option<SimSpan>,
}

/// Streams `inputs` inferences of `plan` with one arrival every
/// `interval` (use `SimSpan::ZERO` for back-to-back arrivals), under the
/// faults, degraded plan and deadline of `options`.
///
/// Frames whose arrival falls at or after a (non-CPU) device loss are
/// scheduled with the degraded plan when one is given — the stream
/// keeps flowing on the surviving processor instead of stalling on
/// per-part fallbacks frame after frame. Frames before the loss run the
/// primary plan resiliently (retry + CPU fallback for accelerator
/// parts). When a deadline is given, the number of frames whose latency
/// exceeds it is reported under the `deadline.missed` counter; degraded
/// frames are counted under `frames.degraded`.
///
/// The second element of the returned pair is the fault report
/// (injection/retry/fallback counts and wasted attempts), all zero for
/// an empty fault plan.
pub fn execute_pipeline(
    spec: &SocSpec,
    graph: &Graph,
    plan: &ExecutionPlan,
    inputs: usize,
    interval: SimSpan,
    options: &RunOptions<'_>,
) -> Result<(PipelineResult, FaultReport), RunError> {
    let RunOptions {
        faults,
        policy,
        degraded,
        deadline,
    } = options;
    // Each plan is lowered once for the whole stream; every frame
    // schedules from its layout.
    let primary = lower(spec, graph, plan)?;
    let degraded = degraded.map(|d| lower(spec, graph, d)).transpose()?;

    // The earliest loss of a non-CPU device: frames arriving at or after
    // it degrade to the single-processor plan (when one is provided).
    let cpu_res = simcore::ResourceId(spec.cpu().0);
    let loss_at = faults
        .losses
        .iter()
        .filter(|l| l.resource != cpu_res)
        .map(|l| l.at)
        .min();

    let ((arrivals, completions, frames_degraded), run) =
        realize(spec, true, faults, policy, |sched| {
            let source = sched.source.expect("a stream has an arrival source");
            alloc_weight_buffers(&mut sched.memory, &primary);

            let mut arrivals: Vec<TaskId> = Vec::with_capacity(inputs);
            let mut completions: Vec<TaskId> = Vec::with_capacity(inputs);
            let mut frames_degraded: u64 = 0;
            let mut prev_arrival: Option<TaskId> = None;
            for k in 0..inputs {
                // Arrival k completes at k * interval (the first frame is
                // ready immediately).
                let span = if k == 0 { SimSpan::ZERO } else { interval };
                let deps: Vec<TaskId> = prev_arrival.into_iter().collect();
                let arrival = sched.tg.add(
                    format!("in{k}::arrival"),
                    source,
                    span,
                    &deps,
                    TaskMeta {
                        device: spec.cpu(), // never scheduled on a real device resource
                        work: KernelWork::nop(),
                        node: None,
                        class: OverheadClass::Arrival,
                        map: SimSpan::ZERO,
                        instance: k,
                    },
                );
                prev_arrival = Some(arrival);
                arrivals.push(arrival);

                let arrives_at = interval * k as u64;
                let frame_layout = match (&degraded, loss_at) {
                    (Some(d), Some(at)) if simcore::SimTime::ZERO + arrives_at >= at => {
                        if frames_degraded == 0 {
                            alloc_weight_buffers(&mut sched.memory, d);
                        }
                        frames_degraded += 1;
                        d
                    }
                    _ => &primary,
                };

                let inst = schedule_instance(
                    sched,
                    spec,
                    graph,
                    frame_layout,
                    &format!("in{k}/"),
                    Some(arrival),
                    k,
                    !faults.is_empty(),
                )?;
                completions.push(inst.completion);
            }
            Ok((arrivals, completions, frames_degraded))
        })?;
    let RealizedRun {
        trace,
        energy,
        resource_names,
        mut metrics,
        attribution,
        report,
        ..
    } = run;

    let latencies: Vec<SimSpan> = arrivals
        .iter()
        .zip(&completions)
        .map(|(&a, &c)| trace.end_of(c) - trace.end_of(a))
        .collect();
    let makespan = trace.makespan();
    let throughput_ips = if makespan.is_zero() {
        0.0
    } else {
        inputs as f64 / makespan.as_secs_f64()
    };

    // Backlog: how many earlier inputs are still in flight when input k
    // arrives. Zero peak means the pipeline keeps up with the arrivals.
    let backlog_peak = (0..inputs)
        .map(|k| {
            let at = trace.end_of(arrivals[k]);
            completions[..k]
                .iter()
                .filter(|&&c| trace.end_of(c) > at)
                .count()
        })
        .max()
        .unwrap_or(0);

    metrics.inc("pipeline.inputs", inputs as u64);
    metrics.counter_max("pipeline.backlog_peak", backlog_peak as u64);
    metrics.gauge("pipeline.throughput_ips", throughput_ips);
    if let Some(max) = latencies.iter().copied().reduce(SimSpan::max) {
        metrics.gauge("pipeline.latency_max_ms", max.as_millis_f64());
        let mean = latencies.iter().copied().sum::<SimSpan>() / latencies.len() as u64;
        metrics.gauge("pipeline.latency_mean_ms", mean.as_millis_f64());
    }
    if !faults.is_empty() {
        metrics.inc("frames.degraded", frames_degraded);
    }
    // A deadline can be missed with no fault at all (an overloaded
    // stream), so the counter does not depend on the fault plan.
    if let Some(dl) = deadline {
        let missed = latencies.iter().filter(|&&l| l > *dl).count();
        metrics.inc("deadline.missed", missed as u64);
    }

    Ok((
        PipelineResult {
            inputs,
            interval,
            makespan,
            throughput_ips,
            latencies,
            energy,
            trace,
            resource_names,
            metrics,
            attribution,
        },
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::single_processor_plan;
    use crate::engine::execute_plan;
    use unn::ModelId;
    use utensor::DType;

    /// A fault-free stream with no degraded plan and no deadline.
    fn stream(
        spec: &SocSpec,
        g: &Graph,
        plan: &ExecutionPlan,
        inputs: usize,
        interval: SimSpan,
    ) -> PipelineResult {
        let (pipe, _) = execute_pipeline(spec, g, plan, inputs, interval, &RunOptions::default())
            .expect("pipe");
        pipe
    }

    fn setup() -> (SocSpec, Graph, ExecutionPlan) {
        let spec = SocSpec::exynos_7420();
        let g = ModelId::SqueezeNet.build_miniature();
        let plan = single_processor_plan(&g, &spec, spec.cpu(), DType::QUInt8).expect("plan");
        (spec, g, plan)
    }

    #[test]
    fn one_input_matches_single_run() {
        let (spec, g, plan) = setup();
        let single = execute_plan(&spec, &g, &plan).expect("single");
        let pipe = stream(&spec, &g, &plan, 1, SimSpan::from_millis(10));
        // A pipeline of one adds the arrival task and the source track
        // to the single run's trace, but costs exactly the same.
        assert_eq!(pipe.latencies.len(), 1);
        assert_eq!(pipe.latencies[0], single.latency);
        assert_eq!(pipe.energy, single.energy);
    }

    #[test]
    fn back_to_back_throughput_beats_serial_restarts() {
        // With zero arrival interval, the stream's makespan can never
        // exceed n * single-latency (and pipelining may beat it).
        let (spec, g, plan) = setup();
        let single = execute_plan(&spec, &g, &plan).expect("single");
        let n = 8;
        let pipe = stream(&spec, &g, &plan, n, SimSpan::ZERO);
        assert!(
            pipe.makespan.as_secs_f64() <= single.latency.as_secs_f64() * n as f64 * 1.001,
            "makespan {} vs serial {}",
            pipe.makespan,
            single.latency * n as u64
        );
        assert!(pipe.throughput_ips > 0.0);
    }

    #[test]
    fn paced_arrivals_keep_latency_flat() {
        // When the arrival interval exceeds the single-input latency, the
        // pipeline is never backlogged: every input's latency equals the
        // first input's.
        let (spec, g, plan) = setup();
        let single = execute_plan(&spec, &g, &plan).expect("single");
        let interval = single.latency + SimSpan::from_millis(1);
        let pipe = stream(&spec, &g, &plan, 5, interval);
        for (k, l) in pipe.latencies.iter().enumerate() {
            assert_eq!(*l, pipe.latencies[0], "input {k}");
        }
        assert_eq!(pipe.missed(single.latency + SimSpan::from_millis(2)), 0);
    }

    #[test]
    fn overloaded_arrivals_build_backlog() {
        // Arrivals faster than the service rate make latency grow with k.
        let (spec, g, plan) = setup();
        let single = execute_plan(&spec, &g, &plan).expect("single");
        let interval = single.latency / 4;
        let pipe = stream(&spec, &g, &plan, 6, interval);
        assert!(
            pipe.latencies.last().expect("nonempty") > &pipe.latencies[0],
            "no backlog: {:?}",
            pipe.latencies
        );
        assert!(pipe.max_latency() >= pipe.mean_latency());
    }

    #[test]
    fn deadline_misses_are_counted_without_any_fault() {
        // The counter is reported for every call that gives a deadline,
        // whether or not the fault plan is empty.
        let (spec, g, plan) = setup();
        let options = RunOptions {
            deadline: Some(SimSpan::from_nanos(1)),
            ..RunOptions::default()
        };
        let (pipe, report) =
            execute_pipeline(&spec, &g, &plan, 6, SimSpan::ZERO, &options).expect("pipe");
        assert_eq!(pipe.metrics.counter("deadline.missed"), 6);
        assert_eq!(pipe.missed(SimSpan::from_nanos(1)), 6);
        // Fault-only counters stay fault-only.
        assert_eq!(pipe.metrics.counter("frames.degraded"), 0);
        assert_eq!(report.injected, 0);
        // Without a deadline the counter is absent.
        let plain = stream(&spec, &g, &plan, 6, SimSpan::ZERO);
        assert_eq!(plain.latencies, pipe.latencies);
        assert_eq!(plain.metrics.counter("deadline.missed"), 0);
    }

    #[test]
    fn energy_scales_with_stream_length() {
        let (spec, g, plan) = setup();
        let p2 = stream(&spec, &g, &plan, 2, SimSpan::ZERO);
        let p8 = stream(&spec, &g, &plan, 8, SimSpan::ZERO);
        assert!(p8.energy.total_j() > p2.energy.total_j() * 3.0);
    }
}
