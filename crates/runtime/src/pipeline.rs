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

use simcore::{FaultPlan, ResourcePool, RetryPolicy, SimSpan, TaskGraph, TaskId, Trace};
use usoc::{EnergyAccumulator, EnergyBreakdown, KernelWork, SharedMemory, SocSpec};

use unn::Graph;

use crate::engine::{
    check_recovered, fault_report, fill_fault_metrics, fill_run_metrics, schedule_instance,
    FallbackPart, FaultReport, RunError, TaskMeta,
};
use crate::metrics::MetricsRegistry;
use crate::observe::{attribute, Attribution, OverheadClass};
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

/// Streams `inputs` inferences of `plan` with one arrival every
/// `interval` (use `SimSpan::ZERO` for back-to-back arrivals).
pub fn execute_pipeline(
    spec: &SocSpec,
    graph: &Graph,
    plan: &ExecutionPlan,
    inputs: usize,
    interval: SimSpan,
) -> Result<PipelineResult, RunError> {
    let (result, _) = execute_pipeline_with_faults(
        spec,
        graph,
        plan,
        inputs,
        interval,
        &FaultPlan::none(),
        &RetryPolicy::default(),
        None,
        None,
    )?;
    Ok(result)
}

/// [`execute_pipeline`] under an injected [`FaultPlan`].
///
/// Frames whose arrival falls at or after a (non-CPU) device loss are
/// scheduled with the `degraded` plan when one is given — the stream
/// keeps flowing on the surviving processor instead of stalling on
/// per-part fallbacks frame after frame. Frames before the loss run the
/// primary plan resiliently (retry + CPU fallback for accelerator
/// parts). When `deadline` is given, the number of frames whose latency
/// exceeds it is reported under the `deadline.missed` counter; degraded
/// frames are counted under `frames.degraded`.
///
/// With an empty fault plan this is exactly [`execute_pipeline`]. The
/// second element of the returned pair is the fault report
/// (injection/retry/fallback counts and wasted attempts).
#[allow(clippy::too_many_arguments)]
pub fn execute_pipeline_with_faults(
    spec: &SocSpec,
    graph: &Graph,
    plan: &ExecutionPlan,
    inputs: usize,
    interval: SimSpan,
    faults: &FaultPlan,
    policy: &RetryPolicy,
    degraded: Option<&ExecutionPlan>,
    deadline: Option<SimSpan>,
) -> Result<(PipelineResult, FaultReport), RunError> {
    super::engine::validate_plan(spec, graph, plan)?;
    if let Some(d) = degraded {
        super::engine::validate_plan(spec, graph, d)?;
    }
    let shapes = graph.infer_shapes()?;
    let resilient = !faults.is_empty();

    let mut pool = ResourcePool::new();
    for dev in &spec.devices {
        pool.add(dev.name.clone());
    }
    // Networked specs schedule transfer tasks on per-link timelines at
    // `ResourceId(ndev + link_index)` — registered before the source so
    // the engine's link-resource convention holds.
    if spec.has_network_links() {
        for l in &spec.links {
            pool.add(l.resource_name());
        }
    }
    // A virtual source (the camera / microphone) delivering one input per
    // interval; it is not a processor and consumes no energy.
    let source = pool.add("source");

    // The earliest loss of a non-CPU device: frames arriving at or after
    // it degrade to the single-processor plan (when one is provided).
    let cpu_res = simcore::ResourceId(spec.cpu().0);
    let loss_at = faults
        .losses
        .iter()
        .filter(|l| l.resource != cpu_res)
        .map(|l| l.at)
        .min();

    let mut tg: TaskGraph<TaskMeta> = TaskGraph::new();
    let mut memory = SharedMemory::new();
    super::engine::alloc_weight_buffers(&mut memory, graph, &shapes, plan);
    let mut degraded_weights_allocated = false;

    let mut arrivals: Vec<TaskId> = Vec::with_capacity(inputs);
    let mut completions: Vec<TaskId> = Vec::with_capacity(inputs);
    let mut fallbacks: Vec<FallbackPart> = Vec::new();
    let mut frames_degraded: u64 = 0;
    let mut prev_arrival: Option<TaskId> = None;
    for k in 0..inputs {
        // Arrival k completes at k * interval (the first frame is ready
        // immediately).
        let span = if k == 0 { SimSpan::ZERO } else { interval };
        let deps: Vec<TaskId> = prev_arrival.into_iter().collect();
        let arrival = tg.add(
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
        let frame_plan = match (degraded, loss_at) {
            (Some(d), Some(at)) if simcore::SimTime::ZERO + arrives_at >= at => {
                frames_degraded += 1;
                if !degraded_weights_allocated {
                    super::engine::alloc_weight_buffers(&mut memory, graph, &shapes, d);
                    degraded_weights_allocated = true;
                }
                d
            }
            _ => plan,
        };

        let inst = schedule_instance(
            &mut tg,
            &mut memory,
            spec,
            graph,
            &shapes,
            frame_plan,
            &format!("in{k}/"),
            Some(arrival),
            k,
            resilient,
        )?;
        completions.push(inst.completion);
        fallbacks.extend(inst.fallbacks);
    }

    let (trace, sched, log) = tg.run_with_faults(&mut pool, faults, policy)?;
    check_recovered(&trace, &log)?;

    let mut energy = EnergyAccumulator::new(spec);
    for rec in trace.records() {
        if rec.resource != simcore::ResourceId(source.0)
            && rec.payload.class != OverheadClass::Transfer
        {
            energy.add_task(
                rec.payload.device,
                rec.span(),
                rec.payload.work.total_bytes(),
            )?;
        }
    }
    // Retried / permanently failed attempts burned real processor time
    // before being thrown away; charge them to the device they ran on.
    for attempt in &log.wasted {
        let meta = &trace.records()[attempt.task.0].payload;
        if meta.class == OverheadClass::Transfer {
            continue;
        }
        energy.add_task(
            meta.device,
            attempt.end - attempt.start,
            meta.work.total_bytes(),
        )?;
    }
    let energy = energy.finish(trace.makespan());

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

    let mut resource_names: Vec<String> = spec.devices.iter().map(|d| d.name.clone()).collect();
    if spec.has_network_links() {
        resource_names.extend(spec.links.iter().map(|l| l.resource_name()));
    }
    resource_names.push("source".to_string());
    let attribution = attribute(&trace, &resource_names, spec);
    let stats = memory.stats();
    let mut metrics = MetricsRegistry::new();
    fill_run_metrics(&mut metrics, &trace, &sched, &stats, &energy);
    metrics.inc("pipeline.inputs", inputs as u64);
    metrics.counter_max("pipeline.backlog_peak", backlog_peak as u64);
    metrics.gauge("pipeline.throughput_ips", throughput_ips);
    if let Some(max) = latencies.iter().copied().reduce(SimSpan::max) {
        metrics.gauge("pipeline.latency_max_ms", max.as_millis_f64());
        let mean = latencies.iter().copied().sum::<SimSpan>() / latencies.len() as u64;
        metrics.gauge("pipeline.latency_mean_ms", mean.as_millis_f64());
    }

    let report = fault_report(&log, &fallbacks);
    if resilient {
        fill_fault_metrics(&mut metrics, &report);
        metrics.inc("frames.degraded", frames_degraded);
    }
    // A deadline can be missed with no fault at all (an overloaded
    // stream), so the counter does not depend on the fault plan.
    if let Some(dl) = deadline {
        let missed = latencies.iter().filter(|&&l| l > dl).count();
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
        let pipe = execute_pipeline(&spec, &g, &plan, 1, SimSpan::from_millis(10)).expect("pipe");
        assert_eq!(pipe.latencies.len(), 1);
        assert_eq!(pipe.latencies[0], single.latency);
    }

    #[test]
    fn back_to_back_throughput_beats_serial_restarts() {
        // With zero arrival interval, the stream's makespan can never
        // exceed n * single-latency (and pipelining may beat it).
        let (spec, g, plan) = setup();
        let single = execute_plan(&spec, &g, &plan).expect("single");
        let n = 8;
        let pipe = execute_pipeline(&spec, &g, &plan, n, SimSpan::ZERO).expect("pipe");
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
        let pipe = execute_pipeline(&spec, &g, &plan, 5, interval).expect("pipe");
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
        let pipe = execute_pipeline(&spec, &g, &plan, 6, interval).expect("pipe");
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
        let (pipe, report) = execute_pipeline_with_faults(
            &spec,
            &g,
            &plan,
            6,
            SimSpan::ZERO,
            &FaultPlan::none(),
            &RetryPolicy::default(),
            None,
            Some(SimSpan::from_nanos(1)),
        )
        .expect("pipe");
        assert_eq!(pipe.metrics.counter("deadline.missed"), 6);
        assert_eq!(pipe.missed(SimSpan::from_nanos(1)), 6);
        // Fault-only counters stay fault-only.
        assert_eq!(pipe.metrics.counter("frames.degraded"), 0);
        assert_eq!(report.injected, 0);
        // Without a deadline the empty plan is still `execute_pipeline`.
        let plain = execute_pipeline(&spec, &g, &plan, 6, SimSpan::ZERO).expect("plain");
        assert_eq!(plain.latencies, pipe.latencies);
        assert_eq!(plain.metrics.counter("deadline.missed"), 0);
    }

    #[test]
    fn energy_scales_with_stream_length() {
        let (spec, g, plan) = setup();
        let p2 = execute_pipeline(&spec, &g, &plan, 2, SimSpan::ZERO).expect("pipe");
        let p8 = execute_pipeline(&spec, &g, &plan, 8, SimSpan::ZERO).expect("pipe");
        assert!(p8.energy.total_j() > p2.energy.total_j() * 3.0);
    }
}
