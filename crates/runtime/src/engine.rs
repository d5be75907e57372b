//! The scheduling engine: executes an [`ExecutionPlan`] on a simulated
//! SoC, producing latency, a task trace, energy, and memory statistics.
//!
//! The engine realizes the §6 runtime behaviours for *any* mechanism:
//!
//! - **Asynchronous GPU command issue** — every GPU kernel is preceded by
//!   a host-side issue task with no dependencies, so issuing overlaps
//!   with CPU work exactly as the paper's framework arranges.
//! - **Zero-copy shared memory** — tensors are never copied between
//!   processors; crossing the CPU↔GPU boundary costs only map/unmap and
//!   completion-wait tasks on the host timeline.
//! - **Cooperative merge** — a split layer's partial outputs join at a
//!   host-side merge task that synchronizes with the GPU and maps the
//!   output region.

use simcore::{
    AttemptRecord, FaultLog, FaultPlan, ResourcePool, RetryPolicy, SimSpan, SimTime, TaskGraph,
    TaskId, Trace,
};
use usoc::{
    layer_work, split_channel_count, split_cuts, split_weight_elems, DeviceId, DeviceKind,
    EnergyAccumulator, EnergyBreakdown, KernelWork, MapMode, MemoryStats, SharedMemory, SocError,
    SocSpec,
};
use utensor::TensorError;

use unn::{Graph, LayerKind, NodeId};

use crate::metrics::MetricsRegistry;
use crate::observe::{attribute, Attribution, OverheadClass};
use crate::plan::{ExecutionPlan, NodePlacement};

/// Payload attached to every scheduled task.
#[derive(Clone, Debug)]
pub struct TaskMeta {
    /// The device the task occupies.
    pub device: DeviceId,
    /// Cost summary (zero for pure-overhead tasks).
    pub work: KernelWork,
    /// The graph node this task belongs to, if any.
    pub node: Option<NodeId>,
    /// What the task's time is spent on. Kernel tasks are
    /// [`OverheadClass::Compute`] (the bundled CPU dispatch included);
    /// everything else names its §6 overhead.
    pub class: OverheadClass,
    /// The buffer-map portion of tasks that bundle a wait with a map on
    /// one host reservation (sync and merge tasks). Attribution reassigns
    /// this slice to [`OverheadClass::Map`] without splitting the task —
    /// splitting would perturb the reserve-on-ready schedule.
    pub map: SimSpan,
    /// The pipeline input this task serves (0 for single runs).
    pub instance: usize,
}

/// Errors from executing a plan.
#[derive(Debug)]
pub enum RunError {
    /// Shape/validation failure.
    Tensor(TensorError),
    /// Device/timing-model failure.
    Soc(SocError),
    /// Scheduling failure (should not happen for valid plans).
    Schedule(simcore::ScheduleError),
    /// The plan is structurally inconsistent with the graph (e.g. a split
    /// placement whose channel shares cannot be realized).
    MalformedPlan(String),
    /// A task failed permanently under fault injection and no fallback
    /// could recover it — the run's outputs are not trustworthy.
    Unrecoverable(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Tensor(e) => write!(f, "tensor error: {e}"),
            RunError::Soc(e) => write!(f, "soc error: {e}"),
            RunError::Schedule(e) => write!(f, "schedule error: {e}"),
            RunError::MalformedPlan(msg) => write!(f, "malformed plan: {msg}"),
            RunError::Unrecoverable(msg) => write!(f, "unrecoverable failure: {msg}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<TensorError> for RunError {
    fn from(e: TensorError) -> Self {
        RunError::Tensor(e)
    }
}

impl From<SocError> for RunError {
    fn from(e: SocError) -> Self {
        RunError::Soc(e)
    }
}

impl From<simcore::ScheduleError> for RunError {
    fn from(e: simcore::ScheduleError) -> Self {
        RunError::Schedule(e)
    }
}

/// The timing/energy outcome of one planned inference.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The mechanism label from the plan.
    pub label: String,
    /// End-to-end single-input latency.
    pub latency: SimSpan,
    /// Itemized energy.
    pub energy: EnergyBreakdown,
    /// The realized schedule.
    pub trace: Trace<TaskMeta>,
    /// Device names in resource order (for Gantt rendering).
    pub resource_names: Vec<String>,
    /// Per-node `(first task start, last task end)`.
    pub node_spans: Vec<(SimTime, SimTime)>,
    /// Shared-memory statistics of the run.
    pub memory: MemoryStats,
    /// Scheduler/memory/energy counters collected during the run.
    pub metrics: MetricsRegistry,
    /// Overhead attribution of the schedule (classes tile the makespan).
    pub attribution: Attribution,
}

impl RunResult {
    /// Latency in milliseconds (the paper's unit).
    pub fn latency_ms(&self) -> f64 {
        self.latency.as_millis_f64()
    }

    /// ASCII Gantt chart of the schedule.
    pub fn gantt(&self) -> String {
        let names: Vec<(simcore::ResourceId, String)> = self
            .resource_names
            .iter()
            .enumerate()
            .map(|(i, n)| (simcore::ResourceId(i), n.clone()))
            .collect();
        self.trace
            .render_gantt(&names, simcore::GanttOptions::default())
    }
}

/// What a fallback task re-executes when its primary fails.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FallbackScope {
    /// The node ran whole on the failed device: recompute it entirely.
    WholeNode,
    /// A channel-split part failed: recompute exactly the output channels
    /// `[lo, hi)` (part `index` of the placement's split).
    Channels {
        /// Index of the part in the placement's `parts` order.
        index: usize,
        /// First output channel (inclusive).
        lo: usize,
        /// One past the last output channel.
        hi: usize,
    },
}

/// A registered recovery action: if `primary` fails permanently, the
/// surviving processor re-executes `scope` of `node`. Channel-disjoint
/// splits make the recomputation exact, so the functional evaluator
/// reproduces bit-identical outputs (see
/// [`crate::functional::evaluate_plan_with_recovery`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FallbackPart {
    /// The graph node being recovered.
    pub node: NodeId,
    /// What is re-executed.
    pub scope: FallbackScope,
    /// The device that failed.
    pub from: DeviceId,
    /// The device the work fell back to.
    pub to: DeviceId,
    /// The primary (watched) task.
    pub primary: TaskId,
    /// The fallback task.
    pub fallback: TaskId,
}

/// Fault-injection outcome of a resilient run.
#[derive(Clone, Debug, Default)]
pub struct FaultReport {
    /// Perturbations injected (throttled reservations + failed attempts).
    pub injected: u64,
    /// Retry attempts dispatched.
    pub retries: u64,
    /// Reservations slowed by a throttle window.
    pub throttled: u64,
    /// Failed-then-retried attempt intervals (resource time the trace
    /// does not show; already folded into the energy accounting).
    pub wasted: Vec<AttemptRecord>,
    /// Fallbacks that actually executed, in schedule order.
    pub fallbacks: Vec<FallbackPart>,
}

/// Where a node's output resides after production.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Residency {
    /// CPU-written (or merged) — mapped host memory.
    Cpu,
    /// Produced by an accelerator's queue and not yet synchronized.
    Accel(DeviceId),
}

/// The tasks created for one inference instance.
pub(crate) struct InstanceTasks {
    /// Per node: the task producing its output and the output residency.
    pub producers: Vec<(TaskId, Residency)>,
    /// Per node: the first task belonging to the node.
    pub node_first_task: Vec<TaskId>,
    /// The task after which the inference's output is CPU-visible.
    pub completion: TaskId,
}

/// The schedule under construction: what [`realize`] hands its caller to
/// build the run's instances into.
pub(crate) struct Schedule {
    pub tg: TaskGraph<TaskMeta>,
    pub memory: SharedMemory,
    /// Recovery actions registered so far (none unless scheduled
    /// resiliently).
    pub fallbacks: Vec<FallbackPart>,
    /// The stream's virtual arrival source, when the run has one.
    pub source: Option<simcore::ResourceId>,
}

/// Allocates the long-lived weight buffers of a plan (uploaded once at
/// plan load, outside the inference-latency window, per §6).
///
/// Split placements distribute the weight elements over the *realized*
/// channel cuts ([`split_cuts`]), so the per-part byte counts sum exactly
/// to the whole layer's — truncating each part independently would lose
/// up to one element per part.
pub(crate) fn alloc_weight_buffers(
    memory: &mut SharedMemory,
    graph: &Graph,
    shapes: &[utensor::Shape],
    plan: &ExecutionPlan,
) {
    for (i, node) in graph.nodes().iter().enumerate() {
        let in_shape = graph.node_input_shape(NodeId(i), shapes);
        let weight_elems = node.kind.weight_count(in_shape) + node.kind.bias_count(in_shape);
        if weight_elems > 0 {
            match &plan.placements[i] {
                NodePlacement::Single { dtypes, .. } => {
                    memory.alloc(weight_elems * dtypes.weights.size_bytes());
                }
                NodePlacement::Split { parts } => {
                    let fracs: Vec<f64> = parts.iter().map(|p| p.2).collect();
                    let channels = split_channel_count(&node.kind, in_shape).unwrap_or(0);
                    let cuts = split_cuts(channels, &fracs);
                    for ((_, dtypes, _), elems) in
                        parts
                            .iter()
                            .zip(split_weight_elems(weight_elems, &cuts, channels))
                    {
                        memory.alloc(elems * dtypes.weights.size_bytes());
                    }
                }
            }
        }
    }
}

/// Schedules the store-and-forward hop tasks moving `bytes` from `from`
/// to `to` over the spec's network links, returning the task the
/// consumer must depend on (`src` when the route has no hops). Each hop
/// occupies its link's timeline — `ResourceId(ndev + link_index)`, the
/// convention every executor that registers link resources follows —
/// for the link's serial transfer span.
#[allow(clippy::too_many_arguments)]
fn transfer_chain(
    tg: &mut TaskGraph<TaskMeta>,
    spec: &SocSpec,
    from: DeviceId,
    to: DeviceId,
    bytes: u64,
    src: Option<TaskId>,
    label: &str,
    node: Option<NodeId>,
    instance: usize,
) -> Result<Option<TaskId>, RunError> {
    let route = spec.route(from, to).ok_or_else(|| {
        RunError::MalformedPlan(format!(
            "no route from dev#{} to dev#{} for {label}",
            from.0, to.0
        ))
    })?;
    let ndev = spec.devices.len();
    let mut prev = src;
    let mut at = from;
    for (hop, li) in route.iter().enumerate() {
        let link = &spec.links[*li];
        let next = link.other_end(at).expect("route hops are incident");
        let deps: Vec<TaskId> = prev.into_iter().collect();
        let t = tg.add(
            format!("{label}::xfer#{hop}[{}-{}]", at.0, next.0),
            simcore::ResourceId(ndev + *li),
            link.link.transfer_span(bytes),
            &deps,
            TaskMeta {
                device: at,
                work: KernelWork::nop(),
                node,
                class: OverheadClass::Transfer,
                map: SimSpan::ZERO,
                instance,
            },
        );
        prev = Some(t);
        at = next;
    }
    Ok(prev)
}

/// Builds the task DAG of one inference instance of `plan` into `sched`.
///
/// `prefix` namespaces task labels (used by the pipeline executor);
/// `arrival` — when given — gates the source layers (the input is not
/// available before that task completes, e.g. a camera frame arriving).
/// With `resilient` set, every accelerator kernel gets a registered CPU
/// fallback ([`TaskGraph::add_fallback`]) sized as the CPU latency of the
/// same work plus the salvage overhead (queue wait + map + dispatch);
/// fallbacks are skipped for free when the primary succeeds.
#[allow(clippy::too_many_arguments)]
pub(crate) fn schedule_instance(
    sched: &mut Schedule,
    spec: &SocSpec,
    graph: &Graph,
    shapes: &[utensor::Shape],
    plan: &ExecutionPlan,
    prefix: &str,
    arrival: Option<TaskId>,
    instance: usize,
    resilient: bool,
) -> Result<InstanceTasks, RunError> {
    let Schedule {
        tg,
        memory,
        fallbacks,
        ..
    } = sched;
    let cpu = spec.cpu();
    let networked = spec.has_network_links();
    // Transfer chains already scheduled for this instance, keyed by
    // (producer node — usize::MAX for the input frame — and destination
    // device), so two consumers on one device share the same transfer.
    let mut xfers: std::collections::BTreeMap<(usize, usize), TaskId> =
        std::collections::BTreeMap::new();
    let res = |d: DeviceId| simcore::ResourceId(d.0);
    let meta_overhead =
        |device: DeviceId, node: Option<NodeId>, class: OverheadClass, map: SimSpan| TaskMeta {
            device,
            work: KernelWork::nop(),
            node,
            class,
            map,
            instance,
        };
    // Accelerator command issue happens host-side before the input exists,
    // but never before the input *frame* exists — issue tasks are gated on
    // the instance's arrival so a pipelined instance cannot start issuing
    // ahead of its frame.
    let issue_gate: Vec<TaskId> = arrival.into_iter().collect();

    // Per node: the task producing its output, and where that output
    // resides.
    let mut producers: Vec<(TaskId, Residency)> = Vec::with_capacity(graph.len());
    let mut node_first_task: Vec<TaskId> = Vec::with_capacity(graph.len());
    // Per node: the device holding the node's output (for networked
    // specs; a split's merged output lives on the host).
    let mut producer_locs: Vec<DeviceId> = Vec::with_capacity(graph.len());

    // Branches of an elided concat write their channel range directly
    // into the join buffer: `inplace_target` maps each such producer to
    // its concat, and `join_bufs` holds the shared buffer, allocated
    // lazily by the first producer that needs it.
    let mut inplace_target: std::collections::BTreeMap<usize, usize> =
        std::collections::BTreeMap::new();
    for &c in &plan.elided_concats {
        for d in &graph.nodes()[c].inputs {
            inplace_target.insert(d.0, c);
        }
    }
    let mut join_bufs: std::collections::BTreeMap<usize, usoc::BufferId> =
        std::collections::BTreeMap::new();

    for (i, node) in graph.nodes().iter().enumerate() {
        let id = NodeId(i);
        let in_shape = graph.node_input_shape(id, shapes).clone();
        let out_shape = shapes[i].clone();
        let name = format!("{prefix}{}", node.name);

        // Dependencies of this node's compute: the producers of each
        // input, adjusted for residency crossings; source layers wait for
        // the instance's arrival gate instead.
        let input_producers: Vec<(usize, TaskId, Residency)> = node
            .inputs
            .iter()
            .map(|d| (d.0, producers[d.0].0, producers[d.0].1))
            .collect();

        // Output buffer for this node (zero-copy shared memory). A
        // branch of an elided concat owns no buffer of its own — it
        // writes into the join's; the elided concat itself reuses the
        // buffer its first branch allocated.
        let out_buf = if let Some(&c) = inplace_target.get(&i) {
            *join_bufs.entry(c).or_insert_with(|| {
                memory.alloc(shapes[c].numel() * plan.placements[c].storage_dtype().size_bytes())
            })
        } else if plan.elided_concats.contains(&i) {
            *join_bufs
                .get(&i)
                .expect("an elided concat's branches precede it and allocate its buffer")
        } else {
            memory.alloc(out_shape.numel() * plan.placements[i].storage_dtype().size_bytes())
        };

        // Builds the dependency list for a consumer on `consumer_dev`,
        // inserting host-side sync/map tasks — and, on networked specs,
        // store-and-forward link transfers — as required.
        let deps_for = |tg: &mut TaskGraph<TaskMeta>,
                        xfers: &mut std::collections::BTreeMap<(usize, usize), TaskId>,
                        consumer_dev: DeviceId|
         -> Result<Vec<TaskId>, RunError> {
            let consumer_kind = spec.devices[consumer_dev.0].kind;
            let mut deps = Vec::with_capacity(input_producers.len() + 1);
            if node.inputs.is_empty() {
                // The input frame arrives at the host; a remote source
                // layer waits for the frame to cross the mesh instead.
                if networked && consumer_dev != cpu {
                    let key = (usize::MAX, consumer_dev.0);
                    let cached = match xfers.get(&key).copied() {
                        Some(t) => Some(t),
                        None => {
                            let bytes = (in_shape.numel()
                                * plan.placements[i].storage_dtype().size_bytes())
                                as u64;
                            let t = transfer_chain(
                                tg,
                                spec,
                                cpu,
                                consumer_dev,
                                bytes,
                                arrival,
                                &format!("{prefix}input"),
                                Some(id),
                                instance,
                            )?;
                            if let Some(t) = t {
                                xfers.insert(key, t);
                            }
                            t
                        }
                    };
                    if let Some(t) = cached {
                        deps.push(t);
                    }
                } else if let Some(a) = arrival {
                    deps.push(a);
                }
            }
            for &(pnode, ptask, res_where) in &input_producers {
                match (consumer_kind, res_where) {
                    // CPU reading accelerator output: wait for the queue,
                    // then map the buffer for reading.
                    (DeviceKind::CpuCluster, Residency::Accel(_)) => {
                        let sync = tg.add_with_priority(
                            format!("{name}::sync"),
                            res(cpu),
                            spec.gpu_wait_span() + spec.map_span(),
                            &[ptask],
                            -1,
                            meta_overhead(cpu, Some(id), OverheadClass::Sync, spec.map_span()),
                        );
                        deps.push(sync);
                    }
                    // Accelerator reading CPU-written data: the host must
                    // unmap the region first.
                    (DeviceKind::Gpu | DeviceKind::Npu, Residency::Cpu) => {
                        let unmap = tg.add_with_priority(
                            format!("{name}::unmap"),
                            res(cpu),
                            spec.map_span(),
                            &[ptask],
                            -1,
                            meta_overhead(cpu, Some(id), OverheadClass::Unmap, SimSpan::ZERO),
                        );
                        deps.push(unmap);
                    }
                    // Accelerator reading another accelerator's output:
                    // host-mediated synchronization.
                    (DeviceKind::Gpu | DeviceKind::Npu, Residency::Accel(other))
                        if other != consumer_dev =>
                    {
                        let sync = tg.add_with_priority(
                            format!("{name}::xsync"),
                            res(cpu),
                            spec.gpu_wait_span(),
                            &[ptask],
                            -1,
                            meta_overhead(cpu, Some(id), OverheadClass::Sync, SimSpan::ZERO),
                        );
                        deps.push(sync);
                    }
                    // Same residency: direct dependency — or, when the
                    // producer's output lives on another mesh device, a
                    // dependency on the (shared) transfer chain moving
                    // the whole output to the consumer's device.
                    _ => {
                        if networked && producer_locs[pnode] != consumer_dev {
                            let key = (pnode, consumer_dev.0);
                            let cached = match xfers.get(&key).copied() {
                                Some(t) => Some(t),
                                None => {
                                    let bytes = (shapes[pnode].numel()
                                        * plan.placements[pnode].storage_dtype().size_bytes())
                                        as u64;
                                    let t = transfer_chain(
                                        tg,
                                        spec,
                                        producer_locs[pnode],
                                        consumer_dev,
                                        bytes,
                                        Some(ptask),
                                        &format!("{prefix}{}", graph.nodes()[pnode].name),
                                        Some(id),
                                        instance,
                                    )?;
                                    if let Some(t) = t {
                                        xfers.insert(key, t);
                                    }
                                    t
                                }
                            };
                            deps.push(cached.unwrap_or(ptask));
                        } else {
                            deps.push(ptask);
                        }
                    }
                }
            }
            Ok(deps)
        };

        // The §6 overhead class a node's kernel tasks belong to. A
        // concat's "compute" *is* merge work — it moves branch outputs
        // into the join buffer — so its tasks are accounted to the merge
        // class the overhead attribution exposes.
        let kernel_class = if matches!(node.kind, LayerKind::Concat) {
            OverheadClass::Merge
        } else {
            OverheadClass::Compute
        };

        let is_cpu = |d: DeviceId| spec.devices[d.0].kind == DeviceKind::CpuCluster;
        // Schedules one kernel of this node — the whole layer, or one
        // part of a split (`suffix` tags the part's label) — on `device`
        // and returns `(first task, kernel task)`. A CPU kernel bundles
        // its dispatch and is its own first task; an accelerator kernel
        // is preceded by its asynchronous host-side issue and, when
        // scheduling resiliently, watched by a CPU fallback re-executing
        // `scope`.
        let mut schedule_kernel =
            |tg: &mut TaskGraph<TaskMeta>,
             xfers: &mut std::collections::BTreeMap<(usize, usize), TaskId>,
             device: DeviceId,
             work: KernelWork,
             suffix: &str,
             scope: FallbackScope|
             -> Result<(TaskId, TaskId), RunError> {
                let span = spec.kernel_latency(device, &work)?;
                // `{name}@{KIND}{suffix}`, joined by hand: it is the one
                // string built per kernel of every run, and `format!` with
                // three arguments costs twice the join.
                let kind = spec.devices[device.0].kind.name();
                let label = || [name.as_str(), "@", kind, suffix].concat();
                let meta = |device: DeviceId, class: OverheadClass| TaskMeta {
                    device,
                    work,
                    node: Some(id),
                    class,
                    map: SimSpan::ZERO,
                    instance,
                };
                if is_cpu(device) {
                    let deps = deps_for(tg, xfers, device)?;
                    let k = tg.add(
                        label(),
                        res(device),
                        span + spec.cpu_dispatch_span(),
                        &deps,
                        meta(device, kernel_class),
                    );
                    return Ok((k, k));
                }
                let issue = tg.add_with_priority(
                    format!("{name}::issue"),
                    res(cpu),
                    spec.gpu_issue_span(),
                    &issue_gate,
                    -1,
                    meta_overhead(cpu, Some(id), OverheadClass::Issue, SimSpan::ZERO),
                );
                let mut deps = deps_for(tg, xfers, device)?;
                deps.push(issue);
                let k = tg.add(
                    label(),
                    res(device),
                    span,
                    &deps,
                    meta(device, kernel_class),
                );
                if resilient {
                    let fb_span = spec.kernel_latency(cpu, &work)?
                        + spec.gpu_wait_span()
                        + spec.map_span()
                        + spec.cpu_dispatch_span();
                    let fb = tg.add_fallback(
                        format!("{name}::fallback@CPU{suffix}"),
                        res(cpu),
                        fb_span,
                        k,
                        meta(cpu, OverheadClass::Fallback),
                    );
                    fallbacks.push(FallbackPart {
                        node: id,
                        scope,
                        from: device,
                        to: cpu,
                        primary: k,
                        fallback: fb,
                    });
                }
                Ok((issue, k))
            };

        let placement = &plan.placements[i];
        let (final_task, residency, first_task, loc) = if plan.elided_concats.contains(&i) {
            // Elided concat: the branches already wrote their channel
            // ranges into the join buffer, so the merge is a zero-span
            // synchronization point. Residency crossings of the branch
            // outputs (accelerator queues the host must still wait for)
            // are preserved by the dependency builder.
            let deps = deps_for(tg, &mut xfers, cpu)?;
            let t = tg.add_with_priority(
                format!("{name}::elided"),
                res(cpu),
                SimSpan::ZERO,
                &deps,
                -1,
                meta_overhead(cpu, Some(id), OverheadClass::Merge, SimSpan::ZERO),
            );
            (t, Residency::Cpu, t, cpu)
        } else {
            match placement {
                NodePlacement::Single { device, dtypes } => {
                    let work = layer_work(&node.kind, &in_shape, &out_shape, *dtypes, 1.0);
                    let (first, k) = schedule_kernel(
                        tg,
                        &mut xfers,
                        *device,
                        work,
                        "",
                        FallbackScope::WholeNode,
                    )?;
                    let residency = if is_cpu(*device) {
                        memory.map(out_buf, MapMode::WriteInvalidate)?;
                        memory.unmap(out_buf)?;
                        Residency::Cpu
                    } else {
                        Residency::Accel(*device)
                    };
                    (k, residency, first, *device)
                }
                NodePlacement::Split { parts: nominal } => {
                    // Cost what each processor *actually* executes: the
                    // realized whole-channel shares, not the nominal
                    // fractions the functional evaluator would round anyway.
                    let parts =
                        placement
                            .realized_parts(&node.kind, &in_shape)
                            .ok_or_else(|| {
                                RunError::MalformedPlan(format!(
                                    "split placement of {} cannot be realized for input shape {:?}",
                                    node.name, in_shape
                                ))
                            })?;
                    // Channel ranges of each part, from the *nominal*
                    // fractions — exactly the cuts the functional evaluator
                    // uses, so a fallback re-executes precisely the channels
                    // the failed part owned.
                    let channels = split_channel_count(&node.kind, &in_shape).unwrap_or(0);
                    let nominal_fracs: Vec<f64> = nominal.iter().map(|p| p.2).collect();
                    let cuts = split_cuts(channels, &nominal_fracs);
                    let mut part_tasks = Vec::with_capacity(parts.len());
                    let mut any_accel = false;
                    let mut first: Option<TaskId> = None;
                    // §6 ordering: issue the asynchronous accelerator commands
                    // (and any unmap they need) *before* starting the CPU-side
                    // work, so the accelerator parts overlap the CPU part
                    // instead of queuing behind it on the host timeline.
                    let ordered = parts
                        .iter()
                        .enumerate()
                        .filter(|(_, p)| !is_cpu(p.0))
                        .chain(parts.iter().enumerate().filter(|(_, p)| is_cpu(p.0)));
                    for (pi, &(device, dtypes, frac)) in ordered {
                        if frac == 0.0 {
                            // Zero realized channels: the part executes no
                            // kernel, so it must not pay issue/merge-wait
                            // overheads either.
                            continue;
                        }
                        let work = layer_work(&node.kind, &in_shape, &out_shape, dtypes, frac);
                        let (lo, hi) = if pi + 1 < cuts.len() {
                            (cuts[pi], cuts[pi + 1])
                        } else {
                            (0, 0)
                        };
                        let (first_task, k) = schedule_kernel(
                            tg,
                            &mut xfers,
                            device,
                            work,
                            &format!("[{frac:.2}]"),
                            FallbackScope::Channels { index: pi, lo, hi },
                        )?;
                        first.get_or_insert(first_task);
                        any_accel |= !is_cpu(device);
                        // A remote part's partial output must cross
                        // back to the host before the merge.
                        if networked && is_cpu(device) && device != cpu {
                            let t = transfer_chain(
                                tg,
                                spec,
                                device,
                                cpu,
                                work.bytes_out,
                                Some(k),
                                &format!("{name}[{frac:.2}]"),
                                Some(id),
                                instance,
                            )?;
                            part_tasks.push(t.unwrap_or(k));
                        } else {
                            part_tasks.push(k);
                        }
                    }
                    // Merge: the host waits for the accelerator parts and maps
                    // the (already channel-interleaved, zero-copy) output.
                    let (merge_span, merge_map) = if any_accel {
                        (spec.gpu_wait_span() + spec.map_span(), spec.map_span())
                    } else {
                        (spec.cpu_dispatch_span(), SimSpan::ZERO)
                    };
                    memory.map(out_buf, MapMode::Read)?;
                    memory.unmap(out_buf)?;
                    let merge = tg.add_with_priority(
                        format!("{name}::merge"),
                        res(cpu),
                        merge_span,
                        &part_tasks,
                        -1,
                        meta_overhead(cpu, Some(id), OverheadClass::Merge, merge_map),
                    );
                    (merge, Residency::Cpu, first.unwrap_or(merge), cpu)
                }
            }
        };
        producers.push((final_task, residency));
        node_first_task.push(first_task);
        producer_locs.push(loc);
    }

    // The inference completes when the designated output is CPU-visible:
    // if its result lives on an accelerator, the host pays one final sync.
    if producers.is_empty() {
        return Err(RunError::Tensor(TensorError::BadConcat(
            "cannot execute an empty graph".into(),
        )));
    }
    let completion = match producers[graph.output().0] {
        (last, Residency::Accel(_)) => tg.add_with_priority(
            format!("{prefix}final::sync"),
            res(cpu),
            spec.gpu_wait_span() + spec.map_span(),
            &[last],
            -1,
            meta_overhead(cpu, None, OverheadClass::Sync, spec.map_span()),
        ),
        (last, Residency::Cpu) => last,
    };
    // A remote output must cross back to the host before the inference
    // counts as complete.
    let out = graph.output().0;
    let completion = if networked && producer_locs[out] != cpu {
        let bytes =
            (shapes[out].numel() * plan.placements[out].storage_dtype().size_bytes()) as u64;
        transfer_chain(
            tg,
            spec,
            producer_locs[out],
            cpu,
            bytes,
            Some(completion),
            &format!("{prefix}final"),
            None,
            instance,
        )?
        .unwrap_or(completion)
    } else {
        completion
    };

    Ok(InstanceTasks {
        producers,
        node_first_task,
        completion,
    })
}

/// Executes `plan` over `graph` on `spec`, returning timing and energy:
/// [`execute_plan_with_faults`] under the empty fault plan.
///
/// This is the *timing* half of the co-simulation; numeric evaluation of
/// the same plan lives in `crate::functional` and shares the plan
/// semantics.
pub fn execute_plan(
    spec: &SocSpec,
    graph: &Graph,
    plan: &ExecutionPlan,
) -> Result<RunResult, RunError> {
    execute_plan_with_faults(
        spec,
        graph,
        plan,
        &FaultPlan::none(),
        &RetryPolicy::default(),
    )
    .map(|(result, _)| result)
}

/// Executes one inference of `plan`, realizing the perturbations of
/// `faults` with watchdog/retry/fallback recovery:
///
/// - transient task failures are retried with bounded exponential backoff
///   (`policy`), each failed attempt costing its full predicted span (the
///   watchdog timeout);
/// - a task that fails permanently — retries exhausted, or its device
///   lost — is recovered by re-executing exactly its output channels on
///   the CPU (fallbacks are pre-registered for every accelerator kernel
///   when the fault plan is non-empty, and skipped for free otherwise);
/// - an unrecoverable failure (a CPU task failing with no fallback)
///   surfaces as [`RunError::Unrecoverable`].
///
/// With an empty `faults` no fallback tasks are registered and nothing is
/// perturbed: that schedule is what [`execute_plan`] returns.
pub fn execute_plan_with_faults(
    spec: &SocSpec,
    graph: &Graph,
    plan: &ExecutionPlan,
    faults: &FaultPlan,
    policy: &RetryPolicy,
) -> Result<(RunResult, FaultReport), RunError> {
    plan.validate_for(graph, spec)
        .map_err(RunError::MalformedPlan)?;
    let shapes = graph.infer_shapes()?;
    let (inst, run) = realize(spec, false, faults, policy, |sched| {
        alloc_weight_buffers(&mut sched.memory, graph, &shapes, plan);
        let resilient = !faults.is_empty();
        schedule_instance(sched, spec, graph, &shapes, plan, "", None, 0, resilient)
    })?;
    let node_spans: Vec<(SimTime, SimTime)> = (0..graph.len())
        .map(|i| {
            (
                run.trace.start_of(inst.node_first_task[i]),
                run.trace.end_of(inst.producers[i].0),
            )
        })
        .collect();
    Ok((
        RunResult {
            label: plan.label.clone(),
            latency: run.trace.makespan(),
            energy: run.energy,
            trace: run.trace,
            resource_names: run.resource_names,
            node_spans,
            memory: run.memory,
            metrics: run.metrics,
            attribution: run.attribution,
        },
        run.report,
    ))
}

/// Everything one realized schedule yields, whichever projection
/// ([`RunResult`] or [`crate::PipelineResult`]) it is reported through.
pub(crate) struct RealizedRun {
    pub trace: Trace<TaskMeta>,
    pub energy: EnergyBreakdown,
    pub resource_names: Vec<String>,
    pub memory: MemoryStats,
    pub metrics: MetricsRegistry,
    pub attribution: Attribution,
    pub report: FaultReport,
}

/// The one run body: registers the spec's resources, lets `schedule`
/// build the task graph, runs it under `faults`, checks that every
/// failure was recovered, and accounts energy, attribution and metrics.
///
/// Resources are the devices, then — on networked specs — the links at
/// `ResourceId(ndev + link_index)`, then, with `source` set, a virtual
/// arrival source (the camera / microphone delivering a stream's inputs;
/// it is not a processor and consumes no energy). `schedule` builds the
/// instances into the [`Schedule`] and returns whatever its projection
/// needs from them.
pub(crate) fn realize<T>(
    spec: &SocSpec,
    source: bool,
    faults: &FaultPlan,
    policy: &RetryPolicy,
    schedule: impl FnOnce(&mut Schedule) -> Result<T, RunError>,
) -> Result<(T, RealizedRun), RunError> {
    let mut resource_names: Vec<String> = spec.devices.iter().map(|d| d.name.clone()).collect();
    if spec.has_network_links() {
        resource_names.extend(spec.links.iter().map(|l| l.resource_name()));
    }
    if source {
        resource_names.push("source".to_string());
    }
    let mut pool = ResourcePool::new();
    for name in &resource_names {
        pool.add(name.clone());
    }
    let mut sched = Schedule {
        tg: TaskGraph::new(),
        memory: SharedMemory::new(),
        fallbacks: Vec::new(),
        source: source.then(|| simcore::ResourceId(resource_names.len() - 1)),
    };
    let state = schedule(&mut sched)?;
    let Schedule {
        tg,
        memory,
        fallbacks,
        source,
    } = sched;

    let (trace, sched, log) = tg.run(&mut pool, faults, policy)?;
    check_recovered(&trace, &log)?;
    let report = fault_report(&log, &fallbacks);

    // Link time is not processor time: transfers burn no device energy
    // (there is no link power model yet), and neither do arrivals.
    // Failed-then-retried attempts occupied real device time the trace
    // does not show; they burn energy all the same.
    let mut energy = EnergyAccumulator::new(spec);
    let attempts = trace
        .records()
        .iter()
        .filter(|rec| Some(rec.resource) != source)
        .map(|rec| (&rec.payload, rec.span()))
        .chain(log.wasted.iter().map(|attempt| {
            (
                &trace.records()[attempt.task.0].payload,
                attempt.end - attempt.start,
            )
        }));
    for (meta, span) in attempts {
        if meta.class != OverheadClass::Transfer {
            energy.add_task(meta.device, span, meta.work.total_bytes())?;
        }
    }
    let energy = energy.finish(trace.makespan());

    let attribution = attribute(&trace, &resource_names, spec);
    let stats = memory.stats();
    let mut metrics = MetricsRegistry::new();
    fill_run_metrics(&mut metrics, &trace, &sched, &stats, &energy);
    if !faults.is_empty() {
        metrics.inc("fault.injected", report.injected);
        metrics.inc("task.retries", report.retries);
        metrics.inc("fallback.parts", report.fallbacks.len() as u64);
    }
    Ok((
        state,
        RealizedRun {
            trace,
            energy,
            resource_names,
            memory: stats,
            metrics,
            attribution,
            report,
        },
    ))
}

/// Maps permanently-failed tasks without a successful fallback to
/// [`RunError::Unrecoverable`].
fn check_recovered(trace: &Trace<TaskMeta>, log: &FaultLog) -> Result<(), RunError> {
    if log.unrecovered.is_empty() {
        return Ok(());
    }
    let labels: Vec<&str> = log
        .unrecovered
        .iter()
        .map(|t| trace.records()[t.0].label.as_str())
        .collect();
    Err(RunError::Unrecoverable(format!(
        "{} task(s) failed with no usable fallback: {}",
        labels.len(),
        labels.join(", ")
    )))
}

/// Builds the run's [`FaultReport`]: scheduler fault counters plus the
/// fallbacks that actually executed, in completion order.
fn fault_report(log: &FaultLog, registered: &[FallbackPart]) -> FaultReport {
    let fallbacks = log
        .recovered
        .iter()
        .filter_map(|t| registered.iter().find(|f| f.fallback == *t).copied())
        .collect();
    FaultReport {
        injected: log.injected,
        retries: log.retries,
        throttled: log.throttled,
        wasted: log.wasted.clone(),
        fallbacks,
    }
}

/// Fills the counters every executor reports: scheduler statistics,
/// per-class task counts, memory high-water marks, and energy.
fn fill_run_metrics(
    metrics: &mut MetricsRegistry,
    trace: &Trace<TaskMeta>,
    sched: &simcore::SchedStats,
    stats: &MemoryStats,
    energy: &EnergyBreakdown,
) {
    metrics.inc("sched.tasks", sched.tasks as u64);
    metrics.counter_max("sched.peak_queue_depth", sched.peak_queue_depth as u64);
    for rec in trace.records() {
        if rec.payload.class == OverheadClass::Fallback && rec.span().is_zero() {
            // A skipped fallback is a bookkeeping record, not a task that
            // ran; `tasks.fallback` counts executed recoveries only.
            continue;
        }
        metrics.inc(&format!("tasks.{}", rec.payload.class.name()), 1);
    }
    metrics.counter_max("memory.peak_bytes", stats.peak_bytes as u64);
    metrics.inc("memory.allocations", stats.allocations as u64);
    metrics.inc("memory.copied_bytes", stats.copied_bytes as u64);
    metrics.gauge("latency.ms", trace.makespan().as_millis_f64());
    metrics.gauge("energy.total_mj", energy.total_mj());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::NodePlacement;
    use unn::LayerKind;
    use usoc::DtypePlan;
    use utensor::{DType, Shape};

    fn two_conv_graph() -> Graph {
        // Large enough that cooperative splitting clearly amortizes the
        // CPU-GPU synchronization overheads.
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

    fn single_plan(g: &Graph, spec: &SocSpec, dev: DeviceId, dtype: DType) -> ExecutionPlan {
        ExecutionPlan::new(
            g,
            spec,
            (0..g.len())
                .map(|_| NodePlacement::single(dev, dtype))
                .collect(),
            "test",
        )
        .unwrap()
    }

    #[test]
    fn cpu_only_runs_serially() {
        let spec = SocSpec::exynos_7420();
        let g = two_conv_graph();
        let plan = single_plan(&g, &spec, spec.cpu(), DType::F32);
        let r = execute_plan(&spec, &g, &plan).unwrap();
        // Two kernels, no GPU tasks.
        assert!(r
            .trace
            .records()
            .iter()
            .all(|t| t.payload.device == spec.cpu()));
        assert!(r.latency > SimSpan::ZERO);
        // Node spans are ordered.
        assert!(r.node_spans[0].1 <= r.node_spans[1].0);
    }

    #[test]
    fn gpu_only_pays_final_sync() {
        let spec = SocSpec::exynos_7420();
        let g = two_conv_graph();
        let cpu_r =
            execute_plan(&spec, &g, &single_plan(&g, &spec, spec.cpu(), DType::F32)).unwrap();
        let gpu_r =
            execute_plan(&spec, &g, &single_plan(&g, &spec, spec.gpu(), DType::F32)).unwrap();
        // GPU is 1.4x faster at F32 on the high-end SoC; even with issue
        // and sync overheads it wins on these large layers.
        assert!(gpu_r.latency < cpu_r.latency);
        // There is a final sync task on the CPU.
        assert!(gpu_r
            .trace
            .records()
            .iter()
            .any(|t| t.label == "final::sync"));
    }

    #[test]
    fn split_beats_both_singles_on_big_layers() {
        // The headline §3 result: cooperative execution of a large conv
        // beats either processor alone.
        let spec = SocSpec::exynos_7420();
        let g = two_conv_graph();
        let cpu_lat = execute_plan(
            &spec,
            &g,
            &single_plan(&g, &spec, spec.cpu(), DType::QUInt8),
        )
        .unwrap()
        .latency;
        let mk_split = || NodePlacement::Split {
            parts: vec![
                (spec.cpu(), DtypePlan::proc_friendly_cpu(), 0.5),
                (spec.gpu(), DtypePlan::proc_friendly_gpu(), 0.5),
            ],
        };
        let plan = ExecutionPlan::new(&g, &spec, vec![mk_split(), mk_split()], "coop").unwrap();
        let coop = execute_plan(&spec, &g, &plan).unwrap();
        assert!(
            coop.latency < cpu_lat,
            "coop {} !< cpu {}",
            coop.latency,
            cpu_lat
        );
        // Both devices did real work.
        let busy = coop.trace.busy_per_resource();
        assert_eq!(busy.len(), 2);
    }

    #[test]
    fn issue_overlaps_with_cpu_work() {
        // In a split layer, the GPU issue happens while (or before) the
        // CPU computes its part — the issue must not serialize after it.
        let spec = SocSpec::exynos_7420();
        let g = two_conv_graph();
        let mk_split = || NodePlacement::Split {
            parts: vec![
                (spec.cpu(), DtypePlan::proc_friendly_cpu(), 0.5),
                (spec.gpu(), DtypePlan::proc_friendly_gpu(), 0.5),
            ],
        };
        let plan = ExecutionPlan::new(&g, &spec, vec![mk_split(), mk_split()], "coop").unwrap();
        let r = execute_plan(&spec, &g, &plan).unwrap();
        let recs = r.trace.records();
        let issue_start = recs
            .iter()
            .filter(|t| t.label.contains("conv_a::issue"))
            .map(|t| t.start)
            .min()
            .unwrap();
        let cpu_kernel = recs
            .iter()
            .find(|t| t.label.starts_with("conv_a@CPU"))
            .unwrap();
        assert!(issue_start <= cpu_kernel.start);
    }

    #[test]
    fn cross_device_transitions_insert_sync_tasks() {
        let spec = SocSpec::exynos_7420();
        let g = two_conv_graph();
        // Layer 0 on GPU, layer 1 on CPU: the CPU consumer must sync.
        let plan = ExecutionPlan::new(
            &g,
            &spec,
            vec![
                NodePlacement::single(spec.gpu(), DType::F32),
                NodePlacement::single(spec.cpu(), DType::F32),
            ],
            "mixed",
        )
        .unwrap();
        let r = execute_plan(&spec, &g, &plan).unwrap();
        assert!(r.trace.records().iter().any(|t| t.label == "conv_b::sync"));
        // And the reverse direction needs an unmap.
        let plan = ExecutionPlan::new(
            &g,
            &spec,
            vec![
                NodePlacement::single(spec.cpu(), DType::F32),
                NodePlacement::single(spec.gpu(), DType::F32),
            ],
            "mixed2",
        )
        .unwrap();
        let r = execute_plan(&spec, &g, &plan).unwrap();
        assert!(r.trace.records().iter().any(|t| t.label == "conv_b::unmap"));
    }

    #[test]
    fn energy_accounts_all_tasks() {
        let spec = SocSpec::exynos_7420();
        let g = two_conv_graph();
        let r = execute_plan(
            &spec,
            &g,
            &single_plan(&g, &spec, spec.cpu(), DType::QUInt8),
        )
        .unwrap();
        assert!(r.energy.total_j() > 0.0);
        assert!(r.energy.static_j > 0.0);
        assert!(r.energy.dram_j > 0.0);
    }

    #[test]
    fn memory_is_zero_copy() {
        let spec = SocSpec::exynos_7420();
        let g = two_conv_graph();
        let r = execute_plan(
            &spec,
            &g,
            &single_plan(&g, &spec, spec.cpu(), DType::QUInt8),
        )
        .unwrap();
        assert_eq!(r.memory.copied_bytes, 0);
        assert!(r.memory.peak_bytes > 0);
        assert!(r.memory.allocations >= g.len());
    }

    #[test]
    fn node_spans_are_consistent() {
        let spec = SocSpec::exynos_7420();
        let g = two_conv_graph();
        let r = execute_plan(&spec, &g, &single_plan(&g, &spec, spec.gpu(), DType::F16)).unwrap();
        assert_eq!(r.node_spans.len(), g.len());
        for (start, end) in &r.node_spans {
            assert!(start <= end);
        }
        // Data dependence: node 1 finishes after node 0.
        assert!(r.node_spans[1].1 >= r.node_spans[0].1);
    }

    #[test]
    fn accelerator_to_accelerator_crossing_syncs_via_host() {
        // GPU -> NPU handoff must insert a host-mediated xsync task.
        let spec = SocSpec::exynos_7420().with_npu();
        let npu = spec.find(usoc::DeviceKind::Npu).unwrap();
        let g = two_conv_graph();
        let plan = ExecutionPlan::new(
            &g,
            &spec,
            vec![
                NodePlacement::single(spec.gpu(), DType::QUInt8),
                NodePlacement::single(npu, DType::QUInt8),
            ],
            "gpu-npu",
        )
        .unwrap();
        let r = execute_plan(&spec, &g, &plan).unwrap();
        assert!(r
            .trace
            .records()
            .iter()
            .any(|t| t.label.ends_with("::xsync")));
        // The NPU actually ran its kernel.
        assert!(r
            .trace
            .records()
            .iter()
            .any(|t| t.payload.device == npu && t.payload.work.macs > 0));
    }

    #[test]
    fn quint8_plan_moves_fewer_bytes_than_f32() {
        let spec = SocSpec::exynos_7420();
        let g = two_conv_graph();
        let f32_r =
            execute_plan(&spec, &g, &single_plan(&g, &spec, spec.cpu(), DType::F32)).unwrap();
        let q_r = execute_plan(
            &spec,
            &g,
            &single_plan(&g, &spec, spec.cpu(), DType::QUInt8),
        )
        .unwrap();
        let bytes = |r: &RunResult| -> u64 {
            r.trace
                .records()
                .iter()
                .map(|t| t.payload.work.total_bytes())
                .sum()
        };
        assert_eq!(bytes(&f32_r), 4 * bytes(&q_r));
    }
}
