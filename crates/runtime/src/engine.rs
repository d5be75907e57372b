//! The scheduling engine: executes an [`ExecutionPlan`] on a simulated
//! SoC, producing latency, a task trace, energy, and buffer memory.
//! It schedules from the plan's lowering, a [`PlanLayout`]: the realized
//! share each part is costed at, the channel range each fallback
//! recomputes and the buffer each node writes are the layout's, the same
//! the functional evaluator computes.
//!
//! The engine realizes the §6 runtime behaviours for *any* mechanism:
//!
//! - **Asynchronous GPU command issue** — every GPU kernel is preceded by
//!   a host-side issue task with no dependencies, so issuing overlaps
//!   with CPU work exactly as the paper's framework arranges.
//! - **Zero-copy shared memory** — tensors are never copied between
//!   processors; crossing the CPU↔GPU boundary costs only map/unmap and
//!   completion-wait tasks on the host timeline. The buffers a run holds
//!   ([`MemoryStats`]) are summed from the layout: each node's output
//!   buffer and each part's weights, allocated once and never freed.
//! - **Cooperative merge** — a split layer's partial outputs join at a
//!   host-side merge task that synchronizes with the GPU and maps the
//!   output region.
//! - **In-place joins** — an elided concat runs no kernel: its branches
//!   already wrote the join buffer. When every branch resides on one
//!   accelerator the join stays resident there and schedules no task, so
//!   a consumer on that accelerator waits for the branch kernels directly
//!   and a host consumer pays one sync for the whole join. Otherwise
//!   (host-resident or mixed branches) it is a zero-span merge point on
//!   the host, after the syncs its accelerator branches need.

use std::ops::Range;

use simcore::{
    AttemptRecord, FaultLog, FaultPlan, RetryPolicy, SimSpan, SimTime, TaskGraph, TaskId, Trace,
};
use usoc::{
    layer_work, DeviceId, DeviceKind, EnergyAccumulator, EnergyBreakdown, KernelWork, SocError,
    SocSpec,
};
use utensor::TensorError;

use unn::{Graph, LayerKind, NodeId};

use crate::layout::{PartLayout, PlanLayout};
use crate::metrics::MetricsRegistry;
use crate::observe::{attribute, Attribution, OverheadClass};
use crate::plan::ExecutionPlan;

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
    /// The plan is inconsistent with the graph or the spec (e.g. a split
    /// on a layer that cannot be distributed, or a device the host cannot
    /// reach).
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
    /// The run's buffer memory, from the plan's layout.
    pub memory: MemoryStats,
    /// Scheduler/memory/energy counters collected during the run.
    pub metrics: MetricsRegistry,
    /// Overhead attribution of the schedule (classes tile the makespan).
    pub attribution: Attribution,
}

/// The buffers one run holds, summed from its [`PlanLayout`]: one
/// zero-copy output buffer per distinct [`NodeLayout::buffer`] and one
/// long-lived weight buffer (uploaded at plan load, outside the latency
/// window, per §6) per part of every layer with weights, an empty part's
/// of zero bytes. Nothing is freed during a run, so the peak is the sum.
///
/// [`NodeLayout::buffer`]: crate::NodeLayout::buffer
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Buffers allocated.
    pub allocations: usize,
    /// High-water mark of allocated bytes.
    pub peak_bytes: usize,
}

impl MemoryStats {
    fn of(layout: &PlanLayout) -> MemoryStats {
        let outputs = (layout.nodes.iter().enumerate())
            .filter(|(i, n)| n.buffer.0 == *i)
            .map(|(_, n)| n.buffer_bytes);
        let weights = (layout.nodes.iter())
            .filter(|n| n.parts.iter().any(|p| p.weight_elems > 0))
            .flat_map(|n| &n.parts)
            .map(|p| p.weight_elems * p.dtypes.weights.size_bytes());
        let mut stats = MemoryStats::default();
        for bytes in outputs.chain(weights) {
            stats.allocations += 1;
            stats.peak_bytes += bytes;
        }
        stats
    }
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
        self.trace.render_gantt(&names)
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
/// [`crate::SimulatedBackend::fallbacks`]).
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

/// The tasks created for one inference.
struct InstanceTasks {
    /// Per node: the tasks after which its output exists, as a range of
    /// `outputs`, and where the output resides. The range holds one task,
    /// or the branch kernels of a join that stays on their accelerator.
    producers: Vec<(Range<usize>, Residency)>,
    /// The producing tasks `producers` ranges over.
    outputs: Vec<TaskId>,
    /// Per node: the first task belonging to the node (an accelerator
    /// join's first branch's).
    node_first_task: Vec<TaskId>,
}

/// Transfer chains of one inference by (data, destination device).
type Xfers = std::collections::BTreeMap<(usize, usize), TaskId>;

/// Schedules the store-and-forward hop tasks moving `bytes` from device
/// `from` to device `to` over the spec's network links once `src` has
/// ended, returning the last hop (`None` when the route has no hops).
/// Each hop occupies its link's timeline — `ResourceId(ndev +
/// link_index)`, the convention every executor that registers link
/// resources follows — for the link's serial transfer span.
fn transfer_chain(
    tg: &mut TaskGraph<TaskMeta>,
    spec: &SocSpec,
    (from, to): (DeviceId, DeviceId),
    bytes: u64,
    src: &[TaskId],
    label: &str,
    node: Option<NodeId>,
) -> Result<Option<TaskId>, RunError> {
    let route = spec.route(from, to).ok_or_else(|| {
        RunError::MalformedPlan(format!(
            "no route from dev#{} to dev#{} for {label}",
            from.0, to.0
        ))
    })?;
    let ndev = spec.devices.len();
    let mut prev = None;
    let mut at = from;
    for (hop, li) in route.iter().enumerate() {
        let link = &spec.links[*li];
        let next = link.other_end(at).expect("route hops are incident");
        let deps = prev.as_ref().map_or(src, std::slice::from_ref);
        let t = tg.add(
            format!("{label}::xfer#{hop}[{}-{}]", at.0, next.0),
            simcore::ResourceId(ndev + *li),
            link.link.transfer_span(bytes),
            deps,
            TaskMeta {
                device: at,
                work: KernelWork::nop(),
                node,
                class: OverheadClass::Transfer,
                map: SimSpan::ZERO,
            },
        );
        prev = Some(t);
        at = next;
    }
    Ok(prev)
}

/// Builds the task DAG of one inference of the lowered plan `layout`
/// into `tg`.
///
/// With `resilient` set, every accelerator kernel gets a registered CPU
/// fallback ([`TaskGraph::add_fallback`]) sized as the CPU latency of the
/// same work plus the salvage overhead (queue wait + map + dispatch),
/// recorded in `fallbacks`; fallbacks are skipped for free when the
/// primary succeeds.
fn schedule_instance(
    tg: &mut TaskGraph<TaskMeta>,
    fallbacks: &mut Vec<FallbackPart>,
    spec: &SocSpec,
    graph: &Graph,
    layout: &PlanLayout,
    resilient: bool,
) -> Result<InstanceTasks, RunError> {
    let cpu = spec.cpu();
    let networked = spec.has_network_links();
    let elem_bytes = layout.storage.size_bytes();
    // Transfer chains already scheduled, keyed by (producer node —
    // usize::MAX for the input frame — and destination device), so two
    // consumers on one device share the same transfer.
    let mut xfers = Xfers::new();
    let res = |d: DeviceId| simcore::ResourceId(d.0);
    let meta_overhead =
        |device: DeviceId, node: Option<NodeId>, class: OverheadClass, map: SimSpan| TaskMeta {
            device,
            work: KernelWork::nop(),
            node,
            class,
            map,
        };

    // Per node: the tasks after which its output exists (a range of
    // `outputs`), and where that output resides.
    let mut producers: Vec<(Range<usize>, Residency)> = Vec::with_capacity(graph.len());
    let mut outputs: Vec<TaskId> = Vec::with_capacity(graph.len());
    let mut node_first_task: Vec<TaskId> = Vec::with_capacity(graph.len());
    // Per node: the device holding the node's output (for networked
    // specs; a split's merged output lives on the host).
    let mut producer_locs: Vec<DeviceId> = Vec::with_capacity(graph.len());

    for (i, (node, nl)) in graph.nodes().iter().zip(&layout.nodes).enumerate() {
        let id = NodeId(i);
        let name = &node.name;

        // An elided concat whose branches all reside on one accelerator
        // stays resident there: it schedules nothing, and its output
        // exists once its branches' kernels have ended.
        let resident = |d: &NodeId| producers[d.0].1;
        let on_one_accel = match node.inputs.first().map(resident) {
            Some(r @ Residency::Accel(_)) if nl.elided => {
                node.inputs.iter().all(|d| resident(d) == r).then_some(r)
            }
            _ => None,
        };
        if let Some(r @ Residency::Accel(dev)) = on_one_accel {
            let start = outputs.len();
            for d in &node.inputs {
                outputs.extend_from_within(producers[d.0].0.clone());
            }
            producers.push((start..outputs.len(), r));
            node_first_task.push(node_first_task[node.inputs[0].0]);
            producer_locs.push(dev);
            continue;
        }

        // Builds the dependency list for a consumer on `consumer_dev`:
        // the producers of each input, adjusted for residency crossings
        // by host-side sync/map tasks — and, on networked specs,
        // store-and-forward link transfers.
        let deps_for = |tg: &mut TaskGraph<TaskMeta>,
                        xfers: &mut Xfers,
                        consumer_dev: DeviceId|
         -> Result<Vec<TaskId>, RunError> {
            let consumer_kind = spec.devices[consumer_dev.0].kind;
            let mut deps = Vec::with_capacity(node.inputs.len() + 1);
            // The transfer chain moving `bytes` of `data` (a producer
            // node, or usize::MAX for the input frame) from `from` to the
            // consumer's device, scheduled once and shared.
            let mut shared_xfer = |tg: &mut TaskGraph<TaskMeta>,
                                   data: usize,
                                   from: DeviceId,
                                   bytes: usize,
                                   src: &[TaskId],
                                   label: &dyn Fn() -> String|
             -> Result<Option<TaskId>, RunError> {
                let key = (data, consumer_dev.0);
                if let Some(&t) = xfers.get(&key) {
                    return Ok(Some(t));
                }
                let t = transfer_chain(
                    tg,
                    spec,
                    (from, consumer_dev),
                    bytes as u64,
                    src,
                    &label(),
                    Some(id),
                )?;
                if let Some(t) = t {
                    xfers.insert(key, t);
                }
                Ok(t)
            };
            if node.inputs.is_empty() {
                // The input frame arrives at the host; a remote source
                // layer waits for the frame to cross the mesh instead.
                if networked && consumer_dev != cpu {
                    let bytes = nl.input.numel() * elem_bytes;
                    let label = || "input".to_string();
                    deps.extend(shared_xfer(tg, usize::MAX, cpu, bytes, &[], &label)?);
                }
            }
            for &NodeId(pnode) in &node.inputs {
                let (ref tasks, res_where) = producers[pnode];
                let ptasks = &outputs[tasks.clone()];
                match (consumer_kind, res_where) {
                    // CPU reading accelerator output: wait for the queue,
                    // then map the buffer for reading.
                    (DeviceKind::CpuCluster, Residency::Accel(_)) => {
                        let sync = tg.add_with_priority(
                            format!("{name}::sync"),
                            res(cpu),
                            spec.gpu_wait_span() + spec.map_span(),
                            ptasks,
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
                            ptasks,
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
                            ptasks,
                            -1,
                            meta_overhead(cpu, Some(id), OverheadClass::Sync, SimSpan::ZERO),
                        );
                        deps.push(sync);
                    }
                    // Same residency, but the producer's output lives on
                    // another mesh device: depend on the (shared) transfer
                    // chain moving the whole output to the consumer's.
                    _ if networked && producer_locs[pnode] != consumer_dev => {
                        let bytes = layout.nodes[pnode].output.numel() * elem_bytes;
                        let label = || graph.nodes()[pnode].name.clone();
                        let from = producer_locs[pnode];
                        match shared_xfer(tg, pnode, from, bytes, ptasks, &label)? {
                            Some(t) => deps.push(t),
                            None => deps.extend_from_slice(ptasks),
                        }
                    }
                    // Same residency: direct dependency.
                    _ => deps.extend_from_slice(ptasks),
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
        // Schedules the kernel of one part of this node — the whole
        // layer, or one part of a split, costed at the part's realized
        // share and labelled `[share]` — and returns `(first task, kernel
        // task, work)`. A CPU kernel bundles its dispatch and is its own
        // first task; an accelerator kernel is preceded by its
        // asynchronous host-side issue and, when scheduling resiliently,
        // watched by a CPU fallback re-executing the part's channels (a
        // single placement's: the whole node).
        let mut schedule_kernel = |tg: &mut TaskGraph<TaskMeta>,
                                   xfers: &mut Xfers,
                                   part: &PartLayout|
         -> Result<(TaskId, TaskId, KernelWork), RunError> {
            let device = part.device;
            let work = layer_work(&node.kind, &nl.input, &nl.output, part.dtypes, part.share);
            let (suffix, scope) = match &part.range {
                Some((_, r)) if nl.split => (
                    format!("[{:.2}]", part.share),
                    FallbackScope::Channels {
                        index: part.index,
                        lo: r.start,
                        hi: r.end,
                    },
                ),
                _ => (String::new(), FallbackScope::WholeNode),
            };
            let suffix = suffix.as_str();
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
                return Ok((k, k, work));
            }
            let issue = tg.add_with_priority(
                format!("{name}::issue"),
                res(cpu),
                spec.gpu_issue_span(),
                &[],
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
            Ok((issue, k, work))
        };

        let (final_task, residency, first_task, loc) = if nl.elided {
            // Elided concat with host-resident or mixed branches: they
            // already wrote their channel ranges into the join buffer, so
            // the merge is a zero-span synchronization point on the host.
            // Residency crossings of the branch outputs (accelerator
            // queues the host must still wait for) are preserved by the
            // dependency builder.
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
        } else if !nl.split {
            let part = &nl.parts[0];
            let (first, k, _) = schedule_kernel(tg, &mut xfers, part)?;
            let residency = if is_cpu(part.device) {
                Residency::Cpu
            } else {
                Residency::Accel(part.device)
            };
            (k, residency, first, part.device)
        } else {
            // Cost what each processor *actually* executes — the
            // layout's realized whole-channel shares — and register each
            // fallback over the channels the evaluator computes for it.
            let mut part_tasks = Vec::with_capacity(nl.parts.len());
            let mut any_accel = false;
            let mut first: Option<TaskId> = None;
            // §6 ordering: issue the asynchronous accelerator commands
            // (and any unmap they need) *before* starting the CPU-side
            // work, so the accelerator parts overlap the CPU part instead
            // of queuing behind it on the host timeline.
            let ordered = nl
                .running()
                .filter(|p| !is_cpu(p.device))
                .chain(nl.running().filter(|p| is_cpu(p.device)));
            for part in ordered {
                let device = part.device;
                let (first_task, k, work) = schedule_kernel(tg, &mut xfers, part)?;
                first.get_or_insert(first_task);
                any_accel |= !is_cpu(device);
                // A remote part's partial output must cross back to the
                // host before the merge.
                if networked && is_cpu(device) && device != cpu {
                    let t = transfer_chain(
                        tg,
                        spec,
                        (device, cpu),
                        work.bytes_out,
                        &[k],
                        &format!("{name}[{:.2}]", part.share),
                        Some(id),
                    )?;
                    part_tasks.push(t.unwrap_or(k));
                } else {
                    part_tasks.push(k);
                }
            }
            // Merge: the host waits for the accelerator parts and maps the
            // (already channel-interleaved, zero-copy) output.
            let (merge_span, merge_map) = if any_accel {
                (spec.gpu_wait_span() + spec.map_span(), spec.map_span())
            } else {
                (spec.cpu_dispatch_span(), SimSpan::ZERO)
            };
            let merge = tg.add_with_priority(
                format!("{name}::merge"),
                res(cpu),
                merge_span,
                &part_tasks,
                -1,
                meta_overhead(cpu, Some(id), OverheadClass::Merge, merge_map),
            );
            (merge, Residency::Cpu, first.unwrap_or(merge), cpu)
        };
        outputs.push(final_task);
        producers.push((outputs.len() - 1..outputs.len(), residency));
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
    let (ref last, residency) = producers[graph.output().0];
    let completion = match residency {
        Residency::Accel(_) => tg.add_with_priority(
            "final::sync".to_string(),
            res(cpu),
            spec.gpu_wait_span() + spec.map_span(),
            &outputs[last.clone()],
            -1,
            meta_overhead(cpu, None, OverheadClass::Sync, spec.map_span()),
        ),
        // A host-resident output has one producing task.
        Residency::Cpu => outputs[last.start],
    };
    // A remote output must cross back to the host before the inference
    // counts as complete.
    let out = graph.output().0;
    if networked && producer_locs[out] != cpu {
        let bytes = (layout.nodes[out].output.numel() * elem_bytes) as u64;
        let src = [completion];
        transfer_chain(
            tg,
            spec,
            (producer_locs[out], cpu),
            bytes,
            &src,
            "final",
            None,
        )?;
    }

    Ok(InstanceTasks {
        producers,
        outputs,
        node_first_task,
    })
}

/// Executes `plan` over `graph` on `spec`, returning timing and energy:
/// [`execute_plan_with_faults`] under the empty fault plan.
///
/// This is the *timing* half of the co-simulation; numeric evaluation of
/// the same plan lives in `crate::functional` and reads the same
/// [`PlanLayout`].
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
///
/// Resources are the devices, then — on networked specs — the links at
/// `ResourceId(ndev + link_index)`.
pub fn execute_plan_with_faults(
    spec: &SocSpec,
    graph: &Graph,
    plan: &ExecutionPlan,
    faults: &FaultPlan,
    policy: &RetryPolicy,
) -> Result<(RunResult, FaultReport), RunError> {
    let layout = plan.layout(graph).map_err(|e| match e {
        TensorError::BadGraph(msg) => RunError::MalformedPlan(msg),
        e => RunError::Tensor(e),
    })?;
    plan.validate_for(spec).map_err(RunError::MalformedPlan)?;

    let mut resource_names: Vec<String> = spec.devices.iter().map(|d| d.name.clone()).collect();
    if spec.has_network_links() {
        resource_names.extend(spec.links.iter().map(|l| l.resource_name()));
    }
    let mut tg = TaskGraph::new();
    let mut fallbacks = Vec::new();
    let resilient = !faults.is_empty();
    let inst = schedule_instance(&mut tg, &mut fallbacks, spec, graph, &layout, resilient)?;

    let (trace, sched, log) = tg.run(resource_names.len(), faults, policy)?;
    check_recovered(&trace, &log)?;
    let report = fault_report(&log, &fallbacks);

    // Link time is not processor time: transfers burn no device energy
    // (there is no link power model yet). Failed-then-retried attempts
    // occupied real device time the trace does not show; they burn
    // energy all the same.
    let mut energy = EnergyAccumulator::new(spec);
    let attempts = (trace.records().iter())
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
    let memory = MemoryStats::of(&layout);
    let mut metrics = MetricsRegistry::new();
    fill_run_metrics(&mut metrics, &trace, &sched, &memory, &energy);
    if !faults.is_empty() {
        metrics.inc("fault.injected", report.injected);
        metrics.inc("task.retries", report.retries);
        metrics.inc("fallback.parts", report.fallbacks.len() as u64);
    }
    let node_spans: Vec<(SimTime, SimTime)> = (0..graph.len())
        .map(|i| {
            (
                trace.start_of(inst.node_first_task[i]),
                (inst.producers[i].0.clone())
                    .map(|t| trace.end_of(inst.outputs[t]))
                    .max()
                    .expect("every node has a producing task"),
            )
        })
        .collect();
    Ok((
        RunResult {
            label: plan.label.clone(),
            latency: trace.makespan(),
            energy,
            trace,
            resource_names,
            node_spans,
            memory,
            metrics,
            attribution,
        },
        report,
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
    fn accelerator_join_stays_on_the_accelerator() {
        // stem → (a, b) → join → tail, every node on the GPU: the join's
        // branches write the join buffer on the GPU, so nothing crosses
        // to the host between them and the tail.
        let spec = SocSpec::exynos_7420();
        let conv = |oc| LayerKind::Conv {
            oc,
            k: 3,
            stride: 1,
            pad: 1,
            relu: true,
        };
        let mut g = Graph::new("fork", Shape::nchw(1, 16, 28, 28));
        let stem = g.add_input_layer("stem", conv(16));
        let a = g.add("a", conv(32), stem);
        let b = g.add("b", conv(16), stem);
        let join = g.add_multi("join", LayerKind::Concat, &[a, b]);
        let tail = g.add("tail", conv(32), join);
        let plan = single_plan(&g, &spec, spec.gpu(), DType::F16);
        let r = execute_plan(&spec, &g, &plan).unwrap();
        let recs = r.trace.records();
        let crossing = [
            OverheadClass::Sync,
            OverheadClass::Map,
            OverheadClass::Unmap,
            OverheadClass::Merge,
        ];
        assert!(
            !recs.iter().any(
                |t| matches!(t.payload.node, Some(n) if n == join || n == tail)
                    && crossing.contains(&t.payload.class)
            ),
            "a host task sits between the branches and the tail"
        );
        let kernel = |label: &str| recs.iter().find(|t| t.label == label).unwrap();
        let ready = [
            kernel("a@GPU").end,
            kernel("b@GPU").end,
            kernel("tail::issue").end,
        ];
        assert_eq!(kernel("tail@GPU").start, ready.into_iter().max().unwrap());

        // A host consumer pays one sync for the whole join.
        let mut placements = plan.placements.clone();
        placements[tail.0] = NodePlacement::single(spec.cpu(), DType::F16);
        let plan = ExecutionPlan::new(&g, &spec, placements, "host tail").unwrap();
        let r = execute_plan(&spec, &g, &plan).unwrap();
        let syncs = (r.trace.records().iter())
            .filter(|t| t.payload.class == OverheadClass::Sync && t.payload.node.is_some())
            .count();
        assert_eq!(syncs, 1);
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
        // GPU to CPU and back: every crossing is a host sync, map or
        // unmap, never a transfer of the tensor.
        let spec = SocSpec::exynos_7420();
        let g = two_conv_graph();
        for devices in [[spec.gpu(), spec.cpu()], [spec.cpu(), spec.gpu()]] {
            let placements = devices
                .iter()
                .map(|&d| NodePlacement::single(d, DType::QUInt8))
                .collect();
            let plan = ExecutionPlan::new(&g, &spec, placements, "mixed").unwrap();
            let r = execute_plan(&spec, &g, &plan).unwrap();
            assert!(r
                .trace
                .records()
                .iter()
                .all(|t| t.payload.class != OverheadClass::Transfer));
            assert!(r.memory.peak_bytes > 0);
            assert!(r.memory.allocations >= g.len());
        }
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
