//! Dependency-aware task scheduling over simulated resources.
//!
//! A [`TaskGraph`] is a DAG of timed tasks, each bound to one resource.
//! [`TaskGraph::run`] performs an event-driven list scheduling:
//! a task starts as soon as (a) all its dependencies have completed and
//! (b) its resource is free, with ties broken deterministically by ready
//! time and insertion order. The result is a [`Trace`] with the realized
//! start/end instants of every task.
//!
//! This models exactly the execution structure the μLayer runtime produces:
//! asynchronous GPU command issue (an issue task on the host timeline
//! followed by a kernel task on the GPU timeline), CPU work overlapping GPU
//! work, and synchronization points (merge tasks depending on both).

use std::fmt;

use crate::event::EventQueue;
use crate::faults::{AttemptOutcome, AttemptRecord, FaultLog, FaultPlan, RetryPolicy};
use crate::resource::ResourceId;
use crate::time::{SimSpan, SimTime};
use crate::trace::{TaskRecord, Trace};

/// Identifies a task within a [`TaskGraph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TaskId(pub usize);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task#{}", self.0)
    }
}

/// A single timed task bound to a resource.
#[derive(Clone, Debug)]
struct TaskSpec<T> {
    /// Human-readable label (shows up in traces and Gantt charts).
    label: String,
    /// The resource this task occupies while running.
    resource: ResourceId,
    /// How long the task occupies its resource.
    duration: SimSpan,
    /// Tasks that must complete before this one may start.
    deps: Vec<TaskId>,
    /// Dispatch priority among tasks that become ready at the same
    /// instant: lower values are granted their resource first. Use for
    /// short host-side operations (command issues, unmaps) that unblock
    /// other resources.
    priority: i8,
    /// Caller-owned payload carried into the trace (e.g. bytes moved,
    /// FLOPs, a closure result slot).
    payload: T,
}

/// Errors from scheduling a task graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleError {
    /// A task referenced a dependency id that does not exist.
    UnknownDependency {
        /// The task holding the bad reference.
        task: TaskId,
        /// The nonexistent dependency.
        dep: TaskId,
    },
    /// A task referenced a resource id at or above the resource count.
    UnknownResource {
        /// The task holding the bad reference.
        task: TaskId,
        /// The nonexistent resource.
        resource: ResourceId,
    },
    /// The dependency graph contains a cycle.
    Cycle {
        /// Number of tasks that could not be scheduled.
        unscheduled: usize,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::UnknownDependency { task, dep } => {
                write!(f, "{task} depends on nonexistent {dep}")
            }
            ScheduleError::UnknownResource { task, resource } => {
                write!(f, "{task} uses nonexistent {resource}")
            }
            ScheduleError::Cycle { unscheduled } => {
                write!(f, "dependency cycle: {unscheduled} task(s) unschedulable")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Counters collected while scheduling a [`TaskGraph`].
///
/// These feed the runtime's metrics registry; they describe scheduler
/// pressure, not the realized timing (which lives in the [`Trace`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Number of tasks scheduled.
    pub tasks: usize,
    /// High-water mark of the internal event queue (pending ready/done
    /// events), a proxy for how much work was simultaneously in flight.
    pub peak_queue_depth: usize,
}

/// A DAG of timed tasks over a count of resources.
///
/// # Examples
///
/// ```
/// use simcore::{FaultPlan, ResourceId, RetryPolicy, SimSpan, TaskGraph};
///
/// let (cpu, gpu) = (ResourceId(0), ResourceId(1));
///
/// let mut g = TaskGraph::new();
/// let issue = g.add("issue", cpu, SimSpan::from_micros(10), &[], ());
/// let kernel = g.add("kernel", gpu, SimSpan::from_micros(100), &[issue], ());
/// let cpu_work = g.add("cpu-work", cpu, SimSpan::from_micros(80), &[issue], ());
/// let merge = g.add("merge", cpu, SimSpan::from_micros(5), &[kernel, cpu_work], ());
///
/// let (trace, _, _) = g
///     .run(2, &FaultPlan::none(), &RetryPolicy::default())
///     .unwrap();
/// // The GPU kernel and CPU work overlap; the merge waits for both.
/// assert_eq!(trace.end_of(merge).as_nanos(), (10 + 100 + 5) * 1_000);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TaskGraph<T> {
    tasks: Vec<TaskSpec<T>>,
    /// `(primary, fallback)` pairs registered via [`TaskGraph::add_fallback`].
    fallbacks: Vec<(TaskId, TaskId)>,
}

impl<T> TaskGraph<T> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        TaskGraph {
            tasks: Vec::new(),
            fallbacks: Vec::new(),
        }
    }

    /// Adds a task with default (0) priority and returns its id.
    pub fn add(
        &mut self,
        label: impl Into<String>,
        resource: ResourceId,
        duration: SimSpan,
        deps: &[TaskId],
        payload: T,
    ) -> TaskId {
        self.add_with_priority(label, resource, duration, deps, 0, payload)
    }

    /// Adds a task with an explicit dispatch priority (lower = granted
    /// its resource first among simultaneously-ready tasks).
    pub fn add_with_priority(
        &mut self,
        label: impl Into<String>,
        resource: ResourceId,
        duration: SimSpan,
        deps: &[TaskId],
        priority: i8,
        payload: T,
    ) -> TaskId {
        let id = TaskId(self.tasks.len());
        self.tasks.push(TaskSpec {
            label: label.into(),
            resource,
            duration,
            deps: deps.to_vec(),
            priority,
            payload,
        });
        id
    }

    /// Registers a conditional fallback for `primary` and returns its id.
    ///
    /// The fallback depends on its primary, and every task depending on
    /// the primary transparently also waits for the fallback. When the
    /// primary completes successfully the fallback is *skipped*: it keeps
    /// a zero-span record in the trace (so task ids stay stable) and
    /// costs nothing. When the primary fails permanently — retries
    /// exhausted or its device lost — the fallback executes on its own
    /// resource, recovering the work before dependents proceed.
    ///
    /// Fallbacks dispatch at the highest priority (`i8::MIN`): a skipped
    /// fallback resolves before any simultaneously-ready real task, and a
    /// recovering one jumps its resource's queue.
    pub fn add_fallback(
        &mut self,
        label: impl Into<String>,
        resource: ResourceId,
        duration: SimSpan,
        primary: TaskId,
        payload: T,
    ) -> TaskId {
        let id = self.add_with_priority(label, resource, duration, &[primary], i8::MIN, payload);
        self.fallbacks.push((primary, id));
        id
    }

    /// Schedules the graph over resources `0..resources`, consuming the
    /// graph, while realizing the perturbations of `faults`.
    ///
    /// Tasks start as soon as all dependencies are complete and their
    /// resource is free: each resource runs one task at a time, and the
    /// run keeps the instant each becomes free. Beside the trace the run
    /// returns its scheduler-pressure counters and the per-attempt fault
    /// log.
    ///
    /// Fault semantics:
    ///
    /// - A reservation starting inside a throttle window is stretched by
    ///   the window's speed factor.
    /// - A transiently-failed attempt occupies its resource for its full
    ///   (throttle-adjusted) span — the watchdog timeout derived from the
    ///   predicted duration — and is then retried with bounded
    ///   exponential backoff, up to `policy.max_attempts` attempts.
    /// - An attempt overlapping a device loss times out once and fails
    ///   permanently (retrying a dead device is pointless).
    /// - A permanently-failed task still "completes" (its dependents are
    ///   released) so the schedule terminates; its registered fallback —
    ///   see [`TaskGraph::add_fallback`] — executes and recovers the
    ///   work, and tasks without one end up in `FaultLog::unrecovered`
    ///   for the caller to turn into an error.
    ///
    /// The trace records each task's *final* attempt (or the skip instant
    /// for skipped fallbacks, as a zero-span record); earlier failed
    /// attempts are reported in `FaultLog::wasted` since they occupy
    /// resource time that energy accounting must still see. An empty
    /// plan ([`FaultPlan::none`]) perturbs nothing: every duration keeps
    /// its exact nanosecond value and the log stays empty.
    pub fn run(
        self,
        resources: usize,
        faults: &FaultPlan,
        policy: &RetryPolicy,
    ) -> Result<(Trace<T>, SchedStats, FaultLog), ScheduleError> {
        let n = self.tasks.len();
        let max_attempts = policy.max_attempts.max(1);

        // Validate references up front so the event loop can't index OOB.
        for (i, t) in self.tasks.iter().enumerate() {
            for &d in &t.deps {
                if d.0 >= n {
                    return Err(ScheduleError::UnknownDependency {
                        task: TaskId(i),
                        dep: d,
                    });
                }
            }
            if t.resource.0 >= resources {
                return Err(ScheduleError::UnknownResource {
                    task: TaskId(i),
                    resource: t.resource,
                });
            }
        }

        let mut fallback_of: Vec<Option<TaskId>> = vec![None; n];
        let mut primary_of: Vec<Option<TaskId>> = vec![None; n];
        for &(p, f) in &self.fallbacks {
            fallback_of[p.0] = Some(f);
            primary_of[f.0] = Some(p);
        }

        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut indeg = vec![0usize; n];
        for (i, t) in self.tasks.iter().enumerate() {
            indeg[i] = t.deps.len();
            for &d in &t.deps {
                dependents[d.0].push(i);
                // Anything waiting on a primary transparently waits for
                // its fallback too, so recovered outputs are in place
                // before dependents start. (The fallback itself already
                // lists the primary as its dependency.)
                if let Some(f) = fallback_of[d.0] {
                    if f.0 != i {
                        dependents[f.0].push(i);
                        indeg[i] += 1;
                    }
                }
            }
        }

        enum Ev {
            Ready(usize),
            Done(usize),
        }

        let mut queue: EventQueue<Ev> = EventQueue::new();
        for (i, &d) in indeg.iter().enumerate() {
            if d == 0 {
                queue.push_with_priority(SimTime::ZERO, self.tasks[i].priority, Ev::Ready(i));
            }
        }

        let mut starts = vec![SimTime::ZERO; n];
        let mut ends = vec![SimTime::ZERO; n];
        let mut attempts = vec![0usize; n];
        let mut ordinal: Vec<Option<usize>> = vec![None; n];
        // Per resource: the instant it is free, and how many tasks it
        // has been granted (a task's ordinal keys its transient faults).
        let mut free_at = vec![SimTime::ZERO; resources];
        let mut dispatched = vec![0usize; resources];
        let mut skip = vec![false; n];
        let mut failed = vec![false; n];
        let mut completed = 0usize;
        let mut log = FaultLog::default();

        while let Some((now, ev)) = queue.pop() {
            match ev {
                Ev::Ready(i) => {
                    let spec = &self.tasks[i];
                    if skip[i] {
                        // Skipped fallback: a zero-span trace record at
                        // the skip instant, touching no timeline.
                        starts[i] = now;
                        ends[i] = now;
                        queue.push_with_priority(now, i8::MIN, Ev::Done(i));
                        continue;
                    }
                    attempts[i] += 1;
                    let r = spec.resource.0;
                    let start = now.max(free_at[r]);
                    let ord = match ordinal[i] {
                        Some(o) => o,
                        None => {
                            let o = dispatched[r];
                            dispatched[r] += 1;
                            ordinal[i] = Some(o);
                            o
                        }
                    };

                    // Throttle: stretch the reservation by the inverse of
                    // the speed factor at its start instant. Factor 1.0
                    // keeps the exact nanosecond duration (no float
                    // round-trip), preserving fault-free schedules.
                    let factor = faults.speed_factor_at(spec.resource, start);
                    let duration = if factor < 1.0 && !spec.duration.is_zero() {
                        log.throttled += 1;
                        log.injected += 1;
                        SimSpan::from_nanos(
                            (spec.duration.as_nanos() as f64 / factor).round() as u64
                        )
                    } else {
                        spec.duration
                    };

                    let lost = faults
                        .loss_at(spec.resource)
                        .is_some_and(|l| start + duration > l || start >= l);
                    let transient = !lost
                        && faults
                            .transient_for(spec.resource, ord)
                            .is_some_and(|t| attempts[i] <= t.failures);

                    let end = start + duration;
                    free_at[r] = end;
                    starts[i] = start;
                    ends[i] = end;

                    if lost {
                        // The command never completes; the watchdog fires
                        // after the predicted span. Retrying a dead
                        // device is pointless: fail permanently now.
                        log.injected += 1;
                        failed[i] = true;
                        log.failed.push(TaskId(i));
                        queue.push_with_priority(end, i8::MIN, Ev::Done(i));
                    } else if transient {
                        log.injected += 1;
                        if attempts[i] < max_attempts {
                            // Retry after bounded exponential backoff.
                            // The failed attempt held its resource but
                            // stays out of the trace; record it for energy
                            // accounting.
                            log.retries += 1;
                            log.wasted.push(AttemptRecord {
                                task: TaskId(i),
                                resource: spec.resource,
                                start,
                                end,
                                outcome: AttemptOutcome::Transient,
                            });
                            let retry_at = end + policy.backoff_before(attempts[i] + 1);
                            queue.push_with_priority(retry_at, spec.priority, Ev::Ready(i));
                        } else {
                            failed[i] = true;
                            log.failed.push(TaskId(i));
                            queue.push_with_priority(end, i8::MIN, Ev::Done(i));
                        }
                    } else {
                        // Done events outrank Ready events at the same
                        // instant so every task enabled at that time
                        // contends by priority.
                        queue.push_with_priority(end, i8::MIN, Ev::Done(i));
                    }
                }
                Ev::Done(i) => {
                    completed += 1;
                    if let Some(f) = fallback_of[i] {
                        if !failed[i] {
                            skip[f.0] = true;
                        }
                    }
                    if primary_of[i].is_some() {
                        if skip[i] {
                            log.skipped.push(TaskId(i));
                        } else if !failed[i] {
                            log.recovered.push(TaskId(i));
                        }
                    }
                    for &j in &dependents[i] {
                        indeg[j] -= 1;
                        if indeg[j] == 0 {
                            // Ready exactly when the last dependency ends.
                            queue.push_with_priority(now, self.tasks[j].priority, Ev::Ready(j));
                        }
                    }
                }
            }
        }

        if completed != n {
            return Err(ScheduleError::Cycle {
                unscheduled: n - completed,
            });
        }

        for &t in &log.failed {
            let recovered = fallback_of[t.0].is_some_and(|f| !failed[f.0] && !skip[f.0]);
            if !recovered {
                log.unrecovered.push(t);
            }
        }

        let stats = SchedStats {
            tasks: n,
            peak_queue_depth: queue.peak_len(),
        };

        let records = self
            .tasks
            .into_iter()
            .enumerate()
            .map(|(i, t)| TaskRecord {
                id: TaskId(i),
                label: t.label,
                resource: t.resource,
                start: starts[i],
                end: ends[i],
                payload: t.payload,
            })
            .collect();

        Ok((Trace::new(records), stats, log))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(us: u64) -> SimSpan {
        SimSpan::from_micros(us)
    }

    /// The fault-free schedule of `g` over two resources.
    fn run<T>(g: TaskGraph<T>) -> Result<Trace<T>, ScheduleError> {
        g.run(2, &FaultPlan::none(), &RetryPolicy::default())
            .map(|(trace, _, _)| trace)
    }

    #[test]
    fn independent_tasks_on_one_resource_serialize() {
        let cpu = ResourceId(0);
        let mut g = TaskGraph::new();
        g.add("a", cpu, span(10), &[], ());
        g.add("b", cpu, span(10), &[], ());
        let trace = run(g).unwrap();
        assert_eq!(trace.makespan(), span(20));
    }

    #[test]
    fn independent_tasks_on_two_resources_overlap() {
        let cpu = ResourceId(0);
        let gpu = ResourceId(1);
        let mut g = TaskGraph::new();
        g.add("a", cpu, span(10), &[], ());
        g.add("b", gpu, span(10), &[], ());
        let trace = run(g).unwrap();
        assert_eq!(trace.makespan(), span(10));
    }

    #[test]
    fn dependencies_are_respected() {
        let cpu = ResourceId(0);
        let gpu = ResourceId(1);
        let mut g = TaskGraph::new();
        let a = g.add("a", cpu, span(10), &[], ());
        let b = g.add("b", gpu, span(20), &[a], ());
        let c = g.add("c", cpu, span(5), &[b], ());
        let trace = run(g).unwrap();
        assert_eq!(trace.start_of(b), SimTime::from_nanos(10_000));
        assert_eq!(trace.start_of(c), SimTime::from_nanos(30_000));
        assert_eq!(trace.makespan(), span(35));
    }

    #[test]
    fn work_conserving_despite_insertion_order() {
        // Task inserted first becomes ready later; the resource must not
        // idle waiting for it.
        let cpu = ResourceId(0);
        let gpu = ResourceId(1);
        let mut g = TaskGraph::new();
        let slow_dep = g.add("slow-dep", gpu, span(100), &[], ());
        // Inserted before `early`, but only ready at t=100.
        let late = g.add("late", cpu, span(10), &[slow_dep], ());
        let early = g.add("early", cpu, span(10), &[], ());
        let trace = run(g).unwrap();
        assert_eq!(trace.start_of(early), SimTime::ZERO);
        assert_eq!(trace.start_of(late), SimTime::from_nanos(100_000));
    }

    #[test]
    fn cycle_detected() {
        let cpu = ResourceId(0);
        let mut g: TaskGraph<()> = TaskGraph::new();
        // Forward-reference a task to build a 2-cycle.
        let a = g.add("a", cpu, span(1), &[TaskId(1)], ());
        let _b = g.add("b", cpu, span(1), &[a], ());
        let err = run(g).unwrap_err();
        assert_eq!(err, ScheduleError::Cycle { unscheduled: 2 });
    }

    #[test]
    fn unknown_dep_rejected() {
        let cpu = ResourceId(0);
        let mut g: TaskGraph<()> = TaskGraph::new();
        g.add("a", cpu, span(1), &[TaskId(7)], ());
        let err = run(g).unwrap_err();
        assert!(matches!(err, ScheduleError::UnknownDependency { .. }));
    }

    #[test]
    fn unknown_resource_rejected() {
        let mut g: TaskGraph<()> = TaskGraph::new();
        g.add("a", ResourceId(5), span(1), &[], ());
        let err = run(g).unwrap_err();
        assert!(matches!(err, ScheduleError::UnknownResource { .. }));
    }

    #[test]
    fn fork_join_makespan() {
        // issue -> {gpu kernel, cpu work} -> merge; the classic μLayer shape.
        let cpu = ResourceId(0);
        let gpu = ResourceId(1);
        let mut g = TaskGraph::new();
        let issue = g.add("issue", cpu, span(10), &[], ());
        let k = g.add("kernel", gpu, span(100), &[issue], ());
        let w = g.add("cpu-work", cpu, span(80), &[issue], ());
        let m = g.add("merge", cpu, span(5), &[k, w], ());
        let trace = run(g).unwrap();
        assert_eq!(trace.end_of(m).as_nanos(), 115_000);
        // CPU busy: issue + work + merge.
        let busy = trace.busy_per_resource();
        assert_eq!(busy[&cpu], span(95));
        assert_eq!(busy[&gpu], span(100));
    }

    #[test]
    fn diamond_dependencies_join_correctly() {
        //    a
        //   / \
        //  b   c     (different resources)
        //   \ /
        //    d
        let r0 = ResourceId(0);
        let r1 = ResourceId(1);
        let mut g = TaskGraph::new();
        let a = g.add("a", r0, span(10), &[], ());
        let b = g.add("b", r0, span(30), &[a], ());
        let c = g.add("c", r1, span(50), &[a], ());
        let d = g.add("d", r0, span(5), &[b, c], ());
        let t = run(g).unwrap();
        // d starts when the slower arm (c, ends at 60) completes.
        assert_eq!(t.start_of(d), SimTime::from_nanos(60_000));
        assert_eq!(t.makespan(), span(65));
    }

    #[test]
    fn zero_duration_tasks_are_instant() {
        let r = ResourceId(0);
        let mut g = TaskGraph::new();
        let a = g.add("a", r, SimSpan::ZERO, &[], ());
        let b = g.add("b", r, span(10), &[a], ());
        let t = run(g).unwrap();
        assert_eq!(t.start_of(b), SimTime::ZERO);
        assert_eq!(t.records()[a.0].span(), SimSpan::ZERO);
    }

    #[test]
    fn priority_grants_resource_among_simultaneous_ready_tasks() {
        // Two tasks become ready at the same instant; the high-priority
        // (lower value) one runs first even though it was added later.
        let cpu = ResourceId(0);
        let mut g = TaskGraph::new();
        let gate = g.add("gate", cpu, span(10), &[], ());
        let slow = g.add("slow", cpu, span(100), &[gate], ());
        let urgent = g.add_with_priority("urgent", cpu, span(5), &[gate], -1, ());
        let t = run(g).unwrap();
        assert_eq!(t.start_of(urgent), SimTime::from_nanos(10_000));
        assert_eq!(t.start_of(slow), SimTime::from_nanos(15_000));
    }

    #[test]
    fn priority_applies_when_enabled_by_different_predecessors() {
        // `urgent` and `slow` are enabled by different Done events at the
        // same instant; Done events batch before Ready dispatch, so the
        // priority still decides.
        let cpu = ResourceId(0);
        let aux = ResourceId(1);
        let mut g = TaskGraph::new();
        let g1 = g.add("gate1", cpu, span(10), &[], ());
        let g2 = g.add("gate2", aux, span(10), &[], ());
        let slow = g.add("slow", cpu, span(100), &[g1], ());
        let urgent = g.add_with_priority("urgent", cpu, span(5), &[g2], -1, ());
        let t = run(g).unwrap();
        assert!(t.start_of(urgent) < t.start_of(slow));
    }

    #[test]
    fn run_with_stats_counts_tasks_and_queue_depth() {
        let cpu = ResourceId(0);
        let mut g = TaskGraph::new();
        for _ in 0..4 {
            g.add("t", cpu, span(10), &[], ());
        }
        let (trace, stats, _) = g
            .run(2, &FaultPlan::none(), &RetryPolicy::default())
            .unwrap();
        assert_eq!(stats.tasks, 4);
        // All four Ready events are enqueued up front.
        assert!(stats.peak_queue_depth >= 4);
        assert_eq!(trace.makespan(), span(40));
    }

    #[test]
    fn fault_free_faulted_run_matches_plain_run() {
        // An empty fault plan perturbs nothing: the fork-join schedule is
        // the hand-computed one and the log stays empty.
        let cpu = ResourceId(0);
        let gpu = ResourceId(1);
        let mut g = TaskGraph::new();
        let issue = g.add("issue", cpu, span(10), &[], ());
        let k = g.add("kernel", gpu, span(100), &[issue], ());
        let w = g.add("cpu-work", cpu, span(80), &[issue], ());
        g.add("merge", cpu, span(5), &[k, w], ());
        let (trace, _, log) = g
            .run(2, &FaultPlan::none(), &RetryPolicy::default())
            .unwrap();
        let times: Vec<(u64, u64)> = trace
            .records()
            .iter()
            .map(|r| (r.start.as_nanos() / 1_000, r.end.as_nanos() / 1_000))
            .collect();
        assert_eq!(times, vec![(0, 10), (10, 110), (10, 90), (110, 115)]);
        assert_eq!(log.injected, 0);
        assert_eq!(log.retries, 0);
        assert!(log.wasted.is_empty() && log.skipped.is_empty());
        assert!(log.failed.is_empty() && log.unrecovered.is_empty());
    }

    #[test]
    fn transient_failure_retries_with_backoff() {
        let gpu = ResourceId(0);
        let mut g = TaskGraph::new();
        let k = g.add("kernel", gpu, span(100), &[], ());
        let faults = FaultPlan::none().with_transient(crate::faults::TransientFault {
            resource: gpu,
            ordinal: 0,
            failures: 1,
        });
        let policy = RetryPolicy {
            max_attempts: 3,
            backoff: span(10),
        };
        let (trace, _, log) = g.run(2, &faults, &policy).unwrap();
        // Attempt 1 occupies [0, 100us) and fails; the retry starts after
        // the base backoff and succeeds.
        assert_eq!(trace.start_of(k), SimTime::from_nanos(110_000));
        assert_eq!(trace.end_of(k), SimTime::from_nanos(210_000));
        assert_eq!(log.retries, 1);
        assert_eq!(log.injected, 1);
        assert_eq!(log.wasted.len(), 1);
        assert_eq!(log.wasted[0].start, SimTime::ZERO);
        assert_eq!(log.wasted[0].end, SimTime::from_nanos(100_000));
        assert_eq!(log.wasted[0].outcome, AttemptOutcome::Transient);
        assert!(log.failed.is_empty());
    }

    #[test]
    fn persistent_failure_runs_fallback_and_gates_dependents() {
        let cpu = ResourceId(0);
        let gpu = ResourceId(1);
        let mut g = TaskGraph::new();
        let k = g.add("kernel", gpu, span(100), &[], ());
        let merge = g.add("merge", cpu, span(5), &[k], ());
        let fb = g.add_fallback("kernel::fallback", cpu, span(50), k, ());
        let faults = FaultPlan::none().with_transient(crate::faults::TransientFault {
            resource: gpu,
            ordinal: 0,
            failures: 3,
        });
        let policy = RetryPolicy {
            max_attempts: 3,
            backoff: span(10),
        };
        let (trace, _, log) = g.run(2, &faults, &policy).unwrap();
        // Attempts: [0,100), retry +10 -> [110,210), retry +20 -> [230,330).
        assert_eq!(trace.end_of(k), SimTime::from_nanos(330_000));
        assert_eq!(trace.start_of(fb), SimTime::from_nanos(330_000));
        assert_eq!(trace.end_of(fb), SimTime::from_nanos(380_000));
        // The dependent waits for the fallback, not just the primary.
        assert_eq!(trace.start_of(merge), SimTime::from_nanos(380_000));
        assert_eq!(log.retries, 2);
        assert_eq!(log.wasted.len(), 2);
        assert_eq!(log.failed, vec![k]);
        assert_eq!(log.recovered, vec![fb]);
        assert!(log.unrecovered.is_empty());
    }

    #[test]
    fn successful_primary_skips_fallback_without_cost() {
        let build = |with_fallback: bool| {
            let cpu = ResourceId(0);
            let gpu = ResourceId(1);
            let mut g = TaskGraph::new();
            let k = g.add("kernel", gpu, span(100), &[], ());
            let merge = g.add("merge", cpu, span(5), &[k], ());
            if with_fallback {
                g.add_fallback("kernel::fallback", cpu, span(50), k, ());
            }
            let (trace, _, log) = g
                .run(2, &FaultPlan::none(), &RetryPolicy::default())
                .unwrap();
            (trace.end_of(merge), trace, log)
        };
        let (plain_end, _, _) = build(false);
        let (end, trace, log) = build(true);
        assert_eq!(end, plain_end);
        let fb = TaskId(2);
        assert_eq!(log.skipped, vec![fb]);
        assert!(log.recovered.is_empty());
        // The skipped fallback is a zero-span record at the skip instant.
        assert_eq!(trace.records()[fb.0].span(), SimSpan::ZERO);
        // And it occupies no CPU time: cpu busy = merge only.
        assert_eq!(trace.busy_per_resource()[&ResourceId(0)], span(5));
    }

    #[test]
    fn device_loss_fails_permanently_without_retries() {
        let gpu = ResourceId(0);
        let mut g = TaskGraph::new();
        let k = g.add("kernel", gpu, span(100), &[], ());
        let faults = FaultPlan::none().with_loss(crate::faults::DeviceLoss {
            resource: gpu,
            at: SimTime::from_nanos(50_000),
        });
        let (trace, _, log) = g.run(2, &faults, &RetryPolicy::default()).unwrap();
        // The watchdog times the attempt out after the predicted span;
        // no retry is attempted against a dead device.
        assert_eq!(trace.end_of(k), SimTime::from_nanos(100_000));
        assert_eq!(log.retries, 0);
        assert_eq!(log.failed, vec![k]);
        // No fallback registered: the failure is unrecovered.
        assert_eq!(log.unrecovered, vec![k]);
    }

    #[test]
    fn throttle_window_stretches_reservations() {
        let gpu = ResourceId(0);
        let mut g = TaskGraph::new();
        let a = g.add("a", gpu, span(100), &[], ());
        let b = g.add("b", gpu, span(100), &[a], ());
        // Window covers a's start but ends before b starts.
        let faults = FaultPlan::none().with_throttle(crate::faults::ThrottleWindow {
            resource: gpu,
            factor: 0.5,
            from: SimTime::ZERO,
            until: SimTime::from_nanos(150_000),
        });
        let (trace, _, log) = g.run(2, &faults, &RetryPolicy::default()).unwrap();
        // a runs at half speed: [0, 200us); b starts outside the window
        // and runs at full speed.
        assert_eq!(trace.end_of(a), SimTime::from_nanos(200_000));
        assert_eq!(trace.end_of(b), SimTime::from_nanos(300_000));
        assert_eq!(log.throttled, 1);
        assert_eq!(log.injected, 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let build = || {
            let cpu = ResourceId(0);
            let gpu = ResourceId(1);
            let mut g = TaskGraph::new();
            let mut prev: Vec<TaskId> = Vec::new();
            for i in 0..50 {
                let r = if i % 3 == 0 { gpu } else { cpu };
                let id = g.add(format!("t{i}"), r, span(1 + (i % 7)), &prev, ());
                if i % 5 == 0 {
                    prev.clear();
                }
                prev.push(id);
            }
            let t = run(g).unwrap();
            t.records()
                .iter()
                .map(|r| (r.start, r.end))
                .collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
