//! Serially-reusable simulated resources.
//!
//! A resource models something that executes one task at a time: a CPU
//! cluster, a GPU, a DMA engine, an OpenCL command queue or a network
//! link. [`crate::TaskGraph::run`] schedules over a count of them and
//! keeps one ready instant per resource: a task starts no earlier than
//! the end of the last task granted the same resource.

use std::fmt;

/// Identifies a resource: an index below the count
/// [`crate::TaskGraph::run`] schedules over.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ResourceId(pub usize);

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "res#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultPlan, RetryPolicy, SimSpan, SimTime, TaskGraph};

    fn ns(v: u64) -> SimSpan {
        SimSpan::from_nanos(v)
    }

    /// The realized `(start, end)` instants of `g`'s fault-free run over
    /// `resources` resources, in task order.
    fn run(g: TaskGraph<()>, resources: usize) -> Vec<(SimTime, SimTime)> {
        let (trace, _, _) = g
            .run(resources, &FaultPlan::none(), &RetryPolicy::default())
            .unwrap();
        trace.records().iter().map(|r| (r.start, r.end)).collect()
    }

    #[test]
    fn reservations_never_overlap() {
        let cpu = ResourceId(0);
        let mut g = TaskGraph::new();
        g.add("a", cpu, ns(100), &[], ());
        g.add("b", cpu, ns(50), &[], ());
        let t = run(g, 1);
        assert_eq!(t[0], (SimTime::ZERO, SimTime::from_nanos(100)));
        // b is ready at t=0 but must wait for a to finish.
        assert_eq!(t[1], (SimTime::from_nanos(100), SimTime::from_nanos(150)));
    }

    #[test]
    fn reservation_honors_earliest() {
        // The GPU is idle, but its task is ready only when its CPU-side
        // dependency ends at t=500.
        let (cpu, gpu) = (ResourceId(0), ResourceId(1));
        let mut g = TaskGraph::new();
        let dep = g.add("dep", cpu, ns(500), &[], ());
        g.add("k", gpu, ns(10), &[dep], ());
        assert_eq!(run(g, 2)[1].0, SimTime::from_nanos(500));
    }

    #[test]
    fn zero_span_reservations_not_recorded() {
        // A zero-span task at t=10 holds its resource for no time: the
        // next task ready at t=10 on that resource starts at t=10.
        let (q, aux) = (ResourceId(0), ResourceId(1));
        let mut g = TaskGraph::new();
        let gate = g.add("gate", aux, ns(10), &[], ());
        g.add("marker", q, SimSpan::ZERO, &[gate], ());
        g.add("next", q, ns(5), &[gate], ());
        let t = run(g, 2);
        assert_eq!(t[1], (SimTime::from_nanos(10), SimTime::from_nanos(10)));
        assert_eq!(t[2].0, SimTime::from_nanos(10));
    }
}
