//! Serially-reusable simulated resources.
//!
//! A [`Timeline`] models a resource that can execute one task at a time: a
//! CPU cluster, a GPU, a DMA engine, or an OpenCL command queue. Tasks
//! reserve contiguous busy intervals; the timeline remembers them for
//! utilization and energy accounting.

use std::fmt;

use crate::time::{SimSpan, SimTime};

/// Identifies a resource within a [`ResourcePool`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ResourceId(pub usize);

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "res#{}", self.0)
    }
}

/// A half-open busy interval `[start, end)` on a timeline.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct BusyInterval {
    /// When the reservation starts.
    pub start: SimTime,
    /// When the reservation ends.
    pub end: SimTime,
}

impl BusyInterval {
    /// Length of the interval.
    #[cfg(test)]
    pub(crate) fn span(&self) -> SimSpan {
        self.end - self.start
    }
}

/// A serially-reusable resource that executes one task at a time.
///
/// Reservations are append-only and non-overlapping: each reservation
/// starts no earlier than the end of the previous one.
#[derive(Clone, Debug)]
pub struct Timeline {
    name: String,
    intervals: Vec<BusyInterval>,
    available_at: SimTime,
}

impl Timeline {
    /// Creates an idle timeline.
    pub(crate) fn new(name: impl Into<String>) -> Self {
        Timeline {
            name: name.into(),
            intervals: Vec::new(),
            available_at: SimTime::ZERO,
        }
    }

    /// The resource's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The earliest instant a new reservation may start.
    pub(crate) fn available_at(&self) -> SimTime {
        self.available_at
    }

    /// Reserves the resource for `span`, starting no earlier than
    /// `earliest` and no earlier than the end of the last reservation.
    /// Returns the actual busy interval.
    pub(crate) fn reserve(&mut self, earliest: SimTime, span: SimSpan) -> BusyInterval {
        let start = earliest.max(self.available_at);
        let end = start + span;
        self.available_at = end;
        let iv = BusyInterval { start, end };
        if !span.is_zero() {
            self.intervals.push(iv);
        }
        iv
    }

    /// All busy intervals reserved so far, in start order.
    #[cfg(test)]
    pub(crate) fn busy_intervals(&self) -> &[BusyInterval] {
        &self.intervals
    }

    /// Total busy time.
    #[cfg(test)]
    pub(crate) fn busy_time(&self) -> SimSpan {
        self.intervals.iter().map(BusyInterval::span).sum()
    }

    /// Busy time within `[0, horizon)` divided by `horizon`.
    ///
    /// Returns 0.0 for a zero horizon.
    #[cfg(test)]
    pub(crate) fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        let busy: SimSpan = self
            .intervals
            .iter()
            .filter(|iv| iv.start < horizon)
            .map(|iv| iv.end.min(horizon) - iv.start)
            .sum();
        busy.as_secs_f64() / horizon.as_secs_f64()
    }

    /// Idle time within `[0, horizon)`: the horizon minus the busy time
    /// that falls inside it. Reservations past the horizon contribute
    /// nothing. A zero or degenerate horizon (shorter than the clipped
    /// busy time) yields zero rather than underflowing.
    #[cfg(test)]
    pub(crate) fn idle_time(&self, horizon: SimTime) -> SimSpan {
        if horizon == SimTime::ZERO {
            return SimSpan::ZERO;
        }
        let busy: SimSpan = self
            .intervals
            .iter()
            .filter(|iv| iv.start < horizon)
            .map(|iv| iv.end.min(horizon) - iv.start)
            .sum();
        let total = horizon - SimTime::ZERO;
        if busy >= total {
            return SimSpan::ZERO;
        }
        total - busy
    }

    /// Clears all reservations, returning the timeline to idle.
    #[cfg(test)]
    pub(crate) fn reset(&mut self) {
        self.intervals.clear();
        self.available_at = SimTime::ZERO;
    }
}

/// An indexed collection of timelines.
#[derive(Clone, Debug, Default)]
pub struct ResourcePool {
    timelines: Vec<Timeline>,
}

impl ResourcePool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a timeline and returns its id.
    pub fn add(&mut self, name: impl Into<String>) -> ResourceId {
        let id = ResourceId(self.timelines.len());
        self.timelines.push(Timeline::new(name));
        id
    }

    /// Immutable access to a timeline.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in this pool.
    pub fn get(&self, id: ResourceId) -> &Timeline {
        &self.timelines[id.0]
    }

    /// Mutable access to a timeline.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in this pool.
    pub fn get_mut(&mut self, id: ResourceId) -> &mut Timeline {
        &mut self.timelines[id.0]
    }

    /// Number of timelines.
    pub fn len(&self) -> usize {
        self.timelines.len()
    }

    /// True when the pool has no timelines.
    pub fn is_empty(&self) -> bool {
        self.timelines.is_empty()
    }

    /// Iterates over `(id, timeline)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ResourceId, &Timeline)> {
        self.timelines
            .iter()
            .enumerate()
            .map(|(i, t)| (ResourceId(i), t))
    }

    /// Resets every timeline to idle.
    #[cfg(test)]
    pub(crate) fn reset(&mut self) {
        for t in &mut self.timelines {
            t.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservations_never_overlap() {
        let mut t = Timeline::new("cpu");
        let a = t.reserve(SimTime::ZERO, SimSpan::from_nanos(100));
        let b = t.reserve(SimTime::ZERO, SimSpan::from_nanos(50));
        assert_eq!(a.start, SimTime::ZERO);
        assert_eq!(a.end, SimTime::from_nanos(100));
        // b requested t=0 but must wait for a to finish.
        assert_eq!(b.start, SimTime::from_nanos(100));
        assert_eq!(b.end, SimTime::from_nanos(150));
    }

    #[test]
    fn reservation_honors_earliest() {
        let mut t = Timeline::new("gpu");
        let iv = t.reserve(SimTime::from_nanos(500), SimSpan::from_nanos(10));
        assert_eq!(iv.start, SimTime::from_nanos(500));
    }

    #[test]
    fn zero_span_reservations_not_recorded() {
        let mut t = Timeline::new("q");
        t.reserve(SimTime::from_nanos(10), SimSpan::ZERO);
        assert!(t.busy_intervals().is_empty());
        assert_eq!(t.available_at(), SimTime::from_nanos(10));
    }

    #[test]
    fn busy_time_and_utilization() {
        let mut t = Timeline::new("cpu");
        t.reserve(SimTime::ZERO, SimSpan::from_nanos(100));
        t.reserve(SimTime::from_nanos(300), SimSpan::from_nanos(100));
        assert_eq!(t.busy_time().as_nanos(), 200);
        let u = t.utilization(SimTime::from_nanos(400));
        assert!((u - 0.5).abs() < 1e-12, "utilization = {u}");
        // Horizon cutting through the second interval.
        let u = t.utilization(SimTime::from_nanos(350));
        assert!((u - 150.0 / 350.0).abs() < 1e-12);
        assert_eq!(t.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn idle_time_complements_busy_time() {
        let mut t = Timeline::new("cpu");
        t.reserve(SimTime::ZERO, SimSpan::from_nanos(100));
        t.reserve(SimTime::from_nanos(300), SimSpan::from_nanos(100));
        let horizon = SimTime::from_nanos(400);
        assert_eq!(t.idle_time(horizon).as_nanos(), 200);
        assert_eq!(
            (t.idle_time(horizon) + t.busy_time()).as_nanos(),
            horizon.as_nanos()
        );
        // A horizon cutting through a reservation counts only the part
        // inside it.
        assert_eq!(t.idle_time(SimTime::from_nanos(350)).as_nanos(), 200);
    }

    #[test]
    fn idle_time_degenerate_horizons() {
        let mut t = Timeline::new("cpu");
        // Zero horizon on an idle timeline.
        assert_eq!(t.idle_time(SimTime::ZERO), SimSpan::ZERO);
        t.reserve(SimTime::ZERO, SimSpan::from_nanos(100));
        // Zero horizon with reservations present.
        assert_eq!(t.idle_time(SimTime::ZERO), SimSpan::ZERO);
        // Horizon entirely inside the first reservation: fully busy.
        assert_eq!(t.idle_time(SimTime::from_nanos(40)), SimSpan::ZERO);
        // Horizon exactly at the reservation edge: still fully busy.
        assert_eq!(t.idle_time(SimTime::from_nanos(100)), SimSpan::ZERO);
        assert_eq!(t.idle_time(SimTime::from_nanos(150)).as_nanos(), 50);
    }

    #[test]
    fn utilization_degenerate_horizons() {
        let mut t = Timeline::new("cpu");
        assert_eq!(t.utilization(SimTime::ZERO), 0.0);
        t.reserve(SimTime::ZERO, SimSpan::from_nanos(100));
        assert_eq!(t.utilization(SimTime::ZERO), 0.0);
        let u = t.utilization(SimTime::from_nanos(50));
        assert!((u - 1.0).abs() < 1e-12, "fully busy horizon: {u}");
    }

    #[test]
    fn pool_round_trip() {
        let mut pool = ResourcePool::new();
        let a = pool.add("cpu");
        let b = pool.add("gpu");
        assert_eq!(pool.len(), 2);
        pool.get_mut(a)
            .reserve(SimTime::ZERO, SimSpan::from_nanos(5));
        assert_eq!(pool.get(a).busy_time().as_nanos(), 5);
        assert_eq!(pool.get(b).busy_time().as_nanos(), 0);
        let names: Vec<_> = pool.iter().map(|(_, t)| t.name().to_string()).collect();
        assert_eq!(names, vec!["cpu", "gpu"]);
        pool.reset();
        assert_eq!(pool.get(a).busy_time(), SimSpan::ZERO);
    }
}
