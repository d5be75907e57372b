//! A deterministic time-ordered event queue.
//!
//! [`EventQueue`] is a min-heap keyed by [`SimTime`]. Events scheduled for
//! the same instant are delivered in insertion order (stable FIFO), which
//! makes every simulation built on top of it fully deterministic.
//!
//! The FIFO tie-break is a *convention*, not a guarantee callers may lean
//! on: two events at the same instant are causally concurrent, and a
//! simulation whose results change with their delivery order has a latent
//! race. [`TieOrder::Shuffled`] turns that convention off — same-timestamp,
//! same-priority events are delivered in a seeded pseudo-random permutation
//! instead — while keeping the queue fully deterministic per seed. Running
//! a simulation under [`TieOrder::Fifo`] and a few shuffled seeds and
//! asserting identical reports is the schedule-order fuzz gate the fleet
//! simulator ships in CI.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Delivery order among events scheduled for the same (instant, priority).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TieOrder {
    /// Insertion order (stable FIFO) — the historical default.
    Fifo,
    /// A seeded pseudo-random permutation of each simultaneity class.
    /// Deterministic per seed; different seeds explore different
    /// interleavings of causally-concurrent events.
    Shuffled { seed: u64 },
}

impl TieOrder {
    /// Human-readable label (`fifo` / `shuffled(seed)`), used by reports.
    pub fn label(&self) -> String {
        match self {
            TieOrder::Fifo => "fifo".to_string(),
            TieOrder::Shuffled { seed } => format!("shuffled({seed})"),
        }
    }
}

/// SplitMix64 finalizer over the insertion sequence number: a cheap,
/// stateless way to give every entry a seeded pseudo-random rank.
fn shuffle_rank(seed: u64, seq: u64) -> u64 {
    let mut z = seq
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(seed ^ 0x1656_7A09_E667_F3BC);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Entry<E> {
    at: SimTime,
    prio: i8,
    /// Tie rank among simultaneous same-priority events: `seq` under
    /// [`TieOrder::Fifo`], a seeded hash of `seq` under
    /// [`TieOrder::Shuffled`].
    tie: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.prio == other.prio && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to pop the earliest
        // (time, priority, tie) — lower priority values first. `seq`
        // makes the order total even on (astronomically unlikely) tie
        // hash collisions.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.prio.cmp(&self.prio))
            .then_with(|| other.tie.cmp(&self.tie))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered event queue with stable ordering for simultaneous events.
///
/// # Examples
///
/// ```
/// use simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(20), "late");
/// q.push(SimTime::from_nanos(10), "early");
/// q.push(SimTime::from_nanos(10), "early-second");
///
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "early-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
    peak_len: usize,
    order: TieOrder,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        Self::with_order(TieOrder::Fifo)
    }

    /// Creates an empty queue with an explicit same-timestamp delivery
    /// order. [`TieOrder::Fifo`] reproduces [`EventQueue::new`] exactly.
    pub fn with_order(order: TieOrder) -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            peak_len: 0,
            order,
        }
    }

    /// The queue's same-timestamp delivery order.
    pub fn order(&self) -> TieOrder {
        self.order
    }

    /// Schedules `event` at instant `at` with default (0) priority.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before the last popped event), which
    /// would indicate a causality bug in the caller.
    pub fn push(&mut self, at: SimTime, event: E) {
        self.push_with_priority(at, 0, event);
    }

    /// Schedules `event` at instant `at`. Among simultaneous events,
    /// lower `prio` values are delivered first; ties keep FIFO order.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub(crate) fn push_with_priority(&mut self, at: SimTime, prio: i8, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at:?}, now={:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let tie = match self.order {
            TieOrder::Fifo => seq,
            TieOrder::Shuffled { seed } => shuffle_rank(seed, seq),
        };
        self.heap.push(Entry {
            at,
            prio,
            tie,
            seq,
            event,
        });
        self.peak_len = self.peak_len.max(self.heap.len());
    }

    /// Removes and returns the earliest event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now, "event queue time went backwards");
        self.now = entry.at;
        Some((entry.at, entry.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// High-water mark of pending events over the queue's lifetime (a
    /// scheduler-pressure metric surfaced by the runtime's observability
    /// layer).
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[5u64, 1, 9, 3, 7] {
            q.push(SimTime::from_nanos(t), t);
        }
        let mut order = Vec::new();
        while let Some((_, e)) = q.pop() {
            order.push(e);
        }
        assert_eq!(order, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(42);
        for i in 0..100 {
            q.push(t, i);
        }
        let popped: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(popped, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        // Scheduling at the zero clock is allowed.
        q.push(SimTime::ZERO, 0);
        q.push(SimTime::from_nanos(20), 2);
        q.push(SimTime::from_nanos(10), 1);
        assert_eq!(q.pop(), Some((SimTime::ZERO, 0)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), 1)));
        // Scheduling at the current instant is allowed.
        q.push(SimTime::from_nanos(10), 3);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), 3)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(20), 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), ());
        q.pop();
        q.push(SimTime::from_nanos(5), ());
    }

    #[test]
    fn priority_breaks_simultaneous_ties() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        q.push_with_priority(t, 0, "normal");
        q.push_with_priority(t, -1, "urgent");
        q.push_with_priority(t, 1, "lazy");
        q.push_with_priority(t, -1, "urgent-second");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["urgent", "urgent-second", "normal", "lazy"]);
    }

    #[test]
    fn priority_never_overrides_time() {
        let mut q = EventQueue::new();
        q.push_with_priority(SimTime::from_nanos(10), -100, "late-urgent");
        q.push_with_priority(SimTime::from_nanos(5), 100, "early-lazy");
        assert_eq!(q.pop().unwrap().1, "early-lazy");
        assert_eq!(q.pop().unwrap().1, "late-urgent");
    }

    #[test]
    fn peak_len_is_a_high_water_mark() {
        let mut q = EventQueue::new();
        assert_eq!(q.peak_len(), 0);
        for t in 1..=5u64 {
            q.push(SimTime::from_nanos(t), t);
        }
        assert_eq!(q.peak_len(), 5);
        while q.pop().is_some() {}
        // Draining does not lower the mark.
        assert_eq!(q.peak_len(), 5);
        q.push(SimTime::from_nanos(10), 10);
        assert_eq!(q.peak_len(), 5);
    }

    #[test]
    fn shuffled_order_permutes_simultaneous_events() {
        let t = SimTime::from_nanos(7);
        let mut q = EventQueue::with_order(TieOrder::Shuffled { seed: 1 });
        for i in 0..100 {
            q.push(t, i);
        }
        let popped: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        // Every event is delivered exactly once...
        let mut sorted = popped.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        // ...but not in insertion order (the permutation is non-trivial).
        assert_ne!(popped, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn shuffled_order_is_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<u32> {
            let mut q = EventQueue::with_order(TieOrder::Shuffled { seed });
            for i in 0..64 {
                q.push(SimTime::from_nanos(u64::from(i % 4)), i);
            }
            std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(
            run(9),
            run(10),
            "different seeds should permute differently"
        );
    }

    #[test]
    fn shuffled_order_never_violates_time_or_priority() {
        let mut q = EventQueue::with_order(TieOrder::Shuffled { seed: 3 });
        for i in 0..200u64 {
            q.push_with_priority(SimTime::from_nanos(i % 5), (i % 3) as i8 - 1, i);
        }
        let mut prev: Option<(SimTime, i8)> = None;
        while let Some((at, i)) = q.pop() {
            let prio = (i % 3) as i8 - 1;
            if let Some((pt, pp)) = prev {
                assert!(at >= pt, "time order violated");
                if at == pt {
                    assert!(prio >= pp, "priority order violated within an instant");
                }
            }
            prev = Some((at, prio));
        }
    }

    #[test]
    fn fifo_order_label_and_accessor() {
        let q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.order(), TieOrder::Fifo);
        assert_eq!(TieOrder::Fifo.label(), "fifo");
        assert_eq!(TieOrder::Shuffled { seed: 42 }.label(), "shuffled(42)");
    }

    #[test]
    fn len_and_peek() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        q.push(SimTime::from_nanos(3), 'a');
        q.push(SimTime::from_nanos(1), 'b');
        assert_eq!(q.len(), 2);
        // The earliest event comes out first and leaves the rest.
        assert_eq!(q.pop(), Some((SimTime::from_nanos(1), 'b')));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(3), 'a')));
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }
}
