//! Execution traces produced by the scheduler.
//!
//! A [`Trace`] is the realized schedule of a [`crate::TaskGraph`] run: one
//! [`TaskRecord`] per task with its start/end instants, resource, and the
//! caller's payload. Traces drive latency reporting, the SoC energy model,
//! and an ASCII Gantt renderer used by the examples.

use std::collections::BTreeMap;

use crate::dag::TaskId;
use crate::resource::ResourceId;
use crate::time::{SimSpan, SimTime};

/// The realized execution of one task.
#[derive(Clone, Debug)]
pub struct TaskRecord<T> {
    /// The task's id in the originating graph.
    pub id: TaskId,
    /// Human-readable label.
    pub label: String,
    /// The resource the task ran on.
    pub resource: ResourceId,
    /// When it started.
    pub start: SimTime,
    /// When it finished.
    pub end: SimTime,
    /// Caller payload carried through scheduling.
    pub payload: T,
}

impl<T> TaskRecord<T> {
    /// The task's realized duration.
    pub fn span(&self) -> SimSpan {
        self.end - self.start
    }
}

/// Width of a Gantt chart's bar area, in characters.
const GANTT_WIDTH: usize = 72;
/// Most rows (resources) a Gantt chart renders.
const GANTT_MAX_ROWS: usize = 16;

/// The realized schedule of a task graph.
#[derive(Clone, Debug)]
pub struct Trace<T> {
    records: Vec<TaskRecord<T>>,
    makespan: SimSpan,
}

impl<T> Trace<T> {
    /// Wraps a set of task records, computing the makespan.
    pub fn new(records: Vec<TaskRecord<T>>) -> Self {
        let makespan = records.iter().map(|r| r.end).max().unwrap_or(SimTime::ZERO) - SimTime::ZERO;
        Trace { records, makespan }
    }

    /// All task records, in task-id order.
    pub fn records(&self) -> &[TaskRecord<T>] {
        &self.records
    }

    /// End-to-end schedule length (latest task end).
    pub fn makespan(&self) -> SimSpan {
        self.makespan
    }

    /// Start instant of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in this trace.
    pub fn start_of(&self, id: TaskId) -> SimTime {
        self.records[id.0].start
    }

    /// End instant of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in this trace.
    pub fn end_of(&self, id: TaskId) -> SimTime {
        self.records[id.0].end
    }

    /// Total busy time per resource.
    pub fn busy_per_resource(&self) -> BTreeMap<ResourceId, SimSpan> {
        let mut m = BTreeMap::new();
        for r in &self.records {
            *m.entry(r.resource).or_insert(SimSpan::ZERO) += r.span();
        }
        m
    }

    /// The distinct resources that appear in this trace, ascending.
    pub fn resources(&self) -> Vec<ResourceId> {
        let mut ids: Vec<ResourceId> = self.records.iter().map(|r| r.resource).collect();
        ids.sort();
        ids.dedup();
        ids
    }

    /// Renders an ASCII Gantt chart, one row per resource.
    ///
    /// Each row shows the resource's busy intervals as `#` runs over the
    /// `[0, makespan)` horizon. Intended for human inspection in examples
    /// and debugging, not for parsing.
    pub fn render_gantt(&self, names: &[(ResourceId, String)]) -> String {
        let mut out = String::new();
        let horizon = self.makespan.as_nanos().max(1);
        let label_w = names.iter().map(|(_, n)| n.len()).max().unwrap_or(0).max(4);
        for (rid, name) in names.iter().take(GANTT_MAX_ROWS) {
            let mut row = vec![b'.'; GANTT_WIDTH];
            for r in self.records.iter().filter(|r| r.resource == *rid) {
                let s =
                    (r.start.as_nanos() as u128 * GANTT_WIDTH as u128 / horizon as u128) as usize;
                let mut e =
                    (r.end.as_nanos() as u128 * GANTT_WIDTH as u128 / horizon as u128) as usize;
                if e <= s {
                    e = s + 1;
                }
                for c in row
                    .iter_mut()
                    .take(e.min(GANTT_WIDTH))
                    .skip(s.min(GANTT_WIDTH))
                {
                    *c = b'#';
                }
            }
            out.push_str(&format!(
                "{name:<label_w$} |{}|\n",
                String::from_utf8(row).expect("ASCII row")
            ));
        }
        out.push_str(&format!(
            "{:<label_w$} 0 .. {}\n",
            "time",
            SimTime::ZERO + self.makespan
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: usize, res: usize, start: u64, end: u64) -> TaskRecord<u32> {
        TaskRecord {
            id: TaskId(id),
            label: format!("t{id}"),
            resource: ResourceId(res),
            start: SimTime::from_nanos(start),
            end: SimTime::from_nanos(end),
            payload: id as u32,
        }
    }

    #[test]
    fn makespan_is_latest_end() {
        let t = Trace::new(vec![rec(0, 0, 0, 10), rec(1, 1, 5, 30), rec(2, 0, 10, 20)]);
        assert_eq!(t.makespan(), SimSpan::from_nanos(30));
    }

    #[test]
    fn empty_trace_has_zero_makespan() {
        let t: Trace<()> = Trace::new(Vec::new());
        assert_eq!(t.makespan(), SimSpan::ZERO);
    }

    #[test]
    fn busy_per_resource_sums() {
        let t = Trace::new(vec![rec(0, 0, 0, 10), rec(1, 1, 0, 30), rec(2, 0, 10, 25)]);
        let busy = t.busy_per_resource();
        assert_eq!(busy[&ResourceId(0)], SimSpan::from_nanos(25));
        assert_eq!(busy[&ResourceId(1)], SimSpan::from_nanos(30));
    }

    #[test]
    fn gantt_renders_rows() {
        let t = Trace::new(vec![rec(0, 0, 0, 50), rec(1, 1, 50, 100)]);
        let names = vec![
            (ResourceId(0), "cpu".to_string()),
            (ResourceId(1), "gpu".to_string()),
        ];
        let s = t.render_gantt(&names);
        assert!(s.contains("cpu"));
        assert!(s.contains("gpu"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        // First half busy on cpu, second half on gpu.
        let half = "#".repeat(GANTT_WIDTH / 2);
        assert!(lines[0].contains(&format!("|{half}{}|", ".".repeat(GANTT_WIDTH / 2))));
        assert!(lines[1].contains(&format!("|{}{half}|", ".".repeat(GANTT_WIDTH / 2))));
    }
}
