//! A small counters/gauges registry threaded through the executors.
//!
//! Every run of [`crate::execute_plan`] / [`crate::execute_pipeline`]
//! fills a [`MetricsRegistry`] with scheduler statistics (task count,
//! peak event-queue depth), memory high-water marks, energy, and — for
//! pipelined runs — backlog and per-input latency summaries. The registry
//! is deliberately stringly-keyed: reports and tests read the keys they
//! care about and ignore the rest, so executors can add counters without
//! breaking consumers.

use std::collections::BTreeMap;

/// Named monotonic counters (`u64`) and gauges (`f64`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to counter `name` (creating it at zero).
    pub(crate) fn inc(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Raises counter `name` to `value` if it is below it (high-water
    /// marks).
    pub(crate) fn counter_max(&mut self, name: &str, value: u64) {
        let c = self.counters.entry(name.to_string()).or_insert(0);
        *c = (*c).max(value);
    }

    /// Sets gauge `name`.
    pub(crate) fn gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Counter value (zero when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, if set.
    pub fn gauge_of(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Renders `name value` lines, counters first.
    pub fn render(&self) -> String {
        let width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .map(String::len)
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("{k:<width$}  {v}\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("{k:<width$}  {v:.3}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.counter("absent"), 0);
        m.inc("tasks", 3);
        m.inc("tasks", 2);
        assert_eq!(m.counter("tasks"), 5);
    }

    #[test]
    fn counter_max_is_a_high_water_mark() {
        let mut m = MetricsRegistry::new();
        m.counter_max("depth", 4);
        m.counter_max("depth", 2);
        m.counter_max("depth", 9);
        assert_eq!(m.counter("depth"), 9);
    }

    #[test]
    fn gauges_overwrite() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.gauge_of("lat"), None);
        m.gauge("lat", 1.5);
        m.gauge("lat", 2.5);
        assert_eq!(m.gauge_of("lat"), Some(2.5));
    }

    #[test]
    fn render_lists_everything_sorted() {
        let mut m = MetricsRegistry::new();
        m.inc("b.count", 1);
        m.inc("a.count", 2);
        m.gauge("z.gauge", 0.125);
        let s = m.render();
        let a = s.find("a.count").unwrap();
        let b = s.find("b.count").unwrap();
        assert!(a < b);
        assert!(s.contains("0.125"));
        assert_eq!(s.lines().count(), 3);
    }
}
