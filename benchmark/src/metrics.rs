//! The metric catalogue: every name the benchmark emits, with its unit,
//! time domain, direction and (end to end) regression bound. `BENCHMARK.json`
//! at the repo root lists the same names; `tests/catalogue.rs` keeps the two
//! in step.

/// Which clock a metric is read off.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Domain {
    /// What this machine takes. Noisy; compare medians of repeated runs.
    Host,
    /// What the modelled Exynos SoC would take. Repeats exactly per seed.
    Simulated,
    /// A count or ratio with no clock behind it.
    None,
}

impl Domain {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Domain::Host => "host",
            Domain::Simulated => "simulated",
            Domain::None => "-",
        }
    }
}

/// By how much an end-to-end metric may get worse before a change counts
/// as a regression.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// A share of the parent's median (host-time metrics).
    Share(f64),
    /// Must repeat exactly for a fixed seed (simulated metrics, counts).
    Exact,
    /// Not gated (per-layer host readings).
    Free,
}

/// One catalogue entry.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Emitted name: letters, digits, `_`, `.`, `-`.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Clock behind the number.
    pub domain: Domain,
    /// True when a higher reading is better.
    pub higher_is_better: bool,
    /// Regression bound.
    pub bound: Bound,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    domain: Domain,
    higher_is_better: bool,
    bound: Bound,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        domain,
        higher_is_better,
        bound,
    }
}

use Bound::{Exact, Free, Share};
use Domain::{Host, Simulated};

/// The end-to-end metrics, reported by every workload. The two with a
/// `Share` bound are the `end_to_end` list of `BENCHMARK.json`, the ones the
/// driver gates on. On the shared two-core sizing host, interference only
/// ever adds time, and it adds a lot: over ten seeds the inter-quartile
/// spread of `op_ms_p50` reached 18%, of `op_ms_p90` 20% and of `ops_per_s`
/// 14% on the two-thread workloads, and the median of ten runs moved by up
/// to 28% between two sets taken minutes apart. No bound of at most 25% can
/// hold that. `op_ms_p10` (what an op takes when the host leaves the process
/// alone) spread 4-7% and moved 1% in the same runs, so it carries the gate.
/// The others are reported with every run and listed under `per_layer`, which
/// has no bound; `fail_frac` travels as `failed`/`attempted` in the result
/// line, and the simulated pair must be identical, which a share of a median
/// cannot express.
pub const END_TO_END: [MetricDef; 8] = [
    m("setup_s", "s", Host, false, Share(0.25)),
    m("op_ms_p10", "ms", Host, false, Share(0.25)),
    m("op_ms_p50", "ms", Host, false, Free),
    m("op_ms_p90", "ms", Host, false, Free),
    m("ops_per_s", "1/s", Host, true, Free),
    m("fail_frac", "ratio", Domain::None, false, Exact),
    m("sim_frame_ms", "sim_ms", Simulated, false, Exact),
    m("sim_slo_frac", "ratio", Simulated, true, Exact),
];

/// The `ukernels` layers part spans are named after: work class × compute
/// dtype. `<layer>_ms` and `<layer>_gops` are the metrics of each.
pub const KERNEL_LAYERS: [&str; 8] = [
    "ukernels.gemm_q8",
    "ukernels.gemm_f16",
    "ukernels.pointwise_q8",
    "ukernels.pointwise_f16",
    "ukernels.depthwise_q8",
    "ukernels.pool",
    "ukernels.copy",
    "ukernels.eltwise",
];

/// The per-layer metrics, from the traced run, named after the crate and
/// module they measure. A layer a workload never calls reads 0.
#[rustfmt::skip] // one entry per line reads as the table it is
pub const PER_LAYER: [MetricDef; 57] = [
    // ukernels: median busy ms per frame and achieved rate per class.
    m("ukernels.gemm_q8_ms", "ms", Host, false, Free),
    m("ukernels.gemm_f16_ms", "ms", Host, false, Free),
    m("ukernels.pointwise_q8_ms", "ms", Host, false, Free),
    m("ukernels.pointwise_f16_ms", "ms", Host, false, Free),
    m("ukernels.depthwise_q8_ms", "ms", Host, false, Free),
    m("ukernels.pool_ms", "ms", Host, false, Free),
    m("ukernels.copy_ms", "ms", Host, false, Free),
    m("ukernels.eltwise_ms", "ms", Host, false, Free),
    m("ukernels.gemm_q8_gops", "GOP/s", Host, true, Free),
    m("ukernels.gemm_f16_gops", "GOP/s", Host, true, Free),
    m("ukernels.pointwise_q8_gops", "GOP/s", Host, true, Free),
    m("ukernels.pointwise_f16_gops", "GOP/s", Host, true, Free),
    m("ukernels.depthwise_q8_gops", "GOP/s", Host, true, Free),
    m("ukernels.pool_gops", "GOP/s", Host, true, Free),
    m("ukernels.copy_gops", "GOP/s", Host, true, Free),
    m("ukernels.eltwise_gops", "GOP/s", Host, true, Free),
    // uexec: pools and the layer barrier.
    m("uexec.cpu_pool_busy_ms", "ms", Host, false, Free),
    m("uexec.gpu_pool_busy_ms", "ms", Host, false, Free),
    m("uexec.imbalance_ms", "ms", Host, false, Free),
    m("uexec.barrier_wait_ms", "ms", Host, false, Free),
    m("uexec.coop_speedup", "ratio", Host, true, Free),
    // uruntime.functional: the graph walk around the node batches.
    m("uruntime.functional.walk_ms", "ms", Host, false, Free),
    // uruntime.engine: the timing co-simulation of one plan.
    m("uruntime.engine.execute_plan_ms", "ms", Host, false, Free),
    m("uruntime.engine.sim_ms_per_host_ms", "ratio", Host, true, Free),
    // ulayer.partitioner / ulayer.predictor.
    m("ulayer.partitioner.scratch_plan_us", "us", Host, false, Free),
    m("ulayer.partitioner.split_nodes", "count", Domain::None, true, Exact),
    m("ulayer.partitioner.branch_mapped_nodes", "count", Domain::None, true, Exact),
    m("ulayer.predictor.fit_rel_err", "ratio", Host, false, Free),
    // ulayer.plancache: exact counts over the untraced pass, host medians
    // by plan source.
    m("ulayer.plancache.hits", "count", Domain::None, true, Exact),
    m("ulayer.plancache.misses", "count", Domain::None, false, Exact),
    m("ulayer.plancache.incremental", "count", Domain::None, true, Exact),
    m("ulayer.plancache.scratch", "count", Domain::None, false, Exact),
    m("ulayer.plancache.evictions", "count", Domain::None, false, Exact),
    m("ulayer.plancache.layers_reenumerated", "count", Domain::None, false, Exact),
    m("ulayer.plancache.layers_copied", "count", Domain::None, true, Exact),
    m("ulayer.plancache.peak_len", "count", Domain::None, false, Exact),
    m("ulayer.plancache.reuse_frac", "ratio", Domain::None, true, Exact),
    m("ulayer.plancache.hit_us", "us", Host, false, Free),
    m("ulayer.plancache.incremental_us", "us", Host, false, Free),
    m("ulayer.plancache.scratch_us", "us", Host, false, Free),
    // uruntime.fleet (+ simcore): simulator speed and simulated serving.
    m("uruntime.fleet.sim_frames_per_host_s", "1/s", Host, true, Free),
    m("uruntime.fleet.host_ns_per_sim_frame", "ns", Host, false, Free),
    m("uruntime.fleet.completed_frac", "ratio", Simulated, true, Exact),
    m("uruntime.fleet.degraded_frac", "ratio", Simulated, false, Exact),
    m("uruntime.fleet.shed_frac", "ratio", Simulated, false, Exact),
    m("uruntime.fleet.rejected", "count", Simulated, false, Exact),
    m("uruntime.fleet.retries", "count", Simulated, false, Exact),
    m("uruntime.fleet.fallbacks", "count", Simulated, false, Exact),
    m("uruntime.fleet.plan_hit_rate", "ratio", Simulated, true, Exact),
    m("uruntime.fleet.sim_p99_ms", "sim_ms", Simulated, false, Exact),
    m("uruntime.fleet.cohort_build_ms", "ms", Host, false, Free),
    m("uruntime.fleet.scaling_exp", "ratio", Host, false, Free),
    // The harness itself.
    m("harness.trace_overhead_frac", "ratio", Host, false, Free),
    m("harness.timer_ns", "ns", Host, false, Free),
    m("harness.peak_rss_mb", "MB", Host, false, Free),
    m("harness.host_parallelism", "count", Domain::None, true, Free),
    m("harness.op_samples", "count", Domain::None, true, Exact),
];

/// The `end_to_end` list of `BENCHMARK.json`.
pub fn contract_end_to_end() -> impl Iterator<Item = &'static MetricDef> {
    END_TO_END
        .iter()
        .filter(|d| matches!(d.bound, Bound::Share(_)))
}

/// The `per_layer` list of `BENCHMARK.json`: [`PER_LAYER`], then every
/// entry of [`END_TO_END`] the driver does not gate on (`fail_frac` apart,
/// which the result line carries as `failed`/`attempted`).
pub fn contract_per_layer() -> impl Iterator<Item = &'static MetricDef> {
    PER_LAYER.iter().chain(
        END_TO_END
            .iter()
            .filter(|d| !matches!(d.bound, Bound::Share(_)) && d.name != "fail_frac"),
    )
}

/// Looks a name up in either list.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

/// Named readings, in emission order.
#[derive(Clone, Debug, Default)]
pub struct Readings(pub Vec<(&'static str, f64)>);

impl Readings {
    /// Records `value` under `name`, which must be in the catalogue.
    pub fn set(&mut self, name: &str, value: f64) {
        let name = lookup(name)
            .unwrap_or_else(|| panic!("{name} is not in the metric catalogue"))
            .name;
        // An empty f64 sum is -0.0; print it as 0.
        let value = value + 0.0;
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The reading under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Every entry of `defs`, in their order; a layer the workload never
    /// called reads 0.
    pub fn filled(
        &self,
        defs: impl Iterator<Item = &'static MetricDef>,
    ) -> Vec<(&'static MetricDef, f64)> {
        defs.map(|d| (d, self.get(d.name).unwrap_or(0.0))).collect()
    }
}
