//! What every workload shares: options, repeated set-up, the timed pass
//! with its failure tally, and the shape of a finished run.

use std::time::Instant;

use crate::metrics::Readings;
use crate::span::{self, Recorder, Span};
use crate::stats;
use crate::sut::{self, Host};
use crate::workloads::Workload;

/// Seconds a run measures for when `--seconds` is not given; the
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 20;

/// Options of one run.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Decides every generated input.
    pub seed: u64,
    /// Scales the fixed op count: a workload times `ops_per_second ×
    /// seconds` ops, the same number on every commit.
    pub seconds: u64,
    /// Also run the traced pass and the per-layer probes.
    pub traced: bool,
    /// How many times set-up is repeated at least; `setup_s` is the median.
    /// 1 means exactly once (the quick smoke).
    pub setup_reps: usize,
}

/// Failed ops against attempted ones.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored or failed their output check.
    pub failed: u64,
}

impl Tally {
    /// `failed ÷ attempted`.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

/// One timed pass: a latency sample per op that succeeded, in op order.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Host ms per successful op.
    pub op_ms: Vec<f64>,
    /// Attempted and failed ops.
    pub tally: Tally,
    /// First failure messages (a handful, for the report).
    pub failures: Vec<String>,
}

impl Pass {
    /// Median op time, ms.
    pub fn p50(&self) -> f64 {
        stats::median(&self.op_ms)
    }

    /// Successful ops ÷ the time they took: the mean rate, which shows
    /// stalls the median hides.
    pub fn ops_per_s(&self) -> f64 {
        let total_s: f64 = self.op_ms.iter().sum::<f64>() / 1e3;
        self.op_ms.len() as f64 / total_s.max(f64::MIN_POSITIVE)
    }
}

/// Runs `ops` ops in a closed loop with one client: the next op starts when
/// the last has returned and been checked. `op` returns the op's host time
/// in ms (timed around the call into the program only), or why it failed;
/// a failed op counts against the tally and contributes no sample.
pub fn pass(
    ops: usize,
    rec: &mut Recorder,
    mut op: impl FnMut(usize, &mut Recorder) -> Result<f64, String>,
) -> Pass {
    let mut out = Pass {
        op_ms: Vec::with_capacity(ops),
        ..Pass::default()
    };
    for i in 0..ops {
        rec.begin_op(i as u64);
        out.tally.attempted += 1;
        match op(i, rec) {
            Ok(ms) => out.op_ms.push(ms),
            Err(why) => {
                out.tally.failed += 1;
                if out.failures.len() < 4 {
                    out.failures.push(format!("op {i}: {why}"));
                }
            }
        }
    }
    out
}

/// A cheap set-up is repeated beyond `Opts::setup_reps`, until this much
/// time has gone into set-ups or this many have run: the median of three
/// 5 ms readings is noise.
const SETUP_FILL_S: f64 = 1.0;
const SETUP_MAX_REPS: usize = 101;

/// Sets the workload up at least `reps` times (dropping each before the
/// next, so worker threads never pile up) and returns the last with the
/// median set-up time in seconds. A set-up covers everything before the
/// first timed op: graph, weights, calibration, references, plans, ladders,
/// cohorts, regimes, pool spawn and warm-up.
pub fn set_up<T>(
    reps: usize,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < reps.max(1)
        || (reps > 1 && times.len() < SETUP_MAX_REPS && times.iter().sum::<f64>() < SETUP_FILL_S)
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(build()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((
        last.expect("at least one set-up ran"),
        stats::median(&times),
    ))
}

/// A finished run of one workload.
#[derive(Debug)]
pub struct RunOutput {
    /// Workload name.
    pub workload: &'static str,
    /// The seed it ran under.
    pub seed: u64,
    /// Ops of the untraced pass.
    pub timed_ops: usize,
    /// Ops of the traced pass (0 when untraced).
    pub traced_ops: usize,
    /// Warm-up ops of each set-up.
    pub warmup_ops: usize,
    /// Attempted and failed ops over both passes.
    pub tally: Tally,
    /// Why the run is not correct, if it is not: failed ops, a failed
    /// set-up check, spans that do not add up.
    pub problems: Vec<String>,
    /// Samples behind `op_ms_p50`, and the tail quantile `op_ms_p90` could
    /// actually be read at (0.9 unless the run was too short).
    pub op_samples: usize,
    /// See `op_samples`.
    pub tail_quantile: f64,
    /// End-to-end readings (always from the untraced pass).
    pub end_to_end: Readings,
    /// Per-layer readings (traced runs only).
    pub per_layer: Option<Readings>,
    /// 64-bit fold of every simulated statistic the run saw, for comparing
    /// two commits (`fleet_storm` only).
    pub sim_digest: Option<u64>,
    /// The host the numbers belong to.
    pub host: Host,
    /// Spans of the traced pass.
    pub spans: Vec<Span>,
}

impl RunOutput {
    /// The output of an untraced run: every end-to-end metric, read off the
    /// untraced pass.
    pub fn new(
        w: &Workload,
        opts: &Opts,
        setup_s: f64,
        untraced: &Pass,
        sim_frame_ms: f64,
        sim_slo_frac: f64,
    ) -> RunOutput {
        let (tail_quantile, tail) = stats::supported_tail(&untraced.op_ms, 0.9);
        let mut r = Readings::default();
        r.set("setup_s", setup_s);
        r.set("op_ms_p10", stats::supported_head(&untraced.op_ms, 0.1));
        r.set("op_ms_p50", untraced.p50());
        r.set("op_ms_p90", tail);
        r.set("ops_per_s", untraced.ops_per_s());
        r.set("fail_frac", untraced.tally.fail_frac());
        r.set("sim_frame_ms", sim_frame_ms);
        r.set("sim_slo_frac", sim_slo_frac);
        RunOutput {
            workload: w.name,
            seed: opts.seed,
            timed_ops: w.timed_ops(opts),
            traced_ops: 0,
            warmup_ops: w.warmup_ops,
            tally: untraced.tally,
            problems: untraced.failures.clone(),
            op_samples: untraced.op_ms.len(),
            tail_quantile,
            end_to_end: r,
            per_layer: None,
            sim_digest: None,
            host: sut::host(),
            spans: Vec::new(),
        }
    }

    /// Adds the traced pass: its tally and spans, the workload's per-layer
    /// readings, a copy of the end-to-end ones (the traced result line
    /// carries those the driver does not gate on), the harness's own readings,
    /// and the span-sum check (per-layer self times must add up to the ops'
    /// wall time within 2%).
    pub fn add_traced(
        &mut self,
        mut per_layer: Readings,
        untraced: &Pass,
        traced: &Pass,
        rec: Recorder,
    ) {
        self.traced_ops = traced.tally.attempted as usize;
        self.tally += traced.tally;
        self.problems.extend(traced.failures.iter().cloned());
        for &(name, value) in &self.end_to_end.0 {
            per_layer.set(name, value);
        }
        per_layer.set(
            "harness.trace_overhead_frac",
            traced.p50() / untraced.p50().max(f64::MIN_POSITIVE) - 1.0,
        );
        per_layer.set("harness.timer_ns", timer_ns());
        per_layer.set("harness.peak_rss_mb", peak_rss_mb());
        per_layer.set("harness.host_parallelism", self.host.parallelism as f64);
        per_layer.set("harness.op_samples", self.op_samples as f64);

        let spans = rec.into_spans();
        let roots: u64 = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur_ns)
            .sum();
        let selves: u64 = span::self_times(&spans).values().sum();
        if (selves as f64 - roots as f64).abs() > 0.02 * roots as f64 {
            self.problems.push(format!(
                "span self times sum to {selves} ns against {roots} ns of root spans"
            ));
        }
        self.per_layer = Some(per_layer);
        self.spans = spans;
    }

    /// True when no op failed and every check held.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.problems.is_empty()
    }
}

/// Calls behind each per-layer probe median.
pub const PROBE_CALLS: usize = 32;

/// Times `execute` ([`PROBE_CALLS`] `uruntime::execute_plan` calls of the
/// workload's plan, each returning simulated ms) into the
/// `uruntime.engine` readings.
pub fn engine_probe(
    r: &mut Readings,
    mut execute: impl FnMut() -> Result<f64, String>,
) -> Result<(), String> {
    let mut sim_ms = 0.0;
    let host_ms = median_call_ms(PROBE_CALLS, || execute().map(|ms| sim_ms = ms))?;
    r.set("uruntime.engine.execute_plan_ms", host_ms);
    r.set("uruntime.engine.sim_ms_per_host_ms", sim_ms / host_ms);
    Ok(())
}

/// Median host time of `calls` calls of `f`, in ms (the per-layer probes).
pub fn median_call_ms(
    calls: usize,
    mut f: impl FnMut() -> Result<(), String>,
) -> Result<f64, String> {
    let mut ms = Vec::with_capacity(calls);
    for _ in 0..calls {
        let t = Instant::now();
        f()?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(stats::median(&ms))
}

/// Cost of one `Instant::now()` pair, ns (median of 64 batches).
fn timer_ns() -> f64 {
    let batches: Vec<f64> = (0..64)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..256 {
                std::hint::black_box(Instant::now().elapsed());
            }
            t.elapsed().as_nanos() as f64 / 256.0
        })
        .collect();
    stats::median(&batches)
}

/// Peak resident set of this process (`VmHWM`), MB; 0 where `/proc` does
/// not say.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
