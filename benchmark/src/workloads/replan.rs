//! `replan_churn`: one `PlannerSession::plan_frame` on the full GoogLeNet
//! graph per op, against a seeded walk over 48 drift regimes — more than
//! the 32 plans the program's cache holds.

use std::time::Instant;

use crate::gen;
use crate::harness::{self, Opts, RunOutput, PROBE_CALLS};
use crate::metrics::Readings;
use crate::span::Recorder;
use crate::stats::median;
use crate::sut::{PlanCounts, PlanSession, PlannerSut, Source};
use crate::workloads::Workload;

/// A fresh session (cold cache, scratch first plan) starts every this many
/// ops: the program plans from scratch only for the first frame a session
/// sees, so without restarts the scratch path would run once per run.
const EPOCH_OPS: usize = 4096;
/// Every this many ops the returned plan is checked against a from-scratch
/// replan and an `Exact` session.
const CHECK_EVERY: usize = 64;

const PLANCACHE: &str = "ulayer.plancache";
const CHECK: &str = "harness.check";

/// The closed loop and what it accumulates over one pass.
struct Churn<'a> {
    sut: &'a PlannerSut,
    walk: &'a [u8],
    session: PlanSession<'a>,
    counts: PlanCounts,
    peak_len: usize,
    predicted_ms: f64,
    us_by_source: [Vec<f64>; 3],
}

impl<'a> Churn<'a> {
    fn new(sut: &'a PlannerSut, walk: &'a [u8]) -> Churn<'a> {
        Churn {
            sut,
            walk,
            session: sut.session(),
            counts: PlanCounts::default(),
            peak_len: 0,
            predicted_ms: 0.0,
            us_by_source: Default::default(),
        }
    }

    fn op(&mut self, i: usize, rec: &mut Recorder) -> Result<f64, String> {
        if i > 0 && i.is_multiple_of(EPOCH_OPS) {
            self.counts += self.session.counts();
            self.session = self.sut.session();
        }
        let regime = self.walk[i] as usize;
        let id = rec.enter(PLANCACHE);
        let t = Instant::now();
        let planned = self.session.plan_frame(regime);
        let wall = t.elapsed();
        rec.exit(id);
        let planned = planned?;
        self.peak_len = self.peak_len.max(self.session.cache_len());
        self.predicted_ms += planned.predicted_ms;
        self.us_by_source[planned.source as usize].push(wall.as_secs_f64() * 1e6);
        if i.is_multiple_of(CHECK_EVERY) {
            let id = rec.enter(CHECK);
            let same = self.session.check(regime, &planned);
            rec.exit(id);
            if !same {
                return Err(format!(
                    "regime {regime}: plan differs from a from-scratch replan"
                ));
            }
        }
        Ok(wall.as_secs_f64() * 1e3)
    }

    /// Counts of every session of the pass, the live one included.
    fn total_counts(&self) -> PlanCounts {
        let mut c = self.counts;
        c += self.session.counts();
        c
    }
}

/// Runs `replan_churn`.
pub fn run(w: &Workload, opts: &Opts) -> Result<RunOutput, String> {
    let mut off = Recorder::off();
    let walk = gen::regime_walk(opts.seed, w.timed_ops(opts));
    let (sut, setup_s) = harness::set_up(opts.setup_reps, || {
        let sut = PlannerSut::build()?;
        // Warm-up: one pass over the regime set in a throw-away session.
        let mut session = sut.session();
        for regime in 0..w.warmup_ops {
            session.plan_frame(regime)?;
        }
        drop(session);
        Ok(sut)
    })?;

    let mut churn = Churn::new(&sut, &walk);
    let untraced = harness::pass(w.timed_ops(opts), &mut off, |i, rec| churn.op(i, rec));
    let sim_frame_ms = churn.predicted_ms / untraced.op_ms.len().max(1) as f64;
    let mut out = RunOutput::new(w, opts, setup_s, &untraced, sim_frame_ms, 1.0);
    if !opts.traced {
        return Ok(out);
    }

    let mut r = Readings::default();
    let c = churn.total_counts();
    r.set("ulayer.plancache.hits", c.hits as f64);
    r.set("ulayer.plancache.misses", c.misses as f64);
    r.set("ulayer.plancache.incremental", c.incremental as f64);
    r.set("ulayer.plancache.scratch", c.scratch as f64);
    r.set("ulayer.plancache.evictions", c.evictions as f64);
    r.set(
        "ulayer.plancache.layers_reenumerated",
        c.layers_reenumerated as f64,
    );
    r.set("ulayer.plancache.layers_copied", c.layers_copied as f64);
    r.set("ulayer.plancache.peak_len", churn.peak_len as f64);
    r.set(
        "ulayer.plancache.reuse_frac",
        c.layers_copied as f64 / (c.layers_copied + c.layers_reenumerated).max(1) as f64,
    );
    let us = |s: Source| median(&churn.us_by_source[s as usize]);
    r.set("ulayer.plancache.hit_us", us(Source::Hit));
    r.set("ulayer.plancache.incremental_us", us(Source::Incremental));
    r.set("ulayer.plancache.scratch_us", us(Source::Scratch));

    let mut rec = Recorder::on();
    let mut traced_churn = Churn::new(&sut, &walk);
    let traced = harness::pass(w.traced_ops(opts), &mut rec, |i, rec| {
        traced_churn.op(i, rec)
    });

    // Regime 0 is the calm one: every factor at 1.
    let calm = sut.scratch_plan(0)?;
    r.set("ulayer.partitioner.split_nodes", calm.split_nodes as f64);
    r.set(
        "ulayer.partitioner.branch_mapped_nodes",
        calm.branch_mapped_nodes as f64,
    );
    let mut regime = 0;
    let scratch_ms = harness::median_call_ms(PROBE_CALLS, || {
        regime += 1;
        sut.scratch_plan(regime).map(drop)
    })?;
    r.set("ulayer.partitioner.scratch_plan_us", scratch_ms * 1e3);
    harness::engine_probe(&mut r, || sut.execute_plan(&calm))?;

    out.add_traced(r, &untraced, &traced, rec);
    Ok(out)
}
