//! `fleet_storm`: one `uruntime::run_fleet` of 512 devices × 64 frames of
//! SqueezeNet-miniature under a rolling GPU loss per op, a different fleet
//! seed each op.

use std::time::Instant;

use crate::gen;
use crate::harness::{self, Opts, RunOutput};
use crate::metrics::Readings;
use crate::span::Recorder;
use crate::stats::log_log_slope;
use crate::sut::FleetSut;
use crate::workloads::Workload;

/// Devices and frames per device of one op.
const DEVICES: usize = 512;
const FRAMES: usize = 64;
/// Fleet sizes behind `uruntime.fleet.scaling_exp`, a few ops each.
const SCALING_DEVICES: [usize; 5] = [128, 256, 512, 1024, 2048];
const SCALING_OPS: usize = 8;

const FLEET: &str = "uruntime.fleet";
const CHECK: &str = "harness.check";

/// Simulated statistics summed over the ops of a pass.
#[derive(Default)]
struct Totals {
    counts: [u64; 9],
    sim_p50_ms: f64,
    sim_p99_ms: f64,
    digest: u64,
}

fn op(
    sut: &FleetSut,
    seed: u64,
    i: usize,
    rec: &mut Recorder,
    totals: &mut Totals,
) -> Result<f64, String> {
    let id = rec.enter(FLEET);
    let t = Instant::now();
    let out = sut.run(DEVICES, FRAMES, gen::fleet_seed(seed, i));
    let wall = t.elapsed();
    rec.exit(id);
    let out = out?;
    let id = rec.enter(CHECK);
    let verdict = out.check();
    totals.digest = gen::fnv1a(totals.digest, out.digest().as_bytes());
    rec.exit(id);
    verdict?;
    for (sum, n) in totals.counts.iter_mut().zip(out.counts()) {
        *sum += n;
    }
    totals.sim_p50_ms += out.sim_latency_ms(0.5);
    totals.sim_p99_ms += out.sim_latency_ms(0.99);
    Ok(wall.as_secs_f64() * 1e3)
}

/// Runs `fleet_storm`.
pub fn run(w: &Workload, opts: &Opts) -> Result<RunOutput, String> {
    let mut off = Recorder::off();
    let (sut, setup_s) = harness::set_up(opts.setup_reps, || {
        let sut = FleetSut::build(opts.seed)?;
        let mut unused = Totals::default();
        for i in 0..w.warmup_ops {
            // Warm-up fleets take seeds the timed ops never use.
            op(&sut, !opts.seed, i, &mut off, &mut unused)?;
        }
        Ok(sut)
    })?;

    let mut totals = Totals {
        digest: 0xcbf2_9ce4_8422_2325,
        ..Totals::default()
    };
    let untraced = harness::pass(w.timed_ops(opts), &mut off, |i, rec| {
        op(&sut, opts.seed, i, rec, &mut totals)
    });
    let done = untraced.op_ms.len().max(1) as f64;
    let [offered, completed, degraded, shed, rejected, retries, fallbacks, hits, misses] =
        totals.counts.map(|n| n as f64);
    let sim_frame_ms = totals.sim_p50_ms / done;
    let sim_slo_frac = completed / offered.max(1.0);
    let mut out = RunOutput::new(w, opts, setup_s, &untraced, sim_frame_ms, sim_slo_frac);
    out.sim_digest = Some(totals.digest);
    if !opts.traced {
        return Ok(out);
    }

    let mut r = Readings::default();
    let host_s: f64 = untraced.op_ms.iter().sum::<f64>() / 1e3;
    r.set("uruntime.fleet.sim_frames_per_host_s", offered / host_s);
    r.set(
        "uruntime.fleet.host_ns_per_sim_frame",
        host_s * 1e9 / offered.max(1.0),
    );
    r.set("uruntime.fleet.completed_frac", sim_slo_frac);
    r.set("uruntime.fleet.degraded_frac", degraded / offered.max(1.0));
    r.set("uruntime.fleet.shed_frac", shed / offered.max(1.0));
    r.set("uruntime.fleet.rejected", rejected);
    r.set("uruntime.fleet.retries", retries);
    r.set("uruntime.fleet.fallbacks", fallbacks);
    r.set(
        "uruntime.fleet.plan_hit_rate",
        hits / (hits + misses).max(1.0),
    );
    r.set("uruntime.fleet.sim_p99_ms", totals.sim_p99_ms / done);
    r.set("uruntime.fleet.cohort_build_ms", sut.cohort_build_ms());

    let mut rec = Recorder::on();
    let mut traced_totals = Totals::default();
    let traced = harness::pass(w.traced_ops(opts), &mut rec, |i, rec| {
        op(&sut, opts.seed, i, rec, &mut traced_totals)
    });

    // Host time per op against fleet size: 1.0 is linear.
    let mut points = Vec::with_capacity(SCALING_DEVICES.len());
    for devices in SCALING_DEVICES {
        let mut i = 0;
        let host_ms = harness::median_call_ms(SCALING_OPS, || {
            i += 1;
            sut.run(devices, FRAMES, gen::fleet_seed(opts.seed, i))
                .map(drop)
        })?;
        points.push((devices as f64, host_ms));
    }
    r.set("uruntime.fleet.scaling_exp", log_log_slope(&points));

    harness::engine_probe(&mut r, || sut.execute_plan())?;

    out.add_traced(r, &untraced, &traced, rec);
    Ok(out)
}
