//! `coop_squeezenet` and `single_mobilenet`: one frame of a full network
//! on the real worker pools per op.

use std::time::Instant;

use crate::harness::{self, Opts, RunOutput, PROBE_CALLS};
use crate::metrics::{Readings, KERNEL_LAYERS};
use crate::span::{self, Recorder, Span};
use crate::stats::median;
use crate::sut::{self, ExecKind, ExecSut, NodeTime, PartTime};
use crate::workloads::Workload;

/// Span names, one per layer entered.
const FUNCTIONAL: &str = "uruntime.functional";
const UEXEC: &str = "uexec";
const CHECK: &str = "harness.check";

/// Frames of the other plan behind `uexec.coop_speedup`, after 3 warm ones.
const OTHER_PLAN_FRAMES: usize = 32;

/// Runs `coop_squeezenet`.
pub fn run_coop_squeezenet(w: &Workload, opts: &Opts) -> Result<RunOutput, String> {
    run(w, ExecKind::CoopSqueezenet, opts)
}

/// Runs `single_mobilenet`.
pub fn run_single_mobilenet(w: &Workload, opts: &Opts) -> Result<RunOutput, String> {
    run(w, ExecKind::SingleMobilenet, opts)
}

/// One op: a frame, timed around the call into `uruntime`; then the node
/// timings are drained and the outputs checked, outside the timed region.
/// Traced, the frame's span gets a `uexec` child per node and a `ukernels`
/// grandchild per part, laid out from the durations the backend reports.
fn op(sut: &ExecSut, rec: &mut Recorder, frames: &mut Vec<Vec<NodeTime>>) -> Result<f64, String> {
    let id = rec.enter(FUNCTIONAL);
    let t = Instant::now();
    let frame = sut.frame();
    let wall = t.elapsed();
    rec.exit(id);
    let timings = sut.take_timings();
    if rec.is_on() {
        let wall_ns = wall.as_nanos() as u64;
        let nodes_ns: u64 = timings.iter().map(|n| (n.wall_s * 1e9) as u64).sum();
        // The walk between node batches is spread evenly around them.
        let gap = wall_ns.saturating_sub(nodes_ns) / (timings.len() as u64 + 1);
        let mut at = gap;
        for n in &timings {
            let node_ns = (n.wall_s * 1e9) as u64;
            let node = rec.child(id, UEXEC, at, node_ns, 0);
            let mut pool_at = [0u64; 2];
            for p in &n.parts {
                let pool = p.gpu_pool as usize;
                let part_ns = (p.seconds * 1e9) as u64;
                rec.child(
                    node,
                    KERNEL_LAYERS[p.class],
                    pool_at[pool],
                    part_ns,
                    1 + pool as u8,
                );
                pool_at[pool] += part_ns;
            }
            at += node_ns + gap;
        }
        frames.push(timings);
    }
    let frame = frame?;
    let id = rec.enter(CHECK);
    let same = sut.check(&frame);
    rec.exit(id);
    if same {
        Ok(wall.as_secs_f64() * 1e3)
    } else {
        Err("a node output is not bit-equal to the reference".into())
    }
}

fn run(w: &Workload, kind: ExecKind, opts: &Opts) -> Result<RunOutput, String> {
    let mut off = Recorder::off();
    let mut unused = Vec::new();
    let (sut, setup_s) = harness::set_up(opts.setup_reps, || {
        let sut = ExecSut::build(kind, opts.seed)?;
        for _ in 0..w.warmup_ops {
            op(&sut, &mut off, &mut unused)?;
        }
        Ok(sut)
    })?;

    let untraced = harness::pass(w.timed_ops(opts), &mut off, |_, rec| {
        op(&sut, rec, &mut unused)
    });
    let mut out = RunOutput::new(w, opts, setup_s, &untraced, sut.sim_frame_ms(), 1.0);
    if !opts.traced {
        return Ok(out);
    }

    let mut rec = Recorder::on();
    let mut frames = Vec::new();
    let traced = harness::pass(w.traced_ops(opts), &mut rec, |_, rec| {
        op(&sut, rec, &mut frames)
    });

    let mut r = Readings::default();
    layer_readings(&mut r, &frames, rec.spans());
    r.set("ulayer.partitioner.split_nodes", sut.split_nodes() as f64);
    r.set(
        "ulayer.partitioner.branch_mapped_nodes",
        sut.branch_mapped_nodes() as f64,
    );
    let parts: Vec<PartTime> = frames
        .iter()
        .flatten()
        .flat_map(|n| n.parts.iter().copied())
        .collect();
    r.set(
        "ulayer.predictor.fit_rel_err",
        sut::predictor_fit_rel_err(&parts),
    );

    harness::engine_probe(&mut r, || sut.execute_plan())?;
    let scratch_ms = harness::median_call_ms(PROBE_CALLS, || sut.scratch_plan())?;
    r.set("ulayer.partitioner.scratch_plan_us", scratch_ms * 1e3);

    // Last, because it replaces the pools: the other plan of the same net.
    let other_p50 = median(&sut.other_plan_frames(3, OTHER_PLAN_FRAMES)?);
    let (single, coop) = match kind {
        ExecKind::CoopSqueezenet => (other_p50, untraced.p50()),
        ExecKind::SingleMobilenet => (untraced.p50(), other_p50),
    };
    r.set("uexec.coop_speedup", single / coop);

    out.add_traced(r, &untraced, &traced, rec);
    Ok(out)
}

/// Per-frame medians of what the kernels, the pools and the graph walk
/// took over the traced pass.
fn layer_readings(r: &mut Readings, frames: &[Vec<NodeTime>], spans: &[Span]) {
    let per_frame = |f: &dyn Fn(&[NodeTime]) -> f64| -> f64 {
        median(
            &frames
                .iter()
                .map(|nodes| f(nodes) * 1e3)
                .collect::<Vec<_>>(),
        )
    };
    let parts = |nodes: &[NodeTime]| -> Vec<PartTime> {
        nodes.iter().flat_map(|n| n.parts.iter().copied()).collect()
    };
    for (class, layer) in KERNEL_LAYERS.iter().enumerate() {
        let busy = |nodes: &[NodeTime]| -> f64 {
            parts(nodes)
                .iter()
                .filter(|p| p.class == class)
                .map(|p| p.seconds)
                .sum()
        };
        let (macs, seconds) = frames
            .iter()
            .flat_map(|nodes| parts(nodes))
            .filter(|p| p.class == class)
            .fold((0u64, 0.0f64), |(m, s), p| (m + p.macs, s + p.seconds));
        if seconds > 0.0 {
            r.set(&format!("{layer}_ms"), per_frame(&busy));
            r.set(&format!("{layer}_gops"), 2.0 * macs as f64 / seconds / 1e9);
        }
    }
    for (name, gpu) in [
        ("uexec.cpu_pool_busy_ms", false),
        ("uexec.gpu_pool_busy_ms", true),
    ] {
        r.set(
            name,
            per_frame(&|nodes| {
                parts(nodes)
                    .iter()
                    .filter(|p| p.gpu_pool == gpu)
                    .map(|p| p.seconds)
                    .sum()
            }),
        );
    }
    // One pool idle while the other finishes its part of a split node.
    r.set(
        "uexec.imbalance_ms",
        per_frame(&|nodes| {
            nodes
                .iter()
                .map(|n| {
                    let on = |gpu| -> f64 {
                        n.parts
                            .iter()
                            .filter(|p| p.gpu_pool == gpu)
                            .map(|p| p.seconds)
                            .sum()
                    };
                    let (cpu, gpu) = (on(false), on(true));
                    if cpu > 0.0 && gpu > 0.0 {
                        (cpu - gpu).abs()
                    } else {
                        0.0
                    }
                })
                .sum()
        }),
    );
    // Self times: the node batch minus its parts is dispatch, wake and
    // join; the frame minus its node batches is the graph walk.
    let by_root = span::self_times_by_root(spans);
    let self_ms = |layer: &str| -> Vec<f64> {
        by_root
            .iter()
            .filter_map(|selves| selves.get(layer))
            .map(|&ns| ns as f64 / 1e6)
            .collect()
    };
    r.set("uexec.barrier_wait_ms", median(&self_ms(UEXEC)));
    r.set("uruntime.functional.walk_ms", median(&self_ms(FUNCTIONAL)));
}
