//! The four workloads. Each is a closed loop with one client in one
//! process, times a fixed op count after a warm-up, checks every output,
//! and reports every end-to-end metric; a traced run adds a second pass at
//! a quarter of the op count with the span recorder on, and the per-layer
//! probes.

pub mod exec;
pub mod fleet;
pub mod replan;

use crate::harness::{Opts, RunOutput};

/// One workload of the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it is in the benchmark.
    pub why: &'static str,
    /// Timed ops per `--seconds` second: about what this 2-core host does,
    /// frozen so that every commit times the same number of ops.
    pub ops_per_second: usize,
    /// Warm-up ops of each set-up.
    pub warmup_ops: usize,
    /// Worker threads the workload needs to run truly in parallel.
    pub min_parallelism: usize,
    run: fn(&Workload, &Opts) -> Result<RunOutput, String>,
}

/// The workloads, in `BENCHMARK.json` order.
pub const ALL: [Workload; 4] = [
    Workload {
        name: "coop_squeezenet",
        why: "The paper's mechanism on real threads: channel splits, branch distribution, QUInt8 on the CPU pool and F16 on the GPU pool, a barrier per layer",
        ops_per_second: 8,
        warmup_ops: 5,
        min_parallelism: 2,
        run: exec::run_coop_squeezenet,
    },
    Workload {
        name: "single_mobilenet",
        why: "Same kernels and pools used differently: direct depthwise and pointwise QUInt8 chunked across two workers, no F16, no split decision",
        ops_per_second: 8,
        warmup_ops: 5,
        min_parallelism: 2,
        run: exec::run_single_mobilenet,
    },
    Workload {
        name: "replan_churn",
        why: "Planner only: 48 drift regimes against a 32-entry plan cache, so hits, incremental replans, scratch plans and evictions all occur",
        ops_per_second: 8192,
        warmup_ops: crate::gen::REGIMES,
        min_parallelism: 1,
        run: replan::run,
    },
    Workload {
        name: "fleet_storm",
        why: "Simulator host speed and simulated serving quality: 512 devices x 64 frames under a rolling GPU loss at 2x overload; kernels do nothing here",
        ops_per_second: 64,
        warmup_ops: 8,
        min_parallelism: 1,
        run: fleet::run,
    },
];

impl Workload {
    /// The workload called `name`.
    pub fn find(name: &str) -> Option<&'static Workload> {
        ALL.iter().find(|w| w.name == name)
    }

    /// Ops of the untraced pass under `opts`.
    pub fn timed_ops(&self, opts: &Opts) -> usize {
        self.ops_per_second * opts.seconds as usize
    }

    /// Ops of the traced pass under `opts`: a quarter of the timed ones.
    pub fn traced_ops(&self, opts: &Opts) -> usize {
        (self.timed_ops(opts) / 4).max(1)
    }

    /// Runs the workload. Refuses (with a message naming the workload) on a
    /// host with fewer cores than the workload has worker threads, instead
    /// of recording a time-shared "parallel" number.
    pub fn run(&self, opts: &Opts) -> Result<RunOutput, String> {
        let have = crate::sut::host().parallelism;
        if have < self.min_parallelism {
            return Err(format!(
                "{}: needs {} cores for its worker threads, this host offers {have}; refusing to report a time-shared number",
                self.name, self.min_parallelism
            ));
        }
        (self.run)(self, opts)
    }
}
