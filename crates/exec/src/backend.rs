//! The parallel [`ExecBackend`]: real threads behind the plan evaluator.
//!
//! Each node's [`PartTask`] batch is executed on the engine's worker
//! pools: CPU-placed parts on the CPU pool, GPU-placed parts on the
//! GPU-emulating pool, concurrently (the §3.2 cooperative execution).
//! Within a part, the backend subdivides the channel range into
//! per-worker chunks — the same Filters/InputChannels narrowing the plan
//! itself uses, one level finer — so a four-worker pool computes four
//! disjoint row blocks of the same GEMM. The node's output view is split
//! once into every chunk's disjoint channel range, and each chunk writes
//! its range *stored* (`eval_part_task` converts to the plan's storage
//! dtype on the worker that computed it — a GPU part's F16 → QUInt8
//! store runs on the GPU pool, concurrently with the CPU part), so when
//! the barrier returns the node's output is complete: nothing is merged
//! or copied afterwards.
//!
//! Chunking preserves the numerics exactly: every output channel is
//! computed by the same arithmetic regardless of which chunk owns it
//! (channel-wise kernels are row-independent, and each element of a
//! GEMM output is one ascending accumulation chain whatever the row
//! range). The workers run the same kernels as the calling thread, so
//! results in every dtype are bit-identical to the sequential evaluator
//! at any thread count. The integration tests pin it.

use std::sync::Mutex;
use std::time::Instant;

use uruntime::{eval_part_task, task_outputs, ExecBackend, PartTask};
use usoc::{DeviceId, SocSpec};
use utensor::{TensorError, TensorViewMut};

use crate::pool::{Engine, ExecConfig, ScopedTask};

/// How the engine's pools are used for a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolMode {
    /// CPU parts on the CPU pool, GPU parts on the GPU pool, running
    /// concurrently (μLayer's cooperative single-layer acceleration).
    Cooperative,
    /// Everything on the CPU pool (the single-processor baseline the
    /// measured speedup is reported against).
    SinglePool,
}

/// Wall-clock timing of one part within a node's barrier-to-barrier
/// execution.
#[derive(Clone, Debug)]
pub struct PartTiming {
    /// The part's index in the node placement.
    pub part_index: usize,
    /// The processor the plan assigned the part to.
    pub device: DeviceId,
    /// Wall span from the part's first chunk starting to its last chunk
    /// finishing, in seconds: load conversion + compute + store
    /// conversion, everything the part's device does for the layer.
    pub seconds: f64,
    /// Number of per-worker chunks the part was subdivided into.
    pub chunks: usize,
}

/// Wall-clock timing of one node (one layer barrier).
#[derive(Clone, Debug)]
pub struct NodeTiming {
    /// Graph node index.
    pub node: usize,
    /// Wall seconds from batch submit to the barrier (all parts done).
    pub wall_s: f64,
    /// Per-part spans.
    pub parts: Vec<PartTiming>,
}

/// An [`ExecBackend`] that runs parts on real worker threads.
pub struct ParallelBackend {
    engine: Engine,
    mode: PoolMode,
    gpu_id: DeviceId,
    timings: Mutex<Vec<NodeTiming>>,
}

impl ParallelBackend {
    /// Builds the backend for `spec`'s CPU/GPU pair. Workers take the
    /// config's kernel path (scalar or SIMD register tiles) once at
    /// spawn; the choice is thread-local, so nothing outside the pools
    /// changes.
    pub fn new(spec: &SocSpec, cfg: &ExecConfig, mode: PoolMode) -> ParallelBackend {
        let path = cfg.kernel_path;
        let engine = Engine::new(cfg, move || {
            ukernels::set_kernel_path(path);
        });
        ParallelBackend {
            engine,
            mode,
            gpu_id: spec.gpu(),
            timings: Mutex::new(Vec::new()),
        }
    }

    /// Drains the per-node timings recorded since the last call (in
    /// execution order). The measurement harness calls this after each
    /// forward pass.
    pub fn take_timings(&self) -> Vec<NodeTiming> {
        std::mem::take(&mut self.timings.lock().unwrap())
    }

    /// True when this task routes to the GPU pool.
    fn on_gpu(&self, device: DeviceId) -> bool {
        self.mode == PoolMode::Cooperative && device == self.gpu_id
    }

    /// Workers available to the pool `device` routes to.
    fn workers_for(&self, device: DeviceId) -> usize {
        if self.on_gpu(device) {
            self.engine.gpu().threads()
        } else {
            self.engine.cpu().threads()
        }
    }

    /// Subdivides one part's channel range into up to one chunk per
    /// worker of its pool (each chunk a narrower [`PartTask`] over the
    /// same borrows) and appends them to `chunks`. Non-splittable kinds
    /// and single-worker pools append the task unchanged.
    fn plan_chunks<'a>(&self, task: &PartTask<'a>, chunks: &mut Vec<PartTask<'a>>) {
        let workers = self.workers_for(task.device);
        match task.split {
            Some((axis, lo, hi)) if workers.min(hi - lo) > 1 => {
                let count = workers.min(hi - lo);
                let cuts = usoc::split_cuts(hi - lo, &vec![1.0 / count as f64; count]);
                chunks.extend(cuts.windows(2).filter(|c| c[0] < c[1]).map(|c| PartTask {
                    split: Some((axis, lo + c[0], lo + c[1])),
                    ..task.clone()
                }));
            }
            _ => chunks.push(task.clone()),
        }
    }
}

impl ExecBackend for ParallelBackend {
    fn name(&self) -> &str {
        match self.mode {
            PoolMode::Cooperative => "parallel-cooperative",
            PoolMode::SinglePool => "parallel-single-pool",
        }
    }

    fn run_node(
        &self,
        tasks: &[PartTask<'_>],
        out: &mut TensorViewMut<'_>,
    ) -> Result<(), TensorError> {
        if tasks.is_empty() {
            return Ok(());
        }
        let t0 = Instant::now();

        // Plan chunks for every part, flattened part-major, so chunk order
        // is channel order; each chunk gets its own range of `out`.
        let mut flat: Vec<PartTask<'_>> = Vec::new();
        for task in tasks {
            self.plan_chunks(task, &mut flat);
        }
        let views = task_outputs(&flat, out)?;

        let first_err: Mutex<Option<TensorError>> = Mutex::new(None);
        // (part index, start, end) offsets from t0, per chunk; a node's
        // tasks have distinct part indices.
        let spans: Mutex<Vec<(usize, f64, f64)>> = Mutex::new(Vec::new());

        let mut cpu_jobs: Vec<ScopedTask<'_>> = Vec::new();
        let mut gpu_jobs: Vec<ScopedTask<'_>> = Vec::new();
        for (sub, mut view) in flat.iter().zip(views) {
            let first_err = &first_err;
            let spans = &spans;
            let job: ScopedTask<'_> = Box::new(move || {
                let start = t0.elapsed().as_secs_f64();
                if let Err(e) = eval_part_task(sub, &mut view) {
                    first_err.lock().unwrap().get_or_insert(e);
                }
                let end = t0.elapsed().as_secs_f64();
                spans.lock().unwrap().push((sub.part_index, start, end));
            });
            if self.on_gpu(sub.device) {
                gpu_jobs.push(job);
            } else {
                cpu_jobs.push(job);
            }
        }

        // The layer barrier: both pools drained, every range written.
        self.engine.run_pair(cpu_jobs, gpu_jobs);

        if let Some(e) = first_err.into_inner().unwrap() {
            return Err(e);
        }
        let spans = spans.into_inner().unwrap();

        let part_timings = tasks
            .iter()
            .map(|task| {
                let (mut start, mut end) = (f64::INFINITY, 0.0f64);
                for &(p, s, e) in &spans {
                    if p == task.part_index {
                        start = start.min(s);
                        end = end.max(e);
                    }
                }
                PartTiming {
                    part_index: task.part_index,
                    device: task.device,
                    seconds: (end - start).max(0.0),
                    chunks: flat
                        .iter()
                        .filter(|c| c.part_index == task.part_index)
                        .count(),
                }
            })
            .collect();

        self.timings.lock().unwrap().push(NodeTiming {
            node: tasks[0].node.0,
            wall_s: t0.elapsed().as_secs_f64(),
            parts: part_timings,
        });
        Ok(())
    }
}
