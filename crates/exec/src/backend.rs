//! The parallel [`ExecBackend`]: real threads behind the plan evaluator.
//!
//! Each node's [`PartTask`] batch is executed on the engine's worker
//! pools: CPU-placed parts on the CPU pool, GPU-placed parts on the
//! GPU-emulating pool, concurrently (the §3.2 cooperative execution).
//! Within a part, the backend subdivides the channel range into
//! per-worker chunks — the same Filters/InputChannels slicing the plan
//! itself uses, one level finer — so a four-worker pool computes four
//! disjoint row blocks of the same GEMM. Every chunk comes back *stored*
//! (`eval_part_task` converts to the plan's storage dtype on the worker
//! that computed it — a GPU part's F16 → QUInt8 store runs on the GPU
//! pool, concurrently with the CPU part), so chunk outputs are
//! concatenated in channel order as they are.
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

use uruntime::{eval_part_task, ExecBackend, PartTask};
use usoc::{DeviceId, SocSpec};
use utensor::{Tensor, TensorError};

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

    /// Subdivides one part's channel range into up to `workers` chunks
    /// (each chunk a narrower [`PartTask`] over the same borrows).
    /// Non-splittable kinds and single-worker pools get the task back
    /// unchanged.
    fn plan_chunks<'a>(&self, task: &PartTask<'a>, workers: usize) -> Vec<PartTask<'a>> {
        let Some((axis, lo, hi)) = task.channel_range() else {
            return vec![task.clone()];
        };
        let n = hi - lo;
        let chunks = workers.min(n);
        if chunks <= 1 {
            return vec![task.clone()];
        }
        let fracs = vec![1.0 / chunks as f64; chunks];
        let cuts = usoc::split_cuts(n, &fracs);
        (0..chunks)
            .filter(|&c| cuts[c] < cuts[c + 1])
            .map(|c| {
                let mut sub = task.clone();
                sub.split = Some((axis, lo + cuts[c], lo + cuts[c + 1]));
                sub
            })
            .collect()
    }
}

impl ExecBackend for ParallelBackend {
    fn name(&self) -> &str {
        match self.mode {
            PoolMode::Cooperative => "parallel-cooperative",
            PoolMode::SinglePool => "parallel-single-pool",
        }
    }

    fn run_node(&self, tasks: &[PartTask<'_>]) -> Result<Vec<Tensor>, TensorError> {
        if tasks.is_empty() {
            return Ok(Vec::new());
        }
        let t0 = Instant::now();

        // Plan chunks for every part, flattened part-major so slot index
        // order matches (part, chunk) order.
        let mut chunk_counts = Vec::with_capacity(tasks.len());
        let mut flat: Vec<(usize, PartTask<'_>)> = Vec::new();
        for (pi, task) in tasks.iter().enumerate() {
            let chunks = self.plan_chunks(task, self.workers_for(task.device));
            chunk_counts.push(chunks.len());
            flat.extend(chunks.into_iter().map(|c| (pi, c)));
        }

        let slots: Vec<Mutex<Option<Tensor>>> = (0..flat.len()).map(|_| Mutex::new(None)).collect();
        let first_err: Mutex<Option<TensorError>> = Mutex::new(None);
        // (part index, start, end) offsets from t0, per chunk.
        let spans: Mutex<Vec<(usize, f64, f64)>> = Mutex::new(Vec::new());

        let mut cpu_jobs: Vec<ScopedTask<'_>> = Vec::new();
        let mut gpu_jobs: Vec<ScopedTask<'_>> = Vec::new();
        for (si, (pi, sub)) in flat.iter().enumerate() {
            let slots = &slots;
            let first_err = &first_err;
            let spans = &spans;
            let job: ScopedTask<'_> = Box::new(move || {
                let start = t0.elapsed().as_secs_f64();
                match eval_part_task(sub) {
                    Ok(t) => *slots[si].lock().unwrap() = Some(t),
                    Err(e) => {
                        let mut g = first_err.lock().unwrap();
                        if g.is_none() {
                            *g = Some(e);
                        }
                    }
                }
                let end = t0.elapsed().as_secs_f64();
                spans.lock().unwrap().push((*pi, start, end));
            });
            if self.on_gpu(sub.device) {
                gpu_jobs.push(job);
            } else {
                cpu_jobs.push(job);
            }
        }

        // The layer barrier: both pools drained before merging.
        self.engine.run_pair(cpu_jobs, gpu_jobs);

        if let Some(e) = first_err.into_inner().unwrap() {
            return Err(e);
        }
        let spans = spans.into_inner().unwrap();

        let mut outs = Vec::with_capacity(tasks.len());
        let mut part_timings = Vec::with_capacity(tasks.len());
        let mut base = 0;
        for (pi, task) in tasks.iter().enumerate() {
            let n = chunk_counts[pi];
            let mut chunks: Vec<Tensor> = Vec::with_capacity(n);
            for slot in &slots[base..base + n] {
                chunks.push(
                    slot.lock()
                        .unwrap()
                        .take()
                        .expect("no error reported, so every chunk produced a tensor"),
                );
            }
            base += n;
            outs.push(if chunks.len() == 1 {
                chunks.pop().expect("len checked")
            } else {
                let refs: Vec<&Tensor> = chunks.iter().collect();
                Tensor::concat_axis(1, &refs)?
            });
            let (mut start, mut end) = (f64::INFINITY, 0.0f64);
            for &(p, s, e) in &spans {
                if p == pi {
                    start = start.min(s);
                    end = end.max(e);
                }
            }
            part_timings.push(PartTiming {
                part_index: task.part_index,
                device: task.device,
                seconds: (end - start).max(0.0),
                chunks: n,
            });
        }

        self.timings.lock().unwrap().push(NodeTiming {
            node: tasks[0].node.0,
            wall_s: t0.elapsed().as_secs_f64(),
            parts: part_timings,
        });
        Ok(outs)
    }
}
