//! The parallel [`ExecBackend`]: real threads behind the plan evaluator.
//!
//! Each node's [`PartTask`] batch runs on the engine's pools: CPU-placed
//! parts on the CPU pool, whose first worker is the calling thread (it
//! runs under the backend's kernel path and gets its own path back),
//! GPU-placed parts on the GPU-emulating pool, concurrently (the §3.2
//! cooperative execution). Within a part, the backend cuts the channel
//! range into per-worker chunks — the plan's Filters/InputChannels
//! narrowing, one level finer — and splits the node's output view once
//! into every chunk's range. Each chunk writes its range *stored*
//! (`eval_part_task` converts to the plan's storage dtype on the thread
//! that computed it), so when the barrier returns the node's output is
//! complete: nothing is merged or copied. The chunk, range and
//! job-index buffers keep their capacity from node to node; besides the
//! split views, a node allocates only its timing record.
//!
//! Chunking preserves the numerics exactly: channel-wise kernels are
//! row-independent, and each element of a GEMM output is one ascending
//! accumulation chain whatever the row range. Every thread runs the same
//! kernels, so results in every dtype are bit-identical to the
//! sequential evaluator at any thread count. The integration tests pin
//! it.

use std::ops::Range;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use uruntime::{eval_part_task, ExecBackend, PartTask};
use usoc::{DeviceId, SocSpec};
use utensor::{TensorError, TensorViewMut};

use crate::pool::{Engine, ExecConfig};

/// How the engine's pools are used for a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolMode {
    /// CPU parts on the CPU pool, GPU parts on the GPU pool, running
    /// concurrently (μLayer's cooperative single-layer acceleration).
    Cooperative,
    /// Everything on the CPU pool (the single-processor baseline the
    /// measured speedup is reported against); no GPU pool is spawned.
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

/// One worker chunk of a node: its narrowed task, its range of the
/// node's output, its start and end offsets from submit, and its result.
struct Chunk<'a, 'o> {
    task: PartTask<'a>,
    out: TensorViewMut<'o>,
    span: (f64, f64),
    result: Result<(), TensorError>,
}

/// Buffers every node reuses. Their elements borrow one node's tasks and
/// output, so between nodes they are held empty as `'static`.
#[derive(Default)]
struct Scratch {
    ranges: Vec<Range<usize>>,
    cpu: Vec<usize>,
    gpu: Vec<usize>,
    chunks: Vec<Mutex<Chunk<'static, 'static>>>,
}

/// Empties `v` and returns its allocation as a `Vec<U>` for a `U` that
/// differs from `T` only in lifetimes (std collects a mapped
/// `vec::IntoIter` in place when the layouts agree).
fn recycle<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.into_iter().map(|_| unreachable!("empty")).collect()
}

/// An [`ExecBackend`] that runs parts on real worker threads.
pub struct ParallelBackend {
    engine: Engine,
    cfg: ExecConfig,
    mode: PoolMode,
    gpu_id: DeviceId,
    timings: Mutex<Vec<NodeTiming>>,
    scratch: Mutex<Scratch>,
}

impl ParallelBackend {
    /// Builds the backend for `spec`'s CPU/GPU pair. Workers take the
    /// config's kernel path (scalar or SIMD register tiles) once at
    /// spawn, the calling thread while it runs a node's CPU chunks; the
    /// choice is thread-local, so nothing outside the pools changes.
    pub fn new(spec: &SocSpec, cfg: &ExecConfig, mode: PoolMode) -> ParallelBackend {
        ParallelBackend {
            engine: Engine::new(cfg, mode == PoolMode::Cooperative),
            cfg: *cfg,
            mode,
            gpu_id: spec.gpu(),
            timings: Mutex::new(Vec::new()),
            scratch: Mutex::new(Scratch::default()),
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

    /// Every part's worker chunks, part-major so chunk order is channel
    /// order: a splittable part cut evenly into one narrower
    /// [`PartTask`] over the same borrows per worker of its pool (at most
    /// one per channel), any other part whole.
    fn chunk_tasks<'t, 'a>(
        &'t self,
        tasks: &'t [PartTask<'a>],
    ) -> impl Iterator<Item = PartTask<'a>> + 't {
        tasks.iter().flat_map(move |task| {
            let (gpu, cpu) = (self.cfg.gpu_threads, self.cfg.cpu_threads);
            let workers = if self.on_gpu(task.device) { gpu } else { cpu };
            let count = task
                .split
                .map_or(1, |(_, lo, hi)| workers.min(hi - lo).max(1));
            let at = move |lo: usize, hi: usize, c: usize| lo + (hi - lo) * c / count;
            (0..count).map(move |c| PartTask {
                split: task
                    .split
                    .map(|(axis, lo, hi)| (axis, at(lo, hi, c), at(lo, hi, c + 1))),
                ..task.clone()
            })
        })
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
        // Only the buffers' capacity outlives a node, so a poisoned lock
        // holds nothing stale.
        let mut scratch = self.scratch.lock().unwrap_or_else(PoisonError::into_inner);
        let s = &mut *scratch;
        // Each chunk writes its own channel range of `out`, on the pool
        // its device routes to.
        let channels = out.shape.dims().get(1).copied().unwrap_or(0);
        s.ranges.clear();
        s.cpu.clear();
        s.gpu.clear();
        for (i, chunk) in self.chunk_tasks(tasks).enumerate() {
            s.ranges
                .push(chunk.split.map_or(0..channels, |(_, lo, hi)| lo..hi));
            let pool = if self.on_gpu(chunk.device) {
                &mut s.gpu
            } else {
                &mut s.cpu
            };
            pool.push(i);
        }
        let views = out.split_ranges(1, &s.ranges)?;
        let mut slots: Vec<Mutex<Chunk<'_, '_>>> = recycle(std::mem::take(&mut s.chunks));
        slots.extend(self.chunk_tasks(tasks).zip(views).map(|(task, out)| {
            Mutex::new(Chunk {
                task,
                out,
                span: (0.0, 0.0),
                result: Ok(()),
            })
        }));

        // The layer barrier: both pools drained, every range written.
        let job = |i: usize| {
            let mut chunk = slots[i].lock().expect("each chunk runs once");
            let start = t0.elapsed().as_secs_f64();
            let Chunk { task, out, .. } = &mut *chunk;
            chunk.result = eval_part_task(task, out);
            chunk.span = (start, t0.elapsed().as_secs_f64());
        };
        self.engine.run_pair(&job, &s.cpu, &s.gpu);

        // A panicking job was re-raised at the barrier: no slot is
        // poisoned. The first error in channel order wins.
        let mut done = slots
            .iter_mut()
            .map(|slot| slot.get_mut().expect("no chunk panicked"));
        let result = done.try_for_each(|c| std::mem::replace(&mut c.result, Ok(())));
        if result.is_ok() {
            let parts: Vec<PartTiming> = tasks
                .iter()
                .map(|task| {
                    let (mut start, mut end, mut chunks) = (f64::INFINITY, 0.0f64, 0);
                    for slot in &mut slots {
                        let chunk = slot.get_mut().expect("no chunk panicked");
                        if chunk.task.part_index == task.part_index {
                            (start, end) = (start.min(chunk.span.0), end.max(chunk.span.1));
                            chunks += 1;
                        }
                    }
                    PartTiming {
                        part_index: task.part_index,
                        device: task.device,
                        seconds: (end - start).max(0.0),
                        chunks,
                    }
                })
                .collect();
            self.timings.lock().unwrap().push(NodeTiming {
                node: tasks[0].node.0,
                wall_s: t0.elapsed().as_secs_f64(),
                parts,
            });
        }
        s.chunks = recycle(slots);
        result
    }
}
