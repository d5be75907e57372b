//! Scoped worker pools emulating the SoC's two compute clusters.
//!
//! μLayer executes one layer's parts *simultaneously* on the big-core CPU
//! cluster and the GPU (§3.2, §6). On the host, each cluster becomes a
//! [`WorkerPool`] of persistent threads with its own run queue; the
//! [`Engine`] owns one pool per cluster and offers [`Engine::run_pair`],
//! which submits a CPU batch and a GPU batch together and blocks until
//! *both* drained — the join is the layer barrier, mirroring the map/unmap
//! sync points that end every cooperative layer in the real runtime.
//!
//! The pools run borrowed (scoped) closures: `run`/`run_pair` block until
//! every submitted task has finished, which is what makes handing a
//! non-`'static` closure to a persistent thread sound. Worker panics are
//! caught per-task and re-raised on the submitting thread after the
//! batch drains, so a crashing kernel cannot poison the pool or deadlock
//! the barrier.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use ukernels::PathChoice;

/// A borrowed task: valid for `'s`, run to completion before the
/// submitting call returns.
pub(crate) type ScopedTask<'s> = Box<dyn FnOnce() + Send + 's>;

type StaticTask = Box<dyn FnOnce() + Send + 'static>;

/// Pool sizes for the two clusters.
///
/// `UEXEC_THREADS` overrides both counts (the knob the `repro measure`
/// CLI exposes as `--threads=`); otherwise each pool gets
/// `min(available_parallelism, 4)` workers — four being the big-core
/// cluster size of both evaluated SoCs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecConfig {
    /// Workers in the CPU (big-core cluster) pool.
    pub cpu_threads: usize,
    /// Workers in the GPU-emulating pool.
    pub gpu_threads: usize,
    /// Requested inner-kernel path for every worker of both pools
    /// (resolved against runtime CPU detection at the register tile).
    pub kernel_path: PathChoice,
}

impl ExecConfig {
    /// Both pools sized to `threads` (clamped to at least 1), kernel
    /// path from the environment (`UKERNELS_KERNEL_PATH`, else auto).
    pub fn with_threads(threads: usize) -> ExecConfig {
        let t = threads.max(1);
        ExecConfig {
            cpu_threads: t,
            gpu_threads: t,
            kernel_path: PathChoice::from_env(),
        }
    }

    /// Returns the config with the kernel path replaced.
    pub fn with_kernel_path(mut self, path: PathChoice) -> ExecConfig {
        self.kernel_path = path;
        self
    }

    /// Reads `UEXEC_THREADS`, falling back to
    /// `min(available_parallelism, 4)`.
    pub fn from_env() -> ExecConfig {
        let t = std::env::var("UEXEC_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&t| t >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|p| p.get().min(4))
                    .unwrap_or(1)
            });
        ExecConfig::with_threads(t)
    }
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig::from_env()
    }
}

/// One batch in flight: tasks remaining and any panic payloads.
struct Batch {
    remaining: Mutex<usize>,
    drained: Condvar,
    panics: Mutex<Vec<Box<dyn std::any::Any + Send>>>,
}

impl Batch {
    fn new(n: usize) -> Arc<Batch> {
        Arc::new(Batch {
            remaining: Mutex::new(n),
            drained: Condvar::new(),
            panics: Mutex::new(Vec::new()),
        })
    }

    fn task_done(&self) {
        let mut r = self.remaining.lock().unwrap();
        *r -= 1;
        if *r == 0 {
            self.drained.notify_all();
        }
    }

    fn wait(&self) {
        let mut r = self.remaining.lock().unwrap();
        while *r > 0 {
            r = self.drained.wait(r).unwrap();
        }
    }

    /// Re-raises the first captured worker panic, if any.
    fn propagate(&self) {
        let first = {
            let mut panics = self.panics.lock().unwrap();
            if panics.is_empty() {
                None
            } else {
                Some(panics.remove(0))
            }
        };
        if let Some(payload) = first {
            resume_unwind(payload);
        }
    }
}

struct PoolShared {
    queue: Mutex<VecDeque<StaticTask>>,
    available: Condvar,
    shutdown: AtomicBool,
}

/// A named pool of persistent worker threads with one run queue.
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `threads` workers (at least one). `init` runs once on each
    /// worker before it starts pulling tasks — the exec backend uses it
    /// to switch the worker's kernels to the blocked implementations.
    ///
    /// Returns only after every worker has run `init`, so a first batch
    /// is never timed against thread start-up. A panic in `init` is
    /// re-raised here.
    pub(crate) fn new(
        name: &str,
        threads: usize,
        init: impl Fn() + Send + Sync + 'static,
    ) -> WorkerPool {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let threads = threads.max(1);
        let init = Arc::new(init);
        // The start-up latch: one "task" per worker, done when its
        // `init` has returned (or panicked).
        let started = Batch::new(threads);
        let workers = (0..threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let init = Arc::clone(&init);
                let started = Arc::clone(&started);
                std::thread::Builder::new()
                    .name(format!("uexec-{name}-{w}"))
                    .spawn(move || match catch_unwind(AssertUnwindSafe(|| init())) {
                        Ok(()) => {
                            started.task_done();
                            worker_loop(&shared);
                        }
                        Err(payload) => {
                            started.panics.lock().unwrap().push(payload);
                            started.task_done();
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        // Built before the wait so a re-raised `init` panic still joins
        // the surviving workers through `Drop`.
        let pool = WorkerPool { shared, workers };
        started.wait();
        started.propagate();
        pool
    }

    /// The number of worker threads.
    pub(crate) fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Runs a batch of borrowed tasks to completion (the single-pool
    /// layer barrier). Panics from workers are re-raised here.
    #[cfg(test)]
    pub(crate) fn run<'s>(&self, tasks: Vec<ScopedTask<'s>>) {
        let batch = Batch::new(tasks.len());
        self.submit(tasks, &batch);
        batch.wait();
        batch.propagate();
    }

    /// Enqueues a batch without waiting. Callers must `wait` on the batch
    /// before the tasks' borrows end — `run`/`run_pair` do exactly that.
    fn submit<'s>(&self, tasks: Vec<ScopedTask<'s>>, batch: &Arc<Batch>) {
        let mut queue = self.shared.queue.lock().unwrap();
        for task in tasks {
            // SAFETY: every path that submits also blocks on
            // `batch.wait()` before returning (see `run` / `run_pair`),
            // so the task cannot be referenced after `'s` ends.
            let task: StaticTask =
                unsafe { std::mem::transmute::<ScopedTask<'s>, StaticTask>(task) };
            let b = Arc::clone(batch);
            queue.push_back(Box::new(move || {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
                    b.panics.lock().unwrap().push(payload);
                }
                b.task_done();
            }));
        }
        drop(queue);
        self.shared.available.notify_all();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let task = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(task) = queue.pop_front() {
                    break task;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared.available.wait(queue).unwrap();
            }
        };
        task();
    }
}

/// The two-cluster execution engine: a CPU pool and a GPU pool.
pub(crate) struct Engine {
    cpu: WorkerPool,
    gpu: WorkerPool,
}

impl Engine {
    /// Builds the two pools. `init` runs once on every worker of both
    /// pools.
    pub(crate) fn new(cfg: &ExecConfig, init: impl Fn() + Send + Sync + Clone + 'static) -> Engine {
        Engine {
            cpu: WorkerPool::new("cpu", cfg.cpu_threads, init.clone()),
            gpu: WorkerPool::new("gpu", cfg.gpu_threads, init),
        }
    }

    /// The CPU (big-core cluster) pool.
    pub(crate) fn cpu(&self) -> &WorkerPool {
        &self.cpu
    }

    /// The GPU-emulating pool.
    pub(crate) fn gpu(&self) -> &WorkerPool {
        &self.gpu
    }

    /// Runs a CPU batch and a GPU batch *concurrently* and blocks until
    /// both drained — one cooperative layer execution ending at its
    /// barrier. Panics from either pool are re-raised here.
    pub(crate) fn run_pair<'s>(
        &self,
        cpu_tasks: Vec<ScopedTask<'s>>,
        gpu_tasks: Vec<ScopedTask<'s>>,
    ) {
        let cpu_batch = Batch::new(cpu_tasks.len());
        let gpu_batch = Batch::new(gpu_tasks.len());
        self.cpu.submit(cpu_tasks, &cpu_batch);
        self.gpu.submit(gpu_tasks, &gpu_batch);
        cpu_batch.wait();
        gpu_batch.wait();
        cpu_batch.propagate();
        gpu_batch.propagate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn config_clamps_and_reads_threads() {
        assert_eq!(ExecConfig::with_threads(0).cpu_threads, 1);
        let c = ExecConfig::with_threads(3);
        assert_eq!((c.cpu_threads, c.gpu_threads), (3, 3));
    }

    #[test]
    fn pool_runs_borrowed_tasks_to_completion() {
        let pool = WorkerPool::new("t", 2, || {});
        let hits = AtomicUsize::new(0);
        let tasks: Vec<ScopedTask<'_>> = (0..16)
            .map(|_| {
                Box::new(|| {
                    hits.fetch_add(1, Ordering::SeqCst);
                }) as ScopedTask<'_>
            })
            .collect();
        pool.run(tasks);
        // `run` returned, so every borrow of `hits` is finished.
        assert_eq!(hits.load(Ordering::SeqCst), 16);
        assert_eq!(pool.threads(), 2);
    }

    #[test]
    fn pool_reuses_persistent_workers_across_batches() {
        let pool = WorkerPool::new("t", 1, || {});
        let count = AtomicUsize::new(0);
        for _ in 0..10 {
            pool.run(vec![Box::new(|| {
                count.fetch_add(1, Ordering::SeqCst);
            })]);
        }
        assert_eq!(count.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new("t", 2, || {});
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(vec![Box::new(|| panic!("kernel exploded"))]);
        }));
        assert!(caught.is_err(), "panic must reach the submitter");
        // The pool still works afterwards.
        let ok = AtomicUsize::new(0);
        pool.run(vec![Box::new(|| {
            ok.fetch_add(1, Ordering::SeqCst);
        })]);
        assert_eq!(ok.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn run_pair_joins_both_pools() {
        let engine = Engine::new(&ExecConfig::with_threads(2), || {});
        let cpu_done = AtomicUsize::new(0);
        let gpu_done = AtomicUsize::new(0);
        let cpu: Vec<ScopedTask<'_>> = (0..8)
            .map(|_| {
                Box::new(|| {
                    cpu_done.fetch_add(1, Ordering::SeqCst);
                }) as ScopedTask<'_>
            })
            .collect();
        let gpu: Vec<ScopedTask<'_>> = (0..8)
            .map(|_| {
                Box::new(|| {
                    gpu_done.fetch_add(1, Ordering::SeqCst);
                }) as ScopedTask<'_>
            })
            .collect();
        engine.run_pair(cpu, gpu);
        assert_eq!(cpu_done.load(Ordering::SeqCst), 8);
        assert_eq!(gpu_done.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn init_runs_on_every_worker() {
        let inits = Arc::new(AtomicUsize::new(0));
        let i2 = Arc::clone(&inits);
        let pool = WorkerPool::new("t", 3, move || {
            i2.fetch_add(1, Ordering::SeqCst);
        });
        // `new` is a start-up latch: no batch needed to know all three
        // workers are up.
        assert_eq!(inits.load(Ordering::SeqCst), 3);
        assert_eq!(pool.threads(), 3);
    }

    #[test]
    fn init_panic_reaches_the_constructor() {
        let caught = catch_unwind(|| WorkerPool::new("t", 2, || panic!("init exploded")));
        assert!(caught.is_err(), "an init panic must not leave a dead pool");
    }
}
