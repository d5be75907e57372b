//! Worker pools emulating the SoC's two compute clusters, and the layer
//! barrier that joins them.
//!
//! μLayer executes one layer's parts *simultaneously* on the big-core CPU
//! cluster and the GPU (§3.2, §6). On the host, each cluster becomes a
//! [`WorkerPool`] of persistent threads with its own run queue, and
//! [`Engine::run_pair`] hands a layer's CPU and GPU jobs to the two pools
//! and returns when *both* drained: the layer barrier, mirroring the
//! map/unmap sync points that end every cooperative layer in §6. The
//! barrier usually wakes nobody and never allocates:
//!
//! - The calling thread is the CPU pool's first worker (the pool spawns
//!   one thread fewer): it runs the first CPU job, then any CPU job no
//!   worker has started.
//! - A waiting thread (an idle worker, the caller at the join) spins on
//!   one atomic counter for [`SPIN`], then parks without losing a
//!   wake-up. A job handed over within the budget costs no system call.
//! - A batch lives on the caller's stack; a queue entry is a reference
//!   to it plus a job index, and the queues keep their capacity.
//!
//! Handing borrowed jobs to persistent threads is sound because
//! `run_pair` neither returns nor unwinds before every job of its batch
//! has finished. A job's panic is caught and re-raised on the caller
//! after that join, so a crashing kernel cannot poison a pool.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

use ukernels::{PathChoice, SimdTier};

/// How long a waiting thread spins before it parks: about the gap
/// between two layers, and short enough not to starve other work on
/// shared cores (parallel test binaries).
const SPIN: Duration = Duration::from_micros(100);

/// Pool sizes for the two clusters.
///
/// `UEXEC_THREADS` overrides both counts (the knob the `repro measure`
/// CLI exposes as `--threads=`); otherwise each pool gets
/// `min(available_parallelism, 4)` workers — four being the big-core
/// cluster size of both evaluated SoCs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecConfig {
    /// Workers in the CPU (big-core cluster) pool. The thread that runs
    /// a frame counts as one of them, so the pool spawns one fewer.
    pub cpu_threads: usize,
    /// Workers in the GPU-emulating pool.
    pub gpu_threads: usize,
    /// Requested inner-kernel path for every worker of both pools, the
    /// calling thread included while it runs CPU jobs: a tier cap,
    /// resolved against runtime CPU detection when the pools start.
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

/// Spins until `ready` holds or [`SPIN`] has passed; returns `ready`'s
/// last answer.
fn spin_until(ready: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + SPIN;
    while !ready() {
        if Instant::now() >= deadline {
            return false;
        }
        std::hint::spin_loop();
    }
    true
}

/// One batch of jobs in flight on both pools, on the caller's stack.
struct Batch<'s> {
    job: &'s (dyn Fn(usize) + Sync),
    /// Jobs queued or running; a job's decrement is its last access to
    /// the batch.
    remaining: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    caller: Thread,
}

impl Batch<'_> {
    /// Runs job `index`, keeping its panic for the caller.
    fn run(&self, index: usize) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.job)(index))) {
            let mut first = self.panic.lock().unwrap_or_else(PoisonError::into_inner);
            first.get_or_insert(payload);
        }
        let caller = self.caller.clone();
        // Release pairs with `join`'s Acquire: the caller sees the job's
        // writes.
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            caller.unpark();
        }
    }

    /// Blocks the caller until every job has run: spins, then parks. A
    /// job finishing between the check and `park` leaves an unpark
    /// token, so `park` returns at once.
    fn join(&self) {
        let done = || self.remaining.load(Ordering::Acquire) == 0;
        while !spin_until(done) {
            std::thread::park();
        }
    }
}

/// A batch outlives its jobs however `run_pair` leaves, unwinding
/// included.
impl Drop for Batch<'_> {
    fn drop(&mut self) {
        self.join();
    }
}

/// A queued job: its batch, lifetime erased by `run_pair`, and index.
type Job = (&'static Batch<'static>, usize);

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    /// Workers waiting on the condvar.
    parked: usize,
}

#[derive(Default)]
struct PoolShared {
    queue: Mutex<Queue>,
    wake: Condvar,
    /// `jobs.len()`, stored under the lock for spinning threads to read
    /// without it; it publishes nothing, jobs are taken under the lock.
    queued: AtomicUsize,
    shutdown: AtomicBool,
}

impl PoolShared {
    /// Every update leaves the queue whole, so a poisoned lock is still
    /// a valid queue.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Counts jobs `indices` into `batch`, queues them and wakes as many
    /// parked workers.
    fn push(&self, batch: &'static Batch<'static>, indices: &[usize]) {
        if indices.is_empty() {
            return;
        }
        batch.remaining.fetch_add(indices.len(), Ordering::AcqRel);
        let mut queue = self.lock();
        queue.jobs.extend(indices.iter().map(|&i| (batch, i)));
        self.queued.store(queue.jobs.len(), Ordering::Relaxed);
        let parked = queue.parked.min(indices.len());
        drop(queue);
        (0..parked).for_each(|_| self.wake.notify_one());
    }

    /// Takes a queued job without waiting.
    fn pop(&self) -> Option<Job> {
        if self.queued.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let mut queue = self.lock();
        let job = queue.jobs.pop_front();
        self.queued.store(queue.jobs.len(), Ordering::Relaxed);
        job
    }

    /// The next job, spinning then parking while there is none; `None`
    /// once the pool shuts down.
    fn next(&self) -> Option<Job> {
        let stop = || self.shutdown.load(Ordering::SeqCst);
        loop {
            if let Some(job) = self.pop() {
                return Some(job);
            } else if stop() {
                return None;
            } else if spin_until(|| self.queued.load(Ordering::Relaxed) > 0 || stop()) {
                continue;
            }
            // `push` reads `parked` under the lock after queueing and
            // `Drop` takes the lock after raising `shutdown`, so neither
            // wake-up falls between this check and the wait.
            let mut queue = self.lock();
            queue.parked += 1;
            while queue.jobs.is_empty() && !stop() {
                queue = self
                    .wake
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            queue.parked -= 1;
        }
    }
}

/// A named pool of persistent worker threads with one run queue.
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `threads` workers (none is allowed: the caller then runs
    /// every job). `init` runs once on each worker before it starts
    /// pulling jobs — the exec backend sets the worker's kernel path.
    ///
    /// Returns only after every worker has run `init`, so a first batch
    /// is never timed against thread start-up. A panic in `init` is
    /// re-raised here.
    pub(crate) fn new(name: &str, threads: usize, init: impl Fn() + Send + Sync + 'static) -> Self {
        let shared = Arc::new(PoolShared::default());
        let (init, (started, up)) = (Arc::new(init), mpsc::channel());
        let spawn = |w| {
            let (shared, init, started) = (shared.clone(), init.clone(), started.clone());
            let worker = move || {
                let ok = catch_unwind(AssertUnwindSafe(|| init()));
                let ready = ok.is_ok();
                // The constructor waits for one message per worker.
                let _ = started.send(ok);
                if ready {
                    while let Some((batch, index)) = shared.next() {
                        batch.run(index);
                    }
                }
            };
            let builder = std::thread::Builder::new().name(format!("uexec-{name}-{w}"));
            builder.spawn(worker).expect("spawn pool worker")
        };
        let workers = (0..threads).map(spawn).collect();
        // Built before the wait so a re-raised `init` panic still joins
        // the surviving workers through `Drop`.
        let pool = WorkerPool { shared, workers };
        if let Some(Err(payload)) = up.iter().take(threads).find(Result::is_err) {
            resume_unwind(payload);
        }
        pool
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        drop(self.shared.lock());
        self.shared.wake.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// The two-cluster execution engine: a CPU pool whose first worker is
/// the calling thread, and a GPU pool.
pub(crate) struct Engine {
    cpu: WorkerPool,
    /// `None` when every job runs on the CPU pool.
    gpu: Option<WorkerPool>,
    tier: SimdTier,
}

impl Engine {
    /// Spawns `cfg.cpu_threads − 1` CPU workers and, when `gpu_pool`,
    /// `cfg.gpu_threads` GPU workers, each capped at `cfg.kernel_path`'s
    /// tier (the cap is thread-local: it picks the register tiles the
    /// worker runs).
    pub(crate) fn new(cfg: &ExecConfig, gpu_pool: bool) -> Engine {
        let tier = cfg.kernel_path.resolve();
        let init = move || _ = ukernels::set_kernel_path(tier);
        let cpu = WorkerPool::new("cpu", cfg.cpu_threads.saturating_sub(1), init);
        let gpu = gpu_pool.then(|| WorkerPool::new("gpu", cfg.gpu_threads.max(1), init));
        Engine { cpu, gpu, tier }
    }

    /// Runs `job(i)` for every `i` of `cpu` on the CPU pool — the first
    /// on the calling thread, under the engine's tier cap, which the
    /// caller gets back before the join — and of `gpu` on the GPU pool
    /// (the CPU pool without one), concurrently, and returns when all
    /// have finished: one layer ending at its barrier. The first panic
    /// of any job is re-raised here, after that join.
    pub(crate) fn run_pair(&self, job: &(dyn Fn(usize) + Sync), cpu: &[usize], gpu: &[usize]) {
        let (remaining, panic) = (AtomicUsize::new(0), Mutex::new(None));
        let caller = std::thread::current();
        let batch = Batch {
            job,
            remaining,
            panic,
            caller,
        };
        // SAFETY: the erased reference goes only into the pools' queues.
        // Each job holding it is counted into `remaining` before it is
        // queued and decrements it as its last access to the batch
        // (`Batch::run`). `batch` waits for zero before it goes out of
        // scope, on unwinding too (`Drop`), and so before the `job` it
        // borrows can. No queued reference outlives what it points to.
        let erased: &'static Batch<'static> =
            unsafe { std::mem::transmute::<&Batch<'_>, &'static Batch<'static>>(&batch) };
        let gpu_pool = self.gpu.as_ref().unwrap_or(&self.cpu);
        gpu_pool.shared.push(erased, gpu);
        if let Some((&first, rest)) = cpu.split_first() {
            self.cpu.shared.push(erased, rest);
            batch.remaining.fetch_add(1, Ordering::AcqRel);
            // `Batch::run` catches panics, so the caller's path is
            // always restored.
            let own = ukernels::set_kernel_path(self.tier);
            batch.run(first);
            while let Some((queued, index)) = self.cpu.shared.pop() {
                queued.run(index);
            }
            ukernels::set_kernel_path(own);
        }
        batch.join();
        let panic = batch
            .panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An engine with `cpu` CPU workers (caller included) and `gpu` GPU
    /// workers.
    fn engine(cpu: usize, gpu: usize) -> Engine {
        let mut cfg = ExecConfig::with_threads(cpu);
        cfg.gpu_threads = gpu;
        Engine::new(&cfg, gpu > 0)
    }

    /// Runs jobs `[0, 1]` on the CPU pool and `[2]` on the GPU pool;
    /// returns how many ran.
    fn three_jobs(engine: &Engine) -> usize {
        let ran = AtomicUsize::new(0);
        engine.run_pair(&|_| _ = ran.fetch_add(1, Ordering::SeqCst), &[0, 1], &[2]);
        ran.into_inner()
    }

    /// Longer than the spin budget, so waiting threads park.
    const PAST_SPIN: Duration = Duration::from_millis(5);

    #[test]
    fn config_clamps_and_reads_threads() {
        assert_eq!(ExecConfig::with_threads(0).cpu_threads, 1);
        let c = ExecConfig::with_threads(3);
        assert_eq!((c.cpu_threads, c.gpu_threads), (3, 3));
    }

    #[test]
    fn pool_runs_borrowed_tasks_to_completion() {
        let hits: Vec<AtomicUsize> = (0..16).map(|_| AtomicUsize::new(0)).collect();
        let all: Vec<usize> = (0..16).collect();
        engine(3, 0).run_pair(&|i| _ = hits[i].fetch_add(1, Ordering::SeqCst), &all, &[]);
        // `run_pair` returned, so every job ran once and every borrow of
        // `hits` is finished.
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn pool_reuses_persistent_workers_across_batches() {
        let engine = engine(2, 1);
        for pause in [Duration::ZERO, PAST_SPIN, Duration::ZERO, PAST_SPIN] {
            // After a pause past the spin budget both workers have
            // parked; only a wake-up lets the GPU job run, as no other
            // thread takes GPU jobs.
            std::thread::sleep(pause);
            assert_eq!(three_jobs(&engine), 3);
        }
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let engine = engine(2, 1);
        // Job 0 runs on the caller, 1 on the CPU worker or the caller, 2
        // on the GPU worker. One panics at once; another sleeps past the
        // spin budget, then writes a borrow the panic must not outrun.
        for (panicking, slow) in [(0, 2), (2, 1), (1, 2)] {
            let written = AtomicUsize::new(0);
            let job = |i: usize| {
                assert_ne!(i, panicking, "job {i} exploded");
                if i == slow {
                    std::thread::sleep(PAST_SPIN);
                    written.store(1, Ordering::SeqCst);
                }
            };
            let caught = catch_unwind(AssertUnwindSafe(|| engine.run_pair(&job, &[0, 1], &[2])));
            assert!(
                caught.is_err(),
                "job {panicking}'s panic reaches the caller"
            );
            assert_eq!(written.into_inner(), 1, "the panic beat job {slow}");
            // Both pools serve the next batch.
            assert_eq!(three_jobs(&engine), 3);
        }
    }

    #[test]
    fn run_pair_joins_both_pools() {
        let done: Vec<AtomicUsize> = (0..16).map(|_| AtomicUsize::new(0)).collect();
        let (cpu, gpu): (Vec<usize>, Vec<usize>) = (0..16).partition(|&i| i < 8);
        let job = |i: usize| {
            // A GPU job runs on a GPU worker, never on the CPU side.
            let name = std::thread::current().name().unwrap_or("").to_string();
            assert_eq!(i >= 8, name.starts_with("uexec-gpu"), "job {i} on {name}");
            done[i].fetch_add(1, Ordering::SeqCst);
        };
        engine(2, 2).run_pair(&job, &cpu, &gpu);
        assert!(done.iter().all(|d| d.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn init_runs_on_every_worker() {
        let inits = Arc::new(AtomicUsize::new(0));
        let i2 = Arc::clone(&inits);
        let _pool = WorkerPool::new("t", 3, move || _ = i2.fetch_add(1, Ordering::SeqCst));
        // `new` is a start-up latch: no batch needed to know all three
        // workers are up.
        assert_eq!(inits.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn init_panic_reaches_the_constructor() {
        let caught = catch_unwind(|| WorkerPool::new("t", 2, || panic!("init exploded")));
        assert!(caught.is_err(), "an init panic must not leave a dead pool");
    }

    #[test]
    fn dropping_an_engine_joins_spinning_and_parked_workers() {
        for idle in [Duration::ZERO, PAST_SPIN] {
            let engine = engine(2, 1);
            three_jobs(&engine);
            std::thread::sleep(idle);
            let t0 = Instant::now();
            drop(engine);
            assert!(t0.elapsed() < Duration::from_secs(2), "{idle:?} idle");
        }
    }
}
