//! Wall-clock measurement of plan execution on the worker pools.
//!
//! The simulator half of the repo *models* latency; this harness
//! *measures* it: it runs a cooperative plan and a single-processor
//! plan through the [`ParallelBackend`] on real threads, times every
//! layer barrier, and pairs each part's wall time with the analytic work
//! summary (`usoc::layer_work`) of the share the part ran: the realized
//! whole-channel share of the plan's layout, not its nominal fraction.
//! The paired samples feed `LatencyPredictor::fit_from_measurements`,
//! closing the loop the paper closes on real hardware: the predictor is
//! calibrated from the same timer the runtime schedules by.
//!
//! Each plan runs `repeat` times and the fastest repetition is kept
//! (standard practice for wall-clock microbenchmarks — the minimum is
//! the least noisy estimator of the achievable time). Calibration
//! samples apply the same principle per part: each part's sample is its
//! *minimum* wall time across the repetitions (scheduler hiccups on a
//! shared host otherwise swamp the microsecond-scale kernels), and both
//! plans contribute — the single-pool run adds whole-layer (frac = 1.0)
//! points the split cooperative run never produces, which is what lets
//! small (device, class, dtype) groups constrain a slope.

use unn::{Calibration, Graph, Weights};
use uruntime::{evaluate_plan_with_backend, execute_plan, ExecutionPlan, PlanLayout, RunError};
use usoc::{DeviceId, SocSpec, WorkClass};
use utensor::{DType, Tensor, TensorError};

use ukernels::PathChoice;

use crate::backend::{NodeTiming, ParallelBackend, PoolMode};
use crate::pool::ExecConfig;

/// Knobs of one measurement run.
#[derive(Clone, Copy, Debug)]
pub struct MeasureConfig {
    /// Worker threads per pool.
    pub threads: usize,
    /// Repetitions per plan (best-of). Clamped to at least 1.
    pub repeat: usize,
    /// Requested kernel path for the worker pools (`--kernel-path`):
    /// which register tiles the kernels run.
    pub kernel_path: PathChoice,
}

impl Default for MeasureConfig {
    fn default() -> MeasureConfig {
        MeasureConfig {
            threads: ExecConfig::from_env().cpu_threads,
            repeat: 3,
            kernel_path: PathChoice::from_env(),
        }
    }
}

/// Errors of the measurement harness.
#[derive(Debug)]
pub enum MeasureError {
    /// Numeric evaluation failed.
    Tensor(TensorError),
    /// The modeled (simulated) run failed.
    Run(RunError),
}

impl std::fmt::Display for MeasureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeasureError::Tensor(e) => write!(f, "measurement evaluation failed: {e}"),
            MeasureError::Run(e) => write!(f, "modeled run failed: {e}"),
        }
    }
}

impl std::error::Error for MeasureError {}

impl From<TensorError> for MeasureError {
    fn from(e: TensorError) -> MeasureError {
        MeasureError::Tensor(e)
    }
}

impl From<RunError> for MeasureError {
    fn from(e: RunError) -> MeasureError {
        MeasureError::Run(e)
    }
}

/// One measured part execution paired with its analytic work summary —
/// the unit the predictor's measurement-fit consumes.
#[derive(Clone, Debug)]
pub struct PartSample {
    /// Graph node index.
    pub node: usize,
    /// Node name.
    pub name: String,
    /// Layer operation name.
    pub kind: String,
    /// The processor the plan assigned the part to.
    pub device: DeviceId,
    /// Kernel class of the work.
    pub class: WorkClass,
    /// Dtype the arithmetic ran in.
    pub compute_dtype: DType,
    /// Multiply-accumulates of the part.
    pub macs: u64,
    /// Total bytes moved by the part.
    pub bytes: u64,
    /// Measured wall seconds of the part.
    pub seconds: f64,
}

/// Per-layer wall times under both pool modes.
#[derive(Clone, Debug)]
pub struct LayerRow {
    /// Graph node index.
    pub node: usize,
    /// Node name.
    pub name: String,
    /// Layer operation name.
    pub kind: String,
    /// Wall seconds of the layer barrier under the cooperative plan.
    pub coop_s: f64,
    /// Wall seconds under the single-processor plan.
    pub single_s: f64,
}

/// The result of one measurement run.
#[derive(Clone, Debug)]
pub struct MeasureReport {
    /// Network name.
    pub model: String,
    /// Worker threads per pool.
    pub threads: usize,
    /// Repetitions per plan.
    pub repeat: usize,
    /// `available_parallelism` of the measuring host — on a single-core
    /// host the two pools time-share and cooperative execution cannot
    /// beat the single pool, so consumers gate the speedup expectation
    /// on this.
    pub host_parallelism: usize,
    /// Requested kernel path (`auto`, `scalar` or a tier name).
    pub kernel_path_requested: String,
    /// The tier the workers actually ran after runtime CPU feature
    /// detection (`scalar`, `avx2`, `avx512` or `avx512fp16`) — a request
    /// above the host's widest tier runs that tier.
    pub kernel_path: String,
    /// Detected CPU features relevant to the SIMD tiles (diagnostics).
    pub cpu_features: String,
    /// Labels of the two plans.
    pub coop_label: String,
    /// Label of the single-processor plan.
    pub single_label: String,
    /// Best-of-`repeat` total wall seconds of the cooperative plan.
    pub coop_total_s: f64,
    /// Best-of-`repeat` total wall seconds of the single-processor plan.
    pub single_total_s: f64,
    /// `single_total_s / coop_total_s` (measured on this host).
    pub measured_speedup: f64,
    /// The same ratio from the simulator's latency model.
    pub modeled_speedup: f64,
    /// Per-layer wall times (from the best repetitions).
    pub layers: Vec<LayerRow>,
    /// Per-part samples from every repetition of both plans, for
    /// predictor calibration.
    pub samples: Vec<PartSample>,
}

/// Sum of node wall times of one repetition.
fn total_wall(timings: &[NodeTiming]) -> f64 {
    timings.iter().map(|t| t.wall_s).sum()
}

/// Runs `plan` `repeat` times on `backend`, returning the per-node
/// timings of the fastest repetition plus every repetition's timings
/// (for calibration sampling).
#[allow(clippy::type_complexity)]
fn run_reps(
    graph: &Graph,
    plan: &ExecutionPlan,
    weights: &Weights,
    calib: &Calibration,
    input: &Tensor,
    backend: &ParallelBackend,
    repeat: usize,
) -> Result<(Vec<NodeTiming>, Vec<Vec<NodeTiming>>), TensorError> {
    let mut reps: Vec<Vec<NodeTiming>> = Vec::with_capacity(repeat.max(1));
    for _ in 0..repeat.max(1) {
        evaluate_plan_with_backend(graph, plan, weights, calib, input, backend)?;
        reps.push(backend.take_timings());
    }
    let best = reps
        .iter()
        .min_by(|a, b| total_wall(a).total_cmp(&total_wall(b)))
        .expect("repeat >= 1")
        .clone();
    Ok((best, reps))
}

/// Per-node, per-part minimum wall times across repetitions — the
/// least-noisy per-part estimate (every repetition runs the identical
/// plan, so the timing vectors line up index for index).
fn min_timings(reps: &[Vec<NodeTiming>]) -> Vec<NodeTiming> {
    let mut out = reps[0].clone();
    for rep in &reps[1..] {
        for (acc, t) in out.iter_mut().zip(rep) {
            debug_assert_eq!(acc.node, t.node);
            acc.wall_s = acc.wall_s.min(t.wall_s);
            for (ap, tp) in acc.parts.iter_mut().zip(&t.parts) {
                debug_assert_eq!(ap.part_index, tp.part_index);
                ap.seconds = ap.seconds.min(tp.seconds);
            }
        }
    }
    out
}

/// Pairs every part span in `reps` with the analytic work summary of
/// what the part ran — its realized share in the plan's `layout` — and
/// appends the samples to `out`.
fn collect_samples(
    graph: &Graph,
    layout: &PlanLayout,
    reps: &[Vec<NodeTiming>],
    out: &mut Vec<PartSample>,
) {
    for timing in reps.iter().flatten() {
        let node = &graph.nodes()[timing.node];
        let nl = &layout.nodes[timing.node];
        for part in &timing.parts {
            let p = &nl.parts[part.part_index];
            let work = usoc::layer_work(&node.kind, &nl.input, &nl.output, p.dtypes, p.share);
            out.push(PartSample {
                node: timing.node,
                name: node.name.clone(),
                kind: node.kind.op_name().to_string(),
                device: part.device,
                class: work.class,
                compute_dtype: work.compute_dtype,
                macs: work.macs,
                bytes: work.total_bytes(),
                seconds: part.seconds,
            });
        }
    }
}

/// Measures `coop_plan` against `single_plan` on the worker pools and
/// reports measured and modeled speedups plus per-part samples for
/// predictor calibration.
#[allow(clippy::too_many_arguments)]
pub fn measure(
    spec: &SocSpec,
    graph: &Graph,
    weights: &Weights,
    calib: &Calibration,
    input: &Tensor,
    coop_plan: &ExecutionPlan,
    single_plan: &ExecutionPlan,
    cfg: &MeasureConfig,
) -> Result<MeasureReport, MeasureError> {
    let coop_layout = coop_plan.layout(graph)?;
    let single_layout = single_plan.layout(graph)?;
    let exec_cfg = ExecConfig::with_threads(cfg.threads).with_kernel_path(cfg.kernel_path);
    let coop = ParallelBackend::new(spec, &exec_cfg, PoolMode::Cooperative);
    let single = ParallelBackend::new(spec, &exec_cfg, PoolMode::SinglePool);

    // Warm-up: first run pays thread spawn, arena growth, page faults.
    evaluate_plan_with_backend(graph, coop_plan, weights, calib, input, &coop)?;
    coop.take_timings();
    evaluate_plan_with_backend(graph, single_plan, weights, calib, input, &single)?;
    single.take_timings();

    let (coop_t, coop_reps) = run_reps(graph, coop_plan, weights, calib, input, &coop, cfg.repeat)?;
    let (single_t, single_reps) = run_reps(
        graph,
        single_plan,
        weights,
        calib,
        input,
        &single,
        cfg.repeat,
    )?;

    let layers = graph
        .nodes()
        .iter()
        .enumerate()
        .map(|(i, node)| LayerRow {
            node: i,
            name: node.name.clone(),
            kind: node.kind.op_name().to_string(),
            coop_s: coop_t
                .iter()
                .find(|t| t.node == i)
                .map_or(0.0, |t| t.wall_s),
            single_s: single_t
                .iter()
                .find(|t| t.node == i)
                .map_or(0.0, |t| t.wall_s),
        })
        .collect();

    // Pair every part's best (minimum-across-reps) wall time, from both
    // plans, with its analytic work; the single-pool parts roughly
    // double the points per group so the predictor fit can constrain a
    // slope instead of falling back to a group mean.
    let mut samples = Vec::new();
    collect_samples(
        graph,
        &coop_layout,
        &[min_timings(&coop_reps)],
        &mut samples,
    );
    collect_samples(
        graph,
        &single_layout,
        &[min_timings(&single_reps)],
        &mut samples,
    );

    let coop_total_s = total_wall(&coop_t);
    let single_total_s = total_wall(&single_t);
    let modeled_coop = execute_plan(spec, graph, coop_plan)?.latency.as_secs_f64();
    let modeled_single = execute_plan(spec, graph, single_plan)?
        .latency
        .as_secs_f64();

    Ok(MeasureReport {
        model: graph.name().to_string(),
        threads: cfg.threads,
        repeat: cfg.repeat.max(1),
        host_parallelism: std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
        kernel_path_requested: cfg.kernel_path.as_str().to_string(),
        kernel_path: cfg.kernel_path.resolve().as_str().to_string(),
        cpu_features: ukernels::cpu_features(),
        coop_label: coop_plan.label.clone(),
        single_label: single_plan.label.clone(),
        coop_total_s,
        single_total_s,
        measured_speedup: single_total_s / coop_total_s.max(f64::MIN_POSITIVE),
        modeled_speedup: modeled_single / modeled_coop.max(f64::MIN_POSITIVE),
        layers,
        samples,
    })
}
