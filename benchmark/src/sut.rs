//! The system under test. This is the only file of the benchmark that
//! names workspace symbols (`README.md` lists them), so a refactor of the
//! runtime, the planner or the fleet simulator knows exactly which entry
//! points the benchmark holds it to. Everything here is a thin wrapper:
//! timing, spans, percentiles and tallies live in the harness.

use std::sync::Arc;
use std::time::Instant;

use simcore::{FleetScenario, SimSpan};
use uexec::{ExecConfig, ParallelBackend, PoolMode};
use ukernels::PathChoice;
use ulayer::{
    DriftAdapter, LatencyPredictor, MeasuredSample, PlanReport, PlanSource, PlannerSession,
    ReusePolicy, ULayer,
};
use unn::{calibrate, Calibration, Graph, ModelId, Weights};
use uruntime::{
    evaluate_plan, evaluate_plan_with_backend, execute_plan, run_fleet, single_processor_plan,
    ExecutionPlan, FleetCohort, FleetConfig, FleetNetwork, FleetReport, InstanceAdapter,
    NodePlacement,
};
use usoc::{layer_work, DeviceId, SocSpec, WorkClass};
use utensor::{DType, Tensor};

use crate::gen;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn ms(span: SimSpan) -> f64 {
    span.as_secs_f64() * 1e3
}

/// What the host offers and which kernel path the pools resolve to.
#[derive(Clone, Debug)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub parallelism: usize,
    /// Kernel path asked for (always `auto`).
    pub kernel_path_requested: String,
    /// Kernel path after CPU feature detection.
    pub kernel_path: String,
    /// Detected CPU features the SIMD tiles care about.
    pub cpu_features: String,
}

/// Describes the host.
pub fn host() -> Host {
    Host {
        parallelism: std::thread::available_parallelism().map_or(1, |p| p.get()),
        kernel_path_requested: PathChoice::Auto.as_str().to_string(),
        kernel_path: PathChoice::Auto.resolve().as_str().to_string(),
        cpu_features: ukernels::cpu_features(),
    }
}

// ---------------------------------------------------------------------
// Real-thread execution (`coop_squeezenet`, `single_mobilenet`).
// ---------------------------------------------------------------------

/// Which network runs under which plan and pool mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecKind {
    /// Full SqueezeNet v1.1 under `ULayer::plan`, cooperative pools, one
    /// worker each.
    CoopSqueezenet,
    /// Full MobileNet v1 under the single-CPU QUInt8 plan, one pool, two
    /// workers.
    SingleMobilenet,
}

impl ExecKind {
    fn model(self) -> ModelId {
        match self {
            ExecKind::CoopSqueezenet => ModelId::SqueezeNet,
            ExecKind::SingleMobilenet => ModelId::MobileNet,
        }
    }

    fn cooperative(self) -> bool {
        self == ExecKind::CoopSqueezenet
    }
}

/// A plan with the pools that run it.
struct Pooled {
    plan: ExecutionPlan,
    backend: ParallelBackend,
    split_nodes: usize,
    branch_mapped_nodes: usize,
}

/// Branches the report's branch mappings assign to a processor.
fn branch_mapped(report: &PlanReport) -> usize {
    report
        .branch_mappings
        .iter()
        .map(|b| b.assignment.len())
        .sum()
}

impl Pooled {
    /// The μLayer plan on cooperative pools (1 + 1 workers) or the
    /// single-CPU QUInt8 plan on one pool (2 workers): never more than two
    /// worker threads.
    fn new(rt: &ULayer, graph: &Graph, cooperative: bool) -> Result<Pooled, String> {
        let spec = rt.spec();
        let (plan, branch_mapped_nodes, threads, mode) = if cooperative {
            let report = rt.plan(graph).map_err(err)?;
            let mapped = branch_mapped(&report);
            (report.plan, mapped, 1, PoolMode::Cooperative)
        } else {
            let plan =
                single_processor_plan(graph, spec, spec.cpu(), DType::QUInt8).map_err(err)?;
            (plan, 0, 2, PoolMode::SinglePool)
        };
        let cfg = ExecConfig::with_threads(threads).with_kernel_path(PathChoice::Auto);
        Ok(Pooled {
            backend: ParallelBackend::new(spec, &cfg, mode),
            split_nodes: plan.split_count(),
            branch_mapped_nodes,
            plan,
        })
    }
}

/// Kernel class, device and analytic work of one part of one node.
#[derive(Clone, Copy, Debug)]
struct PartInfo {
    class: usize,
    gpu_pool: bool,
    sample: MeasuredSample,
}

/// One part's measured time with its analytic work.
#[derive(Clone, Copy, Debug)]
pub struct PartTime {
    /// Index into `metrics::KERNEL_LAYERS`.
    pub class: usize,
    /// True when the part ran on the GPU-emulating pool.
    pub gpu_pool: bool,
    /// Wall seconds from the part's first chunk starting to its last ending.
    pub seconds: f64,
    /// Multiply-accumulates, from shapes.
    pub macs: u64,
    sample: MeasuredSample,
}

/// One node's barrier-to-barrier wall time with its parts.
#[derive(Clone, Debug)]
pub struct NodeTime {
    /// Graph node index.
    pub node: usize,
    /// Wall seconds from batch submit to the barrier.
    pub wall_s: f64,
    /// Per-part times.
    pub parts: Vec<PartTime>,
}

/// Every node output of one frame.
pub struct Frame(Vec<Tensor>);

impl Frame {
    /// Flips the sign of one value of the final output, for testing that
    /// the checker notices.
    #[doc(hidden)]
    pub fn corrupt(&mut self) {
        let last = self.0.last_mut().expect("a frame has outputs");
        let mut v = last.to_f32_vec();
        v[0] = -v[0] - 1.0;
        *last = Tensor::from_f32(last.shape().clone(), v).expect("same shape");
    }
}

/// One exec workload, set up: network, weights, calibration, plan, pools
/// and reference outputs.
pub struct ExecSut {
    kind: ExecKind,
    rt: ULayer,
    graph: Graph,
    weights: Weights,
    calib: Calibration,
    input: Tensor,
    pooled: Pooled,
    reference: Vec<Tensor>,
    parts: Vec<Vec<PartInfo>>,
    sim_frame_ms: f64,
}

/// Largest difference allowed between the mixed-precision cooperative
/// output (softmax probabilities) and the sequential evaluator's. Over 105
/// seeds the difference ranged from 2e-4 to 1.5e-2: QUInt8 requantization
/// under F16 arithmetic flips a few rounding decisions along the way.
const COOP_TOLERANCE: f32 = 5e-2;

/// Index into `metrics::KERNEL_LAYERS` of a work class × compute dtype.
fn classify(class: WorkClass, compute: DType) -> usize {
    let q8 = compute == DType::QUInt8;
    match (class, q8) {
        (WorkClass::Gemm, true) => 0,
        (WorkClass::Gemm, false) => 1,
        (WorkClass::Pointwise, true) => 2,
        (WorkClass::Pointwise, false) => 3,
        (WorkClass::Depthwise, true) => 4,
        (WorkClass::Pool, _) => 5,
        (WorkClass::Copy, _) => 6,
        (WorkClass::Depthwise | WorkClass::Elementwise | WorkClass::Norm, _) => 7,
    }
}

fn part_table(
    graph: &Graph,
    plan: &ExecutionPlan,
    gpu: DeviceId,
) -> Result<Vec<Vec<PartInfo>>, String> {
    let shapes = graph.infer_shapes().map_err(err)?;
    Ok(graph
        .nodes()
        .iter()
        .enumerate()
        .map(|(i, node)| {
            let in_shape = graph.node_input_shape(unn::NodeId(i), &shapes);
            let parts: Vec<_> = match &plan.placements[i] {
                NodePlacement::Single { device, dtypes } => vec![(*device, *dtypes, 1.0)],
                NodePlacement::Split { parts } => parts.clone(),
            };
            parts
                .into_iter()
                .map(|(device, dtypes, frac)| {
                    let work = layer_work(&node.kind, in_shape, &shapes[i], dtypes, frac);
                    PartInfo {
                        class: classify(work.class, work.compute_dtype),
                        gpu_pool: device == gpu,
                        sample: MeasuredSample {
                            device,
                            class: work.class,
                            compute_dtype: work.compute_dtype,
                            macs: work.macs,
                            bytes: work.total_bytes(),
                            seconds: 0.0,
                        },
                    }
                })
                .collect()
        })
        .collect())
}

impl ExecSut {
    /// Builds everything a frame needs from `seed`, and the reference
    /// outputs frames are checked against.
    pub fn build(kind: ExecKind, seed: u64) -> Result<ExecSut, String> {
        let spec = SocSpec::exynos_7420();
        let rt = ULayer::new(spec.clone()).map_err(err)?;
        let graph = kind.model().build();
        let weights = Weights::random(&graph, gen::weight_seed(seed)).map_err(err)?;
        let shape = graph.input_shape().clone();
        let input =
            Tensor::from_f32(shape.clone(), gen::input_values(seed, shape.numel())).map_err(err)?;
        let calib = calibrate(&graph, &weights, std::slice::from_ref(&input)).map_err(err)?;

        let pooled = Pooled::new(&rt, &graph, kind.cooperative())?;
        let sim_frame_ms = ms(execute_plan(&spec, &graph, &pooled.plan)
            .map_err(err)?
            .latency);
        let sequential =
            evaluate_plan(&graph, &pooled.plan, &weights, &calib, &input).map_err(err)?;
        let (pooled, reference, reference_max_abs_diff) = if kind.cooperative() {
            // Mixed-precision outputs are not bit-equal to the naive
            // sequential evaluator (F16 accumulation order differs), so
            // frames are held to a fresh backend's run of the same plan,
            // and that run to the sequential one within a tolerance.
            let fresh = evaluate_plan_with_backend(
                &graph,
                &pooled.plan,
                &weights,
                &calib,
                &input,
                &pooled.backend,
            )
            .map_err(err)?;
            let diff = fresh
                .last()
                .zip(sequential.last())
                .map_or(f32::INFINITY, |(a, b)| a.max_abs_diff(b));
            drop(pooled);
            (Pooled::new(&rt, &graph, true)?, fresh, diff)
        } else {
            (pooled, sequential, 0.0)
        };
        if reference_max_abs_diff > COOP_TOLERANCE {
            return Err(format!(
                "set-up: cooperative output differs from the sequential evaluator by {reference_max_abs_diff}"
            ));
        }
        let parts = part_table(&graph, &pooled.plan, spec.gpu())?;
        Ok(ExecSut {
            kind,
            rt,
            graph,
            weights,
            calib,
            input,
            pooled,
            reference,
            parts,
            sim_frame_ms,
        })
    }

    /// One frame on the worker pools (`uruntime::evaluate_plan_with_backend`).
    pub fn frame(&self) -> Result<Frame, String> {
        evaluate_plan_with_backend(
            &self.graph,
            &self.pooled.plan,
            &self.weights,
            &self.calib,
            &self.input,
            &self.pooled.backend,
        )
        .map(Frame)
        .map_err(err)
    }

    /// The per-node timings the backend recorded since the last call
    /// (`ParallelBackend::take_timings`), each part classed by
    /// `usoc::layer_work`.
    pub fn take_timings(&self) -> Vec<NodeTime> {
        self.pooled
            .backend
            .take_timings()
            .into_iter()
            .map(|t| NodeTime {
                node: t.node,
                wall_s: t.wall_s,
                parts: t
                    .parts
                    .iter()
                    .map(|p| {
                        let info = self.parts[t.node][p.part_index];
                        PartTime {
                            class: info.class,
                            gpu_pool: info.gpu_pool,
                            seconds: p.seconds,
                            macs: info.sample.macs,
                            sample: MeasuredSample {
                                seconds: p.seconds,
                                ..info.sample
                            },
                        }
                    })
                    .collect(),
            })
            .collect()
    }

    /// True when every node output of `frame` is bit-equal to the reference.
    pub fn check(&self, frame: &Frame) -> bool {
        frame.0.len() == self.reference.len()
            && frame
                .0
                .iter()
                .zip(&self.reference)
                .all(|(a, b)| a.bit_equal(b))
    }

    /// Simulated latency of the plan being run (`execute_plan(..).latency`).
    pub fn sim_frame_ms(&self) -> f64 {
        self.sim_frame_ms
    }

    /// Channel-split nodes of the plan.
    pub fn split_nodes(&self) -> usize {
        self.pooled.split_nodes
    }

    /// Branches the plan's branch mappings assign to a processor.
    pub fn branch_mapped_nodes(&self) -> usize {
        self.pooled.branch_mapped_nodes
    }

    /// One `execute_plan` of the workload's plan; returns simulated ms.
    pub fn execute_plan(&self) -> Result<f64, String> {
        execute_plan(self.rt.spec(), &self.graph, &self.pooled.plan)
            .map(|r| ms(r.latency))
            .map_err(err)
    }

    /// One from-scratch `ULayer::plan_with_drift` of the workload's graph.
    pub fn scratch_plan(&self) -> Result<(), String> {
        self.rt
            .plan_with_drift(&self.graph, None)
            .map(drop)
            .map_err(err)
    }

    /// Drops the pools and runs `frames` frames of the *other* plan of the
    /// same network (single-pool for a cooperative workload and the
    /// reverse), after `warm` unmeasured ones; returns host ms per frame.
    pub fn other_plan_frames(self, warm: usize, frames: usize) -> Result<Vec<f64>, String> {
        let ExecSut {
            kind,
            rt,
            graph,
            weights,
            calib,
            input,
            pooled,
            ..
        } = self;
        drop(pooled);
        let other = Pooled::new(&rt, &graph, !kind.cooperative())?;
        let mut out = Vec::with_capacity(frames);
        for i in 0..warm + frames {
            let t = Instant::now();
            evaluate_plan_with_backend(
                &graph,
                &other.plan,
                &weights,
                &calib,
                &input,
                &other.backend,
            )
            .map_err(err)?;
            if i >= warm {
                out.push(t.elapsed().as_secs_f64() * 1e3);
            }
            other.backend.take_timings();
        }
        Ok(out)
    }
}

/// In-sample relative error of `LatencyPredictor::fit_from_measurements`
/// over measured parts.
pub fn predictor_fit_rel_err(parts: &[PartTime]) -> f64 {
    let samples: Vec<MeasuredSample> = parts.iter().map(|p| p.sample).collect();
    LatencyPredictor::fit_from_measurements(&samples)
        .1
        .mean_rel_err()
}

// ---------------------------------------------------------------------
// The planner (`replan_churn`).
// ---------------------------------------------------------------------

/// ln-width of one drift-key bucket of the planner's quantizer. Regimes sit
/// on bucket centres, so a regime's cache key does not depend on the
/// quantizer's hysteresis state, i.e. on what was planned before.
const BUCKET_LN_WIDTH: f64 = 0.25;

/// Where a planned frame came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Plan cache hit.
    Hit,
    /// Incremental replan from the previous plan.
    Incremental,
    /// From-scratch enumeration.
    Scratch,
}

/// One planned frame.
pub struct Planned {
    /// Provenance.
    pub source: Source,
    /// `PlanReport::predicted_serial_latency`, simulated ms.
    pub predicted_ms: f64,
    report: Arc<PlanReport>,
}

impl Planned {
    /// Makes the frame disagree with any honest replan, for testing that
    /// the checker notices.
    #[doc(hidden)]
    pub fn corrupt(&mut self) {
        let mut report = (*self.report).clone();
        report.predicted_serial_latency += SimSpan::from_nanos(1);
        self.report = Arc::new(report);
    }
}

/// Cumulative `PlannerStats` of a session, as plain counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCounts {
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Misses resolved incrementally.
    pub incremental: u64,
    /// Misses resolved from scratch.
    pub scratch: u64,
    /// LRU evictions.
    pub evictions: u64,
    /// Layers whose candidates were re-enumerated.
    pub layers_reenumerated: u64,
    /// Layers copied from the base plan.
    pub layers_copied: u64,
}

impl std::ops::AddAssign for PlanCounts {
    fn add_assign(&mut self, o: PlanCounts) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.incremental += o.incremental;
        self.scratch += o.scratch;
        self.evictions += o.evictions;
        self.layers_reenumerated += o.layers_reenumerated;
        self.layers_copied += o.layers_copied;
    }
}

/// The planner set up: the runtime, the full GoogLeNet graph and the
/// pre-built drift regimes.
pub struct PlannerSut {
    rt: ULayer,
    graph: Graph,
    regimes: Vec<DriftAdapter>,
}

/// A drift adapter whose `(device, class)` factor has converged on the
/// centre of bucket `bucket`.
fn settle(adapter: &mut DriftAdapter, device: DeviceId, class: WorkClass, bucket: usize) {
    let predicted = SimSpan::from_nanos(1_000_000);
    let observed = SimSpan::from_secs_f64(1e-3 * (BUCKET_LN_WIDTH * bucket as f64).exp());
    // The EWMA halves its distance to the observed ratio each time.
    for _ in 0..64 {
        adapter.observe(device, class, predicted, observed);
    }
}

impl PlannerSut {
    /// Builds the runtime, the graph and the [`gen::REGIMES`] regimes.
    pub fn build() -> Result<PlannerSut, String> {
        let spec = SocSpec::exynos_7420();
        let (cpu, gpu) = (spec.cpu(), spec.gpu());
        let rt = ULayer::new(spec).map_err(err)?;
        let graph = ModelId::GoogLeNet.build();
        let regimes = (0..gen::REGIMES)
            .map(|i| {
                let [a, b, c] = gen::regime_coords(i);
                let mut adapter = DriftAdapter::new();
                settle(&mut adapter, cpu, WorkClass::Gemm, a);
                settle(&mut adapter, gpu, WorkClass::Gemm, b);
                settle(&mut adapter, gpu, WorkClass::Pointwise, c);
                adapter.finish_frame();
                adapter
            })
            .collect();
        Ok(PlannerSut { rt, graph, regimes })
    }

    /// A fresh planning session (cold cache, no base plan): what an app
    /// restart leaves.
    pub fn session(&self) -> PlanSession<'_> {
        PlanSession {
            sut: self,
            bucketed: PlannerSession::new(&self.rt, ReusePolicy::Bucketed),
            exact: PlannerSession::new(&self.rt, ReusePolicy::Exact),
        }
    }

    /// One from-scratch `ULayer::plan_with_drift` under `regime`.
    pub fn scratch_plan(&self, regime: usize) -> Result<ScratchPlan, String> {
        let report = self
            .rt
            .plan_with_drift(&self.graph, Some(&self.regimes[regime]))
            .map_err(err)?;
        Ok(ScratchPlan {
            split_nodes: report.plan.split_count(),
            branch_mapped_nodes: branch_mapped(&report),
            plan: report.plan,
        })
    }

    /// One `execute_plan` of `plan`; returns simulated ms.
    pub fn execute_plan(&self, plan: &ScratchPlan) -> Result<f64, String> {
        execute_plan(self.rt.spec(), &self.graph, &plan.plan)
            .map(|r| ms(r.latency))
            .map_err(err)
    }
}

/// A from-scratch plan of the GoogLeNet graph.
pub struct ScratchPlan {
    /// Channel-split nodes of the plan.
    pub split_nodes: usize,
    /// Branches the plan's branch mappings assign to a processor.
    pub branch_mapped_nodes: usize,
    plan: ExecutionPlan,
}

/// A `Bucketed` planning session under test, with an `Exact` one beside it
/// for the output check.
pub struct PlanSession<'a> {
    sut: &'a PlannerSut,
    bucketed: PlannerSession<'a>,
    exact: PlannerSession<'a>,
}

impl PlanSession<'_> {
    /// One `PlannerSession::plan_frame` under `regime`.
    pub fn plan_frame(&mut self, regime: usize) -> Result<Planned, String> {
        let frame = self
            .bucketed
            .plan_frame(&self.sut.graph, Some(&self.sut.regimes[regime]))
            .map_err(err)?;
        Ok(Planned {
            source: match frame.source {
                PlanSource::CacheHit => Source::Hit,
                PlanSource::Incremental { .. } => Source::Incremental,
                PlanSource::Scratch => Source::Scratch,
            },
            predicted_ms: ms(frame.report.predicted_serial_latency),
            report: frame.report,
        })
    }

    /// True when `planned` has the placements and predicted latency that
    /// both a from-scratch `plan_with_drift` and an `Exact` session give
    /// for `regime`.
    pub fn check(&mut self, regime: usize, planned: &Planned) -> bool {
        let drift = Some(&self.sut.regimes[regime]);
        let same = |r: &PlanReport| {
            r.plan.placements == planned.report.plan.placements
                && r.predicted_serial_latency == planned.report.predicted_serial_latency
        };
        let scratch = self.sut.rt.plan_with_drift(&self.sut.graph, drift);
        let exact = self.exact.plan_frame(&self.sut.graph, drift);
        matches!((scratch, exact), (Ok(s), Ok(e)) if same(&s) && same(&e.report))
    }

    /// The session's cumulative `PlannerStats`.
    pub fn counts(&self) -> PlanCounts {
        let s = self.bucketed.stats();
        PlanCounts {
            hits: s.cache_hits,
            misses: s.cache_misses,
            incremental: s.incremental_replans,
            scratch: s.scratch_plans,
            evictions: s.evictions,
            layers_reenumerated: s.layers_reenumerated,
            layers_copied: s.layers_copied,
        }
    }

    /// Plans the session's cache holds now.
    pub fn cache_len(&self) -> usize {
        self.bucketed.cache_len()
    }
}

// ---------------------------------------------------------------------
// The fleet simulator (`fleet_storm`).
// ---------------------------------------------------------------------

/// The fleet set up: SqueezeNet-miniature, and one realized degradation
/// ladder per evaluated SoC (Exynos 7420 and 7880).
pub struct FleetSut {
    net: FleetNetwork,
    cohorts: Vec<FleetCohort>,
    rung0: (SocSpec, ExecutionPlan),
    cohort_build_ms: f64,
}

/// What one `run_fleet` reported.
pub struct FleetOut(FleetReport);

impl FleetSut {
    /// Builds the network, plans a ladder per SoC and realizes the cohorts.
    pub fn build(seed: u64) -> Result<FleetSut, String> {
        let graph = ModelId::SqueezeNet.build_miniature();
        let weights = Weights::random(&graph, gen::weight_seed(seed)).map_err(err)?;
        let net = FleetNetwork::new("squeezenet-miniature", graph, weights);
        let mut cohorts = Vec::new();
        let mut rung0 = None;
        let mut cohort_build_ms = 0.0;
        for spec in SocSpec::evaluated() {
            let rt = ULayer::new(spec.clone()).map_err(err)?;
            let ladder = rt.degradation_ladder(&net.graph, None).map_err(err)?;
            let t = Instant::now();
            cohorts.push(FleetCohort::build(&spec, &net.graph, &ladder).map_err(err)?);
            cohort_build_ms += t.elapsed().as_secs_f64() * 1e3;
            if rung0.is_none() {
                rung0 = ladder.into_iter().next().map(|r| (spec, r.plan));
            }
        }
        Ok(FleetSut {
            net,
            cohorts,
            rung0: rung0.ok_or("no SoC to build a cohort for")?,
            cohort_build_ms,
        })
    }

    /// Host ms the `FleetCohort::build` calls of set-up took.
    pub fn cohort_build_ms(&self) -> f64 {
        self.cohort_build_ms
    }

    /// One `run_fleet`: `devices` × `frames` under a rolling GPU loss and
    /// the default `FleetConfig` (bursty arrivals, 2× overload, plan cache).
    pub fn run(&self, devices: usize, frames: usize, fleet_seed: u64) -> Result<FleetOut, String> {
        let cfg = FleetConfig {
            devices,
            frames,
            seed: fleet_seed,
            ..FleetConfig::default()
        };
        let adapter = || -> Box<dyn InstanceAdapter> { Box::new(DriftAdapter::new()) };
        run_fleet(
            &self.net,
            &self.cohorts,
            Some(FleetScenario::RollingGpuLoss),
            &cfg,
            &adapter,
        )
        .map(FleetOut)
        .map_err(err)
    }

    /// One `execute_plan` of the first cohort's full rung; simulated ms.
    pub fn execute_plan(&self) -> Result<f64, String> {
        execute_plan(&self.rung0.0, &self.net.graph, &self.rung0.1)
            .map(|r| ms(r.latency))
            .map_err(err)
    }
}

impl FleetOut {
    /// `FleetReport::check_invariants`.
    pub fn check(&self) -> Result<(), String> {
        self.0.check_invariants()
    }

    /// `FleetReport::digest`.
    pub fn digest(&self) -> String {
        self.0.digest()
    }

    /// Simulated latency percentile over executed frames, ms (0 when
    /// everything was shed).
    pub fn sim_latency_ms(&self, q: f64) -> f64 {
        self.0.latency_percentile(q).map_or(0.0, ms)
    }

    /// `[offered, completed, degraded, shed, rejected, retries, fallbacks,
    /// plan hits, plan misses]`.
    pub fn counts(&self) -> [u64; 9] {
        let r = &self.0;
        [
            r.offered,
            r.completed,
            r.degraded,
            r.shed,
            r.rejected,
            r.retries,
            r.fallbacks,
            r.plan_hits,
            r.plan_misses,
        ]
    }

    /// Breaks the frame partition, for testing that the checker notices.
    #[doc(hidden)]
    pub fn corrupt(&mut self) {
        self.0.offered += 1;
    }
}
