//! Incremental replanning and the drift-keyed plan cache (planning as a
//! first-class overhead).
//!
//! PR 3 made the planner *adaptive* — `plan_with_drift` re-enumerates
//! every layer's candidate set each frame under the current
//! [`DriftAdapter`] state. That is correct but pays the full planning
//! bill per frame even when nothing moved: the common steady state of a
//! serving loop is "same graph, same SoC, same (bucketed) drift
//! regime", and re-deriving an identical plan there is pure overhead
//! that the latency accounting never even saw. This module closes both
//! gaps:
//!
//! 1. **Drift-keyed plan cache** — finished [`PlanReport`]s (and ladder
//!    rung sets) are cached under a [`PlanKey`]: the graph's digest
//!    ([`Graph::digest`], folded in as the graph is built: input shape,
//!    node kinds and wiring), the lost-device set, the *quantized*
//!    drift state and the artifact kind. The SoC and the configuration are not in the key: a
//!    session is bound to one [`ULayer`]. Quantization runs every
//!    `(device, work-class)` EWMA correction through a
//!    [`simcore::DriftKeyQuantizer`] — log-scale buckets with
//!    hysteresis — so factors oscillating inside one band map to one
//!    stable key and calm frames hit the cache. The cache is a bounded
//!    LRU whose hits, misses and evictions [`PlannerStats`] counts.
//!
//! 2. **Incremental replanner** — on a miss with a prior base plan,
//!    only layers whose decision could actually have flipped are
//!    re-enumerated; the rest are copied from the base. Both misses run
//!    the one planning function, [`crate::draft`]: a scratch miss
//!    without a base, an incremental miss with the previous draft as
//!    its base. The decision test ([`reuse`], called from the
//!    partitioner's layer loop) rests on the per-layer *margin*
//!    recorded by [`crate::partitioner::PlacementChoice`]: the chosen
//!    placement's exact new cost is recomputed (same code path as a
//!    scratch plan) and compared against a conservative lower bound on
//!    every other candidate's new cost. The produced plan is
//!    **byte-identical to a from-scratch plan** under the same drift
//!    state — placements, fractions, and costs — which the zoo-wide
//!    equivalence gate enforces (`crates/core/tests/plan_equivalence.rs`).
//!
//! 3. **Planning as overhead** — every [`PlannedFrame`] carries a
//!    deterministic modeled planning span (a pure function of how much
//!    enumeration actually ran) that callers charge to the simulated
//!    timeline under [`uruntime::OverheadClass::Planning`], plus
//!    real wall-clock totals in [`PlannerStats`] for reports.
//!
//! # Why the margin test is sound
//!
//! For a fixed `(graph, spec, config, device-subset)` the candidate set
//! of a layer is fixed *except* for the throughput-proportional n-way
//! split, whose fractions are themselves a function of the drift state
//! — such layers are flagged `drift_shaped` and always re-enumerated.
//! For every other layer, each candidate's cost is affine in the drift
//! factors it touches: `cost = Σ fixed + Σ factor·kernel` (splits take
//! a max over affine part costs, which preserves the bound below).
//! Let `ρ = min(1, min over changed `(device, class)` slots of
//! `f_new/f_old`)` for the layer's work class. Then every candidate's
//! new cost is ≥ `ρ ×` its old cost (up to integer-nanosecond
//! rounding), so `runner_up_old × ρ` lower-bounds the best non-chosen
//! candidate's new cost. If the chosen placement's *exact* new cost
//! (plus a slack covering the rounding) stays strictly below that
//! bound, the scratch enumeration — strict `<`, first wins — would
//! still pick it, with the same cost; the decision is copied. A copied
//! layer stores the degraded bound as its new runner-up so margins
//! decay monotonically across chained incremental steps instead of
//! going stale.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use simcore::{DriftKeyQuantizer, SimSpan};
use unn::Graph;
use uruntime::LadderRung;
use usoc::{DeviceId, WorkClass};

use crate::adapt::DriftAdapter;
use crate::error::ULayerError;
use crate::partitioner::{CostTables, PlacementChoice};
use crate::planning::{draft, PlanContext, PlanDraft};
use crate::runtime::{PlanReport, ULayer};

/// Slack (in nanoseconds) added to the chosen placement's recomputed
/// cost before the margin comparison. Covers the integer-nanosecond
/// rounding of span arithmetic on the bound side: the bound multiplies
/// an already-rounded runner-up by an f64 ratio, while the chosen cost
/// is exact. 16 ns is far above the worst case (sub-nanosecond per
/// rounded term, a handful of terms per candidate).
const MARGIN_SLACK_NS: f64 = 16.0;

/// Relative slack covering f64 representation error in the bound
/// product at large magnitudes (lost-device pins push spans to ~1e15
/// ns, where absolute slack alone is too tight a claim).
const MARGIN_RELATIVE_SLACK: f64 = 1e-9;

/// Modeled planning spans charged to the simulated timeline. These are
/// deliberately *deterministic* — a pure function of how much
/// enumeration ran — so simulated makespans (and the fleet digest
/// gates) never depend on host wall-clock. The hit and scratch spans
/// are `uruntime`'s ([`uruntime::PLAN_HIT_SPAN`],
/// [`uruntime::plan_scratch_span`]), which the fleet's plan
/// cache model charges too; the incremental ones exist only here.
const PLAN_INCREMENTAL_BASE_NS: u64 = 3_000;
const PLAN_REENUM_LAYER_NS: u64 = 4_000;
const PLAN_COPIED_LAYER_NS: u64 = 200;

/// What kind of artifact a cache entry holds. Part of the key: a plan
/// and a ladder for the same `(graph, drift)` coexist.
#[derive(Clone, Copy, Debug, Default, Hash, PartialEq, Eq)]
pub(crate) enum ArtifactKind {
    /// A full [`PlanReport`].
    #[default]
    Plan,
    /// A degradation-ladder rung set.
    Ladder,
}

/// The drift-keyed cache key. Two frames with equal keys are — under
/// [`ReusePolicy::Bucketed`] — planned identically.
#[derive(Clone, Debug, Default, Hash, PartialEq, Eq)]
pub(crate) struct PlanKey {
    /// [`Graph::digest`] of the network.
    pub graph: u64,
    /// Lost-device set, ascending.
    pub lost: Vec<usize>,
    /// Quantized drift state: `(slot, bucket)` pairs, sorted, with
    /// calm (bucket 0) slots elided — the calm key is empty.
    pub drift: Vec<(u64, i32)>,
    /// Which artifact the key addresses.
    pub kind: ArtifactKind,
}

/// An exact, canonically ordered capture of the drift state the
/// partitioner would see: per-`(device, class)` factors in
/// device-major, [`WorkClass::ALL`]-minor order plus the lost set.
/// Equal snapshots steer the partitioner identically.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct DriftSnapshot {
    /// `((device index, class), factor)` in canonical order.
    pub factors: Vec<((usize, WorkClass), f64)>,
    /// Lost devices, ascending.
    pub lost: Vec<usize>,
}

impl DriftSnapshot {
    /// Overwrites `self`, keeping its buffers, with the state `drift`
    /// exposes over `devices` (all-1.0 and no losses when there is no
    /// adapter — exactly what the partitioner sees in that case).
    pub(crate) fn capture(&mut self, drift: Option<&DriftAdapter>, devices: &[DeviceId]) {
        self.factors.clear();
        for &d in devices {
            for &class in &WorkClass::ALL {
                let f = drift.map_or(1.0, |a| a.factor(d, class));
                self.factors.push(((d.0, class), f));
            }
        }
        self.lost.clear();
        self.lost
            .extend(drift.into_iter().flat_map(DriftAdapter::lost_devices));
    }
}

/// What a cache slot holds.
#[derive(Clone)]
pub(crate) enum Artifact {
    /// A finished plan, shared.
    Plan(Arc<PlanReport>),
    /// A degradation-ladder rung set.
    Ladder(Arc<Vec<LadderRung>>),
}

/// One cache entry: the artifact plus the exact drift snapshot it was
/// produced under (consulted by [`ReusePolicy::Exact`]).
#[derive(Clone)]
pub(crate) struct CacheEntry {
    /// Snapshot at production time.
    pub snapshot: DriftSnapshot,
    /// The cached artifact.
    pub artifact: Artifact,
}

/// How a [`PlannerSession`] is allowed to reuse cached artifacts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReusePolicy {
    /// A hit additionally requires the *exact* drift snapshot to match
    /// the cached one; bucketed-key collisions with different exact
    /// states replan (incrementally). Every plan the session returns is
    /// byte-identical to a from-scratch plan — the mode for
    /// [`crate::adapt::run_adaptive_stream`], where per-frame latency
    /// semantics must not move.
    Exact,
    /// A hit on the quantized key reuses the cached artifact as-is:
    /// approximate within one hysteresis band, steady-state frames are
    /// planner-free. The mode for serving and fleet loops.
    Bucketed,
}

/// Where a frame's plan came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanSource {
    /// Cache hit — no enumeration ran.
    CacheHit,
    /// Incremental replan from the previous base plan.
    Incremental {
        /// Layers whose candidate set was re-enumerated.
        reenumerated: usize,
        /// Layers copied from the base (margin held or unaffected).
        copied: usize,
    },
    /// Full from-scratch enumeration.
    Scratch,
}

/// One planned frame: the report, the *modeled* planning span the
/// caller charges to the simulated timeline
/// ([`uruntime::OverheadClass::Planning`]), and provenance.
#[derive(Clone)]
pub struct PlannedFrame {
    /// The plan and its diagnostics.
    pub report: Arc<PlanReport>,
    /// Deterministic modeled planning overhead for this frame.
    pub planning: SimSpan,
    /// How the plan was obtained.
    pub source: PlanSource,
}

/// The deterministic modeled planning span for a frame — a pure
/// function of how much enumeration ran, never of wall-clock.
pub(crate) fn planning_span(source: PlanSource, layers: usize) -> SimSpan {
    match source {
        PlanSource::CacheHit => uruntime::PLAN_HIT_SPAN,
        PlanSource::Scratch => uruntime::plan_scratch_span(layers),
        PlanSource::Incremental {
            reenumerated,
            copied,
        } => SimSpan::from_nanos(
            PLAN_INCREMENTAL_BASE_NS
                + PLAN_REENUM_LAYER_NS * reenumerated as u64
                + PLAN_COPIED_LAYER_NS * copied as u64,
        ),
    }
}

/// Cumulative planner accounting for one session.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlannerStats {
    /// Frames planned (cache hits included).
    pub frames: u64,
    /// Cache hits (under the active policy).
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Misses resolved by incremental replanning.
    pub incremental_replans: u64,
    /// Misses resolved by full enumeration.
    pub scratch_plans: u64,
    /// Total layers re-enumerated across incremental replans.
    pub layers_reenumerated: u64,
    /// Total layers copied across incremental replans.
    pub layers_copied: u64,
    /// LRU evictions.
    pub evictions: u64,
    /// Real planner wall-clock, nanoseconds (reporting only — never
    /// fed into simulated timelines).
    pub wall_ns: u64,
}

impl PlannerStats {
    /// Cache hit rate over planned frames (0.0 when none).
    pub fn hit_rate(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.frames as f64
        }
    }
}

/// Per-graph session state: cost tables built once per graph and the
/// incremental base draft.
struct GraphState {
    tables: CostTables,
    base: Option<PlanDraft>,
}

/// A stateful planning frontend over one [`ULayer`] runtime: drift-key
/// quantization, the bounded plan cache, hoisted cost tables, and the
/// incremental replanner, with planner time accounted in
/// [`PlannerStats`].
pub struct PlannerSession<'a> {
    rt: &'a ULayer,
    policy: ReusePolicy,
    quantizer: DriftKeyQuantizer,
    /// The bounded LRU: each entry with the stamp of its last use. The
    /// stamps are a deterministic counter (no wall-clock), so eviction
    /// is reproducible run to run.
    cache: HashMap<PlanKey, (u64, CacheEntry)>,
    stamp: u64,
    capacity: usize,
    devices: Vec<DeviceId>,
    graphs: HashMap<u64, GraphState>,
    stats: PlannerStats,
    /// The current frame's drift snapshot and key, rebuilt in place
    /// every frame; a miss clones them into the cache.
    snapshot: DriftSnapshot,
    key: PlanKey,
}

impl<'a> PlannerSession<'a> {
    /// A session with the default quantizer and a 32-entry cache.
    pub fn new(rt: &'a ULayer, policy: ReusePolicy) -> PlannerSession<'a> {
        PlannerSession {
            rt,
            policy,
            quantizer: DriftKeyQuantizer::default(),
            cache: HashMap::new(),
            stamp: 0,
            capacity: 32,
            devices: rt.spec().device_ids(),
            graphs: HashMap::new(),
            stats: PlannerStats::default(),
            snapshot: DriftSnapshot::default(),
            key: PlanKey::default(),
        }
    }

    /// Cumulative planner accounting.
    pub fn stats(&self) -> &PlannerStats {
        &self.stats
    }

    /// Live cache size.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// The quantizer slot for a `(device, class)` drift key:
    /// device-major, eight class slots per device ([`WorkClass::ALL`]
    /// has seven; the eighth is headroom).
    fn slot(device: usize, class: WorkClass) -> u64 {
        (device * 8 + class as usize) as u64
    }

    /// Rebuilds the frame's snapshot and key for `graph` under `drift`
    /// — advancing the per-slot hysteresis state — and looks the key
    /// up: the cached artifact when the reuse policy accepts it.
    fn lookup(
        &mut self,
        graph: &Graph,
        drift: Option<&DriftAdapter>,
        kind: ArtifactKind,
    ) -> Option<Artifact> {
        self.snapshot.capture(drift, &self.devices);
        let factors = self.snapshot.factors.iter();
        let slots = factors.map(|&((d, c), f)| (Self::slot(d, c), f));
        self.quantizer.snapshot_key(slots, &mut self.key.drift);
        self.key.graph = graph.digest();
        self.key.lost.clone_from(&self.snapshot.lost);
        self.key.kind = kind;
        self.stamp += 1;
        let (stamp, entry) = self.cache.get_mut(&self.key)?;
        *stamp = self.stamp;
        let usable = match self.policy {
            ReusePolicy::Bucketed => true,
            ReusePolicy::Exact => entry.snapshot == self.snapshot,
        };
        usable.then(|| entry.artifact.clone())
    }

    /// Caches `artifact` under the frame's key and snapshot, evicting
    /// the least recently used entry when the cache is full.
    fn insert(&mut self, artifact: Artifact) {
        self.stamp += 1;
        if !self.cache.contains_key(&self.key) && self.cache.len() >= self.capacity {
            // Stamps are unique, so the victim is unique.
            let lru = self.cache.iter().min_by_key(|(_, (stamp, _))| *stamp);
            if let Some(victim) = lru.map(|(key, _)| key.clone()) {
                self.cache.remove(&victim);
                self.stats.evictions += 1;
            }
        }
        let entry = CacheEntry {
            snapshot: self.snapshot.clone(),
            artifact,
        };
        self.cache.insert(self.key.clone(), (self.stamp, entry));
    }

    /// Plans one frame for `graph` under `drift`, consulting the cache
    /// first and replanning incrementally on a miss. Under
    /// [`ReusePolicy::Exact`] the returned plan is byte-identical to
    /// `rt.plan_with_drift(graph, drift)` for every drift state.
    pub fn plan_frame(
        &mut self,
        graph: &Graph,
        drift: Option<&DriftAdapter>,
    ) -> Result<PlannedFrame, ULayerError> {
        let t0 = Instant::now();
        self.stats.frames += 1;
        if let Some(Artifact::Plan(report)) = self.lookup(graph, drift, ArtifactKind::Plan) {
            self.stats.cache_hits += 1;
            self.stats.wall_ns += t0.elapsed().as_nanos() as u64;
            return Ok(PlannedFrame {
                report,
                planning: planning_span(PlanSource::CacheHit, graph.len()),
                source: PlanSource::CacheHit,
            });
        }
        self.stats.cache_misses += 1;

        let cx = PlanContext {
            spec: self.rt.spec(),
            predictor: self.rt.predictor(),
            config: self.rt.config(),
            graph,
            drift,
            devices: &self.devices,
        };
        let state = match self.graphs.entry(graph.digest()) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(GraphState {
                tables: CostTables::build(&cx)?,
                base: None,
            }),
        };
        let planned = draft(&cx, &state.tables, state.base.as_ref())?;
        let source = planned.source;
        match source {
            PlanSource::Incremental {
                reenumerated,
                copied,
            } => {
                self.stats.incremental_replans += 1;
                self.stats.layers_reenumerated += reenumerated as u64;
                self.stats.layers_copied += copied as u64;
            }
            _ => self.stats.scratch_plans += 1,
        }

        let report = Arc::new(PlanReport::new(&cx, &planned)?);
        state.base = Some(planned);
        self.insert(Artifact::Plan(Arc::clone(&report)));
        let frame = PlannedFrame {
            report,
            planning: planning_span(source, graph.len()),
            source,
        };
        self.stats.wall_ns += t0.elapsed().as_nanos() as u64;
        Ok(frame)
    }

    /// The degradation ladder for `graph` under `drift`, cached under
    /// the same drift key as plans (`ArtifactKind::Ladder`).
    pub fn ladder(
        &mut self,
        graph: &Graph,
        drift: Option<&DriftAdapter>,
    ) -> Result<Arc<Vec<LadderRung>>, ULayerError> {
        let t0 = Instant::now();
        self.stats.frames += 1;
        if let Some(Artifact::Ladder(rungs)) = self.lookup(graph, drift, ArtifactKind::Ladder) {
            self.stats.cache_hits += 1;
            self.stats.wall_ns += t0.elapsed().as_nanos() as u64;
            return Ok(rungs);
        }
        self.stats.cache_misses += 1;
        self.stats.scratch_plans += 1;
        let rungs = Arc::new(self.rt.degradation_ladder(graph, drift)?);
        self.insert(Artifact::Ladder(Arc::clone(&rungs)));
        self.stats.wall_ns += t0.elapsed().as_nanos() as u64;
        Ok(rungs)
    }
}

/// Per work class, how far the drift factors moved from `base` to
/// `now`: `None` when no factor of the class changed — every candidate
/// cost of a layer of that class is unchanged — else the contraction
/// `ρ = min(1, min f_new / f_old)` over the changed slots, the tightest
/// lower bound on how far any such candidate cost can have fallen.
pub(crate) fn contraction(
    base: &DriftSnapshot,
    now: &DriftSnapshot,
) -> [Option<f64>; WorkClass::ALL.len()] {
    debug_assert_eq!(base.factors.len(), now.factors.len());
    let mut rho = [None::<f64>; WorkClass::ALL.len()];
    for (old, new) in base.factors.iter().zip(&now.factors) {
        debug_assert_eq!(old.0, new.0, "snapshots must be aligned");
        if old.1 != new.1 {
            let r = &mut rho[old.0 .1 as usize];
            *r = Some(r.unwrap_or(f64::INFINITY).min(new.1 / old.1));
        }
    }
    rho.map(|r| r.map(|r| r.min(1.0)))
}

/// The margin test: `base`'s decision for one layer at its exact
/// `cost` under the new drift state, when a scratch enumeration is
/// proven to pick it again (see the module doc); `None` when the layer
/// must be re-enumerated. `rho` is [`contraction`] for the layer's work
/// class.
pub(crate) fn reuse(base: &PlacementChoice, cost: SimSpan, rho: f64) -> Option<PlacementChoice> {
    let runner_up = match base.runner_up {
        // The only feasible candidate; feasibility is drift-independent,
        // so it still is.
        None => None,
        Some(runner_up) => {
            let bound = runner_up.as_nanos() as f64 * rho;
            let cost_ns = cost.as_nanos() as f64;
            if cost_ns + MARGIN_SLACK_NS + cost_ns * MARGIN_RELATIVE_SLACK < bound {
                // The degraded bound becomes the new runner-up so chained
                // incremental steps keep a valid (conservative) margin.
                Some(SimSpan::from_nanos(bound as u64))
            } else {
                return None;
            }
        }
    };
    Some(PlacementChoice {
        placement: base.placement.clone(),
        cost,
        runner_up,
        drift_shaped: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use usoc::SocSpec;

    fn rt() -> ULayer {
        ULayer::new(SocSpec::exynos_7420()).unwrap()
    }

    /// `session` (a plan-cache report) equals `direct` (a
    /// `plan_with_drift` report).
    fn reports_match(session: &PlanReport, direct: &PlanReport) {
        assert_eq!(session.plan.placements, direct.plan.placements);
        assert_eq!(
            session.predicted_serial_latency,
            direct.predicted_serial_latency
        );
        assert_eq!(session.branch_mappings, direct.branch_mappings);
    }

    /// `g`'s layers, each under `prefix` and its index, on `input`.
    fn rebuilt(g: &Graph, prefix: &str, input: utensor::Shape) -> Graph {
        let mut out = Graph::new("rebuilt", input);
        for (i, node) in g.nodes().iter().enumerate() {
            out.add_multi(format!("{prefix}{i}"), node.kind.clone(), &node.inputs);
        }
        out
    }

    #[test]
    fn graph_digest_ignores_names_but_not_structure() {
        let g1 = unn::ModelId::SqueezeNet.build_miniature();
        // Renames must not invalidate cached plans.
        let renamed = rebuilt(&g1, "renamed/", g1.input_shape().clone());
        assert_eq!(g1.digest(), renamed.digest());
        assert_eq!(g1.digest(), g1.clone().digest());
        let g3 = unn::ModelId::LeNet.build_miniature();
        assert_ne!(g1.digest(), g3.digest());
        // The input shape is structure: the same layers on another
        // input size plan differently.
        let larger = rebuilt(&g1, "", utensor::Shape::nchw(1, 3, 48, 48));
        assert_ne!(g1.digest(), larger.digest());
        // So is every field of a kind, f32 fields included.
        let lrn = |alpha| {
            let mut g = Graph::new("lrn", utensor::Shape::nchw(1, 8, 4, 4));
            let kind = unn::LayerKind::Lrn {
                n: 5,
                alpha,
                beta: 0.75,
                k: 2.0,
            };
            g.add_input_layer("lrn", kind);
            g.digest()
        };
        assert_ne!(lrn(1e-4), lrn(2e-4));
    }

    #[test]
    fn scratch_session_plan_matches_plan_with_drift() {
        // Miniature SqueezeNet maps no branch group; full-size GoogLeNet
        // on the 7420 maps nine.
        let rt = rt();
        for (g, mapped) in [
            (unn::ModelId::SqueezeNet.build_miniature(), 0),
            (unn::ModelId::GoogLeNet.build(), 9),
        ] {
            let mut session = PlannerSession::new(&rt, ReusePolicy::Exact);
            let frame = session.plan_frame(&g, None).unwrap();
            assert_eq!(frame.source, PlanSource::Scratch);
            let direct = rt.plan_with_drift(&g, None).unwrap();
            assert_eq!(direct.branch_mappings.len(), mapped);
            reports_match(&frame.report, &direct);
        }
    }

    #[test]
    fn calm_refrains_hit_the_cache() {
        let rt = rt();
        let g = unn::ModelId::SqueezeNet.build_miniature();
        let mut session = PlannerSession::new(&rt, ReusePolicy::Bucketed);
        session.plan_frame(&g, None).unwrap();
        for _ in 0..5 {
            let frame = session.plan_frame(&g, None).unwrap();
            assert_eq!(frame.source, PlanSource::CacheHit);
        }
        assert_eq!(session.stats().cache_hits, 5);
        assert_eq!(session.stats().cache_misses, 1);
        assert!(session.stats().hit_rate() > 0.8);
    }

    #[test]
    fn exact_policy_rejects_bucket_collisions() {
        // Two drift states inside one hysteresis band share a bucketed
        // key; Exact must verify the snapshot and replan.
        let rt = rt();
        let spec = rt.spec().clone();
        let g = unn::ModelId::SqueezeNet.build_miniature();
        let mut session = PlannerSession::new(&rt, ReusePolicy::Exact);
        let mut drift = DriftAdapter::with_rates(1.0, 0.0);
        drift.observe(
            spec.gpu(),
            WorkClass::Gemm,
            SimSpan::from_micros(100),
            SimSpan::from_micros(103),
        );
        session.plan_frame(&g, Some(&drift)).unwrap();
        // Nudge the factor within the same band (3% -> 5% slowdown).
        drift.observe(
            spec.gpu(),
            WorkClass::Gemm,
            SimSpan::from_micros(100),
            SimSpan::from_micros(105),
        );
        let frame = session.plan_frame(&g, Some(&drift)).unwrap();
        assert_ne!(frame.source, PlanSource::CacheHit);
        let direct = rt.plan_with_drift(&g, Some(&drift)).unwrap();
        reports_match(&frame.report, &direct);
    }

    #[test]
    fn bucketed_policy_reuses_within_a_band() {
        let rt = rt();
        let spec = rt.spec().clone();
        let g = unn::ModelId::SqueezeNet.build_miniature();
        let mut session = PlannerSession::new(&rt, ReusePolicy::Bucketed);
        let mut drift = DriftAdapter::with_rates(1.0, 0.0);
        drift.observe(
            spec.gpu(),
            WorkClass::Gemm,
            SimSpan::from_micros(100),
            SimSpan::from_micros(103),
        );
        session.plan_frame(&g, Some(&drift)).unwrap();
        drift.observe(
            spec.gpu(),
            WorkClass::Gemm,
            SimSpan::from_micros(100),
            SimSpan::from_micros(105),
        );
        let frame = session.plan_frame(&g, Some(&drift)).unwrap();
        assert_eq!(frame.source, PlanSource::CacheHit);
    }

    #[test]
    fn incremental_replan_is_byte_identical_to_scratch() {
        // Drive a drift regime change large enough to cross buckets and
        // flip placements; the incremental plan must equal the scratch
        // plan decision by decision.
        let rt = rt();
        let spec = rt.spec().clone();
        let g = unn::ModelId::SqueezeNet.build_miniature();
        let mut session = PlannerSession::new(&rt, ReusePolicy::Exact);
        session.plan_frame(&g, None).unwrap();
        let mut drift = DriftAdapter::with_rates(1.0, 0.0);
        for &class in &WorkClass::ALL {
            drift.observe(
                spec.gpu(),
                class,
                SimSpan::from_micros(100),
                SimSpan::from_micros(800),
            );
        }
        let frame = session.plan_frame(&g, Some(&drift)).unwrap();
        assert!(
            matches!(frame.source, PlanSource::Incremental { .. }),
            "expected incremental, got {:?}",
            frame.source
        );
        let direct = rt.plan_with_drift(&g, Some(&drift)).unwrap();
        reports_match(&frame.report, &direct);
    }

    #[test]
    fn incremental_replan_copies_unaffected_layers() {
        // A tiny factor change on one class re-enumerates at most the
        // affected layers; everything else is copied.
        let rt = rt();
        let spec = rt.spec().clone();
        let g = unn::ModelId::SqueezeNet.build_miniature();
        let mut session = PlannerSession::new(&rt, ReusePolicy::Exact);
        session.plan_frame(&g, None).unwrap();
        let mut drift = DriftAdapter::with_rates(1.0, 0.0);
        drift.observe(
            spec.gpu(),
            WorkClass::Pool,
            SimSpan::from_micros(100),
            SimSpan::from_micros(101),
        );
        let frame = session.plan_frame(&g, Some(&drift)).unwrap();
        match frame.source {
            PlanSource::Incremental {
                reenumerated,
                copied,
            } => {
                assert!(copied > 0, "nothing was copied");
                assert!(
                    reenumerated + copied == g.len(),
                    "{reenumerated} + {copied} != {}",
                    g.len()
                );
                // Only Pool layers consult the changed factor.
                let pools = (0..g.len())
                    .filter(|&i| {
                        matches!(
                            g.nodes()[i].kind,
                            unn::LayerKind::Pool { .. } | unn::LayerKind::GlobalAvgPool
                        )
                    })
                    .count();
                assert!(
                    reenumerated <= pools,
                    "{reenumerated} re-enumerated but only {pools} pool layers"
                );
            }
            s => panic!("expected incremental, got {s:?}"),
        }
        let direct = rt.plan_with_drift(&g, Some(&drift)).unwrap();
        reports_match(&frame.report, &direct);
    }

    #[test]
    fn lost_device_replans_match_scratch() {
        let rt = rt();
        let spec = rt.spec().clone();
        let g = unn::ModelId::SqueezeNet.build_miniature();
        let mut session = PlannerSession::new(&rt, ReusePolicy::Exact);
        session.plan_frame(&g, None).unwrap();
        let mut drift = DriftAdapter::new();
        drift.mark_lost(spec.gpu());
        let frame = session.plan_frame(&g, Some(&drift)).unwrap();
        let direct = rt.plan_with_drift(&g, Some(&drift)).unwrap();
        reports_match(&frame.report, &direct);
        // The lost set is part of the key: recovering the snapshot
        // without the loss maps to a different entry.
        assert!(frame
            .report
            .plan
            .placements
            .iter()
            .all(|p| p.devices().iter().all(|d| *d != spec.gpu())));
    }

    #[test]
    fn chained_incremental_steps_stay_identical() {
        // Margins degrade across chained copies; every step must still
        // equal scratch.
        let rt = rt();
        let spec = rt.spec().clone();
        let g = unn::ModelId::SqueezeNet.build_miniature();
        let mut session = PlannerSession::new(&rt, ReusePolicy::Exact);
        let mut drift = DriftAdapter::new();
        for k in 0..12u64 {
            let slow = 100 + k * 37;
            drift.observe(
                spec.gpu(),
                WorkClass::Gemm,
                SimSpan::from_micros(100),
                SimSpan::from_micros(slow),
            );
            drift.finish_frame();
            let frame = session.plan_frame(&g, Some(&drift)).unwrap();
            let direct = rt.plan_with_drift(&g, Some(&drift)).unwrap();
            reports_match(&frame.report, &direct);
        }
    }

    #[test]
    fn lru_eviction_is_bounded_and_counted() {
        let rt = rt();
        let g = unn::ModelId::SqueezeNet.build_miniature();
        let mut session = PlannerSession::new(&rt, ReusePolicy::Exact);
        session.capacity = 2;
        let spec = rt.spec().clone();
        // Three distinct drift regimes -> three keys -> one eviction.
        let mut drift = DriftAdapter::with_rates(1.0, 0.0);
        session.plan_frame(&g, None).unwrap();
        for slow in [400u64, 1600] {
            for &class in &WorkClass::ALL {
                drift.observe(
                    spec.gpu(),
                    class,
                    SimSpan::from_micros(100),
                    SimSpan::from_micros(slow),
                );
            }
            session.plan_frame(&g, Some(&drift)).unwrap();
        }
        assert!(session.cache_len() <= 2);
        assert!(session.stats().evictions >= 1);
    }

    #[test]
    fn ladder_rungs_are_cached_under_the_drift_key() {
        let rt = rt();
        let g = unn::ModelId::SqueezeNet.build_miniature();
        let mut session = PlannerSession::new(&rt, ReusePolicy::Bucketed);
        let a = session.ladder(&g, None).unwrap();
        let b = session.ladder(&g, None).unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "second ladder should be the cached Arc"
        );
        let direct = rt.degradation_ladder(&g, None).unwrap();
        assert_eq!(a.len(), direct.len());
        for (x, y) in a.iter().zip(&direct) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.predicted, y.predicted);
            assert_eq!(x.plan.placements, y.plan.placements);
        }
    }

    #[test]
    fn planning_spans_are_deterministic_and_ordered() {
        let hit = planning_span(PlanSource::CacheHit, 30);
        let inc = planning_span(
            PlanSource::Incremental {
                reenumerated: 3,
                copied: 27,
            },
            30,
        );
        let scratch = planning_span(PlanSource::Scratch, 30);
        assert!(hit < inc, "{hit:?} !< {inc:?}");
        assert!(inc < scratch, "{inc:?} !< {scratch:?}");
        // Pure function: same inputs, same span.
        assert_eq!(scratch, planning_span(PlanSource::Scratch, 30));
    }

    #[test]
    fn lost_set_and_kind_participate_in_the_key() {
        let base = PlanKey {
            graph: 1,
            ..PlanKey::default()
        };
        let mut lostk = base.clone();
        lostk.lost = vec![1];
        assert_ne!(base, lostk);
        let mut ladk = base.clone();
        ladk.kind = ArtifactKind::Ladder;
        assert_ne!(base, ladk);
    }
}
