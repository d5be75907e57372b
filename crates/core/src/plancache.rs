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
//!    rung sets) are cached under a [`PlanKey`]: the graph digest, the
//!    SoC/link-topology digest ([`usoc::SocSpec::topology_digest`]),
//!    the active config label, the lost-device set, and the *quantized*
//!    drift state. Quantization runs every `(device, work-class)` EWMA
//!    correction through a [`simcore::DriftKeyQuantizer`] — log-scale
//!    buckets with hysteresis — so factors oscillating inside one band
//!    map to one stable key and calm frames hit the cache. The cache is
//!    a bounded LRU whose hits, misses and evictions [`PlannerStats`]
//!    counts.
//!
//! 2. **Incremental replanner** — on a miss with a prior base plan,
//!    only layers whose decision could actually have flipped are
//!    re-enumerated; the rest are copied from the base. The decision
//!    test rests on the per-layer *margin* recorded by
//!    [`crate::partitioner::PlacementChoice`]: the chosen placement's
//!    exact new cost is recomputed (same code path as a scratch plan)
//!    and compared against a conservative lower bound on every other
//!    candidate's new cost. The produced plan is **byte-identical to a
//!    from-scratch plan** under the same drift state — placements,
//!    fractions, and costs — which the zoo-wide equivalence gate
//!    enforces (`crates/core/tests/plan_equivalence.rs`).
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

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use simcore::{DriftKeyQuantizer, SimSpan};
use unn::Graph;
use uruntime::{LadderRung, NodePlacement};
use usoc::{DeviceId, WorkClass};

use crate::adapt::DriftAdapter;
use crate::branch::BranchDistributionPass;
use crate::error::ULayerError;
use crate::partitioner::{device_dtypes, partition, CostTables, LayerCoster, PlacementChoice};
use crate::planning::{PlanContext, PlanDraft, PlanPass, PlanPassReport};
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

/// FNV-1a over a byte stream (local copy: `ulayer` can't see `testkit`
/// outside dev builds, and the digest must be available at run time).
fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of everything about a [`Graph`] the planner consults: node
/// kinds, wiring, and the output node. Names are deliberately excluded
/// — renaming a layer never invalidates a cached plan.
pub(crate) fn graph_digest(graph: &Graph) -> u64 {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(graph.len() * 48);
    let _ = write!(s, "nodes {};", graph.len());
    for node in graph.nodes() {
        let _ = write!(s, "kind {:?}; in {:?};", node.kind, node.inputs);
    }
    let _ = write!(s, "out {:?}", graph.output());
    fnv1a_64(s.as_bytes())
}

/// What kind of artifact a cache entry holds. Part of the key: a plan
/// and a ladder for the same `(graph, drift)` coexist.
#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq)]
pub(crate) enum ArtifactKind {
    /// A full [`PlanReport`].
    Plan,
    /// A degradation-ladder rung set.
    Ladder,
}

/// The drift-keyed cache key. Two frames with equal keys are — under
/// [`ReusePolicy::Bucketed`] — planned identically.
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
pub(crate) struct PlanKey {
    /// [`graph_digest`] of the network.
    pub graph: u64,
    /// [`usoc::SocSpec::topology_digest`] of the SoC / mesh.
    pub topo: u64,
    /// Digest of the active configuration label.
    pub config: u64,
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
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct DriftSnapshot {
    /// `((device index, class), factor)` in canonical order.
    pub factors: Vec<((usize, WorkClass), f64)>,
    /// Lost devices, ascending.
    pub lost: Vec<usize>,
}

impl DriftSnapshot {
    /// Captures the state `drift` exposes over `devices` (all-1.0 and
    /// no losses when there is no adapter — exactly what the
    /// partitioner sees in that case).
    pub(crate) fn capture(drift: Option<&DriftAdapter>, devices: &[DeviceId]) -> DriftSnapshot {
        match drift {
            Some(d) => DriftSnapshot {
                factors: d.factor_snapshot(devices),
                lost: d.lost_snapshot(),
            },
            None => DriftSnapshot {
                factors: devices
                    .iter()
                    .flat_map(|d| WorkClass::ALL.iter().map(|&c| ((d.0, c), 1.0)))
                    .collect(),
                lost: Vec::new(),
            },
        }
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

/// Bounded LRU over [`PlanKey`]s. Eviction order is a deterministic
/// monotonic stamp (no wall-clock), so cache behavior is reproducible
/// run to run.
pub(crate) struct PlanCache {
    map: HashMap<PlanKey, (u64, CacheEntry)>,
    stamp: u64,
    cap: usize,
}

impl PlanCache {
    /// A cache holding at most `cap` artifacts (minimum 1).
    pub(crate) fn new(cap: usize) -> PlanCache {
        PlanCache {
            map: HashMap::new(),
            stamp: 0,
            cap: cap.max(1),
        }
    }

    /// Looks `key` up, refreshing its LRU stamp on a hit. Does not
    /// count hits/misses — the session decides what a hit *means*
    /// under its reuse policy.
    pub(crate) fn get(&mut self, key: &PlanKey) -> Option<&CacheEntry> {
        self.stamp += 1;
        let stamp = self.stamp;
        match self.map.get_mut(key) {
            Some(slot) => {
                slot.0 = stamp;
                Some(&slot.1)
            }
            None => None,
        }
    }

    /// Inserts (or replaces) `key`, evicting the least-recently-used
    /// entry when full. Returns the number of evictions (0 or 1).
    pub(crate) fn insert(&mut self, key: PlanKey, entry: CacheEntry) -> u64 {
        self.stamp += 1;
        let mut evicted = 0;
        if !self.map.contains_key(&key) && self.map.len() >= self.cap {
            // Deterministic tie-break: stamps are unique by construction.
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&victim);
                evicted = 1;
            }
        }
        self.map.insert(key, (self.stamp, entry));
        evicted
    }

    /// Number of live entries.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }
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

/// Per-graph session state: hoisted cost tables (built once behind the
/// digest — the cost-table rebuild fix), per-layer work classes, and
/// the incremental base plan.
struct GraphState {
    tables: CostTables,
    classes: Vec<WorkClass>,
    base: Option<(DriftSnapshot, Vec<PlacementChoice>)>,
}

impl GraphState {
    fn build(rt: &ULayer, graph: &Graph, devices: &[DeviceId]) -> Result<GraphState, ULayerError> {
        let tables = CostTables::build(rt.spec(), rt.predictor(), rt.config(), graph, devices)?;
        let classes = graph
            .nodes()
            .iter()
            .enumerate()
            .map(|(i, node)| {
                tables
                    .singles_row(i)
                    .iter()
                    .find_map(|e| e.map(|e| e.class))
                    .unwrap_or_else(|| {
                        // Every single placement infeasible (a mesh-RAM
                        // layer): derive the class directly — it is a
                        // function of the layer kind, not the device.
                        let in_shape = graph.node_input_shape(unn::NodeId(i), &tables.shapes);
                        let dtypes = device_dtypes(rt.spec(), devices[0], rt.config());
                        usoc::layer_work(&node.kind, in_shape, &tables.shapes[i], dtypes, 1.0).class
                    })
            })
            .collect();
        Ok(GraphState {
            tables,
            classes,
            base: None,
        })
    }
}

/// A stateful planning frontend over one [`ULayer`] runtime: drift-key
/// quantization, the bounded plan cache, hoisted cost tables, and the
/// incremental replanner, with planner time accounted in
/// [`PlannerStats`].
pub struct PlannerSession<'a> {
    rt: &'a ULayer,
    policy: ReusePolicy,
    quantizer: DriftKeyQuantizer,
    cache: PlanCache,
    topo: u64,
    config: u64,
    devices: Vec<DeviceId>,
    graphs: HashMap<u64, GraphState>,
    stats: PlannerStats,
}

impl<'a> PlannerSession<'a> {
    /// A session with the default quantizer and a 32-entry cache.
    pub fn new(rt: &'a ULayer, policy: ReusePolicy) -> PlannerSession<'a> {
        PlannerSession::with_capacity(rt, policy, 32)
    }

    /// A session with an explicit cache capacity.
    pub(crate) fn with_capacity(
        rt: &'a ULayer,
        policy: ReusePolicy,
        capacity: usize,
    ) -> PlannerSession<'a> {
        PlannerSession {
            rt,
            policy,
            quantizer: DriftKeyQuantizer::default(),
            cache: PlanCache::new(capacity),
            topo: rt.spec().topology_digest(),
            config: fnv1a_64(rt.config().label().as_bytes()),
            devices: rt.spec().device_ids(),
            graphs: HashMap::new(),
            stats: PlannerStats::default(),
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
        (device * 8 + class.index()) as u64
    }

    /// Quantizes `snapshot` into the cache key's drift component,
    /// advancing the per-slot hysteresis state.
    fn drift_key(&mut self, snapshot: &DriftSnapshot) -> Vec<(u64, i32)> {
        let entries: Vec<(u64, f64)> = snapshot
            .factors
            .iter()
            .map(|&((d, c), f)| (Self::slot(d, c), f))
            .collect();
        self.quantizer.snapshot_key(&entries)
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
        let gd = graph_digest(graph);
        let snapshot = DriftSnapshot::capture(drift, &self.devices);
        let key = PlanKey {
            graph: gd,
            topo: self.topo,
            config: self.config,
            lost: snapshot.lost.clone(),
            drift: self.drift_key(&snapshot),
            kind: ArtifactKind::Plan,
        };

        if let Some(entry) = self.cache.get(&key) {
            let usable = match self.policy {
                ReusePolicy::Bucketed => true,
                ReusePolicy::Exact => entry.snapshot == snapshot,
            };
            if usable {
                if let Artifact::Plan(report) = &entry.artifact {
                    let frame = PlannedFrame {
                        report: Arc::clone(report),
                        planning: planning_span(PlanSource::CacheHit, graph.len()),
                        source: PlanSource::CacheHit,
                    };
                    self.stats.cache_hits += 1;
                    self.stats.wall_ns += t0.elapsed().as_nanos() as u64;
                    return Ok(frame);
                }
            }
        }
        self.stats.cache_misses += 1;

        if !self.graphs.contains_key(&gd) {
            let state = GraphState::build(self.rt, graph, &self.devices)?;
            self.graphs.insert(gd, state);
        }
        let state = self.graphs.get_mut(&gd).expect("state just inserted");

        let cx = PlanContext {
            spec: self.rt.spec(),
            predictor: self.rt.predictor(),
            config: self.rt.config(),
            graph,
            drift,
            devices: &self.devices,
        };
        let (choices, source) = match state.base.take() {
            Some((base_snapshot, base_choices)) => replan_incremental(
                &cx,
                &state.tables,
                &state.classes,
                &base_snapshot,
                &base_choices,
                &snapshot,
            )?,
            None => (partition(&cx, Some(&state.tables))?, PlanSource::Scratch),
        };
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

        let report = Arc::new(assemble_report(&cx, &choices, source)?);
        state.base = Some((snapshot.clone(), choices));
        self.stats.evictions += self.cache.insert(
            key,
            CacheEntry {
                snapshot,
                artifact: Artifact::Plan(Arc::clone(&report)),
            },
        );
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
        let snapshot = DriftSnapshot::capture(drift, &self.devices);
        let key = PlanKey {
            graph: graph_digest(graph),
            topo: self.topo,
            config: self.config,
            lost: snapshot.lost.clone(),
            drift: self.drift_key(&snapshot),
            kind: ArtifactKind::Ladder,
        };
        if let Some(entry) = self.cache.get(&key) {
            let usable = match self.policy {
                ReusePolicy::Bucketed => true,
                ReusePolicy::Exact => entry.snapshot == snapshot,
            };
            if usable {
                if let Artifact::Ladder(rungs) = &entry.artifact {
                    let rungs = Arc::clone(rungs);
                    self.stats.cache_hits += 1;
                    self.stats.wall_ns += t0.elapsed().as_nanos() as u64;
                    return Ok(rungs);
                }
            }
        }
        self.stats.cache_misses += 1;
        self.stats.scratch_plans += 1;
        let rungs = Arc::new(self.rt.degradation_ladder(graph, drift)?);
        self.stats.evictions += self.cache.insert(
            key,
            CacheEntry {
                snapshot,
                artifact: Artifact::Ladder(Arc::clone(&rungs)),
            },
        );
        self.stats.wall_ns += t0.elapsed().as_nanos() as u64;
        Ok(rungs)
    }
}

/// Replans one frame from a base plan, re-enumerating only layers whose
/// decision could have flipped under the factor changes between
/// `base_snapshot` and `snapshot`.
fn replan_incremental(
    cx: &PlanContext<'_>,
    tables: &CostTables,
    classes: &[WorkClass],
    base_snapshot: &DriftSnapshot,
    base_choices: &[PlacementChoice],
    snapshot: &DriftSnapshot,
) -> Result<(Vec<PlacementChoice>, PlanSource), ULayerError> {
    let (graph, devices) = (cx.graph, cx.devices);
    debug_assert_eq!(base_snapshot.factors.len(), snapshot.factors.len());
    debug_assert_eq!(base_choices.len(), graph.len());

    // Per-class contraction ratio over changed slots: the tightest
    // lower bound on how far any candidate cost of that class can have
    // fallen. Untouched classes keep ratio 1 and are never affected.
    let mut rho = [f64::INFINITY; WorkClass::ALL.len()];
    let mut affected = [false; WorkClass::ALL.len()];
    for (old, new) in base_snapshot.factors.iter().zip(&snapshot.factors) {
        debug_assert_eq!(old.0, new.0, "snapshots must be aligned");
        if old.1 != new.1 {
            let c = old.0 .1.index();
            affected[c] = true;
            rho[c] = rho[c].min(new.1 / old.1);
        }
    }

    let coster = LayerCoster {
        spec: cx.spec,
        predictor: cx.predictor,
        cfg: cx.config,
        drift: cx.drift,
    };
    let mut choices = Vec::with_capacity(graph.len());
    let mut reenumerated = 0usize;
    let mut copied = 0usize;
    for (i, node) in graph.nodes().iter().enumerate() {
        let base = &base_choices[i];
        let class = classes[i];
        if !affected[class.index()] {
            // No factor this layer's costs consult moved: every
            // candidate cost — chosen and not — is unchanged.
            choices.push(base.clone());
            copied += 1;
            continue;
        }
        let in_shape = graph.node_input_shape(unn::NodeId(i), &tables.shapes);
        let out_shape = &tables.shapes[i];
        let row = tables.singles_row(i);

        let copied_choice = if base.drift_shaped {
            // The n-way proportional candidate's fractions move with
            // the drift state: the candidate set itself changed.
            None
        } else {
            // Exact new cost of the chosen placement — the same code
            // path a scratch enumeration would take.
            let c1 = match &base.placement {
                NodePlacement::Single { device, .. } => devices
                    .iter()
                    .position(|d| d == device)
                    .and_then(|j| coster.single_cost_from(*device, row[j])),
                NodePlacement::Split { parts } => {
                    let flat: Vec<(DeviceId, f64)> =
                        parts.iter().map(|&(d, _, f)| (d, f)).collect();
                    coster.split_cost(&flat, &node.kind, in_shape, out_shape)
                }
            };
            match (c1, base.runner_up) {
                (None, _) => None,
                (Some(c1), None) => {
                    // The only feasible candidate; feasibility is
                    // drift-independent, so it still is.
                    Some(PlacementChoice {
                        placement: base.placement.clone(),
                        cost: c1,
                        runner_up: None,
                        drift_shaped: false,
                    })
                }
                (Some(c1), Some(runner_up)) => {
                    let contraction = rho[class.index()].min(1.0);
                    let bound = runner_up.as_nanos() as f64 * contraction;
                    let c1_ns = c1.as_nanos() as f64;
                    if c1_ns + MARGIN_SLACK_NS + c1_ns * MARGIN_RELATIVE_SLACK < bound {
                        Some(PlacementChoice {
                            placement: base.placement.clone(),
                            cost: c1,
                            // The degraded bound becomes the new
                            // runner-up so chained incremental steps
                            // keep a valid (conservative) margin.
                            runner_up: Some(SimSpan::from_nanos(bound as u64)),
                            drift_shaped: false,
                        })
                    } else {
                        None
                    }
                }
            }
        };
        match copied_choice {
            Some(c) => {
                choices.push(c);
                copied += 1;
            }
            None => {
                choices.push(coster.best_placement(
                    devices,
                    &node.kind,
                    in_shape,
                    out_shape,
                    Some(row),
                )?);
                reenumerated += 1;
            }
        }
    }
    Ok((
        choices,
        PlanSource::Incremental {
            reenumerated,
            copied,
        },
    ))
}

/// Builds a [`PlanReport`] from partition-stage `choices`, mirroring
/// the tail of [`ULayer::plan_with_drift`]: branch distribution runs on
/// the pre-filled draft, then costs are summed and the execution plan
/// materialized. Identical partition output therefore yields an
/// identical report (modulo the pass-log prose).
fn assemble_report(
    cx: &PlanContext<'_>,
    choices: &[PlacementChoice],
    source: PlanSource,
) -> Result<PlanReport, ULayerError> {
    let mut draft = PlanDraft {
        placements: choices.iter().map(|c| c.placement.clone()).collect(),
        costs: choices.iter().map(|c| c.cost).collect(),
        branch_mappings: Vec::new(),
    };
    let splits = draft
        .placements
        .iter()
        .filter(|p| matches!(p, NodePlacement::Split { .. }))
        .count();
    let detail = match source {
        PlanSource::Incremental {
            reenumerated,
            copied,
        } => format!(
            "{} layers placed, {splits} channel-split (incremental: {reenumerated} re-enumerated, {copied} copied)",
            draft.placements.len(),
        ),
        _ => format!("{} layers placed, {splits} channel-split", draft.placements.len()),
    };
    let mut pass_log = vec![PlanPassReport {
        pass: "partition",
        rewrites: draft.placements.len(),
        detail,
    }];
    pass_log.push(BranchDistributionPass.run(cx, &mut draft)?);
    let predicted_serial_latency = draft.costs.iter().copied().sum();
    let plan =
        uruntime::ExecutionPlan::new(cx.graph, cx.spec, draft.placements, cx.config.label())?;
    Ok(PlanReport {
        plan,
        branch_mappings: draft.branch_mappings,
        predicted_serial_latency,
        pass_log,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use usoc::SocSpec;

    fn rt() -> ULayer {
        ULayer::new(SocSpec::exynos_7420()).unwrap()
    }

    fn reports_match(a: &PlanReport, b: &PlanReport) {
        assert_eq!(a.plan.placements, b.plan.placements);
        assert_eq!(a.predicted_serial_latency, b.predicted_serial_latency);
        assert_eq!(a.branch_mappings.len(), b.branch_mappings.len());
        for (x, y) in a.branch_mappings.iter().zip(&b.branch_mappings) {
            assert_eq!(x.assignment, y.assignment);
        }
    }

    #[test]
    fn graph_digest_ignores_names_but_not_structure() {
        let g1 = unn::ModelId::SqueezeNet.build_miniature();
        let g2 = g1.clone();
        // Renames must not invalidate cached plans.
        assert_eq!(graph_digest(&g1), graph_digest(&g2));
        let g3 = unn::ModelId::LeNet.build_miniature();
        assert_ne!(graph_digest(&g1), graph_digest(&g3));
        // Same digest across clones, stable across calls.
        assert_eq!(graph_digest(&g2), graph_digest(&g2));
        g2.infer_shapes().unwrap();
        assert_eq!(graph_digest(&g1), graph_digest(&g2));
    }

    #[test]
    fn scratch_session_plan_matches_plan_with_drift() {
        let rt = rt();
        let g = unn::ModelId::SqueezeNet.build_miniature();
        let mut session = PlannerSession::new(&rt, ReusePolicy::Exact);
        let frame = session.plan_frame(&g, None).unwrap();
        assert_eq!(frame.source, PlanSource::Scratch);
        let direct = rt.plan_with_drift(&g, None).unwrap();
        reports_match(&frame.report, &direct);
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
        let mut session = PlannerSession::with_capacity(&rt, ReusePolicy::Exact, 2);
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
    fn topology_and_config_participate_in_the_key() {
        // Same graph, different runtime config label -> different key,
        // no cross-contamination (each session is per-runtime, so this
        // is exercised via the key type directly).
        let base = PlanKey {
            graph: 1,
            topo: 2,
            config: 3,
            lost: vec![],
            drift: vec![],
            kind: ArtifactKind::Plan,
        };
        let mut other = base.clone();
        other.config = 4;
        assert_ne!(base, other);
        let mut lostk = base.clone();
        lostk.lost = vec![1];
        assert_ne!(base, lostk);
        let mut ladk = base.clone();
        ladk.kind = ArtifactKind::Ladder;
        assert_ne!(base, ladk);
    }
}
