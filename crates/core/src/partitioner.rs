//! The NN partitioner (§6): chooses each layer's execution configuration.
//!
//! For every layer the partitioner enumerates candidate placements —
//! CPU-only, GPU-only, and channel-wise splits at the configured `p`
//! values — estimates each candidate's latency with the [`crate::predictor`],
//! adds the §6 management overheads the runtime would pay, and keeps the
//! cheapest. With more than two processors (the §8.3 NPU extension) it
//! additionally considers n-way splits with throughput-proportional
//! shares.
//!
//! [`partition`] is the planner's one per-layer loop. Every layer's
//! candidates are costed from [`CostTables`], built once per `(graph,
//! config, device set)`; given a base draft, a layer whose decision the
//! plan cache's margin test proves unchanged is copied from the base
//! instead of re-enumerated. [`crate::draft`] runs branch distribution
//! on its result.

use usoc::{DeviceId, DeviceKind, DtypePlan, SocSpec, WorkClass};
use utensor::{DType, Shape};

use simcore::SimSpan;
use unn::{LayerKind, NodeId};
use uruntime::NodePlacement;

use crate::adapt::DriftAdapter;
use crate::config::ULayerConfig;
use crate::error::ULayerError;
use crate::plancache::{contraction, reuse, DriftSnapshot, PlanSource};
use crate::planning::{PlanContext, PlanDraft};
use crate::predictor::LatencyPredictor;

/// The dtype plan a device uses under the active configuration.
pub(crate) fn device_dtypes(spec: &SocSpec, device: DeviceId, cfg: &ULayerConfig) -> DtypePlan {
    if !cfg.proc_friendly_quant {
        return DtypePlan::uniform(DType::QUInt8);
    }
    match spec.devices[device.0].kind {
        DeviceKind::CpuCluster | DeviceKind::Npu => DtypePlan::proc_friendly_cpu(),
        DeviceKind::Gpu => DtypePlan::proc_friendly_gpu(),
    }
}

/// Per-layer candidate costing shared by the partitioner and the branch
/// distributor.
pub struct LayerCoster<'a> {
    pub spec: &'a SocSpec,
    pub predictor: &'a LatencyPredictor,
    pub cfg: &'a ULayerConfig,
    /// Online drift correction: observed/predicted latency ratios fed
    /// back from realized traces (None = trust the predictor as-is).
    pub drift: Option<&'a DriftAdapter>,
}

impl<'a> LayerCoster<'a> {
    /// A predicted kernel latency corrected by the drift adapter's
    /// factor for `(device, class)` (identity without an adapter).
    pub(crate) fn corrected(
        &self,
        device: DeviceId,
        class: usoc::WorkClass,
        kernel: SimSpan,
    ) -> SimSpan {
        match self.drift {
            Some(d) => {
                let f = d.factor(device, class);
                if f == 1.0 {
                    kernel
                } else {
                    kernel * f
                }
            }
            None => kernel,
        }
    }

    /// Predicted latency of running the whole layer on one device,
    /// including the host-side costs of a single-device execution and —
    /// on specs with network links — the round trip of shipping the
    /// input to the device and the output back to the host. Returns
    /// `None` when the placement is infeasible: unsupported dtype, no
    /// route from the host, or a working set that overflows the
    /// device's local RAM.
    pub fn single_cost(
        &self,
        device: DeviceId,
        kind: &LayerKind,
        in_shape: &Shape,
        out_shape: &Shape,
    ) -> Option<SimSpan> {
        self.single_cost_from(
            device,
            self.single_cost_entry(device, kind, in_shape, out_shape),
        )
    }

    /// The drift-independent part of [`Self::single_cost`]: feasibility
    /// plus the raw kernel and fixed (host + transfer) spans. `None`
    /// means infeasible — and feasibility never depends on drift, so an
    /// entry built once stays valid for every drift state.
    fn single_cost_entry(
        &self,
        device: DeviceId,
        kind: &LayerKind,
        in_shape: &Shape,
        out_shape: &Shape,
    ) -> Option<SingleCostEntry> {
        let dtypes = device_dtypes(self.spec, device, self.cfg);
        let work = usoc::layer_work(kind, in_shape, out_shape, dtypes, 1.0);
        if !self.spec.devices[device.0].fits_in_ram(work.total_bytes()) {
            return None;
        }
        let kernel = self.predictor.predict(device, &work).ok()?;
        let host = match self.spec.devices[device.0].kind {
            DeviceKind::CpuCluster => self.spec.cpu_dispatch_span(),
            DeviceKind::Gpu | DeviceKind::Npu => {
                self.spec.gpu_issue_span() + self.spec.gpu_wait_span()
            }
        };
        let transfer = if self.spec.has_network_links() {
            let home = self.spec.cpu();
            self.spec.transfer_span(home, device, work.bytes_in)?
                + self.spec.transfer_span(device, home, work.bytes_out)?
        } else {
            SimSpan::ZERO
        };
        Some(SingleCostEntry {
            class: work.class,
            kernel,
            fixed: host + transfer,
        })
    }

    /// The single-device entries of one layer over `devices`, in
    /// order: the `singles` row [`Self::best_placement`] takes and
    /// [`CostTables`] holds per node. Drift never participates.
    pub fn singles(
        &self,
        devices: &[DeviceId],
        kind: &LayerKind,
        in_shape: &Shape,
        out_shape: &Shape,
    ) -> Vec<Option<SingleCostEntry>> {
        devices
            .iter()
            .map(|&d| self.single_cost_entry(d, kind, in_shape, out_shape))
            .collect()
    }

    /// Applies the current drift state to a hoisted entry. Bit-exact
    /// with [`Self::single_cost`]: span addition is integer-nanosecond
    /// and associative, and the correction multiplies only the kernel
    /// term in both paths.
    pub(crate) fn single_cost_from(
        &self,
        device: DeviceId,
        entry: Option<SingleCostEntry>,
    ) -> Option<SimSpan> {
        let e = entry?;
        Some(self.corrected(device, e.class, e.kernel) + e.fixed)
    }

    /// The cost of `placement` of one layer under the coster's drift
    /// state, through the same code path [`Self::best_placement`] costs
    /// it with; `singles` is the layer's row over `devices`.
    pub(crate) fn placement_cost(
        &self,
        devices: &[DeviceId],
        singles: &[Option<SingleCostEntry>],
        placement: &NodePlacement,
        kind: &LayerKind,
        in_shape: &Shape,
        out_shape: &Shape,
    ) -> Option<SimSpan> {
        match placement {
            NodePlacement::Single { device, .. } => devices
                .iter()
                .position(|d| d == device)
                .and_then(|j| self.single_cost_from(*device, singles[j])),
            NodePlacement::Split { parts } => {
                let flat: Vec<(DeviceId, f64)> = parts.iter().map(|&(d, _, f)| (d, f)).collect();
                self.split_cost(&flat, kind, in_shape, out_shape)
            }
        }
    }

    /// Predicted latency of a channel-wise split across `parts`
    /// (`(device, fraction)`), including issue/merge overheads. On
    /// specs with network links each remote part also pays the serial
    /// transfer of its input slice out and its output slice back; a
    /// part with no route or an over-RAM working set makes the whole
    /// split infeasible (`None`).
    pub fn split_cost(
        &self,
        parts: &[(DeviceId, f64)],
        kind: &LayerKind,
        in_shape: &Shape,
        out_shape: &Shape,
    ) -> Option<SimSpan> {
        let networked = self.spec.has_network_links();
        let home = self.spec.cpu();
        let mut slowest = SimSpan::ZERO;
        let mut issue_total = SimSpan::ZERO;
        for &(device, frac) in parts {
            let dtypes = device_dtypes(self.spec, device, self.cfg);
            let work = usoc::layer_work(kind, in_shape, out_shape, dtypes, frac);
            if !self.spec.devices[device.0].fits_in_ram(work.total_bytes()) {
                return None;
            }
            let kernel = self.corrected(
                device,
                work.class,
                self.predictor.predict(device, &work).ok()?,
            );
            let mut part = match self.spec.devices[device.0].kind {
                DeviceKind::CpuCluster => kernel + self.spec.cpu_dispatch_span(),
                DeviceKind::Gpu | DeviceKind::Npu => {
                    // The issue precedes the CPU-side work on the host
                    // timeline (§6), delaying every part of the layer.
                    issue_total += self.spec.gpu_issue_span();
                    kernel
                }
            };
            if networked && device != home {
                part = part
                    + self.spec.transfer_span(home, device, work.bytes_in)?
                    + self.spec.transfer_span(device, home, work.bytes_out)?;
            }
            slowest = slowest.max(part);
        }
        let merge = if issue_total.is_zero() {
            self.spec.cpu_dispatch_span()
        } else {
            self.spec.gpu_wait_span() + self.spec.map_span()
        };
        Some(issue_total + slowest + merge)
    }

    /// The best placement for one layer over `devices`, with its
    /// predicted cost and the decision margin (runner-up cost) the
    /// incremental replanner needs.
    ///
    /// The split host is the subset's first CPU cluster (its first
    /// device when it has none) and every other member is a split
    /// partner; with the full device set this enumerates exactly the
    /// paper's CPU+accelerator candidates in the same order. All ids in
    /// `devices` must exist in the spec. `singles` is the layer's
    /// [`Self::singles`] row over the same `devices` under the same
    /// config; its entries are drift-independent, so any drift state is
    /// fine.
    pub fn best_placement(
        &self,
        devices: &[DeviceId],
        kind: &LayerKind,
        in_shape: &Shape,
        out_shape: &Shape,
        singles: &[Option<SingleCostEntry>],
    ) -> Result<PlacementChoice, ULayerError> {
        debug_assert_eq!(singles.len(), devices.len(), "singles row shape mismatch");
        let single_at = |i: usize, device: DeviceId| self.single_cost_from(device, singles[i]);
        // Selection keeps the strict first-wins order of the legacy
        // enumeration AND tracks the best non-chosen cost: whenever the
        // leader changes, the dethroned leader's cost is the new
        // runner-up bound (it was cheaper than every earlier loser).
        let mut best: Option<(NodePlacement, SimSpan)> = None;
        let mut runner_up: Option<SimSpan> = None;
        let mut consider = |placement: NodePlacement, cost: SimSpan| match &best {
            Some((_, c)) => {
                if cost < *c {
                    runner_up = Some(*c);
                    best = Some((placement, cost));
                } else if runner_up.map(|r| cost < r).unwrap_or(true) {
                    runner_up = Some(cost);
                }
            }
            None => best = Some((placement, cost)),
        };

        // Single-device candidates.
        for (i, &device) in devices.iter().enumerate() {
            if let Some(cost) = single_at(i, device) {
                consider(
                    NodePlacement::Single {
                        device,
                        dtypes: device_dtypes(self.spec, device, self.cfg),
                    },
                    cost,
                );
            }
        }

        // Channel-wise split candidates.
        let mut drift_shaped = false;
        let host = devices
            .iter()
            .copied()
            .find(|d| self.spec.devices[d.0].kind == DeviceKind::CpuCluster)
            .or_else(|| devices.first().copied());
        if self.cfg.channel_distribution && kind.is_distributable() {
            if let Some(host) = host {
                let partners: Vec<(usize, DeviceId)> = devices
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|&(_, d)| d != host)
                    .collect();
                // Two-way host+partner splits at the configured p values.
                for &(_, partner) in &partners {
                    for &p in &self.cfg.p_candidates {
                        let parts = [(host, p), (partner, 1.0 - p)];
                        if let Some(cost) = self.split_cost(&parts, kind, in_shape, out_shape) {
                            consider(
                                NodePlacement::Split {
                                    parts: parts
                                        .iter()
                                        .map(|&(d, f)| {
                                            (d, device_dtypes(self.spec, d, self.cfg), f)
                                        })
                                        .collect(),
                                },
                                cost,
                            );
                        }
                    }
                }
                // N-way split with throughput-proportional shares (NPU
                // extension): shares proportional to predicted speed.
                // The share vector itself is a function of the
                // drift-corrected single costs, so any layer that
                // reaches this enumeration is *drift-shaped*: the
                // incremental replanner must re-enumerate it whenever a
                // relevant factor moves (copying the cached fractions
                // would not be byte-identical to a scratch plan).
                if partners.len() >= 2 {
                    drift_shaped = true;
                    let host_index = devices
                        .iter()
                        .position(|&d| d == host)
                        .expect("host drawn from devices");
                    let members: Vec<(usize, DeviceId)> = std::iter::once((host_index, host))
                        .chain(partners.iter().copied())
                        .collect();
                    let speeds: Option<Vec<f64>> = members
                        .iter()
                        .map(|&(i, d)| single_at(i, d).map(|c| 1.0 / c.as_secs_f64().max(1e-12)))
                        .collect();
                    if let Some(speeds) = speeds {
                        let total: f64 = speeds.iter().sum();
                        if total > 0.0 {
                            let mut parts: Vec<(DeviceId, f64)> = members
                                .iter()
                                .zip(&speeds)
                                .map(|(&(_, d), &s)| (d, s / total))
                                .collect();
                            // Re-normalize exactly.
                            let sum: f64 = parts.iter().map(|p| p.1).sum();
                            for p in &mut parts {
                                p.1 /= sum;
                            }
                            if parts.iter().all(|p| p.1 > 0.01) {
                                if let Some(cost) =
                                    self.split_cost(&parts, kind, in_shape, out_shape)
                                {
                                    consider(
                                        NodePlacement::Split {
                                            parts: parts
                                                .iter()
                                                .map(|&(d, f)| {
                                                    (d, device_dtypes(self.spec, d, self.cfg), f)
                                                })
                                                .collect(),
                                        },
                                        cost,
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }

        match best {
            Some((placement, cost)) => Ok(PlacementChoice {
                placement,
                cost,
                runner_up,
                drift_shaped,
            }),
            None => Err(ULayerError::Plan(format!(
                "no feasible placement for {} layer",
                kind.op_name()
            ))),
        }
    }
}

/// One layer's planning decision plus what the incremental replanner
/// needs to decide whether the decision can survive a drift update
/// without re-enumeration.
#[derive(Clone, Debug, PartialEq)]
pub struct PlacementChoice {
    /// The winning placement.
    pub placement: NodePlacement,
    /// Its predicted cost under the drift state it was planned with.
    pub cost: SimSpan,
    /// The cheapest candidate that was *not* chosen, under the same
    /// drift state. `None` when the chosen placement was the only
    /// feasible candidate — feasibility is drift-independent, so such a
    /// layer can never flip.
    pub runner_up: Option<SimSpan>,
    /// True when the throughput-proportional n-way candidate was
    /// enumerated for this layer: its split fractions are themselves a
    /// function of drift, so the candidate *set* moves with the drift
    /// state and a cached decision cannot be margin-checked.
    pub drift_shaped: bool,
}

/// The drift-independent parts of one `(layer, device)` single-cost
/// evaluation: `cost(drift) = kernel × factor(device, class) + fixed`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SingleCostEntry {
    /// Work class (selects the drift factor).
    pub class: usoc::WorkClass,
    /// Uncorrected predicted kernel span.
    pub kernel: SimSpan,
    /// Host-side management + network round-trip spans.
    pub fixed: SimSpan,
}

/// Hoisted per-layer cost tables for one `(graph, spec, config,
/// device-subset)` tuple. Everything in here is drift-independent —
/// shapes from `infer_shapes`, each layer's work class and the
/// [`SingleCostEntry`] grid — so a planner session builds the tables
/// once per graph and reuses them for every replan, and one plan reads
/// its shapes from here in both the partitioner and branch
/// distribution.
#[derive(Clone, Debug)]
pub struct CostTables {
    /// The device subset the tables were built over, in subset order.
    pub devices: Vec<DeviceId>,
    /// Inferred output shape per node.
    pub shapes: Vec<Shape>,
    /// Work class per node (selects the drift factors it consults).
    pub(crate) classes: Vec<WorkClass>,
    /// `singles[node][i]` is the entry for `devices[i]`, `None` when
    /// the single placement is infeasible there.
    singles: Vec<Vec<Option<SingleCostEntry>>>,
}

impl CostTables {
    /// Builds the tables for `cx`'s graph, config and devices. Drift
    /// never participates, so the result is valid for every drift
    /// state over the same inputs.
    pub fn build(cx: &PlanContext<'_>) -> Result<CostTables, ULayerError> {
        let graph = cx.graph;
        let shapes = graph.infer_shapes()?;
        let coster = LayerCoster {
            drift: None,
            ..cx.coster()
        };
        let mut classes = Vec::with_capacity(graph.len());
        let mut singles = Vec::with_capacity(graph.len());
        for (i, node) in graph.nodes().iter().enumerate() {
            let in_shape = graph.node_input_shape(NodeId(i), &shapes);
            let row = coster.singles(cx.devices, &node.kind, in_shape, &shapes[i]);
            // With every single placement infeasible (a mesh-RAM layer)
            // the class comes from the layer kind, which alone decides it.
            classes.push(
                row.iter()
                    .find_map(|e| e.map(|e| e.class))
                    .unwrap_or_else(|| {
                        let dtypes = DtypePlan::uniform(DType::QUInt8);
                        usoc::layer_work(&node.kind, in_shape, &shapes[i], dtypes, 1.0).class
                    }),
            );
            singles.push(row);
        }
        Ok(CostTables {
            devices: cx.devices.to_vec(),
            shapes,
            classes,
            singles,
        })
    }
}

/// Plans every layer independently over `cx.devices` (channel
/// distribution + quantization; [`crate::draft`] applies branch
/// distribution on top), correcting the predictor's kernel estimates by
/// `cx.drift`. Every layer is placed on — or split across — members of
/// `cx.devices` only: the full device set for the cooperative plan, a
/// surviving connected subset or a single processor for the degradation
/// ladder's lower rungs.
///
/// `tables` must have been built for `cx`. With a `base` draft planned
/// earlier over the same graph, config and devices, a layer whose
/// decision the margin test (see the plan cache) proves unchanged under
/// the drift moved since the base is copied rather than re-enumerated;
/// the result is byte-identical to planning without a base. The
/// returned draft has no branch mappings yet.
pub fn partition(
    cx: &PlanContext<'_>,
    tables: &CostTables,
    base: Option<&PlanDraft>,
) -> Result<PlanDraft, ULayerError> {
    debug_assert!(
        tables.devices == cx.devices,
        "cost tables were built for a different device subset"
    );
    let coster = cx.coster();
    let drift = DriftSnapshot::capture(cx.drift, cx.devices);
    let base = base.map(|b| {
        debug_assert_eq!(b.choices.len(), cx.graph.len());
        (&b.choices, contraction(&b.drift, &drift))
    });
    let mut choices = Vec::with_capacity(cx.graph.len());
    let mut copied = 0usize;
    for (i, node) in cx.graph.nodes().iter().enumerate() {
        let in_shape = cx.graph.node_input_shape(NodeId(i), &tables.shapes);
        let out_shape = &tables.shapes[i];
        let row = &tables.singles[i];
        let reused = base.as_ref().and_then(|(choices, moved)| {
            let base = &choices[i];
            match moved[tables.classes[i].index()] {
                // No factor this layer's costs consult moved: every
                // candidate cost — chosen and not — is unchanged.
                None => Some(base.clone()),
                // The n-way proportional candidate's fractions move with
                // the drift state: the candidate set itself changed.
                Some(_) if base.drift_shaped => None,
                Some(rho) => coster
                    .placement_cost(
                        cx.devices,
                        row,
                        &base.placement,
                        &node.kind,
                        in_shape,
                        out_shape,
                    )
                    .and_then(|cost| reuse(base, cost, rho)),
            }
        });
        choices.push(match reused {
            Some(choice) => {
                copied += 1;
                choice
            }
            None => coster.best_placement(cx.devices, &node.kind, in_shape, out_shape, row)?,
        });
    }
    let source = match base {
        Some(_) => PlanSource::Incremental {
            reenumerated: choices.len() - copied,
            copied,
        },
        None => PlanSource::Scratch,
    };
    Ok(PlanDraft {
        placements: choices.iter().map(|c| c.placement.clone()).collect(),
        costs: choices.iter().map(|c| c.cost).collect(),
        branch_mappings: Vec::new(),
        choices,
        drift,
        source,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use unn::Graph;

    fn setup() -> (SocSpec, LatencyPredictor) {
        let spec = SocSpec::exynos_7420();
        let pred = LatencyPredictor::train(&spec).unwrap();
        (spec, pred)
    }

    /// The partitioner's placements and per-layer costs of `graph` over
    /// `devices`.
    pub(crate) fn partitioned(
        spec: &SocSpec,
        predictor: &LatencyPredictor,
        config: &ULayerConfig,
        graph: &Graph,
        devices: &[DeviceId],
    ) -> (Vec<NodePlacement>, Vec<SimSpan>) {
        let cx = PlanContext {
            spec,
            predictor,
            config,
            graph,
            drift: None,
            devices,
        };
        let draft = partition(&cx, &CostTables::build(&cx).unwrap(), None).unwrap();
        (draft.placements, draft.costs)
    }

    /// The partitioner's placement of one layer over every device.
    fn best(
        coster: &LayerCoster,
        kind: &LayerKind,
        in_shape: &Shape,
        out_shape: &Shape,
    ) -> NodePlacement {
        let ids = coster.spec.device_ids();
        let singles = coster.singles(&ids, kind, in_shape, out_shape);
        coster
            .best_placement(&ids, kind, in_shape, out_shape, &singles)
            .unwrap()
            .placement
    }

    #[test]
    fn big_conv_gets_split() {
        let (spec, pred) = setup();
        let cfg = ULayerConfig::full();
        let coster = LayerCoster {
            spec: &spec,
            predictor: &pred,
            cfg: &cfg,
            drift: None,
        };
        let kind = LayerKind::Conv {
            oc: 256,
            k: 3,
            stride: 1,
            pad: 1,
            relu: true,
        };
        let in_shape = Shape::nchw(1, 256, 28, 28);
        let out_shape = Shape::nchw(1, 256, 28, 28);
        let placement = best(&coster, &kind, &in_shape, &out_shape);
        assert!(
            matches!(placement, NodePlacement::Split { .. }),
            "expected split, got {placement:?}"
        );
    }

    #[test]
    fn tiny_layer_stays_single() {
        // Sync overheads dwarf a tiny layer's compute: single processor
        // wins (the §5 motivation).
        let (spec, pred) = setup();
        let cfg = ULayerConfig::full();
        let coster = LayerCoster {
            spec: &spec,
            predictor: &pred,
            cfg: &cfg,
            drift: None,
        };
        let kind = LayerKind::Conv {
            oc: 16,
            k: 1,
            stride: 1,
            pad: 0,
            relu: true,
        };
        let in_shape = Shape::nchw(1, 16, 7, 7);
        let out_shape = Shape::nchw(1, 16, 7, 7);
        let placement = best(&coster, &kind, &in_shape, &out_shape);
        assert!(
            matches!(placement, NodePlacement::Single { .. }),
            "expected single, got {placement:?}"
        );
    }

    #[test]
    fn split_shares_respect_processor_balance() {
        // With proc-friendly quantization the CPU (30.8 GMAC/s QUInt8)
        // and GPU (36.2 GMAC/s F16) are nearly balanced: p = 0.5 should
        // beat p = 0.25 and p = 0.75 on a big compute-bound layer.
        let (spec, pred) = setup();
        let cfg = ULayerConfig::full();
        let coster = LayerCoster {
            spec: &spec,
            predictor: &pred,
            cfg: &cfg,
            drift: None,
        };
        let kind = LayerKind::Conv {
            oc: 512,
            k: 3,
            stride: 1,
            pad: 1,
            relu: true,
        };
        let in_shape = Shape::nchw(1, 512, 28, 28);
        let out_shape = Shape::nchw(1, 512, 28, 28);
        let cost_at = |p: f64| {
            coster
                .split_cost(
                    &[(spec.cpu(), p), (spec.gpu(), 1.0 - p)],
                    &kind,
                    &in_shape,
                    &out_shape,
                )
                .unwrap()
        };
        assert!(cost_at(0.5) < cost_at(0.25));
        assert!(cost_at(0.5) < cost_at(0.75));
    }

    #[test]
    fn without_channel_distribution_everything_is_single() {
        let (spec, pred) = setup();
        let mut cfg = ULayerConfig::full();
        cfg.channel_distribution = false;
        let g = unn::ModelId::SqueezeNet.build();
        let (placements, _) = partitioned(&spec, &pred, &cfg, &g, &spec.device_ids());
        assert!(placements
            .iter()
            .all(|p| matches!(p, NodePlacement::Single { .. })));
    }

    #[test]
    fn proc_quant_selects_mixed_dtypes() {
        let (spec, pred) = setup();
        let cfg = ULayerConfig::full();
        let g = unn::ModelId::Vgg16.build();
        let (placements, _) = partitioned(&spec, &pred, &cfg, &g, &spec.device_ids());
        let mut saw_gpu_f16 = false;
        for p in &placements {
            if let NodePlacement::Split { parts } = p {
                for (d, dtypes, _) in parts {
                    if spec.devices[d.0].kind == DeviceKind::Gpu {
                        assert_eq!(dtypes.compute, DType::F16);
                        assert_eq!(dtypes.storage, DType::QUInt8);
                        saw_gpu_f16 = true;
                    }
                }
            }
        }
        assert!(saw_gpu_f16, "VGG-16 should have split conv layers");
    }

    #[test]
    fn without_proc_quant_everything_is_quint8() {
        let (spec, pred) = setup();
        let cfg = ULayerConfig::channel_distribution_only();
        let g = unn::ModelId::AlexNet.build();
        let (placements, _) = partitioned(&spec, &pred, &cfg, &g, &spec.device_ids());
        for p in &placements {
            match p {
                NodePlacement::Single { dtypes, .. } => {
                    assert_eq!(dtypes.compute, DType::QUInt8)
                }
                NodePlacement::Split { parts } => {
                    for (_, dtypes, _) in parts {
                        assert_eq!(dtypes.compute, DType::QUInt8);
                    }
                }
            }
        }
    }

    #[test]
    fn subset_placement_never_leaves_the_subset() {
        let spec = SocSpec::exynos_7420().with_npu();
        let pred = LatencyPredictor::train(&spec).unwrap();
        let cfg = ULayerConfig::full();
        let within = |placements: &[NodePlacement], subset: &[DeviceId]| {
            for p in placements {
                for d in p.devices() {
                    assert!(subset.contains(&d), "{p:?} uses {d} outside {subset:?}");
                }
            }
        };
        let npu = spec.find(DeviceKind::Npu).unwrap();
        let g = unn::ModelId::SqueezeNet.build_miniature();
        let (placements, _) = partitioned(&spec, &pred, &cfg, &g, &[spec.cpu(), npu]);
        within(&placements, &[spec.cpu(), npu]);
        // The whole planning function, branch distribution enabled, on a
        // net whose branch groups map onto the GPU over the full set.
        let g = unn::ModelId::GoogLeNet.build();
        for subset in [vec![spec.cpu()], vec![spec.cpu(), npu]] {
            let cx = PlanContext {
                spec: &spec,
                predictor: &pred,
                config: &cfg,
                graph: &g,
                drift: None,
                devices: &subset,
            };
            let draft = crate::draft(&cx, &CostTables::build(&cx).unwrap(), None).unwrap();
            within(&draft.placements, &subset);
            assert!(draft.branch_mappings.is_empty());
        }
    }

    #[test]
    fn mesh_ram_limit_forces_a_multi_node_split() {
        // A layer whose QUInt8 working set overflows one MCU node's RAM
        // must be split across nodes; a layer that fits may stay single.
        let spec = SocSpec::mcu_mesh(4);
        let pred = LatencyPredictor::train(&spec).unwrap();
        let cfg = ULayerConfig::channel_distribution_only();
        let coster = LayerCoster {
            spec: &spec,
            predictor: &pred,
            cfg: &cfg,
            drift: None,
        };
        let kind = LayerKind::Conv {
            oc: 64,
            k: 3,
            stride: 1,
            pad: 1,
            relu: true,
        };
        let in_shape = Shape::nchw(1, 64, 40, 40);
        let out_shape = Shape::nchw(1, 64, 40, 40);
        assert!(
            coster
                .single_cost(spec.cpu(), &kind, &in_shape, &out_shape)
                .is_none(),
            "the full layer should overflow one node's RAM"
        );
        let placement = best(&coster, &kind, &in_shape, &out_shape);
        assert!(
            matches!(placement, NodePlacement::Split { .. }),
            "expected a RAM-forced split, got {placement:?}"
        );
    }

    #[test]
    fn npu_participates_in_nway_split() {
        let spec = SocSpec::exynos_7420().with_npu();
        let pred = LatencyPredictor::train(&spec).unwrap();
        let cfg = ULayerConfig::full();
        let coster = LayerCoster {
            spec: &spec,
            predictor: &pred,
            cfg: &cfg,
            drift: None,
        };
        let kind = LayerKind::Conv {
            oc: 512,
            k: 3,
            stride: 1,
            pad: 1,
            relu: true,
        };
        let in_shape = Shape::nchw(1, 512, 56, 56);
        let out_shape = Shape::nchw(1, 512, 56, 56);
        let placement = best(&coster, &kind, &in_shape, &out_shape);
        if let NodePlacement::Split { parts } = &placement {
            assert_eq!(parts.len(), 3, "expected a 3-way split, got {placement:?}");
        } else {
            panic!("expected split, got {placement:?}");
        }
    }
}
