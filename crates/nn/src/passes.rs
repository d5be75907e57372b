//! Graph rewrite passes: activation fusion, quantize-pair elision,
//! dead-node elimination, and concat-elision annotation.
//!
//! A [`Module`] bundles a [`Graph`] with its per-node side tables
//! (weights, calibration) so a rewrite keeps all three consistent. A
//! [`Pass`] transforms a module in place and reports what it changed; a
//! [`PassRunner`] applies an ordered pass list, revalidating the graph
//! and the output designation after every pass.
//!
//! Every pass here is *provably output-preserving* in every dtype the
//! executors support:
//!
//! - **Activation fusion** folds a standalone `Relu` into its
//!   single-consumer producer (`Conv` / `DepthwiseConv` /
//!   `FullyConnected` / `Add` with `relu: false`). The fused kernels
//!   apply the activation with the exact expression the standalone
//!   `relu` kernel uses (`max(x, 0)` on floats, clamping codes at the
//!   zero point on QUInt8), and quantization-preserving layers store
//!   with their input's params, so the fused output is bit-identical.
//! - **Quantize-pair elision** drops the second of two adjacent
//!   `Quantize` nodes with equal params. Fake-quantization is
//!   idempotent (`snap ∘ snap == snap` exactly), so the drop changes no
//!   output bit.
//! - **Dead-node elimination** removes nodes that cannot reach the
//!   designated output.
//! - **Concat elision** does not rewrite the graph at all: it marks
//!   concats whose producers can write their channel ranges directly
//!   into the join buffer (each input single-consumer), letting the
//!   scheduler skip the merge copy. The numerics of the join are
//!   unchanged; only the timing engine's task graph shrinks.

use std::collections::{BTreeMap, BTreeSet};

use utensor::TensorError;

use crate::graph::{Graph, Node, NodeId};
use crate::layer::LayerKind;
use crate::weights::{Calibration, Weights};

/// A graph plus the per-node side tables a rewrite must keep aligned.
#[derive(Clone, Debug)]
pub struct Module {
    /// The (possibly rewritten) graph.
    pub graph: Graph,
    /// Per-node weights, if the module carries numerics.
    pub weights: Option<Weights>,
    /// Per-node quantization calibration, if present.
    pub calib: Option<Calibration>,
    /// Concat nodes (current-graph ids) whose merge the scheduler may
    /// elide because every producer can write in place.
    pub elided_concats: BTreeSet<NodeId>,
    /// Current id of every node of the *original* graph this module was
    /// created from (`None` once eliminated as dead). A node absorbed
    /// into another (fusion, pair elision) maps to its absorber, so the
    /// original output stays traceable across every rewrite.
    node_map: Vec<Option<NodeId>>,
    /// The original graph's designated output.
    original_output: NodeId,
}

impl Module {
    /// Wraps a graph with no side tables (structure-only rewriting).
    pub fn new(graph: Graph) -> Module {
        let n = graph.len();
        let original_output = graph.output();
        Module {
            graph,
            weights: None,
            calib: None,
            elided_concats: BTreeSet::new(),
            node_map: (0..n).map(|i| Some(NodeId(i))).collect(),
            original_output,
        }
    }

    /// Wraps a graph with its weights and calibration, validating that
    /// the side tables match the graph's node count.
    pub fn with_tables(
        graph: Graph,
        weights: Weights,
        calib: Calibration,
    ) -> Result<Module, TensorError> {
        if weights.len() != graph.len() {
            return Err(TensorError::BadGraph(format!(
                "weights cover {} nodes but the graph has {}",
                weights.len(),
                graph.len()
            )));
        }
        if calib.act_params.len() != graph.len() {
            return Err(TensorError::BadGraph(format!(
                "calibration covers {} nodes but the graph has {}",
                calib.act_params.len(),
                graph.len()
            )));
        }
        let mut m = Module::new(graph);
        m.weights = Some(weights);
        m.calib = Some(calib);
        Ok(m)
    }

    /// The current id of an original-graph node (`None` once dead-code
    /// eliminated; nodes absorbed by fusion map to their absorber).
    pub(crate) fn current_id(&self, original: NodeId) -> Option<NodeId> {
        self.node_map.get(original.0).copied().flatten()
    }

    /// The original graph's output, as a current-graph id.
    pub fn output_now(&self) -> Option<NodeId> {
        self.current_id(self.original_output)
    }
}

/// What one pass did to a module.
#[derive(Clone, Debug)]
pub struct PassReport {
    /// The pass's name.
    pub pass: &'static str,
    /// Number of rewrites applied (0 = the pass was a no-op here).
    pub rewrites: usize,
    /// Human-readable summary of the changes.
    pub detail: String,
}

/// A graph rewrite (or annotation) pass.
pub trait Pass {
    /// Stable pass name (used in reports and pass-list configs).
    fn name(&self) -> &'static str;
    /// Transforms the module in place.
    fn run(&self, module: &mut Module) -> Result<PassReport, TensorError>;
}

/// One pass's node-level decisions against the current graph, applied
/// atomically by [`apply_rewrite`].
#[derive(Clone, Debug, Default)]
struct Rewrite {
    /// Kept nodes whose kind changes (fusion flips `relu` flags).
    new_kinds: BTreeMap<usize, LayerKind>,
    /// Dropped nodes whose consumers re-read another (pre-rewrite) node.
    /// The target must be an ancestor, so redirect chains terminate.
    absorb: BTreeMap<usize, NodeId>,
    /// Dropped nodes with no consumers left (dead code).
    dead: BTreeSet<usize>,
}

impl Rewrite {
    fn is_empty(&self) -> bool {
        self.new_kinds.is_empty() && self.absorb.is_empty() && self.dead.is_empty()
    }
}

/// Rebuilds the module's graph and side tables under a [`Rewrite`],
/// remapping node ids everywhere they appear: node inputs, the output
/// designation, weights, calibration entries, elision annotations, and
/// the original-node map.
fn apply_rewrite(module: &mut Module, rw: &Rewrite) -> Result<(), TensorError> {
    let n = module.graph.len();

    // Resolve a pre-rewrite id to the pre-rewrite node that survives in
    // its place (following absorb chains, e.g. q3 -> q2 -> q1).
    let resolve = |mut id: NodeId| -> Result<NodeId, TensorError> {
        for _ in 0..=n {
            match rw.absorb.get(&id.0) {
                Some(&target) => id = target,
                None => return Ok(id),
            }
        }
        Err(TensorError::BadGraph(format!(
            "rewrite redirect cycle at {id}"
        )))
    };

    let keep: Vec<bool> = (0..n)
        .map(|i| !rw.absorb.contains_key(&i) && !rw.dead.contains(&i))
        .collect();
    let mut new_index = vec![usize::MAX; n];
    let mut next = 0usize;
    for (i, &k) in keep.iter().enumerate() {
        if k {
            new_index[i] = next;
            next += 1;
        }
    }
    let remap = |id: NodeId| -> Result<NodeId, TensorError> {
        let r = resolve(id)?;
        if !keep[r.0] {
            return Err(TensorError::BadGraph(format!(
                "rewrite redirects {id} to eliminated node {r}"
            )));
        }
        Ok(NodeId(new_index[r.0]))
    };

    let (name, input_shape, old_nodes, old_output) = module.graph.clone().into_parts();
    let mut nodes = Vec::with_capacity(next);
    for (i, node) in old_nodes.into_iter().enumerate() {
        if !keep[i] {
            continue;
        }
        let kind = rw.new_kinds.get(&i).cloned().unwrap_or(node.kind);
        let inputs = node
            .inputs
            .iter()
            .map(|&d| remap(d))
            .collect::<Result<Vec<_>, _>>()?;
        nodes.push(Node {
            name: node.name,
            kind,
            inputs,
        });
    }
    if rw.dead.contains(&old_output.0) {
        return Err(TensorError::BadGraph(format!(
            "rewrite eliminated the graph output {old_output}"
        )));
    }
    let output = remap(old_output)?;
    module.graph = Graph::from_parts(name, input_shape, nodes, output)?;

    // Side tables keep the entries of surviving nodes, in order.
    let filter_kept = |len: usize| -> Result<(), TensorError> {
        if len != n {
            return Err(TensorError::BadGraph(format!(
                "side table covers {len} nodes but the graph had {n}"
            )));
        }
        Ok(())
    };
    if let Some(w) = module.weights.take() {
        filter_kept(w.len())?;
        let kept = w
            .into_per_node()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| keep[*i])
            .map(|(_, lw)| lw)
            .collect();
        module.weights = Some(Weights::from_per_node(kept));
    }
    if let Some(c) = module.calib.take() {
        filter_kept(c.act_params.len())?;
        let act_params = c
            .act_params
            .iter()
            .enumerate()
            .filter(|(i, _)| keep[*i])
            .map(|(_, p)| *p)
            .collect();
        let weight_params = c
            .weight_params
            .iter()
            .enumerate()
            .filter(|(i, _)| keep[*i])
            .map(|(_, p)| *p)
            .collect();
        module.calib = Some(Calibration {
            input_params: c.input_params,
            act_params,
            weight_params,
        });
    }
    module.elided_concats = module
        .elided_concats
        .iter()
        .filter(|id| keep[id.0])
        .map(|id| NodeId(new_index[id.0]))
        .collect();
    for slot in module.node_map.iter_mut() {
        *slot = match slot {
            Some(cur) => {
                if rw.dead.contains(&cur.0) {
                    None
                } else {
                    Some(remap(*cur)?)
                }
            }
            None => None,
        };
    }
    Ok(())
}

/// Folds standalone `Relu` nodes into their single-consumer producer
/// when the producer supports a fused activation (`Conv`,
/// `DepthwiseConv`, `FullyConnected`, `Add` — all with `relu: false`).
///
/// Sound in every dtype: the fused kernels apply the activation exactly
/// as the standalone kernel would to their output, and a standalone
/// ReLU stores with its input's quantization params, so consumers see
/// bit-identical tensors.
pub struct FuseActivations;

impl Pass for FuseActivations {
    fn name(&self) -> &'static str {
        "fuse-activations"
    }

    fn run(&self, module: &mut Module) -> Result<PassReport, TensorError> {
        let g = &module.graph;
        let consumers = g.consumers();
        let mut rw = Rewrite::default();
        let mut fused = Vec::new();
        for (i, node) in g.nodes().iter().enumerate() {
            if !matches!(node.kind, LayerKind::Relu) {
                continue;
            }
            let [producer] = node.inputs[..] else {
                continue; // reads the graph input, or malformed
            };
            // The producer's pre-activation output must not be observed
            // by anyone else.
            if consumers.get(&Some(producer)).map(Vec::as_slice) != Some(&[NodeId(i)]) {
                continue;
            }
            let fused_kind = match &g.node(producer).kind {
                LayerKind::Conv {
                    oc,
                    k,
                    stride,
                    pad,
                    relu: false,
                } => LayerKind::Conv {
                    oc: *oc,
                    k: *k,
                    stride: *stride,
                    pad: *pad,
                    relu: true,
                },
                LayerKind::DepthwiseConv {
                    k,
                    stride,
                    pad,
                    relu: false,
                } => LayerKind::DepthwiseConv {
                    k: *k,
                    stride: *stride,
                    pad: *pad,
                    relu: true,
                },
                LayerKind::FullyConnected { out, relu: false } => LayerKind::FullyConnected {
                    out: *out,
                    relu: true,
                },
                LayerKind::Add { relu: false } => LayerKind::Add { relu: true },
                _ => continue,
            };
            rw.new_kinds.insert(producer.0, fused_kind);
            rw.absorb.insert(i, producer);
            fused.push(g.node(producer).name.clone());
        }
        let rewrites = rw.absorb.len();
        if !rw.is_empty() {
            apply_rewrite(module, &rw)?;
        }
        Ok(PassReport {
            pass: self.name(),
            rewrites,
            detail: if fused.is_empty() {
                "no fusable activations".into()
            } else {
                format!("fused relu into: {}", fused.join(", "))
            },
        })
    }
}

/// Drops the second of two adjacent `Quantize` nodes carrying equal
/// params. Fake-quantization is idempotent on its own grid in every
/// dtype, so all consumers of the second node can read the first's
/// output bit-for-bit.
pub struct ElideQuantPairs;

impl Pass for ElideQuantPairs {
    fn name(&self) -> &'static str {
        "elide-quant-pairs"
    }

    fn run(&self, module: &mut Module) -> Result<PassReport, TensorError> {
        let g = &module.graph;
        let mut rw = Rewrite::default();
        let mut elided = Vec::new();
        for (i, node) in g.nodes().iter().enumerate() {
            let LayerKind::Quantize { params } = node.kind else {
                continue;
            };
            let [producer] = node.inputs[..] else {
                continue;
            };
            let LayerKind::Quantize { params: prev } = g.node(producer).kind else {
                continue;
            };
            if prev == params {
                // Chains (q1 -> q2 -> q3) resolve transitively when the
                // rewrite is applied.
                rw.absorb.insert(i, producer);
                elided.push(node.name.clone());
            }
        }
        let rewrites = rw.absorb.len();
        if !rw.is_empty() {
            apply_rewrite(module, &rw)?;
        }
        Ok(PassReport {
            pass: self.name(),
            rewrites,
            detail: if elided.is_empty() {
                "no redundant quantize pairs".into()
            } else {
                format!("elided: {}", elided.join(", "))
            },
        })
    }
}

/// Removes nodes that cannot reach the designated output.
pub struct EliminateDeadNodes;

impl Pass for EliminateDeadNodes {
    fn name(&self) -> &'static str {
        "eliminate-dead-nodes"
    }

    fn run(&self, module: &mut Module) -> Result<PassReport, TensorError> {
        let g = &module.graph;
        let mut live = vec![false; g.len()];
        let mut stack = vec![g.output()];
        while let Some(id) = stack.pop() {
            if live[id.0] {
                continue;
            }
            live[id.0] = true;
            stack.extend(g.node(id).inputs.iter().copied());
        }
        let mut rw = Rewrite::default();
        let mut removed = Vec::new();
        for (i, l) in live.iter().enumerate() {
            if !l {
                rw.dead.insert(i);
                removed.push(g.node(NodeId(i)).name.clone());
            }
        }
        let rewrites = rw.dead.len();
        if !rw.is_empty() {
            apply_rewrite(module, &rw)?;
        }
        Ok(PassReport {
            pass: self.name(),
            rewrites,
            detail: if removed.is_empty() {
                "no dead nodes".into()
            } else {
                format!("removed: {}", removed.join(", "))
            },
        })
    }
}

/// Marks concat nodes whose merge copy the scheduler may skip: every
/// input branch ends in a node consumed *only* by this concat, so each
/// branch can write its channel range directly into the join buffer.
///
/// Purely an annotation — the graph is untouched and the functional
/// numerics are unchanged; the timing engine replaces the concat's
/// compute-and-copy with a zero-span merge point. Concats fed by
/// another elided concat are skipped (the inner buffer would itself
/// have to be a view), which a topological sweep handles naturally.
pub struct ElideConcats;

impl Pass for ElideConcats {
    fn name(&self) -> &'static str {
        "elide-concats"
    }

    fn run(&self, module: &mut Module) -> Result<PassReport, TensorError> {
        let g = &module.graph;
        let consumers = g.consumers();
        let mut elided = BTreeSet::new();
        let mut names = Vec::new();
        for (i, node) in g.nodes().iter().enumerate() {
            if !matches!(node.kind, LayerKind::Concat) || node.inputs.len() < 2 {
                continue;
            }
            let eligible = node.inputs.iter().all(|&b| {
                consumers.get(&Some(b)).map(Vec::as_slice) == Some(&[NodeId(i)])
                    && !elided.contains(&b)
            });
            if eligible {
                elided.insert(NodeId(i));
                names.push(node.name.clone());
            }
        }
        let rewrites = elided.len();
        module.elided_concats = elided;
        Ok(PassReport {
            pass: self.name(),
            rewrites,
            detail: if names.is_empty() {
                "no elidable concats".into()
            } else {
                format!("elided merge of: {}", names.join(", "))
            },
        })
    }
}

/// Applies an ordered pass list, revalidating after every pass.
pub struct PassRunner {
    passes: Vec<Box<dyn Pass>>,
}

impl PassRunner {
    /// A runner over an explicit pass list.
    pub fn new(passes: Vec<Box<dyn Pass>>) -> PassRunner {
        PassRunner { passes }
    }

    /// The default pipeline: fusion, quantize-pair elision, dead-node
    /// elimination, then concat elision (annotation last, so it sees
    /// final node ids).
    pub fn default_pipeline() -> PassRunner {
        PassRunner::new(vec![
            Box::new(FuseActivations),
            Box::new(ElideQuantPairs),
            Box::new(EliminateDeadNodes),
            Box::new(ElideConcats),
        ])
    }

    /// The passes' names, in run order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs every pass in order, returning one report per pass.
    ///
    /// After each pass the graph is revalidated (shape inference doubles
    /// as structural validation) and the original output must still be
    /// reachable through the module's node map.
    pub fn run(&self, module: &mut Module) -> Result<Vec<PassReport>, TensorError> {
        let mut reports = Vec::with_capacity(self.passes.len());
        for pass in &self.passes {
            let report = pass.run(module)?;
            module.graph.infer_shapes()?;
            let out = module.output_now().ok_or_else(|| {
                TensorError::BadGraph(format!(
                    "pass '{}' eliminated the original output",
                    report.pass
                ))
            })?;
            debug_assert_eq!(
                out,
                module.graph.output(),
                "pass '{}' moved the output without updating the designation",
                report.pass
            );
            if let Some(w) = &module.weights {
                debug_assert_eq!(w.len(), module.graph.len());
            }
            if let Some(c) = &module.calib {
                debug_assert_eq!(c.act_params.len(), module.graph.len());
            }
            reports.push(report);
        }
        Ok(reports)
    }
}

/// Runs the default pipeline over a bare graph, returning the optimized
/// graph, the concat-elision set, and the per-pass reports.
pub fn optimize(graph: Graph) -> Result<(Graph, BTreeSet<NodeId>, Vec<PassReport>), TensorError> {
    let mut module = Module::new(graph);
    let reports = PassRunner::default_pipeline().run(&mut module)?;
    Ok((module.graph, module.elided_concats, reports))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelId;
    use utensor::{QuantParams, Shape};

    fn conv(oc: usize, relu: bool) -> LayerKind {
        LayerKind::Conv {
            oc,
            k: 3,
            stride: 1,
            pad: 1,
            relu,
        }
    }

    #[test]
    fn fuses_relu_into_single_consumer_producer() {
        let mut g = Graph::new("f", Shape::nchw(1, 3, 8, 8));
        let c = g.add_input_layer("conv", conv(4, false));
        let r = g.add("relu", LayerKind::Relu, c);
        g.add(
            "fc",
            LayerKind::FullyConnected {
                out: 10,
                relu: false,
            },
            r,
        );
        let mut m = Module::new(g);
        let report = FuseActivations.run(&mut m).unwrap();
        assert_eq!(report.rewrites, 1);
        assert_eq!(m.graph.len(), 2);
        assert!(matches!(
            m.graph.node(NodeId(0)).kind,
            LayerKind::Conv { relu: true, .. }
        ));
        // The fc now reads the fused conv.
        assert_eq!(m.graph.node(NodeId(1)).inputs, vec![NodeId(0)]);
        // The original relu maps to its absorber; the output moved with
        // the renumbering.
        assert_eq!(m.current_id(NodeId(1)), Some(NodeId(0)));
        assert_eq!(m.graph.output(), NodeId(1));
    }

    #[test]
    fn fusion_respects_other_consumers_of_the_preactivation() {
        // conv feeds both a relu and a second consumer: the
        // pre-activation tensor is observed, so fusion must not fire.
        let mut g = Graph::new("f", Shape::nchw(1, 3, 8, 8));
        let c = g.add_input_layer("conv", conv(4, false));
        let r = g.add("relu", LayerKind::Relu, c);
        let p = g.add(
            "pool",
            LayerKind::Pool {
                func: crate::layer::PoolFunc::Max,
                k: 2,
                stride: 2,
                pad: 0,
            },
            c,
        );
        let _ = (r, p);
        g.add_multi("join", LayerKind::Concat, &[r, p]);
        let mut m = Module::new(g);
        let report = FuseActivations.run(&mut m).unwrap();
        assert_eq!(report.rewrites, 0);
        assert_eq!(m.graph.len(), 4);
    }

    #[test]
    fn fusion_fires_on_resnet_add() {
        let g = ModelId::ResNet18.build_miniature();
        let before_relu = g
            .nodes()
            .iter()
            .filter(|n| matches!(n.kind, LayerKind::Relu))
            .count();
        assert!(before_relu > 0, "resnet has standalone relus");
        let mut m = Module::new(g);
        let report = FuseActivations.run(&mut m).unwrap();
        assert_eq!(report.rewrites, before_relu);
        assert!(m
            .graph
            .nodes()
            .iter()
            .all(|n| !matches!(n.kind, LayerKind::Relu)));
        assert!(m
            .graph
            .nodes()
            .iter()
            .any(|n| matches!(n.kind, LayerKind::Add { relu: true })));
        m.graph.infer_shapes().unwrap();
    }

    #[test]
    fn quant_pair_chain_elides_transitively() {
        let p = QuantParams::from_range(-2.0, 2.0).unwrap();
        let other = QuantParams::from_range(-4.0, 4.0).unwrap();
        let mut g = Graph::new("q", Shape::nchw(1, 3, 4, 4));
        let c = g.add_input_layer("conv", conv(4, true));
        let q1 = g.add("q1", LayerKind::Quantize { params: p }, c);
        let q2 = g.add("q2", LayerKind::Quantize { params: p }, q1);
        let q3 = g.add("q3", LayerKind::Quantize { params: p }, q2);
        let qx = g.add("qx", LayerKind::Quantize { params: other }, q3);
        g.add("softmax", LayerKind::Softmax, qx);
        let mut m = Module::new(g);
        let report = ElideQuantPairs.run(&mut m).unwrap();
        // q2 and q3 collapse into q1; qx has different params and stays.
        assert_eq!(report.rewrites, 2);
        assert_eq!(m.graph.len(), 4);
        let names: Vec<&str> = m.graph.nodes().iter().map(|n| n.name.as_str()).collect();
        assert_eq!(names, vec!["conv", "q1", "qx", "softmax"]);
        assert_eq!(m.graph.node(NodeId(2)).inputs, vec![NodeId(1)]);
    }

    #[test]
    fn dead_nodes_eliminated_but_output_kept() {
        let mut g = Graph::new("d", Shape::nchw(1, 3, 8, 8));
        let c = g.add_input_layer("conv", conv(4, true));
        let live = g.add("live", conv(4, true), c);
        let _dead = g.add("dead", conv(2, true), c);
        let _deader = g.add("deader", LayerKind::Relu, _dead);
        g.set_output(live);
        let mut m = Module::new(g);
        let report = EliminateDeadNodes.run(&mut m).unwrap();
        assert_eq!(report.rewrites, 2);
        assert_eq!(m.graph.len(), 2);
        assert_eq!(m.graph.output(), NodeId(1));
        assert_eq!(m.current_id(NodeId(2)), None);
        assert_eq!(m.current_id(NodeId(3)), None);
    }

    #[test]
    fn concat_elision_marks_single_consumer_joins_only() {
        let mut g = Graph::new("c", Shape::nchw(1, 4, 8, 8));
        let stem = g.add_input_layer("stem", conv(4, true));
        let a = g.add("a", conv(2, true), stem);
        let b = g.add("b", conv(3, true), stem);
        let j1 = g.add_multi("j1", LayerKind::Concat, &[a, b]);
        // Second join re-reads branch `a`'s producer? No — feed it the
        // stem (multi-consumer) and the first join.
        let j2 = g.add_multi("j2", LayerKind::Concat, &[j1, stem]);
        g.add("gap", LayerKind::GlobalAvgPool, j2);
        let mut m = Module::new(g);
        let report = ElideConcats.run(&mut m).unwrap();
        // j1 is elidable (a and b each feed only j1). j2 is not: stem
        // has three consumers, and j1 is already elided.
        assert_eq!(report.rewrites, 1);
        assert_eq!(m.elided_concats, BTreeSet::from([j1]));
    }

    #[test]
    fn nested_eligible_concats_elide_outer_only_inner() {
        // Both joins structurally single-consumer: the inner one wins,
        // the outer is skipped (no views-of-views).
        let mut g = Graph::new("n", Shape::nchw(1, 4, 8, 8));
        let stem = g.add_input_layer("stem", conv(4, true));
        let a = g.add("a", conv(2, true), stem);
        let b = g.add("b", conv(3, true), stem);
        let inner = g.add_multi("inner", LayerKind::Concat, &[a, b]);
        let c = g.add("c", conv(2, true), stem);
        let outer = g.add_multi("outer", LayerKind::Concat, &[inner, c]);
        g.add("gap", LayerKind::GlobalAvgPool, outer);
        let mut m = Module::new(g);
        ElideConcats.run(&mut m).unwrap();
        assert_eq!(m.elided_concats, BTreeSet::from([inner]));
    }

    #[test]
    fn googlenet_concats_all_elide() {
        let g = ModelId::GoogLeNet.build_miniature();
        let concats = g
            .nodes()
            .iter()
            .filter(|n| matches!(n.kind, LayerKind::Concat))
            .count();
        let mut m = Module::new(g);
        let report = ElideConcats.run(&mut m).unwrap();
        assert_eq!(report.rewrites, concats);
        assert!(concats >= 2, "miniature googlenet keeps its inceptions");
    }

    #[test]
    fn default_pipeline_is_noop_on_already_fused_zoo_nets() {
        for id in ModelId::EVALUATED {
            let g = id.build_miniature();
            let n = g.len();
            let (opt, elided, reports) = optimize(g).unwrap();
            // The zoo pre-fuses conv activations and has no quantize
            // pairs or dead nodes: only concat elision may fire.
            assert_eq!(opt.len(), n, "{}", id.name());
            for r in &reports {
                if r.pass != "elide-concats" {
                    assert_eq!(r.rewrites, 0, "{}: {}", id.name(), r.pass);
                }
            }
            if matches!(id, ModelId::GoogLeNet | ModelId::SqueezeNet) {
                assert!(!elided.is_empty(), "{} has elidable concats", id.name());
            }
        }
    }

    #[test]
    fn runner_keeps_side_tables_aligned() {
        let g = ModelId::ResNet18.build_miniature();
        let w = Weights::random(&g, 3).unwrap();
        let calib = Calibration::synthetic(&g, &w);
        let mut m = Module::with_tables(g.clone(), w, calib).unwrap();
        let reports = PassRunner::default_pipeline().run(&mut m).unwrap();
        assert!(reports.iter().any(|r| r.rewrites > 0));
        let w = m.weights.as_ref().unwrap();
        let c = m.calib.as_ref().unwrap();
        assert_eq!(w.len(), m.graph.len());
        assert_eq!(c.act_params.len(), m.graph.len());
        // Fused convs kept their filters: every conv node still has one.
        for (i, node) in m.graph.nodes().iter().enumerate() {
            if matches!(node.kind, LayerKind::Conv { .. }) {
                assert!(
                    w.of(NodeId(i)).filter.is_some(),
                    "{} lost weights",
                    node.name
                );
            }
        }
        // The original output still resolves.
        assert_eq!(m.output_now(), Some(m.graph.output()));
    }

    #[test]
    fn mismatched_side_tables_rejected() {
        let g = ModelId::LeNet.build_miniature();
        let other = ModelId::AlexNet.build_miniature();
        let w = Weights::random(&other, 1).unwrap();
        let calib = Calibration::synthetic(&other, &w);
        assert!(Module::with_tables(g, w, calib).is_err());
    }
}
