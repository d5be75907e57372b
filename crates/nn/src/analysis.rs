//! Graph structure analysis: divergent-branch detection (§5) and the
//! Table 1 applicability matrix.
//!
//! The branch distributor needs to know which parts of a network form
//! *divergent data-parallel branches*: a fork node whose output feeds two
//! or more disjoint layer chains that reconverge at a single concat
//! (GoogLeNet's Inception modules, SqueezeNet's Fire modules).

use crate::graph::{Graph, NodeId};
use crate::layer::LayerKind;

/// A detected fork/join region of divergent branches.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BranchGroup {
    /// The node whose output all branches consume (`None` = the graph
    /// input).
    pub fork: Option<NodeId>,
    /// The concat node where the branches reconverge.
    pub join: NodeId,
    /// The branches, each a chain of node ids in execution order. A
    /// branch may be empty (the fork wired straight into the join).
    pub branches: Vec<Vec<NodeId>>,
}

impl BranchGroup {
    /// Total number of nodes across all branches.
    #[cfg(test)]
    pub(crate) fn node_count(&self) -> usize {
        self.branches.iter().map(Vec::len).sum()
    }
}

/// Finds every fork/join branch group in the graph.
///
/// A concat qualifies when each of its inputs is reached from a common
/// fork through a chain of single-input, single-consumer nodes. Concats
/// whose inputs converge from different forks (or that share interior
/// nodes) are skipped — branch distribution simply does not apply there.
pub fn find_branch_groups(graph: &Graph) -> Vec<BranchGroup> {
    let consumers = graph.consumers();
    let n_consumers = |id: NodeId| consumers.get(&Some(id)).map_or(0, Vec::len);

    let mut groups = Vec::new();
    for (i, node) in graph.nodes().iter().enumerate() {
        if !matches!(node.kind, LayerKind::Concat) || node.inputs.len() < 2 {
            continue;
        }
        let join = NodeId(i);
        let mut branches: Vec<Vec<NodeId>> = Vec::new();
        let mut forks: Vec<Option<NodeId>> = Vec::new();
        let mut ok = true;
        for &end in &node.inputs {
            let mut chain = Vec::new();
            let mut cur = end;
            let fork = loop {
                if n_consumers(cur) != 1 {
                    // `cur` feeds other nodes too: it is the fork itself
                    // and does not belong to the branch.
                    break Some(cur);
                }
                chain.push(cur);
                let ins = &graph.node(cur).inputs;
                match ins.as_slice() {
                    [] => break None, // reached the graph input
                    [single] => {
                        if n_consumers(*single) == 1 {
                            cur = *single;
                        } else {
                            break Some(*single);
                        }
                    }
                    _ => {
                        // Multi-input node inside a branch (nested concat):
                        // treat this chain as ending here, forked at the
                        // multi-input node itself.
                        break Some(cur);
                    }
                }
            };
            chain.reverse();
            // A chain that "ends at the fork" with an empty chain means
            // the join consumes the fork's output directly.
            if chain.is_empty() && fork != Some(end) {
                ok = false;
                break;
            }
            branches.push(chain);
            forks.push(fork);
        }
        if !ok || branches.len() < 2 {
            continue;
        }
        // All branches must leave from the same fork.
        let fork = forks[0];
        if !forks.iter().all(|f| *f == fork) {
            continue;
        }
        groups.push(BranchGroup {
            fork,
            join,
            branches,
        });
    }
    groups
}

/// Whether each μLayer mechanism applies to a network (Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Applicability {
    /// Channel-wise workload distribution (§3.2): the network has
    /// splittable conv / FC / pooling layers.
    pub channel_distribution: bool,
    /// Processor-friendly quantization (§4.2): the network can run with
    /// 8-bit linear quantization (always true for these CNNs).
    pub processor_quantization: bool,
    /// Branch distribution (§5): the network has divergent branches.
    pub branch_distribution: bool,
}

/// Computes the Table 1 row for a network.
pub fn applicability(graph: &Graph) -> Applicability {
    Applicability {
        channel_distribution: graph.nodes().iter().any(|n| n.kind.is_distributable()),
        processor_quantization: !graph.is_empty(),
        branch_distribution: !find_branch_groups(graph).is_empty(),
    }
}

/// Per-operator MAC totals, for workload characterization reports.
#[cfg(test)]
pub(crate) fn macs_by_op(graph: &Graph) -> std::collections::BTreeMap<&'static str, u64> {
    let mut m = std::collections::BTreeMap::new();
    if let Ok(macs) = graph.macs() {
        for (node, &cost) in graph.nodes().iter().zip(macs.iter()) {
            *m.entry(node.kind.op_name()).or_insert(0) += cost;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use utensor::Shape;

    fn conv(oc: usize) -> LayerKind {
        LayerKind::Conv {
            oc,
            k: 1,
            stride: 1,
            pad: 0,
            relu: true,
        }
    }

    /// stem -> {b0: conv} {b1: conv->conv} {b2: (fork direct)} -> concat
    fn inception_like() -> (Graph, NodeId, NodeId) {
        let mut g = Graph::new("incep", Shape::nchw(1, 8, 8, 8));
        let stem = g.add_input_layer("stem", conv(8));
        let b0 = g.add("b0", conv(4), stem);
        let b1a = g.add("b1a", conv(2), stem);
        let b1b = g.add("b1b", conv(6), b1a);
        let join = g.add_multi("join", LayerKind::Concat, &[b0, b1b, stem]);
        (g, stem, join)
    }

    #[test]
    fn detects_fork_join() {
        let (g, stem, join) = inception_like();
        let groups = find_branch_groups(&g);
        assert_eq!(groups.len(), 1);
        let grp = &groups[0];
        assert_eq!(grp.fork, Some(stem));
        assert_eq!(grp.join, join);
        assert_eq!(grp.branches.len(), 3);
        assert_eq!(grp.branches[0].len(), 1);
        assert_eq!(grp.branches[1].len(), 2);
        assert!(grp.branches[2].is_empty()); // direct fork -> join wire
        assert_eq!(grp.node_count(), 3);
    }

    #[test]
    fn linear_graph_has_no_groups() {
        let mut g = Graph::new("linear", Shape::nchw(1, 3, 8, 8));
        let a = g.add_input_layer("a", conv(4));
        let b = g.add("b", conv(4), a);
        g.add("c", conv(4), b);
        assert!(find_branch_groups(&g).is_empty());
        let app = applicability(&g);
        assert!(app.channel_distribution);
        assert!(app.processor_quantization);
        assert!(!app.branch_distribution);
    }

    #[test]
    fn branches_from_graph_input() {
        let mut g = Graph::new("input-fork", Shape::nchw(1, 3, 4, 4));
        let a = g.add_input_layer("a", conv(2));
        let b = g.add_input_layer("b", conv(3));
        g.add_multi("join", LayerKind::Concat, &[a, b]);
        let groups = find_branch_groups(&g);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].fork, None);
    }

    #[test]
    fn concat_from_different_forks_skipped() {
        let mut g = Graph::new("two-forks", Shape::nchw(1, 3, 4, 4));
        let f1 = g.add_input_layer("f1", conv(4));
        let f2 = g.add("f2", conv(4), f1);
        // f1 has two consumers (f2, a); f2 has two consumers (b, c).
        let a = g.add("a", conv(2), f1);
        let b = g.add("b", conv(2), f2);
        let c = g.add("c", conv(2), f2);
        g.add_multi("j1", LayerKind::Concat, &[a, b]);
        // j2 is a clean fork/join on f2.
        g.add_multi("j2", LayerKind::Concat, &[b, c]);
        let groups = find_branch_groups(&g);
        // j1 mixes forks f1 and f2 -> skipped. j2: b and c both fork at
        // f2, but b is consumed by j1 AND j2 -> not single-consumer ->
        // empty chain with fork == b itself... fork mismatch -> skipped.
        assert!(groups.is_empty());
    }

    #[test]
    fn nested_modules_detected_independently() {
        // Two sequential inception-like modules.
        let mut g = Graph::new("two-modules", Shape::nchw(1, 4, 4, 4));
        let stem = g.add_input_layer("stem", conv(4));
        let a0 = g.add("m1b0", conv(2), stem);
        let a1 = g.add("m1b1", conv(2), stem);
        let j1 = g.add_multi("m1join", LayerKind::Concat, &[a0, a1]);
        let b0 = g.add("m2b0", conv(3), j1);
        let b1 = g.add("m2b1", conv(1), j1);
        g.add_multi("m2join", LayerKind::Concat, &[b0, b1]);
        let groups = find_branch_groups(&g);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].fork, Some(stem));
        assert_eq!(groups[1].fork, Some(j1));
    }

    #[test]
    fn macs_by_op_sums() {
        let (g, _, _) = inception_like();
        let m = macs_by_op(&g);
        assert!(m["conv"] > 0);
        // A concat moves every input element once: its op count is the
        // total input volume (== its output volume), not zero.
        let join = g.output();
        let join_numel = g.infer_shapes().unwrap()[join.0].numel() as u64;
        assert_eq!(m.get("concat").copied().unwrap_or(0), join_numel);
    }
}
