//! The NN graph: a DAG of layers with shape and cost inference.
//!
//! Graphs are built in topological order (every node's inputs must already
//! exist), which makes validation and inference single forward passes. The
//! graph is the unit every execution mechanism consumes: the baselines walk
//! it layer by layer, μLayer's partitioner annotates it with split ratios,
//! and the branch distributor analyzes its fork/join structure.

use std::collections::BTreeMap;
use std::fmt;
use std::hash::{DefaultHasher, Hash, Hasher};

use utensor::{Shape, TensorError};

use crate::layer::LayerKind;

/// Identifies a node within a [`Graph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One layer instance in a graph.
#[derive(Clone, Debug)]
pub struct Node {
    /// Human-readable unique name (e.g. `"conv1"`, `"inception3a/b1/3x3"`).
    pub name: String,
    /// The operator.
    pub kind: LayerKind,
    /// Producing nodes (empty = reads the graph input).
    pub inputs: Vec<NodeId>,
}

/// A feed-forward NN as a DAG of layers with a single input and output.
///
/// # Examples
///
/// ```
/// use unn::{Graph, LayerKind};
/// use utensor::Shape;
///
/// let mut g = Graph::new("tiny", Shape::nchw(1, 3, 8, 8));
/// let conv = g.add_input_layer(
///     "conv",
///     LayerKind::Conv { oc: 16, k: 3, stride: 1, pad: 1, relu: true },
/// );
/// g.add("fc", LayerKind::FullyConnected { out: 10, relu: false }, conv);
///
/// let shapes = g.infer_shapes().unwrap();
/// assert_eq!(shapes[0].dims(), &[1, 16, 8, 8]);
/// assert_eq!(g.total_macs().unwrap(), 16 * 8 * 8 * 27 + 10 * 1024);
/// ```
#[derive(Clone, Debug)]
pub struct Graph {
    name: String,
    input_shape: Shape,
    nodes: Vec<Node>,
    /// Running structural digest; see [`Graph::digest`].
    digest: u64,
}

/// The digest `digest` becomes once `part` is folded in.
fn fold(digest: u64, part: impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    (digest, part).hash(&mut h);
    h.finish()
}

/// Every field of `kind`, after a variant tag; f32 fields by their
/// bits. The match is exhaustive, so a new variant or field cannot be
/// left out of the digest silently.
fn kind_words(kind: &LayerKind) -> [u64; 6] {
    let u = |x: usize| x as u64;
    let b = |x: bool| u64::from(x);
    let f = |x: f32| u64::from(x.to_bits());
    match *kind {
        LayerKind::Conv {
            oc,
            k,
            stride,
            pad,
            relu,
        } => [0, u(oc), u(k), u(stride), u(pad), b(relu)],
        LayerKind::DepthwiseConv {
            k,
            stride,
            pad,
            relu,
        } => [1, u(k), u(stride), u(pad), b(relu), 0],
        LayerKind::FullyConnected { out, relu } => [2, u(out), b(relu), 0, 0, 0],
        LayerKind::Pool {
            func,
            k,
            stride,
            pad,
        } => [3, func as u64, u(k), u(stride), u(pad), 0],
        LayerKind::GlobalAvgPool => [4, 0, 0, 0, 0, 0],
        LayerKind::Lrn { n, alpha, beta, k } => [5, u(n), f(alpha), f(beta), f(k), 0],
        LayerKind::Relu => [6, 0, 0, 0, 0, 0],
        LayerKind::Concat => [7, 0, 0, 0, 0, 0],
        LayerKind::Add { relu } => [8, b(relu), 0, 0, 0, 0],
        LayerKind::Softmax => [9, 0, 0, 0, 0, 0],
    }
}

impl Graph {
    /// Creates an empty graph for a given input shape.
    pub fn new(name: impl Into<String>, input_shape: Shape) -> Graph {
        Graph {
            name: name.into(),
            digest: fold(0, &input_shape),
            input_shape,
            nodes: Vec::new(),
        }
    }

    /// The model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The graph input shape (NCHW).
    pub fn input_shape(&self) -> &Shape {
        &self.input_shape
    }

    /// A digest of everything about the graph a planner consults: the
    /// input shape, then every node's kind (all fields) and inputs, in
    /// order. Names are left out, so renaming a layer keeps the digest.
    /// Folded in as the graph is built, so reading it costs nothing; it
    /// is stable within one build of the program, not across Rust
    /// releases, so no file or pin records it.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Adds a node fed by the graph input.
    pub fn add_input_layer(&mut self, name: impl Into<String>, kind: LayerKind) -> NodeId {
        self.push(name, kind, Vec::new())
    }

    /// Adds a node fed by `input`.
    pub fn add(&mut self, name: impl Into<String>, kind: LayerKind, input: NodeId) -> NodeId {
        self.push(name, kind, vec![input])
    }

    /// Adds a multi-input node (concat).
    pub fn add_multi(
        &mut self,
        name: impl Into<String>,
        kind: LayerKind,
        inputs: &[NodeId],
    ) -> NodeId {
        self.push(name, kind, inputs.to_vec())
    }

    fn push(&mut self, name: impl Into<String>, kind: LayerKind, inputs: Vec<NodeId>) -> NodeId {
        let id = NodeId(self.nodes.len());
        for dep in &inputs {
            assert!(
                dep.0 < id.0,
                "graph must be built in topological order: {dep} referenced by {id}"
            );
        }
        self.digest = fold(self.digest, (kind_words(&kind), &inputs));
        self.nodes.push(Node {
            name: name.into(),
            kind,
            inputs,
        });
        id
    }

    /// All nodes, in topological (insertion) order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// A node by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// The output node: the last node added.
    ///
    /// # Panics
    ///
    /// Panics on an empty graph.
    pub fn output(&self) -> NodeId {
        let last = self.nodes.len().checked_sub(1);
        NodeId(last.expect("empty graph has no output"))
    }

    /// Consumers of each node's output (and of the graph input at key
    /// `None`).
    pub fn consumers(&self) -> BTreeMap<Option<NodeId>, Vec<NodeId>> {
        let mut m: BTreeMap<Option<NodeId>, Vec<NodeId>> = BTreeMap::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if n.inputs.is_empty() {
                m.entry(None).or_default().push(NodeId(i));
            }
            for dep in &n.inputs {
                m.entry(Some(*dep)).or_default().push(NodeId(i));
            }
        }
        m
    }

    /// Infers every node's output shape.
    ///
    /// Fails if any layer's geometry is inconsistent — this doubles as
    /// whole-graph validation and is cheap enough to run per inference.
    pub fn infer_shapes(&self) -> Result<Vec<Shape>, TensorError> {
        let mut shapes: Vec<Shape> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let input_shapes: Vec<&Shape> = if node.inputs.is_empty() {
                vec![&self.input_shape]
            } else {
                node.inputs.iter().map(|d| &shapes[d.0]).collect()
            };
            shapes.push(node.kind.infer_shape(&input_shapes)?);
        }
        Ok(shapes)
    }

    /// Per-node MAC counts (same order as [`Graph::nodes`]).
    ///
    /// Multi-input nodes (concat, add) are costed over *all* of their
    /// input shapes — costing from the first input alone undercounts the
    /// merged data volume on fork/join networks.
    pub fn macs(&self) -> Result<Vec<u64>, TensorError> {
        let shapes = self.infer_shapes()?;
        Ok(self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let ins = self.node_input_shapes(NodeId(i), &shapes);
                n.kind.macs_multi(&ins, &shapes[i])
            })
            .collect())
    }

    /// Total MACs of one inference.
    pub fn total_macs(&self) -> Result<u64, TensorError> {
        Ok(self.macs()?.iter().sum())
    }

    /// Total trainable parameter count (weights + biases).
    ///
    /// Weight-bearing operators are all single-input; the per-node count
    /// is taken over every input shape so a future multi-input weighted
    /// op cannot silently fall back to its first input.
    pub fn total_params(&self) -> Result<usize, TensorError> {
        let shapes = self.infer_shapes()?;
        Ok(self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let ins = self.node_input_shapes(NodeId(i), &shapes);
                ins.iter()
                    .map(|s| n.kind.weight_count(s) + n.kind.bias_count(s))
                    .max()
                    .unwrap_or(0)
            })
            .sum())
    }

    /// The *primary* input shape a node consumes (first input's shape, or
    /// the graph input shape for source nodes). Geometry of single-input
    /// operators (conv window arithmetic, weight shapes) keys off this;
    /// cost accounting for multi-input nodes must use
    /// `Graph::node_input_shapes` instead.
    pub fn node_input_shape<'a>(&'a self, id: NodeId, shapes: &'a [Shape]) -> &'a Shape {
        self.nodes[id.0]
            .inputs
            .first()
            .map(|d| &shapes[d.0])
            .unwrap_or(&self.input_shape)
    }

    /// Every input shape a node consumes, in input order (the graph input
    /// shape for source nodes).
    pub(crate) fn node_input_shapes<'a>(
        &'a self,
        id: NodeId,
        shapes: &'a [Shape],
    ) -> Vec<&'a Shape> {
        let node = &self.nodes[id.0];
        if node.inputs.is_empty() {
            vec![&self.input_shape]
        } else {
            node.inputs.iter().map(|d| &shapes[d.0]).collect()
        }
    }

    /// A one-line-per-layer structural summary.
    pub fn summary(&self) -> Result<String, TensorError> {
        let shapes = self.infer_shapes()?;
        let macs = self.macs()?;
        let mut out = String::new();
        out.push_str(&format!(
            "{} (input {}, {} layers, {:.1} MMACs)\n",
            self.name,
            self.input_shape,
            self.nodes.len(),
            self.total_macs()? as f64 / 1e6
        ));
        for (i, n) in self.nodes.iter().enumerate() {
            out.push_str(&format!(
                "  {:>3} {:<28} {:<8} -> {:<18} {:>10.2} MMACs\n",
                i,
                n.name,
                n.kind.op_name(),
                shapes[i].to_string(),
                macs[i] as f64 / 1e6
            ));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::PoolFunc;

    fn tiny_graph() -> Graph {
        let mut g = Graph::new("tiny", Shape::nchw(1, 3, 8, 8));
        let c1 = g.add_input_layer(
            "conv1",
            LayerKind::Conv {
                oc: 4,
                k: 3,
                stride: 1,
                pad: 1,
                relu: true,
            },
        );
        let p1 = g.add(
            "pool1",
            LayerKind::Pool {
                func: PoolFunc::Max,
                k: 2,
                stride: 2,
                pad: 0,
            },
            c1,
        );
        let f1 = g.add(
            "fc1",
            LayerKind::FullyConnected {
                out: 10,
                relu: false,
            },
            p1,
        );
        g.add("softmax", LayerKind::Softmax, f1);
        g
    }

    #[test]
    fn shapes_flow_through() {
        let g = tiny_graph();
        let shapes = g.infer_shapes().unwrap();
        assert_eq!(shapes[0].dims(), &[1, 4, 8, 8]);
        assert_eq!(shapes[1].dims(), &[1, 4, 4, 4]);
        assert_eq!(shapes[2].dims(), &[1, 10, 1, 1]);
        assert_eq!(shapes[3].dims(), &[1, 10, 1, 1]);
    }

    #[test]
    fn macs_and_params() {
        let g = tiny_graph();
        let macs = g.macs().unwrap();
        assert_eq!(macs[0], 4 * 8 * 8 * 27);
        assert_eq!(macs[2], 10 * 64);
        // conv: 4*3*3*3 + 4, fc: 10*64 + 10.
        assert_eq!(g.total_params().unwrap(), 108 + 4 + 640 + 10);
    }

    #[test]
    fn consumers_map() {
        let mut g = Graph::new("fork", Shape::nchw(1, 2, 4, 4));
        let a = g.add_input_layer("a", LayerKind::Relu);
        let b = g.add("b", LayerKind::Relu, a);
        let c = g.add("c", LayerKind::Relu, a);
        g.add_multi("j", LayerKind::Concat, &[b, c]);
        let cons = g.consumers();
        assert_eq!(cons[&Some(a)], vec![b, c]);
        assert_eq!(cons[&None], vec![a]);
    }

    #[test]
    #[should_panic(expected = "topological order")]
    fn forward_reference_panics() {
        let mut g = Graph::new("bad", Shape::nchw(1, 1, 2, 2));
        g.add_multi("x", LayerKind::Relu, &[NodeId(3)]);
    }

    #[test]
    fn invalid_geometry_caught_by_inference() {
        let mut g = Graph::new("bad", Shape::nchw(1, 1, 4, 4));
        g.add_input_layer(
            "huge",
            LayerKind::Conv {
                oc: 1,
                k: 9,
                stride: 1,
                pad: 0,
                relu: false,
            },
        );
        assert!(g.infer_shapes().is_err());
    }

    #[test]
    fn summary_renders() {
        let s = tiny_graph().summary().unwrap();
        assert!(s.contains("conv1"));
        assert!(s.contains("MMACs"));
    }

    #[test]
    fn output_is_last() {
        let g = tiny_graph();
        assert_eq!(g.output(), NodeId(3));
    }

    #[test]
    fn multi_input_nodes_expose_all_input_shapes() {
        // Inception-style fork/join with *unequal* branch widths: costing
        // the join from its first input alone would see 2 channels out
        // of 5.
        let mut g = Graph::new("fork", Shape::nchw(1, 3, 4, 4));
        let a = g.add_input_layer(
            "a",
            LayerKind::Conv {
                oc: 2,
                k: 1,
                stride: 1,
                pad: 0,
                relu: true,
            },
        );
        let b = g.add_input_layer(
            "b",
            LayerKind::Conv {
                oc: 3,
                k: 1,
                stride: 1,
                pad: 0,
                relu: true,
            },
        );
        let j = g.add_multi("join", LayerKind::Concat, &[a, b]);
        let shapes = g.infer_shapes().unwrap();
        let ins = g.node_input_shapes(j, &shapes);
        assert_eq!(ins.len(), 2);
        assert_eq!(ins[0].c(), 2);
        assert_eq!(ins[1].c(), 3);
        // Source nodes consume the graph input.
        assert_eq!(g.node_input_shapes(a, &shapes), vec![g.input_shape()]);
    }
}
