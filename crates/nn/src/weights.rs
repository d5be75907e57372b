//! Weight storage, synthetic weight generation, and quantization
//! calibration.
//!
//! The paper evaluates pre-trained ImageNet networks; their checkpoints
//! are not reproducible here, so weights are generated synthetically
//! (He-uniform initialization, seeded) — layer shapes and FLOP counts,
//! which drive all latency/energy results, are unaffected.
//!
//! [`Calibration`] is the "pre-trained quantization information" of §4.2:
//! per-node activation ranges learned by observing a forward pass, plus
//! per-layer weight ranges. μLayer assumes the 8-bit linear quantization
//! is already applied to the network (§6); calibration is how this
//! reproduction applies it.

use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use testkit::Rng;
use utensor::{DType, QuantParams, Tensor, TensorError};

use crate::graph::{Graph, NodeId};

/// The weights of one layer (f32 master copies).
#[derive(Clone, Debug, Default)]
pub struct LayerWeights {
    /// Filter / weight tensor (conv: OIHW, depthwise: `[c,1,k,k]`,
    /// FC: `[out,in]`).
    pub filter: Option<Tensor>,
    /// Bias vector, one entry per output channel / neuron.
    pub bias: Option<Vec<f32>>,
}

/// One node's whole-layer filter in the compute dtypes, derived from
/// its master copy: at most one F16 and one QUInt8 tensor, each built by
/// the first [`Weights::filter_as`] that asks and read by everyone
/// after. A failed cast is remembered like a successful one.
#[derive(Debug, Default)]
struct FilterCasts {
    f16: OnceLock<Result<Tensor, TensorError>>,
    quint8: OnceLock<Result<Tensor, TensorError>>,
    built: AtomicUsize,
}

/// All weights of a graph, indexed by node.
///
/// Besides the master copies, each node carries a memo of its filter
/// cast to the compute dtypes ([`Weights::filter_as`]), so a plan that
/// runs frame after frame converts and quantizes each layer's weights
/// once. The memo lives here, next to the data it derives from: clones
/// share it (the masters are equal, so the casts are), and
/// [`Weights::of_mut`] — the only way to change a master — drops the
/// node's memo for the clone being changed.
#[derive(Clone, Debug)]
pub struct Weights {
    per_node: Vec<LayerWeights>,
    casts: Vec<Arc<FilterCasts>>,
}

impl Weights {
    /// Generates He-uniform random weights for every weighted layer.
    ///
    /// Deterministic in `seed`.
    pub fn random(graph: &Graph, seed: u64) -> Result<Weights, TensorError> {
        let shapes = graph.infer_shapes()?;
        let mut rng = Rng::seed_from_u64(seed);
        let mut per_node = Vec::with_capacity(graph.len());
        for (i, node) in graph.nodes().iter().enumerate() {
            let in_shape = graph.node_input_shape(NodeId(i), &shapes);
            if let Some(w_shape) = node.kind.weight_shape(in_shape) {
                let fan_in = (w_shape.numel() / w_shape.dim(0).max(1)).max(1);
                let bound = (6.0f32 / fan_in as f32).sqrt();
                let data: Vec<f32> = (0..w_shape.numel())
                    .map(|_| rng.gen_range(-bound..=bound))
                    .collect();
                let bias: Vec<f32> = (0..node.kind.bias_count(in_shape))
                    .map(|_| rng.gen_range(-0.05f32..=0.05))
                    .collect();
                per_node.push(LayerWeights {
                    filter: Some(Tensor::from_f32(w_shape, data)?),
                    bias: Some(bias),
                });
            } else {
                per_node.push(LayerWeights::default());
            }
        }
        Ok(Weights::from_per_node(per_node))
    }

    /// The weights of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the graph these weights were
    /// built for.
    pub fn of(&self, id: NodeId) -> &LayerWeights {
        &self.per_node[id.0]
    }

    /// Mutable access, for training (quantlab) and tests. Forgets the
    /// node's memoised filter casts (for this `Weights`, not for clones
    /// made earlier, whose master is unchanged).
    pub fn of_mut(&mut self, id: NodeId) -> &mut LayerWeights {
        self.casts[id.0] = Arc::default();
        &mut self.per_node[id.0]
    }

    /// The node's whole filter in `dtype` — bit for bit
    /// `of(id).filter.cast(dtype, params)`, without redoing the cast:
    ///
    /// - a master already in `dtype` (and, for QUInt8, under `params`) is
    ///   borrowed as is;
    /// - F16, and QUInt8 under explicit `params`, come from the node's
    ///   memo, which the first caller builds (concurrent callers wait
    ///   for it rather than building their own);
    /// - anything else is cast on the spot: QUInt8 with `params: None`
    ///   (parameters from the data's own range) and QUInt8 under
    ///   parameters other than the memoised ones (a second calibration
    ///   of the same weights).
    ///
    /// `None` for a node without a filter.
    pub fn filter_as(
        &self,
        id: NodeId,
        dtype: DType,
        params: Option<QuantParams>,
    ) -> Result<Option<Cow<'_, Tensor>>, TensorError> {
        let Some(master) = self.per_node[id.0].filter.as_ref() else {
            return Ok(None);
        };
        let wants_requantize =
            dtype == DType::QUInt8 && params.is_some_and(|p| Some(p) != master.quant_params());
        if master.dtype() == dtype && !wants_requantize {
            return Ok(Some(Cow::Borrowed(master)));
        }
        let casts = &self.casts[id.0];
        let slot = match (dtype, params) {
            (DType::F16, _) => &casts.f16,
            (DType::QUInt8, Some(_)) => &casts.quint8,
            _ => return master.cast(dtype, params).map(|t| Some(Cow::Owned(t))),
        };
        let memo = slot
            .get_or_init(|| {
                casts.built.fetch_add(1, Ordering::Relaxed);
                master.cast(dtype, params)
            })
            .as_ref()
            .map_err(Clone::clone)?;
        if dtype == DType::QUInt8 && memo.quant_params() != params {
            return master.cast(dtype, params).map(|t| Some(Cow::Owned(t)));
        }
        Ok(Some(Cow::Borrowed(memo)))
    }

    /// How many whole-layer filter casts the memo has built so far
    /// (nodes whose memo [`Weights::of_mut`] dropped no longer count).
    /// Flat from the second frame of a plan on; a test hook.
    pub fn filter_casts_built(&self) -> usize {
        self.casts
            .iter()
            .map(|c| c.built.load(Ordering::Relaxed))
            .sum()
    }

    /// Number of node entries.
    pub fn len(&self) -> usize {
        self.per_node.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.per_node.is_empty()
    }

    /// Assembles weights from per-node entries (entry `i` belongs to
    /// node `i`) with an empty cast memo.
    pub fn from_per_node(per_node: Vec<LayerWeights>) -> Weights {
        let casts = per_node.iter().map(|_| Arc::default()).collect();
        Weights { per_node, casts }
    }

    /// Decomposes into per-node entries, dropping the cast memo.
    pub fn into_per_node(self) -> Vec<LayerWeights> {
        self.per_node
    }

    /// Total bytes of all f32 master weights.
    pub fn total_bytes_f32(&self) -> usize {
        self.per_node
            .iter()
            .map(|w| {
                w.filter.as_ref().map_or(0, Tensor::size_bytes)
                    + w.bias.as_ref().map_or(0, |b| b.len() * 4)
            })
            .sum()
    }
}

/// Per-graph quantization information: the §4.2 "pre-trained quantization
/// information".
#[derive(Clone, Debug)]
pub struct Calibration {
    /// Quantization parameters of the graph input.
    pub input_params: QuantParams,
    /// Output activation parameters per node.
    pub act_params: Vec<QuantParams>,
    /// Filter parameters per weighted node (`None` for weight-free
    /// layers).
    pub weight_params: Vec<Option<QuantParams>>,
}

impl Calibration {
    /// Builds calibration from observed per-node output ranges.
    pub fn from_ranges(
        graph: &Graph,
        weights: &Weights,
        input_range: (f32, f32),
        act_ranges: &[(f32, f32)],
    ) -> Result<Calibration, TensorError> {
        if act_ranges.len() != graph.len() {
            return Err(TensorError::BadConcat(format!(
                "calibration needs {} ranges, got {}",
                graph.len(),
                act_ranges.len()
            )));
        }
        let input_params = QuantParams::from_range(input_range.0, input_range.1)?;
        let act_params = act_ranges
            .iter()
            .map(|&(lo, hi)| QuantParams::from_range(lo, hi))
            .collect::<Result<Vec<_>, _>>()?;
        let weight_params = (0..graph.len())
            .map(|i| {
                weights
                    .of(NodeId(i))
                    .filter
                    .as_ref()
                    .map(|f| QuantParams::from_data(f.as_f32().expect("f32 master weights")))
                    .transpose()
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Calibration {
            input_params,
            act_params,
            weight_params,
        })
    }

    /// A calibration with uniform synthetic ranges, for timing-only runs
    /// where numerics are skipped but the executor still needs
    /// quantization metadata.
    pub fn synthetic(graph: &Graph, weights: &Weights) -> Calibration {
        let range = (-6.0f32, 6.0f32);
        Calibration::from_ranges(graph, weights, range, &vec![range; graph.len()])
            .expect("synthetic ranges are valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{LayerKind, PoolFunc};
    use utensor::Shape;

    fn graph() -> Graph {
        let mut g = Graph::new("t", Shape::nchw(1, 3, 8, 8));
        let c = g.add_input_layer(
            "conv",
            LayerKind::Conv {
                oc: 4,
                k: 3,
                stride: 1,
                pad: 1,
                relu: true,
            },
        );
        let p = g.add(
            "pool",
            LayerKind::Pool {
                func: PoolFunc::Max,
                k: 2,
                stride: 2,
                pad: 0,
            },
            c,
        );
        g.add(
            "fc",
            LayerKind::FullyConnected {
                out: 5,
                relu: false,
            },
            p,
        );
        g
    }

    #[test]
    fn random_weights_have_right_shapes() {
        let g = graph();
        let w = Weights::random(&g, 7).unwrap();
        assert_eq!(w.len(), 3);
        let conv_w = w.of(NodeId(0));
        assert_eq!(
            conv_w.filter.as_ref().unwrap().shape().dims(),
            &[4, 3, 3, 3]
        );
        assert_eq!(conv_w.bias.as_ref().unwrap().len(), 4);
        assert!(w.of(NodeId(1)).filter.is_none());
        let fc_w = w.of(NodeId(2));
        assert_eq!(fc_w.filter.as_ref().unwrap().shape().dims(), &[5, 64]);
    }

    #[test]
    fn weights_deterministic_in_seed() {
        let g = graph();
        let a = Weights::random(&g, 42).unwrap();
        let b = Weights::random(&g, 42).unwrap();
        let c = Weights::random(&g, 43).unwrap();
        assert!(a
            .of(NodeId(0))
            .filter
            .as_ref()
            .unwrap()
            .bit_equal(b.of(NodeId(0)).filter.as_ref().unwrap()));
        assert!(!a
            .of(NodeId(0))
            .filter
            .as_ref()
            .unwrap()
            .bit_equal(c.of(NodeId(0)).filter.as_ref().unwrap()));
    }

    #[test]
    fn he_bound_respected() {
        let g = graph();
        let w = Weights::random(&g, 1).unwrap();
        let f = w.of(NodeId(0)).filter.as_ref().unwrap();
        let bound = (6.0f32 / 27.0).sqrt();
        assert!(f.as_f32().unwrap().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn calibration_lengths_checked() {
        let g = graph();
        let w = Weights::random(&g, 1).unwrap();
        assert!(Calibration::from_ranges(&g, &w, (0.0, 1.0), &[(0.0, 1.0)]).is_err());
        let c = Calibration::synthetic(&g, &w);
        assert_eq!(c.act_params.len(), 3);
        assert!(c.weight_params[0].is_some());
        assert!(c.weight_params[1].is_none());
    }

    #[test]
    fn filter_as_equals_cast_and_builds_each_copy_once() {
        let g = graph();
        let w = Weights::random(&g, 3).unwrap();
        let conv = NodeId(0);
        let master = w.of(conv).filter.clone().unwrap();
        let qp = QuantParams::from_data(master.as_f32().unwrap()).unwrap();

        // The f32 master is borrowed, not copied.
        let f32_view = w.filter_as(conv, DType::F32, None).unwrap().unwrap();
        assert!(matches!(f32_view, Cow::Borrowed(_)));
        assert_eq!(w.filter_casts_built(), 0);

        for _ in 0..3 {
            let h = w.filter_as(conv, DType::F16, None).unwrap().unwrap();
            assert!(h.bit_equal(&master.cast(DType::F16, None).unwrap()));
            let q = w.filter_as(conv, DType::QUInt8, Some(qp)).unwrap().unwrap();
            assert!(q.bit_equal(&master.cast(DType::QUInt8, Some(qp)).unwrap()));
        }
        assert_eq!(w.filter_casts_built(), 2, "one F16 and one QUInt8 copy");

        // Other parameters, or none, are answered exactly but not kept.
        let other = QuantParams::from_range(-3.0, 3.0).unwrap();
        let q = w
            .filter_as(conv, DType::QUInt8, Some(other))
            .unwrap()
            .unwrap();
        assert!(q.bit_equal(&master.cast(DType::QUInt8, Some(other)).unwrap()));
        let q = w.filter_as(conv, DType::QUInt8, None).unwrap().unwrap();
        assert!(q.bit_equal(&master.cast(DType::QUInt8, None).unwrap()));
        assert_eq!(w.filter_casts_built(), 2);

        // No filter, no copy.
        assert!(w.filter_as(NodeId(1), DType::F16, None).unwrap().is_none());
    }

    #[test]
    fn clones_share_the_memo_and_of_mut_drops_it_for_one_node() {
        let g = graph();
        let mut w = Weights::random(&g, 3).unwrap();
        let (conv, fc) = (NodeId(0), NodeId(2));
        w.filter_as(conv, DType::F16, None).unwrap();
        w.filter_as(fc, DType::F16, None).unwrap();
        let twin = w.clone();
        assert_eq!(
            twin.filter_casts_built(),
            2,
            "a clone reads the same copies"
        );

        // Changing a master forgets that node's copies here, and only here.
        let doubled: Vec<f32> = w
            .of(conv)
            .filter
            .as_ref()
            .unwrap()
            .as_f32()
            .unwrap()
            .to_vec();
        let doubled: Vec<f32> = doubled.iter().map(|v| v * 2.0).collect();
        let shape = w.of(conv).filter.as_ref().unwrap().shape().clone();
        w.of_mut(conv).filter = Some(Tensor::from_f32(shape, doubled).unwrap());
        assert_eq!(w.filter_casts_built(), 1);
        assert_eq!(twin.filter_casts_built(), 2);
        let fresh = w.filter_as(conv, DType::F16, None).unwrap().unwrap();
        let want = w
            .of(conv)
            .filter
            .as_ref()
            .unwrap()
            .cast(DType::F16, None)
            .unwrap();
        assert!(fresh.bit_equal(&want));
        let old = twin.filter_as(conv, DType::F16, None).unwrap().unwrap();
        assert!(!old.bit_equal(&want), "the clone still has the old master");
    }

    #[test]
    fn two_threads_asking_for_one_layer_cast_it_once() {
        let g = graph();
        let w = Weights::random(&g, 3).unwrap();
        let gate = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    gate.wait();
                    w.filter_as(NodeId(2), DType::F16, None).unwrap().unwrap();
                });
            }
        });
        assert_eq!(w.filter_casts_built(), 1);
    }

    #[test]
    fn total_bytes_counts_filters_and_bias() {
        let g = graph();
        let w = Weights::random(&g, 1).unwrap();
        // conv 108 + bias 4 + fc 320 + bias 5 elements, 4 bytes each.
        assert_eq!(w.total_bytes_f32(), (108 + 4 + 320 + 5) * 4);
    }
}
