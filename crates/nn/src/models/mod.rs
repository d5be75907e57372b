//! The model zoo: the five networks of the paper's evaluation (Table 1)
//! plus LeNet-5 for quickstarts.
//!
//! | Network          | Class (paper §7.1)                          |
//! |------------------|---------------------------------------------|
//! | GoogLeNet        | divergent branches (Inception modules)      |
//! | SqueezeNet v1.1  | divergent branches (Fire modules)           |
//! | VGG-16           | early NN, large filters                     |
//! | AlexNet          | early NN, large filters                     |
//! | MobileNet v1     | small-scale, computation-minimizing         |
//!
//! Architectures follow the original papers; weights are synthetic (see
//! [`crate::weights`]). Pooling uses floor arithmetic with explicit
//! padding chosen to preserve the canonical feature-map sizes.

mod alexnet;
mod googlenet;
mod lenet;
mod miniature;
mod mobilenet;
mod resnet;
mod squeezenet;
mod vgg;

use alexnet::alexnet;
use googlenet::googlenet;
pub use googlenet::inception;
use lenet::lenet5;
use miniature::miniature;
use mobilenet::mobilenet_v1;
use resnet::resnet18;
pub use squeezenet::fire;
use squeezenet::squeezenet_v1_1;
use vgg::vgg16;

use crate::graph::{Graph, NodeId};
use crate::layer::{LayerKind, PoolFunc};

/// The networks of the paper's evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum ModelId {
    /// GoogLeNet (Inception v1).
    GoogLeNet,
    /// SqueezeNet v1.1.
    SqueezeNet,
    /// VGG-16.
    Vgg16,
    /// AlexNet.
    AlexNet,
    /// MobileNet v1.
    MobileNet,
    /// ResNet-18 (zoo extra: appears in the paper's Figure 10 accuracy
    /// study, not in the latency evaluation).
    ResNet18,
    /// LeNet-5 (not part of the evaluation; used by examples).
    LeNet,
}

impl ModelId {
    /// The five evaluated networks, in the paper's Table 1 order.
    pub const EVALUATED: [ModelId; 5] = [
        ModelId::GoogLeNet,
        ModelId::SqueezeNet,
        ModelId::Vgg16,
        ModelId::AlexNet,
        ModelId::MobileNet,
    ];

    /// The network's display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            ModelId::GoogLeNet => "GoogLeNet",
            ModelId::SqueezeNet => "SqueezeNet v1.1",
            ModelId::Vgg16 => "VGG-16",
            ModelId::AlexNet => "AlexNet",
            ModelId::MobileNet => "MobileNet v1",
            ModelId::ResNet18 => "ResNet-18",
            ModelId::LeNet => "LeNet-5",
        }
    }

    /// Builds the miniature variant (same structure, ~1/8 width, small
    /// input) used for functional cross-architecture testing.
    pub fn build_miniature(self) -> Graph {
        miniature(self)
    }

    /// Builds the network graph.
    pub fn build(self) -> Graph {
        match self {
            ModelId::GoogLeNet => googlenet(),
            ModelId::SqueezeNet => squeezenet_v1_1(),
            ModelId::Vgg16 => vgg16(),
            ModelId::AlexNet => alexnet(),
            ModelId::MobileNet => mobilenet_v1(),
            ModelId::ResNet18 => resnet18(),
            ModelId::LeNet => lenet5(),
        }
    }
}

/// Adds a ReLU-fused convolution.
pub(crate) fn conv(
    g: &mut Graph,
    name: &str,
    input: Option<NodeId>,
    oc: usize,
    k: usize,
    stride: usize,
    pad: usize,
) -> NodeId {
    let kind = LayerKind::Conv {
        oc,
        k,
        stride,
        pad,
        relu: true,
    };
    match input {
        Some(i) => g.add(name, kind, i),
        None => g.add_input_layer(name, kind),
    }
}

/// Adds a max-pooling layer.
pub(crate) fn maxpool(
    g: &mut Graph,
    name: &str,
    input: NodeId,
    k: usize,
    stride: usize,
    pad: usize,
) -> NodeId {
    g.add(
        name,
        LayerKind::Pool {
            func: PoolFunc::Max,
            k,
            stride,
            pad,
        },
        input,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::applicability;
    use crate::weights::Weights;

    #[test]
    fn all_models_infer_shapes() {
        for id in ModelId::EVALUATED.iter().chain([&ModelId::LeNet]) {
            let g = id.build();
            let shapes = g.infer_shapes().unwrap_or_else(|e| {
                panic!("{}: shape inference failed: {e}", id.name());
            });
            assert_eq!(shapes.len(), g.len());
        }
    }

    #[test]
    fn classifier_heads_are_1000_way() {
        for id in ModelId::EVALUATED {
            let g = id.build();
            let shapes = g.infer_shapes().unwrap();
            let out = &shapes[g.output().0];
            assert_eq!(out.c(), 1000, "{}", id.name());
            assert_eq!(out.numel(), 1000, "{}", id.name());
        }
    }

    #[test]
    fn table1_applicability_matches_paper() {
        // Table 1: all five support channel distribution and
        // processor-friendly quantization; only GoogLeNet and SqueezeNet
        // have divergent branches.
        for id in ModelId::EVALUATED {
            let app = applicability(&id.build());
            assert!(app.channel_distribution, "{}", id.name());
            assert!(app.processor_quantization, "{}", id.name());
            let expect_branches = matches!(id, ModelId::GoogLeNet | ModelId::SqueezeNet);
            assert_eq!(app.branch_distribution, expect_branches, "{}", id.name());
        }
    }

    #[test]
    fn mac_totals_in_canonical_ballpark() {
        let gmacs = |id: ModelId| id.build().total_macs().unwrap() as f64 / 1e9;
        // Canonical single-inference MAC counts (batch 1): VGG-16 ~15.5G,
        // GoogLeNet ~1.6G, AlexNet ~0.7G, MobileNet ~0.57G, SqueezeNet
        // v1.1 ~0.4G. Allow wide bands; pooling/LRN bookkeeping differs
        // across references.
        let v = gmacs(ModelId::Vgg16);
        assert!((14.0..17.5).contains(&v), "VGG-16: {v} GMACs");
        let g = gmacs(ModelId::GoogLeNet);
        assert!((1.2..2.2).contains(&g), "GoogLeNet: {g} GMACs");
        let a = gmacs(ModelId::AlexNet);
        assert!((0.6..1.2).contains(&a), "AlexNet: {a} GMACs");
        let m = gmacs(ModelId::MobileNet);
        assert!((0.45..0.8).contains(&m), "MobileNet: {m} GMACs");
        let s = gmacs(ModelId::SqueezeNet);
        assert!((0.25..0.6).contains(&s), "SqueezeNet: {s} GMACs");
        // Relative ordering from the paper's Figure 6 workloads.
        assert!(v > g && g > a && a > m && m > s);
    }

    #[test]
    fn parameter_counts_in_canonical_ballpark() {
        let mparams = |id: ModelId| id.build().total_params().unwrap() as f64 / 1e6;
        assert!((55.0..65.0).contains(&mparams(ModelId::AlexNet)));
        assert!((130.0..145.0).contains(&mparams(ModelId::Vgg16)));
        assert!((5.0..8.0).contains(&mparams(ModelId::GoogLeNet)));
        assert!((0.8..1.6).contains(&mparams(ModelId::SqueezeNet)));
        assert!((3.5..5.0).contains(&mparams(ModelId::MobileNet)));
    }

    #[test]
    fn weights_generate_for_all_models() {
        for id in ModelId::EVALUATED {
            let g = id.build();
            let w = Weights::random(&g, 1).unwrap();
            assert_eq!(w.len(), g.len(), "{}", id.name());
        }
    }

    #[test]
    fn names_stable() {
        assert_eq!(ModelId::GoogLeNet.name(), "GoogLeNet");
        assert_eq!(ModelId::SqueezeNet.build().name(), "SqueezeNet v1.1");
    }
}
