//! Miniature variants of the zoo architectures.
//!
//! Functional (numeric) execution of the full-size networks is too slow
//! for a test suite — VGG-16 alone is ~15 GMACs of scalar arithmetic —
//! but the *structural* features that stress the runtime (Inception
//! four-way branches, Fire modules, depthwise separability, LRN, deep
//! FC heads) are all preserved by a faithful miniature: same operator
//! sequence and connectivity, shrunken channel counts and input
//! resolution. The integration tests run the complete μLayer pipeline
//! (partition → branch-distribute → schedule → numerically evaluate) on
//! every miniature and check bit-equality against reference execution.

use utensor::Shape;

use crate::graph::Graph;
use crate::layer::{LayerKind, PoolFunc};
use crate::models::googlenet::inception;
use crate::models::squeezenet::fire;
use crate::models::{conv, maxpool, ModelId};

/// Builds the miniature variant of a zoo architecture.
///
/// Miniatures keep every operator kind and the exact module topology of
/// the original; channel counts are divided by ~8 and the input is
/// 32×32 (AlexNet/LeNet keep their native aspect treatment).
pub(super) fn miniature(id: ModelId) -> Graph {
    match id {
        ModelId::GoogLeNet => mini_googlenet(),
        ModelId::SqueezeNet => mini_squeezenet(),
        ModelId::Vgg16 => mini_vgg(),
        ModelId::AlexNet => mini_alexnet(),
        ModelId::MobileNet => mini_mobilenet(),
        ModelId::ResNet18 => crate::models::resnet::mini_resnet(),
        ModelId::LeNet => crate::models::lenet5(),
    }
}

/// GoogLeNet at 1/8 width with two Inception modules.
fn mini_googlenet() -> Graph {
    let mut g = Graph::new("GoogLeNet-mini", Shape::nchw(1, 3, 32, 32));
    let c1 = conv(&mut g, "conv1", None, 8, 7, 2, 3); // 8 x 16
    let p1 = maxpool(&mut g, "pool1", c1, 3, 2, 1); // 8 x 8
    let c2 = conv(&mut g, "conv2", Some(p1), 24, 3, 1, 1);
    let i3a = inception(&mut g, "inception_3a", c2, (8, 12, 16, 2, 4, 4));
    let i3b = inception(&mut g, "inception_3b", i3a, (16, 16, 24, 4, 12, 8));
    let gap = g.add("gap", LayerKind::GlobalAvgPool, i3b);
    let fc = g.add(
        "fc",
        LayerKind::FullyConnected {
            out: 10,
            relu: false,
        },
        gap,
    );
    g.add("softmax", LayerKind::Softmax, fc);
    g
}

/// SqueezeNet at 1/8 width with three Fire modules.
fn mini_squeezenet() -> Graph {
    let mut g = Graph::new("SqueezeNet-mini", Shape::nchw(1, 3, 32, 32));
    let c1 = conv(&mut g, "conv1", None, 8, 3, 2, 0); // 8 x 15
    let p1 = maxpool(&mut g, "pool1", c1, 3, 2, 0); // 8 x 7
    let f2 = fire(&mut g, "fire2", p1, 2, 8, 8);
    let f3 = fire(&mut g, "fire3", f2, 2, 8, 8);
    let f4 = fire(&mut g, "fire4", f3, 4, 16, 16);
    let c10 = conv(&mut g, "conv10", Some(f4), 10, 1, 1, 0);
    let gap = g.add("gap", LayerKind::GlobalAvgPool, c10);
    g.add("softmax", LayerKind::Softmax, gap);
    g
}

/// VGG at 1/8 width with two blocks and the three-FC head.
fn mini_vgg() -> Graph {
    let mut g = Graph::new("VGG-mini", Shape::nchw(1, 3, 32, 32));
    let c11 = conv(&mut g, "conv1_1", None, 8, 3, 1, 1);
    let c12 = conv(&mut g, "conv1_2", Some(c11), 8, 3, 1, 1);
    let p1 = g.add(
        "pool1",
        LayerKind::Pool {
            func: PoolFunc::Max,
            k: 2,
            stride: 2,
            pad: 0,
        },
        c12,
    );
    let c21 = conv(&mut g, "conv2_1", Some(p1), 16, 3, 1, 1);
    let c22 = conv(&mut g, "conv2_2", Some(c21), 16, 3, 1, 1);
    let p2 = g.add(
        "pool2",
        LayerKind::Pool {
            func: PoolFunc::Max,
            k: 2,
            stride: 2,
            pad: 0,
        },
        c22,
    );
    let f6 = g.add(
        "fc6",
        LayerKind::FullyConnected {
            out: 64,
            relu: true,
        },
        p2,
    );
    let f7 = g.add(
        "fc7",
        LayerKind::FullyConnected {
            out: 32,
            relu: true,
        },
        f6,
    );
    let f8 = g.add(
        "fc8",
        LayerKind::FullyConnected {
            out: 10,
            relu: false,
        },
        f7,
    );
    g.add("softmax", LayerKind::Softmax, f8);
    g
}

/// AlexNet at 1/8 width, keeping the LRN layers.
fn mini_alexnet() -> Graph {
    let mut g = Graph::new("AlexNet-mini", Shape::nchw(1, 3, 35, 35));
    let lrn = LayerKind::Lrn {
        n: 5,
        alpha: 1e-4,
        beta: 0.75,
        k: 1.0,
    };
    let c1 = conv(&mut g, "conv1", None, 12, 5, 2, 0); // 12 x 16
    let n1 = g.add("norm1", lrn.clone(), c1);
    let p1 = maxpool(&mut g, "pool1", n1, 3, 2, 0); // 12 x 7
    let c2 = conv(&mut g, "conv2", Some(p1), 32, 3, 1, 1);
    let n2 = g.add("norm2", lrn, c2);
    let p2 = maxpool(&mut g, "pool2", n2, 3, 2, 0); // 32 x 3
    let c3 = conv(&mut g, "conv3", Some(p2), 48, 3, 1, 1);
    let f6 = g.add(
        "fc6",
        LayerKind::FullyConnected {
            out: 64,
            relu: true,
        },
        c3,
    );
    let f7 = g.add(
        "fc7",
        LayerKind::FullyConnected {
            out: 10,
            relu: false,
        },
        f6,
    );
    g.add("softmax", LayerKind::Softmax, f7);
    g
}

/// MobileNet at 1/8 width with four depthwise-separable blocks.
fn mini_mobilenet() -> Graph {
    let mut g = Graph::new("MobileNet-mini", Shape::nchw(1, 3, 32, 32));
    let mut cur = conv(&mut g, "conv1", None, 4, 3, 2, 1); // 4 x 16
    for (i, (ch, stride)) in [(8usize, 1usize), (16, 2), (16, 1), (32, 2)]
        .iter()
        .enumerate()
    {
        let dw = g.add(
            format!("conv{}/dw", i + 2),
            LayerKind::DepthwiseConv {
                k: 3,
                stride: *stride,
                pad: 1,
                relu: true,
            },
            cur,
        );
        cur = conv(&mut g, &format!("conv{}/pw", i + 2), Some(dw), *ch, 1, 1, 0);
    }
    let gap = g.add("gap", LayerKind::GlobalAvgPool, cur);
    let fc = g.add(
        "fc",
        LayerKind::FullyConnected {
            out: 10,
            relu: false,
        },
        gap,
    );
    g.add("softmax", LayerKind::Softmax, fc);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{applicability, find_branch_groups};

    #[test]
    fn all_miniatures_infer_shapes() {
        for id in ModelId::EVALUATED {
            let g = miniature(id);
            g.infer_shapes()
                .unwrap_or_else(|e| panic!("{}: {e}", g.name()));
            // Small enough for functional tests: under 10 MMACs each.
            assert!(
                g.total_macs().unwrap() < 10_000_000,
                "{} too big: {} MACs",
                g.name(),
                g.total_macs().unwrap()
            );
        }
    }

    #[test]
    fn miniatures_preserve_structural_features() {
        // Branch structure survives the shrink.
        assert_eq!(find_branch_groups(&miniature(ModelId::GoogLeNet)).len(), 2);
        assert_eq!(find_branch_groups(&miniature(ModelId::SqueezeNet)).len(), 3);
        // Operator classes survive.
        let has_op = |g: &Graph, op: &str| g.nodes().iter().any(|n| n.kind.op_name() == op);
        assert!(has_op(&miniature(ModelId::AlexNet), "lrn"));
        assert!(has_op(&miniature(ModelId::MobileNet), "dwconv"));
        assert!(has_op(&miniature(ModelId::Vgg16), "fc"));
        // Table-1 applicability is identical to the full-size networks.
        for id in ModelId::EVALUATED {
            let mini = applicability(&miniature(id));
            let full = applicability(&id.build());
            assert_eq!(mini, full, "{}", id.name());
        }
    }

    #[test]
    fn inception_miniature_has_four_way_branches() {
        let g = miniature(ModelId::GoogLeNet);
        for grp in find_branch_groups(&g) {
            assert_eq!(grp.branches.len(), 4);
        }
    }
}
