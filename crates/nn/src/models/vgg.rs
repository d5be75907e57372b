//! VGG-16 (Simonyan & Zisserman 2015), configuration D.

use utensor::Shape;

use crate::graph::Graph;
use crate::layer::LayerKind;
use crate::models::{conv, maxpool};

/// Builds VGG-16 for 224×224 RGB ImageNet classification.
pub(super) fn vgg16() -> Graph {
    let mut g = Graph::new("VGG-16", Shape::nchw(1, 3, 224, 224));
    let blocks: [(usize, usize); 5] = [(64, 2), (128, 2), (256, 3), (512, 3), (512, 3)];
    let mut prev = None;
    for (bi, (ch, reps)) in blocks.iter().enumerate() {
        for r in 0..*reps {
            let name = format!("conv{}_{}", bi + 1, r + 1);
            let id = conv(&mut g, &name, prev, *ch, 3, 1, 1);
            prev = Some(id);
        }
        let p = maxpool(&mut g, &format!("pool{}", bi + 1), prev.unwrap(), 2, 2, 0);
        prev = Some(p);
    }
    let f6 = g.add(
        "fc6",
        LayerKind::FullyConnected {
            out: 4096,
            relu: true,
        },
        prev.unwrap(),
    );
    let f7 = g.add(
        "fc7",
        LayerKind::FullyConnected {
            out: 4096,
            relu: true,
        },
        f6,
    );
    let f8 = g.add(
        "fc8",
        LayerKind::FullyConnected {
            out: 1000,
            relu: false,
        },
        f7,
    );
    g.add("softmax", LayerKind::Softmax, f8);
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_structure() {
        let g = vgg16();
        // 13 convs + 5 pools + 3 fcs + softmax.
        assert_eq!(g.len(), 22);
        let shapes = g.infer_shapes().unwrap();
        let pool5 = g.nodes().iter().position(|n| n.name == "pool5").unwrap();
        assert_eq!(shapes[pool5].dims(), &[1, 512, 7, 7]);
    }

    #[test]
    fn canonical_params_138m() {
        let total = vgg16().total_params().unwrap();
        assert!(
            (138_000_000..139_000_000).contains(&total),
            "VGG-16 params = {total}"
        );
    }

    #[test]
    fn conv_macs_dominate() {
        let g = vgg16();
        let by_op = crate::analysis::macs_by_op(&g);
        assert!(by_op["conv"] > 50 * by_op["fc"]);
    }
}
