//! AlexNet (Krizhevsky et al. 2012), single-column (no filter groups).

use utensor::Shape;

use crate::graph::Graph;
use crate::layer::LayerKind;
use crate::models::{conv, maxpool};

/// Builds AlexNet for 227×227 RGB ImageNet classification.
///
/// The Caffe single-column variant: grouped convolutions are widened to
/// full connections (the modern deployment form), LRN after conv1/conv2.
pub(super) fn alexnet() -> Graph {
    let mut g = Graph::new("AlexNet", Shape::nchw(1, 3, 227, 227));
    let lrn = LayerKind::Lrn {
        n: 5,
        alpha: 1e-4,
        beta: 0.75,
        k: 1.0,
    };

    let c1 = conv(&mut g, "conv1", None, 96, 11, 4, 0); // 96 x 55x55
    let n1 = g.add("norm1", lrn.clone(), c1);
    let p1 = maxpool(&mut g, "pool1", n1, 3, 2, 0); // 96 x 27x27
    let c2 = conv(&mut g, "conv2", Some(p1), 256, 5, 1, 2); // 256 x 27x27
    let n2 = g.add("norm2", lrn, c2);
    let p2 = maxpool(&mut g, "pool2", n2, 3, 2, 0); // 256 x 13x13
    let c3 = conv(&mut g, "conv3", Some(p2), 384, 3, 1, 1);
    let c4 = conv(&mut g, "conv4", Some(c3), 384, 3, 1, 1);
    let c5 = conv(&mut g, "conv5", Some(c4), 256, 3, 1, 1);
    let p5 = maxpool(&mut g, "pool5", c5, 3, 2, 0); // 256 x 6x6
    let f6 = g.add(
        "fc6",
        LayerKind::FullyConnected {
            out: 4096,
            relu: true,
        },
        p5,
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
    fn canonical_shapes() {
        let g = alexnet();
        let shapes = g.infer_shapes().unwrap();
        let by_name = |name: &str| {
            let idx = g.nodes().iter().position(|n| n.name == name).unwrap();
            shapes[idx].dims().to_vec()
        };
        assert_eq!(by_name("conv1"), vec![1, 96, 55, 55]);
        assert_eq!(by_name("pool1"), vec![1, 96, 27, 27]);
        assert_eq!(by_name("conv2"), vec![1, 256, 27, 27]);
        assert_eq!(by_name("pool2"), vec![1, 256, 13, 13]);
        assert_eq!(by_name("conv5"), vec![1, 256, 13, 13]);
        assert_eq!(by_name("pool5"), vec![1, 256, 6, 6]);
        assert_eq!(by_name("fc6"), vec![1, 4096, 1, 1]);
    }

    #[test]
    fn fc_layers_dominate_parameters() {
        // fc6 alone holds 9216*4096 ≈ 37.7M of AlexNet's ~60M params.
        let g = alexnet();
        let total = g.total_params().unwrap();
        assert!(total > 55_000_000 && total < 65_000_000, "total = {total}");
    }
}
