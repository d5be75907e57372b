//! LeNet-5 (LeCun et al. 1998), the paper's Figure 1a illustration.

use utensor::Shape;

use crate::graph::Graph;
use crate::layer::{LayerKind, PoolFunc};
use crate::models::conv;

/// Builds LeNet-5 for 32×32 grayscale digit recognition.
pub(super) fn lenet5() -> Graph {
    let mut g = Graph::new("LeNet-5", Shape::nchw(1, 1, 32, 32));
    let c1 = conv(&mut g, "conv1", None, 6, 5, 1, 0); // 6 x 28x28
    let p1 = g.add(
        "pool1",
        LayerKind::Pool {
            func: PoolFunc::Avg,
            k: 2,
            stride: 2,
            pad: 0,
        },
        c1,
    ); // 6 x 14x14
    let c2 = conv(&mut g, "conv2", Some(p1), 16, 5, 1, 0); // 16 x 10x10
    let p2 = g.add(
        "pool2",
        LayerKind::Pool {
            func: PoolFunc::Avg,
            k: 2,
            stride: 2,
            pad: 0,
        },
        c2,
    ); // 16 x 5x5
    let f3 = g.add(
        "fc3",
        LayerKind::FullyConnected {
            out: 120,
            relu: true,
        },
        p2,
    );
    let f4 = g.add(
        "fc4",
        LayerKind::FullyConnected {
            out: 84,
            relu: true,
        },
        f3,
    );
    let f5 = g.add(
        "fc5",
        LayerKind::FullyConnected {
            out: 10,
            relu: false,
        },
        f4,
    );
    g.add("softmax", LayerKind::Softmax, f5);
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_shapes() {
        let g = lenet5();
        let shapes = g.infer_shapes().unwrap();
        assert_eq!(shapes[0].dims(), &[1, 6, 28, 28]);
        assert_eq!(shapes[1].dims(), &[1, 6, 14, 14]);
        assert_eq!(shapes[2].dims(), &[1, 16, 10, 10]);
        assert_eq!(shapes[3].dims(), &[1, 16, 5, 5]);
        assert_eq!(shapes[4].dims(), &[1, 120, 1, 1]);
        assert_eq!(shapes[6].dims(), &[1, 10, 1, 1]);
    }

    #[test]
    fn parameter_count() {
        // conv1: 6*25+6, conv2: 16*6*25+16, fc3: 120*400+120,
        // fc4: 84*120+84, fc5: 10*84+10 = 61,706.
        assert_eq!(lenet5().total_params().unwrap(), 61_706);
    }
}
