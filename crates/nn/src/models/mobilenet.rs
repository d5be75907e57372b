//! MobileNet v1 (Howard et al. 2017), width multiplier 1.0.
//!
//! The paper's representative of small-scale, computation-minimizing NNs:
//! depthwise-separable convolutions throughout.

use utensor::Shape;

use crate::graph::{Graph, NodeId};
use crate::layer::LayerKind;
use crate::models::conv;

/// Appends one depthwise-separable block (dw 3x3 + pw 1x1, both ReLU).
fn ds_block(g: &mut Graph, idx: usize, input: NodeId, out_ch: usize, stride: usize) -> NodeId {
    let dw = g.add(
        format!("conv{idx}/dw"),
        LayerKind::DepthwiseConv {
            k: 3,
            stride,
            pad: 1,
            relu: true,
        },
        input,
    );
    conv(g, &format!("conv{idx}/pw"), Some(dw), out_ch, 1, 1, 0)
}

/// Builds MobileNet v1 (1.0, 224) for RGB ImageNet classification.
pub(super) fn mobilenet_v1() -> Graph {
    let mut g = Graph::new("MobileNet v1", Shape::nchw(1, 3, 224, 224));
    let mut cur = conv(&mut g, "conv1", None, 32, 3, 2, 1); // 32 x 112
                                                            // (output channels, stride) per depthwise-separable block.
    let blocks: [(usize, usize); 13] = [
        (64, 1),
        (128, 2), // -> 56
        (128, 1),
        (256, 2), // -> 28
        (256, 1),
        (512, 2), // -> 14
        (512, 1),
        (512, 1),
        (512, 1),
        (512, 1),
        (512, 1),
        (1024, 2), // -> 7
        (1024, 1),
    ];
    for (i, (ch, stride)) in blocks.iter().enumerate() {
        cur = ds_block(&mut g, i + 2, cur, *ch, *stride);
    }
    let gap = g.add("pool/gap", LayerKind::GlobalAvgPool, cur);
    let fc = g.add(
        "fc",
        LayerKind::FullyConnected {
            out: 1000,
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

    #[test]
    fn canonical_shapes() {
        let g = mobilenet_v1();
        let shapes = g.infer_shapes().unwrap();
        let by_name = |name: &str| {
            let idx = g.nodes().iter().position(|n| n.name == name).unwrap();
            shapes[idx].dims().to_vec()
        };
        assert_eq!(by_name("conv1"), vec![1, 32, 112, 112]);
        assert_eq!(by_name("conv3/pw"), vec![1, 128, 56, 56]);
        assert_eq!(by_name("conv7/pw"), vec![1, 512, 14, 14]);
        assert_eq!(by_name("conv14/pw"), vec![1, 1024, 7, 7]);
        assert_eq!(by_name("pool/gap"), vec![1, 1024, 1, 1]);
    }

    #[test]
    fn depthwise_macs_are_small_fraction() {
        // The design point of MobileNet: pointwise convs dominate compute.
        let g = mobilenet_v1();
        let by_op = crate::analysis::macs_by_op(&g);
        assert!(by_op["conv"] > 8 * by_op["dwconv"]);
    }

    #[test]
    fn params_about_4_2m() {
        let total = mobilenet_v1().total_params().unwrap();
        assert!((3_800_000..4_600_000).contains(&total), "params = {total}");
    }
}
