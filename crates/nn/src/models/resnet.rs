//! ResNet-18 (He et al. 2016).
//!
//! The paper's accuracy study (Figure 10) covers ResNet-v1/v2; this
//! builds the 18-layer v1 variant as a zoo extra. Residual blocks
//! exercise the [`crate::layer::LayerKind::Add`] join, whose quantized
//! form requires dual-input rescaling (unlike Inception's concat joins).

use utensor::Shape;

use crate::graph::{Graph, NodeId};
use crate::layer::LayerKind;
use crate::models::{conv, maxpool};

/// Appends one basic residual block (two 3×3 convs plus a skip).
///
/// When `stride != 1` or the channel count changes, the skip goes
/// through a 1×1 projection convolution, as in the original.
pub(super) fn basic_block(
    g: &mut Graph,
    name: &str,
    input: NodeId,
    in_ch: usize,
    out_ch: usize,
    stride: usize,
) -> NodeId {
    let c1 = conv(
        g,
        &format!("{name}/conv1"),
        Some(input),
        out_ch,
        3,
        stride,
        1,
    );
    // Second conv without fused ReLU: the activation comes after the add.
    let c2 = g.add(
        format!("{name}/conv2"),
        LayerKind::Conv {
            oc: out_ch,
            k: 3,
            stride: 1,
            pad: 1,
            relu: false,
        },
        c1,
    );
    let skip = if stride != 1 || in_ch != out_ch {
        g.add(
            format!("{name}/downsample"),
            LayerKind::Conv {
                oc: out_ch,
                k: 1,
                stride,
                pad: 0,
                relu: false,
            },
            input,
        )
    } else {
        input
    };
    let sum = g.add_multi(
        format!("{name}/add"),
        LayerKind::Add { relu: false },
        &[c2, skip],
    );
    g.add(format!("{name}/relu"), LayerKind::Relu, sum)
}

/// Builds ResNet-18 for 224×224 RGB ImageNet classification.
pub(super) fn resnet18() -> Graph {
    let mut g = Graph::new("ResNet-18", Shape::nchw(1, 3, 224, 224));
    let c1 = conv(&mut g, "conv1", None, 64, 7, 2, 3); // 64 x 112
    let mut cur = maxpool(&mut g, "pool1", c1, 3, 2, 1); // 64 x 56
    let stages: [(usize, usize); 4] = [(64, 1), (128, 2), (256, 2), (512, 2)];
    let mut in_ch = 64;
    for (si, (ch, first_stride)) in stages.iter().enumerate() {
        for b in 0..2 {
            let stride = if b == 0 { *first_stride } else { 1 };
            cur = basic_block(
                &mut g,
                &format!("layer{}.{b}", si + 1),
                cur,
                in_ch,
                *ch,
                stride,
            );
            in_ch = *ch;
        }
    }
    let gap = g.add("gap", LayerKind::GlobalAvgPool, cur);
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

/// A miniature ResNet with two residual blocks for functional tests.
pub(super) fn mini_resnet() -> Graph {
    let mut g = Graph::new("ResNet-mini", Shape::nchw(1, 3, 32, 32));
    let c1 = conv(&mut g, "conv1", None, 8, 3, 2, 1); // 8 x 16
    let b1 = basic_block(&mut g, "layer1.0", c1, 8, 8, 1);
    let b2 = basic_block(&mut g, "layer2.0", b1, 8, 16, 2);
    let gap = g.add("gap", LayerKind::GlobalAvgPool, b2);
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
    use crate::analysis::applicability;

    #[test]
    fn canonical_shapes() {
        let g = resnet18();
        let shapes = g.infer_shapes().unwrap();
        let by_name = |name: &str| {
            let idx = g.nodes().iter().position(|n| n.name == name).unwrap();
            shapes[idx].dims().to_vec()
        };
        assert_eq!(by_name("conv1"), vec![1, 64, 112, 112]);
        assert_eq!(by_name("pool1"), vec![1, 64, 56, 56]);
        assert_eq!(by_name("layer1.1/relu"), vec![1, 64, 56, 56]);
        assert_eq!(by_name("layer2.0/relu"), vec![1, 128, 28, 28]);
        assert_eq!(by_name("layer4.1/relu"), vec![1, 512, 7, 7]);
        assert_eq!(by_name("gap"), vec![1, 512, 1, 1]);
    }

    #[test]
    fn params_about_11_7m() {
        let total = resnet18().total_params().unwrap();
        assert!(
            (11_000_000..12_500_000).contains(&total),
            "ResNet-18 params = {total}"
        );
    }

    #[test]
    fn macs_about_1_8g() {
        let gmacs = resnet18().total_macs().unwrap() as f64 / 1e9;
        assert!((1.5..2.2).contains(&gmacs), "ResNet-18 = {gmacs} GMACs");
    }

    #[test]
    fn add_joins_are_not_branch_groups() {
        // Branch distribution targets concat joins (Table 1); residual
        // adds must not be misdetected as distributable branch groups.
        let app = applicability(&resnet18());
        assert!(app.channel_distribution);
        assert!(!app.branch_distribution);
    }

    #[test]
    fn projection_skips_only_where_shapes_change() {
        let g = resnet18();
        let downsamples = g
            .nodes()
            .iter()
            .filter(|n| n.name.ends_with("/downsample"))
            .count();
        // Stages 2-4 change shape in their first block.
        assert_eq!(downsamples, 3);
    }

    #[test]
    fn mini_resnet_is_small() {
        let g = mini_resnet();
        assert!(g.total_macs().unwrap() < 5_000_000);
        assert!(g.infer_shapes().is_ok());
    }
}
