//! SqueezeNet v1.1 (Iandola et al. 2016).
//!
//! The network of the paper's Figure 11b: Fire modules (squeeze 1x1, then
//! parallel expand 1x1 / expand 3x3 branches joined by concat).

use utensor::Shape;

use crate::graph::{Graph, NodeId};
use crate::layer::LayerKind;
use crate::models::{conv, maxpool};

/// Appends one Fire module; returns the concat node.
///
/// `s` squeeze 1x1 channels, `e1` expand 1x1 channels, `e3` expand 3x3
/// channels.
pub fn fire(g: &mut Graph, name: &str, input: NodeId, s: usize, e1: usize, e3: usize) -> NodeId {
    let squeeze = conv(g, &format!("{name}/squeeze1x1"), Some(input), s, 1, 1, 0);
    let expand1 = conv(g, &format!("{name}/expand1x1"), Some(squeeze), e1, 1, 1, 0);
    let expand3 = conv(g, &format!("{name}/expand3x3"), Some(squeeze), e3, 3, 1, 1);
    g.add_multi(
        format!("{name}/concat"),
        LayerKind::Concat,
        &[expand1, expand3],
    )
}

/// Builds SqueezeNet v1.1 for 227×227 RGB ImageNet classification.
pub(super) fn squeezenet_v1_1() -> Graph {
    let mut g = Graph::new("SqueezeNet v1.1", Shape::nchw(1, 3, 227, 227));
    let c1 = conv(&mut g, "conv1", None, 64, 3, 2, 0); // 64 x 113
    let p1 = maxpool(&mut g, "pool1", c1, 3, 2, 0); // 64 x 56
    let f2 = fire(&mut g, "fire2", p1, 16, 64, 64); // 128 x 56
    let f3 = fire(&mut g, "fire3", f2, 16, 64, 64);
    let p3 = maxpool(&mut g, "pool3", f3, 3, 2, 0); // 128 x 27
    let f4 = fire(&mut g, "fire4", p3, 32, 128, 128); // 256 x 27
    let f5 = fire(&mut g, "fire5", f4, 32, 128, 128);
    let p5 = maxpool(&mut g, "pool5", f5, 3, 2, 0); // 256 x 13
    let f6 = fire(&mut g, "fire6", p5, 48, 192, 192); // 384 x 13
    let f7 = fire(&mut g, "fire7", f6, 48, 192, 192);
    let f8 = fire(&mut g, "fire8", f7, 64, 256, 256); // 512 x 13
    let f9 = fire(&mut g, "fire9", f8, 64, 256, 256);
    let c10 = conv(&mut g, "conv10", Some(f9), 1000, 1, 1, 0); // 1000 x 13
    let gap = g.add("pool10/gap", LayerKind::GlobalAvgPool, c10);
    g.add("softmax", LayerKind::Softmax, gap);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::find_branch_groups;

    #[test]
    fn canonical_shapes() {
        let g = squeezenet_v1_1();
        let shapes = g.infer_shapes().unwrap();
        let by_name = |name: &str| {
            let idx = g.nodes().iter().position(|n| n.name == name).unwrap();
            shapes[idx].dims().to_vec()
        };
        assert_eq!(by_name("conv1"), vec![1, 64, 113, 113]);
        assert_eq!(by_name("pool1"), vec![1, 64, 56, 56]);
        assert_eq!(by_name("fire2/concat"), vec![1, 128, 56, 56]);
        assert_eq!(by_name("pool3"), vec![1, 128, 27, 27]);
        assert_eq!(by_name("fire5/concat"), vec![1, 256, 27, 27]);
        assert_eq!(by_name("fire9/concat"), vec![1, 512, 13, 13]);
        assert_eq!(by_name("pool10/gap"), vec![1, 1000, 1, 1]);
    }

    #[test]
    fn eight_two_way_branch_groups() {
        let groups = find_branch_groups(&squeezenet_v1_1());
        assert_eq!(groups.len(), 8);
        for grp in &groups {
            assert_eq!(grp.branches.len(), 2);
            assert!(grp.branches.iter().all(|b| b.len() == 1));
        }
    }

    #[test]
    fn params_about_1_2m() {
        let total = squeezenet_v1_1().total_params().unwrap();
        assert!((1_000_000..1_500_000).contains(&total), "params = {total}");
    }
}
