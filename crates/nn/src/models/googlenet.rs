//! GoogLeNet / Inception v1 (Szegedy et al. 2015).
//!
//! The network of the paper's Figure 11a and the branch-distribution case
//! study (Figure 12): nine Inception modules, each a four-way divergent
//! branch group joined by a channel concat.

use utensor::Shape;

use crate::graph::{Graph, NodeId};
use crate::layer::{LayerKind, PoolFunc};
use crate::models::{conv, maxpool};

/// Output-channel configuration of one Inception module:
/// `(1x1, 3x3 reduce, 3x3, 5x5 reduce, 5x5, pool proj)`.
pub(super) type InceptionCfg = (usize, usize, usize, usize, usize, usize);

/// The canonical configurations of the nine modules, 3a through 5b.
pub(super) const INCEPTION_CFGS: [(&str, InceptionCfg); 9] = [
    ("3a", (64, 96, 128, 16, 32, 32)),
    ("3b", (128, 128, 192, 32, 96, 64)),
    ("4a", (192, 96, 208, 16, 48, 64)),
    ("4b", (160, 112, 224, 24, 64, 64)),
    ("4c", (128, 128, 256, 24, 64, 64)),
    ("4d", (112, 144, 288, 32, 64, 64)),
    ("4e", (256, 160, 320, 32, 128, 128)),
    ("5a", (256, 160, 320, 32, 128, 128)),
    ("5b", (384, 192, 384, 48, 128, 128)),
];

/// Appends one Inception module fed by `input`; returns the concat node.
pub fn inception(g: &mut Graph, name: &str, input: NodeId, cfg: InceptionCfg) -> NodeId {
    let (c1, c3r, c3, c5r, c5, pp) = cfg;
    // Branch 0: 1x1.
    let b0 = conv(g, &format!("{name}/1x1"), Some(input), c1, 1, 1, 0);
    // Branch 1: 1x1 reduce -> 3x3.
    let b1r = conv(g, &format!("{name}/3x3_reduce"), Some(input), c3r, 1, 1, 0);
    let b1 = conv(g, &format!("{name}/3x3"), Some(b1r), c3, 3, 1, 1);
    // Branch 2: 1x1 reduce -> 5x5.
    let b2r = conv(g, &format!("{name}/5x5_reduce"), Some(input), c5r, 1, 1, 0);
    let b2 = conv(g, &format!("{name}/5x5"), Some(b2r), c5, 5, 1, 2);
    // Branch 3: 3x3 maxpool -> 1x1 proj.
    let b3p = g.add(
        format!("{name}/pool"),
        LayerKind::Pool {
            func: PoolFunc::Max,
            k: 3,
            stride: 1,
            pad: 1,
        },
        input,
    );
    let b3 = conv(g, &format!("{name}/pool_proj"), Some(b3p), pp, 1, 1, 0);
    g.add_multi(
        format!("{name}/concat"),
        LayerKind::Concat,
        &[b0, b1, b2, b3],
    )
}

/// Builds GoogLeNet for 224×224 RGB ImageNet classification.
pub(super) fn googlenet() -> Graph {
    let mut g = Graph::new("GoogLeNet", Shape::nchw(1, 3, 224, 224));
    let c1 = conv(&mut g, "conv1/7x7_s2", None, 64, 7, 2, 3); // 64 x 112
    let p1 = maxpool(&mut g, "pool1/3x3_s2", c1, 3, 2, 1); // 64 x 56
    let c2r = conv(&mut g, "conv2/3x3_reduce", Some(p1), 64, 1, 1, 0);
    let c2 = conv(&mut g, "conv2/3x3", Some(c2r), 192, 3, 1, 1); // 192 x 56
    let p2 = maxpool(&mut g, "pool2/3x3_s2", c2, 3, 2, 1); // 192 x 28

    let mut cur = p2;
    for (name, cfg) in INCEPTION_CFGS {
        cur = inception(&mut g, &format!("inception_{name}"), cur, cfg);
        if name == "3b" {
            cur = maxpool(&mut g, "pool3/3x3_s2", cur, 3, 2, 1); // -> 14
        } else if name == "4e" {
            cur = maxpool(&mut g, "pool4/3x3_s2", cur, 3, 2, 1); // -> 7
        }
    }

    let gap = g.add("pool5/gap", LayerKind::GlobalAvgPool, cur);
    let fc = g.add(
        "loss3/classifier",
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
    use crate::analysis::find_branch_groups;

    #[test]
    fn canonical_module_channels() {
        let g = googlenet();
        let shapes = g.infer_shapes().unwrap();
        let by_name = |name: &str| {
            let idx = g.nodes().iter().position(|n| n.name == name).unwrap();
            shapes[idx].dims().to_vec()
        };
        assert_eq!(by_name("pool2/3x3_s2"), vec![1, 192, 28, 28]);
        assert_eq!(by_name("inception_3a/concat"), vec![1, 256, 28, 28]);
        assert_eq!(by_name("inception_3b/concat"), vec![1, 480, 28, 28]);
        assert_eq!(by_name("inception_4a/concat"), vec![1, 512, 14, 14]);
        assert_eq!(by_name("inception_4e/concat"), vec![1, 832, 14, 14]);
        assert_eq!(by_name("inception_5b/concat"), vec![1, 1024, 7, 7]);
        assert_eq!(by_name("pool5/gap"), vec![1, 1024, 1, 1]);
    }

    #[test]
    fn nine_branch_groups_of_four() {
        let g = googlenet();
        let groups = find_branch_groups(&g);
        assert_eq!(groups.len(), 9);
        for grp in &groups {
            assert_eq!(grp.branches.len(), 4);
            // 1x1 | reduce+3x3 | reduce+5x5 | pool+proj.
            let lens: Vec<usize> = grp.branches.iter().map(Vec::len).collect();
            assert_eq!(lens, vec![1, 2, 2, 2]);
        }
    }

    #[test]
    fn params_about_7m() {
        let total = googlenet().total_params().unwrap();
        assert!((5_500_000..7_500_000).contains(&total), "params = {total}");
    }
}
