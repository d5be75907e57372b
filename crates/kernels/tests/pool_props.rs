//! Row-wise pooling against the windowed oracle.
//!
//! `ukernels::pool2d` clips each window once and never tests a tap's
//! bounds; its QUInt8 paths reduce rows before columns. The loop it
//! replaced ([`common::pool2d_windowed`]) tests every tap. Both must
//! agree **bit for bit** in all three dtypes — the float paths keep each
//! window's tap order, so `max` on ±0 / NaN and the average's
//! association cannot move — over an exhaustive small grid, over
//! generated geometry with shrinking, and across the channel split the
//! runtime applies to pooling layers.
//!
//! The QUInt8 max paths have a vector body on the AVX-512 tiers (the
//! byte max of the window's rows split into stride phases); the plane
//! widths around its 64-lane vector and 128-byte phase window, and
//! SqueezeNet's pooled planes, run under every tier the host has below.
//!
//! ci.sh runs this target once per tier the host has, next to
//! `equivalence` and `direct_conv_props`.

mod common;

use common::alloc::{global_avg_pool, pool2d};
use common::{host_tiers, pool2d_windowed, pool_input};
use testkit::{bools, prop_assert, prop_assume, props, select};
use ukernels::{out_dim, set_kernel_path, PoolKind, PoolParams};
use utensor::{DType, QuantParams, Shape, Tensor, F16};

const DTYPES: [DType; 3] = [DType::F32, DType::F16, DType::QUInt8];
const KINDS: [PoolKind; 2] = [PoolKind::Max, PoolKind::Avg];

#[test]
fn exhaustive_small_grid_is_bit_equal_to_the_windowed_loop() {
    // Single rows and columns, planes narrower than the window, and the
    // widths around one vector register; every window, stride (above the
    // window side included) and padding (windows wholly inside it
    // included: k = 1, pad = 2).
    let sides = [1usize, 2, 3, 5, 31, 32, 33];
    let mut cells = 0;
    for (case, (&h, &w)) in sides
        .iter()
        .flat_map(|h| sides.iter().map(move |w| (h, w)))
        .enumerate()
    {
        for k in 1..=5 {
            for stride in 1..=3 {
                for pad in 0..=2 {
                    if out_dim(h, k, stride, pad).is_none() || out_dim(w, k, stride, pad).is_none()
                    {
                        continue;
                    }
                    for dtype in DTYPES {
                        let input = pool_input(Shape::nchw(1, 2, h, w), dtype, case * 7 + k);
                        for kind in KINDS {
                            let p = PoolParams {
                                kind,
                                k,
                                stride,
                                pad,
                            };
                            let got = pool2d(&input, &p).unwrap();
                            assert!(
                                got.bit_equal(&pool2d_windowed(&input, &p)),
                                "{dtype} {p:?} on {h}x{w}"
                            );
                            cells += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(cells > 10_000, "the grid shrank to {cells} cells");
}

/// QUInt8 max pooling over planes whose widths straddle the vector
/// body's 64 lanes and 128-byte phase window (63, 64, 65, 127, 128, 129)
/// and SqueezeNet's pooled planes (111, 55, 27), with the 3-wide and
/// 2-wide stride-2 windows (clipped columns included), under every tier
/// the host has, against the windowed loop.
#[test]
fn quint8_max_at_vector_widths_is_bit_equal_on_both_paths() {
    let mut cells = 0;
    for (i, &w) in [63usize, 64, 65, 127, 128, 129, 111, 55, 27]
        .iter()
        .enumerate()
    {
        for (k, pad) in [(3, 0), (3, 1), (2, 0), (2, 1), (1, 0)] {
            for h in [w, 5] {
                if out_dim(h, k, 2, pad).is_none() || out_dim(w, k, 2, pad).is_none() {
                    continue;
                }
                let input = pool_input(Shape::nchw(1, 3, h, w), DType::QUInt8, i * 13 + k);
                let p = PoolParams {
                    kind: PoolKind::Max,
                    k,
                    stride: 2,
                    pad,
                };
                let want = pool2d_windowed(&input, &p);
                for tier in host_tiers() {
                    let prev = set_kernel_path(tier);
                    let got = pool2d(&input, &p).unwrap();
                    set_kernel_path(prev);
                    assert!(got.bit_equal(&want), "{p:?} on {h}x{w}, {tier:?}");
                    cells += 1;
                }
            }
        }
    }
    assert!(cells >= 150, "the width sweep shrank to {cells} cells");
}

#[test]
fn global_average_is_the_whole_plane_window() {
    // On a square plane the global average is the `k = h` window the
    // oracle can express; on any plane it is the row-major mean.
    for dtype in DTYPES {
        for side in [1usize, 2, 7, 13] {
            let input = pool_input(Shape::nchw(2, 3, side, side), dtype, side);
            let whole = PoolParams {
                kind: PoolKind::Avg,
                k: side,
                stride: 1,
                pad: 0,
            };
            let got = global_avg_pool(&input).unwrap();
            assert!(
                got.bit_equal(&pool2d_windowed(&input, &whole)),
                "{dtype} {side}x{side}"
            );
        }
    }
}

#[test]
fn global_avg_pool_of_non_square_planes() {
    // Regression: a square `max(h, w)` window was asked of `pool2d`,
    // which rejected every non-square plane. Hand-computed means of
    // a 3 x 5 and a 5 x 3 plane in all three dtypes.
    for (h, w) in [(3usize, 5usize), (5, 3)] {
        let shape = Shape::nchw(1, 2, h, w);
        let reals: Vec<f32> = (0..30)
            .map(|i| ((i * 7) % 13) as f32 * 0.25 - 1.0)
            .collect();

        let f = Tensor::from_f32(shape.clone(), reals.clone()).unwrap();
        let got = global_avg_pool(&f).unwrap();
        assert_eq!(got.shape().dims(), &[1, 2, 1, 1]);
        let want: Vec<f32> = reals
            .chunks(15)
            .map(|plane| plane.iter().fold(0.0f32, |a, v| a + v) / 15.0)
            .collect();
        assert_eq!(got.as_f32().unwrap(), &want[..], "f32 {h}x{w}");

        let hin = f.cast(DType::F16, None).unwrap();
        let got = global_avg_pool(&hin).unwrap();
        let want: Vec<u16> = hin
            .as_f16()
            .unwrap()
            .chunks(15)
            .map(|plane| {
                let sum = plane.iter().fold(F16::ZERO, |a, &v| a + v);
                (sum / F16::from_f32(15.0)).to_bits()
            })
            .collect();
        let bits: Vec<u16> = got.as_f16().unwrap().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, want, "F16 {h}x{w}");

        let qp = QuantParams::from_range(-1.0, 2.0).unwrap();
        let qin = f.cast(DType::QUInt8, Some(qp)).unwrap();
        let got = global_avg_pool(&qin).unwrap();
        let want: Vec<u8> = qin
            .as_quint8()
            .unwrap()
            .0
            .chunks(15)
            .map(|plane| ((plane.iter().map(|&c| c as i32).sum::<i32>() + 7) / 15) as u8)
            .collect();
        assert_eq!(got.as_quint8().unwrap(), (&want[..], qp), "QUInt8 {h}x{w}");
    }
}

props! {
    #![cases(96)]

    /// Generated geometry, batch 2: planes from 1 × 1 to 64 × 64, windows
    /// 1–5, strides 1–3, padding 0–2, all three dtypes, both kinds.
    fn pooling_is_bit_equal_to_the_windowed_loop(
        h in 1usize..=64,
        w in select(vec![1usize, 2, 3, 4, 8, 15, 16, 17, 31, 32, 33, 47, 63, 64]),
        k in 1usize..=5,
        stride in 1usize..=3,
        pad in 0usize..=2,
        dtype in select(DTYPES.to_vec()),
        avg in bools(),
        seed in 0usize..1000,
    ) {
        prop_assume!(out_dim(h, k, stride, pad).is_some() && out_dim(w, k, stride, pad).is_some());
        let input = pool_input(Shape::nchw(2, 3, h, w), dtype, seed);
        let p = PoolParams { kind: if avg { PoolKind::Avg } else { PoolKind::Max }, k, stride, pad };
        prop_assert!(pool2d(&input, &p).unwrap().bit_equal(&pool2d_windowed(&input, &p)));
    }

    /// The split invariant at this level: pooling channel ranges
    /// `[0, c/3)` and `[c/3, c)` and concatenating equals pooling the
    /// whole tensor (pooling is per channel, §3.2 Figure 7b).
    fn channel_split_pooling_equals_whole_pooling(
        c in 1usize..=9,
        h in 1usize..=20,
        w in 1usize..=40,
        k in 1usize..=4,
        stride in 1usize..=3,
        pad in 0usize..=2,
        dtype in select(DTYPES.to_vec()),
        avg in bools(),
        seed in 0usize..1000,
    ) {
        prop_assume!(out_dim(h, k, stride, pad).is_some() && out_dim(w, k, stride, pad).is_some());
        let input = pool_input(Shape::nchw(2, c, h, w), dtype, seed);
        let p = PoolParams { kind: if avg { PoolKind::Avg } else { PoolKind::Max }, k, stride, pad };
        // `op` on the two channel ranges, merged.
        let split_merge = |op: &dyn Fn(&Tensor) -> Tensor| {
            let parts: Vec<Tensor> = [(0, c / 3), (c / 3, c)]
                .into_iter()
                .filter(|(lo, hi)| lo < hi)
                .map(|(lo, hi)| op(&input.slice_axis(1, lo, hi).unwrap()))
                .collect();
            Tensor::concat_axis(1, &parts.iter().collect::<Vec<_>>()).unwrap()
        };
        let merged = split_merge(&|t| pool2d(t, &p).unwrap());
        prop_assert!(merged.bit_equal(&pool2d(&input, &p).unwrap()));
        let gap = split_merge(&|t| global_avg_pool(t).unwrap());
        prop_assert!(gap.bit_equal(&global_avg_pool(&input).unwrap()));
    }
}
