//! The whole-plane QUInt8 depthwise kernel against the im2col path.
//!
//! The direct QUInt8 depthwise pads each plane once with the input zero
//! point, runs one strided pass per nonzero tap over padded-pitch
//! accumulators and requantizes the compacted plane. It must equal the
//! per-channel im2col + naive GEMM reference **bit for bit** over
//! planes from 1 × 1 to 33 × 33 (MobileNet's 7 × 7 and 14 × 14
//! included), windows 1, 3 and 5, strides 1–3 (above the window side
//! included), padding 0–2, planes narrower than the window, zero weights
//! and input zero points at 0, 128 and 255, with batch 2 — and across
//! the channel split the runtime applies to depthwise layers.
//!
//! ci.sh runs this target in both kernel-path passes next to
//! `direct_conv_props` and `pool_props`, so the plain and the
//! AVX2-compiled row update are both held to the reference.

mod common;

use common::conv::depthwise_im2col;
use testkit::{prop_assert, prop_assume, props, select};
use ukernels::{depthwise_conv2d, out_dim, Conv2dParams};
use utensor::{QuantParams, Shape, Tensor};

/// One depthwise case: `c` channels of `h × w`, batch 2, a `k × k`
/// window, input zero point `zp`, every `zero_every`-th weight equal to
/// the filter zero point (a zero weight), codes drawn from `seed`.
#[derive(Clone, Copy, Debug)]
struct Case {
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    zp: u8,
    zero_every: usize,
    seed: usize,
}

impl Case {
    fn fits(&self) -> bool {
        out_dim(self.h, self.k, self.stride, self.pad).is_some()
            && out_dim(self.w, self.k, self.stride, self.pad).is_some()
    }

    fn inputs(&self) -> (Tensor, Tensor, Vec<f32>) {
        let mix = |i: usize| (i + self.seed).wrapping_mul(2654435761) >> 9;
        let n = 2 * self.c * self.h * self.w;
        let x_p = QuantParams {
            scale: 0.03,
            zero_point: self.zp,
        };
        let x = (0..n).map(|i| (mix(i) % 256) as u8).collect();
        let x = Tensor::from_quantized(Shape::nchw(2, self.c, self.h, self.w), x, x_p).unwrap();
        let f_p = QuantParams {
            scale: 0.02,
            zero_point: (mix(7) % 256) as u8,
        };
        let taps = self.c * self.k * self.k;
        let f = (0..taps)
            .map(|i| match i % self.zero_every {
                0 => f_p.zero_point,
                _ => (mix(i + n) % 256) as u8,
            })
            .collect();
        let f = Tensor::from_quantized(Shape::oihw(self.c, 1, self.k, self.k), f, f_p).unwrap();
        let bias = (0..self.c)
            .map(|i| (mix(i + 3 * n) % 200) as f32 * 0.01 - 1.0)
            .collect();
        (x, f, bias)
    }
}

/// The output grid and the layer parameters of a case.
fn layer(case: &Case, relu: bool) -> (Conv2dParams, QuantParams) {
    let p = Conv2dParams {
        stride: case.stride,
        pad: case.pad,
        relu,
    };
    (p, QuantParams::from_range(-3.0, 3.0).unwrap())
}

/// Plane kernel == im2col reference for one case.
fn plane_equals_im2col(case: &Case, relu: bool) -> bool {
    let (x, f, bias) = case.inputs();
    let (p, out_p) = layer(case, relu);
    let want = depthwise_im2col(&x, &f, Some(&bias), &p, Some(out_p));
    let got = depthwise_conv2d(&x, &f, Some(&bias), &p, Some(out_p)).unwrap();
    got.bit_equal(&want)
}

#[test]
fn every_window_over_the_plane_ladder() {
    let mut cells = 0;
    let windows = [1usize, 3, 5]
        .into_iter()
        .flat_map(|k| (1..=3).flat_map(move |stride| (0..=2).map(move |pad| (k, stride, pad))));
    for (k, stride, pad) in windows {
        for side in [1usize, 2, 3, 5, 7, 14, 33] {
            for (zi, zp) in [0u8, 128, 255].into_iter().enumerate() {
                let case = Case {
                    c: 3,
                    h: side,
                    w: side,
                    k,
                    stride,
                    pad,
                    zp,
                    zero_every: 2 + zi,
                    seed: side * 31 + k,
                };
                if case.fits() {
                    assert!(plane_equals_im2col(&case, zi == 1), "{case:?}");
                    cells += 1;
                }
            }
        }
    }
    assert!(cells > 300, "the ladder shrank to {cells} cases");
}

props! {
    #![cases(96)]

    /// Generated geometry: rectangular planes up to 33 × 33, every
    /// window / stride / padding, the zero-point rails, dense to sparse
    /// weights.
    fn plane_is_bit_equal_to_im2col(
        c in 1usize..=5,
        h in 1usize..=33,
        w in 1usize..=33,
        k in select(vec![1usize, 3, 5]),
        stride in 1usize..=3,
        pad in 0usize..=2,
        zp in select(vec![0u8, 128, 255]),
        zero_every in 1usize..=9,
        relu in select(vec![false, true]),
        seed in 0usize..1000,
    ) {
        let case = Case { c, h, w, k, stride, pad, zp, zero_every, seed };
        prop_assume!(case.fits());
        prop_assert!(plane_equals_im2col(&case, relu));
    }

    /// The split invariant: the plane kernel over channel ranges
    /// `[0, c/3)` and `[c/3, c)` (input, filters and bias sliced alike),
    /// concatenated, equals the whole layer.
    fn channel_split_planes_recompose(
        c in 2usize..=9,
        h in 1usize..=20,
        w in 1usize..=20,
        k in select(vec![1usize, 3, 5]),
        stride in 1usize..=3,
        pad in 0usize..=2,
        zp in select(vec![0u8, 128, 255]),
        seed in 0usize..1000,
    ) {
        let case = Case { c, h, w, k, stride, pad, zp, zero_every: 4, seed };
        prop_assume!(case.fits());
        let (x, f, bias) = case.inputs();
        let (p, out_p) = layer(&case, true);
        let whole = depthwise_conv2d(&x, &f, Some(&bias), &p, Some(out_p)).unwrap();
        let parts: Vec<Tensor> = [(0, c / 3), (c / 3, c)]
            .into_iter()
            .filter(|(lo, hi)| lo < hi)
            .map(|(lo, hi)| {
                let xs = x.slice_axis(1, lo, hi).unwrap();
                let fs = f.slice_axis(0, lo, hi).unwrap();
                depthwise_conv2d(&xs, &fs, Some(&bias[lo..hi]), &p, Some(out_p)).unwrap()
            })
            .collect();
        let merged = Tensor::concat_axis(1, &parts.iter().collect::<Vec<_>>()).unwrap();
        prop_assert!(merged.bit_equal(&whole));
    }
}
