//! The whole-plane depthwise kernels, in every dtype, against the im2col
//! path.
//!
//! The direct QUInt8 depthwise pads each plane once with the input zero
//! point, splits it by the stride into phase planes, sums each strip of
//! outputs' taps in registers (`Σ w′·x`, the zero point folded out with
//! the bias) and requantizes the strip. It must equal the per-channel
//! im2col + naive GEMM reference **bit for bit** over planes from 1 × 1
//! to 33 × 33 (MobileNet's 7 × 7 and 14 × 14 included), windows 1, 3 and
//! 5, strides 1–3 (above the window side included), padding 0–2, planes
//! narrower than the window, zero weights and input zero points at 0,
//! 128 and 255, with batch 2 — and across the channel split the runtime
//! applies to depthwise layers.
//!
//! The F16 strips (the plane padded with `+0`, one `F16::mul_add` per
//! tap) are held to the same reference over the same geometry plus rows
//! of several 32-lane vectors, on values that reach the subnormal range,
//! signed zeros and products that overflow to ±∞ (and ∞ − ∞ = NaN,
//! compared as NaN: payloads may differ); the f32 strips on the same
//! values widened.
//!
//! ci.sh runs this target in both kernel-path passes next to
//! `direct_conv_props` and `pool_props`, so the scalar strips and the
//! AVX-512 (QUInt8), AVX512-FP16 (F16) and AVX2 ones are all held to the
//! reference.

mod common;

use common::alloc::depthwise_conv2d;
use common::conv::depthwise_im2col;
use testkit::{prop_assert, prop_assume, props, select};
use ukernels::{out_dim, Conv2dParams};
use utensor::{DType, QuantParams, Shape, Tensor, TensorData, F16};

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

    fn mix(&self, i: usize) -> usize {
        (i + self.seed).wrapping_mul(2654435761) >> 9
    }

    fn inputs(&self) -> (Tensor, Tensor, Vec<f32>) {
        let mix = |i: usize| self.mix(i);
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

/// Binary16 operands by class: subnormals, values near the top of the
/// range, signed zeros, ordinary values in ±4; `zero_every`-th weights
/// zero. Products of the large classes overflow to ±∞.
fn f16_inputs(case: &Case) -> (Tensor, Tensor, Vec<f32>) {
    let value = |i: usize| {
        let (m, sign) = (case.mix(i), (case.mix(i + 1) as u16 & 1) << 15);
        F16::from_bits(match m % 8 {
            0 => sign | (1 + (m / 8 % 0x3ff) as u16),
            1 => sign | (0x7000 + (m / 8 % 0xbff) as u16),
            2 => sign,
            _ => F16::from_f32((m / 8 % 2001) as f32 / 250.0 - 4.0).to_bits(),
        })
    };
    let n = 2 * case.c * case.h * case.w;
    let x = TensorData::F16((0..n).map(value).collect());
    let x = Tensor::new(Shape::nchw(2, case.c, case.h, case.w), x).unwrap();
    let taps = case.c * case.k * case.k;
    let f = (0..taps)
        .map(|i| match i % case.zero_every {
            0 => F16::ZERO,
            _ => value(i + n),
        })
        .collect();
    let f = Tensor::new(Shape::oihw(case.c, 1, case.k, case.k), TensorData::F16(f)).unwrap();
    let bias = (0..case.c).map(|i| value(i + 3 * n).to_f32()).collect();
    (x, f, bias)
}

/// Bits equal, or both NaN.
fn same_bits<T: Copy>(got: &[T], want: &[T], bits: impl Fn(T) -> (u32, bool)) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(&g, &w)| {
            let ((g, g_nan), (w, w_nan)) = (bits(g), bits(w));
            g == w || (g_nan && w_nan)
        })
}

/// F16 plane kernel == im2col reference for one case, and the f32 plane
/// kernel on the same values widened (exactly) to f32.
fn float_planes_equal_im2col(case: &Case, relu: bool) -> bool {
    let (x, f, bias) = f16_inputs(case);
    let p = Conv2dParams {
        stride: case.stride,
        pad: case.pad,
        relu,
    };
    let run = |x: &Tensor, f: &Tensor| {
        let want = depthwise_im2col(x, f, Some(&bias), &p, None);
        (depthwise_conv2d(x, f, Some(&bias), &p, None).unwrap(), want)
    };
    let (got, want) = run(&x, &f);
    let f16_bits = |h: F16| (h.to_bits() as u32, h.is_nan());
    let half = same_bits(got.as_f16().unwrap(), want.as_f16().unwrap(), f16_bits);
    let widen = |t: &Tensor| t.cast(DType::F32, None).unwrap();
    let (got, want) = run(&widen(&x), &widen(&f));
    let f32_bits = |v: f32| (v.to_bits(), v.is_nan());
    half && same_bits(got.as_f32().unwrap(), want.as_f32().unwrap(), f32_bits)
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

#[test]
fn float_every_window_over_the_plane_ladder() {
    let (mut cells, mut special) = (0, 0);
    let windows = [1usize, 3, 5]
        .into_iter()
        .flat_map(|k| (1..=3).flat_map(move |stride| (0..=2).map(move |pad| (k, stride, pad))));
    for (k, stride, pad) in windows {
        for (h, w) in [(1, 1), (3, 2), (7, 7), (14, 14), (33, 33), (5, 70)] {
            for zero_every in [2usize, 5] {
                let case = Case {
                    c: 3,
                    h,
                    w,
                    k,
                    stride,
                    pad,
                    zp: 0,
                    zero_every,
                    seed: h * 31 + w + k,
                };
                if case.fits() {
                    assert!(
                        float_planes_equal_im2col(&case, zero_every == 5),
                        "{case:?}"
                    );
                    cells += 1;
                    let (x, f, bias) = f16_inputs(&case);
                    let p = Conv2dParams {
                        stride,
                        pad,
                        relu: false,
                    };
                    let out = depthwise_conv2d(&x, &f, Some(&bias), &p, None).unwrap();
                    let out = out.as_f16().unwrap();
                    if out.iter().any(|v| !v.is_finite()) && out.iter().any(|v| v.is_subnormal()) {
                        special += 1;
                    }
                }
            }
        }
    }
    assert!(cells > 150, "the ladder shrank to {cells} cases");
    // The value classes must reach both ends of the binary16 range.
    assert!(
        special > cells / 4,
        "only {special} of {cells} planes hit ±∞/NaN and subnormals"
    );
}

/// F16 padded taps add the `+0` an im2col patch entry holds. On a plane
/// whose every product underflows to `−0` (the one rounding of a tiny
/// negative sum), outputs whose window ends inside the plane read `−0`,
/// while the bottom-right one ends on padded taps, which turn the `−0`
/// sum into `+0`: a `−0` pad would keep it. (An f32 sum starts at `+0`
/// and adds rounded products, so it can never reach `−0`.)
#[test]
fn f16_padded_taps_add_positive_zero() {
    let h = |bits: u16, n: usize| TensorData::F16(vec![F16::from_bits(bits); n]);
    let x = Tensor::new(Shape::nchw(1, 1, 4, 4), h(0x8001, 16)).unwrap();
    let f = Tensor::new(Shape::oihw(1, 1, 3, 3), h(0x0001, 9)).unwrap();
    let p = Conv2dParams {
        stride: 1,
        pad: 1,
        relu: false,
    };
    let want = depthwise_im2col(&x, &f, None, &p, None);
    let got = depthwise_conv2d(&x, &f, None, &p, None).unwrap();
    assert!(got.bit_equal(&want));
    let bits: Vec<u16> = got.as_f16().unwrap().iter().map(|v| v.to_bits()).collect();
    assert_eq!((bits[0], bits[15]), (0x8000, 0x0000), "{bits:04x?}");
}

props! {
    #![cases(96)]

    /// F16 and f32 generated geometry: rectangular planes up to 40 × 80
    /// over the value classes of [`f16_inputs`].
    fn float_plane_is_bit_equal_to_im2col(
        c in 1usize..=4,
        h in 1usize..=40,
        w in 1usize..=80,
        k in select(vec![1usize, 3, 5]),
        stride in 1usize..=3,
        pad in 0usize..=2,
        zero_every in 1usize..=9,
        relu in select(vec![false, true]),
        seed in 0usize..1000,
    ) {
        let case = Case { c, h, w, k, stride, pad, zp: 0, zero_every, seed };
        prop_assume!(case.fits());
        prop_assert!(float_planes_equal_im2col(&case, relu));
    }

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
