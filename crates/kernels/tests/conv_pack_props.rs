//! `conv2d` against im2col + the naive GEMM (`tests/common/conv.rs`),
//! bit for bit, over the edge geometry of the implicit GEMM.
//!
//! The blocked GEMM reads its `B` operand from the input's padded
//! stride-phase planes: row `(ci·kh + ky)·kw + kx` is the run of phase
//! plane `(ky mod s, kx mod s)` from `(ky/s)·pitch + kx/s`, its columns
//! the output positions `oy·pitch + ox` — the `pitch − ow` columns
//! between output rows are computed and dropped. The cases below stress
//! exactly that arithmetic:
//! non-square planes, non-square kernels of 1–5, strides 1–3 (stride
//! above the kernel too), padding up to one less than the kernel, an odd
//! patch depth `K` (the K-pair layout pads it) and `K` above one panel,
//! and more output columns than one `NC` block, so a block starts in the
//! middle of an output row. Each case runs F32, F16 and QUInt8 on both
//! the scalar tiles and the host's SIMD tiles.

mod common;

use common::alloc::conv2d;
use common::conv::conv2d_im2col;
use testkit::{bools, prop_assert, prop_assume, props};
use ukernels::{out_dim, set_kernel_path, Conv2dParams, PathChoice, KC};
use utensor::{DType, QuantParams, Shape, Tensor};

fn pseudo_f32(n: usize, seed: usize) -> Vec<f32> {
    (0..n)
        .map(|i| ((((i + seed) * 2654435761) % 2000) as f32 - 1000.0) / 1000.0)
        .collect()
}

/// One convolution: `ic × h × w` input, `oc × ic × kh × kw` filters.
#[derive(Debug, Clone, Copy)]
struct Case {
    ic: usize,
    oc: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    relu: bool,
    seed: usize,
}

impl Case {
    /// Whether the window fits the padded plane.
    fn fits(&self) -> bool {
        out_dim(self.h, self.kh, self.stride, self.pad).is_some()
            && out_dim(self.w, self.kw, self.stride, self.pad).is_some()
    }

    /// The output columns `oh · ow` of the GEMM.
    fn cols(&self) -> usize {
        let oh = out_dim(self.h, self.kh, self.stride, self.pad).unwrap();
        oh * out_dim(self.w, self.kw, self.stride, self.pad).unwrap()
    }
}

/// Whether `conv2d` equals the oracle bit for bit for `case`, in every
/// dtype and on both kernel paths.
fn bit_exact(case: &Case) -> bool {
    let Case { ic, oc, h, w, .. } = *case;
    let (kh, kw) = (case.kh, case.kw);
    let input =
        Tensor::from_f32(Shape::nchw(1, ic, h, w), pseudo_f32(ic * h * w, case.seed)).unwrap();
    let filters = Tensor::from_f32(
        Shape::oihw(oc, ic, kh, kw),
        pseudo_f32(oc * ic * kh * kw, case.seed + 7),
    )
    .unwrap();
    let bias = pseudo_f32(oc, case.seed + 3);
    let p = Conv2dParams {
        stride: case.stride,
        pad: case.pad,
        relu: case.relu,
    };
    // Sums of `K` products of magnitude below 1: a grid about as wide as
    // their spread keeps most outputs off the clamps.
    let reach = ((ic * kh * kw) as f32).sqrt();
    let qp = QuantParams::from_range(-1.0, 1.0).unwrap();
    let out_qp = QuantParams::from_range(-reach, reach).unwrap();
    DType::ALL.into_iter().all(|dtype| {
        let q = (dtype == DType::QUInt8).then_some(qp);
        let (x, f) = (
            input.cast(dtype, q).unwrap(),
            filters.cast(dtype, q).unwrap(),
        );
        let out_p = (dtype == DType::QUInt8).then_some(out_qp);
        let want = conv2d_im2col(&x, &f, Some(&bias), &p, out_p);
        [PathChoice::Scalar, PathChoice::Auto]
            .into_iter()
            .all(|path| {
                let prev = set_kernel_path(path);
                let got = conv2d(&x, &f, Some(&bias), &p, out_p).unwrap();
                set_kernel_path(prev);
                got.bit_equal(&want)
            })
    })
}

props! {
    #![cases(48)]

    /// Random geometry: planes up to 25 × 25, kernels 1–5 on each side,
    /// strides 1–3, padding below the larger kernel side, up to 32
    /// input channels (`K` up to 800, odd or even).
    fn conv_equals_im2col_naive_over_pack_geometry(
        ic in 1usize..33,
        oc in 1usize..6,
        h in 1usize..26,
        w in 1usize..26,
        kh in 1usize..6,
        kw in 1usize..6,
        stride in 1usize..4,
        pad_pick in 0usize..5,
        relu in bools(),
        seed in 0usize..1000,
    ) {
        let case = Case {
            ic, oc, h, w, kh, kw, stride,
            pad: pad_pick % kh.max(kw),
            relu, seed,
        };
        prop_assume!(case.fits());
        prop_assert!(bit_exact(&case), "{case:?}");
    }
}

/// The edges the random cases reach only by luck, each named.
#[test]
fn pack_edges_are_bit_exact() {
    let case = |ic, (h, w), (kh, kw), stride, pad| Case {
        ic,
        oc: 5,
        h,
        w,
        kh,
        kw,
        stride,
        pad,
        relu: false,
        seed: ic + h + kw,
    };
    // 29 channels × 3 × 3: `K = 261`, odd and one past a panel; 17 × 19
    // outputs, so the second `NC` block starts 9 columns into row 13.
    let deep = case(29, (17, 19), (3, 3), 1, 1);
    assert!(deep.ic * 9 > KC && deep.ic * 9 % 2 == 1);
    assert!(deep.cols() > 256 && 256 % 19 != 0);
    // The first layer of SqueezeNet in miniature: 3 channels, stride 2.
    let stem = case(3, (37, 41), (3, 3), 2, 0);
    assert!(stem.cols() > 256);
    let cases = [
        deep,
        stem,
        // Stride above the kernel: columns the window skips entirely.
        case(4, (11, 16), (1, 2), 3, 0),
        case(3, (13, 9), (2, 2), 3, 1),
        // Padding of one less than the kernel: output columns whose tap
        // lies left of the plane, right of it, and (5 × 1) both.
        case(2, (6, 9), (5, 5), 1, 4),
        case(3, (5, 3), (5, 1), 2, 4),
        // Padding wider than the plane: every tap of a row in the pad.
        case(2, (2, 3), (3, 5), 1, 2),
        // One channel, one output column per row.
        case(1, (7, 1), (3, 1), 1, 1),
    ];
    for c in &cases {
        assert!(c.fits(), "{c:?}");
        assert!(bit_exact(c), "{c:?}");
    }
}

/// The junk columns: `pitch − ow` of 0, 1, 2 and 4 between output rows
/// (stride 3 with pad 2 included), each with `K > KC` and more columns
/// than one `NC` block, so a block starts in the middle of an output row
/// and a `K` panel boundary falls inside it. All three dtypes, both
/// paths.
#[test]
fn junk_columns_are_dropped_bit_exactly() {
    // (channels, plane, kernel, stride, pad, pitch − ow)
    let cases = [
        // 1×1: the plane is the matrix, no junk.
        (300, (17, 19), (1, 1), 1, 0, 0),
        // Stride 2: the phase planes' pitch is one more than the row.
        (30, (39, 42), (3, 3), 2, 0, 1),
        // Stride 3 with pad 2.
        (29, (50, 52), (3, 3), 3, 2, 1),
        // Padded 3 × 3, and unpadded (the input is its own plane).
        (29, (19, 23), (3, 3), 1, 1, 2),
        (29, (20, 22), (3, 3), 1, 0, 2),
        (90, (19, 21), (1, 3), 1, 0, 2),
        // Wide windows: four junk columns per row.
        (14, (21, 25), (5, 5), 1, 2, 4),
        (18, (37, 41), (3, 5), 1, 0, 4),
    ];
    for (ic, (h, w), (kh, kw), stride, pad, junk) in cases {
        let c = Case {
            ic,
            oc: 7,
            h,
            w,
            kh,
            kw,
            stride,
            pad,
            relu: ic % 2 == 0,
            seed: ic + w,
        };
        let ow = out_dim(w, kw, stride, pad).unwrap();
        let pitch = (w + 2 * pad).div_ceil(stride);
        assert_eq!(pitch - ow, junk, "{c:?}");
        assert!(ic * kh * kw > KC, "{c:?}: K within one panel");
        assert!(c.cols() > 256, "{c:?}: one NC block");
        assert!(bit_exact(&c), "{c:?}");
    }
}
