//! Kernel-equivalence differential harness.
//!
//! Every *registered fast path* — each `op/dtype/path` key that
//! [`ukernels::registered_fast_paths`] reports for this host — must have
//! a differential cell here that pins it to an oracle in `tests/common`
//! (the naive GEMM loops, the per-channel im2col depthwise body, the
//! im2col + naive GEMM convolution, the windowed pooling loop). The
//! completeness test at the bottom fails the suite if a new fast path
//! registers itself without a cell, so a kernel cannot land unpinned.
//!
//! The table is three-dimensional: every cell runs under thread counts
//! {1, 2, 4} (the kernels are dispatched per-thread; concurrent workers
//! must not perturb each other's numerics) and under its key's own tier
//! cap — the scalar tiles, then every SIMD tier the host has, so an
//! AVX-512 host runs its AVX2 bodies here too.
//!
//! Equivalence contract: **bit-identical, always.**
//! - GEMMs, all three dtypes, at every depth: a tile continues `C`'s
//!   running sums across `K` panels, so each element keeps the naive
//!   loop's single ascending chain (f32 `acc += a * b`, F16 per-MAC
//!   rounding, QUInt8 `i32`);
//! - conv fast paths (direct depthwise / pointwise): equal to the im2col
//!   reference for all three dtypes;
//! - row-wise QUInt8 pooling: equal to the windowed loop
//!   (`common::pool2d_windowed`);
//! - the slice converters of `utensor::convert` (tables from QUInt8, the
//!   vector quantizers, the F16C widening / narrowing): equal to the
//!   scalar definitions. No kernel path governs them, so their cells run
//!   once per thread count.
//!
//! Seeded shape ladders cover the historical trouble spots: odd
//! channels, stride 2, padding, 1×1 kernels, single-channel layers, and
//! `K % KC != 0` remainder panels up to 18 panels deep — and the
//! remainders of the wide SIMD tiles of every tier: panel depths off the
//! K step (the K-pair and K-quad zero pads), `k = 1`, `k % KC` of 1 and
//! `KC − 1`, `n % w` of 1 and `w − 1` for `w` 16, 32 and 64, `m` off the
//! 4- and 8-row tiles; depthwise planes narrower than the window, single
//! rows and single columns, and strips longer than one 32-lane F16
//! vector. The QUInt8 zero points these tables draw sit near 128;
//! `tests/quint8_zero_points.rs` sweeps them. The
//! randomized section at the bottom adds shrinking on top. The tile
//! bodies a host's tier does not run are held to the scalar tile by the
//! `simd` unit tests.

mod common;

use std::thread;

use common::alloc::{conv2d, depthwise_conv2d, pool2d};
use common::conv::{conv2d_im2col, depthwise_im2col};
use common::gemm::{gemm_f16, gemm_f32, gemm_quint8};
use testkit::{bools, prop_assert, prop_assume, props, select};
use ukernels::{gemm_f16_blocked, gemm_f32_blocked, gemm_quint8_blocked, KC, KERNEL_PATHS};
use ukernels::{
    out_dim, registered_fast_paths, set_kernel_path, simd_tier, Conv2dParams, PathChoice, PoolKind,
    PoolParams, ScratchArena, SimdTier,
};
use utensor::{requantize, requantize_into};
use utensor::{DType, FixedPointMultiplier, QuantParams, Shape, Tensor, F16};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Every `op/dtype/impl` key this harness pins. The completeness test
/// requires `registered_fast_paths() ⊆ COVERED`.
const COVERED: &[&str] = &[
    "gemm/f32/scalar",
    "gemm/f32/avx2",
    "gemm/f16/scalar",
    "gemm/f16/avx512fp16",
    "gemm/quint8/scalar",
    "gemm/quint8/avx2",
    "gemm/quint8/avx512",
    "depthwise/f32/scalar",
    "depthwise/f16/scalar",
    "depthwise/f16/avx2",
    "depthwise/f16/avx512fp16",
    "depthwise/quint8/scalar",
    "depthwise/quint8/avx2",
    "depthwise/quint8/avx512",
    "pointwise/f32/scalar",
    "pointwise/f32/avx2",
    "pointwise/f16/scalar",
    "pointwise/f16/avx512fp16",
    "pointwise/quint8/scalar",
    "pointwise/quint8/avx2",
    "pointwise/quint8/avx512",
    "requantize/quint8/simd",
    "pool/quint8/scalar",
    "pool/quint8/avx512",
    "convert/quint8/table",
    "convert/to-quint8/simd",
    "convert/f16/simd",
];

fn pseudo_f32(n: usize, seed: usize) -> Vec<f32> {
    (0..n)
        .map(|i| ((((i + seed) * 2654435761) % 2000) as f32 - 1000.0) / 1000.0)
        .collect()
}

fn pseudo_u8(n: usize, seed: usize) -> Vec<u8> {
    (0..n).map(|i| (((i + seed) * 48271) % 256) as u8).collect()
}

/// Runs `f` on `tc` fresh threads, each capped at `tier` — exactly how
/// a `uexec` worker pool configures its workers — and returns every
/// thread's result.
fn on_threads<T: Send>(tc: usize, tier: SimdTier, f: impl Fn() -> T + Sync) -> Vec<T> {
    thread::scope(|s| {
        let handles: Vec<_> = (0..tc)
            .map(|_| {
                s.spawn(|| {
                    set_kernel_path(tier);
                    f()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// GEMM shape ladder: in-panel shapes plus multi-panel ones, from
/// `KC + 1` to 18 panels deep (`k = 4608`, a 3 × 3 × 512 layer). Between
/// them: odd and unit `k`, `k % KC` of 0, 1 and `KC − 1`, `n % w` of 1
/// and `w − 1` for `w` 16, 32 and 64, and `m` off 4 and 8 — every
/// remainder of the 4 × 16 and 8 × 32 tiles.
const GEMM_SHAPES: [(usize, usize, usize); 14] = [
    (1, 1, 1),
    (3, 7, 5),
    (4, 8, 8),
    (5, 255, 9),
    (13, KC + 7, 21),
    (2, 1, 33),
    (9, 3, 15),
    (6, KC + 1, 17),
    (7, 2 * KC - 1, 31),
    (5, 3, 63),
    (6, KC - 1, 65),
    (3, 3 * KC, 7),
    (5, 1000, 17),
    (2, 4608, 9),
];

fn gemm_cell_f32(tier: SimdTier, tc: usize) {
    for (case, &(m, k, n)) in GEMM_SHAPES.iter().enumerate() {
        let relu = case % 2 == 1;
        let a = pseudo_f32(m * k, case);
        let b = pseudo_f32(k * n, case + 7);
        let bias = pseudo_f32(m, case + 13);
        let want = gemm_f32(m, k, n, &a, &b, Some(&bias), relu);
        for got in on_threads(tc, tier, || {
            let mut got = vec![0.0f32; m * n];
            let mut arena = ScratchArena::default();
            gemm_f32_blocked(&mut got, m, k, n, &a, &b, Some(&bias), relu, &mut arena);
            got
        }) {
            let same = got
                .iter()
                .zip(&want)
                .all(|(g, w)| g.to_bits() == w.to_bits());
            assert!(same, "f32 {tier:?} tc={tc} m={m} k={k} n={n} not bit-equal");
        }
    }
}

fn gemm_cell_f16(tier: SimdTier, tc: usize) {
    for (case, &(m, k, n)) in GEMM_SHAPES.iter().enumerate() {
        let a: Vec<F16> = pseudo_f32(m * k, case)
            .iter()
            .map(|&v| F16::from_f32(v))
            .collect();
        let b: Vec<F16> = pseudo_f32(k * n, case + 3)
            .iter()
            .map(|&v| F16::from_f32(v))
            .collect();
        let relu = case % 2 == 1;
        let bias = pseudo_f32(m, case + 5);
        let want = gemm_f16(m, k, n, &a, &b, Some(&bias), relu);
        for got in on_threads(tc, tier, || {
            let mut got = vec![F16::ZERO; m * n];
            let mut arena = ScratchArena::default();
            gemm_f16_blocked(&mut got, m, k, n, &a, &b, Some(&bias), relu, &mut arena);
            got
        }) {
            let same = got
                .iter()
                .zip(&want)
                .all(|(g, w)| g.to_bits() == w.to_bits());
            assert!(same, "f16 {tier:?} tc={tc} m={m} k={k} n={n} not bit-equal");
        }
    }
}

fn gemm_cell_quint8(tier: SimdTier, tc: usize) {
    for (case, &(m, k, n)) in GEMM_SHAPES.iter().enumerate() {
        let relu = case % 2 == 0;
        let a = pseudo_u8(m * k, case);
        let b = pseudo_u8(k * n, case + 11);
        let a_p = QuantParams::from_range(-1.0, 1.0).unwrap();
        let b_p = QuantParams::from_range(-3.0, 2.0).unwrap();
        let out_p = QuantParams::from_range(-60.0, 60.0).unwrap();
        let bias = pseudo_f32(m, case + 17);
        let want = gemm_quint8(m, k, n, &a, a_p, &b, b_p, Some(&bias), out_p, relu).unwrap();
        for got in on_threads(tc, tier, || {
            let mut got = vec![0u8; m * n];
            let mut arena = ScratchArena::default();
            gemm_quint8_blocked(
                &mut got,
                m,
                k,
                n,
                &a,
                a_p,
                &b,
                b_p,
                Some(&bias),
                out_p,
                relu,
                &mut arena,
            )
            .unwrap();
            got
        }) {
            // QUInt8 is bit-identical for every shape, no exceptions.
            assert!(got == want, "quint8 {tier:?} tc={tc} m={m} k={k} n={n}");
        }
    }
}

/// Depthwise shape ladder: (c, h, w, k, stride, pad) hitting odd and
/// single channels, stride 2, padding, and 1×1 windows.
const DW_SHAPES: [(usize, usize, usize, usize, usize, usize); 5] = [
    (3, 6, 6, 3, 1, 1),
    (1, 5, 7, 3, 2, 0),
    (5, 9, 9, 5, 2, 2),
    (4, 4, 4, 1, 1, 0),
    (7, 8, 5, 3, 2, 1),
];

/// [`DW_SHAPES`] plus the full window ladder `k ∈ {1,3,5}` × stride
/// `∈ {1,2,3}` × pad `∈ {0,1,2}` over planes that stress the QUInt8
/// plane forms' padding and pitch: a plain one, a single row, a single
/// column, one narrower than the window (kept wherever the padded window
/// fits), and one whose rows span several 32-lane F16 steps.
fn dw_shapes() -> Vec<(usize, usize, usize, usize, usize, usize)> {
    let mut shapes = DW_SHAPES.to_vec();
    for k in [1, 3, 5] {
        for stride in [1, 2, 3] {
            for pad in [0, 1, 2] {
                for (h, w) in [(6, 7), (1, 9), (9, 1), (2, 2), (3, 70)] {
                    if out_dim(h, k, stride, pad).is_some() && out_dim(w, k, stride, pad).is_some()
                    {
                        shapes.push((2, h, w, k, stride, pad));
                    }
                }
            }
        }
    }
    shapes
}

fn depthwise_cell(dtype: DType, tier: SimdTier, tc: usize) {
    for (case, &(c, h, w, k, stride, pad)) in dw_shapes().iter().enumerate() {
        let relu = case % 2 == 0;
        let qp = QuantParams::from_range(-1.0, 1.0).unwrap();
        let out_qp = QuantParams::from_range(-4.0, 4.0).unwrap();
        let mut input =
            Tensor::from_f32(Shape::nchw(1, c, h, w), pseudo_f32(c * h * w, case)).unwrap();
        let mut filters =
            Tensor::from_f32(Shape::oihw(c, 1, k, k), pseudo_f32(c * k * k, case + 5)).unwrap();
        if dtype != DType::F32 {
            input = input
                .cast(dtype, (dtype == DType::QUInt8).then_some(qp))
                .unwrap();
            filters = filters
                .cast(dtype, (dtype == DType::QUInt8).then_some(qp))
                .unwrap();
        }
        let bias = pseudo_f32(c, case + 9);
        let p = Conv2dParams { stride, pad, relu };
        let out_p = (dtype == DType::QUInt8).then_some(out_qp);
        let want = depthwise_im2col(&input, &filters, Some(&bias), &p, out_p);
        for got in on_threads(tc, tier, || {
            depthwise_conv2d(&input, &filters, Some(&bias), &p, out_p).unwrap()
        }) {
            assert!(
                got.bit_equal(&want),
                "depthwise {dtype:?} {tier:?} tc={tc} c={c} k={k} s={stride} p={pad}"
            );
        }
    }
}

/// Pointwise shape ladder: (ic, oc, h, w) hitting odd and single
/// channels.
const PW_SHAPES: [(usize, usize, usize, usize); 4] =
    [(3, 5, 6, 6), (1, 1, 4, 7), (8, 3, 5, 5), (5, 11, 3, 3)];

fn pointwise_cell(dtype: DType, tier: SimdTier, tc: usize) {
    for (case, &(ic, oc, h, w)) in PW_SHAPES.iter().enumerate() {
        let relu = case % 2 == 1;
        let qp = QuantParams::from_range(-1.0, 1.0).unwrap();
        let out_qp = QuantParams::from_range(-8.0, 8.0).unwrap();
        let mut input =
            Tensor::from_f32(Shape::nchw(1, ic, h, w), pseudo_f32(ic * h * w, case)).unwrap();
        let mut filters =
            Tensor::from_f32(Shape::oihw(oc, ic, 1, 1), pseudo_f32(oc * ic, case + 3)).unwrap();
        if dtype != DType::F32 {
            input = input
                .cast(dtype, (dtype == DType::QUInt8).then_some(qp))
                .unwrap();
            filters = filters
                .cast(dtype, (dtype == DType::QUInt8).then_some(qp))
                .unwrap();
        }
        let bias = pseudo_f32(oc, case + 7);
        let p = Conv2dParams {
            stride: 1,
            pad: 0,
            relu,
        };
        let out_p = (dtype == DType::QUInt8).then_some(out_qp);
        let want = conv2d_im2col(&input, &filters, Some(&bias), &p, out_p);
        for got in on_threads(tc, tier, || {
            conv2d(&input, &filters, Some(&bias), &p, out_p).unwrap()
        }) {
            assert!(
                got.bit_equal(&want),
                "pointwise {dtype:?} {tier:?} tc={tc} ic={ic} oc={oc}"
            );
        }
    }
}

/// The slice requantizer (vector body where the host has one) against
/// the scalar definition: right-shift multipliers across the shift range
/// plus the left-shift form, zero points at and between the rails, with
/// and without ReLU, over accumulators of every magnitude and a length
/// that leaves a tail.
fn requantize_cell(tc: usize) {
    let acc: Vec<i32> = (0..83usize)
        .map(|i| {
            let wide = (i as i64 * 2654435761 + 12345) * 40503 % (1 << 32) - (1 << 31);
            (wide >> (i % 29)) as i32
        })
        .chain([i32::MIN, i32::MAX, 0, -1, 1])
        .collect();
    for got_all in on_threads(tc, simd_tier(), || {
        let mut outs = Vec::new();
        for real in [1e-7, 0.003, 0.25, 0.499, 0.73, 0.999_999, 1.0, 2.5] {
            let m = FixedPointMultiplier::from_real(real).unwrap();
            for zp in [0u8, 3, 128, 255] {
                for relu in [false, true] {
                    let bias = (real * 1e6) as i32 - zp as i32;
                    let mut got = vec![0u8; acc.len()];
                    requantize_into(&mut got, &acc, bias, &m, zp, relu);
                    let want: Vec<u8> = acc
                        .iter()
                        .map(|&a| {
                            let q = requantize(a.wrapping_add(bias), &m, zp);
                            q.max(if relu { zp } else { 0 })
                        })
                        .collect();
                    outs.push((got == want, real, zp, relu));
                }
            }
        }
        outs
    }) {
        for (same, real, zp, relu) in got_all {
            assert!(same, "requantize tc={tc} real={real} zp={zp} relu={relu}");
        }
    }
}

/// Row-wise QUInt8 pooling (rows reduced before columns, the interior
/// specialised for 2- and 3-wide windows) against the windowed loop it
/// replaced, on SqueezeNet's pool geometry and the awkward ones: planes
/// narrower than the window, single rows and columns, strides above the
/// window side, windows wholly inside the padding.
fn pool_cell(tier: SimdTier, tc: usize) {
    let cases = [
        (13usize, 13usize, 3usize, 2usize, 0usize),
        (27, 27, 3, 2, 0),
        (33, 31, 3, 2, 1),
        (8, 9, 2, 2, 0),
        (5, 1, 3, 1, 1),
        (1, 6, 2, 3, 2),
        (2, 2, 5, 1, 2),
        (9, 7, 1, 3, 2),
        (12, 17, 4, 3, 1),
    ];
    for got_all in on_threads(tc, tier, || {
        let mut outs = Vec::new();
        for (case, &(h, w, k, stride, pad)) in cases.iter().enumerate() {
            let input = common::pool_input(Shape::nchw(2, 3, h, w), DType::QUInt8, case);
            for kind in [PoolKind::Max, PoolKind::Avg] {
                let p = PoolParams {
                    kind,
                    k,
                    stride,
                    pad,
                };
                let same = pool2d(&input, &p)
                    .unwrap()
                    .bit_equal(&common::pool2d_windowed(&input, &p));
                outs.push((same, h, w, p));
            }
        }
        outs
    }) {
        for (same, h, w, p) in got_all {
            assert!(same, "pool {tier:?} tc={tc} {h}x{w} {p:?}");
        }
    }
}

/// A parameter ladder for the converter cells: calibrated ranges, the
/// zero-point rails, a tiny and a huge scale.
fn convert_params() -> Vec<QuantParams> {
    let mut ladder = vec![
        QuantParams::default(),
        QuantParams::from_range(-3.0, 9.0).unwrap(),
        QuantParams::from_range(-60_000.0, 60_000.0).unwrap(),
    ];
    for scale in [4e-6f32, 0.05, 1e3] {
        for zero_point in [0u8, 128, 255] {
            ladder.push(QuantParams { scale, zero_point });
        }
    }
    ladder
}

/// Runs `check` (a list of (passed, label) results) on `tc` workers.
fn convert_cell(tc: usize, check: impl Fn() -> Vec<(bool, String)> + Sync) {
    for results in on_threads(tc, simd_tier(), &check) {
        for (same, what) in results {
            assert!(same, "convert tc={tc}: {what}");
        }
    }
}

/// The table converters from QUInt8 (every code, both above and below
/// the table threshold) against the scalar definitions.
fn convert_table_cell(tc: usize) {
    let codes: Vec<u8> = (0..600).map(|i| (i % 256) as u8).collect();
    convert_cell(tc, || {
        let mut results = Vec::new();
        for len in [0usize, 9, 255, 256, 600] {
            let src = &codes[..len];
            for from in convert_params() {
                let mut f = vec![0.0f32; len];
                utensor::quint8_to_f32(&mut f, src, from);
                let same = f
                    .iter()
                    .zip(src)
                    .all(|(g, &q)| g.to_bits() == from.dequantize(q).to_bits());
                results.push((same, format!("quint8 -> f32 {from:?} len {len}")));
                let mut h = vec![F16::ZERO; len];
                utensor::quint8_to_f16(&mut h, src, from);
                let same = h
                    .iter()
                    .zip(src)
                    .all(|(g, &q)| g.to_bits() == F16::from_f32(from.dequantize(q)).to_bits());
                results.push((same, format!("quint8 -> f16 {from:?} len {len}")));
                for to in convert_params() {
                    let mut q8 = vec![0u8; len];
                    utensor::quint8_to_quint8(&mut q8, src, from, to);
                    let same = q8.iter().zip(src).all(|(&g, &q)| {
                        g == if from == to {
                            q
                        } else {
                            to.quantize(from.dequantize(q))
                        }
                    });
                    results.push((same, format!("quint8 {from:?} -> {to:?} len {len}")));
                }
            }
        }
        results
    });
}

/// Every binary16 pattern.
fn all_f16() -> Vec<F16> {
    (0..=u16::MAX).map(F16::from_bits).collect()
}

/// f32 values around the quantizer's decisions: ties on both sides of
/// zero and their neighbours, the rails, non-finite values.
fn quantizer_f32(params: QuantParams) -> Vec<f32> {
    let mut v: Vec<f32> = (-600..=600)
        .flat_map(|i| {
            let x = i as f32 * 0.5 * params.scale;
            [
                x,
                f32::from_bits(x.to_bits() + 1),
                f32::from_bits(x.to_bits().wrapping_sub(1)),
            ]
        })
        .collect();
    v.extend([
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MAX,
        f32::MIN,
        -0.0,
        1e-40,
        (1u32 << 24) as f32 * params.scale,
    ]);
    v.extend(pseudo_f32(257, 3).iter().map(|x| x * 300.0 * params.scale));
    v
}

/// The vector quantizers (f32 and F16 sources) against
/// `QuantParams::quantize`, tails included.
fn convert_to_quint8_cell(tc: usize) {
    let halves = all_f16();
    convert_cell(tc, || {
        let mut results = Vec::new();
        for params in convert_params() {
            let reals = quantizer_f32(params);
            for cut in [0usize, 1, 7] {
                let src = &reals[cut..];
                let mut got = vec![0u8; src.len()];
                utensor::f32_to_quint8(&mut got, src, params);
                let same = got.iter().zip(src).all(|(&g, &x)| g == params.quantize(x));
                results.push((same, format!("f32 -> quint8 {params:?} from {cut}")));
                let src = &halves[cut..];
                let mut got = vec![0u8; src.len()];
                utensor::f16_to_quint8(&mut got, src, params);
                let same = got
                    .iter()
                    .zip(src)
                    .all(|(&g, h)| g == params.quantize(h.to_f32()));
                results.push((same, format!("f16 -> quint8 {params:?} from {cut}")));
            }
        }
        results
    });
}

/// The F16C widening and narrowing against the software conversions,
/// NaN bits included.
fn convert_f16_cell(tc: usize) {
    let halves = all_f16();
    convert_cell(tc, || {
        let mut results = Vec::new();
        for cut in [0usize, 3, 8] {
            let src = &halves[cut..];
            let mut wide = vec![0.0f32; src.len()];
            utensor::f16_to_f32(&mut wide, src);
            let same = wide
                .iter()
                .zip(src)
                .all(|(g, h)| g.to_bits() == h.to_f32().to_bits());
            results.push((same, format!("f16 -> f32 from {cut}")));
            // Every binary16 value, the midpoints between neighbours and
            // their neighbours, then NaNs with payloads.
            let reals: Vec<f32> = wide
                .iter()
                .flat_map(|x| {
                    [0u32, 0x0FFF, 0x1000, 0x1001].map(|d| f32::from_bits(x.to_bits() + d))
                })
                .chain([0x7FC0_0001, 0x7F80_0001, 0xFFFF_FFFF].map(f32::from_bits))
                .collect();
            let mut narrow = vec![F16::ZERO; reals.len()];
            utensor::f32_to_f16(&mut narrow, &reals);
            let same = narrow
                .iter()
                .zip(&reals)
                .all(|(g, &x)| g.to_bits() == F16::from_f32(x).to_bits());
            results.push((same, format!("f32 -> f16 from {cut}")));
        }
        results
    });
}

/// The tier cap a key's kernel path names.
fn cap(path: &str) -> SimdTier {
    match PathChoice::parse(path) {
        Some(PathChoice::Cap(tier)) => tier,
        _ => panic!("{path} is not a tier's kernel path"),
    }
}

/// Runs the cell that pins `key` under its own tier cap; panics on an
/// unknown key so a typo in [`COVERED`] cannot silently cover nothing.
fn run_cell(key: &str, tc: usize) {
    match key.rsplit_once('/').expect("an op/dtype/path key") {
        ("gemm/f32", path) => gemm_cell_f32(cap(path), tc),
        ("gemm/f16", path) => gemm_cell_f16(cap(path), tc),
        ("gemm/quint8", path) => gemm_cell_quint8(cap(path), tc),
        ("depthwise/f32", path) => depthwise_cell(DType::F32, cap(path), tc),
        ("depthwise/f16", path) => depthwise_cell(DType::F16, cap(path), tc),
        ("depthwise/quint8", path) => depthwise_cell(DType::QUInt8, cap(path), tc),
        ("pointwise/f32", path) => pointwise_cell(DType::F32, cap(path), tc),
        ("pointwise/f16", path) => pointwise_cell(DType::F16, cap(path), tc),
        ("pointwise/quint8", path) => pointwise_cell(DType::QUInt8, cap(path), tc),
        ("pool/quint8", path) => pool_cell(cap(path), tc),
        ("requantize/quint8", "simd") => requantize_cell(tc),
        ("convert/quint8", "table") => convert_table_cell(tc),
        ("convert/to-quint8", "simd") => convert_to_quint8_cell(tc),
        ("convert/f16", "simd") => convert_f16_cell(tc),
        _ => panic!("no equivalence cell for fast path {key}"),
    }
}

/// The gate: a fast path that registers itself without a differential
/// cell fails CI on every host that exposes it.
#[test]
fn every_registered_fast_path_has_an_equivalence_cell() {
    for key in registered_fast_paths() {
        assert!(
            COVERED.contains(&key),
            "registered fast path {key} has no equivalence cell — add one to tests/equivalence.rs"
        );
    }
}

/// The full table: every path this host registers, under its own tier
/// cap, at every thread count.
#[test]
fn equivalence_table_all_cells_all_thread_counts() {
    for key in registered_fast_paths() {
        for tc in THREAD_COUNTS {
            run_cell(key, tc);
        }
    }
}

/// `UKERNELS_KERNEL_PATH` is how ci.sh caps each of its kernel passes at
/// one tier, and `PathChoice::from_env` reads anything it cannot parse
/// as `auto`: a misspelled pass would quietly run the widest tier. ci.sh
/// runs this target in every kernel-path pass.
#[test]
fn kernel_path_env_names_a_valid_choice() {
    if let Ok(value) = std::env::var("UKERNELS_KERNEL_PATH") {
        assert!(
            PathChoice::parse(&value).is_some(),
            "UKERNELS_KERNEL_PATH={value:?} is not one of {}",
            KERNEL_PATHS.join(", ")
        );
    }
}

/// Every tier the host has registers paths, and no other tier does, so
/// the table runs the host's narrower tiers' bodies too: the AVX2 QUInt8
/// GEMM tile and depthwise strip on an AVX-512 host.
#[test]
fn tier_registration_matches_detection() {
    let paths = registered_fast_paths();
    for tier in SimdTier::ALL {
        let suffix = format!("/{}", tier.as_str());
        let registered = paths.iter().any(|key| key.ends_with(&suffix));
        assert_eq!(registered, tier <= simd_tier(), "{tier:?}");
    }
    for key in ["gemm/quint8/avx2", "depthwise/quint8/avx2"] {
        assert_eq!(paths.contains(&key), simd_tier() >= SimdTier::Avx2, "{key}");
    }
    assert!(paths.contains(&"depthwise/quint8/scalar"));
}

props! {
    #![cases(24)]

    /// Randomized (shrinking) differential: the blocked GEMM under a
    /// random tier the host has and two concurrent workers stays
    /// bit-equal to the naive reference, in one panel and across several.
    fn random_gemm_shapes_agree_across_paths(
        m in 1usize..16,
        k_small in 1usize..64,
        panels in 0usize..3,
        n in 1usize..16,
        tier in select(common::host_tiers().collect()),
        relu in bools(),
        seed in 0usize..1000,
    ) {
        let k = panels * KC + k_small;
        let a = pseudo_f32(m * k, seed);
        let b = pseudo_f32(k * n, seed + 7);
        let want = gemm_f32(m, k, n, &a, &b, None, relu);
        for got in on_threads(2, tier, || {
            let mut got = vec![0.0f32; m * n];
            let mut arena = ScratchArena::default();
            gemm_f32_blocked(&mut got, m, k, n, &a, &b, None, relu, &mut arena);
            got
        }) {
            prop_assert!(got.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits()));
        }
    }

    /// Randomized (shrinking) differential for the QUInt8 tile: bit
    /// identity must hold for any shape, including multi-panel K.
    fn random_quint8_shapes_bit_identical(
        m in 1usize..12,
        k_small in 1usize..48,
        multi_panel in bools(),
        n in 1usize..12,
        tier in select(common::host_tiers().collect()),
        seed in 0usize..1000,
    ) {
        prop_assume!(m * n > 0);
        let k = if multi_panel { KC + k_small } else { k_small };
        let a = pseudo_u8(m * k, seed);
        let b = pseudo_u8(k * n, seed + 11);
        let a_p = QuantParams::from_range(-1.0, 1.0).unwrap();
        let b_p = QuantParams::from_range(-2.0, 2.0).unwrap();
        let out_p = QuantParams::from_range(-70.0, 70.0).unwrap();
        let want = gemm_quint8(m, k, n, &a, a_p, &b, b_p, None, out_p, false).unwrap();
        for got in on_threads(2, tier, || {
            let mut got = vec![0u8; m * n];
            let mut arena = ScratchArena::default();
            gemm_quint8_blocked(&mut got, m, k, n, &a, a_p, &b, b_p, None, out_p, false, &mut arena)
                .unwrap();
            got
        }) {
            prop_assert!(got == want);
        }
    }
}
