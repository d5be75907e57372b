//! 2-D convolution and the GEMM-layer body it shares with FC layers.
//!
//! Convolution is one blocked GEMM of [`crate::blocked`] per batch
//! element, as ACL/gemmlowp execute it on the paper's SoCs — but no
//! im2col patch matrix, and no block of patches, is ever built: the
//! GEMM is implicit over the input's **stride-phase planes**. The input
//! is laid out once per call, padded with what a padded patch entry
//! holds and split by the stride `s` into `s²` phase planes per channel
//! ([`PlaneGeom`]); then tap `(ky, kx)` of every output position is one
//! run of phase plane `(ky mod s, kx mod s)`, so each row of the GEMM's
//! `B` operand is a run of the planes, read in place by the panel pack
//! (`blocked::GemmB`). The runs are `(oh − 1)·pitch + ow` long in the
//! planes' pitch; the `pitch − ow` columns between output rows are
//! computed and dropped. A stride-1 unpadded input is its own phase
//! plane; 1×1 stride-1 unpadded layers hand the plane over as the matrix
//! itself ([`crate::pointwise`]); depthwise layers run their own direct
//! kernel over the same phase planes ([`crate::depthwise`]). The test
//! suites hold all of them to the naive loops kept in `tests/common`.
//!
//! Channel-wise workload distribution (§3.2) does not need special kernel
//! support: the executor narrows the filter view to a part's output
//! channels (axis 0) and calls the same [`conv2d`] with that part's
//! channel range of the layer's output as `out`.

use utensor::{Shape, TensorError, TensorView, TensorViewMut, ViewData, ViewDataMut, F16};

use crate::blocked::{gemm_f16, gemm_f32, gemm_quint8, GemmB};
use crate::dispatch::active_tier;
use crate::out_dim;
use crate::pointwise::is_pointwise;
use crate::simd::{self, SimdTier};

/// Geometry and fusion options of a convolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conv2dParams {
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Symmetric zero padding in both spatial dimensions.
    pub pad: usize,
    /// Fused ReLU on the output.
    pub relu: bool,
}

impl Conv2dParams {
    /// A unit-stride, unpadded convolution without ReLU.
    pub fn unit() -> Conv2dParams {
        Conv2dParams {
            stride: 1,
            pad: 0,
            relu: false,
        }
    }
}

/// The stride-phase planes of a convolution's `h × w` input planes. A
/// plane padded by `pad` on each side and split by the stride `s` gives
/// `s²` phase planes: phase `(py, px)` holds the padded rows `≡ py` and
/// columns `≡ px` (mod `s`), each `pitch = ⌈(w + 2·pad)/s⌉` wide and
/// `phase_len` long. Output `(oy, ox)`'s tap `(ky, kx)` is element
/// `(oy + ky/s, ox + kx/s)` of phase `(ky mod s, kx mod s)`, so in the
/// pitch consecutive outputs read consecutive inputs at any stride.
#[derive(Clone, Copy)]
pub(crate) struct PlaneGeom {
    pub(crate) h: usize,
    pub(crate) w: usize,
    pub(crate) oh: usize,
    pub(crate) ow: usize,
    pub(crate) kh: usize,
    pub(crate) kw: usize,
    pub(crate) stride: usize,
    pub(crate) pad: usize,
    pub(crate) pitch: usize,
    pub(crate) phase_len: usize,
}

/// The elements a phase plane holds. At stride 2 a `u8` plane at least
/// [`VECTOR_SPLIT_W`] wide is split into its column phases at vector
/// width on the AVX-512 tiers; every other plane is laid by the row loop
/// of [`PlaneGeom::lay`].
pub(crate) trait PlaneElem: Copy {
    /// Lays `src` into the phase planes `dst` as [`PlaneGeom::lay`]
    /// does, at stride 2 with `vector` set and a vector body for the
    /// element; returns whether it did.
    fn lay_vector(g: &PlaneGeom, src: &[Self], dst: &mut [Self], vector: bool) -> bool {
        let _ = (g, src, dst, vector);
        false
    }
}

/// The narrowest `u8` rows split at vector width: a narrower row's two
/// phases are shorter than a vector, and the row loop laid MobileNet's
/// 28- and 14-wide stride-2 planes faster (1.3× and 2.2× in isolation),
/// while the vector split won on its 112- and 56-wide ones.
const VECTOR_SPLIT_W: usize = 32;

impl PlaneElem for f32 {}
impl PlaneElem for F16 {}
impl PlaneElem for u8 {
    fn lay_vector(g: &PlaneGeom, src: &[u8], dst: &mut [u8], vector: bool) -> bool {
        #[cfg(target_arch = "x86_64")]
        if vector && g.stride == 2 && g.w >= VECTOR_SPLIT_W {
            // The even columns, then the odd ones, of every row.
            for (x, len) in [(0, g.w.div_ceil(2)), (1, g.w / 2)] {
                let at = |y| g.at(y, x);
                let out = (&mut *dst, at, false);
                simd::max_taps_s2(src, (g.w, g.h), |y| y..y + 1, (x, 1, len), out);
            }
            return true;
        }
        let _ = (g, src, dst, vector);
        false
    }
}

impl PlaneGeom {
    /// The geometry of a `kh × kw` window at `stride` and `pad` over `h
    /// × w` planes into `oh × ow` outputs.
    pub(crate) fn new(
        (h, w): (usize, usize),
        (kh, kw): (usize, usize),
        (stride, pad): (usize, usize),
        (oh, ow): (usize, usize),
    ) -> PlaneGeom {
        let pitch = (w + 2 * pad).div_ceil(stride);
        PlaneGeom {
            h,
            w,
            oh,
            ow,
            kh,
            kw,
            stride,
            pad,
            pitch,
            phase_len: (h + 2 * pad).div_ceil(stride) * pitch,
        }
    }

    /// Elements of one channel's `s²` phase planes.
    pub(crate) fn channel_len(&self) -> usize {
        self.stride * self.stride * self.phase_len
    }

    /// Whether the input plane is its own (only) phase plane.
    fn in_place(&self) -> bool {
        self.stride == 1 && self.pad == 0
    }

    /// Where input `(y, x)` lands in its channel's phase planes: padded
    /// `(y + pad, x + pad)`, so phase `((y + pad) mod s, (x + pad) mod
    /// s)`, element `((y + pad)/s, (x + pad)/s)`.
    pub(crate) fn at(&self, y: usize, x: usize) -> usize {
        let (y, x) = (y + self.pad, x + self.pad);
        // No division at the strides the networks use: this runs per row.
        let (py, qy, px, qx) = match self.stride {
            1 => (0, y, 0, x),
            2 => (y & 1, y >> 1, x & 1, x >> 1),
            s => (y % s, y / s, x % s, x / s),
        };
        (py * self.stride + px) * self.phase_len + qy * self.pitch + qx
    }

    /// Writes one `h × w` input plane — the first `h·w` elements of `src`
    /// — into the interior of its channel's phase planes `dst` (the
    /// border is the caller's), input `(y, x)` to [`at`](Self::at). A row
    /// is one copy at stride 1 and one split into its two column phases
    /// at stride 2 (with `vector`, a wide enough `u8` plane is split at
    /// vector width, whose reads may run on past the plane into the rest
    /// of `src`, the tensor's next planes, instead of being staged).
    pub(crate) fn lay<T: PlaneElem>(&self, src: &[T], dst: &mut [T], vector: bool) {
        if T::lay_vector(self, src, dst, vector) {
            return;
        }
        let w = self.w;
        for (y, row) in src[..self.h * w].chunks_exact(w).enumerate() {
            match self.stride {
                1 => dst[self.at(y, 0)..][..w].copy_from_slice(row),
                2 => {
                    let (e, o) = (self.at(y, 0), self.at(y, 1));
                    let Ok([even, odd]) =
                        dst.get_disjoint_mut([e..e + w.div_ceil(2), o..o + w / 2])
                    else {
                        unreachable!("two phase planes")
                    };
                    let (pairs, last) = row.as_chunks::<2>();
                    for (pair, (e, o)) in pairs.iter().zip(even.iter_mut().zip(odd)) {
                        (*e, *o) = (pair[0], pair[1]);
                    }
                    if let Some(&v) = last.first() {
                        even[pairs.len()] = v;
                    }
                }
                _ => {
                    for (x, &v) in row.iter().enumerate() {
                        dst[self.at(y, x)] = v;
                    }
                }
            }
        }
    }

    /// The phase planes of every channel of `x` into `planes`, one
    /// channel's `s²` planes after another, the border `fill`.
    fn build<T: PlaneElem>(&self, x: &[T], planes: &mut Vec<T>, fill: T, vector: bool) {
        let (plane, chan) = (self.h * self.w, self.channel_len());
        planes.clear();
        planes.resize(x.len() / plane * chan, fill);
        for (ci, dst) in planes.chunks_exact_mut(chan).enumerate() {
            self.lay(&x[ci * plane..], dst, vector);
        }
    }
}

pub(crate) fn conv_output_shape(
    input: &Shape,
    filters: &Shape,
    p: &Conv2dParams,
) -> Result<Shape, TensorError> {
    if input.rank() != 4 || filters.rank() != 4 {
        return Err(TensorError::BadConcat(format!(
            "conv2d expects rank-4 input/filters, got {input} and {filters}"
        )));
    }
    if input.c() != filters.dim(1) {
        return Err(TensorError::ShapeMismatch {
            expected: input.with_dim(1, filters.dim(1)),
            found: input.clone(),
        });
    }
    let oh = out_dim(input.h(), filters.dim(2), p.stride, p.pad);
    let ow = out_dim(input.w(), filters.dim(3), p.stride, p.pad);
    match (oh, ow) {
        (Some(oh), Some(ow)) => Ok(Shape::nchw(input.n(), filters.dim(0), oh, ow)),
        _ => Err(TensorError::BadConcat(format!(
            "conv window {filters} does not fit input {input} with stride {} pad {}",
            p.stride, p.pad
        ))),
    }
}

/// 2-D convolution: `input` NCHW × `filters` OIHW, written into `out`
/// (NCHW, `[n, filters.dim(0), oh, ow]`).
///
/// `input`, `filters` and `out` share a dtype; a `QUInt8` output is
/// requantized onto `out`'s grid (the pre-trained output range, §4.2).
/// The f32 `bias` has one entry per output channel.
pub fn conv2d(
    input: &TensorView<'_>,
    filters: &TensorView<'_>,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
    out: &mut TensorViewMut<'_>,
) -> Result<(), TensorError> {
    let out_shape = conv_output_shape(&input.shape, &filters.shape, params)?;
    crate::check_bias(bias, out_shape.c())?;
    crate::expect_out(out, &out_shape)?;
    // 1×1 stride-1 unpadded convolutions need no lowering: their
    // patches are the input plane.
    let lower = (!is_pointwise(&filters.shape, params)).then(|| {
        PlaneGeom::new(
            (input.shape.h(), input.shape.w()),
            (filters.shape.dim(2), filters.shape.dim(3)),
            (params.stride, params.pad),
            (out_shape.h(), out_shape.w()),
        )
    });
    gemm_layer((input, filters, bias), lower, params.relu, out)
}

/// The body of every GEMM layer ([`conv2d`], its direct 1×1 path, and
/// [`crate::fully_connected`]): one blocked GEMM per batch element,
/// `out [m × cols] = w [m × k] × B`, written into that element's block
/// of `out`. `B` is the batch element's plane read as a `k × cols`
/// matrix or, under `lower`, its phase planes (built into the arena, or
/// the plane itself at stride 1 unpadded). The sizes come from the
/// views: `m` and `k` from `w` (`[m, …]`, `k` the product of the rest),
/// `cols` from `out` (`[n, m, …]`). The caller has checked the shapes;
/// the one dtype match is here.
pub(crate) fn gemm_layer(
    (x, w, bias): (&TensorView<'_>, &TensorView<'_>, Option<&[f32]>),
    lower: Option<PlaneGeom>,
    relu: bool,
    out: &mut TensorViewMut<'_>,
) -> Result<(), TensorError> {
    let dtypes = [x.dtype(), w.dtype(), out.dtype()];
    let batches = x.shape.dims().first().copied().unwrap_or(1);
    let m = w.shape.dim(0);
    let (k, cols) = (
        w.shape.dims()[1..].iter().product(),
        out.shape.dims()[2..].iter().product(),
    );
    let plane = x.shape.numel() / batches.max(1);
    let (xs, os) = (
        |b: usize| b * plane..(b + 1) * plane,
        |b: usize| b * m * cols..(b + 1) * m * cols,
    );
    let dims = (m, k);
    let vector = active_tier() >= SimdTier::Avx512;
    // Pack buffers, phase planes and the GEMM's `C` come from the
    // per-thread scratch arena: repeated layers (one per layer per
    // frame) reuse capacity instead of allocating in the hot loop.
    let mut arena = crate::arena::ThreadArenaGuard::take();
    let arena = &mut *arena;
    match (x.data, w.data, &mut out.data) {
        (ViewData::F32(x), ViewData::F32(w), ViewDataMut::F32(o)) => {
            let mut planes = std::mem::take(&mut arena.planes_f32);
            for b in 0..batches {
                let xb = operand(
                    &x[xs(b)],
                    (lower.as_ref(), cols),
                    (&mut planes, 0.0),
                    vector,
                );
                gemm_f32(&mut o[os(b)], dims, w, xb, bias, relu, arena);
            }
            arena.planes_f32 = planes;
        }
        (ViewData::F16(x), ViewData::F16(w), ViewDataMut::F16(o)) => {
            let mut planes = std::mem::take(&mut arena.planes_f16);
            for b in 0..batches {
                let pad = (&mut planes, F16::ZERO);
                let xb = operand(&x[xs(b)], (lower.as_ref(), cols), pad, vector);
                gemm_f16(&mut o[os(b)], dims, w, xb, bias, relu, arena);
            }
            arena.planes_f16 = planes;
        }
        (ViewData::QUInt8(x, x_p), ViewData::QUInt8(w, w_p), ViewDataMut::QUInt8(o, o_p)) => {
            let mut planes = std::mem::take(&mut arena.planes_u8);
            let mut run = || {
                for b in 0..batches {
                    let pad = (&mut planes, x_p.zero_point);
                    let xb = operand(&x[xs(b)], (lower.as_ref(), cols), pad, vector);
                    let c = &mut o[os(b)];
                    gemm_quint8(c, dims, (w, w_p), (xb, x_p), bias, *o_p, relu, arena)?;
                }
                Ok(())
            };
            let done = run();
            arena.planes_u8 = planes;
            done?;
        }
        _ => return Err(crate::mismatch(&dtypes)),
    }
    Ok(())
}

/// A batch element `x` as the GEMM's `B`: a `k × cols` matrix, or under
/// `lower` its phase planes, laid into `planes` with the pad value
/// unless the plane is its own.
fn operand<'a, T: PlaneElem>(
    x: &'a [T],
    (lower, cols): (Option<&PlaneGeom>, usize),
    (planes, pad): (&'a mut Vec<T>, T),
    vector: bool,
) -> GemmB<'a, T> {
    match lower {
        None => GemmB::matrix(x, cols),
        Some(g) if g.in_place() => GemmB::planes(x, g),
        Some(g) => {
            g.build(x, planes, pad, vector);
            GemmB::planes(planes, g)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::alloc::{conv2d, depthwise_conv2d};
    use crate::oracle::conv::conv2d_im2col;
    use utensor::{DType, QuantParams, Tensor};

    fn tensor_from(shape: Shape, f: impl Fn(usize) -> f32) -> Tensor {
        let n = shape.numel();
        Tensor::from_f32(shape, (0..n).map(f).collect()).unwrap()
    }

    fn pseudo(i: usize) -> f32 {
        (((i * 2654435761) % 1000) as f32 - 500.0) / 500.0
    }

    #[test]
    fn im2col_gemm_matches_naive() {
        for (ic, oc, h, w, kh, stride, pad) in [
            (1usize, 1usize, 5usize, 5usize, 3usize, 1usize, 0usize),
            (3, 4, 7, 6, 3, 1, 1),
            (2, 5, 9, 9, 5, 2, 2),
            (4, 2, 8, 8, 1, 1, 0),
            (2, 3, 6, 6, 3, 3, 0),
        ] {
            let input = tensor_from(Shape::nchw(2, ic, h, w), pseudo);
            let filters = tensor_from(Shape::oihw(oc, ic, kh, kh), |i| pseudo(i + 77));
            let bias: Vec<f32> = (0..oc).map(|i| pseudo(i + 999)).collect();
            let p = Conv2dParams {
                stride,
                pad,
                relu: false,
            };
            // The blocked GEMM keeps the naive GEMM's accumulation chains.
            let fast = conv2d(&input, &filters, Some(&bias), &p, None).unwrap();
            let slow = conv2d_im2col(&input, &filters, Some(&bias), &p, None);
            assert!(
                fast.bit_equal(&slow),
                "mismatch for ic={ic} oc={oc} k={kh} s={stride} p={pad}"
            );
        }
    }

    #[test]
    fn relu_fusion_matches_naive() {
        let input = tensor_from(Shape::nchw(1, 2, 5, 5), pseudo);
        let filters = tensor_from(Shape::oihw(3, 2, 3, 3), |i| pseudo(i + 13));
        let p = Conv2dParams {
            stride: 1,
            pad: 1,
            relu: true,
        };
        let fast = conv2d(&input, &filters, None, &p, None).unwrap();
        let slow = conv2d_im2col(&input, &filters, None, &p, None);
        assert!(fast.bit_equal(&slow));
        assert!(fast.as_f32().unwrap().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn f16_conv_tracks_f32() {
        let input = tensor_from(Shape::nchw(1, 3, 6, 6), pseudo);
        let filters = tensor_from(Shape::oihw(4, 3, 3, 3), |i| pseudo(i + 5));
        let p = Conv2dParams {
            stride: 1,
            pad: 1,
            relu: false,
        };
        let f32_out = conv2d(&input, &filters, None, &p, None).unwrap();
        let h_in = input.cast(DType::F16, None).unwrap();
        let h_fil = filters.cast(DType::F16, None).unwrap();
        let f16_out = conv2d(&h_in, &h_fil, None, &p, None).unwrap();
        assert_eq!(f16_out.dtype(), DType::F16);
        // 27-term accumulations of O(1) values: a loose but meaningful bound.
        assert!(f16_out.max_abs_diff(&f32_out) < 0.06);
    }

    #[test]
    fn quint8_conv_tracks_f32() {
        let input = tensor_from(Shape::nchw(1, 3, 6, 6), pseudo);
        let filters = tensor_from(Shape::oihw(4, 3, 3, 3), |i| pseudo(i + 5));
        let p = Conv2dParams {
            stride: 1,
            pad: 1,
            relu: false,
        };
        let f32_out = conv2d(&input, &filters, None, &p, None).unwrap();
        let out_range = QuantParams::from_data(f32_out.as_f32().unwrap()).unwrap();
        let q_in = input
            .cast(
                DType::QUInt8,
                Some(QuantParams::from_range(-1.0, 1.0).unwrap()),
            )
            .unwrap();
        let q_fil = filters
            .cast(
                DType::QUInt8,
                Some(QuantParams::from_range(-1.0, 1.0).unwrap()),
            )
            .unwrap();
        let q_out = conv2d(&q_in, &q_fil, None, &p, Some(out_range)).unwrap();
        assert_eq!(q_out.dtype(), DType::QUInt8);
        // 27 accumulations; each input/filter has <= scale/2 error.
        assert!(
            q_out.max_abs_diff(&f32_out) < 0.25,
            "diff = {}",
            q_out.max_abs_diff(&f32_out)
        );
    }

    #[test]
    fn channel_split_merge_equals_whole_conv() {
        // THE μLayer invariant: conv with filters split along output
        // channels, then concatenated, is bit-identical to the whole conv.
        let input = tensor_from(Shape::nchw(1, 3, 8, 8), pseudo);
        let filters = tensor_from(Shape::oihw(8, 3, 3, 3), |i| pseudo(i + 31));
        let bias: Vec<f32> = (0..8).map(|i| pseudo(i + 400)).collect();
        let p = Conv2dParams {
            stride: 1,
            pad: 1,
            relu: true,
        };
        let whole = conv2d(&input, &filters, Some(&bias), &p, None).unwrap();
        for cut in [0usize, 2, 4, 6, 8] {
            let f_lo = filters.slice_axis(0, 0, cut).unwrap();
            let f_hi = filters.slice_axis(0, cut, 8).unwrap();
            let mut parts = Vec::new();
            if cut > 0 {
                parts.push(conv2d(&input, &f_lo, Some(&bias[..cut]), &p, None).unwrap());
            }
            if cut < 8 {
                parts.push(conv2d(&input, &f_hi, Some(&bias[cut..]), &p, None).unwrap());
            }
            let refs: Vec<&Tensor> = parts.iter().collect();
            let merged = Tensor::concat_axis(1, &refs).unwrap();
            assert!(merged.bit_equal(&whole), "cut = {cut}");
        }
    }

    #[test]
    fn channel_split_merge_equals_whole_conv_quint8() {
        let input = tensor_from(Shape::nchw(1, 2, 6, 6), pseudo)
            .cast(
                DType::QUInt8,
                Some(QuantParams::from_range(-1.0, 1.0).unwrap()),
            )
            .unwrap();
        let filters = tensor_from(Shape::oihw(6, 2, 3, 3), |i| pseudo(i + 3))
            .cast(
                DType::QUInt8,
                Some(QuantParams::from_range(-1.0, 1.0).unwrap()),
            )
            .unwrap();
        let out_p = QuantParams::from_range(-4.0, 4.0).unwrap();
        let p = Conv2dParams {
            stride: 1,
            pad: 0,
            relu: false,
        };
        let whole = conv2d(&input, &filters, None, &p, Some(out_p)).unwrap();
        let f_lo = filters.slice_axis(0, 0, 2).unwrap();
        let f_hi = filters.slice_axis(0, 2, 6).unwrap();
        let lo = conv2d(&input, &f_lo, None, &p, Some(out_p)).unwrap();
        let hi = conv2d(&input, &f_hi, None, &p, Some(out_p)).unwrap();
        let merged = Tensor::concat_axis(1, &[&lo, &hi]).unwrap();
        assert!(merged.bit_equal(&whole));
    }

    #[test]
    fn shape_errors() {
        let input = tensor_from(Shape::nchw(1, 3, 5, 5), pseudo);
        // Channel mismatch.
        let bad_filters = tensor_from(Shape::oihw(2, 4, 3, 3), pseudo);
        assert!(conv2d(&input, &bad_filters, None, &Conv2dParams::unit(), None).is_err());
        // Window larger than input.
        let big = tensor_from(Shape::oihw(2, 3, 9, 9), pseudo);
        assert!(conv2d(&input, &big, None, &Conv2dParams::unit(), None).is_err());
        // Bias length.
        let filters = tensor_from(Shape::oihw(2, 3, 3, 3), pseudo);
        assert!(conv2d(
            &input,
            &filters,
            Some(&[0.0; 5]),
            &Conv2dParams::unit(),
            None
        )
        .is_err());
        // dtype mismatch between input and filters.
        let h_fil = filters.cast(DType::F16, None).unwrap();
        assert!(conv2d(&input, &h_fil, None, &Conv2dParams::unit(), None).is_err());
        // QUInt8 without out_params.
        let q_in = input.cast(DType::QUInt8, None).unwrap();
        let q_fil = filters.cast(DType::QUInt8, None).unwrap();
        assert!(conv2d(&q_in, &q_fil, None, &Conv2dParams::unit(), None).is_err());
        // Float with out_params.
        assert!(conv2d(
            &input,
            &filters,
            None,
            &Conv2dParams::unit(),
            Some(QuantParams::default())
        )
        .is_err());
    }

    #[test]
    fn depthwise_matches_per_channel_naive() {
        let c = 4;
        let input = tensor_from(Shape::nchw(1, c, 6, 6), pseudo);
        let filters = tensor_from(Shape::new(vec![c, 1, 3, 3]), |i| pseudo(i + 9));
        let bias: Vec<f32> = (0..c).map(pseudo).collect();
        let p = Conv2dParams {
            stride: 1,
            pad: 1,
            relu: false,
        };
        let out = depthwise_conv2d(&input, &filters, Some(&bias), &p, None).unwrap();
        assert_eq!(out.shape().dims(), &[1, c, 6, 6]);
        // Oracle: each channel is an independent 1-channel conv.
        for ci in 0..c {
            let xin = input.slice_axis(1, ci, ci + 1).unwrap();
            let fil = filters.slice_axis(0, ci, ci + 1).unwrap();
            let want = conv2d_im2col(&xin, &fil, Some(&bias[ci..ci + 1]), &p, None);
            let got = out.slice_axis(1, ci, ci + 1).unwrap();
            assert!(got.bit_equal(&want), "channel {ci}");
        }
    }

    #[test]
    fn depthwise_rejects_bad_filter_shape() {
        let input = tensor_from(Shape::nchw(1, 4, 6, 6), pseudo);
        let filters = tensor_from(Shape::new(vec![4, 2, 3, 3]), pseudo);
        assert!(depthwise_conv2d(&input, &filters, None, &Conv2dParams::unit(), None).is_err());
        let wrong_c = tensor_from(Shape::new(vec![3, 1, 3, 3]), pseudo);
        assert!(depthwise_conv2d(&input, &wrong_c, None, &Conv2dParams::unit(), None).is_err());
    }

    #[test]
    fn batch_dimension_is_independent() {
        // Running batch 2 equals running each batch element separately.
        let input = tensor_from(Shape::nchw(2, 2, 5, 5), pseudo);
        let filters = tensor_from(Shape::oihw(3, 2, 3, 3), |i| pseudo(i + 21));
        let p = Conv2dParams {
            stride: 1,
            pad: 0,
            relu: false,
        };
        let both = conv2d(&input, &filters, None, &p, None).unwrap();
        for b in 0..2 {
            let single = conv2d(
                &input.slice_axis(0, b, b + 1).unwrap(),
                &filters,
                None,
                &p,
                None,
            )
            .unwrap();
            let part = both.slice_axis(0, b, b + 1).unwrap();
            assert!(part.bit_equal(&single), "batch {b}");
        }
    }
}
