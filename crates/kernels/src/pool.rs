//! Max and average pooling.
//!
//! Pooling applies a spatial window function per channel (§2.1), so the
//! channel-wise workload distribution splits pooling layers by *input*
//! channels (§3.2, Figure 7b) — the executor narrows the input along
//! axis 1 and calls the same [`pool2d`] on each part, with the part's
//! channel range of the layer's output as `out`.
//!
//! Semantics: max pooling ignores padding positions entirely; average
//! pooling divides by the number of *valid* (non-padding) positions
//! (exclude-pad, the Caffe/ACL default). Quantized max pooling operates
//! directly on the u8 codes (the affine map is monotonic); quantized
//! average pooling accumulates codes in `i32` and rounds the division.
//! Either way the codes stay on the input's grid, so a `QUInt8` output
//! must carry the input's parameters.
//!
//! Every path walks output rows with the window clipped to the plane
//! beforehand, so no tap tests a bound. The float paths fold each
//! window's taps in row-major order (`max` on ±0 / NaN and the sum's
//! association depend on it). The integer paths may reorder — `u8` max
//! and `i32` sums are exact in any order — and reduce the window's rows
//! into one row buffer first, then take the horizontal taps from it.
//!
//! QUInt8 max pooling at stride 2 with windows up to 3 wide has its own
//! body on the AVX-512 tiers: per output row, the byte max of the
//! window's valid rows 64 lanes per step, split into the row's two
//! stride phases (its even and odd columns, with AVX-512BW alone), so
//! each tap of 64 interior windows is one vector of a phase — window
//! `i`'s 3-wide taps are even `i`, odd `i` and even `i + 1`. The clipped
//! border columns fold their valid taps.
//! Average pooling, the float dtypes, the narrower tiers and the scalar
//! kernel path (the reference) keep the row-wise and ordered loops;
//! `u8` max is order-free, so every path's output is bit-identical.

use std::ops::Range;

use utensor::{Shape, TensorError, TensorView, TensorViewMut, ViewData, ViewDataMut, F16};

use crate::dispatch::active_tier;
use crate::out_dim;
use crate::simd::SimdTier;

/// The window function of a pooling layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Maximum over the window.
    Max,
    /// Average over the valid positions of the window.
    Avg,
}

/// Geometry of a pooling layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolParams {
    /// The window function.
    pub kind: PoolKind,
    /// Square window side.
    pub k: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Symmetric padding in both spatial dimensions.
    pub pad: usize,
}

/// A `kh × kw` window sliding over one `h × w` plane into `oh × ow`
/// outputs: square for [`pool2d`], the whole plane for
/// [`global_avg_pool`].
#[derive(Clone, Copy)]
struct Window {
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
}

/// The part of a `k`-wide window starting at padded coordinate `start`
/// that lies inside `0..len` (empty when it lies in the padding).
fn clip(start: usize, k: usize, pad: usize, len: usize) -> Range<usize> {
    let hi = (start + k).saturating_sub(pad).min(len);
    start.saturating_sub(pad).min(hi)..hi
}

impl Window {
    /// The valid input rows of output row `oy`.
    fn rows(&self, oy: usize) -> Range<usize> {
        clip(oy * self.stride, self.kh, self.pad, self.h)
    }

    /// The valid input columns of output column `ox`.
    fn cols(&self, ox: usize) -> Range<usize> {
        clip(ox * self.stride, self.kw, self.pad, self.w)
    }

    /// The output columns whose window needs no clipping; the columns
    /// left of it hang over the left border, those right of it over the
    /// right one.
    fn interior(&self) -> Range<usize> {
        if self.kw == 0 || self.w + self.pad < self.kw {
            return 0..0;
        }
        let hi = ((self.w + self.pad - self.kw) / self.stride + 1).min(self.ow);
        self.pad.div_ceil(self.stride).min(hi)..hi
    }
}

/// One plane, each window folded over its valid taps in row-major order
/// from `init`; `finish` receives the fold and the tap count.
fn pool_plane_ordered<T: Copy, A: Copy>(
    plane: &[T],
    out: &mut [T],
    g: &Window,
    init: A,
    f: impl Fn(A, T) -> A,
    finish: impl Fn(A, usize) -> T,
) {
    for (oy, out_row) in out.chunks_exact_mut(g.ow).enumerate() {
        let rows = g.rows(oy);
        for (ox, o) in out_row.iter_mut().enumerate() {
            let cols = g.cols(ox);
            let mut acc = init;
            for iy in rows.clone() {
                for &v in &plane[iy * g.w + cols.start..iy * g.w + cols.end] {
                    acc = f(acc, v);
                }
            }
            *o = finish(acc, rows.len() * cols.len());
        }
    }
}

/// One plane of codes, reduced in any order: the window's valid rows are
/// joined vertically into `rowbuf` (one pass per input row, which the
/// compiler vectorises), then each output joins its horizontal taps —
/// the unclipped interior specialised for 2- and 3-wide windows — and
/// `finish` receives the join and the tap count. A window with no valid
/// tap yields `empty`.
#[allow(clippy::too_many_arguments)]
fn pool_plane_rowwise<A: Copy>(
    plane: &[u8],
    out: &mut [u8],
    g: &Window,
    rowbuf: &mut Vec<A>,
    empty: u8,
    widen: impl Fn(u8) -> A,
    join: impl Fn(A, A) -> A,
    finish: impl Fn(A, usize) -> u8,
) {
    let interior = g.interior();
    for (oy, out_row) in out.chunks_exact_mut(g.ow).enumerate() {
        let rows = g.rows(oy);
        if rows.is_empty() {
            out_row.fill(empty);
            continue;
        }
        rowbuf.clear();
        rowbuf.extend(plane[rows.start * g.w..][..g.w].iter().map(|&v| widen(v)));
        for iy in rows.start + 1..rows.end {
            for (b, &v) in rowbuf.iter_mut().zip(&plane[iy * g.w..][..g.w]) {
                *b = join(*b, widen(v));
            }
        }

        let (left, rest) = out_row.split_at_mut(interior.start);
        let (middle, right) = rest.split_at_mut(interior.len());
        let clipped = |ox: usize| {
            let cols = g.cols(ox);
            match rowbuf[cols.clone()].split_first() {
                None => empty,
                Some((&first, taps)) => finish(
                    taps.iter().fold(first, |a, &b| join(a, b)),
                    rows.len() * cols.len(),
                ),
            }
        };
        for (ox, o) in left.iter_mut().enumerate() {
            *o = clipped(ox);
        }
        for (ox, o) in right.iter_mut().enumerate() {
            *o = clipped(interior.end + ox);
        }

        if middle.is_empty() {
            continue;
        }
        let count = rows.len() * g.kw;
        // The interior's windows: `kw` taps every `stride` columns.
        let taps = &rowbuf[interior.start * g.stride - g.pad..];
        match g.kw {
            2 => {
                for (o, t) in middle.iter_mut().zip(taps.windows(2).step_by(g.stride)) {
                    *o = finish(join(t[0], t[1]), count);
                }
            }
            // Stride 2 in the fixed-width form (`chunks_exact(2)`, not
            // `step_by(2)`), which the compiler turns into wide loads and
            // shuffles: window `i` is pair `i` plus the first tap of pair
            // `i + 1`. Below 16 outputs (one vector of codes) the vector
            // loop never runs and the `windows` form below is faster.
            3 if g.stride == 2 && middle.len() >= 16 => {
                let (last, body) = middle.split_last_mut().expect("non-empty");
                let pairs = taps.chunks_exact(2).zip(taps[2..].chunks_exact(2));
                for (o, (t, next)) in body.iter_mut().zip(pairs) {
                    *o = finish(join(join(t[0], t[1]), next[0]), count);
                }
                let t = &taps[2 * body.len()..][..3];
                *last = finish(join(join(t[0], t[1]), t[2]), count);
            }
            3 => {
                for (o, t) in middle.iter_mut().zip(taps.windows(3).step_by(g.stride)) {
                    *o = finish(join(join(t[0], t[1]), t[2]), count);
                }
            }
            kw => {
                for (o, t) in middle.iter_mut().zip(taps.windows(kw).step_by(g.stride)) {
                    *o = finish(t[1..].iter().fold(t[0], |a, &b| join(a, b)), count);
                }
            }
        }
    }
}

/// One plane of codes max pooled at stride 2 and vector width (module
/// docs): the interior outputs of every row by `simd::max_taps_s2`, each
/// clipped border output the max of its valid taps, and a row whose
/// window has no valid tap `empty`. `plane` may run on past the plane's
/// `h × w` codes (into the next planes of the tensor), which spares the
/// vector reads of the last rows their staging.
#[cfg(target_arch = "x86_64")]
fn pool_plane_max_vector(plane: &[u8], out: &mut [u8], g: &Window, empty: u8) {
    let interior = g.interior();
    if !interior.is_empty() {
        let taps = (interior.start * g.stride - g.pad, g.kw, interior.len());
        // Rows in order, each spilling into outputs a later row or the
        // border loop below rewrites.
        let out = (&mut *out, |oy| oy * g.ow + interior.start, true);
        crate::simd::max_taps_s2(plane, (g.w, g.oh), |oy| g.rows(oy), taps, out);
    }
    // Rows of windows wholly in the padding, or clipped border columns.
    if interior.len() == g.ow && g.pad < g.kh {
        return;
    }
    for (oy, out_row) in out.chunks_exact_mut(g.ow).enumerate() {
        let rows = g.rows(oy);
        if rows.is_empty() {
            out_row.fill(empty);
            continue;
        }
        let clipped = (0..interior.start).chain(interior.end..g.ow);
        for ox in clipped {
            let cols = g.cols(ox);
            let taps = rows.clone().flat_map(|iy| &plane[iy * g.w..][cols.clone()]);
            out_row[ox] = taps.copied().max().unwrap_or(empty);
        }
    }
}

/// Every plane of a float tensor, each window folded over its valid
/// taps in row-major order: their `max` from `neg_inf`, or their sum
/// from `zero` `div`ided by the tap count (`zero` for a window with
/// none).
fn float_planes<T: Copy>(
    (x, out): (&[T], &mut [T]),
    kind: PoolKind,
    g: &Window,
    (neg_inf, zero): (T, T),
    max: impl Fn(T, T) -> T,
    add: impl Fn(T, T) -> T,
    div: impl Fn(T, usize) -> T,
) {
    let plane_len = g.h * g.w;
    for (pl, o) in out.chunks_mut(g.oh * g.ow).enumerate() {
        let plane = &x[pl * plane_len..(pl + 1) * plane_len];
        match kind {
            PoolKind::Max => pool_plane_ordered(plane, o, g, neg_inf, &max, |a, _| a),
            PoolKind::Avg => pool_plane_ordered(plane, o, g, zero, &add, |a, count| {
                if count == 0 {
                    zero
                } else {
                    div(a, count)
                }
            }),
        }
    }
}

/// Pools every plane of an NCHW tensor into `out` under the window
/// `window(h, w)` builds for its `h × w` planes.
fn pool_planes(
    input: &TensorView<'_>,
    kind: PoolKind,
    window: impl FnOnce(usize, usize) -> Result<Window, TensorError>,
    out: &mut TensorViewMut<'_>,
) -> Result<(), TensorError> {
    let s = &input.shape;
    if s.rank() != 4 {
        return Err(TensorError::BadConcat(format!(
            "pooling expects a rank-4 input, got {s}"
        )));
    }
    let g = &window(s.h(), s.w())?;
    crate::expect_out(out, &Shape::nchw(s.n(), s.c(), g.oh, g.ow))?;
    let dtypes = [input.dtype(), out.dtype()];
    match (input.data, &mut out.data) {
        (ViewData::F32(x), ViewDataMut::F32(out)) => {
            let div = |a: f32, count: usize| a / count as f32;
            let limits = (f32::NEG_INFINITY, 0.0);
            float_planes((x, out), kind, g, limits, f32::max, |a, v| a + v, div);
        }
        (ViewData::F16(x), ViewDataMut::F16(out)) => {
            let div = |a: F16, count: usize| a / F16::from_f32(count as f32);
            let limits = (F16::NEG_INFINITY, F16::ZERO);
            float_planes((x, out), kind, g, limits, F16::max, |a, v| a + v, div);
        }
        // The codes stay on the input's grid.
        (ViewData::QUInt8(x, qp), ViewDataMut::QUInt8(out, out_p)) if *out_p == qp => {
            let plane_len = g.h * g.w;
            let (mut maxes, mut sums) = (Vec::new(), Vec::new());
            #[cfg(target_arch = "x86_64")]
            let vector = kind == PoolKind::Max
                && g.stride == 2
                && g.kw <= 3
                && active_tier() >= SimdTier::Avx512;
            for (pl, o) in out.chunks_mut(g.oh * g.ow).enumerate() {
                let plane = &x[pl * plane_len..(pl + 1) * plane_len];
                match kind {
                    #[cfg(target_arch = "x86_64")]
                    PoolKind::Max if vector => {
                        pool_plane_max_vector(&x[pl * plane_len..], o, g, qp.zero_point)
                    }
                    // Monotonic affine map: max of codes = code of max.
                    PoolKind::Max => pool_plane_rowwise(
                        plane,
                        o,
                        g,
                        &mut maxes,
                        qp.zero_point,
                        |v| v,
                        u8::max,
                        |a, _| a,
                    ),
                    // Rounded integer mean of the codes equals the
                    // quantized mean (same affine map).
                    PoolKind::Avg => pool_plane_rowwise(
                        plane,
                        o,
                        g,
                        &mut sums,
                        qp.zero_point,
                        |v| v as i32,
                        |a, b| a + b,
                        |a, count| ((a + count as i32 / 2) / count as i32).clamp(0, 255) as u8,
                    ),
                }
            }
        }
        _ => return Err(crate::mismatch(&dtypes)),
    }
    Ok(())
}

/// 2-D pooling of an NCHW tensor into `out` (`[n, c, oh, ow]`, the
/// input's dtype).
pub fn pool2d(
    input: &TensorView<'_>,
    params: &PoolParams,
    out: &mut TensorViewMut<'_>,
) -> Result<(), TensorError> {
    let (k, stride, pad) = (params.k, params.stride, params.pad);
    let window = |h, w| match (out_dim(h, k, stride, pad), out_dim(w, k, stride, pad)) {
        (Some(oh), Some(ow)) => Ok(Window {
            h,
            w,
            oh,
            ow,
            kh: k,
            kw: k,
            stride,
            pad,
        }),
        _ => Err(TensorError::BadConcat(format!(
            "pool window {k}x{k} stride {stride} pad {pad} does not fit {}",
            input.shape
        ))),
    };
    pool_planes(input, params.kind, window, out)
}

/// Global average pooling: NCHW → `[n, c, 1, 1]` in `out`, the mean
/// over each `h × w` plane (square or not).
pub fn global_avg_pool(
    input: &TensorView<'_>,
    out: &mut TensorViewMut<'_>,
) -> Result<(), TensorError> {
    let window = |h, w| {
        Ok(Window {
            h,
            w,
            oh: 1,
            ow: 1,
            kh: h,
            kw: w,
            stride: 1,
            pad: 0,
        })
    };
    pool_planes(input, PoolKind::Avg, window, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::alloc::{global_avg_pool, pool2d};
    use utensor::{DType, QuantParams, Tensor};

    fn t(shape: Shape, v: Vec<f32>) -> Tensor {
        Tensor::from_f32(shape, v).unwrap()
    }

    #[test]
    fn max_pool_2x2() {
        let input = t(Shape::nchw(1, 1, 4, 4), (0..16).map(|i| i as f32).collect());
        let out = pool2d(
            &input,
            &PoolParams {
                kind: PoolKind::Max,
                k: 2,
                stride: 2,
                pad: 0,
            },
        )
        .unwrap();
        assert_eq!(out.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(out.as_f32().unwrap(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn avg_pool_2x2() {
        let input = t(Shape::nchw(1, 1, 4, 4), (0..16).map(|i| i as f32).collect());
        let out = pool2d(
            &input,
            &PoolParams {
                kind: PoolKind::Avg,
                k: 2,
                stride: 2,
                pad: 0,
            },
        )
        .unwrap();
        assert_eq!(out.as_f32().unwrap(), &[2.5, 4.5, 10.5, 12.5]);
    }

    #[test]
    fn avg_pool_excludes_padding() {
        // 2x2 input, 3x3 window, pad 1, stride 2: the window at (0,0)
        // covers 4 valid positions.
        let input = t(Shape::nchw(1, 1, 2, 2), vec![1.0, 2.0, 3.0, 4.0]);
        let out = pool2d(
            &input,
            &PoolParams {
                kind: PoolKind::Avg,
                k: 3,
                stride: 2,
                pad: 1,
            },
        )
        .unwrap();
        assert_eq!(out.shape().dims(), &[1, 1, 1, 1]);
        assert_eq!(out.as_f32().unwrap(), &[2.5]);
    }

    #[test]
    fn max_pool_ignores_padding() {
        let input = t(Shape::nchw(1, 1, 2, 2), vec![-5.0, -2.0, -3.0, -4.0]);
        let out = pool2d(
            &input,
            &PoolParams {
                kind: PoolKind::Max,
                k: 3,
                stride: 1,
                pad: 1,
            },
        )
        .unwrap();
        // Every window max must be a real input value, never pad-zero.
        assert!(out.as_f32().unwrap().iter().all(|&v| v < 0.0));
    }

    #[test]
    fn f16_pooling_matches_f32() {
        let data: Vec<f32> = (0..36).map(|i| ((i * 7) % 11) as f32 - 5.0).collect();
        let input = t(Shape::nchw(1, 1, 6, 6), data);
        let hin = input.cast(DType::F16, None).unwrap();
        for kind in [PoolKind::Max, PoolKind::Avg] {
            let p = PoolParams {
                kind,
                k: 3,
                stride: 2,
                pad: 1,
            };
            let f = pool2d(&input, &p).unwrap();
            let h = pool2d(&hin, &p).unwrap();
            assert!(h.max_abs_diff(&f) < 0.01, "{kind:?}");
        }
    }

    #[test]
    fn quint8_max_pool_exact() {
        let qp = QuantParams::from_range(-8.0, 8.0).unwrap();
        let data: Vec<f32> = (0..16).map(|i| (i as f32) - 8.0).collect();
        let input = Tensor::from_f32_quantized(Shape::nchw(1, 1, 4, 4), &data, qp).unwrap();
        let out = pool2d(
            &input,
            &PoolParams {
                kind: PoolKind::Max,
                k: 2,
                stride: 2,
                pad: 0,
            },
        )
        .unwrap();
        let f_out = pool2d(
            &input.cast(DType::F32, None).unwrap(),
            &PoolParams {
                kind: PoolKind::Max,
                k: 2,
                stride: 2,
                pad: 0,
            },
        )
        .unwrap();
        // Max over codes == quantized max over reals: exact.
        assert_eq!(out.to_f32_vec(), f_out.as_f32().unwrap());
    }

    #[test]
    fn quint8_avg_pool_within_one_step() {
        let qp = QuantParams::from_range(0.0, 16.0).unwrap();
        let data: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let input = Tensor::from_f32_quantized(Shape::nchw(1, 1, 4, 4), &data, qp).unwrap();
        let q_out = pool2d(
            &input,
            &PoolParams {
                kind: PoolKind::Avg,
                k: 2,
                stride: 2,
                pad: 0,
            },
        )
        .unwrap();
        let f_out = pool2d(
            &input.cast(DType::F32, None).unwrap(),
            &PoolParams {
                kind: PoolKind::Avg,
                k: 2,
                stride: 2,
                pad: 0,
            },
        )
        .unwrap();
        assert!(q_out.max_abs_diff(&f_out) <= qp.scale);
    }

    #[test]
    fn channel_split_merge_equals_whole_pool() {
        // μLayer's pooling distribution: splitting input channels and
        // merging outputs is bit-identical to pooling the whole tensor.
        let data: Vec<f32> = (0..(6 * 6 * 6)).map(|i| ((i * 31) % 17) as f32).collect();
        let input = t(Shape::nchw(1, 6, 6, 6), data);
        let p = PoolParams {
            kind: PoolKind::Max,
            k: 3,
            stride: 2,
            pad: 1,
        };
        let whole = pool2d(&input, &p).unwrap();
        for cut in [0usize, 1, 3, 6] {
            let mut parts = Vec::new();
            if cut > 0 {
                parts.push(pool2d(&input.slice_axis(1, 0, cut).unwrap(), &p).unwrap());
            }
            if cut < 6 {
                parts.push(pool2d(&input.slice_axis(1, cut, 6).unwrap(), &p).unwrap());
            }
            let refs: Vec<&Tensor> = parts.iter().collect();
            let merged = Tensor::concat_axis(1, &refs).unwrap();
            assert!(merged.bit_equal(&whole), "cut = {cut}");
        }
    }

    #[test]
    fn global_avg_pool_shape_and_value() {
        let input = t(Shape::nchw(1, 2, 3, 3), (0..18).map(|i| i as f32).collect());
        let out = global_avg_pool(&input).unwrap();
        assert_eq!(out.shape().dims(), &[1, 2, 1, 1]);
        assert_eq!(out.as_f32().unwrap(), &[4.0, 13.0]);
    }

    #[test]
    fn window_that_does_not_fit_errors() {
        let input = t(Shape::nchw(1, 1, 2, 2), vec![0.0; 4]);
        assert!(pool2d(
            &input,
            &PoolParams {
                kind: PoolKind::Max,
                k: 5,
                stride: 1,
                pad: 0
            }
        )
        .is_err());
    }
}
