//! im2col patch extraction.
//!
//! Lowers a convolution input (CHW) into the patch matrix
//! `[(c*kh*kw) × (oh*ow)]` so the convolution becomes a single GEMM with
//! the filter matrix `[oc × (c*kh*kw)]`. Out-of-bounds (padding) positions
//! are filled with a caller-provided value: `0.0` for floats, the
//! quantization zero point for QUInt8 — which is why
//! [`utensor::QuantParams::from_range`] guarantees real zero is exactly
//! representable.

/// Extracts convolution patches from a CHW image into `out`, as a
/// `[(c*kh*kw) × (oh*ow)]` row-major matrix.
///
/// `out` is cleared and resized; its existing capacity is reused, so a
/// buffer borrowed from a [`crate::arena::ScratchArena`] makes repeated
/// convolutions allocation-free once warm.
///
/// # Panics
///
/// Panics if `input.len() != c*h*w` or if the output dimensions are zero
/// (callers validate window geometry with [`crate::out_dim`] first).
#[allow(clippy::too_many_arguments)]
pub(crate) fn im2col_into<T: Copy>(
    out: &mut Vec<T>,
    input: &[T],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    pad_value: T,
) {
    assert_eq!(input.len(), c * h * w, "im2col: input length");
    let oh = crate::out_dim(h, kh, stride, pad).expect("im2col: bad window geometry (h)");
    let ow = crate::out_dim(w, kw, stride, pad).expect("im2col: bad window geometry (w)");

    let cols = oh * ow;
    out.clear();
    out.resize(c * kh * kw * cols, pad_value);
    for ci in 0..c {
        let plane = &input[ci * h * w..(ci + 1) * h * w];
        for ky in 0..kh {
            for kx in 0..kw {
                let row_idx = (ci * kh + ky) * kw + kx;
                let row = &mut out[row_idx * cols..(row_idx + 1) * cols];
                for oy in 0..oh {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue; // stays pad_value
                    }
                    let src_row = &plane[iy as usize * w..(iy as usize + 1) * w];
                    for ox in 0..ow {
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        row[oy * ow + ox] = src_row[ix as usize];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The patch matrix in a fresh buffer.
    #[allow(clippy::too_many_arguments)]
    fn im2col<T: Copy>(
        input: &[T],
        c: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
        pad_value: T,
    ) -> Vec<T> {
        let mut out = Vec::new();
        im2col_into(&mut out, input, c, h, w, kh, kw, stride, pad, pad_value);
        out
    }

    #[test]
    fn identity_1x1() {
        // 1x1 kernel, stride 1, no pad: im2col is the identity.
        let input: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let out = im2col(&input, 2, 2, 3, 1, 1, 1, 0, 0.0);
        assert_eq!(out, input);
    }

    #[test]
    fn single_patch_covers_input() {
        // Kernel as large as the input: one column holding the whole image.
        let input: Vec<f32> = (0..9).map(|i| i as f32).collect();
        let out = im2col(&input, 1, 3, 3, 3, 3, 1, 0, 0.0);
        assert_eq!(out, input);
    }

    #[test]
    fn known_3x3_input_2x2_kernel() {
        // 1 channel, 3x3 input, 2x2 kernel, stride 1, no pad -> 2x2 output.
        let input: Vec<f32> = (1..=9).map(|i| i as f32).collect();
        let out = im2col(&input, 1, 3, 3, 2, 2, 1, 0, 0.0);
        // Rows are kernel positions (ky,kx); columns are output positions.
        let expect = vec![
            1.0, 2.0, 4.0, 5.0, // (0,0)
            2.0, 3.0, 5.0, 6.0, // (0,1)
            4.0, 5.0, 7.0, 8.0, // (1,0)
            5.0, 6.0, 8.0, 9.0, // (1,1)
        ];
        assert_eq!(out, expect);
    }

    #[test]
    fn padding_uses_pad_value() {
        // 1x1 input, 3x3 kernel, pad 1 -> single output covering mostly pad.
        let input = vec![5.0f32];
        let out = im2col(&input, 1, 1, 1, 3, 3, 1, 1, -1.0);
        assert_eq!(out.len(), 9);
        assert_eq!(out[4], 5.0); // center
        assert_eq!(out.iter().filter(|&&v| v == -1.0).count(), 8);
    }

    #[test]
    fn quantized_padding_uses_zero_point() {
        let input = vec![200u8];
        let zp = 128u8;
        let out = im2col(&input, 1, 1, 1, 3, 3, 1, 1, zp);
        assert_eq!(out[4], 200);
        assert_eq!(out.iter().filter(|&&v| v == zp).count(), 8);
    }

    #[test]
    fn stride_skips_positions() {
        let input: Vec<f32> = (0..16).map(|i| i as f32).collect();
        // 4x4 input, 2x2 kernel, stride 2 -> 2x2 output, no overlap.
        let out = im2col(&input, 1, 4, 4, 2, 2, 2, 0, 0.0);
        // Row (0,0): top-left corner of each patch.
        assert_eq!(&out[0..4], &[0.0, 2.0, 8.0, 10.0]);
    }

    #[test]
    #[should_panic(expected = "input length")]
    fn length_mismatch_panics() {
        im2col(&[0.0f32; 5], 1, 2, 3, 1, 1, 1, 0, 0.0);
    }

    #[test]
    fn into_reuses_capacity_and_overwrites_stale_contents() {
        let big: Vec<f32> = (0..48).map(|i| i as f32).collect();
        let small: Vec<f32> = (1..=9).map(|i| i as f32).collect();
        let mut buf = Vec::new();
        // Large extraction first: buffer grows once.
        im2col_into(&mut buf, &big, 3, 4, 4, 2, 2, 1, 0, 0.0);
        let cap = buf.capacity();
        // Smaller extraction with padding: every element (including the
        // pad positions) must be rewritten, none inherited from the big
        // run, and the capacity must be reused.
        im2col_into(&mut buf, &small, 1, 3, 3, 3, 3, 1, 1, -7.0);
        assert_eq!(buf.capacity(), cap);
        assert_eq!(buf.len(), 9 * 9);
        assert_eq!(buf, im2col(&small, 1, 3, 3, 3, 3, 1, 1, -7.0));
    }
}
