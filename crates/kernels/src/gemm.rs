//! Unit tests of the naive GEMM loops in `tests/common/gemm.rs`.
//!
//! Those loops are the oracle the blocked kernels ([`crate::blocked`])
//! are held to bit for bit; here they are held to an f64 reference, to
//! binary16 rounding and to gemmlowp's zero-point, bias and rail rules.

#[cfg(test)]
mod tests {
    use crate::oracle::gemm::{gemm_f16, gemm_f32, gemm_quint8};
    use utensor::{QuantParams, F16};

    /// f64 oracle for all GEMM variants.
    fn gemm_ref(
        m: usize,
        k: usize,
        n: usize,
        a: &[f64],
        b: &[f64],
        bias: Option<&[f64]>,
    ) -> Vec<f64> {
        let mut c = vec![0.0f64; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    s += a[i * k + p] * b[p * n + j];
                }
                if let Some(bias) = bias {
                    s += bias[i];
                }
                c[i * n + j] = s;
            }
        }
        c
    }

    fn test_data(m: usize, k: usize, n: usize) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i * 37 % 17) as f32 - 8.0) / 8.0)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i * 23 % 19) as f32 - 9.0) / 9.0)
            .collect();
        let bias: Vec<f32> = (0..m).map(|i| (i as f32 - 2.0) / 4.0).collect();
        (a, b, bias)
    }

    #[test]
    fn f32_matches_reference() {
        let (m, k, n) = (5, 7, 6);
        let (a, b, bias) = test_data(m, k, n);
        let got = gemm_f32(m, k, n, &a, &b, Some(&bias), false);
        let a64: Vec<f64> = a.iter().map(|&v| v as f64).collect();
        let b64: Vec<f64> = b.iter().map(|&v| v as f64).collect();
        let bias64: Vec<f64> = bias.iter().map(|&v| v as f64).collect();
        let want = gemm_ref(m, k, n, &a64, &b64, Some(&bias64));
        for (g, w) in got.iter().zip(&want) {
            assert!((*g as f64 - w).abs() < 1e-5, "got {g}, want {w}");
        }
    }

    #[test]
    fn f32_relu_clamps() {
        let a = vec![1.0f32, -1.0];
        let b = vec![2.0f32];
        let c = gemm_f32(2, 1, 1, &a, &b, None, true);
        assert_eq!(c, vec![2.0, 0.0]);
    }

    #[test]
    fn f32_skips_zero_weights() {
        // Zero-weight fast path must not change results.
        let a = vec![0.0f32, 1.0, 0.0, 2.0];
        let b = vec![3.0f32, 4.0];
        let c = gemm_f32(2, 2, 1, &a, &b, None, false);
        assert_eq!(c, vec![4.0, 8.0]);
    }

    #[test]
    fn f16_close_to_f32_for_small_problems() {
        let (m, k, n) = (4, 9, 5);
        let (a, b, bias) = test_data(m, k, n);
        let ah: Vec<F16> = a.iter().map(|&v| F16::from_f32(v)).collect();
        let bh: Vec<F16> = b.iter().map(|&v| F16::from_f32(v)).collect();
        let got = gemm_f16(m, k, n, &ah, &bh, Some(&bias), false);
        let want = gemm_f32(m, k, n, &a, &b, Some(&bias), false);
        for (g, w) in got.iter().zip(&want) {
            // k=9 accumulations of O(1) values: error stays within a few
            // f16 ulps of the result magnitude.
            assert!(
                (g.to_f32() - w).abs() < 0.02 * (1.0 + w.abs()),
                "got {g}, want {w}"
            );
        }
    }

    #[test]
    fn f16_arithmetic_actually_rounds() {
        // Accumulating 4096 copies of 1.0 in f16 saturates at 2048 because
        // 2048 + 1 rounds back to 2048 — proving we do not accumulate in
        // f32 internally.
        let k = 4096;
        let a = vec![F16::ONE; k];
        let b = vec![F16::ONE; k];
        let got = gemm_f16(1, k, 1, &a, &b, None, false);
        assert_eq!(got[0].to_f32(), 2048.0);
    }

    #[test]
    fn f16_relu_and_bias() {
        let a = vec![F16::ONE, F16::NEG_ONE];
        let b = vec![F16::from_f32(3.0)];
        let got = gemm_f16(2, 1, 1, &a, &b, Some(&[-1.0, -1.0]), true);
        assert_eq!(got[0].to_f32(), 2.0);
        assert_eq!(got[1].to_f32(), 0.0);
    }

    #[test]
    fn quint8_matches_float_within_scale() {
        let (m, k, n) = (4, 8, 5);
        let (a, b, bias) = test_data(m, k, n);
        let a_p = QuantParams::from_range(-1.0, 1.0).unwrap();
        let b_p = QuantParams::from_range(-1.0, 1.0).unwrap();
        let a_q = a_p.quantize_slice(&a);
        let b_q = b_p.quantize_slice(&b);
        // Use the float result to pick a sound output range.
        let want = gemm_f32(m, k, n, &a, &b, Some(&bias), false);
        let lo = want.iter().cloned().fold(f32::MAX, f32::min);
        let hi = want.iter().cloned().fold(f32::MIN, f32::max);
        let out_p = QuantParams::from_range(lo, hi).unwrap();
        let got = gemm_quint8(m, k, n, &a_q, a_p, &b_q, b_p, Some(&bias), out_p, false).unwrap();
        for (g, w) in got.iter().zip(&want) {
            let deq = out_p.dequantize(*g);
            // Error budget: input quantization error propagated through k
            // accumulations plus half an output step.
            let tol = out_p.scale * 0.51 + (a_p.scale + b_p.scale) * k as f32 * 0.5;
            assert!((deq - w).abs() <= tol, "deq {deq}, want {w}, tol {tol}");
        }
    }

    #[test]
    fn quint8_exact_on_grid() {
        // Integers on the quantization grid multiply exactly.
        let a_p = QuantParams::from_range(-8.0, 8.0).unwrap();
        let b_p = QuantParams::from_range(-8.0, 8.0).unwrap();
        let out_p = QuantParams::from_range(-64.0, 64.0).unwrap();
        // Values exactly representable: multiples of the scale.
        let av = [a_p.dequantize(200), a_p.dequantize(100)];
        let bv = [b_p.dequantize(50)];
        let a_q = [200u8, 100];
        let b_q = [50u8];
        let got = gemm_quint8(2, 1, 1, &a_q, a_p, &b_q, b_p, None, out_p, false).unwrap();
        for (g, (a, b)) in got.iter().zip(av.iter().zip(bv.iter().cycle())) {
            let deq = out_p.dequantize(*g);
            let want = a * b;
            assert!(
                (deq - want).abs() <= out_p.scale * 0.51,
                "deq {deq}, want {want}"
            );
        }
    }

    #[test]
    fn quint8_relu_clamps_at_zero_point() {
        let a_p = QuantParams::from_range(-1.0, 1.0).unwrap();
        let b_p = QuantParams::from_range(-1.0, 1.0).unwrap();
        let out_p = QuantParams::from_range(-1.0, 1.0).unwrap();
        let a_q = [a_p.quantize(-1.0), a_p.quantize(1.0)];
        let b_q = [b_p.quantize(1.0)];
        let got = gemm_quint8(2, 1, 1, &a_q, a_p, &b_q, b_p, None, out_p, true).unwrap();
        // First output is -1 before ReLU -> clamps to zero point (real 0).
        assert_eq!(got[0], out_p.zero_point);
        assert!(out_p.dequantize(got[1]) > 0.9);
    }

    #[test]
    fn quint8_saturates_at_rails() {
        let a_p = QuantParams::from_range(-10.0, 10.0).unwrap();
        let b_p = QuantParams::from_range(-10.0, 10.0).unwrap();
        // Deliberately narrow output range.
        let out_p = QuantParams::from_range(-1.0, 1.0).unwrap();
        let a_q = [a_p.quantize(10.0), a_p.quantize(-10.0)];
        let b_q = [b_p.quantize(10.0)];
        let got = gemm_quint8(2, 1, 1, &a_q, a_p, &b_q, b_p, None, out_p, false).unwrap();
        assert_eq!(got[0], 255);
        assert_eq!(got[1], 0);
    }

    #[test]
    fn quint8_bias_lands_in_accumulator_domain() {
        let a_p = QuantParams::from_range(0.0, 2.0).unwrap();
        let b_p = QuantParams::from_range(0.0, 2.0).unwrap();
        let out_p = QuantParams::from_range(0.0, 8.0).unwrap();
        let a_q = [a_p.quantize(1.0)];
        let b_q = [b_p.quantize(2.0)];
        let got = gemm_quint8(1, 1, 1, &a_q, a_p, &b_q, b_p, Some(&[3.0]), out_p, false).unwrap();
        let deq = out_p.dequantize(got[0]);
        assert!((deq - 5.0).abs() < out_p.scale, "deq = {deq}");
    }
}
