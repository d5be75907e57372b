//! The naive GEMM loops, kept as the test oracle.
//!
//! These are the library's former deployment GEMMs: `C = A × B (+ bias)
//! (then ReLU)` with `A` `m×k` (filters), `B` `k×n` (im2col patches) and
//! one bias entry per row of `C`, one output row at a time, every
//! element's `k` products summed in one ascending chain. The blocked
//! kernels of `ukernels::blocked` carry their sums across `K` panels and
//! must equal these loops bit for bit in all three dtypes.
//!
//! The QUInt8 GEMM follows gemmlowp: subtract zero points, multiply into
//! an `i32` accumulator, add an `i32` bias (the f32 bias pre-scaled by
//! `1 / (scale_a * scale_b)`), then requantize with the fixed-point
//! multiplier `M = scale_a * scale_b / scale_out` and the output zero
//! point (§4.1).

use utensor::requantize;
use utensor::{FixedPointMultiplier, QuantParams, TensorError, F16};

fn check_lengths(what: &str, (m, k, n): (usize, usize, usize), a: usize, b: usize) {
    assert_eq!(a, m * k, "{what}: A length");
    assert_eq!(b, k * n, "{what}: B length");
}

/// `C[m×n] = A[m×k] × B[k×n] (+ bias[m]) (then ReLU)`, in f32. Zero
/// weights are skipped (they add a signed zero at most).
pub(crate) fn gemm_f32(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    relu: bool,
) -> Vec<f32> {
    check_lengths("gemm_f32", (m, k, n), a.len(), b.len());
    let mut c = vec![0.0f32; m * n];
    for (i, c_row) in c.chunks_exact_mut(n.max(1)).enumerate().take(m) {
        for (p, &av) in a[i * k..(i + 1) * k].iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            for (cv, &bv) in c_row.iter_mut().zip(&b[p * n..(p + 1) * n]) {
                *cv += av * bv;
            }
        }
        for cv in c_row.iter_mut() {
            if let Some(bias) = bias {
                *cv += bias[i];
            }
            if relu && *cv < 0.0 {
                *cv = 0.0;
            }
        }
    }
    c
}

/// `C = A × B (+ bias) (then ReLU)` with every operation rounded to
/// binary16 — one [`F16::mul_add`] per MAC, like a GPU computing in
/// OpenCL `half`. The f32 bias is narrowed once.
pub(crate) fn gemm_f16(
    m: usize,
    k: usize,
    n: usize,
    a: &[F16],
    b: &[F16],
    bias: Option<&[f32]>,
    relu: bool,
) -> Vec<F16> {
    check_lengths("gemm_f16", (m, k, n), a.len(), b.len());
    let mut c = vec![F16::ZERO; m * n];
    for (i, c_row) in c.chunks_exact_mut(n.max(1)).enumerate().take(m) {
        for (p, &av) in a[i * k..(i + 1) * k].iter().enumerate() {
            for (cv, &bv) in c_row.iter_mut().zip(&b[p * n..(p + 1) * n]) {
                *cv = av.mul_add(bv, *cv);
            }
        }
        let hb = bias.map(|b| F16::from_f32(b[i]));
        for cv in c_row.iter_mut() {
            if let Some(hb) = hb {
                *cv += hb;
            }
            if relu && *cv < F16::ZERO {
                *cv = F16::ZERO;
            }
        }
    }
    c
}

/// Quantized `C = A × B` with gemmlowp semantics: `a` quantized with
/// `a_params`, `b` with `b_params`, the f32 `bias` scaled into the `i32`
/// accumulator domain, the result requantized to `out_params`. With
/// `relu`, outputs clamp at the output zero point.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_quint8(
    m: usize,
    k: usize,
    n: usize,
    a: &[u8],
    a_params: QuantParams,
    b: &[u8],
    b_params: QuantParams,
    bias: Option<&[f32]>,
    out_params: QuantParams,
    relu: bool,
) -> Result<Vec<u8>, TensorError> {
    check_lengths("gemm_quint8", (m, k, n), a.len(), b.len());
    let acc_scale = a_params.scale as f64 * b_params.scale as f64;
    if acc_scale <= 0.0 || !acc_scale.is_finite() {
        return Err(TensorError::BadQuantParams(format!(
            "accumulator scale {acc_scale} invalid"
        )));
    }
    let multiplier = FixedPointMultiplier::from_real(acc_scale / out_params.scale as f64)?;
    let (a_zp, b_zp) = (a_params.zero_point as i32, b_params.zero_point as i32);
    let out_zp = out_params.zero_point;
    let mut c = vec![0u8; m * n];
    let mut acc = vec![0i32; n];
    for (i, c_row) in c.chunks_exact_mut(n.max(1)).enumerate().take(m) {
        acc.iter_mut().for_each(|v| *v = 0);
        for (p, &av) in a[i * k..(i + 1) * k].iter().enumerate() {
            let a_val = av as i32 - a_zp;
            if a_val == 0 {
                continue;
            }
            for (accv, &bv) in acc.iter_mut().zip(&b[p * n..(p + 1) * n]) {
                *accv += a_val * (bv as i32 - b_zp);
            }
        }
        let qb = bias.map_or(0, |b| (b[i] as f64 / acc_scale).round() as i32);
        for (cv, &accv) in c_row.iter_mut().zip(&acc) {
            let q = requantize(accv + qb, &multiplier, out_zp);
            *cv = if relu { q.max(out_zp) } else { q };
        }
    }
    Ok(c)
}
