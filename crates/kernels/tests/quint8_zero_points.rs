//! The QUInt8 GEMM's zero-point algebra, bit for bit against the naive
//! loops of `tests/common`, at the zero points where it can go wrong.
//!
//! The AVX-512 tile sums `b·(a − 128)` over the raw `u8` activations and
//! leaves the rest to rank-one terms: `(128 − z_a)·Σ_k b` per column and
//! `K·z_a·z_b − z_b·Σ_k a` per row. `QuantParams::from_range` puts the
//! zero point of a symmetric range at or next to 128, where a missing or
//! wrong column term changes nothing, so every case here sweeps both
//! zero points over {0, 1, 127, 128, 129, 255}: depths around the K-quad
//! step and the `KC` panel, row counts off the 8-row tile, the FC
//! layer's single column, padded convolutions (a pad entry is `z_b`),
//! and one case at the depth of VGG's FC layer with the operands at the
//! ends of their range, where the `i32` sums come within a factor of
//! 1.3 of the type's range. The output grid is scaled to the depth, so
//! an error of one `Σ_k b` moves an output by about one step. Every case
//! runs on the scalar tiles and on the host's SIMD tiles.

mod common;

use common::alloc::conv2d;
use common::conv::conv2d_im2col;
use common::gemm::gemm_quint8;
use testkit::{bools, prop_assert, prop_assume, props};
use ukernels::ScratchArena;
use ukernels::{gemm_quint8_blocked, out_dim, set_kernel_path, Conv2dParams, PathChoice};
use utensor::{QuantParams, Shape, Tensor};

const ZERO_POINTS: [u8; 6] = [0, 1, 127, 128, 129, 255];
const DEPTHS: [usize; 10] = [1, 2, 3, 4, 5, 27, 255, 256, 257, 1024];
const PATHS: [PathChoice; 2] = [PathChoice::Scalar, PathChoice::Auto];

/// Scales of `A` (weights) and `B` (activations).
const A_SCALE: f32 = 0.02;
const B_SCALE: f32 = 0.05;

fn grid(scale: f32, zero_point: u8) -> QuantParams {
    QuantParams { scale, zero_point }
}

/// The output grid for sums of `k` products: `|a − z_a|·|b − z_b| ≤
/// 255²`, so a sum lies within `±255²·k` and `acc / (256·k)` keeps the
/// output inside `128 ± 254`, one step per `256·k`.
fn out_grid(k: usize) -> QuantParams {
    grid(A_SCALE * B_SCALE * 256.0 * k as f32, 128)
}

fn pseudo_u8(n: usize, seed: usize) -> Vec<u8> {
    (0..n)
        .map(|i| ((((i + seed) * 2654435761) >> 7) % 256) as u8)
        .collect()
}

fn pseudo_bias(n: usize, seed: usize) -> Vec<f32> {
    (0..n)
        .map(|i| ((((i + seed) * 48271) % 200) as f32 - 100.0) * A_SCALE * B_SCALE * 3.0)
        .collect()
}

/// Whether `gemm_quint8_blocked` equals the naive loop on `a` (`m × k`,
/// zero point `za`) and `b` (`k × n`, zero point `zb`) on both paths.
fn gemm_exact(
    (m, k, n): (usize, usize, usize),
    (a, za): (&[u8], u8),
    (b, zb): (&[u8], u8),
) -> bool {
    let (a_p, b_p, out_p) = (grid(A_SCALE, za), grid(B_SCALE, zb), out_grid(k));
    let bias = pseudo_bias(m, k + n);
    let want = gemm_quint8(m, k, n, a, a_p, b, b_p, Some(&bias), out_p, false).unwrap();
    PATHS.into_iter().all(|path| {
        let prev = set_kernel_path(path);
        let mut got = vec![0u8; m * n];
        let mut arena = ScratchArena::default();
        gemm_quint8_blocked(
            &mut got,
            m,
            k,
            n,
            a,
            a_p,
            b,
            b_p,
            Some(&bias),
            out_p,
            false,
            &mut arena,
        )
        .unwrap();
        set_kernel_path(prev);
        got == want
    })
}

/// Every pair of zero points at every depth, for a 13-row FC layer
/// (`n = 1`) and a 9 × 37 GEMM: both row counts leave a partial 8-row
/// tile, 37 columns a partial 32-column one.
#[test]
fn gemm_is_bit_exact_over_the_zero_point_sweep() {
    for (&za, &zb) in ZERO_POINTS
        .iter()
        .flat_map(|za| ZERO_POINTS.iter().map(move |zb| (za, zb)))
    {
        for (i, &k) in DEPTHS.iter().enumerate() {
            for (m, n) in [(13, 1), (9, 37)] {
                let seed = i * 31 + za as usize * 7 + zb as usize;
                let (a, b) = (pseudo_u8(m * k, seed), pseudo_u8(k * n, seed + 1));
                assert!(
                    gemm_exact((m, k, n), (&a, za), (&b, zb)),
                    "z_a {za}, z_b {zb}, {m} x {k} x {n}"
                );
            }
        }
    }
}

/// VGG's FC depth with every operand at one end of its range and the
/// zero point at the other, both ways round: each sum is `−255²·K`,
/// about −1.63·10⁹, and the tile's partial terms are of the same size.
#[test]
fn gemm_is_bit_exact_at_the_extreme_depth() {
    let (m, k, n) = (9, 25_088, 3);
    let out_p = grid(A_SCALE * B_SCALE * 255.0 * 255.0 * k as f32 / 100.0, 128);
    for ((av, za), (bv, zb)) in [((0u8, 255u8), (255u8, 0u8)), ((255, 0), (0, 255))] {
        let (a, b) = (vec![av; m * k], vec![bv; k * n]);
        let (a_p, b_p) = (grid(A_SCALE, za), grid(B_SCALE, zb));
        let want = gemm_quint8(m, k, n, &a, a_p, &b, b_p, None, out_p, false).unwrap();
        assert!(
            want.iter().all(|v| (27..=29).contains(v)),
            "{want:?} off 128 − 100"
        );
        assert!(
            gemm_exact((m, k, n), (&a, za), (&b, zb)),
            "a {av}/{za}, b {bv}/{zb}"
        );
    }
}

/// Row ranges of a larger weight matrix, as a channel split hands the
/// GEMM its part: one that ends the weight slice with `k % 4 ≠ 0` (the
/// last rows' K-quad streams would run past the end of the weights and
/// are staged) and one that starts at a row that is not a multiple of 8
/// (the tiles' rows fall across the parent's 8-row tiles). Every pair of
/// zero points, depths around the K step and the panel, on both paths.
#[test]
fn row_ranges_of_the_weights_are_bit_exact() {
    let (rows, n) = (29usize, 37usize);
    for (i, &k) in [1usize, 3, 27, 255, 257].iter().enumerate() {
        let weights = pseudo_u8(rows * k, i * 17);
        let b = pseudo_u8(k * n, i * 17 + 1);
        // The last 11 rows: the slice ends where the weights end.
        // Rows 3..20: a range starting off the 8-row grid.
        for range in [rows - 11..rows, 3..20] {
            let a = &weights[range.start * k..range.end * k];
            let m = range.len();
            for (&za, &zb) in ZERO_POINTS.iter().zip(ZERO_POINTS.iter().rev()) {
                assert!(
                    gemm_exact((m, k, n), (a, za), (&b, zb)),
                    "rows {range:?}, k {k}, z_a {za}, z_b {zb}"
                );
            }
        }
    }
}

props! {
    #![cases(64)]

    /// Padded convolutions: the pad entries of the patches are the input
    /// zero point, so they enter the column sums like any activation.
    fn padded_conv_is_bit_exact_over_zero_points(
        za_pick in 0usize..6,
        zb_pick in 0usize..6,
        ic in 1usize..7,
        oc in 1usize..12,
        hw in 1usize..12,
        kk in 1usize..6,
        stride in 1usize..3,
        pad_pick in 1usize..5,
        relu in bools(),
        seed in 0usize..1000,
    ) {
        let (za, zb) = (ZERO_POINTS[za_pick], ZERO_POINTS[zb_pick]);
        let pad = pad_pick.min(kk);
        prop_assume!(out_dim(hw, kk, stride, pad).is_some());
        let k = ic * kk * kk;
        let input = Tensor::from_quantized(
            Shape::nchw(1, ic, hw, hw),
            pseudo_u8(ic * hw * hw, seed),
            grid(B_SCALE, zb),
        )
        .unwrap();
        let filters = Tensor::from_quantized(
            Shape::oihw(oc, ic, kk, kk),
            pseudo_u8(oc * k, seed + 1),
            grid(A_SCALE, za),
        )
        .unwrap();
        let bias = pseudo_bias(oc, seed);
        let p = Conv2dParams { stride, pad, relu };
        let want = conv2d_im2col(&input, &filters, Some(&bias), &p, Some(out_grid(k)));
        for path in PATHS {
            let prev = set_kernel_path(path);
            let got = conv2d(&input, &filters, Some(&bias), &p, Some(out_grid(k))).unwrap();
            set_kernel_path(prev);
            prop_assert!(got.bit_equal(&want), "z_a {za}, z_b {zb}, {path:?}");
        }
    }
}
