//! Regression pins for the blocked GEMM edge tiles (ISSUE 6).
//!
//! The SIMD rewrite replaces the scalar inner loops of
//! `ukernels::blocked`; these tests pin the *current* packing behavior
//! first, so a packing bug introduced by the rewrite cannot hide behind
//! the rewrite's own reference:
//!
//! - an exhaustive shape sweep over the remainder-critical cases — `K`
//!   not divisible by [`KC`], `M`/`N` not divisible by the `MR = 4` /
//!   `NR = 8` register tile — against the naive kernels of
//!   `tests/common`, bit for bit in every dtype;
//! - golden QUInt8 output vectors captured from the pre-SIMD scalar
//!   kernels. Integer arithmetic is exact, so these bytes are
//!   platform-independent and must never change, on any architecture or
//!   kernel path.

mod common;

use common::gemm::{gemm_f16, gemm_f32, gemm_quint8};
use ukernels::ScratchArena;
use ukernels::{gemm_f16_blocked, gemm_f32_blocked, gemm_quint8_blocked, KC, MR, NR};
use utensor::{QuantParams, F16};

fn pseudo_f32(n: usize, seed: usize) -> Vec<f32> {
    (0..n)
        .map(|i| ((((i + seed) * 2654435761) % 2000) as f32 - 1000.0) / 1000.0)
        .collect()
}

fn pseudo_u8(n: usize, seed: usize) -> Vec<u8> {
    (0..n).map(|i| (((i + seed) * 48271) % 256) as u8).collect()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Remainder-critical dimension ladders: one below / exactly at / one
/// above each tiling constant, plus multi-tile-with-edge combinations.
fn edge_ms() -> Vec<usize> {
    vec![1, MR - 1, MR, MR + 1, 2 * MR + 3]
}

fn edge_ns() -> Vec<usize> {
    vec![1, NR - 1, NR, NR + 1, 2 * NR + 5]
}

fn edge_ks() -> Vec<usize> {
    vec![1, KC - 1, KC, KC + 1, 2 * KC, 2 * KC + 7]
}

#[test]
fn quint8_edge_tiles_bit_identical_to_naive() {
    let a_p = QuantParams::from_range(-1.0, 1.0).unwrap();
    let b_p = QuantParams::from_range(-2.0, 3.0).unwrap();
    let out_p = QuantParams::from_range(-50.0, 50.0).unwrap();
    let mut arena = ScratchArena::default();
    for &m in &edge_ms() {
        for &n in &edge_ns() {
            for &k in &edge_ks() {
                let a = pseudo_u8(m * k, m + k);
                let b = pseudo_u8(k * n, n + k + 1);
                let bias = pseudo_f32(m, 3);
                let want =
                    gemm_quint8(m, k, n, &a, a_p, &b, b_p, Some(&bias), out_p, true).unwrap();
                let mut got = vec![0u8; m * n];
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
                    true,
                    &mut arena,
                )
                .unwrap();
                assert_eq!(got, want, "QUInt8 edge shape {m}x{k}x{n}");
            }
        }
    }
}

#[test]
fn f32_edge_tiles_match_naive() {
    let mut arena = ScratchArena::default();
    for &m in &edge_ms() {
        for &n in &edge_ns() {
            for &k in &edge_ks() {
                let a = pseudo_f32(m * k, m + k);
                let b = pseudo_f32(k * n, n + k + 1);
                let want = gemm_f32(m, k, n, &a, &b, None, false);
                let mut got = vec![0.0f32; m * n];
                gemm_f32_blocked(&mut got, m, k, n, &a, &b, None, false, &mut arena);
                assert!(
                    got.iter()
                        .zip(&want)
                        .all(|(g, w)| g.to_bits() == w.to_bits()),
                    "f32 edge shape {m}x{k}x{n}"
                );
            }
        }
    }
}

#[test]
fn f16_edge_tiles_match_naive() {
    let mut arena = ScratchArena::default();
    for &m in &edge_ms() {
        for &n in &edge_ns() {
            // Full K ladder is slow in f16 software emulation; the K
            // remainder behavior is dtype-independent packing, so one
            // below/above-KC pair suffices here.
            for &k in &[1usize, KC, KC + 1] {
                let a: Vec<F16> = pseudo_f32(m * k, m + k)
                    .iter()
                    .map(|&v| F16::from_f32(v))
                    .collect();
                let b: Vec<F16> = pseudo_f32(k * n, n + k + 1)
                    .iter()
                    .map(|&v| F16::from_f32(v))
                    .collect();
                let want = gemm_f16(m, k, n, &a, &b, None, false);
                let mut got = vec![F16::ZERO; m * n];
                gemm_f16_blocked(&mut got, m, k, n, &a, &b, None, false, &mut arena);
                assert!(
                    got.iter()
                        .zip(&want)
                        .all(|(g, w)| g.to_bits() == w.to_bits()),
                    "f16 edge shape {m}x{k}x{n}"
                );
            }
        }
    }
}

/// Golden bytes captured from the pre-SIMD scalar blocked kernel
/// (m=5: MR tile + 1-row edge; n=11: NR tile + 3-column edge;
/// k=KC+3: full panel + 3-column remainder panel). Any future kernel —
/// scalar, AVX2, AVX-512 — must reproduce them exactly.
#[test]
fn quint8_golden_vector_edge_case() {
    let (m, k, n) = (5usize, KC + 3, 11usize);
    let a = pseudo_u8(m * k, 1);
    let b = pseudo_u8(k * n, 2);
    let bias = pseudo_f32(m, 3);
    let a_p = QuantParams::from_range(-1.0, 1.0).unwrap();
    let b_p = QuantParams::from_range(-2.0, 3.0).unwrap();
    let out_p = QuantParams::from_range(-50.0, 50.0).unwrap();
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
        true,
        &mut arena,
    )
    .unwrap();
    let golden: [u8; 55] = [
        174, 128, 156, 128, 139, 131, 128, 153, 128, 177, 128, 128, 159, 128, 128, 128, 128, 143,
        128, 173, 128, 152, 150, 128, 128, 128, 128, 157, 128, 182, 128, 141, 128, 128, 133, 130,
        128, 144, 128, 184, 128, 148, 128, 128, 134, 133, 128, 155, 128, 166, 128, 142, 128, 128,
        128,
    ];
    assert_eq!(got, golden);
}

/// Checksum pin for a larger multi-panel remainder case (m=13, n=29,
/// k=2·KC+7), captured from the pre-SIMD scalar kernel.
#[test]
fn quint8_golden_checksum_multi_panel() {
    let (m, k, n) = (13usize, 2 * KC + 7, 29usize);
    let a = pseudo_u8(m * k, 11);
    let b = pseudo_u8(k * n, 12);
    let a_p = QuantParams::from_range(-1.0, 1.0).unwrap();
    let b_p = QuantParams::from_range(-2.0, 3.0).unwrap();
    let out_p = QuantParams::from_range(-50.0, 50.0).unwrap();
    let mut got = vec![0u8; m * n];
    let mut arena = ScratchArena::default();
    gemm_quint8_blocked(
        &mut got, m, k, n, &a, a_p, &b, b_p, None, out_p, false, &mut arena,
    )
    .unwrap();
    assert_eq!(fnv1a(&got), 0xc29292f8a08fb2fb);
}
