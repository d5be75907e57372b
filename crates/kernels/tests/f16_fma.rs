//! The F16 GEMM's MAC is one binary16 FMA, rounded once.
//!
//! A GEMM with rows `[1, a_r]` in `A` and columns `[c_x; b_x]` in `B`
//! computes `C[r][x] = fma(a_r, b_x, c_x)`: the first MAC leaves exactly
//! `c_x` in the accumulator (`1 · c + 0`), the second is one binary16
//! FMA. That holds the blocked F16 GEMM — on the SIMD path of an
//! AVX512-FP16 host, the `vfmadd231ph` tile — to `F16::mul_add` on
//! near-tie triples that an FMA rounding first to f32 and then to
//! binary16 gets wrong, and on 2²⁰ seeded random finite triples, under
//! both kernel paths. NaNs compare as NaNs: payloads may differ.

use testkit::Rng;
use ukernels::gemm_f16_blocked;
use ukernels::{set_kernel_path, PathChoice, ScratchArena};
use utensor::F16;

/// Triples `(a, b, c)` that an FMA rounding first to f32, then to
/// binary16, gets wrong: `a · b` on a binary16 tie, `c` a subnormal less
/// than an f32 ulp of the product away from it.
fn near_tie_triples() -> Vec<(F16, F16, F16)> {
    let twice = |a: F16, b: F16, c: F16| F16::from_f32(a.to_f32().mul_add(b.to_f32(), c.to_f32()));
    let mut found = Vec::new();
    for a in [0x3c01u16, 0x3c04, 0x3e01, 0x4203] {
        for b in 0..0x7c00u16 {
            for c in [0x0001u16, 0x8001, 0x0003, 0x8002] {
                let (a, b, c) = (F16::from_bits(a), F16::from_bits(b), F16::from_bits(c));
                if twice(a, b, c).to_bits() != a.mul_add(b, c).to_bits() {
                    found.push((a, b, c));
                }
            }
        }
    }
    found
}

/// `fma(a[r], b[x], c[x])` for every `r`, `x` through the F16 GEMM on
/// the calling thread's kernel path, against `F16::mul_add`.
fn check_macs(path: PathChoice, a: &[F16], b: &[F16], c: &[F16]) {
    let (m, n) = (a.len(), b.len());
    let lhs: Vec<F16> = a.iter().flat_map(|&ar| [F16::ONE, ar]).collect();
    let rhs: Vec<F16> = c.iter().chain(b).copied().collect();
    let mut got = vec![F16::ZERO; m * n];
    gemm_f16_blocked(
        &mut got,
        m,
        2,
        n,
        &lhs,
        &rhs,
        None,
        false,
        &mut ScratchArena::default(),
    );
    for (r, row) in got.chunks_exact(n).enumerate() {
        for (x, &g) in row.iter().enumerate() {
            let (a, b, c) = (a[r], b[x], c[x]);
            let want = a.mul_add(b, c);
            let same = g.to_bits() == want.to_bits() || (g.is_nan() && want.is_nan());
            assert!(
                same,
                "{path:?}: {a:?} * {b:?} + {c:?} = {g:?}, want {want:?}"
            );
        }
    }
}

#[test]
fn f16_gemm_rounds_each_mac_once() {
    let triples = near_tie_triples();
    assert!(
        triples.len() >= 100,
        "only {} near-tie triples",
        triples.len()
    );
    let mut rng = Rng::seed_from_u64(0xF16_F3A);
    let mut finite = || {
        let h = rng.next_u64() as u16;
        F16::from_bits(if h & 0x7c00 == 0x7c00 { h ^ 0x4000 } else { h })
    };
    let (m, n) = (64, 256);
    let random: Vec<[Vec<F16>; 3]> = (0..(1 << 20) / (m * n))
        .map(|_| [m, n, n].map(|len| (0..len).map(|_| finite()).collect()))
        .collect();
    for path in [PathChoice::Scalar, PathChoice::Simd] {
        let prev = set_kernel_path(path);
        // One `a` per GEMM row block: the triples of one `a`, `b` and `c`
        // along the columns.
        for group in triples.chunk_by(|x, y| x.0.to_bits() == y.0.to_bits()) {
            let b: Vec<F16> = group.iter().map(|t| t.1).collect();
            let c: Vec<F16> = group.iter().map(|t| t.2).collect();
            check_macs(path, &[group[0].0; 4], &b, &c);
        }
        for [a, b, c] in &random {
            check_macs(path, a, b, c);
        }
        set_kernel_path(prev);
    }
}
