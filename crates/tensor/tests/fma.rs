//! `F16::mul_add` at the edges of binary16: the overflow boundary, the
//! signed-zero rules and subnormal addends. Each expected value is the
//! IEEE 754 `fusedMultiplyAdd` result — what `vfmadd231ph` returns —
//! rounded once from the exact `a · b + c`.

use utensor::F16;

/// `a.mul_add(b, c)` on raw binary16 bits.
fn fma_bits(a: u16, b: u16, c: u16) -> u16 {
    F16::from_bits(a)
        .mul_add(F16::from_bits(b), F16::from_bits(c))
        .to_bits()
}

#[test]
fn mul_add_overflow_boundary() {
    // 65 504 is the largest finite value; sums from 65 520 (the
    // midpoint to the next, unrepresentable step) round to ∞.
    let (max, one, two) = (0x7bffu16, 0x3c00u16, 0x4000u16);
    assert_eq!(fma_bits(max, one, 0x4bff), 0x7bff); // 65 519.99
    assert_eq!(fma_bits(max, one, 0x4c00), 0x7c00); // 65 520 exactly
    assert_eq!(fma_bits(0x7800, two, 0x4c00), 0x7c00); // 65 536 + 16
    assert_eq!(fma_bits(0x7800, two, 0xcc01), 0x7bff); // 65 536 − 16.016
    assert_eq!(fma_bits(0x7800, two, 0xcc00), 0x7c00); // 65 536 − 16
    assert_eq!(fma_bits(max, max, 0xfbff), 0x7c00);
    assert_eq!(fma_bits(max, 0xfbff, 0x7bff), 0xfc00);
    // Overflowing products with a cancelling `c` still overflow.
    assert_eq!(fma_bits(0x7bff, 0x5bff, 0xfbff), 0x7c00);
    // ∞ propagates, ∞ − ∞ and 0 · ∞ are NaN.
    assert_eq!(fma_bits(0x7c00, one, 0x7bff), 0x7c00);
    assert!(F16::from_bits(fma_bits(0x7c00, one, 0xfc00)).is_nan());
    assert!(F16::from_bits(fma_bits(0x7c00, 0x0000, one)).is_nan());
}

#[test]
fn mul_add_signed_zeros() {
    let (pz, nz, one, neg) = (0x0000u16, 0x8000u16, 0x3c00u16, 0xbc00u16);
    // An exact zero product adds like a zero: the sum of two zeros
    // of opposite sign is +0 under round-to-nearest.
    assert_eq!(fma_bits(pz, one, pz), pz);
    assert_eq!(fma_bits(nz, one, pz), pz);
    assert_eq!(fma_bits(pz, neg, nz), nz);
    assert_eq!(fma_bits(nz, one, nz), nz);
    assert_eq!(fma_bits(nz, neg, nz), pz);
    // x − x is +0, whatever the signs.
    assert_eq!(fma_bits(one, one, neg), pz);
    assert_eq!(fma_bits(neg, one, one), pz);
    // A nonzero result that underflows keeps its sign.
    assert_eq!(fma_bits(0x0001, 0x3800, pz), pz); // 2⁻²⁵ ties to +0
    assert_eq!(fma_bits(0x8001, 0x3800, nz), nz);
    assert_eq!(fma_bits(0x8001, 0x3800, pz), nz);
    assert_eq!(fma_bits(0x0001, 0x3801, pz), 0x0001);
}

#[test]
fn mul_add_subnormal_addend() {
    // A subnormal `c` that a tiny product moves by less than half its
    // ulp, exactly half (ties to even) and more than half.
    assert_eq!(fma_bits(0x0001, 0x3400, 0x0003), 0x0003); // + 2⁻²⁶
    assert_eq!(fma_bits(0x0001, 0x3800, 0x0003), 0x0004); // + 2⁻²⁵, tie → even
    assert_eq!(fma_bits(0x0001, 0x3800, 0x0002), 0x0002); // + 2⁻²⁵, tie → even
    assert_eq!(fma_bits(0x0001, 0x3a00, 0x0002), 0x0003); // + 0.75·2⁻²⁴
                                                          // Subnormal sums that carry into the normal range.
    assert_eq!(fma_bits(0x03ff, 0x3c00, 0x0001), 0x0400);
    // A product of subnormals is far below any binary16: only `c`.
    assert_eq!(fma_bits(0x03ff, 0x03ff, 0x0001), 0x0001);
    assert_eq!(fma_bits(0x03ff, 0x03ff, 0x0000), 0x0000);
    assert_eq!(fma_bits(0x83ff, 0x03ff, 0x0000), 0x8000);
    // Large `c` with a product far below its ulp (the inexact f64 case).
    assert_eq!(fma_bits(0x0001, 0x0001, 0x7bff), 0x7bff);
    assert_eq!(fma_bits(0x8001, 0x0001, 0x6000), 0x6000);
}
