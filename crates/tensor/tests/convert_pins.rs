//! Every slice converter pinned to its scalar definition, exhaustively
//! where the domain allows.
//!
//! `utensor::convert` promises that which body runs — table, AVX2 / F16C
//! vector, scalar tail — can never change a result. These tests hold each
//! converter to the scalar function that defines it: all 256 codes, all
//! 65 536 binary16 patterns, a structured set of f32 patterns (every
//! exponent, the mantissa corners, ties, the 2²³ / 2²⁴ boundaries,
//! non-finite values), over a ladder of quantization parameters that
//! includes the degenerate hand-built scales `QuantParams::quantize`
//! documents, and at slice lengths that hit every vector tail. They
//! compare the converter with the definition directly, so they need no
//! kernel-path pass of their own.

use testkit::{prop_assert_eq, props, vec_of};
use utensor::{DType, QuantParams, Shape, Tensor, F16};

/// Zero points 0 / 255 / mid against scales from 1e-6 to 1e3, the
/// default, two calibrated ranges, and the scales `from_range` rejects.
fn param_ladder() -> Vec<QuantParams> {
    let mut ladder = vec![
        QuantParams::default(),
        QuantParams::from_range(-60_000.0, 60_000.0).unwrap(),
        QuantParams::from_range(-0.7, 5.3).unwrap(),
    ];
    for scale in [1e-6f32, 4e-6, 1e-3, 0.037, 0.5, 1.0, 3.0, 1e3] {
        for zero_point in [0u8, 1, 128, 254, 255] {
            ladder.push(QuantParams { scale, zero_point });
        }
    }
    for scale in [0.0f32, -0.25, f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        ladder.push(QuantParams {
            scale,
            zero_point: 77,
        });
    }
    ladder
}

/// Slice lengths around the eight-lane vector width and the 256-entry
/// table threshold.
const LENGTHS: [usize; 12] = [0, 1, 7, 8, 15, 16, 17, 31, 33, 255, 256, 300];

/// `convert(out, src)` against `define` on every prefix length of
/// [`LENGTHS`] and on the whole slice, comparing through `bits`.
fn pin<S: Copy, T: Copy + Default, B: PartialEq + std::fmt::Debug>(
    what: &str,
    src: &[S],
    convert: impl Fn(&mut [T], &[S]),
    define: impl Fn(S) -> T,
    bits: impl Fn(T) -> B,
) {
    for len in LENGTHS.into_iter().chain([src.len()]) {
        // A window that does not start at the front, so blocks and tails
        // fall on different elements for different lengths.
        let start = (src.len() - len.min(src.len())) / 3;
        let window = &src[start..src.len().min(start + len)];
        let mut got = vec![T::default(); window.len()];
        convert(&mut got, window);
        for (i, (&g, &s)) in got.iter().zip(window).enumerate() {
            assert_eq!(
                bits(g),
                bits(define(s)),
                "{what}: element {} of a {}-element slice",
                start + i,
                window.len()
            );
        }
    }
}

fn all_codes() -> Vec<u8> {
    // Twice over, so the slice is long enough for the table body.
    (0..512).map(|i| (i % 256) as u8).collect()
}

fn all_f16() -> Vec<F16> {
    (0..=u16::MAX).map(F16::from_bits).collect()
}

/// Every exponent × the mantissa corners, both signs; ±0, ±∞, quiet and
/// signalling NaNs with payloads; `n + 0.5` ties on both sides of zero
/// and their neighbours; integers and halves around 2²³ and 2²⁴.
fn structured_f32() -> Vec<f32> {
    let mut v = Vec::new();
    for sign in [0u32, 0x8000_0000] {
        for exp in 0..=255u32 {
            for man in [0u32, 1, 0x40_0000, 0x7F_FFFF, 0x2A_AAAA, 0x40_0001] {
                v.push(f32::from_bits(sign | (exp << 23) | man));
            }
        }
    }
    for n in -300..=300 {
        let tie = n as f32 + 0.5;
        v.extend([
            tie,
            f32::from_bits(tie.to_bits() + 1),
            f32::from_bits(tie.to_bits().wrapping_sub(1)),
            n as f32,
        ]);
    }
    for base in [(1u32 << 23) as f32, (1u32 << 24) as f32] {
        for step in -4..=4 {
            let x = f32::from_bits((base.to_bits() as i32 + step) as u32);
            v.extend([x, -x, x + 0.5, -x - 0.5]);
        }
    }
    v.extend([0.49999997, -0.49999997, 0.5, -0.5, f32::MAX, f32::MIN]);
    v
}

/// `values` scaled so that `value / scale` lands where `value` was: the
/// ties and 2²³ / 2²⁴ boundaries then sit on the quantizer's own grid.
fn on_grid(values: &[f32], params: QuantParams) -> Vec<f32> {
    values.iter().map(|&x| x * params.scale).collect()
}

#[test]
fn quint8_sources_equal_the_scalar_definitions_on_every_code() {
    let codes = all_codes();
    let ladder = param_ladder();
    for &from in &ladder {
        pin(
            &format!("quint8 -> f32 {from:?}"),
            &codes,
            |out, src| utensor::quint8_to_f32(out, src, from),
            |q| from.dequantize(q),
            f32::to_bits,
        );
        pin(
            &format!("quint8 -> f16 {from:?}"),
            &codes,
            |out, src| utensor::quint8_to_f16(out, src, from),
            |q| F16::from_f32(from.dequantize(q)),
            F16::to_bits,
        );
        // Every 7th pairing of the ladder plus the equal pair, which must
        // be the identity even for scales whose round trip is not.
        for &to in ladder.iter().step_by(7).chain([&from]) {
            pin(
                &format!("quint8 {from:?} -> quint8 {to:?}"),
                &codes,
                |out, src| utensor::quint8_to_quint8(out, src, from, to),
                |q| {
                    if from == to {
                        q
                    } else {
                        to.quantize(from.dequantize(q))
                    }
                },
                |q| q,
            );
        }
    }
}

#[test]
fn f16_sources_equal_the_scalar_definitions_on_every_bit_pattern() {
    let halves = all_f16();
    pin(
        "f16 -> f32",
        &halves,
        utensor::f16_to_f32,
        F16::to_f32,
        f32::to_bits,
    );
    for params in param_ladder() {
        pin(
            &format!("f16 -> quint8 {params:?}"),
            &halves,
            |out, src| utensor::f16_to_quint8(out, src, params),
            |h| params.quantize(h.to_f32()),
            |q| q,
        );
    }
    // NaNs scattered among ordinary values: blocks that mix the two.
    let mixed: Vec<F16> = (0..4096u32)
        .map(|i| {
            if i % 5 == 3 {
                F16::from_bits(0x7C01 + (i as u16 % 0x3FF) + if i % 2 == 0 { 0x8000 } else { 0 })
            } else {
                F16::from_bits((i * 37) as u16)
            }
        })
        .collect();
    pin(
        "f16 -> f32, scattered NaNs",
        &mixed,
        utensor::f16_to_f32,
        F16::to_f32,
        f32::to_bits,
    );
}

#[test]
fn f32_sources_equal_the_scalar_definitions_on_the_structured_set() {
    let values = structured_f32();
    pin(
        "f32 -> f16",
        &values,
        utensor::f32_to_f16,
        F16::from_f32,
        F16::to_bits,
    );
    // The widened binary16 patterns too: every value the narrowing can
    // produce, and every rounding boundary between two of them.
    let mut boundaries: Vec<f32> = Vec::new();
    for h in all_f16() {
        let x = h.to_f32();
        boundaries.extend([
            x,
            f32::from_bits(x.to_bits().wrapping_add(0x1000)),
            f32::from_bits(x.to_bits().wrapping_add(0x0FFF)),
            f32::from_bits(x.to_bits().wrapping_add(0x1001)),
        ]);
    }
    pin(
        "f32 -> f16, rounding boundaries",
        &boundaries,
        utensor::f32_to_f16,
        F16::from_f32,
        F16::to_bits,
    );
    for params in param_ladder() {
        for (what, set) in [
            ("raw", values.clone()),
            ("on grid", on_grid(&values, params)),
        ] {
            pin(
                &format!("f32 -> quint8 {params:?} ({what})"),
                &set,
                |out, src| utensor::f32_to_quint8(out, src, params),
                |x| params.quantize(x),
                |q| q,
            );
        }
    }
}

#[test]
fn cast_and_constructors_are_the_converters() {
    // `Tensor::cast` for all nine (source, target) pairs against the
    // definitions applied element by element, on a length with a tail.
    let n = 300;
    let real: Vec<f32> = (0..n).map(|i| (i as f32 - 150.0) * 0.173).collect();
    let shape = Shape::new(vec![n]);
    let p = QuantParams::from_range(-20.0, 30.0).unwrap();
    let p2 = QuantParams::from_range(-5.0, 40.0).unwrap();
    let f = Tensor::from_f32(shape.clone(), real.clone()).unwrap();
    let h = Tensor::from_f32_as_f16(shape.clone(), &real).unwrap();
    let q = Tensor::from_f32_quantized(shape.clone(), &real, p).unwrap();

    let half: Vec<F16> = real.iter().map(|&v| F16::from_f32(v)).collect();
    let codes: Vec<u8> = real.iter().map(|&v| p.quantize(v)).collect();
    assert_eq!(
        h.as_f16()
            .unwrap()
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<_>>(),
        half.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
    );
    assert_eq!(q.as_quint8().unwrap().0, &codes[..]);

    let bits16 =
        |t: &Tensor| -> Vec<u16> { t.as_f16().unwrap().iter().map(|x| x.to_bits()).collect() };
    let bits32 =
        |t: &Tensor| -> Vec<u32> { t.as_f32().unwrap().iter().map(|x| x.to_bits()).collect() };

    assert!(f.cast(DType::F32, None).unwrap().bit_equal(&f));
    assert!(h.cast(DType::F16, None).unwrap().bit_equal(&h));
    assert!(q.cast(DType::QUInt8, None).unwrap().bit_equal(&q));
    assert!(q.cast(DType::QUInt8, Some(p)).unwrap().bit_equal(&q));
    assert!(f.cast(DType::F16, None).unwrap().bit_equal(&h));
    assert!(f.cast(DType::QUInt8, Some(p)).unwrap().bit_equal(&q));
    assert_eq!(
        bits32(&h.cast(DType::F32, None).unwrap()),
        half.iter()
            .map(|x| x.to_f32().to_bits())
            .collect::<Vec<_>>()
    );
    assert_eq!(
        h.cast(DType::QUInt8, Some(p))
            .unwrap()
            .as_quint8()
            .unwrap()
            .0,
        half.iter()
            .map(|x| p.quantize(x.to_f32()))
            .collect::<Vec<_>>()
    );
    assert_eq!(
        bits32(&q.cast(DType::F32, None).unwrap()),
        codes
            .iter()
            .map(|&c| p.dequantize(c).to_bits())
            .collect::<Vec<_>>()
    );
    assert_eq!(
        bits16(&q.cast(DType::F16, None).unwrap()),
        codes
            .iter()
            .map(|&c| F16::from_f32(p.dequantize(c)).to_bits())
            .collect::<Vec<_>>()
    );
    let requantized = q.cast(DType::QUInt8, Some(p2)).unwrap();
    assert_eq!(requantized.quant_params(), Some(p2));
    assert_eq!(
        requantized.as_quint8().unwrap().0,
        codes
            .iter()
            .map(|&c| p2.quantize(p.dequantize(c)))
            .collect::<Vec<_>>()
    );
    // Without parameters a float tensor is quantized over its own range,
    // whichever float type it is stored in.
    let own = h.cast(DType::QUInt8, None).unwrap();
    let own_params = QuantParams::from_data(&h.to_f32_vec()).unwrap();
    assert_eq!(own.quant_params(), Some(own_params));
    assert!(own.bit_equal(&h.cast(DType::QUInt8, Some(own_params)).unwrap()));

    assert_eq!(p.quantize_slice(&real), codes);
    assert_eq!(
        p.dequantize_slice(&codes)
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<_>>(),
        codes
            .iter()
            .map(|&c| p.dequantize(c).to_bits())
            .collect::<Vec<_>>()
    );
}

#[test]
fn quantized_concat_equals_cast_then_concat() {
    // Requantizing while copying is casting every part and concatenating
    // the casts, on every axis and with a batch dimension outside it.
    let grids = [
        QuantParams::from_range(-1.0, 1.0).unwrap(),
        QuantParams::from_range(0.0, 6.0).unwrap(),
        QuantParams::from_range(-3.0, 0.5).unwrap(),
    ];
    let target = grids[1];
    let parts: Vec<Tensor> = grids
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let shape = Shape::nchw(2, 3, 5, 20);
            let codes = (0..shape.numel())
                .map(|j| ((j * 37 + i * 101) % 256) as u8)
                .collect();
            Tensor::from_quantized(shape, codes, p).unwrap()
        })
        .collect();
    let refs: Vec<&Tensor> = parts.iter().collect();
    for axis in 0..4 {
        let got = Tensor::concat_axis_quantized(axis, &refs, target).unwrap();
        let casts: Vec<Tensor> = parts
            .iter()
            .map(|t| t.cast(DType::QUInt8, Some(target)).unwrap())
            .collect();
        let want = Tensor::concat_axis(axis, &casts.iter().collect::<Vec<_>>()).unwrap();
        assert!(got.bit_equal(&want), "axis {axis}");
    }
    // Float parts have no grid to be brought onto.
    let f = Tensor::zeros(Shape::nchw(1, 1, 1, 1), DType::F32, None);
    assert!(Tensor::concat_axis_quantized(1, &[&f], target).is_err());
    // The strict form still refuses parts on different grids.
    assert!(Tensor::concat_axis(1, &refs).is_err());
}

props! {
    #![cases(192)]

    /// Random f32 bit patterns, random (possibly degenerate) scale bits,
    /// random zero point, random length: the slice quantizer equals the
    /// scalar one. Shrinks toward short slices of small patterns.
    fn f32_quantizer_equals_scalar_on_random_bits(
        bits in vec_of(0u32..=u32::MAX, 0..40),
        scale_bits in 0u32..=u32::MAX,
        zero_point in 0u8..=255,
    ) {
        let params = QuantParams { scale: f32::from_bits(scale_bits), zero_point };
        let src: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let mut got = vec![0u8; src.len()];
        utensor::f32_to_quint8(&mut got, &src, params);
        let want: Vec<u8> = src.iter().map(|&x| params.quantize(x)).collect();
        prop_assert_eq!(got, want);
    }

    /// The same for values near the quantizer's own grid, where the
    /// rounding decisions are.
    fn f32_quantizer_equals_scalar_near_its_grid(
        steps in vec_of(-400i32..400, 0..40),
        nudges in vec_of(-3i32..=3, 40..41),
        scale in 1e-6f32..1e3,
        zero_point in 0u8..=255,
    ) {
        let params = QuantParams { scale, zero_point };
        let src: Vec<f32> = steps
            .iter()
            .zip(&nudges)
            .map(|(&s, &n)| {
                let x = (s as f32 * 0.5) * scale;
                f32::from_bits((x.to_bits() as i32 + n) as u32)
            })
            .collect();
        let mut got = vec![0u8; src.len()];
        utensor::f32_to_quint8(&mut got, &src, params);
        let want: Vec<u8> = src.iter().map(|&x| params.quantize(x)).collect();
        prop_assert_eq!(got, want);
    }

    /// Random f32 bit patterns narrow to the software conversion's bits,
    /// NaNs included.
    fn f32_narrowing_equals_software_on_random_bits(
        bits in vec_of(0u32..=u32::MAX, 0..40),
    ) {
        let src: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let mut got = vec![F16::ZERO; src.len()];
        utensor::f32_to_f16(&mut got, &src);
        let got: Vec<u16> = got.iter().map(|h| h.to_bits()).collect();
        let want: Vec<u16> = src.iter().map(|&x| F16::from_f32(x).to_bits()).collect();
        prop_assert_eq!(got, want);
    }
}
