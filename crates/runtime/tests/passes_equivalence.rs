//! In-place join equivalence gate: every plan joins in place the concats
//! whose branches only feed them ([`uruntime::NodeLayout::elided`]), and
//! such a plan evaluates to the network function across the model zoo,
//! in every dtype, with and without channel splits.
//!
//! The contract: bit-identical outputs for QUInt8, ULP-bounded (≤ 2)
//! for F32/F16 against the reference `forward`. Comparisons run under
//! *uniform-dtype* plans (storage == compute, identical on every device)
//! because processor-friendly quantization makes numerics
//! placement-dependent — the CPU computes on QUInt8, the GPU on F16 —
//! while the reference runs one dtype throughout. Uniform plans pin the
//! numerics to the dtype alone; the mixed-dtype cooperative path is
//! covered by the functional tests of `ulayer`.

use unn::{forward, Graph, ModelId};
use uruntime::{evaluate_plan, ExecutionPlan, NodePlacement};
use usoc::{DtypePlan, SocSpec};
use utensor::{DType, Tensor, F16};

/// A deterministic, non-degenerate input covering positive and negative
/// activations.
fn input_for(g: &Graph) -> Tensor {
    let shape = g.input_shape().clone();
    let n = shape.numel();
    Tensor::from_f32(
        shape,
        (0..n)
            .map(|i| ((i * 37 + 11) % 255) as f32 / 255.0 - 0.35)
            .collect(),
    )
    .unwrap()
}

/// ULP distance under the sign-magnitude ordering (so +0 and -0 are the
/// same point, and the distance is monotone across the sign boundary).
fn ulp32(a: f32, b: f32) -> u64 {
    let key = |x: f32| -> i64 {
        let bits = x.to_bits();
        if bits & 0x8000_0000 != 0 {
            -((bits & 0x7FFF_FFFF) as i64)
        } else {
            bits as i64
        }
    };
    (key(a) - key(b)).unsigned_abs()
}

fn ulp16(a: F16, b: F16) -> u64 {
    let key = |x: F16| -> i64 {
        let bits = utensor::f32_to_f16_bits(x.to_f32());
        if bits & 0x8000 != 0 {
            -((bits & 0x7FFF) as i64)
        } else {
            bits as i64
        }
    };
    (key(a) - key(b)).unsigned_abs()
}

fn assert_equivalent(opt: &Tensor, reference: &Tensor, ctx: &str) {
    assert_eq!(opt.dtype(), reference.dtype(), "{ctx}: dtype changed");
    match opt.dtype() {
        DType::QUInt8 => {
            assert!(opt.bit_equal(reference), "{ctx}: QUInt8 outputs differ");
        }
        DType::F32 => {
            for (i, (x, y)) in opt
                .as_f32()
                .unwrap()
                .iter()
                .zip(reference.as_f32().unwrap())
                .enumerate()
            {
                let d = ulp32(*x, *y);
                assert!(d <= 2, "{ctx}: f32 elem {i}: {x} vs {y} ({d} ulps apart)");
            }
        }
        DType::F16 => {
            for (i, (x, y)) in opt
                .as_f16()
                .unwrap()
                .iter()
                .zip(reference.as_f16().unwrap())
                .enumerate()
            {
                let d = ulp16(*x, *y);
                assert!(
                    d <= 2,
                    "{ctx}: f16 elem {i}: {} vs {} ({d} ulps apart)",
                    x.to_f32(),
                    y.to_f32()
                );
            }
        }
    }
}

fn zoo() -> Vec<ModelId> {
    let mut nets: Vec<ModelId> = ModelId::EVALUATED.to_vec();
    nets.push(ModelId::ResNet18);
    nets.push(ModelId::LeNet);
    nets
}

const DTYPES: [DType; 3] = [DType::F32, DType::F16, DType::QUInt8];

/// A plan in one uniform dtype that elides every concat it can. With
/// `split`, every distributable layer is channel-split 0.37 : 0.63
/// across CPU and GPU; everything else runs on the CPU.
fn uniform_plan(g: &Graph, spec: &SocSpec, dtype: DType, split: bool) -> ExecutionPlan {
    let dt = DtypePlan::uniform(dtype);
    let placements = g
        .nodes()
        .iter()
        .map(|n| {
            if split && n.kind.is_distributable() {
                NodePlacement::Split {
                    parts: vec![(spec.cpu(), dt, 0.37), (spec.gpu(), dt, 0.63)],
                }
            } else {
                NodePlacement::Single {
                    device: spec.cpu(),
                    dtypes: dt,
                }
            }
        })
        .collect();
    ExecutionPlan::new(g, spec, placements, "equiv").unwrap()
}

/// Every zoo net in every dtype: the elided plan's output against the
/// reference forward pass, under weights drawn from `seed`.
fn check_zoo(split: bool, seed: u64) {
    let spec = SocSpec::exynos_7420();
    for id in zoo() {
        let g = id.build_miniature();
        let w = unn::Weights::random(&g, seed).unwrap();
        let input = input_for(&g);
        let calib = unn::calibrate(&g, &w, std::slice::from_ref(&input)).unwrap();
        for dtype in DTYPES {
            let reference = forward(&g, &w, &calib, &input, dtype).unwrap();
            let plan = uniform_plan(&g, &spec, dtype, split);
            let outputs = evaluate_plan(&g, &plan, &w, &calib, &input).unwrap();
            let out = g.output().0;
            assert_equivalent(
                &outputs[out],
                &reference[out],
                &format!("{} / {dtype} / split {split}", id.name()),
            );
        }
    }
}

#[test]
fn every_pass_preserves_outputs_across_the_zoo() {
    check_zoo(false, 7);
}

#[test]
fn passes_preserve_outputs_under_channel_splits() {
    check_zoo(true, 11);
}
