//! PR 7 equivalence gate: every graph pass — each alone, and the full
//! default pipeline — preserves the network function across the model
//! zoo, in every dtype, with and without channel splits.
//!
//! The contract: bit-identical outputs for QUInt8, ULP-bounded (≤ 2)
//! for F32/F16. Comparisons run under *uniform-dtype* plans (storage ==
//! compute, identical on every device) because processor-friendly
//! quantization makes numerics placement-dependent — the CPU computes on
//! QUInt8, the GPU on F16 — and a rewritten graph has different nodes,
//! hence different placements, than the original. Uniform plans pin the
//! numerics to the dtype alone, so optimized and unoptimized graphs are
//! directly comparable; the mixed-dtype cooperative path is covered by
//! the functional tests of `ulayer`.

use unn::{forward, Graph, ModelId, Module, PassRunner};
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

/// Every pass alone, then the full default pipeline.
fn variants() -> Vec<(&'static str, PassRunner)> {
    vec![
        (
            "fuse-activations",
            PassRunner::new(vec![Box::new(unn::FuseActivations)]),
        ),
        (
            "elide-quant-pairs",
            PassRunner::new(vec![Box::new(unn::ElideQuantPairs)]),
        ),
        (
            "eliminate-dead-nodes",
            PassRunner::new(vec![Box::new(unn::EliminateDeadNodes)]),
        ),
        (
            "elide-concats",
            PassRunner::new(vec![Box::new(unn::ElideConcats)]),
        ),
        ("default-pipeline", PassRunner::default_pipeline()),
    ]
}

fn zoo() -> Vec<ModelId> {
    let mut nets: Vec<ModelId> = ModelId::EVALUATED.to_vec();
    nets.push(ModelId::ResNet18);
    nets.push(ModelId::LeNet);
    nets
}

const DTYPES: [DType; 3] = [DType::F32, DType::F16, DType::QUInt8];

#[test]
fn every_pass_preserves_outputs_across_the_zoo() {
    for id in zoo() {
        let g = id.build_miniature();
        let w = unn::Weights::random(&g, 7).unwrap();
        let input = input_for(&g);
        let calib = unn::calibrate(&g, &w, std::slice::from_ref(&input)).unwrap();
        for dtype in DTYPES {
            let reference = forward(&g, &w, &calib, &input, dtype).unwrap();
            for (name, runner) in variants() {
                let mut m = Module::with_tables(g.clone(), w.clone(), calib.clone()).unwrap();
                runner.run(&mut m).unwrap();
                let out = m.output_now().expect("output survived the pipeline");
                let opt = forward(
                    &m.graph,
                    m.weights.as_ref().unwrap(),
                    m.calib.as_ref().unwrap(),
                    &input,
                    dtype,
                )
                .unwrap();
                assert_equivalent(
                    &opt[out.0],
                    &reference[g.output().0],
                    &format!("{} / {name} / {dtype}", id.name()),
                );
            }
        }
    }
}

/// A cooperative plan in one uniform dtype: every distributable layer is
/// channel-split 0.37 : 0.63 across CPU and GPU, everything else runs on
/// the CPU. Elided concats from the module are attached, so the plan
/// validation and the split evaluator both run over rewritten graphs.
fn uniform_split_plan(m: &Module, spec: &SocSpec, dtype: DType) -> ExecutionPlan {
    let dt = DtypePlan::uniform(dtype);
    let placements = m
        .graph
        .nodes()
        .iter()
        .map(|n| {
            if n.kind.is_distributable() {
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
    ExecutionPlan::new(&m.graph, spec, placements, "equiv-split")
        .unwrap()
        .with_elided_concats(&m.graph, m.elided_concats.clone())
        .unwrap()
}

#[test]
fn passes_preserve_outputs_under_channel_splits() {
    let spec = SocSpec::exynos_7420();
    for id in zoo() {
        let g = id.build_miniature();
        let w = unn::Weights::random(&g, 11).unwrap();
        let input = input_for(&g);
        let calib = unn::calibrate(&g, &w, std::slice::from_ref(&input)).unwrap();
        for dtype in DTYPES {
            let reference = forward(&g, &w, &calib, &input, dtype).unwrap();
            for (name, runner) in variants() {
                let mut m = Module::with_tables(g.clone(), w.clone(), calib.clone()).unwrap();
                runner.run(&mut m).unwrap();
                let out = m.output_now().expect("output survived the pipeline");
                let plan = uniform_split_plan(&m, &spec, dtype);
                let outputs = evaluate_plan(
                    &m.graph,
                    &plan,
                    m.weights.as_ref().unwrap(),
                    m.calib.as_ref().unwrap(),
                    &input,
                )
                .unwrap();
                assert_equivalent(
                    &outputs[out.0],
                    &reference[g.output().0],
                    &format!("{} / {name} / {dtype} / split", id.name()),
                );
            }
        }
    }
}
