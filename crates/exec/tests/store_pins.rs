//! Absolute pins on every node output of a cooperative frame.
//!
//! `parallel_exec` compares one run with another run of the same code
//! (worker pools against the sequential evaluator, one thread count
//! against another), so a change that moves every execution path the
//! same way passes it. These pins hash every node output — dtype, shape,
//! quantization parameters and every stored bit — of cooperative frames
//! on the worker pools and compare the hashes with constants recorded
//! before the store conversion moved from the evaluator into the parts
//! and before the dtype converters, pooling and concat were rewritten.
//! The constants are the contract: a change to where or how fast a
//! conversion runs must leave them alone. The F16 arms were re-recorded
//! once, when `F16::mul_add` became the single-rounded FMA it documents
//! (GoogLeNet's three arms and ResNet-18's all-F16 arm moved; every
//! QUInt8-only output and the other nets' arms did not).
//!
//! The same constant holds under every tier the host has, the scalar
//! tiles included, and at every thread count: the SIMD tiles are
//! bit-identical to the scalar ones, and chunking never changes a
//! channel's arithmetic.

use testkit::fnv1a;
use uexec::{ExecConfig, ParallelBackend, PoolMode};
use ukernels::{simd_tier, PathChoice, SimdTier};
use unn::{Graph, ModelId};
use uruntime::{evaluate_plan_with_backend, ExecutionPlan, NodePlacement};
use usoc::{DtypePlan, SocSpec};
use utensor::{DType, Tensor, ViewData};

/// One hash over every stored bit of every node output.
fn frame_hash(outputs: &[Tensor]) -> u64 {
    let mut bytes = Vec::new();
    for t in outputs {
        bytes.extend(
            t.shape()
                .dims()
                .iter()
                .flat_map(|&d| (d as u32).to_le_bytes()),
        );
        match t.view().data {
            ViewData::F32(v) => {
                bytes.push(0);
                bytes.extend(v.iter().flat_map(|x| x.to_bits().to_le_bytes()));
            }
            ViewData::F16(v) => {
                bytes.push(1);
                bytes.extend(v.iter().flat_map(|x| x.to_bits().to_le_bytes()));
            }
            ViewData::QUInt8(data, params) => {
                bytes.push(2);
                bytes.extend(params.scale.to_bits().to_le_bytes());
                bytes.push(params.zero_point);
                bytes.extend_from_slice(data);
            }
        }
    }
    fnv1a(&bytes)
}

/// Every distributable layer split `cpu_frac : 1 - cpu_frac` between
/// the CPU and the GPU in the given dtype plans; the rest on the CPU.
fn split_plan(
    g: &Graph,
    spec: &SocSpec,
    (cpu_dt, gpu_dt): (DtypePlan, DtypePlan),
    cpu_frac: f64,
) -> ExecutionPlan {
    let placements = g
        .nodes()
        .iter()
        .map(|n| {
            if n.kind.is_distributable() {
                NodePlacement::Split {
                    parts: vec![
                        (spec.cpu(), cpu_dt, cpu_frac),
                        (spec.gpu(), gpu_dt, 1.0 - cpu_frac),
                    ],
                }
            } else {
                NodePlacement::Single {
                    device: spec.cpu(),
                    dtypes: cpu_dt,
                }
            }
        })
        .collect();
    ExecutionPlan::new(g, spec, placements, "pinned-split").unwrap()
}

/// The three plan shapes of the pin matrix: the paper's QUInt8 + F16
/// cooperative split at an even and an uneven ratio (QUInt8 storage, so
/// every F16 part converts on load and on store), and an all-F16 split
/// (F16 storage: the input narrows once, nothing requantizes).
fn plan_shapes() -> [(&'static str, (DtypePlan, DtypePlan), f64); 3] {
    let mixed = (
        DtypePlan::proc_friendly_cpu(),
        DtypePlan::proc_friendly_gpu(),
    );
    let half = (
        DtypePlan::uniform(DType::F16),
        DtypePlan::uniform(DType::F16),
    );
    [
        ("mixed-50", mixed, 0.5),
        ("mixed-37", mixed, 0.37),
        ("f16-50", half, 0.5),
    ]
}

fn pinned_frames(model: ModelId, expected: [u64; 3]) {
    let g = model.build_miniature();
    let w = unn::Weights::random(&g, 5).unwrap();
    let shape = g.input_shape().clone();
    let x = Tensor::from_f32(
        shape.clone(),
        (0..shape.numel())
            .map(|i| (((i * 31) % 200) as f32) / 100.0 - 1.0)
            .collect(),
    )
    .unwrap();
    let calib = unn::calibrate(&g, &w, std::slice::from_ref(&x)).unwrap();
    let spec = SocSpec::exynos_7420();

    let mut got = Vec::new();
    for (label, dtypes, cpu_frac) in plan_shapes() {
        let plan = split_plan(&g, &spec, dtypes, cpu_frac);
        let mut hashes = Vec::new();
        for tier in SimdTier::ALL.into_iter().filter(|&t| t <= simd_tier()) {
            for threads in [1, 2] {
                let cfg = ExecConfig::with_threads(threads).with_kernel_path(PathChoice::Cap(tier));
                let backend = ParallelBackend::new(&spec, &cfg, PoolMode::Cooperative);
                let outs = evaluate_plan_with_backend(&g, &plan, &w, &calib, &x, &backend).unwrap();
                assert_eq!(outs.len(), g.len());
                hashes.push(frame_hash(&outs));
            }
        }
        assert!(
            hashes.iter().all(|&h| h == hashes[0]),
            "{model:?} {label}: kernel path or thread count changed a node output: {hashes:#018x?}"
        );
        got.push(hashes[0]);
    }
    assert_eq!(
        got, expected,
        "{model:?}: a node output moved; got {got:#018x?} for mixed-50 / mixed-37 / f16-50"
    );
}

#[test]
fn squeezenet_cooperative_frames_are_pinned() {
    pinned_frames(
        ModelId::SqueezeNet,
        [
            0xe07f_8ca5_bb53_f2ff,
            0xe356_ca1c_02e8_2f12,
            0x33a4_0e4c_d0b6_7888,
        ],
    );
}

#[test]
fn googlenet_cooperative_frames_are_pinned() {
    pinned_frames(
        ModelId::GoogLeNet,
        [
            0xecdf_e4bc_d732_8b23,
            0x23c5_817f_e9e0_08da,
            0xa322_245e_b987_102a,
        ],
    );
}

#[test]
fn mobilenet_cooperative_frames_are_pinned() {
    pinned_frames(
        ModelId::MobileNet,
        [
            0xabcf_92b8_8767_407c,
            0xfa21_4f7d_06dc_48d8,
            0x6639_7b17_3fd8_9609,
        ],
    );
}

#[test]
fn resnet18_cooperative_frames_are_pinned() {
    pinned_frames(
        ModelId::ResNet18,
        [
            0xe5e1_eb79_94c7_b5df,
            0x430d_c90c_47a1_4907,
            0x5859_487a_bf3c_01fc,
        ],
    );
}
