//! Cross-crate property tests: random small graphs, random valid plans,
//! and the invariants that must hold across the whole stack.
//!
//! Runs on the in-repo `testkit` property runner: deterministic in
//! `TESTKIT_SEED`, case count overridable via `TESTKIT_CASES`.

use testkit::{bools, prop_assert, prop_assert_eq, props, select};
use ulayer::{ULayer, ULayerConfig};
use unn::{calibrate, forward, Graph, LayerKind, PoolFunc, Weights};
use uruntime::{evaluate_plan, execute_plan, ExecutionPlan, NodePlacement};
use usoc::{DtypePlan, SocSpec};
use utensor::{DType, Shape, Tensor};

/// Builds a random small CNN from a compact recipe.
fn random_graph(channels: &[usize], with_pool: bool, with_branch: bool) -> Graph {
    let mut g = Graph::new("prop", Shape::nchw(1, 3, 12, 12));
    let mut cur = g.add_input_layer(
        "conv0",
        LayerKind::Conv {
            oc: channels[0],
            k: 3,
            stride: 1,
            pad: 1,
            relu: true,
        },
    );
    if with_branch {
        let a = g.add(
            "br_a",
            LayerKind::Conv {
                oc: channels[0] / 2 + 1,
                k: 1,
                stride: 1,
                pad: 0,
                relu: true,
            },
            cur,
        );
        let b = g.add(
            "br_b",
            LayerKind::Conv {
                oc: channels[0] / 2 + 1,
                k: 3,
                stride: 1,
                pad: 1,
                relu: true,
            },
            cur,
        );
        cur = g.add_multi("join", LayerKind::Concat, &[a, b]);
    }
    for (i, &c) in channels.iter().enumerate().skip(1) {
        cur = g.add(
            format!("conv{i}"),
            LayerKind::Conv {
                oc: c,
                k: 3,
                stride: 1,
                pad: 1,
                relu: true,
            },
            cur,
        );
        if with_pool && i == 1 {
            cur = g.add(
                "pool",
                LayerKind::Pool {
                    func: PoolFunc::Max,
                    k: 2,
                    stride: 2,
                    pad: 0,
                },
                cur,
            );
        }
    }
    let gap = g.add("gap", LayerKind::GlobalAvgPool, cur);
    g.add(
        "fc",
        LayerKind::FullyConnected {
            out: 4,
            relu: false,
        },
        gap,
    );
    g
}

fn sample_input(g: &Graph, seed: usize) -> Tensor {
    let shape = g.input_shape().clone();
    let data: Vec<f32> = (0..shape.numel())
        .map(|i| ((((i + seed) * 2654435761) % 1000) as f32) / 1000.0)
        .collect();
    Tensor::from_f32(shape, data).expect("input")
}

props! {
    #![cases(12)]

    /// For any random graph and any split ratio, cooperative QUInt8
    /// execution equals the single-CPU QUInt8 reference bit for bit.
    fn cooperative_execution_is_lossless(
        c0 in 4usize..10,
        c1 in 4usize..10,
        with_pool in bools(),
        with_branch in bools(),
        p in select(vec![0.25f64, 0.5, 0.75]),
        seed in 0usize..100,
    ) {
        let g = random_graph(&[c0, c1], with_pool, with_branch);
        let w = Weights::random(&g, seed as u64).expect("weights");
        let input = sample_input(&g, seed);
        let calib = calibrate(&g, &w, std::slice::from_ref(&input)).expect("calib");
        let spec = SocSpec::exynos_7420();
        // Hand-build a plan that splits every distributable layer at p.
        let placements: Vec<NodePlacement> = g
            .nodes()
            .iter()
            .map(|n| {
                if n.kind.is_distributable() {
                    NodePlacement::Split {
                        parts: vec![
                            (spec.cpu(), DtypePlan::uniform(DType::QUInt8), p),
                            (spec.gpu(), DtypePlan::uniform(DType::QUInt8), 1.0 - p),
                        ],
                    }
                } else {
                    NodePlacement::single(spec.cpu(), DType::QUInt8)
                }
            })
            .collect();
        let plan = ExecutionPlan::new(&g, &spec, placements, "prop").expect("plan");
        let got = evaluate_plan(&g, &plan, &w, &calib, &input).expect("eval");
        let want = forward(&g, &w, &calib, &input, DType::QUInt8).expect("forward");
        for (a, b) in got.iter().zip(&want) {
            prop_assert!(a.bit_equal(b));
        }
    }

    /// Scheduling any valid plan terminates with positive latency, and
    /// doing it twice gives identical timing.
    fn scheduling_is_total_and_deterministic(
        c0 in 4usize..12,
        c1 in 4usize..12,
        with_branch in bools(),
        gpu_layer in 0usize..4,
    ) {
        let g = random_graph(&[c0, c1], false, with_branch);
        let spec = SocSpec::exynos_7880();
        let placements: Vec<NodePlacement> = (0..g.len())
            .map(|i| {
                let dev = if i == gpu_layer { spec.gpu() } else { spec.cpu() };
                NodePlacement::single(dev, DType::QUInt8)
            })
            .collect();
        let plan = ExecutionPlan::new(&g, &spec, placements, "prop").expect("plan");
        let a = execute_plan(&spec, &g, &plan).expect("run a");
        let b = execute_plan(&spec, &g, &plan).expect("run b");
        prop_assert!(a.latency.as_nanos() > 0);
        prop_assert_eq!(a.latency, b.latency);
    }

    /// The partitioner's plan never loses to the all-CPU plan it could
    /// always fall back to (predictor error tolerance: 5%).
    fn ulayer_never_much_worse_than_cpu_only(
        c0 in 8usize..24,
        c1 in 8usize..24,
        with_branch in bools(),
    ) {
        let g = random_graph(&[c0, c1], true, with_branch);
        let spec = SocSpec::exynos_7420();
        let runtime = ULayer::with_config(spec.clone(), ULayerConfig::full()).expect("rt");
        let u = runtime.run(&g).expect("ulayer");
        let cpu = uruntime::run_single_processor(&spec, &g, spec.cpu(), DType::QUInt8)
            .expect("cpu");
        prop_assert!(
            u.latency.as_secs_f64() <= cpu.latency.as_secs_f64() * 1.05,
            "ulayer {} vs cpu {}", u.latency, cpu.latency
        );
    }
}
