//! Integration tests of the parallel backend: bit-reproducibility
//! across thread counts and against the sequential evaluator, plus the
//! measurement harness end to end.

use uexec::{measure, ExecConfig, MeasureConfig, ParallelBackend, PoolMode};
use ukernels::PathChoice;
use unn::{Calibration, Graph, ModelId, Weights};
use uruntime::{
    evaluate_plan, evaluate_plan_with_backend, single_processor_plan, ExecutionPlan, NodePlacement,
    SimulatedBackend,
};
use usoc::{DtypePlan, SocSpec};
use utensor::{DType, Shape, Tensor, TensorData, TensorError, TensorViewMut, ViewDataMut, F16};

fn setup() -> (Graph, Weights, Calibration, Tensor) {
    let g = ModelId::SqueezeNet.build_miniature();
    let w = Weights::random(&g, 5).unwrap();
    let shape = g.input_shape().clone();
    let x = Tensor::from_f32(
        shape.clone(),
        (0..shape.numel())
            .map(|i| (((i * 31) % 200) as f32) / 100.0 - 1.0)
            .collect(),
    )
    .unwrap();
    let calib = unn::calibrate(&g, &w, std::slice::from_ref(&x)).unwrap();
    (g, w, calib, x)
}

/// A cooperative split plan: every distributable layer shared between
/// CPU and GPU in the given dtype plans, the rest on the CPU in its plan.
fn split_plan(
    g: &Graph,
    spec: &SocSpec,
    cpu_dt: DtypePlan,
    gpu_dt: DtypePlan,
    label: &str,
) -> ExecutionPlan {
    ExecutionPlan::new(
        g,
        spec,
        g.nodes()
            .iter()
            .map(|n| {
                if n.kind.is_distributable() {
                    NodePlacement::Split {
                        parts: vec![(spec.cpu(), cpu_dt, 0.5), (spec.gpu(), gpu_dt, 0.5)],
                    }
                } else {
                    NodePlacement::Single {
                        device: spec.cpu(),
                        dtypes: cpu_dt,
                    }
                }
            })
            .collect(),
        label,
    )
    .unwrap()
}

#[test]
fn parallel_quint8_bit_identical_to_sequential_at_any_thread_count() {
    // The headline invariant: integer arithmetic is associative, so the
    // worker pools — blocked kernels, per-worker chunking and all —
    // must reproduce the sequential evaluator bit for bit.
    let (g, w, calib, x) = setup();
    let spec = SocSpec::exynos_7420();
    let plan = split_plan(
        &g,
        &spec,
        DtypePlan::uniform(DType::QUInt8),
        DtypePlan::uniform(DType::QUInt8),
        "q8-split",
    );
    let want = evaluate_plan(&g, &plan, &w, &calib, &x).unwrap();
    for threads in [1, 2, 4] {
        let backend = ParallelBackend::new(
            &spec,
            &ExecConfig::with_threads(threads),
            PoolMode::Cooperative,
        );
        let got = evaluate_plan_with_backend(&g, &plan, &w, &calib, &x, &backend).unwrap();
        assert_eq!(want.len(), got.len());
        for (node, (a, b)) in want.iter().zip(&got).enumerate() {
            assert!(
                a.bit_equal(b),
                "threads={threads}: node {node} diverged from sequential reference"
            );
        }
    }
}

/// The split plans of every dtype configuration: uniform F32, uniform
/// F16, and processor-friendly quantization (QUInt8 CPU + F16 GPU).
fn dtype_plans(g: &Graph, spec: &SocSpec) -> Vec<ExecutionPlan> {
    let uniform = |dt, label| {
        split_plan(
            g,
            spec,
            DtypePlan::uniform(dt),
            DtypePlan::uniform(dt),
            label,
        )
    };
    vec![
        uniform(DType::F32, "f32-split"),
        uniform(DType::F16, "f16-split"),
        split_plan(
            g,
            spec,
            DtypePlan::proc_friendly_cpu(),
            DtypePlan::proc_friendly_gpu(),
            "ulayer-split",
        ),
    ]
}

#[test]
fn parallel_bit_identical_to_sequential_for_every_dtype() {
    // The calling thread and the pool workers run the same kernels, and
    // every GEMM element is one ascending chain whatever rows a chunk
    // holds, so floats reproduce the sequential evaluator bit for bit
    // too.
    let (g, w, calib, x) = setup();
    let spec = SocSpec::exynos_7420();
    for plan in dtype_plans(&g, &spec) {
        let want = evaluate_plan(&g, &plan, &w, &calib, &x).unwrap();
        for threads in [1, 2, 4] {
            let backend = ParallelBackend::new(
                &spec,
                &ExecConfig::with_threads(threads),
                PoolMode::Cooperative,
            );
            let got = evaluate_plan_with_backend(&g, &plan, &w, &calib, &x, &backend).unwrap();
            let what = format!("{} threads={threads}", plan.label);
            assert_frames_equal(&got, &want, &what);
        }
    }
}

#[test]
fn the_caller_runs_its_chunks_on_the_backend_path_and_keeps_its_own() {
    // The calling thread is the CPU pool's first worker: it runs CPU
    // chunks under the backend's kernel path, then restores its own.
    let (g, w, calib, x) = setup();
    let spec = SocSpec::exynos_7420();
    let plan = &dtype_plans(&g, &spec)[2];
    let scalar = ExecConfig::with_threads(2).with_kernel_path(PathChoice::Scalar);
    std::thread::scope(|s| {
        let want = s.spawn(|| {
            ukernels::set_kernel_path(PathChoice::Scalar);
            evaluate_plan(&g, plan, &w, &calib, &x).unwrap()
        });
        let got = s.spawn(|| {
            ukernels::set_kernel_path(PathChoice::Auto);
            let backend = ParallelBackend::new(&spec, &scalar, PoolMode::Cooperative);
            let frame = evaluate_plan_with_backend(&g, plan, &w, &calib, &x, &backend).unwrap();
            let own = ukernels::set_kernel_path(PathChoice::Auto);
            assert_eq!(
                own,
                PathChoice::Auto,
                "the frame changed the caller's kernel path"
            );
            frame
        });
        let (want, got) = (want.join().unwrap(), got.join().unwrap());
        assert_frames_equal(&got, &want, "scalar backend called from an auto thread");
    });
}

#[test]
fn sequential_frames_stop_growing_the_thread_arena() {
    // The sequential evaluator runs the blocked GEMMs on the calling
    // thread, out of that thread's scratch arena: the first frame of a
    // plan sizes it, later frames only reuse it.
    let (g, w, calib, x) = setup();
    let spec = SocSpec::exynos_7420();
    for plan in dtype_plans(&g, &spec) {
        evaluate_plan(&g, &plan, &w, &calib, &x).unwrap();
        let warm = ukernels::thread_arena_capacity_bytes();
        assert!(warm > 0, "a frame leaves capacity in the arena");
        for frame in 2..=4 {
            evaluate_plan(&g, &plan, &w, &calib, &x).unwrap();
            let now = ukernels::thread_arena_capacity_bytes();
            assert_eq!(now, warm, "frame {frame} grew the arena");
        }
    }
}

/// The most scratch-arena capacity one full SqueezeNet μLayer frame may
/// leave on the thread that ran it. The blocked GEMMs read their `B`
/// operand from each convolution's stride-phase planes (laid out once
/// per call) and keep one `NC`-column block of `C` at a time, so the
/// arena holds the planes, the panels and the block sums: 1 386 400
/// bytes on an AVX-512 host, bound 10% above. A `K × N` im2col patch
/// matrix on top fails the bound — the first convolution's QUInt8 one
/// alone is 27 × 12 769 bytes — and when every convolution built one,
/// the frame left 4 509 922 bytes.
const SQUEEZENET_ARENA_BYTES: usize = 1_525_040;

#[test]
fn a_squeezenet_frame_builds_no_patch_matrix() {
    let spec = SocSpec::exynos_7420();
    let g = ModelId::SqueezeNet.build();
    let w = Weights::random(&g, 5).unwrap();
    let shape = g.input_shape().clone();
    let x = Tensor::from_f32(
        shape.clone(),
        (0..shape.numel())
            .map(|i| (((i * 31) % 200) as f32) / 100.0 - 1.0)
            .collect(),
    )
    .unwrap();
    let calib = unn::calibrate(&g, &w, std::slice::from_ref(&x)).unwrap();
    let plan = ulayer::ULayer::new(spec).unwrap().plan(&g).unwrap().plan;
    // A fresh thread starts from an empty arena.
    let bytes = std::thread::scope(|s| {
        s.spawn(|| {
            evaluate_plan(&g, &plan, &w, &calib, &x).unwrap();
            ukernels::thread_arena_capacity_bytes()
        })
        .join()
        .unwrap()
    });
    println!("squeezenet frame: {bytes} arena bytes");
    assert!(
        bytes <= SQUEEZENET_ARENA_BYTES,
        "{bytes} arena bytes exceed {SQUEEZENET_ARENA_BYTES}"
    );
}

#[test]
fn parallel_execution_deterministic_across_thread_counts() {
    // Mixed-precision (CPU QUInt8 + GPU F16) outputs must not depend on
    // how many workers each pool has: chunking splits GEMM rows, and a
    // row's accumulation order depends only on the K-panel size.
    let (g, w, calib, x) = setup();
    let spec = SocSpec::exynos_7420();
    let plan = split_plan(
        &g,
        &spec,
        DtypePlan::proc_friendly_cpu(),
        DtypePlan::proc_friendly_gpu(),
        "ulayer-split",
    );
    let reference = {
        let backend =
            ParallelBackend::new(&spec, &ExecConfig::with_threads(1), PoolMode::Cooperative);
        evaluate_plan_with_backend(&g, &plan, &w, &calib, &x, &backend).unwrap()
    };
    for threads in [2, 4] {
        let backend = ParallelBackend::new(
            &spec,
            &ExecConfig::with_threads(threads),
            PoolMode::Cooperative,
        );
        let got = evaluate_plan_with_backend(&g, &plan, &w, &calib, &x, &backend).unwrap();
        for (node, (a, b)) in reference.iter().zip(&got).enumerate() {
            assert!(
                a.bit_equal(b),
                "threads={threads}: node {node} not deterministic"
            );
        }
    }
}

#[test]
fn single_pool_mode_matches_cooperative_bitwise() {
    // Pool routing is a scheduling choice, never a numeric one.
    let (g, w, calib, x) = setup();
    let spec = SocSpec::exynos_7420();
    let plan = split_plan(
        &g,
        &spec,
        DtypePlan::proc_friendly_cpu(),
        DtypePlan::proc_friendly_gpu(),
        "ulayer-split",
    );
    let coop = ParallelBackend::new(&spec, &ExecConfig::with_threads(2), PoolMode::Cooperative);
    let single = ParallelBackend::new(&spec, &ExecConfig::with_threads(2), PoolMode::SinglePool);
    let a = evaluate_plan_with_backend(&g, &plan, &w, &calib, &x, &coop).unwrap();
    let b = evaluate_plan_with_backend(&g, &plan, &w, &calib, &x, &single).unwrap();
    for (node, (ta, tb)) in a.iter().zip(&b).enumerate() {
        assert!(ta.bit_equal(tb), "node {node} differs between pool modes");
    }
    assert_eq!(uruntime::ExecBackend::name(&coop), "parallel-cooperative");
    assert_eq!(uruntime::ExecBackend::name(&single), "parallel-single-pool");
}

/// Every node output of `a` equals `b`'s, bit for bit.
fn assert_frames_equal(a: &[Tensor], b: &[Tensor], what: &str) {
    assert_eq!(a.len(), b.len());
    for (node, (ta, tb)) in a.iter().zip(b).enumerate() {
        assert!(ta.bit_equal(tb), "{what}: node {node} differs");
    }
}

/// The same weights with an empty cast memo.
fn unmemoised(w: &Weights) -> Weights {
    Weights::from_per_node(w.clone().into_per_node())
}

#[test]
fn weights_are_cast_once_and_frames_do_not_change() {
    // A cooperative QUInt8 + F16 plan needs both copies of every split
    // layer. The first frame builds them; later frames (and both pools'
    // workers, chunk by chunk) only read them, and read the same bits a
    // memo-less run computes.
    let (g, w, calib, x) = setup();
    let spec = SocSpec::exynos_7420();
    let plan = split_plan(
        &g,
        &spec,
        DtypePlan::proc_friendly_cpu(),
        DtypePlan::proc_friendly_gpu(),
        "ulayer-split",
    );
    for (threads, mode) in [(2, PoolMode::Cooperative), (4, PoolMode::SinglePool)] {
        let w = unmemoised(&w);
        let backend = ParallelBackend::new(&spec, &ExecConfig::with_threads(threads), mode);
        assert_eq!(w.filter_casts_built(), 0);
        let first = evaluate_plan_with_backend(&g, &plan, &w, &calib, &x, &backend).unwrap();
        let built = w.filter_casts_built();
        let weighted = (0..g.len()).filter(|&i| w.of(unn::NodeId(i)).filter.is_some());
        assert!(built >= weighted.count(), "every weighted layer was cast");
        for frame in 2..=4 {
            let again = evaluate_plan_with_backend(&g, &plan, &w, &calib, &x, &backend).unwrap();
            assert_eq!(w.filter_casts_built(), built, "frame {frame} cast again");
            assert_frames_equal(&again, &first, "warm frame");
        }
        let cold =
            evaluate_plan_with_backend(&g, &plan, &unmemoised(&w), &calib, &x, &backend).unwrap();
        assert_frames_equal(&cold, &first, "memo-less weights");
    }
}

#[test]
fn changing_a_layer_through_of_mut_is_seen_by_the_next_frame() {
    let (g, mut w, calib, x) = setup();
    let spec = SocSpec::exynos_7420();
    let plan = single_processor_plan(&g, &spec, spec.cpu(), DType::QUInt8).unwrap();
    let backend = ParallelBackend::new(&spec, &ExecConfig::with_threads(2), PoolMode::SinglePool);
    let before = evaluate_plan_with_backend(&g, &plan, &w, &calib, &x, &backend).unwrap();

    let node = (0..g.len())
        .map(unn::NodeId)
        .find(|&id| w.of(id).filter.is_some())
        .expect("a weighted layer");
    let flipped = {
        let f = w.of(node).filter.as_ref().unwrap();
        let data = f.as_f32().unwrap().iter().map(|v| -v).collect();
        Tensor::from_f32(f.shape().clone(), data).unwrap()
    };
    w.of_mut(node).filter = Some(flipped);

    let after = evaluate_plan_with_backend(&g, &plan, &w, &calib, &x, &backend).unwrap();
    let fresh =
        evaluate_plan_with_backend(&g, &plan, &unmemoised(&w), &calib, &x, &backend).unwrap();
    assert_frames_equal(&after, &fresh, "after of_mut");
    assert!(
        !after[node.0].bit_equal(&before[node.0]),
        "the negated filter must change the layer's output"
    );
}

#[test]
fn backend_records_per_node_timings() {
    let (g, w, calib, x) = setup();
    let spec = SocSpec::exynos_7420();
    let plan = split_plan(
        &g,
        &spec,
        DtypePlan::proc_friendly_cpu(),
        DtypePlan::proc_friendly_gpu(),
        "ulayer-split",
    );
    let backend = ParallelBackend::new(&spec, &ExecConfig::with_threads(2), PoolMode::Cooperative);
    evaluate_plan_with_backend(&g, &plan, &w, &calib, &x, &backend).unwrap();
    let timings = backend.take_timings();
    assert_eq!(timings.len(), g.len(), "one timing record per node");
    for t in &timings {
        assert!(t.wall_s >= 0.0);
        assert!(!t.parts.is_empty());
        for p in &t.parts {
            assert!(p.seconds >= 0.0 && p.seconds <= t.wall_s + 1e-9);
            assert!(p.chunks >= 1);
        }
    }
    // Draining leaves the buffer empty.
    assert!(backend.take_timings().is_empty());
}

#[test]
fn measure_reports_speedups_and_samples() {
    let (g, w, calib, x) = setup();
    let spec = SocSpec::exynos_7420();
    let coop_plan = split_plan(
        &g,
        &spec,
        DtypePlan::proc_friendly_cpu(),
        DtypePlan::proc_friendly_gpu(),
        "ulayer-split",
    );
    let single_plan = single_processor_plan(&g, &spec, spec.cpu(), DType::QUInt8).unwrap();
    let report = measure(
        &spec,
        &g,
        &w,
        &calib,
        &x,
        &coop_plan,
        &single_plan,
        &MeasureConfig {
            threads: 2,
            repeat: 1,
            kernel_path: ukernels::PathChoice::Auto,
        },
    )
    .unwrap();
    assert_eq!(report.layers.len(), g.len());
    assert!(report.coop_total_s > 0.0);
    assert!(report.single_total_s > 0.0);
    assert!(report.measured_speedup.is_finite() && report.measured_speedup > 0.0);
    // A naive 50/50 split of a miniature net need not model faster than
    // the CPU baseline (map/unmap overheads dominate tiny layers) — but
    // the ratio must be a sane positive number.
    assert!(report.modeled_speedup.is_finite() && report.modeled_speedup > 0.0);
    // Every cooperative part contributed a calibration sample, and split
    // layers contributed one per part.
    assert!(report.samples.len() >= g.len());
    assert!(report.samples.iter().any(|s| s.macs > 0));
    assert!(report.samples.iter().all(|s| s.seconds >= 0.0));
    assert_eq!(report.threads, 2);
    assert_eq!(report.model, g.name());
    // The report names the kernel path the workers resolved to and the
    // features that drove the resolution.
    assert_eq!(report.kernel_path_requested, "auto");
    let expect = if ukernels::simd_available() {
        "simd"
    } else {
        "scalar"
    };
    assert_eq!(report.kernel_path, expect);
    assert!(!report.cpu_features.is_empty());
}

#[test]
fn measure_scalar_path_reproduces_baseline_config() {
    let (g, w, calib, x) = setup();
    let spec = SocSpec::exynos_7420();
    let coop_plan = split_plan(
        &g,
        &spec,
        DtypePlan::proc_friendly_cpu(),
        DtypePlan::proc_friendly_gpu(),
        "ulayer-split",
    );
    let single_plan = single_processor_plan(&g, &spec, spec.cpu(), DType::QUInt8).unwrap();
    let report = measure(
        &spec,
        &g,
        &w,
        &calib,
        &x,
        &coop_plan,
        &single_plan,
        &MeasureConfig {
            threads: 1,
            repeat: 1,
            kernel_path: ukernels::PathChoice::Scalar,
        },
    )
    .unwrap();
    assert_eq!(report.kernel_path_requested, "scalar");
    // Forcing scalar selects the scalar register tiles and nothing else,
    // and resolves to them on every host.
    assert_eq!(report.kernel_path, "scalar");
    // Samples come from every repetition of both plans.
    assert!(report.samples.len() >= 2 * g.len());
}

#[test]
fn measure_fits_each_sample_to_the_share_its_part_ran() {
    // 0.37 of conv1's 16 filters realizes 6 of them, a 0.375 share: the
    // predictor must be fit on the work the part ran, not on the nominal
    // fraction the planner chose.
    let conv = unn::LayerKind::Conv {
        oc: 16,
        k: 3,
        stride: 1,
        pad: 1,
        relu: true,
    };
    let mut g = Graph::new("uneven", Shape::nchw(1, 3, 8, 8));
    let c1 = g.add_input_layer("conv1", conv.clone());
    let gap = g.add("gap", unn::LayerKind::GlobalAvgPool, c1);
    let fc = unn::LayerKind::FullyConnected {
        out: 3,
        relu: false,
    };
    g.add("fc", fc, gap);
    let w = Weights::random(&g, 4).unwrap();
    let shape = g.input_shape().clone();
    let x = Tensor::from_f32(
        shape.clone(),
        (0..shape.numel())
            .map(|i| (((i * 13) % 29) as f32) / 14.0 - 1.0)
            .collect(),
    )
    .unwrap();
    let calib = unn::calibrate(&g, &w, std::slice::from_ref(&x)).unwrap();
    let spec = SocSpec::exynos_7420();
    let fracs = [0.37, 0.63];
    let dtypes = [
        DtypePlan::proc_friendly_cpu(),
        DtypePlan::proc_friendly_gpu(),
    ];
    let single = single_processor_plan(&g, &spec, spec.cpu(), DType::QUInt8).unwrap();
    let mut placements = single.placements.clone();
    placements[c1.0] = NodePlacement::Split {
        parts: vec![
            (spec.cpu(), dtypes[0], fracs[0]),
            (spec.gpu(), dtypes[1], fracs[1]),
        ],
    };
    let coop = ExecutionPlan::new(&g, &spec, placements, "uneven").unwrap();
    let cfg = MeasureConfig {
        threads: 1,
        repeat: 1,
        kernel_path: ukernels::PathChoice::Auto,
    };
    let report = measure(&spec, &g, &w, &calib, &x, &coop, &single, &cfg).unwrap();

    let cuts = usoc::split_cuts(16, &fracs);
    assert_eq!(cuts, [0, 6, 16]);
    let out_shape = &g.infer_shapes().unwrap()[c1.0];
    // The cooperative plan's samples come first, its parts in plan order.
    let conv_samples: Vec<_> = report.samples.iter().filter(|s| s.node == c1.0).collect();
    assert_eq!(conv_samples.len(), 3, "two cooperative parts, one whole");
    for (p, sample) in conv_samples[..2].iter().enumerate() {
        let share = (cuts[p + 1] - cuts[p]) as f64 / 16.0;
        let work = |frac| usoc::layer_work(&conv, &shape, out_shape, dtypes[p], frac);
        assert_ne!(work(share).macs, work(fracs[p]).macs, "part {p}");
        assert_eq!(sample.macs, work(share).macs, "part {p}");
        assert_eq!(sample.bytes, work(share).total_bytes(), "part {p}");
    }
}

/// An owned copy of a view's elements.
fn owned(v: &TensorViewMut<'_>) -> Tensor {
    let data = match &v.data {
        ViewDataMut::F32(s) => TensorData::F32(s.to_vec()),
        ViewDataMut::F16(s) => TensorData::F16(s.to_vec()),
        ViewDataMut::QUInt8(s, params) => TensorData::QUInt8 {
            data: s.to_vec(),
            params: *params,
        },
    };
    Tensor::new(v.shape.clone(), data).unwrap()
}

/// Sets every byte of the view's elements to `byte`.
fn fill(v: &mut TensorViewMut<'_>, byte: u8) {
    match &mut v.data {
        ViewDataMut::F32(s) => s.fill(f32::from_bits(u32::from_ne_bytes([byte; 4]))),
        ViewDataMut::F16(s) => s.fill(F16::from_bits(u16::from_ne_bytes([byte; 2]))),
        ViewDataMut::QUInt8(s, _) => s.fill(byte),
    }
}

/// Forwards to an inner backend and checks, batch by batch, that the
/// node's output `run_node` writes is stored and complete:
///
/// - the output the evaluator hands over is in the plan's storage dtype
///   (the softmax head, which stays f32, excepted);
/// - a task reaching past the output is a typed error, not a panic;
/// - every channel is written: runs over two different sentinels agree;
/// - each task's channels are exactly the whole layer computed in that
///   task's dtypes.
struct StoredOutputs<'a> {
    inner: &'a dyn uruntime::ExecBackend,
    storage: DType,
    mixed_splits: std::sync::atomic::AtomicUsize,
}

impl uruntime::ExecBackend for StoredOutputs<'_> {
    fn name(&self) -> &str {
        "stored-outputs-check"
    }

    fn run_node(
        &self,
        tasks: &[uruntime::PartTask<'_>],
        out: &mut TensorViewMut<'_>,
    ) -> Result<(), TensorError> {
        let name = tasks[0].name;
        let softmax = matches!(tasks[0].kind, unn::LayerKind::Softmax);
        let storage = if softmax { DType::F32 } else { self.storage };
        assert_eq!(out.dtype(), storage, "{name}");
        let channels = out.shape.dim(1);
        if let Some(task) = tasks.iter().find(|t| t.split.is_some()) {
            let mut past = task.clone();
            let (axis, lo, _) = task.split.unwrap();
            past.split = Some((axis, lo, channels + 1));
            let err = self.inner.run_node(&[past], out).unwrap_err();
            assert!(matches!(err, TensorError::BadRange { .. }), "{name}: {err}");
        }

        let mut runs = Vec::new();
        for sentinel in [0x00, 0xFF] {
            fill(out, sentinel);
            self.inner.run_node(tasks, out)?;
            runs.push(owned(out));
        }
        assert!(
            runs[0].bit_equal(&runs[1]),
            "{name}: a channel kept its sentinel"
        );
        for task in tasks {
            let mut whole_task = task.clone();
            whole_task.split = task.split.map(|(axis, _, _)| (axis, 0, channels));
            let params = runs[0].quant_params();
            let mut whole = Tensor::zeros(out.shape.clone(), out.dtype(), params);
            uruntime::eval_part_task(&whole_task, &mut whole.view_mut())?;
            let (lo, hi) = task.split.map_or((0, channels), |(_, lo, hi)| (lo, hi));
            let got = runs[0].slice_axis(1, lo, hi)?;
            assert!(
                got.bit_equal(&whole.slice_axis(1, lo, hi)?),
                "{name} part {}: channels {lo}..{hi} differ from the whole layer",
                task.part_index
            );
        }

        let computes: Vec<DType> = tasks.iter().map(|t| t.dtypes.compute).collect();
        if computes.contains(&DType::QUInt8) && computes.contains(&DType::F16) {
            self.mixed_splits
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        Ok(())
    }
}

/// A small net with odd channel counts, for channel cuts that do not
/// divide evenly.
fn odd_setup() -> (Graph, Weights, Calibration, Tensor) {
    let conv = |oc, k, pad, relu| unn::LayerKind::Conv {
        oc,
        k,
        stride: 1,
        pad,
        relu,
    };
    let mut g = Graph::new("odd", Shape::nchw(1, 5, 9, 9));
    let c1 = g.add_input_layer("conv1", conv(7, 3, 1, true));
    let pool = unn::LayerKind::Pool {
        func: unn::PoolFunc::Max,
        k: 3,
        stride: 2,
        pad: 0,
    };
    let p1 = g.add("pool1", pool, c1);
    let dw = unn::LayerKind::DepthwiseConv {
        k: 3,
        stride: 1,
        pad: 1,
        relu: true,
    };
    let d1 = g.add("dw1", dw, p1);
    let c2 = g.add("conv2", conv(5, 1, 0, false), d1);
    let gap = g.add("gap", unn::LayerKind::GlobalAvgPool, c2);
    let fc = unn::LayerKind::FullyConnected {
        out: 3,
        relu: false,
    };
    let f1 = g.add("fc", fc, gap);
    g.add("softmax", unn::LayerKind::Softmax, f1);
    let w = Weights::random(&g, 9).unwrap();
    let shape = g.input_shape().clone();
    let x = Tensor::from_f32(
        shape.clone(),
        (0..shape.numel())
            .map(|i| (((i * 17) % 101) as f32) / 50.0 - 1.0)
            .collect(),
    )
    .unwrap();
    let calib = unn::calibrate(&g, &w, std::slice::from_ref(&x)).unwrap();
    (g, w, calib, x)
}

#[test]
fn run_node_returns_stored_outputs_for_mixed_splits() {
    // The store belongs to the part (§4.2: the GPU requantizes its own
    // outputs): an F16-computed part of a QUInt8-stored layer writes
    // QUInt8 codes on the layer's grid into its channel range of the
    // node's output, from the sequential backend and from the worker
    // pools (where each chunk stores its own range) alike.
    let (g, w, calib, x) = setup();
    let spec = SocSpec::exynos_7420();
    let (cpu_dt, gpu_dt) = (
        DtypePlan::proc_friendly_cpu(),
        DtypePlan::proc_friendly_gpu(),
    );
    let plan = split_plan(&g, &spec, cpu_dt, gpu_dt, "ulayer-split");
    // Odd channel counts under uneven cuts, some rounding a share to
    // nothing (0.97 : 0.03 of 7 channels, 0.03 : 0.97 of 5).
    let (og, ow, ocalib, ox) = odd_setup();
    let fracs = [0.5, 0.97, 0.03, 0.37];
    let odd_plan = ExecutionPlan::new(
        &og,
        &spec,
        og.nodes()
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let f = fracs[i % fracs.len()];
                if n.kind.is_distributable() {
                    NodePlacement::Split {
                        parts: vec![(spec.cpu(), cpu_dt, f), (spec.gpu(), gpu_dt, 1.0 - f)],
                    }
                } else {
                    NodePlacement::Single {
                        device: spec.cpu(),
                        dtypes: cpu_dt,
                    }
                }
            })
            .collect(),
        "odd-split",
    )
    .unwrap();
    let odd_want = evaluate_plan(&og, &odd_plan, &ow, &ocalib, &ox).unwrap();
    let sequential = SimulatedBackend::default();
    for threads in [1, 2, 3] {
        let pools = ParallelBackend::new(
            &spec,
            &ExecConfig::with_threads(threads),
            PoolMode::Cooperative,
        );
        let inners: [&dyn uruntime::ExecBackend; 2] = [&sequential, &pools];
        for inner in inners {
            let checked = StoredOutputs {
                inner,
                storage: cpu_dt.storage,
                mixed_splits: Default::default(),
            };
            let outs = evaluate_plan_with_backend(&g, &plan, &w, &calib, &x, &checked).unwrap();
            assert_eq!(outs.len(), g.len());
            assert_eq!(
                checked.mixed_splits.into_inner(),
                plan.split_count(),
                "every split node ran a QUInt8 and an F16 part"
            );
            let checked = StoredOutputs {
                inner,
                storage: cpu_dt.storage,
                mixed_splits: Default::default(),
            };
            let outs =
                evaluate_plan_with_backend(&og, &odd_plan, &ow, &ocalib, &ox, &checked).unwrap();
            for (i, (a, b)) in outs.iter().zip(&odd_want).enumerate() {
                assert!(a.bit_equal(b), "{threads} threads, node {i}");
            }
        }
    }
}
