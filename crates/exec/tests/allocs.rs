//! Heap traffic of one frame on the worker pools, counted by this test
//! binary's own global allocator.
//!
//! Every part, and every worker chunk of a part, writes its channel range
//! of the node's output in place, so a frame on the pools allocates no
//! more bytes than the sequential evaluator's frame of the same plan,
//! plus [`ALLOWANCE_BYTES`] for the pools' per-node bookkeeping (split
//! views, timings). A layer barrier allocates nothing — its batch lives
//! on the caller's stack, its jobs are borrowed, and the queue, chunk and
//! index buffers keep their capacity — so a frame makes at most one
//! allocation per node more than the sequential evaluator (the node's
//! timing record), plus [`TIMING_ALLOCS`]. The file holds a single test
//! so nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use uexec::{ExecConfig, ParallelBackend, PoolMode};
use ukernels::PathChoice;
use unn::{Calibration, Graph, ModelId, Weights};
use uruntime::{evaluate_plan, evaluate_plan_with_backend, single_processor_plan, ExecutionPlan};
use usoc::SocSpec;
use utensor::{DType, Tensor};

/// Counts every allocation (and reallocation) request and its size.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded under the caller's `alloc` contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded under the caller's `alloc_zeroed` contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded under the caller's `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded under the caller's `dealloc` contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What the pools may allocate per frame beyond the sequential
/// evaluator: per node the split views and the timing record.
const ALLOWANCE_BYTES: usize = 256 << 10;

/// Allocations a frame's timing records may make beyond one per node:
/// `take_timings` hands the record vector out, so each frame regrows it
/// from empty, one reallocation per doubling (six for 64 nodes).
const TIMING_ALLOCS: usize = 8;

/// `(allocations, bytes)` of the least of four frames after two warm-up
/// frames, which build the filter casts and grow the scratch arenas. A
/// worker's arena may still grow later (workers take chunks in any
/// order); the minimum keeps that one-off growth out of the per-frame
/// count.
fn per_frame(mut frame: impl FnMut()) -> (usize, usize) {
    let counters = || {
        (
            ALLOCS.load(Ordering::Relaxed),
            BYTES.load(Ordering::Relaxed),
        )
    };
    frame();
    frame();
    (0..4)
        .map(|_| {
            let (a0, b0) = counters();
            frame();
            let (a1, b1) = counters();
            (a1 - a0, b1 - b0)
        })
        .min_by_key(|&(_, bytes)| bytes)
        .unwrap()
}

struct Net {
    graph: Graph,
    weights: Weights,
    calib: Calibration,
    input: Tensor,
}

fn net(model: ModelId) -> Net {
    let graph = model.build();
    let weights = Weights::random(&graph, 3).unwrap();
    let shape = graph.input_shape().clone();
    let input = Tensor::from_f32(
        shape.clone(),
        (0..shape.numel())
            .map(|i| (((i * 37) % 101) as f32) / 50.0 - 1.0)
            .collect(),
    )
    .unwrap();
    let calib = unn::calibrate(&graph, &weights, std::slice::from_ref(&input)).unwrap();
    Net {
        graph,
        weights,
        calib,
        input,
    }
}

/// `(allocations, bytes)` per frame of `plan` on the sequential
/// evaluator and on `pools`, printed under `label`.
fn frames(
    label: &str,
    n: &Net,
    plan: &ExecutionPlan,
    pools: &ParallelBackend,
) -> [(usize, usize); 2] {
    let sequential = per_frame(|| {
        evaluate_plan(&n.graph, plan, &n.weights, &n.calib, &n.input).unwrap();
    });
    let pooled = per_frame(|| {
        evaluate_plan_with_backend(&n.graph, plan, &n.weights, &n.calib, &n.input, pools).unwrap();
        pools.take_timings();
    });
    for (name, (allocs, bytes)) in [("sequential", sequential), ("pools", pooled)] {
        let mb = bytes as f64 / 1e6;
        println!("{label}: {name:>10} {allocs:>6} allocations {mb:>8.2} MB per frame");
    }
    [sequential, pooled]
}

/// Fails unless the pools' frame stays within one allocation per node
/// (plus [`TIMING_ALLOCS`]) of the sequential evaluator's.
fn assert_count_bound(label: &str, n: &Net, [(sequential, _), (pooled, _)]: [(usize, usize); 2]) {
    let bound = sequential + n.graph.len() + TIMING_ALLOCS;
    assert!(
        pooled <= bound,
        "{label}: the pools make {pooled} allocations per frame, the sequential evaluator \
         {sequential}; the bound for {} nodes is {bound}",
        n.graph.len()
    );
}

#[test]
fn pools_allocate_no_more_per_frame_than_the_sequential_evaluator() {
    let spec = SocSpec::exynos_7420();
    let auto = |threads| ExecConfig::with_threads(threads).with_kernel_path(PathChoice::Auto);

    // `single_mobilenet`: the single-CPU QUInt8 plan, one pool of two.
    let mobilenet = net(ModelId::MobileNet);
    let plan = single_processor_plan(&mobilenet.graph, &spec, spec.cpu(), DType::QUInt8).unwrap();
    let pools = ParallelBackend::new(&spec, &auto(2), PoolMode::SinglePool);
    let counts = frames("mobilenet q8", &mobilenet, &plan, &pools);
    assert_count_bound("mobilenet q8", &mobilenet, counts);
    let [(_, sequential), (_, pooled)] = counts;
    assert!(
        pooled <= sequential + ALLOWANCE_BYTES,
        "the pools allocate {pooled} bytes per frame, the sequential evaluator {sequential}"
    );

    // `coop_squeezenet`: the μLayer plan on cooperative pools, one
    // worker each.
    let squeezenet = net(ModelId::SqueezeNet);
    let plan = ulayer::ULayer::new(spec.clone())
        .unwrap()
        .plan(&squeezenet.graph)
        .unwrap()
        .plan;
    let pools = ParallelBackend::new(&spec, &auto(1), PoolMode::Cooperative);
    let counts = frames("squeezenet coop", &squeezenet, &plan, &pools);
    assert_count_bound("squeezenet coop", &squeezenet, counts);
}
