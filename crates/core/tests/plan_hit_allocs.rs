//! Heap traffic of a `PlannerSession` cache hit, counted by this test
//! binary's own global allocator.
//!
//! A hit reads the graph's stored digest, rebuilds the frame's drift
//! snapshot and key in the session's buffers and clones an `Arc`, so
//! its work does not grow with the graph: a hit on full GoogLeNet
//! allocates exactly what a hit on SqueezeNet-miniature does — nothing,
//! under either reuse policy. The file holds a single test so nothing
//! else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use simcore::SimSpan;
use ulayer::{DriftAdapter, PlanSource, PlannerSession, ReusePolicy, ULayer};
use unn::ModelId;
use usoc::{SocSpec, WorkClass};

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

/// `(allocations, bytes)` of one cache hit on `model`'s graph under a
/// drifted GPU, after the miss that fills the cache.
fn hit(rt: &ULayer, model: ModelId, full: bool, policy: ReusePolicy) -> (usize, usize) {
    let graph = if full {
        model.build()
    } else {
        model.build_miniature()
    };
    let mut drift = DriftAdapter::new();
    drift.observe(
        rt.spec().gpu(),
        WorkClass::Gemm,
        SimSpan::from_micros(100),
        SimSpan::from_micros(300),
    );
    let mut session = PlannerSession::new(rt, policy);
    session.plan_frame(&graph, Some(&drift)).unwrap();
    let (a0, b0) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let frame = session.plan_frame(&graph, Some(&drift)).unwrap();
    let (a1, b1) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    assert_eq!(frame.source, PlanSource::CacheHit);
    (a1 - a0, b1 - b0)
}

#[test]
fn a_cache_hit_allocates_the_same_on_any_graph() {
    let rt = ULayer::new(SocSpec::exynos_7420()).unwrap();
    for policy in [ReusePolicy::Bucketed, ReusePolicy::Exact] {
        let small = hit(&rt, ModelId::SqueezeNet, false, policy);
        let large = hit(&rt, ModelId::GoogLeNet, true, policy);
        println!("{policy:?} hit: SqueezeNet-miniature {small:?}, GoogLeNet {large:?} (allocations, bytes)");
        assert_eq!(
            small.1, large.1,
            "{policy:?}: hit bytes grow with the graph"
        );
        assert_eq!(large, (0, 0), "{policy:?}: a hit allocates");
    }
}
