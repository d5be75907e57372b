//! Reusable scratch buffers for the lowered kernel paths.
//!
//! Convolution via im2col + GEMM is allocation-hungry when written
//! naively: every call materializes a patch matrix, the quantized GEMM
//! needs an `i32` accumulator row, and the blocked kernels pack panels of
//! `A` and `B` into contiguous tiles. On the real-execution backend
//! (`crates/exec`) those allocations would land in every worker's inner
//! loop, so all of them are routed through a [`ScratchArena`]: a bag of
//! typed buffers that grow to the high-water mark of the layers they have
//! served and are then reused verbatim.
//!
//! Two access styles:
//!
//! - **Explicit** — the blocked kernels take `&mut ScratchArena`; callers
//!   that own worker threads (the exec backend) keep one arena per worker.
//! - **Thread-local** — the classic `conv2d`/`fully_connected`/GEMM entry
//!   points keep their public signatures and borrow buffers from a
//!   per-thread arena through a [`ThreadArenaGuard`] (take on entry,
//!   put back on drop — error paths included — so nested kernel calls
//!   can never double-borrow).
//!
//! The arena never shrinks; [`ScratchArena::capacity_bytes`] exposes the
//! footprint so tests can assert that repeated layer executions reuse
//! capacity instead of growing monotonically.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

use utensor::F16;

/// Typed scratch buffers shared by the im2col/GEMM kernel paths.
///
/// Fields are public on purpose: the borrow checker can split borrows of
/// distinct fields, which is exactly what `im2col` output + pack buffers
/// need (`patches` is read while `pack_a`/`pack_b` are written).
#[derive(Default, Debug)]
pub struct ScratchArena {
    /// im2col patch matrix, f32 path; the direct depthwise's padded
    /// plane.
    pub patches_f32: Vec<f32>,
    /// im2col patch matrix, F16 path; the direct depthwise's padded
    /// plane.
    pub patches_f16: Vec<F16>,
    /// im2col patch matrix, QUInt8 path; the direct depthwise's
    /// zero-point-padded plane.
    pub patches_u8: Vec<u8>,
    /// Packed `A` panel (f32 blocked GEMM).
    pub pack_a_f32: Vec<f32>,
    /// Packed `B` panel (f32 blocked GEMM).
    pub pack_b_f32: Vec<f32>,
    /// Packed `A` panel (F16 blocked GEMM): binary16, as the tiles read
    /// it.
    pub pack_a_f16: Vec<F16>,
    /// Packed `B` panel (F16 blocked GEMM).
    pub pack_b_f16: Vec<F16>,
    /// Packed zero-point-subtracted `A` panel (QUInt8 blocked GEMM).
    pub pack_a_i16: Vec<i16>,
    /// Packed zero-point-subtracted `B` panel (QUInt8 blocked GEMM).
    pub pack_b_i16: Vec<i16>,
    /// `i32` accumulators (QUInt8 GEMM row / blocked `m × n` sums /
    /// direct depthwise plane).
    pub acc_i32: Vec<i32>,
    /// Accumulators of the direct f32 depthwise plane.
    pub acc_f32: Vec<f32>,
    /// Accumulators of the direct F16 depthwise plane.
    pub acc_f16: Vec<F16>,
}

impl ScratchArena {
    /// A fresh, empty arena.
    pub fn new() -> ScratchArena {
        ScratchArena::default()
    }

    /// Total capacity currently held, in bytes. This is the arena's
    /// high-water footprint: it grows until the largest layer has been
    /// seen and then stays flat (the no-monotonic-growth invariant).
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.patches_f32.capacity() * 4
            + self.patches_f16.capacity() * 2
            + self.patches_u8.capacity()
            + self.pack_a_f32.capacity() * 4
            + self.pack_b_f32.capacity() * 4
            + self.pack_a_f16.capacity() * 2
            + self.pack_b_f16.capacity() * 2
            + self.pack_a_i16.capacity() * 2
            + self.pack_b_i16.capacity() * 2
            + self.acc_i32.capacity() * 4
            + self.acc_f32.capacity() * 4
            + self.acc_f16.capacity() * 2
    }
}

thread_local! {
    static THREAD_ARENA: RefCell<ScratchArena> = RefCell::new(ScratchArena::new());
}

/// Takes the calling thread's arena, leaving an empty one in its place.
///
/// Pair with [`restore_thread_arena`]; the take/put-back protocol means a
/// kernel that holds the arena can call other kernels (which will take
/// the fresh placeholder) without `RefCell` double-borrow panics — at
/// worst a nested call allocates once into the placeholder and the
/// capacities merge back on restore.
pub(crate) fn take_thread_arena() -> ScratchArena {
    THREAD_ARENA.with(|a| std::mem::take(&mut *a.borrow_mut()))
}

/// Returns a previously taken arena to the calling thread. Whichever of
/// the returned arena and the placeholder a nested call may have grown
/// holds more capacity is kept *whole* (buffers are not merged one by
/// one), so the footprint ratchets up to the high-water mark.
pub(crate) fn restore_thread_arena(arena: ScratchArena) {
    THREAD_ARENA.with(|slot| {
        let mut cur = slot.borrow_mut();
        if cur.capacity_bytes() <= arena.capacity_bytes() {
            *cur = arena;
        }
    });
}

/// The calling thread's arena, held for a scope: [`take_thread_arena`]
/// on construction, [`restore_thread_arena`] on drop. Kernels hold the
/// arena through this guard so an early `return Err` / `?` cannot drop
/// the warmed buffers.
pub(crate) struct ThreadArenaGuard(ScratchArena);

impl ThreadArenaGuard {
    /// Takes the calling thread's arena until the guard drops.
    pub(crate) fn take() -> ThreadArenaGuard {
        ThreadArenaGuard(take_thread_arena())
    }
}

impl Deref for ThreadArenaGuard {
    type Target = ScratchArena;
    fn deref(&self) -> &ScratchArena {
        &self.0
    }
}

impl DerefMut for ThreadArenaGuard {
    fn deref_mut(&mut self) -> &mut ScratchArena {
        &mut self.0
    }
}

impl Drop for ThreadArenaGuard {
    fn drop(&mut self) {
        restore_thread_arena(std::mem::take(&mut self.0));
    }
}

/// Capacity currently held by the calling thread's arena, in bytes.
///
/// Test hook for the reuse invariant: run a workload once to warm the
/// arena, record this value, run the workload again many times, and
/// assert the value never grows.
pub fn thread_arena_capacity_bytes() -> usize {
    THREAD_ARENA.with(|a| a.borrow().capacity_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_counts_all_buffers() {
        let mut a = ScratchArena::new();
        assert_eq!(a.capacity_bytes(), 0);
        a.patches_f32.reserve_exact(10);
        a.acc_i32.reserve_exact(3);
        a.pack_a_i16.reserve_exact(5);
        assert_eq!(
            a.capacity_bytes(),
            a.patches_f32.capacity() * 4 + a.acc_i32.capacity() * 4 + a.pack_a_i16.capacity() * 2
        );
    }

    #[test]
    fn take_restore_keeps_the_larger_arena() {
        // Warm the thread arena, take it, restore: capacity survives.
        let mut a = take_thread_arena();
        a.patches_f32.reserve_exact(1024);
        let warmed = a.capacity_bytes();
        restore_thread_arena(a);
        assert_eq!(thread_arena_capacity_bytes(), warmed);
        // A smaller arena restored on top does not clobber the warm one.
        restore_thread_arena(ScratchArena::new());
        assert_eq!(thread_arena_capacity_bytes(), warmed);
    }

    #[test]
    fn guard_restores_on_every_exit() {
        fn fails_midway() -> Result<(), ()> {
            let mut arena = ThreadArenaGuard::take();
            arena.pack_b_i16.reserve_exact(4096);
            Err(())
        }
        assert!(fails_midway().is_err());
        assert!(thread_arena_capacity_bytes() >= 4096 * 2);
    }

    #[test]
    fn nested_take_is_safe() {
        let outer = take_thread_arena();
        let inner = take_thread_arena(); // placeholder, empty
        assert_eq!(inner.capacity_bytes(), 0);
        restore_thread_arena(inner);
        restore_thread_arena(outer);
    }
}
