//! Reusable scratch buffers for the lowered kernel paths.
//!
//! The lowered kernels need working memory on every call: a convolution
//! lays its input out once as padded stride-phase planes (the depthwise
//! kernel one channel at a time), the blocked GEMMs pack panels of `B`
//! (and, on the f32 and `i16` tiles, of `A`) and run each `NC`-column
//! block of `C` in a scratch block (with, on the VNNI tier, the column
//! sums of `B`), and the LRN keeps its f32 input and output. (No
//! convolution builds an im2col patch matrix, or a block of one: the
//! `B` pack reads the phase planes in place.) On the real-execution backend
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

/// Typed scratch buffers shared by the GEMM, depthwise and LRN kernels.
///
/// Fields are public on purpose: the borrow checker can split borrows of
/// distinct fields, so a kernel can fill one buffer while it reads
/// another (the LRN's input and output planes, the GEMM's phase planes
/// and its `B` panel).
#[derive(Default, Debug)]
pub struct ScratchArena {
    /// A convolution's f32 phase planes (all channels); the direct f32
    /// depthwise's phase planes (one channel); the LRN's input, widened
    /// to f32.
    pub planes_f32: Vec<f32>,
    /// The F16 phase planes of a convolution or of the direct F16
    /// depthwise.
    pub planes_f16: Vec<F16>,
    /// The zero-point-padded QUInt8 phase planes of a convolution or of
    /// the direct QUInt8 depthwise.
    pub planes_u8: Vec<u8>,
    /// Packed `A` panel (f32 blocked GEMM).
    pub pack_a_f32: Vec<f32>,
    /// Packed `B` panel (f32 blocked GEMM).
    pub pack_b_f32: Vec<f32>,
    /// Packed `B` panel (F16 blocked GEMM).
    pub pack_b_f16: Vec<F16>,
    /// Packed `B` panel of the VNNI QUInt8 GEMM: `b − 128` as `i8`.
    pub pack_b_i8: Vec<i8>,
    /// The VNNI QUInt8 GEMM's column sums of `B` over one block, then
    /// its column terms.
    pub col_sums: Vec<i32>,
    /// Packed zero-point-subtracted `A` panel of the AVX2 and scalar
    /// QUInt8 GEMMs.
    pub pack_a_i16: Vec<i16>,
    /// Packed zero-point-subtracted `B` panel of the AVX2 and scalar
    /// QUInt8 GEMMs.
    pub pack_b_i16: Vec<i16>,
    /// The QUInt8 GEMM's `i32` sums over one `m × NC` block of `C`.
    pub acc_i32: Vec<i32>,
    /// The F16 GEMM's running sums over one `m × NC` block of `C`.
    pub acc_f16: Vec<F16>,
    /// The QUInt8 GEMM's per-row bias in the accumulator domain.
    pub row_bias: Vec<i32>,
    /// The F16 GEMM's per-row bias, narrowed to binary16 once per call.
    pub row_bias_f16: Vec<F16>,
    /// The f32 GEMM's running sums over one `m × NC` block of `C`; the
    /// LRN's f32 output.
    pub acc_f32: Vec<f32>,
}

impl ScratchArena {
    /// Total capacity currently held, in bytes. This is the arena's
    /// high-water footprint: it grows until the largest layer has been
    /// seen and then stays flat (the no-monotonic-growth invariant).
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.planes_f32.capacity() * 4
            + self.planes_f16.capacity() * 2
            + self.planes_u8.capacity()
            + self.pack_a_f32.capacity() * 4
            + self.pack_b_f32.capacity() * 4
            + self.pack_b_f16.capacity() * 2
            + self.pack_b_i8.capacity()
            + self.col_sums.capacity() * 4
            + self.pack_a_i16.capacity() * 2
            + self.pack_b_i16.capacity() * 2
            + self.acc_i32.capacity() * 4
            + self.acc_f16.capacity() * 2
            + self.row_bias.capacity() * 4
            + self.row_bias_f16.capacity() * 2
            + self.acc_f32.capacity() * 4
    }
}

thread_local! {
    static THREAD_ARENA: RefCell<ScratchArena> = RefCell::new(ScratchArena::default());
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
        let mut a = ScratchArena::default();
        assert_eq!(a.capacity_bytes(), 0);
        a.planes_f32.reserve_exact(10);
        a.acc_i32.reserve_exact(3);
        a.pack_a_i16.reserve_exact(5);
        assert_eq!(
            a.capacity_bytes(),
            a.planes_f32.capacity() * 4 + a.acc_i32.capacity() * 4 + a.pack_a_i16.capacity() * 2
        );
    }

    #[test]
    fn take_restore_keeps_the_larger_arena() {
        // Warm the thread arena, take it, restore: capacity survives.
        let mut a = take_thread_arena();
        a.planes_f32.reserve_exact(1024);
        let warmed = a.capacity_bytes();
        restore_thread_arena(a);
        assert_eq!(thread_arena_capacity_bytes(), warmed);
        // A smaller arena restored on top does not clobber the warm one.
        restore_thread_arena(ScratchArena::default());
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
