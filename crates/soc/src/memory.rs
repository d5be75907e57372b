//! Zero-copy shared CPU-GPU memory model.
//!
//! Mobile SoCs share one physical memory between CPU and GPU; §6 of the
//! paper exploits this through OpenCL buffers allocated with
//! `CL_MEM_ALLOC_HOST_PTR` and accessed via `clEnqueueMapBuffer` with
//! `CL_MAP_READ` / `CL_MAP_WRITE_INVALIDATE_REGION`. This module models
//! that lifecycle: buffers are allocated once, mapped for CPU access and
//! unmapped before GPU access, and *never copied*. The executor drives it
//! to account map/unmap latencies and to let tests assert the zero-copy
//! invariant (total copied bytes stays zero).

use std::collections::BTreeMap;

use crate::error::SocError;

/// Identifies an allocated shared buffer.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BufferId(pub usize);

/// How a mapped region is accessed by the CPU.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MapMode {
    /// `CL_MAP_READ`: CPU reads GPU-produced data.
    Read,
    /// `CL_MAP_WRITE_INVALIDATE_REGION`: CPU overwrites the region; no
    /// coherence traffic for the previous contents.
    WriteInvalidate,
}

#[derive(Clone, Debug)]
struct BufferState {
    size: usize,
    mapped: Option<MapMode>,
}

/// Counters describing a run's memory behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Buffers allocated over the lifetime.
    pub allocations: usize,
    /// Bytes currently allocated.
    pub live_bytes: usize,
    /// High-water mark of allocated bytes.
    pub peak_bytes: usize,
    /// Map operations performed.
    pub maps: usize,
    /// Unmap operations performed.
    pub unmaps: usize,
    /// Bytes copied between CPU and GPU address spaces. Zero-copy means
    /// this stays zero; it exists so tests can prove it.
    pub copied_bytes: usize,
}

/// The shared CPU-GPU memory of a simulated SoC.
#[derive(Clone, Debug, Default)]
pub struct SharedMemory {
    buffers: BTreeMap<BufferId, BufferState>,
    next_id: usize,
    stats: MemoryStats,
}

impl SharedMemory {
    /// An empty shared memory.
    pub fn new() -> SharedMemory {
        SharedMemory::default()
    }

    /// Allocates a zero-copy buffer (`CL_MEM_ALLOC_HOST_PTR`).
    pub fn alloc(&mut self, size: usize) -> BufferId {
        let id = BufferId(self.next_id);
        self.next_id += 1;
        self.buffers.insert(id, BufferState { size, mapped: None });
        self.stats.allocations += 1;
        self.stats.live_bytes += size;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.stats.live_bytes);
        id
    }

    /// Maps a buffer for CPU access.
    ///
    /// Double-mapping is a driver-usage bug and is rejected.
    pub fn map(&mut self, id: BufferId, mode: MapMode) -> Result<(), SocError> {
        let buf = self
            .buffers
            .get_mut(&id)
            .ok_or_else(|| SocError::Memory(format!("map of unknown buffer {id:?}")))?;
        if buf.mapped.is_some() {
            return Err(SocError::Memory(format!("buffer {id:?} is already mapped")));
        }
        buf.mapped = Some(mode);
        self.stats.maps += 1;
        Ok(())
    }

    /// Unmaps a buffer, releasing it for GPU access.
    pub fn unmap(&mut self, id: BufferId) -> Result<(), SocError> {
        let buf = self
            .buffers
            .get_mut(&id)
            .ok_or_else(|| SocError::Memory(format!("unmap of unknown buffer {id:?}")))?;
        if buf.mapped.is_none() {
            return Err(SocError::Memory(format!("buffer {id:?} is not mapped")));
        }
        buf.mapped = None;
        self.stats.unmaps += 1;
        Ok(())
    }

    /// Frees a buffer.
    ///
    /// Freeing while mapped or double-freeing is rejected.
    pub fn free(&mut self, id: BufferId) -> Result<(), SocError> {
        match self.buffers.get(&id) {
            None => Err(SocError::Memory(format!("double free of buffer {id:?}"))),
            Some(b) if b.mapped.is_some() => {
                Err(SocError::Memory(format!("free of mapped buffer {id:?}")))
            }
            Some(b) => {
                self.stats.live_bytes -= b.size;
                self.buffers.remove(&id);
                Ok(())
            }
        }
    }

    /// Size of a live buffer.
    #[cfg(test)]
    pub(crate) fn size_of(&self, id: BufferId) -> Option<usize> {
        self.buffers.get(&id).map(|b| b.size)
    }

    /// Whether a buffer is currently mapped.
    #[cfg(test)]
    pub(crate) fn is_mapped(&self, id: BufferId) -> bool {
        self.buffers
            .get(&id)
            .map(|b| b.mapped.is_some())
            .unwrap_or(false)
    }

    /// The run's counters.
    pub fn stats(&self) -> MemoryStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_round_trip() {
        let mut m = SharedMemory::new();
        let a = m.alloc(1024);
        let b = m.alloc(512);
        assert_eq!(m.stats().live_bytes, 1536);
        assert_eq!(m.stats().peak_bytes, 1536);
        m.free(a).unwrap();
        assert_eq!(m.stats().live_bytes, 512);
        assert_eq!(m.size_of(b), Some(512));
        assert_eq!(m.size_of(a), None);
        // Peak stays at the high-water mark.
        assert_eq!(m.stats().peak_bytes, 1536);
    }

    #[test]
    fn map_unmap_lifecycle() {
        let mut m = SharedMemory::new();
        let a = m.alloc(64);
        assert!(!m.is_mapped(a));
        m.map(a, MapMode::WriteInvalidate).unwrap();
        assert!(m.is_mapped(a));
        // Double map rejected.
        assert!(m.map(a, MapMode::Read).is_err());
        m.unmap(a).unwrap();
        assert!(!m.is_mapped(a));
        // Unmap of unmapped rejected.
        assert!(m.unmap(a).is_err());
        assert_eq!(m.stats().maps, 1);
        assert_eq!(m.stats().unmaps, 1);
    }

    #[test]
    fn misuse_rejected() {
        let mut m = SharedMemory::new();
        let a = m.alloc(8);
        m.map(a, MapMode::Read).unwrap();
        // Free while mapped.
        assert!(m.free(a).is_err());
        m.unmap(a).unwrap();
        m.free(a).unwrap();
        // Double free.
        assert!(m.free(a).is_err());
        // Operations on unknown ids.
        assert!(m.map(BufferId(99), MapMode::Read).is_err());
        assert!(m.unmap(BufferId(99)).is_err());
    }

    #[test]
    fn zero_copy_invariant() {
        let mut m = SharedMemory::new();
        let a = m.alloc(4096);
        m.map(a, MapMode::WriteInvalidate).unwrap();
        m.unmap(a).unwrap();
        m.map(a, MapMode::Read).unwrap();
        m.unmap(a).unwrap();
        m.free(a).unwrap();
        // The whole lifecycle moved zero copied bytes.
        assert_eq!(m.stats().copied_bytes, 0);
    }
}
