//! Simulated mobile SoC for the μLayer reproduction.
//!
//! The paper evaluates on Samsung Exynos 7420 and 7880 phones; this crate
//! replaces that hardware with calibrated models (see DESIGN.md §2 for the
//! substitution argument). Its surface:
//!
//! - [`SocSpec`] — the SoC: CPU cluster / GPU / NPU devices with per-dtype
//!   effective throughput (calibrated to the paper's §3.1 and §4.1
//!   measurements), shared memory, §6 management overheads (async GPU
//!   command issue, sync, zero-copy map/unmap), and the typed device
//!   interconnect (zero-copy shared memory vs. serial network links);
//!   [`SocSpec::exynos_7420`] and [`SocSpec::exynos_7880`] are the presets.
//! - [`KernelWork`] / [`layer_work`] — kernel cost descriptors; separates
//!   storage dtype (memory traffic) from compute dtype (ALU rate), which is
//!   how processor-friendly quantization's GPU path is expressed
//!   ([`DtypePlan`]).
//! - [`SharedMemory`] — the zero-copy shared-buffer lifecycle model.
//! - [`EnergyAccumulator`] — the Monsoon-style energy integration
//!   (Figure 15).
//! - [`profile_graph`] — per-layer single-device profiling (Figure 5) and
//!   the latency predictor's training-data source.

#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod device;
mod energy;
mod error;
mod link;
mod memory;
mod profiler;
mod spec;
mod work;

pub use device::{DeviceId, DeviceKind};
pub use energy::{EnergyAccumulator, EnergyBreakdown};
pub use error::SocError;
pub use memory::{BufferId, MapMode, MemoryStats, SharedMemory};
pub use profiler::{profile_graph, single_layer_latency, total_latency};
pub use spec::SocSpec;
pub use work::{
    layer_work, realized_fractions, split_channel_count, split_cuts, split_weight_elems, DtypePlan,
    KernelWork, WorkClass,
};
