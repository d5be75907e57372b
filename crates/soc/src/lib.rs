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
//!   [`SocSpec::exynos_7420`], [`SocSpec::exynos_7880`] and
//!   [`SocSpec::mcu_mesh`] are the presets. The crate prices the §6
//!   spans and keeps no buffer state: the engine schedules each map and
//!   unmap as a host task, and sums a run's buffers from the plan's
//!   layout.
//! - [`KernelWork`] / [`layer_work`] — kernel cost descriptors; separates
//!   storage dtype (memory traffic) from compute dtype (ALU rate), which is
//!   how processor-friendly quantization's GPU path is expressed
//!   ([`DtypePlan`]).
//! - [`EnergyAccumulator`] — the Monsoon-style energy integration
//!   (Figure 15).
//! - [`single_layer_latency`] — one layer on one device, synchronously
//!   (Figure 5 and the layer-to-processor baseline).

#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod device;
mod energy;
mod error;
mod link;
mod profiler;
mod spec;
mod work;

pub use device::{DeviceId, DeviceKind};
pub use energy::{EnergyAccumulator, EnergyBreakdown};
pub use error::SocError;
pub use profiler::single_layer_latency;
pub use spec::SocSpec;
pub use work::{layer_work, split_cuts, DtypePlan, KernelWork, WorkClass};
