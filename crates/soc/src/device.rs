//! Simulated processors of a mobile SoC.
//!
//! A [`DeviceSpec`] captures what the timing model needs to know about a
//! processor: its effective multiply-accumulate throughput *per data
//! type* and its active power draw. The per-dtype throughput table is the
//! heart of the reproduction's calibration — it encodes the paper's §3.1
//! and §4.1 measurements (CPU/GPU balance, F16 vs QUInt8 preferences) so
//! that the runtime mechanisms face the same trade-offs the real Exynos
//! SoCs pose.

use std::fmt;

use utensor::DType;

/// The class of a processor.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum DeviceKind {
    /// A CPU cluster (all cores used together, as ACL does).
    CpuCluster,
    /// A GPU (all shader cores).
    Gpu,
    /// A neural processing unit (the §8.3 extension; QUInt8-only fast
    /// path).
    Npu,
}

impl DeviceKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            DeviceKind::CpuCluster => "CPU",
            DeviceKind::Gpu => "GPU",
            DeviceKind::Npu => "NPU",
        }
    }
}

impl fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Identifies a device within a [`crate::SocSpec`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct DeviceId(pub usize);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev#{}", self.0)
    }
}

/// Effective throughput of a device per data type, in GMAC/s.
///
/// "Effective" means achieved GEMM throughput (peak × typical
/// utilization), which is what end-to-end layer latency tracks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Throughput {
    /// F32 multiply-accumulates per second, in units of 10^9.
    pub f32_gmacs: f64,
    /// F16 effective throughput. On CPUs without native F16 vector ALUs
    /// this equals the F32 rate (emulation, §4.1).
    pub f16_gmacs: f64,
    /// QUInt8 effective throughput (i32-accumulated 8-bit MACs).
    pub quint8_gmacs: f64,
}

impl Throughput {
    /// The rate for a compute dtype.
    pub(crate) fn for_dtype(&self, dtype: DType) -> f64 {
        match dtype {
            DType::F32 => self.f32_gmacs,
            DType::F16 => self.f16_gmacs,
            DType::QUInt8 => self.quint8_gmacs,
        }
    }
}

/// A simulated processor.
#[derive(Clone, Debug)]
pub struct DeviceSpec {
    /// Human-readable name (e.g. `"4x Cortex-A57"`).
    pub name: String,
    /// Processor class.
    pub kind: DeviceKind,
    /// Number of cores (reporting only; throughput already aggregates).
    pub cores: usize,
    /// Effective per-dtype throughput.
    pub throughput: Throughput,
    /// Power draw while executing, in watts.
    pub active_power_w: f64,
    /// Per-kernel fixed launch overhead on this device, excluding any
    /// host-side command issue (see [`crate::Overheads`]).
    pub kernel_overhead_us: f64,
    /// Data types this device supports natively. Scheduling a kernel with
    /// an unsupported compute dtype is an error (e.g. float work on an
    /// NPU).
    pub supported: Vec<DType>,
    /// Local working memory available to one kernel, bytes. `None` (the
    /// SoC default) means the device works out of shared DRAM and is not
    /// RAM-constrained; `Some(n)` models an MCU-style node whose weights
    /// and activations must fit in `n` bytes, which forces the
    /// partitioner to split layers whose working set exceeds it.
    pub ram_bytes: Option<u64>,
}

impl DeviceSpec {
    /// True when the device can compute in `dtype`.
    pub fn supports(&self, dtype: DType) -> bool {
        self.supported.contains(&dtype)
    }

    /// True when a kernel with working set `bytes` fits this device's
    /// local RAM (always true for unconstrained devices).
    pub fn fits_in_ram(&self, bytes: u64) -> bool {
        self.ram_bytes.map(|ram| bytes <= ram).unwrap_or(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DeviceSpec {
        DeviceSpec {
            name: "test-cpu".into(),
            kind: DeviceKind::CpuCluster,
            cores: 4,
            throughput: Throughput {
                f32_gmacs: 10.0,
                f16_gmacs: 10.0,
                quint8_gmacs: 22.0,
            },
            active_power_w: 2.0,
            kernel_overhead_us: 5.0,
            supported: vec![DType::F32, DType::F16, DType::QUInt8],
            ram_bytes: None,
        }
    }

    #[test]
    fn throughput_lookup() {
        let s = spec();
        assert_eq!(s.throughput.for_dtype(DType::F32), 10.0);
        assert_eq!(s.throughput.for_dtype(DType::QUInt8), 22.0);
    }

    #[test]
    fn ram_limit_gates_working_sets() {
        let mut s = spec();
        assert!(s.fits_in_ram(u64::MAX));
        s.ram_bytes = Some(1024);
        assert!(s.fits_in_ram(1024));
        assert!(!s.fits_in_ram(1025));
    }

    #[test]
    fn support_check() {
        let mut s = spec();
        s.supported = vec![DType::QUInt8];
        assert!(s.supports(DType::QUInt8));
        assert!(!s.supports(DType::F32));
    }
}
