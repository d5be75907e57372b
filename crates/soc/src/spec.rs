//! SoC specifications: devices + memory + overheads, with the two Exynos
//! presets the paper evaluates on.
//!
//! ## Calibration
//!
//! The throughput tables are calibrated so the simulated SoCs reproduce
//! the paper's measured *relationships* (the absolute numbers of a
//! simulator are not meaningful; the ratios are):
//!
//! - §3.1 / Figure 5: on the high-end SoC the GPU averages a 1.40× F32
//!   speedup over the CPU; on the mid-range SoC the CPU is ~26.1% *lower*
//!   latency than the GPU.
//! - §4.1 / Figure 8: CPUs gain ~2.2–2.3× from QUInt8 and nothing from
//!   F16 (no native vector F16); GPUs gain ~1.85× from F16 while QUInt8
//!   is slightly *slower* than F32 on the GPU (32-bit accumulation halves
//!   16-bit concurrency).
//! - §6: GPU work passes through an asynchronous command queue with
//!   host-side issue latency; CPU↔GPU data sharing is zero-copy but
//!   map/unmap and the cooperative merge cost synchronization time.

use simcore::SimSpan;
use utensor::DType;

use crate::device::{DeviceId, DeviceKind, DeviceSpec, Throughput};
use crate::error::SocError;
use crate::link::{Link, LinkSpec};
use crate::work::KernelWork;

/// Shared-memory system parameters.
#[derive(Clone, Copy, Debug)]
pub struct MemorySpec {
    /// Achievable DRAM bandwidth, GB/s (shared by all processors).
    pub bandwidth_gbps: f64,
    /// Energy per byte moved to/from DRAM, picojoules.
    pub dram_pj_per_byte: f64,
}

/// Multi-processor management overheads (§6).
#[derive(Clone, Copy, Debug)]
pub struct Overheads {
    /// Host-side latency to issue one asynchronous GPU command, µs.
    pub gpu_issue_us: f64,
    /// Host-side latency to wait/synchronize on GPU completion, µs.
    pub gpu_wait_us: f64,
    /// Latency of one zero-copy map or unmap operation, µs.
    pub map_us: f64,
    /// CPU-side kernel dispatch overhead, µs.
    pub cpu_dispatch_us: f64,
}

/// A simulated mobile SoC.
///
/// # Examples
///
/// ```
/// use usoc::{KernelWork, SocSpec, WorkClass};
/// use utensor::DType;
///
/// let soc = SocSpec::exynos_7420();
/// let work = KernelWork {
///     class: WorkClass::Gemm,
///     macs: 100_000_000,
///     bytes_in: 100_000,
///     bytes_weights: 10_000,
///     bytes_out: 100_000,
///     compute_dtype: DType::F16,
/// };
/// // The GPU's F16 fast path beats the CPU's emulated F16.
/// let cpu = soc.kernel_latency(soc.cpu(), &work).unwrap();
/// let gpu = soc.kernel_latency(soc.gpu(), &work).unwrap();
/// assert!(gpu < cpu);
/// ```
#[derive(Clone, Debug)]
pub struct SocSpec {
    /// Marketing name (e.g. `"Exynos 7420 (high-end)"`).
    pub name: String,
    /// Processors, CPU cluster first by convention.
    pub devices: Vec<DeviceSpec>,
    /// The device interconnect. **Empty means the legacy topology**:
    /// every device pair shares zero-copy memory, so transfers are free
    /// and all devices are mutually reachable (every pre-link preset
    /// keeps byte-identical behavior). A non-empty table makes
    /// connectivity explicit: only listed pairs are joined, and
    /// transfers route hop-by-hop over the listed `Link`s.
    pub links: Vec<LinkSpec>,
    /// Shared memory system.
    pub memory: MemorySpec,
    /// Multi-processor management overheads.
    pub overheads: Overheads,
    /// Always-on SoC power (rails, DRAM refresh, idle cores), watts.
    pub static_power_w: f64,
}

impl SocSpec {
    /// Samsung Exynos 7420 — the paper's high-end SoC (Galaxy Note 5):
    /// 4× Cortex-A57 @2.1 GHz (+4× A53 little cores unused by ACL's
    /// big-cluster configuration), Mali-T760 MP8 @700 MHz.
    pub fn exynos_7420() -> SocSpec {
        SocSpec {
            name: "Exynos 7420 (high-end)".into(),
            devices: vec![
                DeviceSpec {
                    name: "4x Cortex-A57 @2.1GHz".into(),
                    kind: DeviceKind::CpuCluster,
                    cores: 4,
                    throughput: Throughput {
                        f32_gmacs: 14.0,
                        // Emulated via F32 with per-element conversion
                        // overhead (§4.1): the conversion cost offsets the
                        // halved memory traffic, so F16 shows "no
                        // performance difference" end to end.
                        f16_gmacs: 11.9,
                        quint8_gmacs: 30.8,
                    },
                    // A 4x A57 cluster under sustained NEON load.
                    active_power_w: 4.2,
                    // Fixed per-kernel cost: im2col staging + thread-pool
                    // fork/join in ACL's NEON backend.
                    kernel_overhead_us: 120.0,
                    supported: vec![DType::F32, DType::F16, DType::QUInt8],
                    ram_bytes: None,
                },
                DeviceSpec {
                    name: "Mali-T760 MP8 @700MHz".into(),
                    kind: DeviceKind::Gpu,
                    cores: 8,
                    throughput: Throughput {
                        f32_gmacs: 19.6, // 1.40x the CPU (Figure 5)
                        f16_gmacs: 36.2,
                        quint8_gmacs: 17.6, // i32 accumulation penalty
                    },
                    // Mobile GPUs trade peak speed for efficiency: the
                    // Mali's joules-per-MAC at F16 is well below the CPU's
                    // at QUInt8, which is what makes cooperative execution
                    // an energy win (§7.3).
                    active_power_w: 2.0,
                    // Mali kernel setup/teardown per enqueued job.
                    kernel_overhead_us: 180.0,
                    supported: vec![DType::F32, DType::F16, DType::QUInt8],
                    ram_bytes: None,
                },
            ],
            links: Vec::new(),
            memory: MemorySpec {
                bandwidth_gbps: 24.8,
                dram_pj_per_byte: 120.0,
            },
            overheads: Overheads {
                gpu_issue_us: 100.0,
                gpu_wait_us: 180.0,
                map_us: 40.0,
                cpu_dispatch_us: 5.0,
            },
            static_power_w: 0.9,
        }
    }

    /// Samsung Exynos 7880 — the paper's mid-range SoC (Galaxy A5):
    /// 8× Cortex-A53 @1.9 GHz, Mali-T830 MP3 @962 MHz. The octa-core CPU
    /// outruns the small GPU at F32 by ~26% (Figure 5b).
    pub fn exynos_7880() -> SocSpec {
        SocSpec {
            name: "Exynos 7880 (mid-range)".into(),
            devices: vec![
                DeviceSpec {
                    name: "8x Cortex-A53 @1.9GHz".into(),
                    kind: DeviceKind::CpuCluster,
                    cores: 8,
                    throughput: Throughput {
                        f32_gmacs: 11.4,
                        f16_gmacs: 9.7, // emulated via F32 (§4.1)
                        // The A53's int8 SIMD gain is smaller than the
                        // A57's (no wide multiply-accumulate pipes), so
                        // CPU-QUInt8 and GPU-F16 are closer to balanced
                        // on the mid-range part.
                        quint8_gmacs: 23.2,
                    },
                    active_power_w: 2.8, // 8x A53 under sustained NEON load
                    kernel_overhead_us: 150.0,
                    supported: vec![DType::F32, DType::F16, DType::QUInt8],
                    ram_bytes: None,
                },
                DeviceSpec {
                    name: "Mali-T830 MP3 @962MHz".into(),
                    kind: DeviceKind::Gpu,
                    cores: 3,
                    throughput: Throughput {
                        f32_gmacs: 8.4,  // CPU is ~26% faster (Figure 5b)
                        f16_gmacs: 16.6, // just below 2x: F16 halves both
                        // ALU width and traffic on this bandwidth-starved
                        // part
                        quint8_gmacs: 7.6,
                    },
                    active_power_w: 0.9, // Mali-T830 MP3 is a small, efficient part
                    kernel_overhead_us: 250.0,
                    supported: vec![DType::F32, DType::F16, DType::QUInt8],
                    ram_bytes: None,
                },
            ],
            links: Vec::new(),
            memory: MemorySpec {
                bandwidth_gbps: 13.0,
                dram_pj_per_byte: 140.0,
            },
            overheads: Overheads {
                gpu_issue_us: 130.0,
                gpu_wait_us: 220.0,
                map_us: 50.0,
                cpu_dispatch_us: 6.0,
            },
            static_power_w: 0.7,
        }
    }

    /// The two evaluated SoCs, high-end first (the paper's figure order).
    pub fn evaluated() -> Vec<SocSpec> {
        vec![SocSpec::exynos_7420(), SocSpec::exynos_7880()]
    }

    /// Adds a mobile NPU (the §8.3 extension): a QUInt8-only accelerator
    /// with high 8-bit throughput.
    pub fn with_npu(mut self) -> SocSpec {
        self.devices.push(DeviceSpec {
            name: "NPU (2-TOPS class)".into(),
            kind: DeviceKind::Npu,
            cores: 1,
            throughput: Throughput {
                f32_gmacs: 0.0,
                f16_gmacs: 0.0,
                quint8_gmacs: 55.0,
            },
            active_power_w: 1.1,
            kernel_overhead_us: 25.0,
            supported: vec![DType::QUInt8],
            ram_bytes: None,
        });
        self.name.push_str(" + NPU");
        self
    }

    /// An MCU-style mesh of `nodes` (clamped to 2..=8) identical
    /// Cortex-M7-class nodes in a line topology, joined by 100 Mbps
    /// network links. Each node's working memory is capped at
    /// [`SocSpec::MCU_RAM_BYTES`], so layers whose weights + activations
    /// exceed it *cannot* run on one node — the split is forced by RAM,
    /// not latency (the networked-microcontroller scenario). Node 0 is
    /// the host: inputs arrive there and merges run there.
    pub fn mcu_mesh(nodes: usize) -> SocSpec {
        let n = nodes.clamp(2, 8);
        let devices = (0..n)
            .map(|k| DeviceSpec {
                name: format!("MCU node {k} (M7-class)"),
                kind: DeviceKind::CpuCluster,
                cores: 1,
                throughput: Throughput {
                    f32_gmacs: 0.05,
                    f16_gmacs: 0.05, // emulated via F32, like the A53
                    quint8_gmacs: 0.2,
                },
                active_power_w: 0.25,
                kernel_overhead_us: 40.0,
                supported: vec![DType::F32, DType::F16, DType::QUInt8],
                ram_bytes: Some(SocSpec::MCU_RAM_BYTES),
            })
            .collect();
        let links = (0..n - 1)
            .map(|k| LinkSpec {
                a: DeviceId(k),
                b: DeviceId(k + 1),
                link: Link::Network {
                    bandwidth_mbps: 100.0,
                    base_latency_us: 500.0,
                    mtu_bytes: 1500,
                },
            })
            .collect();
        SocSpec {
            name: format!("MCU mesh ({n} nodes)"),
            devices,
            links,
            memory: MemorySpec {
                // Per-node SRAM bandwidth; there is no shared DRAM.
                bandwidth_gbps: 1.2,
                dram_pj_per_byte: 25.0,
            },
            overheads: Overheads {
                // No GPU on the mesh; issue/wait/map still price any
                // hypothetical accelerator attach.
                gpu_issue_us: 50.0,
                gpu_wait_us: 50.0,
                map_us: 20.0,
                cpu_dispatch_us: 15.0,
            },
            static_power_w: 0.05,
        }
    }

    /// Per-node working memory of [`SocSpec::mcu_mesh`], bytes. Sized so
    /// real CNN layers overflow a single node (forcing cross-node
    /// splits) while fractional parts still fit.
    pub const MCU_RAM_BYTES: u64 = 192 * 1024;

    /// The device table.
    pub fn device(&self, id: DeviceId) -> Result<&DeviceSpec, SocError> {
        self.devices.get(id.0).ok_or(SocError::UnknownDevice(id))
    }

    /// True when any link of the spec is a network link (the spec has
    /// non-trivial transfer costs and link fault domains). Legacy
    /// shared-memory specs — including any with an empty link table —
    /// return false.
    pub fn has_network_links(&self) -> bool {
        self.links.iter().any(|l| l.link.is_network())
    }

    /// The shortest route from `from` to `to` as link indices, skipping
    /// the links listed in `down` (a partition under repair). BFS over
    /// the link table, deterministic in table order. With an empty link
    /// table every pair is directly joined (the empty route); `None`
    /// means `to` is unreachable — partitioned off or unknown.
    pub fn route_avoiding(
        &self,
        from: DeviceId,
        to: DeviceId,
        down: &[usize],
    ) -> Option<Vec<usize>> {
        if from.0 >= self.devices.len() || to.0 >= self.devices.len() {
            return None;
        }
        if from == to || self.links.is_empty() {
            return Some(Vec::new());
        }
        // BFS; predecessor chain stores (device, link index used).
        let mut prev: Vec<Option<(usize, usize)>> = vec![None; self.devices.len()];
        let mut visited = vec![false; self.devices.len()];
        visited[from.0] = true;
        let mut frontier = std::collections::VecDeque::from([from]);
        while let Some(d) = frontier.pop_front() {
            for (j, l) in self.links.iter().enumerate() {
                if down.contains(&j) {
                    continue;
                }
                let Some(next) = l.other_end(d) else { continue };
                if next.0 >= self.devices.len() || visited[next.0] {
                    continue;
                }
                visited[next.0] = true;
                prev[next.0] = Some((d.0, j));
                if next == to {
                    let mut route = Vec::new();
                    let mut cur = to.0;
                    while let Some((p, link)) = prev[cur] {
                        route.push(link);
                        cur = p;
                    }
                    route.reverse();
                    return Some(route);
                }
                frontier.push_back(next);
            }
        }
        None
    }

    /// [`SocSpec::route_avoiding`] with every link up.
    pub fn route(&self, from: DeviceId, to: DeviceId) -> Option<Vec<usize>> {
        self.route_avoiding(from, to, &[])
    }

    /// The span of moving `bytes` from `from` to `to` hop-by-hop along
    /// the shortest route (store-and-forward). Zero over shared memory;
    /// `None` when no route exists.
    pub fn transfer_span(&self, from: DeviceId, to: DeviceId, bytes: u64) -> Option<SimSpan> {
        let route = self.route(from, to)?;
        Some(
            route
                .iter()
                .map(|&j| self.links[j].link.transfer_span(bytes))
                .sum(),
        )
    }

    /// All device ids.
    pub fn device_ids(&self) -> Vec<DeviceId> {
        (0..self.devices.len()).map(DeviceId).collect()
    }

    /// The first CPU cluster.
    ///
    /// # Panics
    ///
    /// Panics if the SoC has no CPU (specs always include one).
    pub fn cpu(&self) -> DeviceId {
        self.find(DeviceKind::CpuCluster).expect("SoC has a CPU")
    }

    /// The first GPU.
    ///
    /// # Panics
    ///
    /// Panics if the SoC has no GPU. The evaluated SoCs all have one;
    /// [`SocSpec::mcu_mesh`] does not, so code that can be handed an
    /// arbitrary spec asks [`SocSpec::find`] instead.
    pub fn gpu(&self) -> DeviceId {
        self.find(DeviceKind::Gpu).expect("SoC has a GPU")
    }

    /// The first device of a kind, if present.
    pub fn find(&self, kind: DeviceKind) -> Option<DeviceId> {
        self.devices
            .iter()
            .position(|d| d.kind == kind)
            .map(DeviceId)
    }

    /// Latency of one kernel on one device: a roofline over compute and
    /// memory, plus the device's fixed per-kernel overhead.
    ///
    /// Host-side costs (GPU command issue, sync) are *not* included —
    /// they are separate tasks on the CPU timeline, so the executors can
    /// overlap them exactly as §6 describes.
    pub fn kernel_latency(&self, id: DeviceId, work: &KernelWork) -> Result<SimSpan, SocError> {
        let dev = self.device(id)?;
        if work.macs > 0 && !dev.supports(work.compute_dtype) {
            return Err(SocError::UnsupportedDtype {
                device: dev.name.clone(),
                dtype: work.compute_dtype,
            });
        }
        let rate = dev.throughput.for_dtype(work.compute_dtype) * 1e9 * work.class.efficiency();
        let compute_s = if work.macs == 0 {
            0.0
        } else {
            work.macs as f64 / rate
        };
        let memory_s = work.total_bytes() as f64 / (self.memory.bandwidth_gbps * 1e9);
        let overhead_s = dev.kernel_overhead_us * 1e-6;
        Ok(SimSpan::from_secs_f64(compute_s.max(memory_s) + overhead_s))
    }

    /// Host-side span of issuing one asynchronous GPU command.
    pub fn gpu_issue_span(&self) -> SimSpan {
        SimSpan::from_secs_f64(self.overheads.gpu_issue_us * 1e-6)
    }

    /// Host-side span of synchronizing with GPU completion.
    pub fn gpu_wait_span(&self) -> SimSpan {
        SimSpan::from_secs_f64(self.overheads.gpu_wait_us * 1e-6)
    }

    /// Span of one zero-copy map/unmap operation.
    pub fn map_span(&self) -> SimSpan {
        SimSpan::from_secs_f64(self.overheads.map_us * 1e-6)
    }

    /// CPU-side kernel dispatch overhead span.
    pub fn cpu_dispatch_span(&self) -> SimSpan {
        SimSpan::from_secs_f64(self.overheads.cpu_dispatch_us * 1e-6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::WorkClass;

    fn gemm_work(macs: u64, dtype: DType) -> KernelWork {
        KernelWork {
            class: WorkClass::Gemm,
            macs,
            bytes_in: 1000,
            bytes_weights: 1000,
            bytes_out: 1000,
            compute_dtype: dtype,
        }
    }

    #[test]
    fn presets_have_cpu_and_gpu() {
        for soc in SocSpec::evaluated() {
            assert_eq!(soc.device(soc.cpu()).unwrap().kind, DeviceKind::CpuCluster);
            assert_eq!(soc.device(soc.gpu()).unwrap().kind, DeviceKind::Gpu);
        }
    }

    #[test]
    fn high_end_gpu_f32_ratio_is_1_4x() {
        let soc = SocSpec::exynos_7420();
        let w = gemm_work(1_000_000_000, DType::F32);
        let cpu = soc.kernel_latency(soc.cpu(), &w).unwrap();
        let gpu = soc.kernel_latency(soc.gpu(), &w).unwrap();
        let ratio = cpu.as_secs_f64() / gpu.as_secs_f64();
        assert!((1.35..1.45).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn mid_range_cpu_beats_gpu_by_26pct() {
        let soc = SocSpec::exynos_7880();
        let w = gemm_work(1_000_000_000, DType::F32);
        let cpu = soc.kernel_latency(soc.cpu(), &w).unwrap();
        let gpu = soc.kernel_latency(soc.gpu(), &w).unwrap();
        let reduction = 1.0 - cpu.as_secs_f64() / gpu.as_secs_f64();
        assert!((0.22..0.30).contains(&reduction), "reduction = {reduction}");
    }

    #[test]
    fn dtype_preferences_match_figure_8() {
        for soc in SocSpec::evaluated() {
            let cpu = soc.device(soc.cpu()).unwrap();
            let gpu = soc.device(soc.gpu()).unwrap();
            // CPU: QUInt8 >> F32, F16 no better than F32 (emulated).
            assert!(cpu.throughput.quint8_gmacs > 2.0 * cpu.throughput.f32_gmacs);
            assert!(cpu.throughput.f16_gmacs <= cpu.throughput.f32_gmacs);
            // GPU: F16 >> F32 > QUInt8.
            assert!(gpu.throughput.f16_gmacs > 1.5 * gpu.throughput.f32_gmacs);
            assert!(gpu.throughput.quint8_gmacs < gpu.throughput.f32_gmacs);
        }
    }

    #[test]
    fn latency_is_roofline() {
        let soc = SocSpec::exynos_7420();
        // Compute-bound work.
        let big = gemm_work(10_000_000_000, DType::F32);
        let t = soc.kernel_latency(soc.cpu(), &big).unwrap();
        assert!((t.as_secs_f64() - 10.0 / 14.0).abs() / (10.0 / 14.0) < 0.01);
        // Memory-bound work: 1 GB moved, negligible compute.
        let mem = KernelWork {
            class: WorkClass::Copy,
            macs: 0,
            bytes_in: 1_000_000_000,
            bytes_weights: 0,
            bytes_out: 0,
            compute_dtype: DType::F32,
        };
        let t = soc.kernel_latency(soc.cpu(), &mem).unwrap();
        assert!((t.as_secs_f64() - 1.0 / 24.8).abs() / (1.0 / 24.8) < 0.01);
    }

    #[test]
    fn overhead_floors_small_kernels() {
        let soc = SocSpec::exynos_7420();
        let tiny = gemm_work(1, DType::F32);
        let t = soc.kernel_latency(soc.gpu(), &tiny).unwrap();
        assert!(t.as_secs_f64() >= 15.0e-6);
    }

    #[test]
    fn npu_rejects_float_work() {
        let soc = SocSpec::exynos_7420().with_npu();
        let npu = soc.find(DeviceKind::Npu).unwrap();
        let w = gemm_work(1000, DType::F16);
        assert!(matches!(
            soc.kernel_latency(npu, &w),
            Err(SocError::UnsupportedDtype { .. })
        ));
        let q = gemm_work(1000, DType::QUInt8);
        assert!(soc.kernel_latency(npu, &q).is_ok());
    }

    #[test]
    fn empty_link_table_is_all_pairs_shared_memory() {
        let soc = SocSpec::exynos_7420();
        assert!(!soc.has_network_links());
        // Every pair is joined directly (the empty route) at no cost.
        for a in soc.device_ids() {
            for b in soc.device_ids() {
                assert_eq!(soc.route(a, b), Some(vec![]));
                assert_eq!(soc.transfer_span(a, b, 1 << 20), Some(SimSpan::ZERO));
            }
        }
        // Unknown devices are not silently reachable.
        assert_eq!(soc.route(DeviceId(9), soc.cpu()), None);
        assert_eq!(soc.route(soc.cpu(), DeviceId(9)), None);
    }

    #[test]
    fn mesh_routes_hop_by_hop_and_partitions() {
        let soc = SocSpec::mcu_mesh(4);
        assert!(soc.has_network_links());
        assert_eq!(soc.route(DeviceId(0), DeviceId(3)), Some(vec![0, 1, 2]));
        // Store-and-forward: three identical hops cost 3x one hop.
        let one = soc.transfer_span(DeviceId(0), DeviceId(1), 10_000).unwrap();
        let three = soc.transfer_span(DeviceId(0), DeviceId(3), 10_000).unwrap();
        assert_eq!(three, one * 3u64);
        assert!(one > SimSpan::ZERO);
        // Cutting the middle link partitions {0,1} from {2,3}.
        let reachable = |root: usize| -> Vec<usize> {
            (0..4)
                .filter(|&d| (soc.route_avoiding(DeviceId(root), DeviceId(d), &[1])).is_some())
                .collect()
        };
        assert_eq!(reachable(0), vec![0, 1]);
        assert_eq!(reachable(3), vec![2, 3]);
    }

    #[test]
    fn mcu_nodes_are_ram_constrained() {
        let soc = SocSpec::mcu_mesh(3);
        assert_eq!(soc.devices.len(), 3);
        for d in &soc.devices {
            assert_eq!(d.ram_bytes, Some(SocSpec::MCU_RAM_BYTES));
            assert!(!d.fits_in_ram(SocSpec::MCU_RAM_BYTES + 1));
        }
        // Node counts clamp to the supported range.
        assert_eq!(SocSpec::mcu_mesh(1).devices.len(), 2);
        assert_eq!(SocSpec::mcu_mesh(99).devices.len(), 8);
    }

    #[test]
    fn unknown_device_rejected() {
        let soc = SocSpec::exynos_7420();
        assert!(matches!(
            soc.kernel_latency(DeviceId(9), &gemm_work(1, DType::F32)),
            Err(SocError::UnknownDevice(_))
        ));
    }
}
