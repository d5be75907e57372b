//! Per-layer latency profiling on a single device.
//!
//! Reproduces the §3.1 profiling methodology (Figure 5): run each layer
//! of a network on one processor and record its latency. The μLayer
//! latency predictor also uses this as its training-data source — it
//! samples profiles of synthetic layer configurations rather than reading
//! the timing model's parameters, keeping the predictor honest.

use simcore::SimSpan;
use utensor::TensorError;

use unn::{Graph, LayerKind, NodeId};

use crate::device::{DeviceId, DeviceKind};
use crate::error::SocError;
use crate::spec::SocSpec;
use crate::work::{layer_work, DtypePlan};

/// One profiled layer.
#[derive(Clone, Debug)]
pub struct LayerProfile {
    /// The node in the profiled graph.
    pub node: NodeId,
    /// Layer name.
    pub name: String,
    /// Operator name.
    pub op: &'static str,
    /// Measured single-device latency, including the device-appropriate
    /// dispatch overheads (GPU: command issue + wait; CPU: dispatch).
    pub latency: SimSpan,
    /// The host-side overhead portion of `latency` (GPU: command issue +
    /// completion wait; CPU: dispatch). `latency - host_overhead` is pure
    /// kernel time — the split observability reports aggregate over this.
    pub host_overhead: SimSpan,
    /// The layer's MAC count.
    pub macs: u64,
}

/// Errors a profiling run can produce.
#[derive(Clone, Debug, PartialEq)]
pub enum ProfileError {
    /// The graph failed shape inference.
    Graph(TensorError),
    /// The device rejected a kernel.
    Soc(SocError),
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::Graph(e) => write!(f, "graph error: {e}"),
            ProfileError::Soc(e) => write!(f, "soc error: {e}"),
        }
    }
}

impl std::error::Error for ProfileError {}

impl From<TensorError> for ProfileError {
    fn from(e: TensorError) -> Self {
        ProfileError::Graph(e)
    }
}

impl From<SocError> for ProfileError {
    fn from(e: SocError) -> Self {
        ProfileError::Soc(e)
    }
}

/// The kernel/host cost breakdown of one synchronous single-layer run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct LayerCost {
    /// Pure kernel execution time on the device.
    pub kernel: SimSpan,
    /// Host-side overhead (GPU: command issue + completion wait; CPU:
    /// dispatch) the synchronous execution pays on top of the kernel.
    pub host: SimSpan,
}

impl LayerCost {
    /// End-to-end latency: kernel plus host overhead.
    pub(crate) fn total(&self) -> SimSpan {
        self.kernel + self.host
    }
}

/// The cost of running one whole layer on one device, broken into the
/// kernel time and the host-side overhead a synchronous single-layer
/// execution pays.
pub(crate) fn single_layer_cost(
    spec: &SocSpec,
    device: DeviceId,
    kind: &LayerKind,
    in_shape: &utensor::Shape,
    out_shape: &utensor::Shape,
    dtypes: DtypePlan,
) -> Result<LayerCost, SocError> {
    let work = layer_work(kind, in_shape, out_shape, dtypes, 1.0);
    let kernel = spec.kernel_latency(device, &work)?;
    let host = match spec.device(device)?.kind {
        DeviceKind::CpuCluster => spec.cpu_dispatch_span(),
        // GPU/NPU layers pay command issue and completion wait on the
        // host when executed synchronously.
        DeviceKind::Gpu | DeviceKind::Npu => spec.gpu_issue_span() + spec.gpu_wait_span(),
    };
    Ok(LayerCost { kernel, host })
}

/// The latency of running one whole layer on one device, including the
/// host-side costs a synchronous single-layer execution pays.
pub fn single_layer_latency(
    spec: &SocSpec,
    device: DeviceId,
    kind: &LayerKind,
    in_shape: &utensor::Shape,
    out_shape: &utensor::Shape,
    dtypes: DtypePlan,
) -> Result<SimSpan, SocError> {
    single_layer_cost(spec, device, kind, in_shape, out_shape, dtypes).map(|c| c.total())
}

/// Profiles every layer of `graph` on `device` with the given dtype plan.
pub fn profile_graph(
    spec: &SocSpec,
    device: DeviceId,
    graph: &Graph,
    dtypes: DtypePlan,
) -> Result<Vec<LayerProfile>, ProfileError> {
    let shapes = graph.infer_shapes()?;
    let mut out = Vec::with_capacity(graph.len());
    for (i, node) in graph.nodes().iter().enumerate() {
        let id = NodeId(i);
        let in_shape = graph.node_input_shape(id, &shapes);
        let cost = single_layer_cost(spec, device, &node.kind, in_shape, &shapes[i], dtypes)?;
        out.push(LayerProfile {
            node: id,
            name: node.name.clone(),
            op: node.kind.op_name(),
            latency: cost.total(),
            host_overhead: cost.host,
            macs: node.kind.macs(in_shape, &shapes[i]),
        });
    }
    Ok(out)
}

/// Sum of all per-layer latencies: the serialized single-processor
/// network latency (Figure 6's quantity).
pub fn total_latency(profiles: &[LayerProfile]) -> SimSpan {
    profiles.iter().map(|p| p.latency).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use utensor::DType;

    #[test]
    fn vgg_gpu_beats_cpu_on_high_end_f32() {
        // Figure 5a/6a: on the high-end SoC the GPU wins at F32.
        let soc = SocSpec::exynos_7420();
        let g = unn::ModelId::Vgg16.build();
        let plan = DtypePlan::uniform(DType::F32);
        let cpu = total_latency(&profile_graph(&soc, soc.cpu(), &g, plan).unwrap());
        let gpu = total_latency(&profile_graph(&soc, soc.gpu(), &g, plan).unwrap());
        let speedup = cpu.as_secs_f64() / gpu.as_secs_f64();
        assert!(
            (1.15..1.45).contains(&speedup),
            "GPU speedup = {speedup:.3} (expected ~1.4x minus overhead effects)"
        );
    }

    #[test]
    fn vgg_cpu_beats_gpu_on_mid_range_f32() {
        // Figure 5b/6b: on the mid-range SoC the octa-core CPU wins.
        let soc = SocSpec::exynos_7880();
        let g = unn::ModelId::Vgg16.build();
        let plan = DtypePlan::uniform(DType::F32);
        let cpu = total_latency(&profile_graph(&soc, soc.cpu(), &g, plan).unwrap());
        let gpu = total_latency(&profile_graph(&soc, soc.gpu(), &g, plan).unwrap());
        assert!(cpu < gpu);
        let reduction = 1.0 - cpu.as_secs_f64() / gpu.as_secs_f64();
        assert!(
            (0.15..0.35).contains(&reduction),
            "reduction = {reduction:.3}"
        );
    }

    #[test]
    fn quint8_speeds_up_cpu_f16_speeds_up_gpu() {
        // Figure 8's headline relationships, end to end on AlexNet.
        let soc = SocSpec::exynos_7420();
        let g = unn::ModelId::AlexNet.build();
        let lat = |dev: DeviceId, d: DType| {
            total_latency(&profile_graph(&soc, dev, &g, DtypePlan::uniform(d)).unwrap())
                .as_secs_f64()
        };
        let (cpu, gpu) = (soc.cpu(), soc.gpu());
        // CPU: QUInt8 much faster than F32; F16 no better than F32.
        assert!(lat(cpu, DType::QUInt8) < 0.7 * lat(cpu, DType::F32));
        assert!(lat(cpu, DType::F16) >= 0.95 * lat(cpu, DType::F32));
        // GPU: F16 much faster than F32; QUInt8 not faster than F16.
        assert!(lat(gpu, DType::F16) < 0.7 * lat(gpu, DType::F32));
        assert!(lat(gpu, DType::QUInt8) > lat(gpu, DType::F16));
    }

    #[test]
    fn profiles_cover_every_layer() {
        let soc = SocSpec::exynos_7420();
        let g = unn::ModelId::SqueezeNet.build();
        let p = profile_graph(&soc, soc.cpu(), &g, DtypePlan::uniform(DType::F32)).unwrap();
        assert_eq!(p.len(), g.len());
        assert!(p.iter().all(|lp| lp.latency > SimSpan::ZERO));
    }

    #[test]
    fn cost_breakdown_sums_to_latency() {
        let soc = SocSpec::exynos_7420();
        let g = unn::ModelId::AlexNet.build();
        let shapes = g.infer_shapes().unwrap();
        let plan = DtypePlan::uniform(DType::F32);
        for (i, node) in g.nodes().iter().enumerate() {
            let id = NodeId(i);
            let in_shape = g.node_input_shape(id, &shapes);
            for dev in [soc.cpu(), soc.gpu()] {
                let cost =
                    single_layer_cost(&soc, dev, &node.kind, in_shape, &shapes[i], plan).unwrap();
                let lat = single_layer_latency(&soc, dev, &node.kind, in_shape, &shapes[i], plan)
                    .unwrap();
                assert_eq!(cost.total(), lat);
                assert!(cost.host > SimSpan::ZERO);
            }
        }
        // profile_graph records the same breakdown.
        let profiles = profile_graph(&soc, soc.gpu(), &g, plan).unwrap();
        assert!(profiles
            .iter()
            .all(|p| p.host_overhead > SimSpan::ZERO && p.host_overhead < p.latency));
        assert!(profiles
            .iter()
            .all(|p| p.host_overhead == soc.gpu_issue_span() + soc.gpu_wait_span()));
    }

    #[test]
    fn gpu_profiles_include_issue_overhead() {
        // A tiny layer's GPU latency is dominated by issue+wait; the CPU
        // runs it with only dispatch overhead. This is the §5 observation
        // that small layers make GPU offload unattractive.
        let soc = SocSpec::exynos_7420();
        let mut g = unn::Graph::new("tiny", utensor::Shape::nchw(1, 8, 4, 4));
        g.add_input_layer(
            "small",
            LayerKind::Conv {
                oc: 8,
                k: 1,
                stride: 1,
                pad: 0,
                relu: false,
            },
        );
        let plan = DtypePlan::uniform(DType::F32);
        let cpu = total_latency(&profile_graph(&soc, soc.cpu(), &g, plan).unwrap());
        let gpu = total_latency(&profile_graph(&soc, soc.gpu(), &g, plan).unwrap());
        assert!(gpu > cpu * 3);
    }
}
