//! Single-layer latency on one device.
//!
//! Reproduces the §3.1 profiling methodology (Figure 5): run one layer
//! of a network on one processor, synchronously, and record its
//! latency. The layer-to-processor baseline and Figure 5 read it per
//! node.

use simcore::SimSpan;

use unn::LayerKind;

use crate::device::{DeviceId, DeviceKind};
use crate::error::SocError;
use crate::spec::SocSpec;
use crate::work::{layer_work, DtypePlan};

/// The latency of running one whole layer on one device: the kernel
/// time plus the host-side overhead a synchronous single-layer
/// execution pays (GPU/NPU: command issue + completion wait; CPU:
/// dispatch).
pub fn single_layer_latency(
    spec: &SocSpec,
    device: DeviceId,
    kind: &LayerKind,
    in_shape: &utensor::Shape,
    out_shape: &utensor::Shape,
    dtypes: DtypePlan,
) -> Result<SimSpan, SocError> {
    let work = layer_work(kind, in_shape, out_shape, dtypes, 1.0);
    let kernel = spec.kernel_latency(device, &work)?;
    let host = match spec.device(device)?.kind {
        DeviceKind::CpuCluster => spec.cpu_dispatch_span(),
        DeviceKind::Gpu | DeviceKind::Npu => spec.gpu_issue_span() + spec.gpu_wait_span(),
    };
    Ok(kernel + host)
}

#[cfg(test)]
mod tests {
    use super::*;
    use unn::{Graph, NodeId};
    use utensor::DType;

    /// Each node's single-layer latency on `dev`, in graph order.
    fn per_node(soc: &SocSpec, dev: DeviceId, g: &Graph, plan: DtypePlan) -> Vec<SimSpan> {
        let shapes = g.infer_shapes().unwrap();
        g.nodes()
            .iter()
            .enumerate()
            .map(|(i, node)| {
                let in_shape = g.node_input_shape(NodeId(i), &shapes);
                single_layer_latency(soc, dev, &node.kind, in_shape, &shapes[i], plan).unwrap()
            })
            .collect()
    }

    /// The serialized single-processor network latency (Figure 6's
    /// quantity): the per-node sum.
    fn serial(soc: &SocSpec, dev: DeviceId, g: &Graph, plan: DtypePlan) -> SimSpan {
        per_node(soc, dev, g, plan).into_iter().sum()
    }

    #[test]
    fn vgg_gpu_beats_cpu_on_high_end_f32() {
        // Figure 5a/6a: on the high-end SoC the GPU wins at F32.
        let soc = SocSpec::exynos_7420();
        let g = unn::ModelId::Vgg16.build();
        let plan = DtypePlan::uniform(DType::F32);
        let cpu = serial(&soc, soc.cpu(), &g, plan);
        let gpu = serial(&soc, soc.gpu(), &g, plan);
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
        let cpu = serial(&soc, soc.cpu(), &g, plan);
        let gpu = serial(&soc, soc.gpu(), &g, plan);
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
        let lat =
            |dev: DeviceId, d: DType| serial(&soc, dev, &g, DtypePlan::uniform(d)).as_secs_f64();
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
        let p = per_node(&soc, soc.cpu(), &g, DtypePlan::uniform(DType::F32));
        assert_eq!(p.len(), g.len());
        assert!(p.iter().all(|&lat| lat > SimSpan::ZERO));
    }

    #[test]
    fn cost_breakdown_sums_to_latency() {
        // Every layer's latency is its kernel time plus the device's
        // synchronous host overhead.
        let soc = SocSpec::exynos_7420();
        let g = unn::ModelId::AlexNet.build();
        let shapes = g.infer_shapes().unwrap();
        let plan = DtypePlan::uniform(DType::F32);
        let hosts = [
            (soc.cpu(), soc.cpu_dispatch_span()),
            (soc.gpu(), soc.gpu_issue_span() + soc.gpu_wait_span()),
        ];
        for (i, node) in g.nodes().iter().enumerate() {
            let in_shape = g.node_input_shape(NodeId(i), &shapes);
            let work = layer_work(&node.kind, in_shape, &shapes[i], plan, 1.0);
            for (dev, host) in hosts {
                assert!(host > SimSpan::ZERO);
                let lat = single_layer_latency(&soc, dev, &node.kind, in_shape, &shapes[i], plan)
                    .unwrap();
                assert_eq!(lat, soc.kernel_latency(dev, &work).unwrap() + host);
            }
        }
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
        let cpu = serial(&soc, soc.cpu(), &g, plan);
        let gpu = serial(&soc, soc.gpu(), &g, plan);
        assert!(gpu > cpu * 3);
    }
}
