//! Latency-predictor validation.
//!
//! The partitioner's decisions are only as good as its predictions (§6);
//! this module quantifies the predictor on a *held-out* validation sweep
//! — layer geometries drawn from the real zoo networks, none of which
//! appear in the synthetic training ladder — and reports relative error
//! per device. `repro` prints the report; tests bound the error.

use ulayer::{LatencyPredictor, ULayerError};
use unn::{Graph, NodeId};
use usoc::{layer_work, DtypePlan, SocSpec};

/// Prediction error statistics for one device.
#[derive(Clone, Debug)]
pub(crate) struct DeviceAccuracy {
    /// Device name.
    pub(crate) name: String,
    /// Number of (layer, dtype-plan) samples evaluated.
    pub(crate) samples: usize,
    /// Mean relative error `|pred - true| / true`.
    pub(crate) mean_rel_err: f64,
    /// Maximum relative error.
    pub(crate) max_rel_err: f64,
}

/// A full validation report.
#[derive(Clone, Debug)]
pub(crate) struct PredictorReport {
    /// Per-device accuracy.
    pub(crate) devices: Vec<DeviceAccuracy>,
}

impl PredictorReport {
    /// The worst mean relative error across devices.
    #[cfg(test)]
    pub(crate) fn worst_mean_rel_err(&self) -> f64 {
        self.devices
            .iter()
            .map(|d| d.mean_rel_err)
            .fold(0.0, f64::max)
    }
}

/// Evaluates `predictor` against the SoC's ground-truth timing on every
/// layer of the given graphs, under both the uniform-QUInt8 and the
/// processor-friendly dtype plans and at full and half split fractions.
pub(crate) fn evaluate_predictor(
    spec: &SocSpec,
    predictor: &LatencyPredictor,
    graphs: &[Graph],
) -> Result<PredictorReport, ULayerError> {
    let plans = [
        DtypePlan::proc_friendly_cpu(),
        DtypePlan::proc_friendly_gpu(),
        DtypePlan::uniform(utensor::DType::F32),
    ];
    let mut devices = Vec::new();
    for dev in spec.device_ids() {
        let mut sum = 0.0f64;
        let mut max = 0.0f64;
        let mut n = 0usize;
        for g in graphs {
            let shapes = g.infer_shapes()?;
            for (i, node) in g.nodes().iter().enumerate() {
                let in_shape = g.node_input_shape(NodeId(i), &shapes);
                for dtypes in plans {
                    for frac in [1.0f64, 0.5] {
                        let work = layer_work(&node.kind, in_shape, &shapes[i], dtypes, frac);
                        let truth = match spec.kernel_latency(dev, &work) {
                            Ok(t) => t.as_secs_f64(),
                            Err(_) => continue, // unsupported dtype on this device
                        };
                        let pred = match predictor.predict(dev, &work) {
                            Ok(p) => p.as_secs_f64(),
                            Err(_) => continue,
                        };
                        if truth <= 0.0 {
                            continue;
                        }
                        let rel = (pred - truth).abs() / truth;
                        sum += rel;
                        max = max.max(rel);
                        n += 1;
                    }
                }
            }
        }
        devices.push(DeviceAccuracy {
            name: spec.devices[dev.0].name.clone(),
            samples: n,
            mean_rel_err: if n == 0 { 0.0 } else { sum / n as f64 },
            max_rel_err: max,
        });
    }
    Ok(PredictorReport { devices })
}

#[cfg(test)]
mod tests {
    use super::*;
    use unn::ModelId;

    #[test]
    fn predictor_is_accurate_on_the_zoo() {
        // The predictor must track ground truth well enough on real layer
        // geometries for the partitioner's decisions to be sound.
        for spec in SocSpec::evaluated() {
            let predictor = LatencyPredictor::train(&spec).unwrap();
            let graphs: Vec<Graph> = ModelId::EVALUATED.iter().map(|id| id.build()).collect();
            let report = evaluate_predictor(&spec, &predictor, &graphs).unwrap();
            for d in &report.devices {
                assert!(d.samples > 100, "{}: only {} samples", d.name, d.samples);
                assert!(
                    d.mean_rel_err < 0.25,
                    "{} on {}: mean rel err {:.3}",
                    d.name,
                    spec.name,
                    d.mean_rel_err
                );
            }
        }
    }

    #[test]
    fn predictor_is_not_an_oracle() {
        // The honesty check: a fitted regression must NOT be exact —
        // nonzero error is what propagates into planning, as on real
        // hardware.
        let spec = SocSpec::exynos_7420();
        let predictor = LatencyPredictor::train(&spec).unwrap();
        let graphs = vec![ModelId::GoogLeNet.build()];
        let report = evaluate_predictor(&spec, &predictor, &graphs).unwrap();
        assert!(
            report.worst_mean_rel_err() > 0.005,
            "suspiciously exact predictor: {:?}",
            report
        );
    }

    #[test]
    fn npu_device_is_evaluated_on_its_supported_plans_only() {
        let spec = SocSpec::exynos_7420().with_npu();
        let predictor = LatencyPredictor::train(&spec).unwrap();
        let graphs = vec![ModelId::SqueezeNet.build_miniature()];
        let report = evaluate_predictor(&spec, &predictor, &graphs).unwrap();
        let npu = report.devices.last().unwrap();
        // The NPU only sees QUInt8 work; it still collects samples.
        assert!(npu.samples > 0);
    }
}
