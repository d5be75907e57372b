//! The μLayer runtime: plan and execute NNs cooperatively.
//!
//! [`ULayer`] packages the paper's pipeline (Figure 13): the NN
//! partitioner consults the latency predictor to pick per-layer split
//! ratios, branch distribution rewrites divergent regions (both in
//! [`crate::draft`]), and the NN executor (the shared engine in
//! `uruntime`) runs the plan with asynchronous GPU command issue and
//! zero-copy shared memory.

use usoc::SocSpec;

use simcore::SimSpan;
use unn::Graph;
use uruntime::{execute_plan, ExecutionPlan, RunResult};

use crate::adapt::DriftAdapter;
use crate::branch::BranchMapping;
use crate::config::ULayerConfig;
use crate::error::ULayerError;
use crate::partitioner::CostTables;
use crate::planning::{draft, PlanContext, PlanDraft};
use crate::predictor::LatencyPredictor;

/// A generated μLayer plan plus its planning diagnostics.
#[derive(Clone, Debug)]
pub struct PlanReport {
    /// The executable plan.
    pub plan: ExecutionPlan,
    /// Branch mappings that were applied (§5).
    pub branch_mappings: Vec<BranchMapping>,
    /// The predictor's estimate of total latency (serial sum of layer
    /// estimates; the executor overlaps more, so reality is faster).
    pub predicted_serial_latency: SimSpan,
}

impl PlanReport {
    /// The report of `draft`, planned under `cx`.
    pub(crate) fn new(cx: &PlanContext<'_>, draft: &PlanDraft) -> Result<PlanReport, ULayerError> {
        Ok(PlanReport {
            plan: ExecutionPlan::new(
                cx.graph,
                cx.spec,
                draft.placements.clone(),
                cx.config.label(),
            )?,
            branch_mappings: draft.branch_mappings.clone(),
            predicted_serial_latency: draft.costs.iter().copied().sum(),
        })
    }
}

/// The μLayer runtime for one SoC.
pub struct ULayer {
    spec: SocSpec,
    predictor: LatencyPredictor,
    config: ULayerConfig,
}

impl ULayer {
    /// Creates a full μLayer runtime (all three mechanisms), training the
    /// latency predictor on the SoC.
    pub fn new(spec: SocSpec) -> Result<ULayer, ULayerError> {
        ULayer::with_config(spec, ULayerConfig::full())
    }

    /// Creates a runtime with an explicit configuration (ablations).
    pub fn with_config(spec: SocSpec, config: ULayerConfig) -> Result<ULayer, ULayerError> {
        let predictor = LatencyPredictor::train(&spec)?;
        Ok(ULayer {
            spec,
            predictor,
            config,
        })
    }

    /// The SoC this runtime plans for.
    pub fn spec(&self) -> &SocSpec {
        &self.spec
    }

    /// The active configuration.
    pub fn config(&self) -> &ULayerConfig {
        &self.config
    }

    /// The trained latency predictor.
    pub fn predictor(&self) -> &LatencyPredictor {
        &self.predictor
    }

    /// Generates the cooperative execution plan for a network.
    pub fn plan(&self, graph: &Graph) -> Result<PlanReport, ULayerError> {
        self.plan_with_drift(graph, None)
    }

    /// [`ULayer::plan`] with an optional [`DriftAdapter`] correcting the
    /// predictor's kernel estimates (online fault adaptation): a
    /// throttled device's observed slowdown shrinks its share, a lost
    /// device is avoided entirely.
    pub fn plan_with_drift(
        &self,
        graph: &Graph,
        drift: Option<&DriftAdapter>,
    ) -> Result<PlanReport, ULayerError> {
        let cx = PlanContext {
            spec: &self.spec,
            predictor: &self.predictor,
            config: &self.config,
            graph,
            drift,
            devices: &self.spec.device_ids(),
        };
        let draft = draft(&cx, &CostTables::build(&cx)?, None)?;
        PlanReport::new(&cx, &draft)
    }

    /// Plans and executes one inference (timing/energy co-simulation).
    pub fn run(&self, graph: &Graph) -> Result<RunResult, ULayerError> {
        let report = self.plan(graph)?;
        Ok(execute_plan(&self.spec, graph, &report.plan)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unn::{ModelId, Weights};
    use utensor::{DType, Tensor};

    #[test]
    fn ulayer_beats_layer_to_processor_on_every_network() {
        // The paper's headline (Figure 16): μLayer improves on the
        // state-of-the-art layer-to-processor mechanism for all five
        // networks on both SoCs.
        for spec in SocSpec::evaluated() {
            let ulayer = ULayer::new(spec.clone()).unwrap();
            for id in ModelId::EVALUATED {
                let g = id.build();
                let u = ulayer.run(&g).unwrap();
                let l2p = uruntime::run_layer_to_processor(&spec, &g, DType::QUInt8).unwrap();
                assert!(
                    u.latency < l2p.latency,
                    "{} on {}: ulayer {} !< l2p {}",
                    id.name(),
                    spec.name,
                    u.latency,
                    l2p.latency
                );
            }
        }
    }

    #[test]
    fn plans_split_large_networks() {
        let ulayer = ULayer::new(SocSpec::exynos_7420()).unwrap();
        let report = ulayer.plan(&ModelId::Vgg16.build()).unwrap();
        assert!(report.plan.split_count() > 10);
        assert!(report.branch_mappings.is_empty());
        assert!(report.predicted_serial_latency > SimSpan::ZERO);
    }

    #[test]
    fn branch_distribution_fires_on_googlenet() {
        // GoogLeNet's four-way Inception modules are the §5 target. (The
        // Fire modules of SqueezeNet are two-way and 1:9 imbalanced —
        // expand3x3 carries 9x the MACs of expand1x1 — so under this
        // calibration channel-splitting the heavy branch beats branch
        // parallelism there; see EXPERIMENTS.md.)
        let ulayer = ULayer::new(SocSpec::exynos_7420()).unwrap();
        let report = ulayer.plan(&ModelId::GoogLeNet.build()).unwrap();
        assert!(!report.branch_mappings.is_empty(), "no branch mapping");
        // SqueezeNet still plans and runs correctly.
        let report = ulayer.plan(&ModelId::SqueezeNet.build()).unwrap();
        assert_eq!(
            report.plan.placements.len(),
            ModelId::SqueezeNet.build().len()
        );
    }

    #[test]
    fn ablation_is_monotone_on_average() {
        // Figure 17: each added mechanism should not hurt, and the full
        // configuration should be the fastest in geomean.
        let spec = SocSpec::exynos_7420();
        let configs = [
            ULayerConfig::channel_distribution_only(),
            ULayerConfig::with_proc_quant(),
            ULayerConfig::full(),
        ];
        let runtimes: Vec<ULayer> = configs
            .iter()
            .map(|c| ULayer::with_config(spec.clone(), c.clone()).unwrap())
            .collect();
        let mut geomeans = vec![1.0f64; 3];
        for id in ModelId::EVALUATED {
            let g = id.build();
            for (i, rt) in runtimes.iter().enumerate() {
                geomeans[i] *= rt.run(&g).unwrap().latency.as_secs_f64();
            }
        }
        for g in &mut geomeans {
            *g = g.powf(1.0 / 5.0);
        }
        assert!(
            geomeans[1] <= geomeans[0] * 1.001,
            "+quant regressed: {geomeans:?}"
        );
        assert!(
            geomeans[2] <= geomeans[1] * 1.001,
            "+branch regressed: {geomeans:?}"
        );
        assert!(geomeans[2] < geomeans[0], "full not fastest: {geomeans:?}");
    }

    #[test]
    fn functional_run_matches_reference_quantized_forward() {
        // μLayer's cooperative output equals the single-CPU QUInt8
        // network when quantization is uniform (ablation step 1), because
        // channel splitting is numerically lossless.
        let spec = SocSpec::exynos_7420();
        let ulayer = ULayer::with_config(spec, ULayerConfig::channel_distribution_only()).unwrap();
        let g = ModelId::LeNet.build();
        let w = Weights::random(&g, 5).unwrap();
        let input = Tensor::from_f32(
            g.input_shape().clone(),
            (0..g.input_shape().numel())
                .map(|i| ((i % 255) as f32) / 255.0)
                .collect(),
        )
        .unwrap();
        let calib = unn::calibrate(&g, &w, std::slice::from_ref(&input)).unwrap();
        let plan = ulayer.plan(&g).unwrap().plan;
        let outputs = uruntime::evaluate_plan(&g, &plan, &w, &calib, &input).unwrap();
        let reference = unn::forward(&g, &w, &calib, &input, DType::QUInt8).unwrap();
        // Compare the logits (last quantized layer before softmax).
        let n = outputs.len();
        assert!(outputs[n - 2].bit_equal(&reference[n - 2]));
    }
}
