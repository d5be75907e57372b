//! Degradation-ladder integration: rung structure, numerically lossless
//! rungs (bit-identical to the quantized reference), drift feeding the
//! slack estimates, and end-to-end overload serving with a
//! partitioner-emitted ladder.

use simcore::{ArrivalKind, ArrivalProcess, FaultPlan, SimSpan};
use ulayer::{DriftAdapter, ULayer, ULayerConfig};
use unn::{ModelId, Weights};
use uruntime::{evaluate_plan, execute_plan, serve_stream, FrameFate, ServeConfig};
use usoc::SocSpec;
use utensor::{DType, Tensor};

#[test]
fn every_rung_output_is_bit_identical_to_the_quantized_reference() {
    // Under uniform quantization (ablation step 1) channel splitting is
    // numerically lossless, so EVERY rung of the ladder — cooperative or
    // single-processor — must produce the exact bits of the single-CPU
    // QUInt8 network. This is the serving guarantee: a degraded frame
    // loses latency headroom, never numerics.
    let spec = SocSpec::exynos_7420();
    let rt = ULayer::with_config(spec, ULayerConfig::channel_distribution_only()).unwrap();
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
    let reference = unn::forward(&g, &w, &calib, &input, DType::QUInt8).unwrap();
    let logits = g.len() - 2; // last quantized layer before softmax

    let ladder = rt.degradation_ladder(&g, None).unwrap();
    assert!(ladder.len() >= 2);
    for rung in &ladder {
        let outputs = evaluate_plan(&g, &rung.plan, &w, &calib, &input).unwrap();
        assert!(
            outputs[logits].bit_equal(&reference[logits]),
            "rung {} diverged from the quantized reference",
            rung.label
        );
        // And each rung is reproducible against itself (fault-free
        // re-evaluation is bit-identical).
        let again = evaluate_plan(&g, &rung.plan, &w, &calib, &input).unwrap();
        assert!(outputs[logits].bit_equal(&again[logits]), "{}", rung.label);
    }
}

#[test]
fn ladder_latencies_order_sanely_on_the_evaluated_socs() {
    // The full cooperative rung is the lowest-latency single-frame plan
    // (that is the paper's point); single-processor rungs trade latency
    // for a smaller footprint.
    for spec in SocSpec::evaluated() {
        let rt = ULayer::new(spec.clone()).unwrap();
        let g = ModelId::SqueezeNet.build();
        let ladder = rt.degradation_ladder(&g, None).unwrap();
        let realized: Vec<(String, SimSpan)> = ladder
            .iter()
            .map(|r| {
                let run = execute_plan(&spec, &g, &r.plan).unwrap();
                (r.label.clone(), run.latency)
            })
            .collect();
        let full = realized[0].1;
        for (label, lat) in &realized[1..] {
            assert!(
                full <= *lat,
                "{}: full rung ({full}) slower than {label} ({lat})",
                spec.name
            );
        }
    }
}

#[test]
fn drift_fed_ladder_routes_serving_around_a_lost_gpu() {
    // PR 3's drift adaptation feeds the ladder's slack estimates: with
    // the GPU marked lost, the emitted full plan avoids the GPU entirely
    // and the end-to-end serve still satisfies the invariants.
    let spec = SocSpec::exynos_7420();
    let rt = ULayer::new(spec.clone()).unwrap();
    let g = ModelId::SqueezeNet.build();
    let mut drift = DriftAdapter::new();
    drift.mark_lost(spec.gpu());
    let ladder = rt.degradation_ladder(&g, Some(&drift)).unwrap();
    assert_eq!(ladder.last().unwrap().label, "single-gpu");

    let full = execute_plan(&spec, &g, &ladder[0].plan).unwrap().latency;
    let mean = SimSpan::from_nanos((full.as_nanos() / 2).max(1));
    let arrivals = ArrivalProcess::from_kind(ArrivalKind::Bursty, mean).times(64, 9);
    let cfg = ServeConfig {
        queue_capacity: 5,
        deadline: full * 2u64,
    };
    let report = serve_stream(&spec, &g, &ladder, &arrivals, &cfg, &FaultPlan::none()).unwrap();
    report.check_invariants().unwrap();
    assert_eq!(report.offered, 64);
}

#[test]
fn partitioner_ladder_survives_bursty_overload_and_recovers() {
    // End-to-end: μLayer emits the ladder, the serving frontend plays a
    // seeded bursty overload against it. The queue stays bounded, the
    // accounting is exact, degraded rungs absorb the burst, and the
    // stream returns to the full cooperative plan once drained.
    let spec = SocSpec::exynos_7420();
    let rt = ULayer::new(spec.clone()).unwrap();
    let g = ModelId::SqueezeNet.build();
    let ladder = rt.degradation_ladder(&g, None).unwrap();
    assert!(ladder.len() >= 3);

    let full = execute_plan(&spec, &g, &ladder[0].plan).unwrap().latency;
    let mean = SimSpan::from_nanos((full.as_nanos() / 3).max(1));
    let mut arrivals = ArrivalProcess::from_kind(ArrivalKind::Bursty, mean).times(96, 42);
    // Append a sparse tail well past the burst to witness recovery.
    let last = *arrivals.last().unwrap();
    for k in 1..=4u64 {
        arrivals.push(last + full * 16u64 + (full * 4u64) * k);
    }
    let cfg = ServeConfig {
        queue_capacity: 6,
        deadline: full * 2u64,
    };
    let report = serve_stream(&spec, &g, &ladder, &arrivals, &cfg, &FaultPlan::none()).unwrap();
    report.check_invariants().unwrap();
    assert_eq!(report.offered, 100);
    assert!(report.queue_peak <= cfg.queue_capacity);
    assert!(
        report.degraded + report.shed > 0,
        "3x overload should degrade or shed: {:?}",
        report.rung_counts
    );
    // Recovery: the sparse tail runs at full fidelity.
    for r in report.frames.iter().rev().take(3) {
        assert_eq!(
            r.fate,
            FrameFate::Executed { rung: 0 },
            "frame {} should have recovered to the full rung",
            r.frame
        );
    }
    // The metrics surface carries the serving counters.
    assert_eq!(report.metrics.counter("frames.offered"), 100);
    assert_eq!(
        report.metrics.counter("serve.rung.full"),
        report.rung_counts[0]
    );
}
