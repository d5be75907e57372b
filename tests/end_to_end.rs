//! End-to-end integration: every mechanism on every evaluated network,
//! on both simulated SoCs.

use ulayer::{ULayer, ULayerConfig};
use unn::ModelId;
use uruntime::{
    run_layer_to_processor, run_network_to_processor, run_single_processor, OverheadClass,
};
use usoc::SocSpec;
use utensor::DType;

#[test]
fn ulayer_beats_the_state_of_the_art_everywhere() {
    // The paper's core claim (Figure 16): μLayer improves latency over the
    // layer-to-processor mechanism for all 5 networks on both SoCs.
    for spec in SocSpec::evaluated() {
        let runtime = ULayer::new(spec.clone()).expect("ulayer");
        for id in ModelId::EVALUATED {
            let g = id.build();
            let u = runtime.run(&g).expect("ulayer run");
            let l2p = run_layer_to_processor(&spec, &g, DType::QUInt8).expect("l2p run");
            assert!(
                u.latency < l2p.latency,
                "{} on {}: {} !< {}",
                id.name(),
                spec.name,
                u.latency,
                l2p.latency
            );
        }
    }
}

#[test]
fn layer_to_processor_bounded_by_singles() {
    // §2.2: the layer-to-processor latency can beat either single
    // processor, but never the per-layer pointwise minimum's sum minus
    // crossings — as a sanity envelope we check it is never worse than
    // the better single processor by more than the crossing overheads
    // would explain, and never better than the oracle combination.
    for spec in SocSpec::evaluated() {
        for id in [ModelId::AlexNet, ModelId::SqueezeNet] {
            let g = id.build();
            let l2p = run_layer_to_processor(&spec, &g, DType::QUInt8).expect("l2p");
            let cpu = run_single_processor(&spec, &g, spec.cpu(), DType::QUInt8).expect("cpu");
            let gpu = run_single_processor(&spec, &g, spec.gpu(), DType::QUInt8).expect("gpu");
            let best = cpu.latency.min(gpu.latency);
            let worst = cpu.latency.max(gpu.latency);
            assert!(l2p.latency <= worst, "{} on {}", id.name(), spec.name);
            // Within 25% of the better single processor (crossing costs).
            assert!(
                l2p.latency.as_secs_f64() <= best.as_secs_f64() * 1.25,
                "{} on {}: l2p {} vs best single {}",
                id.name(),
                spec.name,
                l2p.latency,
                best
            );
        }
    }
}

#[test]
fn runs_are_deterministic() {
    let spec = SocSpec::exynos_7420();
    let runtime = ULayer::new(spec.clone()).expect("ulayer");
    let g = ModelId::GoogLeNet.build();
    let a = runtime.run(&g).expect("run a");
    let b = runtime.run(&g).expect("run b");
    assert_eq!(a.latency, b.latency);
    assert_eq!(a.energy, b.energy);
    assert_eq!(a.trace.records().len(), b.trace.records().len());
}

#[test]
fn every_run_is_zero_copy_and_energy_positive() {
    for spec in SocSpec::evaluated() {
        let runtime = ULayer::new(spec.clone()).expect("ulayer");
        for id in ModelId::EVALUATED {
            let r = runtime.run(&id.build()).expect("run");
            // Zero-copy: processors exchange tensors through shared
            // memory, so no task transfers one.
            let transfers = (r.trace.records().iter())
                .filter(|t| t.payload.class == OverheadClass::Transfer)
                .count();
            assert_eq!(transfers, 0, "{}", id.name());
            assert!(r.memory.peak_bytes > 0);
            assert!(r.energy.total_j() > 0.0);
            assert!(r.energy.static_j > 0.0);
        }
    }
}

#[test]
fn both_processors_do_real_work_under_ulayer() {
    let spec = SocSpec::exynos_7420();
    let runtime = ULayer::new(spec.clone()).expect("ulayer");
    for id in [ModelId::Vgg16, ModelId::GoogLeNet] {
        let r = runtime.run(&id.build()).expect("run");
        let busy = r.trace.busy_per_resource();
        let cpu_busy = busy[&simcore::ResourceId(spec.cpu().0)];
        let gpu_busy = busy[&simcore::ResourceId(spec.gpu().0)];
        // Each processor carries at least 25% of the makespan.
        assert!(
            cpu_busy.as_secs_f64() > 0.25 * r.latency.as_secs_f64(),
            "{}",
            id.name()
        );
        assert!(
            gpu_busy.as_secs_f64() > 0.25 * r.latency.as_secs_f64(),
            "{}",
            id.name()
        );
    }
}

#[test]
fn ablation_steps_never_hurt_in_geomean() {
    // Figure 17: adding mechanisms helps on (geometric) average.
    let spec = SocSpec::exynos_7420();
    let configs = [
        ULayerConfig::channel_distribution_only(),
        ULayerConfig::with_proc_quant(),
        ULayerConfig::full(),
    ];
    let runtimes: Vec<ULayer> = configs
        .iter()
        .map(|c| ULayer::with_config(spec.clone(), c.clone()).expect("ulayer"))
        .collect();
    let mut logsum = [0.0f64; 3];
    for id in ModelId::EVALUATED {
        let g = id.build();
        for (i, rt) in runtimes.iter().enumerate() {
            logsum[i] += rt.run(&g).expect("run").latency.as_secs_f64().ln();
        }
    }
    assert!(logsum[1] <= logsum[0] + 1e-6, "{logsum:?}");
    assert!(logsum[2] <= logsum[1] + 1e-6, "{logsum:?}");
}

#[test]
fn network_to_processor_trades_latency_for_throughput() {
    let spec = SocSpec::exynos_7420();
    let g = ModelId::MobileNet.build();
    let single = run_single_processor(&spec, &g, spec.cpu(), DType::QUInt8).expect("single");
    let n2p = run_network_to_processor(&spec, &g, DType::QUInt8, 16).expect("n2p");
    let single_tput = 1.0 / single.latency.as_secs_f64();
    assert!(n2p.throughput > single_tput * 1.2);
    let runtime = ULayer::new(spec).expect("ulayer");
    let u = runtime.run(&g).expect("ulayer");
    // μLayer's single-input latency beats network-to-processor's.
    assert!(u.latency < n2p.per_input_latency);
}

#[test]
fn npu_extension_improves_the_biggest_networks() {
    let base = ULayer::new(SocSpec::exynos_7420()).expect("base");
    let with_npu = ULayer::new(SocSpec::exynos_7420().with_npu()).expect("npu");
    for id in [ModelId::Vgg16, ModelId::AlexNet] {
        let g = id.build();
        let a = base.run(&g).expect("base run").latency;
        let b = with_npu.run(&g).expect("npu run").latency;
        assert!(b < a, "{}: {} !< {}", id.name(), b, a);
    }
}
