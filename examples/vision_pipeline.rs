//! Continuous-vision pipeline: sustained frame processing on a phone SoC.
//!
//! ```text
//! cargo run --release --example vision_pipeline
//! ```
//!
//! The paper motivates μLayer with real-time services (§1): this example
//! models a camera pipeline pushing frames through MobileNet v1 on the
//! mid-range SoC and asks which execution mechanism sustains a 30 fps
//! deadline — and at what energy cost per frame. It also contrasts the
//! *throughput*-oriented network-to-processor mechanism (Figure 4a),
//! which hits high fps but terrible per-frame latency, with μLayer, which
//! improves both. Finally it serves a 30-frame clip through the serving
//! core, with μLayer's plan as the top rung of the degradation ladder,
//! and exits non-zero if the serving invariants fail.

use simcore::{FaultPlan, SimSpan, SimTime};
use ulayer::ULayer;
use unn::ModelId;
use uruntime::{
    run_layer_to_processor, run_network_to_processor, run_single_processor, serve_stream,
    ServeConfig,
};
use usoc::SocSpec;
use utensor::DType;

const FRAME_BUDGET_MS: f64 = 33.3; // 30 fps

fn verdict(latency_ms: f64) -> &'static str {
    if latency_ms <= FRAME_BUDGET_MS {
        "meets 30 fps"
    } else {
        "MISSES 30 fps"
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = SocSpec::exynos_7880();
    let net = ModelId::MobileNet.build();
    println!(
        "camera pipeline: {} on {}, frame budget {FRAME_BUDGET_MS:.1} ms\n",
        net.name(),
        spec.name
    );

    println!(
        "{:<26} {:>12} {:>10} {:>14}  deadline",
        "mechanism", "latency(ms)", "fps", "energy/frame"
    );
    println!("{}", "-".repeat(78));

    let show = |label: &str, latency_ms: f64, energy_mj: f64| {
        println!(
            "{label:<26} {latency_ms:>12.2} {:>10.1} {:>11.1} mJ  {}",
            1000.0 / latency_ms,
            energy_mj,
            verdict(latency_ms)
        );
    };

    let cpu = run_single_processor(&spec, &net, spec.cpu(), DType::QUInt8)?;
    show("CPU-only (QUInt8)", cpu.latency_ms(), cpu.energy.total_mj());
    let gpu = run_single_processor(&spec, &net, spec.gpu(), DType::F16)?;
    show("GPU-only (F16)", gpu.latency_ms(), gpu.energy.total_mj());
    let l2p = run_layer_to_processor(&spec, &net, DType::QUInt8)?;
    show(
        "layer-to-proc (QUInt8)",
        l2p.latency_ms(),
        l2p.energy.total_mj(),
    );

    let runtime = ULayer::new(spec.clone())?;
    let u = runtime.run(&net)?;
    show("uLayer (cooperative)", u.latency_ms(), u.energy.total_mj());

    // The throughput-oriented mechanism (Figure 4a): great fps, but each
    // frame still takes a full single-processor pass — useless for
    // latency-sensitive vision (§2.2).
    let frames = 30;
    let n2p = run_network_to_processor(&spec, &net, DType::QUInt8, frames)?;
    println!(
        "{:<26} {:>12.2} {:>10.1} {:>14}  per-frame latency unchanged",
        "network-to-proc (batch)",
        n2p.per_input_latency.as_millis_f64(),
        n2p.throughput,
        "-"
    );

    // A short clip served through the degradation ladder: a camera frame
    // every 33.3 ms, each due within the frame budget. A frame the full
    // plan cannot finish in time runs a cheaper rung or is shed.
    println!("\nserving a {frames}-frame clip through the uLayer degradation ladder:");
    let ladder = runtime.degradation_ladder(&net, None)?;
    let interval = SimSpan::from_secs_f64(FRAME_BUDGET_MS / 1e3);
    let arrivals: Vec<SimTime> = (0..frames as u64)
        .map(|k| SimTime::ZERO + interval * k)
        .collect();
    let cfg = ServeConfig {
        queue_capacity: 4,
        deadline: interval,
    };
    let report = serve_stream(&spec, &net, &ladder, &arrivals, &cfg, &FaultPlan::none())?;
    println!(
        "  completed {}, degraded {}, shed {} of {} frames",
        report.completed, report.degraded, report.shed, report.offered
    );
    let ms = |q: f64| {
        report
            .latency_percentile(q)
            .map_or("-".to_string(), |l| format!("{:.2} ms", l.as_millis_f64()))
    };
    println!("  latency p50 {}, p99 {}", ms(0.5), ms(0.99));
    if let Err(e) = report.check_invariants() {
        eprintln!("serving invariants violated: {e}");
        std::process::exit(1);
    }
    Ok(())
}
