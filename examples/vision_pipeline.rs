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
//! improves both.

use ulayer::ULayer;
use unn::ModelId;
use uruntime::{run_layer_to_processor, run_network_to_processor, run_single_processor};
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

    // Sustained pipelined stream over a short clip: frames arrive every
    // 33.3 ms and successive inferences overlap on the shared processors.
    println!("\nstreaming a {frames}-frame clip through the uLayer plan (pipelined):");
    let report = runtime.plan(&net)?;
    let interval = simcore::SimSpan::from_secs_f64(FRAME_BUDGET_MS / 1e3);
    // Fault-free, with the frame budget as the deadline the run counts
    // misses against.
    let options = uruntime::RunOptions {
        deadline: Some(interval),
        ..uruntime::RunOptions::default()
    };
    let (stream, _) =
        uruntime::execute_pipeline(&spec, &net, &report.plan, frames, interval, &options)?;
    println!(
        "  {:.2} s total, {:.1} fps sustained, {:.1} mJ total",
        stream.makespan.as_secs_f64(),
        stream.throughput_ips,
        stream.energy.total_mj()
    );
    println!(
        "  per-frame latency: mean {:.2} ms, worst {:.2} ms; frames over budget: {}/{frames}",
        stream.mean_latency().as_millis_f64(),
        stream.max_latency().as_millis_f64(),
        stream.metrics.counter("deadline.missed")
    );
    Ok(())
}
