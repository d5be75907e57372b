//! SoC explorer: inspect how μLayer schedules work onto a simulated SoC.
//!
//! ```text
//! cargo run --release --example soc_explorer [googlenet|squeezenet|vgg16|alexnet|mobilenet]
//! ```
//!
//! Prints the network summary, the partitioner's plan (split ratios and
//! branch mappings), per-device utilization, shared-memory statistics,
//! the schedule Gantt chart, and the §8.3 what-if of adding an NPU.

use ulayer::ULayer;
use unn::ModelId;
use uruntime::NodePlacement;
use usoc::SocSpec;

fn pick_model(arg: Option<&str>) -> ModelId {
    match arg.unwrap_or("googlenet").to_ascii_lowercase().as_str() {
        "squeezenet" => ModelId::SqueezeNet,
        "vgg16" | "vgg" => ModelId::Vgg16,
        "alexnet" => ModelId::AlexNet,
        "mobilenet" => ModelId::MobileNet,
        "lenet" => ModelId::LeNet,
        _ => ModelId::GoogLeNet,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let id = pick_model(args.first().map(String::as_str));
    let net = id.build();
    let spec = SocSpec::exynos_7420();

    println!("{}", net.summary()?);

    let runtime = ULayer::new(spec.clone())?;
    let report = runtime.plan(&net)?;

    // Plan overview.
    let mut singles_cpu = 0;
    let mut singles_gpu = 0;
    let mut splits = 0;
    for p in &report.plan.placements {
        match p {
            NodePlacement::Split { .. } => splits += 1,
            NodePlacement::Single { device, .. } if *device == spec.cpu() => singles_cpu += 1,
            NodePlacement::Single { .. } => singles_gpu += 1,
        }
    }
    println!("uLayer plan:");
    println!("  {splits} layers split channel-wise across CPU+GPU");
    println!("  {singles_cpu} layers pinned to the CPU, {singles_gpu} to the GPU");
    println!(
        "  {} branch groups mapped (§5):",
        report.branch_mappings.len()
    );
    for m in &report.branch_mappings {
        let names: Vec<&str> = m
            .assignment
            .iter()
            .map(|d| spec.devices[d.0].kind.name())
            .collect();
        println!(
            "    join {} -> {:?} (predicted {:.2} ms vs per-layer {:.2} ms)",
            net.node(m.join).name,
            names,
            m.mapped_cost.as_millis_f64(),
            m.baseline_cost.as_millis_f64()
        );
    }

    let result = uruntime::execute_plan(&spec, &net, &report.plan)?;
    println!(
        "\nexecution: {:.2} ms, {:.1} mJ",
        result.latency_ms(),
        result.energy.total_mj()
    );

    // Per-device busy time.
    println!("device utilization:");
    for (res, busy) in result.trace.busy_per_resource() {
        let name = &result.resource_names[res.0];
        let util = busy.as_secs_f64() / result.latency.as_secs_f64() * 100.0;
        println!(
            "  {name:<26} busy {:>8.2} ms ({util:>5.1}%)",
            busy.as_millis_f64()
        );
    }

    // The plan's zero-copy buffers: outputs and weights, summed from its
    // layout.
    let m = result.memory;
    println!(
        "shared memory: {} buffers, peak {:.1} MiB",
        m.allocations,
        m.peak_bytes as f64 / (1024.0 * 1024.0)
    );

    println!("\nschedule:");
    print!("{}", result.gantt());

    // §8.3: what if this SoC had an NPU?
    let npu_rt = ULayer::new(SocSpec::exynos_7420().with_npu())?;
    let npu = npu_rt.run(&net)?;
    println!(
        "\nwith an NPU (§8.3 extension): {:.2} ms ({:.2}x)",
        npu.latency_ms(),
        result.latency.as_secs_f64() / npu.latency.as_secs_f64()
    );
    Ok(())
}
