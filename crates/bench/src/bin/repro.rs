//! Regenerates every table and figure of the μLayer paper.
//!
//! ```text
//! repro [fig5|fig6|fig8|fig10|fig12|fig16|fig17|fig18|table1|npu|all]
//! repro trace [net] [--miniature] [--trace-out=FILE]
//! repro faults [net] [--scenario=throttle|flaky-gpu|gpu-loss] [--seed=N] [--miniature]
//! repro serve [net] [--arrivals=fixed|bursty|poisson] [--rate=FPS] [--deadline=MS]
//!             [--queue=N] [--frames=N] [--seed=N] [--miniature] [--trace-out=FILE]
//! repro measure [net] [--miniature] [--threads=N] [--repeat=N]
//!               [--kernel-path=auto|scalar|avx2|avx512|avx512fp16] [--out=FILE]
//! repro fleet [net] [--devices=N] [--frames=N] [--seed=N] [--miniature]
//!             [--storm=none|throttle-wave|gpu-loss|flaky-epidemic|link-partition]
//!             [--arrivals=fixed|bursty|poisson] [--rate=FPS] [--deadline=MS]
//!             [--queue=N] [--fuzz-orders=N] [--plan-cache=on|off]
//!             [--min-hit-rate=R] [--out=FILE]
//! repro mesh [--nodes=N] [--frames=N] [--seed=N]
//!            [--link-fault=none|drop|delay|jitter|flap|partition]
//!            [--arrivals=fixed|bursty|poisson] [--rate=FPS] [--deadline=MS]
//!            [--queue=N] [--out=FILE]
//! repro plan [net] [--frames=N] [--seed=N] [--miniature]
//!            [--drift=calm|throttle|loss|oscillate] [--min-hit-rate=R] [--out=FILE]
//! ```
//!
//! Each subcommand prints paper-style rows; `all` runs everything.
//! Latency/energy figures run on the simulated Exynos 7420/7880 SoCs and
//! complete in seconds; `fig10` trains two classifiers from scratch and
//! takes a few minutes.
//!
//! `trace` runs the μLayer schedule for one network, prints its overhead
//! attribution on both SoCs, and writes the high-end SoC's schedule as a
//! Chrome trace-event JSON file (loadable in `chrome://tracing` or
//! Perfetto).
//!
//! `fleet` simulates a mixed-SoC device fleet under a correlated fault
//! storm and checks the fleet invariants and the schedule-order fuzz
//! gate.
//!
//! `mesh` serves a RAM-limited MCU-style mesh through the partition-
//! tolerant degradation ladder under a seeded link-fault scenario,
//! and checks the exact frame accounting and the QUInt8 bit-identity
//! gate.
//!
//! `measure`, `fleet`, `mesh` and `plan` write a machine-readable JSON
//! document to `--out=FILE`; without the flag nothing is written.
//!
//! Argument parsing is table-driven ([`ubench::parse_flags`]): unknown
//! flags and malformed `--key=value` pairs are typed errors with exit
//! code 2.

use simcore::JsonValue;
use ubench::{geomean, ms, opt_ms, pct, ratio, Table};

fn fail(e: ubench::CliError) -> ! {
    eprintln!("repro: {e}");
    std::process::exit(2);
}

/// Parses a subcommand's arguments against its flag table, exiting
/// with a typed error on anything the table does not declare.
fn parse_or_exit(sub: &'static str, args: &[String]) -> ubench::Parsed {
    let specs = ubench::subcommand_flags(sub).expect("registered subcommand");
    ubench::parse_flags(sub, args, specs).unwrap_or_else(|e| fail(e))
}

/// Resolves the positional network argument (last one wins), exiting
/// with a typed error on a token that names no network.
fn model_arg(sub: &'static str, p: &ubench::Parsed, default: unn::ModelId) -> unn::ModelId {
    let mut model = default;
    for a in &p.positional {
        match parse_model(a) {
            Some(m) => model = m,
            None => fail(ubench::CliError::BadPositional {
                subcommand: sub,
                given: a.clone(),
            }),
        }
    }
    model
}

/// Prints the collected violations under `label` and exits non-zero if
/// there are any.
fn exit_on_violations(label: &str, violations: &[String]) {
    for v in violations {
        eprintln!("{label}: {v}");
    }
    if !violations.is_empty() {
        std::process::exit(1);
    }
}

/// Builds and writes a subcommand's machine-readable document when
/// `--out=FILE` was given; without the flag nothing is written.
fn write_out(path: Option<&str>, document: impl FnOnce() -> JsonValue) {
    let Some(path) = path else { return };
    if let Err(e) = std::fs::write(path, document().render()) {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {path}");
}

/// A rung table: label and realized service latency, plus the frames
/// each rung executed when `counts` is given.
fn print_rungs(rungs: &[(String, f64)], counts: Option<&[u64]>) {
    let mut header = vec!["Rung", "Service (ms)"];
    header.extend(counts.map(|_| "Frames"));
    let mut t = Table::new(&header);
    for (i, (label, lat_ms)) in rungs.iter().enumerate() {
        let mut row = vec![label.clone(), ms(*lat_ms)];
        row.extend(counts.map(|c| c[i].to_string()));
        t.row(row);
    }
    print!("{}", t.render());
}

/// The planner-session line of a stream served from one cached ladder.
fn print_planner_probes(ps: &ulayer::PlannerStats) {
    println!(
        "planner: {} probes, {} hit / {} miss (hit rate {:.1}%), {:.3} ms wall",
        ps.frames,
        ps.cache_hits,
        ps.cache_misses,
        ps.hit_rate() * 100.0,
        ps.wall_ns as f64 / 1e6
    );
}

/// What `serve`, `mesh` and `fleet` all report: the frame partition,
/// the admission queue, per-rung occupancy and the latency tail.
struct Slo<'a> {
    /// `[offered, completed, degraded, shed, rejected]`.
    counts: [u64; 5],
    /// `(peak, capacity)` of the admission queue.
    queue: (usize, usize),
    /// Executed frames per rung label.
    occupancy: Vec<(&'a str, u64)>,
    /// Ascending latencies of the executed frames.
    latencies: &'a [simcore::SimSpan],
    /// The latency tail reported: p50 / p95 / p99, and p99.9 for a
    /// fleet, a population large enough to have one.
    quantiles: &'static [(&'static str, f64)],
}

impl<'a> From<&'a uruntime::ServeReport> for Slo<'a> {
    fn from(r: &'a uruntime::ServeReport) -> Self {
        Slo {
            counts: [r.offered, r.completed, r.degraded, r.shed, r.rejected],
            queue: (r.queue_peak, r.queue_capacity),
            occupancy: r
                .rung_labels
                .iter()
                .map(String::as_str)
                .zip(r.rung_counts.iter().copied())
                .collect(),
            latencies: &r.latencies,
            quantiles: &simcore::SLO_QUANTILES[..3],
        }
    }
}

impl<'a> From<&'a uruntime::FleetReport> for Slo<'a> {
    fn from(r: &'a uruntime::FleetReport) -> Self {
        Slo {
            counts: [r.offered, r.completed, r.degraded, r.shed, r.rejected],
            queue: (r.queue_peak, r.queue_capacity),
            occupancy: r
                .rung_occupancy
                .iter()
                .map(|(label, n)| (label.as_str(), *n))
                .collect(),
            latencies: &r.latencies,
            quantiles: &simcore::SLO_QUANTILES,
        }
    }
}

impl Slo<'_> {
    /// The Offered ... p99 table.
    fn print_table(&self) {
        let mut header = vec![
            "Offered",
            "Completed",
            "Degraded",
            "Shed",
            "Rejected",
            "Queue peak/cap",
        ];
        let mut row: Vec<String> = self.counts.iter().map(u64::to_string).collect();
        row.push(format!("{}/{}", self.queue.0, self.queue.1));
        for &(name, q) in self.quantiles {
            header.push(if name == "p999" { "p99.9" } else { name });
            row.push(opt_ms(simcore::nearest_rank(self.latencies, q)));
        }
        let mut t = Table::new(&header);
        t.row(row);
        print!("{}", t.render());
    }

    fn print_occupancy(&self) {
        let mut t = Table::new(&["Rung occupancy", "Frames"]);
        for (label, count) in &self.occupancy {
            t.row(vec![label.to_string(), count.to_string()]);
        }
        print!("{}", t.render());
    }

    /// The `totals` pairs every document starts with; the caller
    /// appends its own.
    fn totals_json(&self) -> Vec<(&'static str, JsonValue)> {
        ["offered", "completed", "degraded", "shed", "rejected"]
            .into_iter()
            .zip(self.counts)
            .map(|(k, n)| (k, JsonValue::n(n as f64)))
            .collect()
    }

    fn occupancy_json(&self) -> JsonValue {
        JsonValue::Obj(
            self.occupancy
                .iter()
                .map(|(k, v)| (k.to_string(), JsonValue::n(*v as f64)))
                .collect(),
        )
    }

    fn latency_json(&self) -> JsonValue {
        let mut pairs: Vec<(String, JsonValue)> = self
            .quantiles
            .iter()
            .map(|&(name, q)| {
                let v = simcore::nearest_rank(self.latencies, q);
                (
                    format!("{name}_ms"),
                    v.map_or(JsonValue::Null, |s| JsonValue::n(s.as_millis_f64())),
                )
            })
            .collect();
        pairs.push(("samples".into(), JsonValue::n(self.latencies.len() as f64)));
        JsonValue::Obj(pairs)
    }
}

/// `"ok"`, or the first invariant violation, for a document.
fn invariants_json(check: Result<(), String>) -> JsonValue {
    JsonValue::s(check.err().unwrap_or_else(|| "ok".to_string()))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `repro --json <dir> [--with-fig10]` exports machine-readable data.
    if args.first().map(String::as_str) == Some("--json") {
        let dir = args.get(1).map(String::as_str).unwrap_or("repro-json");
        for a in args.iter().skip(2) {
            if a != "--with-fig10" {
                fail(ubench::CliError::UnknownFlag {
                    subcommand: "--json",
                    flag: a.clone(),
                });
            }
        }
        let with_fig10 = args.iter().any(|a| a == "--with-fig10");
        match ubench::export_all(std::path::Path::new(dir), with_fig10) {
            Ok(files) => {
                println!(
                    "wrote {} documents to {dir}/: {}",
                    files.len(),
                    files.join(", ")
                );
                return;
            }
            Err(e) => {
                eprintln!("export failed: {e}");
                std::process::exit(1);
            }
        }
    }
    match args.first().map(String::as_str) {
        Some("trace") => return trace(&args[1..]),
        Some("faults") => return faults(&args[1..]),
        Some("serve") => return serve(&args[1..]),
        Some("measure") => return measure_cmd(&args[1..]),
        Some("fleet") => return fleet_cmd(&args[1..]),
        Some("mesh") => return mesh_cmd(&args[1..]),
        Some("plan") => return plan_cmd(&args[1..]),
        _ => {}
    }
    let what = args.first().map(String::as_str).unwrap_or("all");
    let known = [
        "fig5",
        "fig6",
        "fig8",
        "fig10",
        "fig12",
        "fig16",
        "fig17",
        "fig18",
        "table1",
        "npu",
        "predictor",
        "sweeps",
        "all",
    ];
    if !known.contains(&what) {
        eprintln!(
            "repro: {}\nusage: repro [{}|trace|faults|serve|measure|fleet|mesh|plan] | repro --json <dir> [--with-fig10]",
            ubench::CliError::UnknownSubcommand { given: what.into() },
            known.join("|")
        );
        std::process::exit(2);
    }
    if let Some(a) = args.get(1) {
        fail(ubench::CliError::UnknownFlag {
            subcommand: "figures",
            flag: a.clone(),
        });
    }
    let run = |name: &str| what == name || what == "all";

    if run("table1") {
        table1();
    }
    if run("fig5") {
        fig5();
    }
    if run("fig6") {
        fig6();
    }
    if run("fig8") {
        fig8();
    }
    if run("fig10") {
        fig10();
    }
    if run("fig12") {
        fig12();
    }
    if run("fig16") {
        fig16();
    }
    if run("fig17") {
        fig17();
    }
    if run("fig18") {
        fig18();
    }
    if run("npu") {
        npu();
    }
    if run("predictor") {
        predictor();
    }
    if run("sweeps") {
        sweeps();
    }
}

fn parse_model(name: &str) -> Option<unn::ModelId> {
    match name.to_ascii_lowercase().as_str() {
        "vgg16" | "vgg" => Some(unn::ModelId::Vgg16),
        "alexnet" => Some(unn::ModelId::AlexNet),
        "squeezenet" => Some(unn::ModelId::SqueezeNet),
        "googlenet" => Some(unn::ModelId::GoogLeNet),
        "mobilenet" => Some(unn::ModelId::MobileNet),
        _ => None,
    }
}

/// `repro trace [net] [--miniature] [--trace-out=FILE]`: overhead
/// attribution on both SoCs plus a Chrome trace-event JSON export of the
/// high-end SoC's schedule.
fn trace(args: &[String]) {
    let p = parse_or_exit("trace", args);
    let model = model_arg("trace", &p, unn::ModelId::Vgg16);
    let miniature = p.switch("--miniature");
    let out_path: Option<String> = p.str_of("--trace-out").map(str::to_string);

    heading(&format!(
        "Schedule observability: uLayer {} (overhead attribution + trace export)",
        model.name()
    ));
    let reports = ubench::overhead_attribution(model, miniature);
    for rep in &reports {
        println!("\n--- {} ---", rep.soc);
        println!("in-place joins: {}", rep.in_place_joins);
        print!("{}", rep.result.attribution.render_text());
        println!("\ncounters:");
        print!("{}", rep.result.metrics.render());
    }

    // Export the high-end SoC's schedule and prove it round-trips.
    let rep = &reports[0];
    let json = uruntime::chrome_trace_json(&rep.result.trace, &rep.result.resource_names, None);
    let path = out_path.unwrap_or_else(|| {
        format!(
            "trace-{}.json",
            model.name().to_ascii_lowercase().replace([' ', '.'], "-")
        )
    });
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    }
    let reread = std::fs::read_to_string(&path).expect("reread trace file");
    match simcore::validate_chrome_trace(&reread) {
        Ok(summary) => println!(
            "\nwrote {path}: {} events on {} tracks (validated; load in chrome://tracing or Perfetto)",
            summary.complete_events, summary.tracks
        ),
        Err(e) => {
            eprintln!("exported trace failed validation: {e}");
            std::process::exit(1);
        }
    }
}

/// `repro faults [net] [--scenario=NAME] [--seed=N] [--miniature]`:
/// resilient execution under injected faults, against the fault-free
/// baseline. Exits non-zero if recovery is not bit-identical, or if the
/// flaky-gpu scenario fails to exercise both the retry and the fallback
/// path.
fn faults(args: &[String]) {
    let p = parse_or_exit("faults", args);
    let model = model_arg("faults", &p, unn::ModelId::SqueezeNet);
    let miniature = p.switch("--miniature");
    let seed = p.u64_of("--seed").unwrap_or(42);
    let scenarios: Vec<simcore::Scenario> = match p.str_of("--scenario") {
        Some(s) => vec![simcore::Scenario::from_name(s).expect("validated at parse")],
        None => simcore::Scenario::ALL.to_vec(),
    };

    heading(&format!(
        "Fault injection: uLayer {} under {} (seed {seed})",
        model.name(),
        scenarios
            .iter()
            .map(|s| s.name())
            .collect::<Vec<_>>()
            .join(", "),
    ));
    let mut violations = Vec::new();
    for &scenario in &scenarios {
        let reports = ubench::fault_scenarios(model, scenario, miniature, seed);
        println!("\n--- scenario: {} ---", scenario.name());
        let mut t = Table::new(&[
            "SoC",
            "Baseline (ms)",
            "Faulted (ms)",
            "Slowdown",
            "Injected",
            "Retries",
            "Fallbacks",
            "Wasted (ms)",
            "Bit-identical",
        ]);
        for r in &reports {
            t.row(vec![
                r.soc.clone(),
                ms(r.baseline_ms),
                ms(r.faulted_ms),
                ratio(r.faulted_ms / r.baseline_ms),
                r.injected.to_string(),
                r.retries.to_string(),
                r.fallback_parts.to_string(),
                ms(r.wasted_ms),
                if r.bit_identical { "yes" } else { "NO" }.to_string(),
            ]);
            if !r.bit_identical {
                violations.push(format!(
                    "{} / {}: recovered outputs diverge from the fault-free run",
                    r.soc,
                    scenario.name()
                ));
            }
            if scenario == simcore::Scenario::FlakyGpu && (r.retries < 1 || r.fallback_parts < 1) {
                violations.push(format!(
                    "{} / flaky-gpu: expected >=1 retry and >=1 fallback, got {} and {}",
                    r.soc, r.retries, r.fallback_parts
                ));
            }
        }
        print!("{}", t.render());
    }
    println!("\n(recovery re-executes only the failed parts' output channels on the");
    println!(" surviving processor; outputs stay bit-identical to the fault-free run)");
    exit_on_violations("FAULT-RUN VIOLATION", &violations);
}

/// `repro serve [net] [--arrivals=NAME] [--rate=FPS] [--deadline=MS]
/// [--queue=N] [--frames=N] [--seed=N] [--miniature] [--trace-out=FILE]`:
/// overload-robust serving of a seeded arrival stream through the
/// μLayer degradation ladder. Prints the SLO table (per-rung counts,
/// shed/rejected, latency percentiles) and exits non-zero if a serving
/// invariant breaks — the queue exceeding its bound, or offered frames
/// not partitioning exactly into completed/degraded/shed.
fn serve(args: &[String]) {
    let p = parse_or_exit("serve", args);
    let model = model_arg("serve", &p, unn::ModelId::SqueezeNet);
    let miniature = p.switch("--miniature");
    let arrivals = p
        .str_of("--arrivals")
        .map(|s| simcore::ArrivalKind::from_name(s).expect("validated at parse"))
        .unwrap_or(simcore::ArrivalKind::Bursty);
    let rate_fps = p.f64_of("--rate").unwrap_or(0.0);
    let deadline_ms = p.f64_of("--deadline").unwrap_or(0.0);
    let queue = p.usize_of("--queue").unwrap_or(8);
    let frames = p.usize_of("--frames").unwrap_or(96);
    let seed = p.u64_of("--seed").unwrap_or(42);
    let out_path: Option<String> = p.str_of("--trace-out").map(str::to_string);

    heading(&format!(
        "Overload serving: uLayer {} under {} arrivals (seed {seed}, {frames} frames, queue {queue})",
        model.name(),
        arrivals,
    ));
    let reports = ubench::serve_overload(
        model,
        arrivals,
        miniature,
        frames,
        rate_fps,
        deadline_ms,
        queue,
        seed,
    );
    let mut violations = Vec::new();
    for rep in &reports {
        let r = &rep.report;
        println!(
            "\n--- {} (mean interval {}, deadline {}) ---",
            rep.soc,
            ms(rep.mean_interval_ms),
            ms(rep.deadline_ms)
        );
        print_rungs(&rep.rungs, Some(&r.rung_counts));
        Slo::from(r).print_table();
        print_planner_probes(&rep.planner);
        if let Err(e) = r.check_invariants() {
            violations.push(format!("{} / {}: {e}", rep.soc, rep.network));
        }
    }

    // Optionally export the high-end SoC's serving timeline.
    if let Some(path) = out_path {
        let json = reports[0].report.chrome_trace_json();
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        match simcore::validate_chrome_trace(&json) {
            Ok(summary) => println!(
                "\nwrote {path}: {} events on {} tracks (admission/rung/shed overlays)",
                summary.complete_events, summary.tracks
            ),
            Err(e) => {
                eprintln!("exported serving trace failed validation: {e}");
                std::process::exit(1);
            }
        }
    }

    println!("\n(bounded admission rejects at the door; the ladder degrades per-frame");
    println!(" from predicted slack and climbs back once the backlog drains)");
    exit_on_violations("SERVE INVARIANT VIOLATION", &violations);
}

/// `repro measure [net] [--miniature] [--threads=N] [--repeat=N]
/// [--kernel-path={auto|scalar|avx2|avx512|avx512fp16}] [--out=FILE]`:
/// wall-clock measurement of the μLayer cooperative plan against the
/// single-processor CPU baseline on real worker threads, plus predictor
/// calibration from the measured samples. `--out=FILE` writes the
/// machine-readable measurement document.
fn measure_cmd(args: &[String]) {
    let p = parse_or_exit("measure", args);
    let model = model_arg("measure", &p, unn::ModelId::SqueezeNet);
    let miniature = p.switch("--miniature");
    let threads = p
        .usize_of("--threads")
        .unwrap_or_else(|| uexec::ExecConfig::from_env().cpu_threads);
    let repeat = p.usize_of("--repeat").unwrap_or(3);
    let kernel_path = p
        .str_of("--kernel-path")
        .map(|s| ukernels::PathChoice::parse(s).expect("validated at parse"))
        .unwrap_or_else(ukernels::PathChoice::from_env);

    heading(&format!(
        "Measured execution: uLayer {} on real worker pools ({threads} threads/pool, best of {repeat})",
        model.name()
    ));
    let (tier, host) = (kernel_path.resolve(), ukernels::simd_tier());
    println!(
        "kernel path: {} (resolved: {}), cpu features: {}",
        kernel_path.as_str(),
        tier.as_str(),
        ukernels::cpu_features(),
    );
    if matches!(kernel_path, ukernels::PathChoice::Cap(cap) if cap > host) {
        println!(
            "WARN: {} requested but this host's widest tier is {}; running that",
            kernel_path.as_str(),
            host.as_str(),
        );
    }
    if tier > ukernels::SimdTier::None && tier < ukernels::SimdTier::Avx512Fp16 {
        println!(
            "WARN: the {} tier has no avx512fp16; the GPU pool runs the scalar F16::mul_add",
            tier.as_str(),
        );
    }

    let g = if miniature {
        model.build_miniature()
    } else {
        model.build()
    };
    let w = unn::Weights::random(&g, 5).expect("weights");
    let shape = g.input_shape().clone();
    let x = utensor::Tensor::from_f32(
        shape.clone(),
        (0..shape.numel())
            .map(|i| (((i * 31) % 200) as f32) / 100.0 - 1.0)
            .collect(),
    )
    .expect("input");
    let calib = unn::calibrate(&g, &w, std::slice::from_ref(&x)).expect("calibrate");

    let spec = usoc::SocSpec::exynos_7420();
    let runtime = ulayer::ULayer::new(spec.clone()).expect("ulayer runtime");
    let coop_plan = runtime.plan(&g).expect("ulayer plan").plan;
    let single_plan =
        uruntime::single_processor_plan(&g, &spec, spec.cpu(), utensor::DType::QUInt8)
            .expect("single plan");

    let report = uexec::measure(
        &spec,
        &g,
        &w,
        &calib,
        &x,
        &coop_plan,
        &single_plan,
        &uexec::MeasureConfig {
            threads,
            repeat,
            kernel_path,
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("measurement failed: {e}");
        std::process::exit(1);
    });

    // Calibrate the predictor from the measured cooperative samples.
    let measured: Vec<ulayer::MeasuredSample> = report
        .samples
        .iter()
        .map(|s| ulayer::MeasuredSample {
            device: s.device,
            class: s.class,
            compute_dtype: s.compute_dtype,
            macs: s.macs,
            bytes: s.bytes,
            seconds: s.seconds,
        })
        .collect();
    let (_fitted, fit) = ulayer::LatencyPredictor::fit_from_measurements(&measured);

    let mut t = Table::new(&["Layer", "Kind", "Coop (ms)", "Single (ms)"]);
    for row in &report.layers {
        t.row(vec![
            row.name.clone(),
            row.kind.clone(),
            ms(row.coop_s * 1e3),
            ms(row.single_s * 1e3),
        ]);
    }
    print!("{}", t.render());

    println!(
        "\ntotal wall: cooperative {} vs single-pool {} => measured speedup {}",
        ms(report.coop_total_s * 1e3),
        ms(report.single_total_s * 1e3),
        ratio(report.measured_speedup),
    );
    println!(
        "modeled speedup (simulator): {}",
        ratio(report.modeled_speedup)
    );
    if report.host_parallelism < 2 {
        println!(
            "note: host has {} core(s); the two pools time-share, so cooperative \
             execution cannot beat the single pool here (expected on CI)",
            report.host_parallelism
        );
    } else if report.measured_speedup <= 1.0 {
        println!(
            "WARN: cooperative did not beat single-pool on this {}-core host",
            report.host_parallelism
        );
    }

    println!(
        "\npredictor calibration: {} samples fitted into {} models ({} skipped), \
         mean in-sample rel. err {}",
        fit.samples_used,
        fit.groups.len(),
        fit.samples_skipped,
        pct(fit.mean_rel_err()),
    );
    let mut t = Table::new(&["Device", "Class", "Dtype", "Samples", "Rel. err"]);
    for gfit in &fit.groups {
        t.row(vec![
            spec.device(gfit.device)
                .map(|d| d.name.clone())
                .unwrap_or_else(|_| format!("{}", gfit.device)),
            format!("{:?}", gfit.class),
            format!("{}", gfit.compute_dtype),
            gfit.samples.to_string(),
            pct(gfit.mean_rel_err),
        ]);
    }
    print!("{}", t.render());

    let out = p.str_of("--out");
    if out.is_some() {
        println!();
    }
    write_out(out, || measure_json(&spec, &report, &fit));
}

/// The machine-readable measurement document.
fn measure_json(
    spec: &usoc::SocSpec,
    report: &uexec::MeasureReport,
    fit: &ulayer::FitReport,
) -> JsonValue {
    let dev_name = |id: usoc::DeviceId| {
        spec.device(id)
            .map(|d| d.name.clone())
            .unwrap_or_else(|_| format!("{id}"))
    };
    JsonValue::obj(vec![
        ("schema", JsonValue::s(MEASURE_SCHEMA)),
        ("model", JsonValue::s(report.model.clone())),
        ("soc", JsonValue::s(spec.name.clone())),
        ("threads", JsonValue::n(report.threads as f64)),
        ("repeat", JsonValue::n(report.repeat as f64)),
        (
            "host_parallelism",
            JsonValue::n(report.host_parallelism as f64),
        ),
        (
            "kernel_path_requested",
            JsonValue::s(report.kernel_path_requested.clone()),
        ),
        ("kernel_path", JsonValue::s(report.kernel_path.clone())),
        ("cpu_features", JsonValue::s(report.cpu_features.clone())),
        (
            "coop",
            JsonValue::obj(vec![
                ("label", JsonValue::s(report.coop_label.clone())),
                ("total_s", JsonValue::n(report.coop_total_s)),
            ]),
        ),
        (
            "single",
            JsonValue::obj(vec![
                ("label", JsonValue::s(report.single_label.clone())),
                ("total_s", JsonValue::n(report.single_total_s)),
            ]),
        ),
        ("measured_speedup", JsonValue::n(report.measured_speedup)),
        ("modeled_speedup", JsonValue::n(report.modeled_speedup)),
        (
            "fit",
            JsonValue::obj(vec![
                ("samples_used", JsonValue::n(fit.samples_used as f64)),
                ("samples_skipped", JsonValue::n(fit.samples_skipped as f64)),
                ("mean_rel_err", JsonValue::n(fit.mean_rel_err())),
                (
                    "groups",
                    JsonValue::Arr(
                        fit.groups
                            .iter()
                            .map(|gf| {
                                JsonValue::obj(vec![
                                    ("device", JsonValue::s(dev_name(gf.device))),
                                    ("class", JsonValue::s(format!("{:?}", gf.class))),
                                    ("dtype", JsonValue::s(format!("{}", gf.compute_dtype))),
                                    ("samples", JsonValue::n(gf.samples as f64)),
                                    ("mean_rel_err", JsonValue::n(gf.mean_rel_err)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "layers",
            JsonValue::Arr(
                report
                    .layers
                    .iter()
                    .map(|l| {
                        JsonValue::obj(vec![
                            ("node", JsonValue::n(l.node as f64)),
                            ("name", JsonValue::s(l.name.clone())),
                            ("kind", JsonValue::s(l.kind.clone())),
                            ("coop_s", JsonValue::n(l.coop_s)),
                            ("single_s", JsonValue::n(l.single_s)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Schema tag of the measurement document.
const MEASURE_SCHEMA: &str = "ulayer-exec-measure/v3";

/// `repro fleet [net] [--devices=N] [--frames=N] [--seed=N]
/// [--storm=none|throttle-wave|gpu-loss|flaky-epidemic] [--arrivals=NAME]
/// [--rate=FPS] [--deadline=MS] [--queue=N] [--fuzz-orders=N]
/// [--plan-cache=on|off] [--min-hit-rate=R] [--miniature] [--out=FILE]`:
/// a mixed-SoC device fleet served through the μLayer degradation
/// ladder under a correlated fault storm, with one shared weight
/// allocation and per-instance drift adapters. Prints the SLO rollup,
/// writes the fleet document to `--out=FILE`, and exits non-zero if a
/// fleet invariant breaks or the FIFO-vs-shuffled schedule-order gate
/// diverges.
fn fleet_cmd(args: &[String]) {
    let p = parse_or_exit("fleet", args);
    let model = model_arg("fleet", &p, unn::ModelId::SqueezeNet);
    let miniature = p.switch("--miniature");
    let devices = p.usize_of("--devices").unwrap_or(64);
    let frames = p.usize_of("--frames").unwrap_or(32);
    let seed = p.u64_of("--seed").unwrap_or(42);
    let storm_name = p.str_of("--storm").unwrap_or("gpu-loss").to_string();
    let storm = if storm_name == "none" {
        None
    } else {
        Some(simcore::FleetScenario::from_name(&storm_name).expect("validated at parse"))
    };
    let arrivals = p
        .str_of("--arrivals")
        .map(|s| simcore::ArrivalKind::from_name(s).expect("validated at parse"))
        .unwrap_or(simcore::ArrivalKind::Bursty);
    let rate_fps = p.f64_of("--rate").unwrap_or(0.0);
    let deadline_ms = p.f64_of("--deadline").unwrap_or(0.0);
    let queue = p.usize_of("--queue").unwrap_or(8);
    let fuzz_orders = p.usize_of("--fuzz-orders").unwrap_or(2);
    let plan_cache = p.str_of("--plan-cache").unwrap_or("on") == "on";
    let min_hit_rate = p.f64_of("--min-hit-rate");

    heading(&format!(
        "Fleet chaos serving: {devices} devices x {} under storm `{storm_name}` (seed {seed}, {frames} frames/device)",
        model.name(),
    ));
    let rep = ubench::fleet_storm(
        model,
        storm,
        miniature,
        devices,
        frames,
        arrivals,
        rate_fps,
        deadline_ms,
        queue,
        seed,
        fuzz_orders,
        plan_cache,
    )
    .unwrap_or_else(|e| {
        eprintln!("fleet run failed: {e}");
        std::process::exit(1);
    });
    let r = &rep.report;

    for (soc, rungs) in &rep.cohort_rungs {
        println!("\n--- cohort: {soc} ---");
        print_rungs(rungs, None);
    }
    println!(
        "\ncohort instances: {} (mean interval {} ms, deadline {} ms)",
        r.cohort_socs
            .iter()
            .zip(&r.cohort_instances)
            .map(|(s, n)| format!("{s}: {n}"))
            .collect::<Vec<_>>()
            .join(", "),
        ms(r.mean_interval.as_secs_f64() * 1e3),
        ms(r.deadline.as_secs_f64() * 1e3),
    );

    let slo = Slo::from(r);
    slo.print_table();
    slo.print_occupancy();

    println!(
        "\nchaos: {} retries, {} fallbacks, {} throttled dispatches, {} realized deadline misses, {} GPUs lost",
        r.retries, r.fallbacks, r.throttled, r.missed, r.gpu_lost_devices
    );
    println!(
        "weights: {} bytes shared across the fleet in {} allocation(s) (per-device copies would cost {} bytes)",
        r.weight_bytes, r.weight_copies, r.naive_weight_bytes
    );
    println!("fleet energy: {:.3} J", r.energy_j);
    println!(
        "planner: cache {}, {} hit / {} miss (hit rate {:.1}%), {:.3} ms modeled planning",
        if r.plan_cache_enabled { "on" } else { "off" },
        r.plan_hits,
        r.plan_misses,
        r.plan_hit_rate() * 100.0,
        r.planning.as_millis_f64()
    );

    let mut violations = Vec::new();
    if let Err(e) = r.check_invariants() {
        violations.push(format!("fleet invariant: {e}"));
    }
    if let Some(min) = min_hit_rate {
        if r.plan_hit_rate() < min {
            violations.push(format!(
                "plan-cache hit rate {:.3} below the --min-hit-rate gate {min}",
                r.plan_hit_rate()
            ));
        }
    }
    if rep.fuzz_mismatches.is_empty() {
        println!(
            "order-fuzz gate: {} shuffled orders, all byte-identical to FIFO",
            rep.fuzz_orders
        );
    } else {
        violations.push(format!(
            "order-fuzz gate: shuffle seeds {:?} diverged from the FIFO report",
            rep.fuzz_mismatches
        ));
    }

    write_out(p.str_of("--out"), || fleet_json(&rep, &storm_name));

    println!("\n(one weight allocation serves every instance; storms are correlated across");
    println!(" the fleet but each instance's faults, arrivals, and drift state are its own)");
    exit_on_violations("FLEET VIOLATION", &violations);
}

fn mesh_cmd(args: &[String]) {
    let p = parse_or_exit("mesh", args);
    if let Some(a) = p.positional.first() {
        // The mesh network is fixed (the RAM-limited mesh CNN);
        // a positional is always a mistake.
        fail(ubench::CliError::BadPositional {
            subcommand: "mesh",
            given: a.clone(),
        });
    }
    let nodes = p.usize_of("--nodes").unwrap_or(4);
    let frames = p.usize_of("--frames").unwrap_or(32);
    let seed = p.u64_of("--seed").unwrap_or(42);
    let fault_name = p.str_of("--link-fault").unwrap_or("partition").to_string();
    let link_fault = if fault_name == "none" {
        None
    } else {
        Some(simcore::LinkFaultScenario::from_name(&fault_name).expect("validated at parse"))
    };
    let arrivals = p
        .str_of("--arrivals")
        .map(|s| simcore::ArrivalKind::from_name(s).expect("validated at parse"))
        .unwrap_or(simcore::ArrivalKind::Fixed);
    let rate_fps = p.f64_of("--rate").unwrap_or(0.0);
    let deadline_ms = p.f64_of("--deadline").unwrap_or(0.0);
    let queue = p.usize_of("--queue").unwrap_or(4);

    heading(&format!(
        "Mesh serving: {nodes}-node MCU mesh under link fault `{fault_name}` (seed {seed}, {frames} frames)",
    ));
    let rep = ubench::mesh_scenario(
        nodes,
        link_fault,
        frames,
        arrivals,
        rate_fps,
        deadline_ms,
        queue,
        seed,
    )
    .unwrap_or_else(|e| {
        eprintln!("mesh run failed: {e}");
        std::process::exit(1);
    });
    let r = &rep.report;

    print_rungs(&rep.rungs, None);
    println!(
        "\n{} nodes over {} links (mean interval {} ms, deadline {} ms)",
        rep.nodes,
        r.links,
        ms(rep.mean_interval_ms),
        ms(rep.deadline_ms),
    );

    let slo = Slo::from(r);
    slo.print_table();
    slo.print_occupancy();

    println!(
        "\npartition: {} frames arrived with a link down, {} of them degraded to a surviving-subset rung",
        r.frames_during_partition, r.partition_degraded
    );
    print_planner_probes(&rep.planner);

    let mut violations = Vec::new();
    if let Err(e) = r.check_invariants() {
        violations.push(format!("mesh invariant: {e}"));
    }
    if rep.bit_identical {
        println!("numerics gate: every rung bit-identical to the single-device QUInt8 reference");
    } else {
        violations.push("numerics gate: a rung diverged from the QUInt8 reference".to_string());
    }

    write_out(p.str_of("--out"), || mesh_json(&rep, &fault_name));

    println!("\n(each rung covers one surviving connected device subset; a partitioned mesh");
    println!(" degrades to its surviving component's rung instead of shedding the frame)");
    exit_on_violations("MESH VIOLATION", &violations);
}

/// Schema tag of the mesh document.
const MESH_SCHEMA: &str = "ulayer-mesh/v1";

/// The machine-readable mesh document.
fn mesh_json(rep: &ubench::MeshScenarioReport, fault: &str) -> JsonValue {
    let r = &rep.report;
    let slo = Slo::from(r);
    let mut totals = slo.totals_json();
    totals.extend([
        ("queue_peak", JsonValue::n(r.queue_peak as f64)),
        (
            "frames_during_partition",
            JsonValue::n(r.frames_during_partition as f64),
        ),
        (
            "partition_degraded",
            JsonValue::n(r.partition_degraded as f64),
        ),
    ]);
    JsonValue::obj(vec![
        ("schema", JsonValue::s(MESH_SCHEMA)),
        ("net", JsonValue::s("mesh-cnn")),
        ("scenario", JsonValue::s(fault)),
        (
            "mesh",
            JsonValue::obj(vec![
                ("nodes", JsonValue::n(rep.nodes as f64)),
                ("links", JsonValue::n(r.links as f64)),
                ("seed", JsonValue::n(rep.seed as f64)),
                ("queue_capacity", JsonValue::n(r.queue_capacity as f64)),
                ("mean_interval_ms", JsonValue::n(rep.mean_interval_ms)),
                ("deadline_ms", JsonValue::n(rep.deadline_ms)),
            ]),
        ),
        ("totals", JsonValue::obj(totals)),
        ("rung_occupancy", slo.occupancy_json()),
        ("latency", slo.latency_json()),
        ("bit_identical", JsonValue::Bool(rep.bit_identical)),
        (
            "planner",
            JsonValue::obj(vec![
                ("probes", JsonValue::n(rep.planner.frames as f64)),
                ("hits", JsonValue::n(rep.planner.cache_hits as f64)),
                ("misses", JsonValue::n(rep.planner.cache_misses as f64)),
                ("hit_rate", JsonValue::n(rep.planner.hit_rate())),
                ("wall_ms", JsonValue::n(rep.planner.wall_ns as f64 / 1e6)),
            ]),
        ),
        ("invariants", invariants_json(r.check_invariants())),
    ])
}

/// Schema tag of the fleet document.
const FLEET_SCHEMA: &str = "ulayer-fleet/v1";

/// The machine-readable fleet document.
fn fleet_json(rep: &ubench::FleetStormReport, storm: &str) -> JsonValue {
    let r = &rep.report;
    let slo = Slo::from(r);
    let mut totals = slo.totals_json();
    totals.extend([
        ("retries", JsonValue::n(r.retries as f64)),
        ("fallbacks", JsonValue::n(r.fallbacks as f64)),
        ("throttled", JsonValue::n(r.throttled as f64)),
        ("missed", JsonValue::n(r.missed as f64)),
        ("gpu_lost_devices", JsonValue::n(r.gpu_lost_devices as f64)),
        ("queue_peak", JsonValue::n(r.queue_peak as f64)),
    ]);
    JsonValue::obj(vec![
        ("schema", JsonValue::s(FLEET_SCHEMA)),
        ("net", JsonValue::s(r.net.clone())),
        ("scenario", JsonValue::s(storm)),
        (
            "fleet",
            JsonValue::obj(vec![
                ("devices", JsonValue::n(r.fleet_size as f64)),
                (
                    "frames_per_device",
                    JsonValue::n(r.frames_per_device as f64),
                ),
                ("seed", JsonValue::n(r.seed as f64)),
                ("queue_capacity", JsonValue::n(r.queue_capacity as f64)),
                (
                    "mean_interval_ms",
                    JsonValue::n(r.mean_interval.as_secs_f64() * 1e3),
                ),
                ("deadline_ms", JsonValue::n(r.deadline.as_secs_f64() * 1e3)),
                (
                    "cohorts",
                    JsonValue::Arr(
                        r.cohort_socs
                            .iter()
                            .zip(&r.cohort_instances)
                            .map(|(soc, n)| {
                                JsonValue::obj(vec![
                                    ("soc", JsonValue::s(soc.clone())),
                                    ("instances", JsonValue::n(*n as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
        ("totals", JsonValue::obj(totals)),
        ("rung_occupancy", slo.occupancy_json()),
        ("latency", slo.latency_json()),
        ("energy_j", JsonValue::n(r.energy_j)),
        (
            "planner",
            JsonValue::obj(vec![
                (
                    "cache",
                    JsonValue::s(if r.plan_cache_enabled { "on" } else { "off" }),
                ),
                ("hits", JsonValue::n(r.plan_hits as f64)),
                ("misses", JsonValue::n(r.plan_misses as f64)),
                ("hit_rate", JsonValue::n(r.plan_hit_rate())),
                ("planning_ms", JsonValue::n(r.planning.as_millis_f64())),
            ]),
        ),
        (
            "weights",
            JsonValue::obj(vec![
                ("bytes", JsonValue::n(r.weight_bytes as f64)),
                ("copies", JsonValue::n(r.weight_copies as f64)),
                ("naive_bytes", JsonValue::n(r.naive_weight_bytes as f64)),
            ]),
        ),
        (
            "fuzz",
            JsonValue::obj(vec![
                ("orders", JsonValue::n(rep.fuzz_orders as f64)),
                (
                    "mismatched_seeds",
                    JsonValue::Arr(
                        rep.fuzz_mismatches
                            .iter()
                            .map(|s| JsonValue::n(*s as f64))
                            .collect(),
                    ),
                ),
            ]),
        ),
        ("invariants", invariants_json(r.check_invariants())),
    ])
}

/// `repro plan [net] [--frames=N] [--drift=calm|throttle|loss|oscillate]
/// [--seed=N] [--min-hit-rate=X] [--miniature] [--out=FILE]`: drives a
/// drift-keyed planner session over a frame stream on both SoCs,
/// cross-checks every incremental replan against a from-scratch plan
/// (byte-identical or exit non-zero), and reports cache hit rates and
/// planner time vs. the always-scratch ablation. `--out=FILE` writes
/// the planner document.
fn plan_cmd(args: &[String]) {
    let p = parse_or_exit("plan", args);
    let model = model_arg("plan", &p, unn::ModelId::SqueezeNet);
    let miniature = p.switch("--miniature");
    let frames = p.usize_of("--frames").unwrap_or(64);
    let seed = p.u64_of("--seed").unwrap_or(42);
    let drift = p.str_of("--drift").unwrap_or("calm").to_string();
    let min_hit_rate = p.f64_of("--min-hit-rate");

    heading(&format!(
        "Planner cache: uLayer {} over {frames} frames of `{drift}` drift (seed {seed})",
        model.name(),
    ));
    let reports = ubench::plan_experiment(model, &drift, miniature, frames, seed);
    let mut violations = Vec::new();
    let mut t = Table::new(&[
        "SoC",
        "Frames",
        "Hit/Miss",
        "Hit rate",
        "Incr/Scratch",
        "Re-enum/Copied",
        "Planner (ms)",
        "Scratch arm (ms)",
    ]);
    for rep in &reports {
        let s = &rep.stats;
        t.row(vec![
            rep.soc.clone(),
            s.frames.to_string(),
            format!("{}/{}", s.cache_hits, s.cache_misses),
            format!("{:.1}%", s.hit_rate() * 100.0),
            format!("{}/{}", s.incremental_replans, s.scratch_plans),
            format!("{}/{}", s.layers_reenumerated, s.layers_copied),
            format!("{:.3}", s.wall_ns as f64 / 1e6),
            format!("{:.3}", rep.scratch_wall_ms),
        ]);
        if !rep.equivalence_failures.is_empty() {
            violations.push(format!(
                "{}: incremental plans diverged from scratch at frames {:?}",
                rep.soc, rep.equivalence_failures
            ));
        }
        if let Some(min) = min_hit_rate {
            if s.hit_rate() < min {
                violations.push(format!(
                    "{}: hit rate {:.3} below the --min-hit-rate gate {min}",
                    rep.soc,
                    s.hit_rate()
                ));
            }
        }
    }
    print!("{}", t.render());
    println!("\nequivalence: every exact-policy frame cross-checked against a from-scratch plan");

    write_out(p.str_of("--out"), || plan_json(&reports, &drift, seed));

    println!("\n(a cache hit skips partitioning entirely; a drift-key miss replans only the");
    println!(" layers whose cost margin the drift change could have flipped)");
    exit_on_violations("PLAN VIOLATION", &violations);
}

/// Schema tag of the planner document.
const PLAN_SCHEMA: &str = "ulayer-plan/v1";

/// The machine-readable planner document.
fn plan_json(reports: &[ubench::PlanExperimentReport], drift: &str, seed: u64) -> JsonValue {
    JsonValue::obj(vec![
        ("schema", JsonValue::s(PLAN_SCHEMA)),
        (
            "net",
            JsonValue::s(
                reports
                    .first()
                    .map(|r| r.network.clone())
                    .unwrap_or_default(),
            ),
        ),
        ("drift", JsonValue::s(drift)),
        ("seed", JsonValue::n(seed as f64)),
        (
            "socs",
            JsonValue::Arr(
                reports
                    .iter()
                    .map(|rep| {
                        let s = &rep.stats;
                        JsonValue::obj(vec![
                            ("soc", JsonValue::s(rep.soc.clone())),
                            ("frames", JsonValue::n(s.frames as f64)),
                            ("hits", JsonValue::n(s.cache_hits as f64)),
                            ("misses", JsonValue::n(s.cache_misses as f64)),
                            ("hit_rate", JsonValue::n(s.hit_rate())),
                            ("incremental", JsonValue::n(s.incremental_replans as f64)),
                            ("scratch", JsonValue::n(s.scratch_plans as f64)),
                            (
                                "layers_reenumerated",
                                JsonValue::n(s.layers_reenumerated as f64),
                            ),
                            ("layers_copied", JsonValue::n(s.layers_copied as f64)),
                            ("evictions", JsonValue::n(s.evictions as f64)),
                            ("planner_wall_ms", JsonValue::n(s.wall_ns as f64 / 1e6)),
                            ("planning_modeled_ms", JsonValue::n(rep.planning_modeled_ms)),
                            ("scratch_wall_ms", JsonValue::n(rep.scratch_wall_ms)),
                            (
                                "equivalent",
                                JsonValue::Bool(rep.equivalence_failures.is_empty()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn heading(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

fn table1() {
    heading("Table 1: Evaluated NNs and the mechanisms' applicability");
    let mut t = Table::new(&[
        "Network",
        "Ch. Dist. (3.2)",
        "Proc. Quant. (4.2)",
        "Br. Dist. (5)",
    ]);
    let tick = |b: bool| if b { "yes" } else { "-" }.to_string();
    for (net, app) in ubench::table1() {
        t.row(vec![
            net,
            tick(app.channel_distribution),
            tick(app.processor_quantization),
            tick(app.branch_distribution),
        ]);
    }
    print!("{}", t.render());
}

fn fig5() {
    heading("Figure 5: Per-layer VGG-16 latency, CPU vs GPU (F32)");
    for soc in ubench::fig5() {
        println!("\n--- {} ---", soc.soc);
        let mut t = Table::new(&["Layer", "CPU (ms)", "GPU (ms)", "GPU speedup"]);
        for (name, cpu, gpu) in soc
            .layers
            .iter()
            .filter(|(n, _, _)| n.starts_with("conv") || n.starts_with("fc"))
        {
            t.row(vec![name.clone(), ms(*cpu), ms(*gpu), ratio(cpu / gpu)]);
        }
        print!("{}", t.render());
        println!(
            "mean GPU speedup over CPU: {:.2}x (paper: 1.40x high-end; CPU 26.1% faster mid-range)",
            soc.mean_gpu_speedup
        );
    }
}

fn fig6() {
    heading("Figure 6: NN execution latency, CPU vs GPU (F32)");
    for soc in ubench::fig6() {
        println!("\n--- {} ---", soc.soc);
        let mut t = Table::new(&["Network", "CPU (ms)", "GPU (ms)"]);
        for (net, cpu, gpu) in &soc.rows {
            t.row(vec![net.clone(), ms(*cpu), ms(*gpu)]);
        }
        print!("{}", t.render());
    }
}

fn fig8() {
    heading("Figure 8: Quantization impact on latency (normalized to CPU F32)");
    for soc in ubench::fig8() {
        println!("\n--- {} ---", soc.soc);
        let keys: Vec<String> = soc.rows[0].1.keys().cloned().collect();
        let mut header: Vec<&str> = vec!["Network"];
        header.extend(keys.iter().map(String::as_str));
        let mut t = Table::new(&header);
        for (net, m) in &soc.rows {
            let mut row = vec![net.clone()];
            row.extend(keys.iter().map(|k| ratio(m[k])));
            t.row(row);
        }
        print!("{}", t.render());
    }
    println!("(expect: CPU QUInt8 fastest on CPU; GPU F16 fastest on GPU; CPU F16 no gain)");
}

fn fig10() {
    heading("Figure 10: Top-1 accuracy under quantization (substituted workload)");
    println!("(training two classifiers from scratch; takes a few minutes)");
    for (net, rows) in quantlab::run_figure10() {
        println!("\n--- {net} ---");
        let mut t = Table::new(&["Variant", "Top-1 accuracy", "Drop vs F32 (pp)"]);
        for r in rows {
            t.row(vec![
                r.variant.to_string(),
                pct(r.accuracy),
                format!("{:.1}", r.drop_pp),
            ]);
        }
        print!("{}", t.render());
    }
    println!("(expect: F16 lossless; naive QUInt8 degrades, more for the deeper net;");
    println!(" range-calibrated QUInt8 recovers to within a few points — paper max 2.7pp)");
}

fn fig12() {
    heading("Figure 12: Branch distribution case study (Inception 3a, high-end SoC)");
    let d = ubench::fig12();
    let mut t = Table::new(&["Mechanism", "Latency (ms)", "Improvement vs CPU-only"]);
    t.row(vec![
        "CPU-Only (QUInt8)".into(),
        ms(d.cpu_only_ms),
        "-".into(),
    ]);
    t.row(vec![
        "Cooperative".into(),
        ms(d.cooperative_ms),
        pct(1.0 - d.cooperative_ms / d.cpu_only_ms),
    ]);
    t.row(vec![
        "Cooperative (Optimal)".into(),
        ms(d.optimal_ms),
        pct(1.0 - d.optimal_ms / d.cpu_only_ms),
    ]);
    print!("{}", t.render());
    println!("(paper: 52.1% and 63.4% over CPU-only)");
}

fn print_evaluation(metric: &str, get: impl Fn(&ubench::MechanismResult) -> f64) {
    for eval in ubench::evaluation() {
        println!("\n--- {} ---", eval.soc);
        let labels: Vec<String> = eval.rows[0].1.iter().map(|m| m.label.clone()).collect();
        let mut header: Vec<&str> = vec!["Network"];
        header.extend(labels.iter().map(String::as_str));
        let mut t = Table::new(&header);
        for (net, mechs) in &eval.rows {
            let l2p = mechs
                .iter()
                .find(|m| m.label == "layer-to-proc QUInt8")
                .expect("l2p present");
            let mut row = vec![net.clone()];
            row.extend(mechs.iter().map(|m| ratio(get(m) / get(l2p))));
            t.row(row);
        }
        print!("{}", t.render());
        println!("(normalized to layer-to-proc QUInt8; lower is better)");
        if metric == "latency" {
            let imps = eval.latency_improvements();
            let max =
                imps.iter()
                    .cloned()
                    .fold(("".to_string(), 0.0), |a, b| if b.1 > a.1 { b } else { a });
            let geo = 1.0 - geomean(&imps.iter().map(|(_, v)| 1.0 - v).collect::<Vec<_>>());
            println!(
                "uLayer speed improvement: max {} on {}, geomean {}",
                pct(max.1),
                max.0,
                pct(geo)
            );
        } else {
            let factors = eval.energy_factors();
            let geo = geomean(&factors.iter().map(|(_, v)| *v).collect::<Vec<_>>());
            let max =
                factors
                    .iter()
                    .cloned()
                    .fold(("".to_string(), 0.0), |a, b| if b.1 > a.1 { b } else { a });
            println!(
                "uLayer energy-efficiency factor: max {:.2}x on {}, geomean {:.2}x",
                max.1, max.0, geo
            );
        }
    }
}

fn fig16() {
    heading("Figure 16: End-to-end latency of all mechanisms");
    print_evaluation("latency", |m| m.latency_ms);
    println!("\n(paper: up to 59.9%/69.6% and geomean 30.5%/35.3% over layer-to-proc)");
}

fn fig17() {
    heading("Figure 17: Contribution of the three optimizations (ablation)");
    for soc in ubench::fig17() {
        println!("\n--- {} ---", soc.soc);
        let mut t = Table::new(&[
            "Network",
            "layer-to-proc",
            "+Ch.Dist",
            "+Proc.Quant",
            "+Br.Dist (= uLayer)",
        ]);
        for (net, steps) in &soc.rows {
            let full = steps[3];
            t.row(vec![
                net.clone(),
                ratio(steps[0] / full),
                ratio(steps[1] / full),
                ratio(steps[2] / full),
                ratio(1.0),
            ]);
        }
        print!("{}", t.render());
        println!("(normalized to the complete uLayer, as in the paper)");
    }
}

fn fig18() {
    heading("Figure 18: Energy consumption of all mechanisms");
    print_evaluation("energy", |m| m.energy_mj);
    println!("\n(paper: geomean 1.26x/1.34x energy-efficiency over layer-to-proc)");
}

fn predictor() {
    heading("Latency predictor validation (held-out zoo layers)");
    for spec in usoc::SocSpec::evaluated() {
        let pred = ulayer::LatencyPredictor::train(&spec).expect("train");
        let graphs: Vec<unn::Graph> = unn::ModelId::EVALUATED
            .iter()
            .map(|id| id.build())
            .collect();
        let report = ubench::evaluate_predictor(&spec, &pred, &graphs).expect("evaluate");
        println!("\n--- {} ---", spec.name);
        let mut t = Table::new(&["Device", "Samples", "Mean rel. err", "Max rel. err"]);
        for d in &report.devices {
            t.row(vec![
                d.name.clone(),
                d.samples.to_string(),
                pct(d.mean_rel_err),
                pct(d.max_rel_err),
            ]);
        }
        print!("{}", t.render());
    }
    println!("(fitted regression, not an oracle: nonzero error propagates into planning)");
}

fn sweeps() {
    heading("Design-choice ablations (beyond the paper)");
    println!("\nsplit-ratio granularity (geomean improvement vs layer-to-proc, high-end):");
    let mut t = Table::new(&["Candidate set", "# candidates", "Geomean improvement"]);
    for r in ubench::p_granularity() {
        t.row(vec![
            r.label.clone(),
            r.candidates.len().to_string(),
            pct(r.geomean_improvement),
        ]);
    }
    print!("{}", t.render());

    println!("\nmanagement-overhead sensitivity (issue/wait/map/dispatch scaled):");
    let mut t = Table::new(&["Overhead scale", "Geomean improvement"]);
    for r in ubench::overhead_sensitivity() {
        t.row(vec![format!("{:.2}x", r.scale), pct(r.geomean_improvement)]);
    }
    print!("{}", t.render());
    println!("(the section-3.1 argument: sync overheads erode cooperative gains)");
}

fn npu() {
    heading("Section 8.3 extension: channel-wise distribution across CPU+GPU+NPU");
    let mut t = Table::new(&["Network", "uLayer (ms)", "uLayer+NPU (ms)", "Speedup"]);
    for r in ubench::npu_extension() {
        t.row(vec![
            r.network.clone(),
            ms(r.base_ms),
            ms(r.npu_ms),
            ratio(r.base_ms / r.npu_ms),
        ]);
    }
    print!("{}", t.render());
}
