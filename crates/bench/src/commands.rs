//! The `repro` commands as one table.
//!
//! A row ([`Command`]) is a name, its flag table and a run function
//! that computes once: it writes its text into a [`Sink`] and returns
//! its document and its violations. [`repro`], the one emitter, parses
//! against the row's flags, resolves the positional argument, prints,
//! writes the `--out` document (for `--json`, every figure's document)
//! and sets the exit status. DESIGN.md §4 maps each row to the paper.

use std::fmt;
use std::path::Path;

use simcore::JsonValue;
use unn::ModelId::{self, SqueezeNet, Vgg16};

use crate::cli::{
    parse_flags, CliError, FlagSpec, Parsed, FAULTS_FLAGS, FLEET_FLAGS, JSON_FLAGS, MEASURE_FLAGS,
    MESH_FLAGS, PLAN_FLAGS, SERVE_FLAGS, TRACE_FLAGS,
};
use crate::figures::{self, MechanismResult};
use crate::report::{geomean, ms, opt_ms, pct, ratio, Table};

/// One `repro` command: the first argument selects it by `name`.
pub struct Command {
    /// What selects the command (`fig5`, `fleet`, `--json`, ...).
    pub name: &'static str,
    /// The flags it accepts.
    pub flags: &'static [FlagSpec],
    run: Run,
}

/// A row's run function, by what its positional argument names.
#[derive(Clone, Copy)]
enum Run {
    /// A table or figure: takes no arguments. `all` prints it and
    /// `--json` writes its document.
    Figure(fn(&mut Sink) -> Option<JsonValue>),
    /// A scenario on the network the positional names, defaulting to
    /// the given one.
    Network(
        ModelId,
        fn(&Parsed, ModelId, &mut Sink) -> Result<Report, String>,
    ),
    /// A command that takes no positional.
    Fixed(Scenario),
    /// `--json`: the positional is the output directory.
    Dir(Scenario),
}

/// A command's run function: it writes its text into the sink and
/// returns its report, or why the run could not complete.
type Scenario = fn(&Parsed, &mut Sink) -> Result<Report, String>;

/// What a run hands back to the emitter.
#[derive(Default)]
pub(crate) struct Report {
    /// Written to `--out=FILE` when the flag is given.
    document: Option<JsonValue>,
    /// Printed after the document's `wrote` line.
    note: &'static str,
    /// Failed checks; any makes the exit status 1.
    violations: Vec<String>,
}

/// Where a command's text goes: stdout, or nowhere when `--json` runs a
/// figure for its document alone.
pub(crate) struct Sink {
    quiet: bool,
}

impl Sink {
    /// The target of `write!` / `writeln!`.
    fn write_fmt(&mut self, args: fmt::Arguments<'_>) {
        if !self.quiet {
            print!("{args}");
        }
    }
}

const fn row(name: &'static str, flags: &'static [FlagSpec], run: Run) -> Command {
    Command { name, flags, run }
}

/// Every command and figure, in the order `all` prints the figures.
pub const COMMANDS: &[Command] = &[
    row("table1", &[], Run::Figure(table1)),
    row("fig5", &[], Run::Figure(fig5)),
    row("fig6", &[], Run::Figure(fig6)),
    row("fig8", &[], Run::Figure(fig8)),
    row("fig10", &[], Run::Figure(fig10)),
    row("fig12", &[], Run::Figure(fig12)),
    row("fig16", &[], Run::Figure(fig16)),
    row("fig17", &[], Run::Figure(fig17)),
    row("fig18", &[], Run::Figure(fig18)),
    row("npu", &[], Run::Figure(npu)),
    row("predictor", &[], Run::Figure(predictor)),
    row("sweeps", &[], Run::Figure(sweeps)),
    row("all", &[], Run::Fixed(all)),
    row("--json", JSON_FLAGS, Run::Dir(export)),
    row("trace", TRACE_FLAGS, Run::Network(Vgg16, trace)),
    row("faults", FAULTS_FLAGS, Run::Network(SqueezeNet, faults)),
    row("serve", SERVE_FLAGS, Run::Network(SqueezeNet, serve)),
    row("measure", MEASURE_FLAGS, Run::Network(SqueezeNet, measure)),
    row("fleet", FLEET_FLAGS, Run::Network(SqueezeNet, fleet)),
    row("mesh", MESH_FLAGS, Run::Fixed(mesh)),
    row("plan", PLAN_FLAGS, Run::Network(SqueezeNet, plan)),
];

/// The row `name` selects.
pub(crate) fn command(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}

/// Runs one `repro` command line (without the program name; none means
/// `all`) and returns the exit status: 2 for a bad command line, 1 for a
/// violation or a run that could not complete, else 0.
pub fn repro(args: &[String]) -> i32 {
    let name = args.first().map_or("all", String::as_str);
    let Some(cmd) = command(name) else {
        let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        eprintln!(
            "repro: {}\nusage: repro [{}] [args]",
            CliError::UnknownSubcommand { given: name.into() },
            names.join("|")
        );
        return 2;
    };
    cmd.emit(args.get(1..).unwrap_or_default())
        .unwrap_or_else(|e| {
            eprintln!("repro: {e}");
            2
        })
}

impl Command {
    fn emit(&self, args: &[String]) -> Result<i32, CliError> {
        let p = parse_flags(self.name, args, self.flags)?;
        // Beyond what the row names, a positional is an unknown argument.
        let takes = match self.run {
            Run::Network(..) => usize::MAX,
            Run::Dir(_) => 1,
            Run::Figure(_) | Run::Fixed(_) => 0,
        };
        if let Some(extra) = p.positional.get(takes) {
            return Err(CliError::UnknownFlag {
                subcommand: self.name,
                flag: extra.clone(),
            });
        }
        let s = &mut Sink { quiet: false };
        let run = match self.run {
            Run::Figure(figure) => {
                figure(s);
                return Ok(0);
            }
            Run::Network(default, f) => f(&p, p.network(default)?, s),
            Run::Fixed(f) | Run::Dir(f) => f(&p, s),
        };
        let report = match run {
            Ok(report) => report,
            Err(e) => {
                eprintln!("{e}");
                return Ok(1);
            }
        };
        if let (Some(doc), Some(path)) = (report.document, p.str_of("--out")) {
            if let Err(e) = std::fs::write(path, doc.render()) {
                eprintln!("failed to write {path}: {e}");
                return Ok(1);
            }
            writeln!(s, "wrote {path}");
        }
        write!(s, "{}", report.note);
        for v in &report.violations {
            eprintln!("{} VIOLATION: {v}", self.name.to_ascii_uppercase());
        }
        Ok(i32::from(!report.violations.is_empty()))
    }
}

fn heading(s: &mut Sink, title: &str) {
    writeln!(
        s,
        "\n================================================================"
    );
    writeln!(s, "{title}");
    writeln!(
        s,
        "================================================================"
    );
}

// ---------------------------------------------------------------------
// Tables and figures.
// ---------------------------------------------------------------------

fn table1(s: &mut Sink) -> Option<JsonValue> {
    heading(
        s,
        "Table 1: Evaluated NNs and the mechanisms' applicability",
    );
    let mut t = Table::new(&[
        "Network",
        "Ch. Dist. (3.2)",
        "Proc. Quant. (4.2)",
        "Br. Dist. (5)",
    ]);
    let tick = |b: bool| if b { "yes" } else { "-" }.to_string();
    let mut doc = Vec::new();
    for (net, app) in figures::table1() {
        t.row(vec![
            net.clone(),
            tick(app.channel_distribution),
            tick(app.processor_quantization),
            tick(app.branch_distribution),
        ]);
        doc.push(JsonValue::obj(vec![
            ("network", JsonValue::s(net)),
            (
                "channel_distribution",
                JsonValue::Bool(app.channel_distribution),
            ),
            (
                "processor_quantization",
                JsonValue::Bool(app.processor_quantization),
            ),
            (
                "branch_distribution",
                JsonValue::Bool(app.branch_distribution),
            ),
        ]));
    }
    write!(s, "{}", t.render());
    Some(JsonValue::Arr(doc))
}

fn fig5(s: &mut Sink) -> Option<JsonValue> {
    heading(s, "Figure 5: Per-layer VGG-16 latency, CPU vs GPU (F32)");
    let mut doc = Vec::new();
    for soc in figures::fig5() {
        writeln!(s, "\n--- {} ---", soc.soc);
        let mut t = Table::new(&["Layer", "CPU (ms)", "GPU (ms)", "GPU speedup"]);
        for (name, cpu, gpu) in soc
            .layers
            .iter()
            .filter(|(n, _, _)| n.starts_with("conv") || n.starts_with("fc"))
        {
            t.row(vec![name.clone(), ms(*cpu), ms(*gpu), ratio(cpu / gpu)]);
        }
        write!(s, "{}", t.render());
        writeln!(
            s,
            "mean GPU speedup over CPU: {:.2}x (paper: 1.40x high-end; CPU 26.1% faster mid-range)",
            soc.mean_gpu_speedup
        );
        let layers = soc.layers.into_iter().map(|(name, cpu, gpu)| {
            JsonValue::obj(vec![
                ("layer", JsonValue::s(name)),
                ("cpu_ms", JsonValue::n(cpu)),
                ("gpu_ms", JsonValue::n(gpu)),
            ])
        });
        doc.push(JsonValue::obj(vec![
            ("soc", JsonValue::s(soc.soc)),
            ("mean_gpu_speedup", JsonValue::n(soc.mean_gpu_speedup)),
            ("layers", JsonValue::Arr(layers.collect())),
        ]));
    }
    Some(JsonValue::Arr(doc))
}

fn fig6(s: &mut Sink) -> Option<JsonValue> {
    heading(s, "Figure 6: NN execution latency, CPU vs GPU (F32)");
    let mut doc = Vec::new();
    for soc in figures::fig6() {
        writeln!(s, "\n--- {} ---", soc.soc);
        let mut t = Table::new(&["Network", "CPU (ms)", "GPU (ms)"]);
        let mut networks = Vec::new();
        for (net, cpu, gpu) in soc.rows {
            t.row(vec![net.clone(), ms(cpu), ms(gpu)]);
            networks.push(JsonValue::obj(vec![
                ("network", JsonValue::s(net)),
                ("cpu_ms", JsonValue::n(cpu)),
                ("gpu_ms", JsonValue::n(gpu)),
            ]));
        }
        write!(s, "{}", t.render());
        doc.push(JsonValue::obj(vec![
            ("soc", JsonValue::s(soc.soc)),
            ("networks", JsonValue::Arr(networks)),
        ]));
    }
    Some(JsonValue::Arr(doc))
}

fn fig8(s: &mut Sink) -> Option<JsonValue> {
    heading(
        s,
        "Figure 8: Quantization impact on latency (normalized to CPU F32)",
    );
    let mut doc = Vec::new();
    for soc in figures::fig8() {
        writeln!(s, "\n--- {} ---", soc.soc);
        let keys: Vec<String> = soc.rows[0].1.keys().cloned().collect();
        let mut header: Vec<&str> = vec!["Network"];
        header.extend(keys.iter().map(String::as_str));
        let mut t = Table::new(&header);
        let mut networks = Vec::new();
        for (net, m) in soc.rows {
            let mut row = vec![net.clone()];
            row.extend(keys.iter().map(|k| ratio(m[k])));
            t.row(row);
            let latency = m.into_iter().map(|(k, v)| (k, JsonValue::n(v))).collect();
            networks.push(JsonValue::obj(vec![
                ("network", JsonValue::s(net)),
                ("normalized_latency", JsonValue::Obj(latency)),
            ]));
        }
        write!(s, "{}", t.render());
        doc.push(JsonValue::obj(vec![
            ("soc", JsonValue::s(soc.soc)),
            ("networks", JsonValue::Arr(networks)),
        ]));
    }
    writeln!(
        s,
        "(expect: CPU QUInt8 fastest on CPU; GPU F16 fastest on GPU; CPU F16 no gain)"
    );
    Some(JsonValue::Arr(doc))
}

fn fig10(s: &mut Sink) -> Option<JsonValue> {
    heading(
        s,
        "Figure 10: Top-1 accuracy under quantization (substituted workload)",
    );
    writeln!(
        s,
        "(training two classifiers from scratch; takes a few minutes)"
    );
    let mut doc = Vec::new();
    for (net, rows) in quantlab::run_figure10() {
        writeln!(s, "\n--- {net} ---");
        let mut t = Table::new(&["Variant", "Top-1 accuracy", "Drop vs F32 (pp)"]);
        let mut variants = Vec::new();
        for r in rows {
            t.row(vec![
                r.variant.to_string(),
                pct(r.accuracy),
                format!("{:.1}", r.drop_pp),
            ]);
            variants.push(JsonValue::obj(vec![
                ("variant", JsonValue::s(r.variant)),
                ("accuracy", JsonValue::n(r.accuracy)),
                ("drop_pp", JsonValue::n(r.drop_pp)),
            ]));
        }
        write!(s, "{}", t.render());
        doc.push(JsonValue::obj(vec![
            ("network", JsonValue::s(net)),
            ("variants", JsonValue::Arr(variants)),
        ]));
    }
    writeln!(
        s,
        "(expect: F16 lossless; naive QUInt8 degrades, more for the deeper net;"
    );
    writeln!(
        s,
        " range-calibrated QUInt8 recovers to within a few points — paper max 2.7pp)"
    );
    Some(JsonValue::Arr(doc))
}

fn fig12(s: &mut Sink) -> Option<JsonValue> {
    heading(
        s,
        "Figure 12: Branch distribution case study (Inception 3a, high-end SoC)",
    );
    let d = figures::fig12();
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
    write!(s, "{}", t.render());
    writeln!(s, "(paper: 52.1% and 63.4% over CPU-only)");
    Some(JsonValue::obj(vec![
        ("cpu_only_ms", JsonValue::n(d.cpu_only_ms)),
        ("cooperative_ms", JsonValue::n(d.cooperative_ms)),
        ("optimal_ms", JsonValue::n(d.optimal_ms)),
    ]))
}

/// Figures 16 and 18: every mechanism's `key` metric (`latency_ms` or
/// `energy_mj`), normalized to layer-to-processor in the text.
fn evaluation_figure(s: &mut Sink, key: &'static str) -> JsonValue {
    let get = |m: &MechanismResult| {
        if key == "latency_ms" {
            m.latency_ms
        } else {
            m.energy_mj
        }
    };
    let mut doc = Vec::new();
    for eval in figures::evaluation() {
        writeln!(s, "\n--- {} ---", eval.soc);
        let labels: Vec<String> = eval.rows[0].1.iter().map(|m| m.label.clone()).collect();
        let mut header: Vec<&str> = vec!["Network"];
        header.extend(labels.iter().map(String::as_str));
        let mut t = Table::new(&header);
        let mut networks = Vec::new();
        for (net, mechs) in &eval.rows {
            let l2p = mechs
                .iter()
                .find(|m| m.label == "layer-to-proc QUInt8")
                .expect("l2p present");
            let mut row = vec![net.clone()];
            row.extend(mechs.iter().map(|m| ratio(get(m) / get(l2p))));
            t.row(row);
            let mechanisms = mechs.iter().map(|m| {
                JsonValue::obj(vec![
                    ("label", JsonValue::s(m.label.clone())),
                    (key, JsonValue::n(get(m))),
                ])
            });
            networks.push(JsonValue::obj(vec![
                ("network", JsonValue::s(net.clone())),
                ("mechanisms", JsonValue::Arr(mechanisms.collect())),
            ]));
        }
        write!(s, "{}", t.render());
        writeln!(s, "(normalized to layer-to-proc QUInt8; lower is better)");
        let best = |pairs: &[(String, f64)]| {
            pairs
                .iter()
                .cloned()
                .fold(("".to_string(), 0.0), |a, b| if b.1 > a.1 { b } else { a })
        };
        if key == "latency_ms" {
            let imps = eval.latency_improvements();
            let max = best(&imps);
            let geo = 1.0 - geomean(&imps.iter().map(|(_, v)| 1.0 - v).collect::<Vec<_>>());
            writeln!(
                s,
                "uLayer speed improvement: max {} on {}, geomean {}",
                pct(max.1),
                max.0,
                pct(geo)
            );
        } else {
            let factors = eval.energy_factors();
            let geo = geomean(&factors.iter().map(|(_, v)| *v).collect::<Vec<_>>());
            let max = best(&factors);
            writeln!(
                s,
                "uLayer energy-efficiency factor: max {:.2}x on {}, geomean {:.2}x",
                max.1, max.0, geo
            );
        }
        doc.push(JsonValue::obj(vec![
            ("soc", JsonValue::s(eval.soc)),
            ("networks", JsonValue::Arr(networks)),
        ]));
    }
    JsonValue::Arr(doc)
}

fn fig16(s: &mut Sink) -> Option<JsonValue> {
    heading(s, "Figure 16: End-to-end latency of all mechanisms");
    let doc = evaluation_figure(s, "latency_ms");
    writeln!(
        s,
        "\n(paper: up to 59.9%/69.6% and geomean 30.5%/35.3% over layer-to-proc)"
    );
    Some(doc)
}

fn fig17(s: &mut Sink) -> Option<JsonValue> {
    heading(
        s,
        "Figure 17: Contribution of the three optimizations (ablation)",
    );
    let mut doc = Vec::new();
    for soc in figures::fig17() {
        writeln!(s, "\n--- {} ---", soc.soc);
        let mut t = Table::new(&[
            "Network",
            "layer-to-proc",
            "+Ch.Dist",
            "+Proc.Quant",
            "+Br.Dist (= uLayer)",
        ]);
        let mut networks = Vec::new();
        for (net, steps) in soc.rows {
            let full = steps[3];
            t.row(vec![
                net.clone(),
                ratio(steps[0] / full),
                ratio(steps[1] / full),
                ratio(steps[2] / full),
                ratio(1.0),
            ]);
            networks.push(JsonValue::obj(vec![
                ("network", JsonValue::s(net)),
                ("layer_to_proc_ms", JsonValue::n(steps[0])),
                ("ch_dist_ms", JsonValue::n(steps[1])),
                ("proc_quant_ms", JsonValue::n(steps[2])),
                ("br_dist_ms", JsonValue::n(steps[3])),
            ]));
        }
        write!(s, "{}", t.render());
        writeln!(s, "(normalized to the complete uLayer, as in the paper)");
        doc.push(JsonValue::obj(vec![
            ("soc", JsonValue::s(soc.soc)),
            ("networks", JsonValue::Arr(networks)),
        ]));
    }
    Some(JsonValue::Arr(doc))
}

fn fig18(s: &mut Sink) -> Option<JsonValue> {
    heading(s, "Figure 18: Energy consumption of all mechanisms");
    let doc = evaluation_figure(s, "energy_mj");
    writeln!(
        s,
        "\n(paper: geomean 1.26x/1.34x energy-efficiency over layer-to-proc)"
    );
    Some(doc)
}

fn npu(s: &mut Sink) -> Option<JsonValue> {
    heading(
        s,
        "Section 8.3 extension: channel-wise distribution across CPU+GPU+NPU",
    );
    let mut t = Table::new(&["Network", "uLayer (ms)", "uLayer+NPU (ms)", "Speedup"]);
    let mut doc = Vec::new();
    for r in figures::npu_extension() {
        t.row(vec![
            r.network.clone(),
            ms(r.base_ms),
            ms(r.npu_ms),
            ratio(r.base_ms / r.npu_ms),
        ]);
        doc.push(JsonValue::obj(vec![
            ("network", JsonValue::s(r.network)),
            ("base_ms", JsonValue::n(r.base_ms)),
            ("npu_ms", JsonValue::n(r.npu_ms)),
        ]));
    }
    write!(s, "{}", t.render());
    Some(JsonValue::Arr(doc))
}

fn predictor(s: &mut Sink) -> Option<JsonValue> {
    heading(s, "Latency predictor validation (held-out zoo layers)");
    for spec in usoc::SocSpec::evaluated() {
        let pred = ulayer::LatencyPredictor::train(&spec).expect("train");
        let graphs: Vec<unn::Graph> = ModelId::EVALUATED.iter().map(|id| id.build()).collect();
        let report =
            crate::predictor_eval::evaluate_predictor(&spec, &pred, &graphs).expect("evaluate");
        writeln!(s, "\n--- {} ---", spec.name);
        let mut t = Table::new(&["Device", "Samples", "Mean rel. err", "Max rel. err"]);
        for d in &report.devices {
            t.row(vec![
                d.name.clone(),
                d.samples.to_string(),
                pct(d.mean_rel_err),
                pct(d.max_rel_err),
            ]);
        }
        write!(s, "{}", t.render());
    }
    writeln!(
        s,
        "(fitted regression, not an oracle: nonzero error propagates into planning)"
    );
    None
}

fn sweeps(s: &mut Sink) -> Option<JsonValue> {
    heading(s, "Design-choice ablations (beyond the paper)");
    writeln!(
        s,
        "\nsplit-ratio granularity (geomean improvement vs layer-to-proc, high-end):"
    );
    let mut t = Table::new(&["Candidate set", "# candidates", "Geomean improvement"]);
    for r in figures::p_granularity() {
        t.row(vec![
            r.label.clone(),
            r.candidates.len().to_string(),
            pct(r.geomean_improvement),
        ]);
    }
    write!(s, "{}", t.render());

    writeln!(
        s,
        "\nmanagement-overhead sensitivity (issue/wait/map/dispatch scaled):"
    );
    let mut t = Table::new(&["Overhead scale", "Geomean improvement"]);
    for r in figures::overhead_sensitivity() {
        t.row(vec![format!("{:.2}x", r.scale), pct(r.geomean_improvement)]);
    }
    write!(s, "{}", t.render());
    writeln!(
        s,
        "(the section-3.1 argument: sync overheads erode cooperative gains)"
    );
    None
}

/// `repro all`: every figure, in table order.
fn all(_: &Parsed, s: &mut Sink) -> Result<Report, String> {
    for cmd in COMMANDS {
        if let Run::Figure(figure) = cmd.run {
            figure(s);
        }
    }
    Ok(Report::default())
}

/// `repro --json [DIR] [--with-fig10]`: every figure's document as
/// `DIR/<name>.json` (default `repro-json`).
fn export(p: &Parsed, s: &mut Sink) -> Result<Report, String> {
    let dir = p.positional.first().map_or("repro-json", String::as_str);
    let files = write_documents(Path::new(dir), p.switch("--with-fig10"))
        .map_err(|e| format!("export failed: {e}"))?;
    writeln!(
        s,
        "wrote {} documents to {dir}/: {}",
        files.len(),
        files.join(", ")
    );
    Ok(Report::default())
}

/// Writes each figure's document into `dir` and returns the file
/// names. `fig10`, which trains for minutes, only with `with_fig10`.
fn write_documents(dir: &Path, with_fig10: bool) -> std::io::Result<Vec<String>> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    for cmd in COMMANDS {
        let Run::Figure(figure) = cmd.run else {
            continue;
        };
        if cmd.name == "fig10" && !with_fig10 {
            continue;
        }
        if let Some(doc) = figure(&mut Sink { quiet: true }) {
            let name = format!("{}.json", cmd.name);
            std::fs::write(dir.join(&name), doc.render() + "\n")?;
            written.push(name);
        }
    }
    Ok(written)
}

// ---------------------------------------------------------------------
// Scenarios.
// ---------------------------------------------------------------------

/// `repro trace`: overhead attribution on both SoCs plus a Chrome
/// trace-event export of the high-end SoC's schedule.
fn trace(p: &Parsed, model: ModelId, s: &mut Sink) -> Result<Report, String> {
    let miniature = p.switch("--miniature");
    heading(
        s,
        &format!(
            "Schedule observability: uLayer {} (overhead attribution + trace export)",
            model.name()
        ),
    );
    let reports = figures::overhead_attribution(model, miniature);
    for rep in &reports {
        writeln!(s, "\n--- {} ---", rep.soc);
        writeln!(s, "in-place joins: {}", rep.in_place_joins);
        write!(s, "{}", rep.result.attribution.render_text());
        writeln!(s, "\ncounters:");
        write!(s, "{}", rep.result.metrics.render());
    }

    let rep = &reports[0];
    let json = uruntime::chrome_trace_json(&rep.result.trace, &rep.result.resource_names, None);
    let path = p.str_of("--trace-out").map_or_else(
        || {
            format!(
                "trace-{}.json",
                model.name().to_ascii_lowercase().replace([' ', '.'], "-")
            )
        },
        str::to_string,
    );
    write_trace(
        s,
        &path,
        &json,
        "validated; load in chrome://tracing or Perfetto",
    )?;
    Ok(Report::default())
}

/// Writes a Chrome trace to `path`, reads it back through the trace
/// validator, and prints the `wrote` line.
fn write_trace(s: &mut Sink, path: &str, json: &str, what: &str) -> Result<(), String> {
    std::fs::write(path, json).map_err(|e| format!("failed to write {path}: {e}"))?;
    let reread =
        std::fs::read_to_string(path).map_err(|e| format!("failed to read {path}: {e}"))?;
    let summary = simcore::validate_chrome_trace(&reread)
        .map_err(|e| format!("exported trace failed validation: {e}"))?;
    writeln!(
        s,
        "\nwrote {path}: {} events on {} tracks ({what})",
        summary.complete_events, summary.tracks
    );
    Ok(())
}

/// `repro faults`: resilient execution under injected faults against
/// the fault-free baseline. Violations: recovery that is not
/// bit-identical, or a flaky-gpu run that misses the retry or the
/// fallback path.
fn faults(p: &Parsed, model: ModelId, s: &mut Sink) -> Result<Report, String> {
    let miniature = p.switch("--miniature");
    let seed = p.u64_of("--seed").unwrap_or(42);
    let scenarios: Vec<simcore::Scenario> = match p.str_of("--scenario") {
        Some(name) => vec![simcore::Scenario::from_name(name).expect("validated at parse")],
        None => simcore::Scenario::ALL.to_vec(),
    };

    heading(
        s,
        &format!(
            "Fault injection: uLayer {} under {} (seed {seed})",
            model.name(),
            scenarios
                .iter()
                .map(|sc| sc.name())
                .collect::<Vec<_>>()
                .join(", "),
        ),
    );
    let mut violations = Vec::new();
    for &scenario in &scenarios {
        let reports = figures::fault_scenarios(model, scenario, miniature, seed);
        writeln!(s, "\n--- scenario: {} ---", scenario.name());
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
        write!(s, "{}", t.render());
    }
    Ok(Report {
        note: "\n(recovery re-executes only the failed parts' output channels on the\n \
               surviving processor; outputs stay bit-identical to the fault-free run)\n",
        violations,
        ..Report::default()
    })
}

/// A rung table: label and realized service latency, plus the frames
/// each rung executed when `counts` is given.
fn print_rungs(s: &mut Sink, rungs: &[(String, f64)], counts: Option<&[u64]>) {
    let mut header = vec!["Rung", "Service (ms)"];
    header.extend(counts.map(|_| "Frames"));
    let mut t = Table::new(&header);
    for (i, (label, lat_ms)) in rungs.iter().enumerate() {
        let mut row = vec![label.clone(), ms(*lat_ms)];
        row.extend(counts.map(|c| c[i].to_string()));
        t.row(row);
    }
    write!(s, "{}", t.render());
}

/// The planner-session line of a stream served from one cached ladder.
fn print_planner_probes(s: &mut Sink, ps: &ulayer::PlannerStats) {
    writeln!(
        s,
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
    fn print_table(&self, s: &mut Sink) {
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
        write!(s, "{}", t.render());
    }

    fn print_occupancy(&self, s: &mut Sink) {
        let mut t = Table::new(&["Rung occupancy", "Frames"]);
        for (label, count) in &self.occupancy {
            t.row(vec![label.to_string(), count.to_string()]);
        }
        write!(s, "{}", t.render());
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

/// `repro serve`: overload-robust serving of a seeded arrival stream
/// through the μLayer degradation ladder, with the SLO table.
/// Violations: the queue exceeding its bound, or offered frames not
/// partitioning exactly into completed / degraded / shed.
fn serve(p: &Parsed, model: ModelId, s: &mut Sink) -> Result<Report, String> {
    let miniature = p.switch("--miniature");
    let arrivals = p
        .str_of("--arrivals")
        .map(|a| simcore::ArrivalKind::from_name(a).expect("validated at parse"))
        .unwrap_or(simcore::ArrivalKind::Bursty);
    let rate_fps = p.f64_of("--rate").unwrap_or(0.0);
    let deadline_ms = p.f64_of("--deadline").unwrap_or(0.0);
    let queue = p.usize_of("--queue").unwrap_or(8);
    let frames = p.usize_of("--frames").unwrap_or(96);
    let seed = p.u64_of("--seed").unwrap_or(42);

    heading(
        s,
        &format!(
            "Overload serving: uLayer {} under {} arrivals (seed {seed}, {frames} frames, queue {queue})",
            model.name(),
            arrivals,
        ),
    );
    let reports = figures::serve_overload(
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
        writeln!(
            s,
            "\n--- {} (mean interval {}, deadline {}) ---",
            rep.soc,
            ms(rep.mean_interval_ms),
            ms(rep.deadline_ms)
        );
        print_rungs(s, &rep.rungs, Some(&r.rung_counts));
        Slo::from(r).print_table(s);
        print_planner_probes(s, &rep.planner);
        if let Err(e) = r.check_invariants() {
            violations.push(format!("{} / {}: {e}", rep.soc, rep.network));
        }
    }

    // The high-end SoC's serving timeline.
    if let Some(path) = p.str_of("--trace-out") {
        let json = reports[0].report.chrome_trace_json();
        write_trace(s, path, &json, "admission/rung/shed overlays")?;
    }
    Ok(Report {
        note: "\n(bounded admission rejects at the door; the ladder degrades per-frame\n \
               from predicted slack and climbs back once the backlog drains)\n",
        violations,
        ..Report::default()
    })
}

/// `repro measure`: wall-clock measurement of the μLayer cooperative
/// plan against the single-processor CPU baseline on real worker
/// threads, plus predictor calibration from the measured samples.
fn measure(p: &Parsed, model: ModelId, s: &mut Sink) -> Result<Report, String> {
    let miniature = p.switch("--miniature");
    let threads = p
        .usize_of("--threads")
        .unwrap_or_else(|| uexec::ExecConfig::from_env().cpu_threads);
    let repeat = p.usize_of("--repeat").unwrap_or(3);
    let kernel_path = p
        .str_of("--kernel-path")
        .map(|k| ukernels::PathChoice::parse(k).expect("validated at parse"))
        .unwrap_or_else(ukernels::PathChoice::from_env);

    heading(
        s,
        &format!(
            "Measured execution: uLayer {} on real worker pools ({threads} threads/pool, best of {repeat})",
            model.name()
        ),
    );
    let (tier, host) = (kernel_path.resolve(), ukernels::simd_tier());
    writeln!(
        s,
        "kernel path: {} (resolved: {}), cpu features: {}",
        kernel_path.as_str(),
        tier.as_str(),
        ukernels::cpu_features(),
    );
    if matches!(kernel_path, ukernels::PathChoice::Cap(cap) if cap > host) {
        writeln!(
            s,
            "WARN: {} requested but this host's widest tier is {}; running that",
            kernel_path.as_str(),
            host.as_str(),
        );
    }
    if tier > ukernels::SimdTier::None && tier < ukernels::SimdTier::Avx512Fp16 {
        writeln!(
            s,
            "WARN: the {} tier has no avx512fp16; the GPU pool runs the scalar F16::mul_add",
            tier.as_str(),
        );
    }

    let g = figures::graph(model, miniature);
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
    .map_err(|e| format!("measurement failed: {e}"))?;

    // Calibrate the predictor from the measured cooperative samples.
    let measured: Vec<ulayer::MeasuredSample> = report
        .samples
        .iter()
        .map(|m| ulayer::MeasuredSample {
            device: m.device,
            class: m.class,
            compute_dtype: m.compute_dtype,
            macs: m.macs,
            bytes: m.bytes,
            seconds: m.seconds,
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
    write!(s, "{}", t.render());

    writeln!(
        s,
        "\ntotal wall: cooperative {} vs single-pool {} => measured speedup {}",
        ms(report.coop_total_s * 1e3),
        ms(report.single_total_s * 1e3),
        ratio(report.measured_speedup),
    );
    writeln!(
        s,
        "modeled speedup (simulator): {}",
        ratio(report.modeled_speedup)
    );
    if report.host_parallelism < 2 {
        writeln!(
            s,
            "note: host has {} core(s); the two pools time-share, so cooperative \
             execution cannot beat the single pool here (expected on CI)",
            report.host_parallelism
        );
    } else if report.measured_speedup <= 1.0 {
        writeln!(
            s,
            "WARN: cooperative did not beat single-pool on this {}-core host",
            report.host_parallelism
        );
    }

    writeln!(
        s,
        "\npredictor calibration: {} samples fitted into {} models ({} skipped), \
         mean in-sample rel. err {}",
        fit.samples_used,
        fit.groups.len(),
        fit.samples_skipped,
        pct(fit.mean_rel_err()),
    );
    let dev_name = |id: usoc::DeviceId| {
        spec.device(id)
            .map(|d| d.name.clone())
            .unwrap_or_else(|_| format!("{id}"))
    };
    let mut t = Table::new(&["Device", "Class", "Dtype", "Samples", "Rel. err"]);
    for gfit in &fit.groups {
        t.row(vec![
            dev_name(gfit.device),
            format!("{:?}", gfit.class),
            format!("{}", gfit.compute_dtype),
            gfit.samples.to_string(),
            pct(gfit.mean_rel_err),
        ]);
    }
    write!(s, "{}", t.render());
    if p.str_of("--out").is_some() {
        writeln!(s);
    }

    let groups = fit.groups.iter().map(|gf| {
        JsonValue::obj(vec![
            ("device", JsonValue::s(dev_name(gf.device))),
            ("class", JsonValue::s(format!("{:?}", gf.class))),
            ("dtype", JsonValue::s(format!("{}", gf.compute_dtype))),
            ("samples", JsonValue::n(gf.samples as f64)),
            ("mean_rel_err", JsonValue::n(gf.mean_rel_err)),
        ])
    });
    let layers = report.layers.iter().map(|l| {
        JsonValue::obj(vec![
            ("node", JsonValue::n(l.node as f64)),
            ("name", JsonValue::s(l.name.clone())),
            ("kind", JsonValue::s(l.kind.clone())),
            ("coop_s", JsonValue::n(l.coop_s)),
            ("single_s", JsonValue::n(l.single_s)),
        ])
    });
    let document = JsonValue::obj(vec![
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
                ("groups", JsonValue::Arr(groups.collect())),
            ]),
        ),
        ("layers", JsonValue::Arr(layers.collect())),
    ]);
    Ok(Report {
        document: Some(document),
        ..Report::default()
    })
}

/// Schema tag of the measurement document.
const MEASURE_SCHEMA: &str = "ulayer-exec-measure/v3";

/// `repro fleet`: a mixed-SoC device fleet served through the μLayer
/// degradation ladder under a correlated fault storm, with one shared
/// weight allocation and per-instance drift adapters. Violations: a
/// fleet invariant, the `--min-hit-rate` gate, or a shuffled event
/// order whose report differs from FIFO.
fn fleet(p: &Parsed, model: ModelId, s: &mut Sink) -> Result<Report, String> {
    let miniature = p.switch("--miniature");
    let devices = p.usize_of("--devices").unwrap_or(64);
    let frames = p.usize_of("--frames").unwrap_or(32);
    let seed = p.u64_of("--seed").unwrap_or(42);
    let storm_name = p.str_of("--storm").unwrap_or("gpu-loss");
    let storm = if storm_name == "none" {
        None
    } else {
        Some(simcore::FleetScenario::from_name(storm_name).expect("validated at parse"))
    };
    let arrivals = p
        .str_of("--arrivals")
        .map(|a| simcore::ArrivalKind::from_name(a).expect("validated at parse"))
        .unwrap_or(simcore::ArrivalKind::Bursty);
    let rate_fps = p.f64_of("--rate").unwrap_or(0.0);
    let deadline_ms = p.f64_of("--deadline").unwrap_or(0.0);
    let queue = p.usize_of("--queue").unwrap_or(8);
    let fuzz_orders = p.usize_of("--fuzz-orders").unwrap_or(2);
    let plan_cache = p.str_of("--plan-cache").unwrap_or("on") == "on";
    let min_hit_rate = p.f64_of("--min-hit-rate");

    heading(
        s,
        &format!(
            "Fleet chaos serving: {devices} devices x {} under storm `{storm_name}` (seed {seed}, {frames} frames/device)",
            model.name(),
        ),
    );
    let rep = figures::fleet_storm(
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
    .map_err(|e| format!("fleet run failed: {e}"))?;
    let r = &rep.report;

    for (soc, rungs) in &rep.cohort_rungs {
        writeln!(s, "\n--- cohort: {soc} ---");
        print_rungs(s, rungs, None);
    }
    writeln!(
        s,
        "\ncohort instances: {} (mean interval {} ms, deadline {} ms)",
        r.cohort_socs
            .iter()
            .zip(&r.cohort_instances)
            .map(|(soc, n)| format!("{soc}: {n}"))
            .collect::<Vec<_>>()
            .join(", "),
        ms(r.mean_interval.as_secs_f64() * 1e3),
        ms(r.deadline.as_secs_f64() * 1e3),
    );

    let slo = Slo::from(r);
    slo.print_table(s);
    slo.print_occupancy(s);

    writeln!(
        s,
        "\nchaos: {} retries, {} fallbacks, {} throttled dispatches, {} realized deadline misses, {} GPUs lost",
        r.retries, r.fallbacks, r.throttled, r.missed, r.gpu_lost_devices
    );
    writeln!(
        s,
        "weights: {} bytes shared across the fleet in {} allocation(s) (per-device copies would cost {} bytes)",
        r.weight_bytes, r.weight_copies, r.naive_weight_bytes
    );
    writeln!(s, "fleet energy: {:.3} J", r.energy_j);
    let cache = if r.plan_cache_enabled { "on" } else { "off" };
    writeln!(
        s,
        "planner: cache {cache}, {} hit / {} miss (hit rate {:.1}%), {:.3} ms modeled planning",
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
        writeln!(
            s,
            "order-fuzz gate: {} shuffled orders, all byte-identical to FIFO",
            rep.fuzz_orders
        );
    } else {
        violations.push(format!(
            "order-fuzz gate: shuffle seeds {:?} diverged from the FIFO report",
            rep.fuzz_mismatches
        ));
    }

    let mut totals = slo.totals_json();
    totals.extend([
        ("retries", JsonValue::n(r.retries as f64)),
        ("fallbacks", JsonValue::n(r.fallbacks as f64)),
        ("throttled", JsonValue::n(r.throttled as f64)),
        ("missed", JsonValue::n(r.missed as f64)),
        ("gpu_lost_devices", JsonValue::n(r.gpu_lost_devices as f64)),
        ("queue_peak", JsonValue::n(r.queue_peak as f64)),
    ]);
    let cohorts = r
        .cohort_socs
        .iter()
        .zip(&r.cohort_instances)
        .map(|(soc, n)| {
            JsonValue::obj(vec![
                ("soc", JsonValue::s(soc.clone())),
                ("instances", JsonValue::n(*n as f64)),
            ])
        });
    let mismatched = rep.fuzz_mismatches.iter().map(|&m| JsonValue::n(m as f64));
    let document = JsonValue::obj(vec![
        ("schema", JsonValue::s(FLEET_SCHEMA)),
        ("net", JsonValue::s(r.net.clone())),
        ("scenario", JsonValue::s(storm_name)),
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
                ("cohorts", JsonValue::Arr(cohorts.collect())),
            ]),
        ),
        ("totals", JsonValue::obj(totals)),
        ("rung_occupancy", slo.occupancy_json()),
        ("latency", slo.latency_json()),
        ("energy_j", JsonValue::n(r.energy_j)),
        (
            "planner",
            JsonValue::obj(vec![
                ("cache", JsonValue::s(cache)),
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
                ("mismatched_seeds", JsonValue::Arr(mismatched.collect())),
            ]),
        ),
        ("invariants", invariants_json(r.check_invariants())),
    ]);
    Ok(Report {
        document: Some(document),
        note: "\n(one weight allocation serves every instance; storms are correlated across\n \
               the fleet but each instance's faults, arrivals, and drift state are its own)\n",
        violations,
    })
}

/// Schema tag of the fleet document.
const FLEET_SCHEMA: &str = "ulayer-fleet/v1";

/// `repro mesh`: a RAM-limited MCU mesh served through the
/// partition-tolerant degradation ladder under a seeded link fault.
/// Violations: a frame-accounting leak, or a rung whose output diverges
/// from the single-device QUInt8 reference.
fn mesh(p: &Parsed, s: &mut Sink) -> Result<Report, String> {
    let nodes = p.usize_of("--nodes").unwrap_or(4);
    let frames = p.usize_of("--frames").unwrap_or(32);
    let seed = p.u64_of("--seed").unwrap_or(42);
    let fault_name = p.str_of("--link-fault").unwrap_or("partition");
    let link_fault = if fault_name == "none" {
        None
    } else {
        Some(simcore::LinkFaultScenario::from_name(fault_name).expect("validated at parse"))
    };
    let arrivals = p
        .str_of("--arrivals")
        .map(|a| simcore::ArrivalKind::from_name(a).expect("validated at parse"))
        .unwrap_or(simcore::ArrivalKind::Fixed);
    let rate_fps = p.f64_of("--rate").unwrap_or(0.0);
    let deadline_ms = p.f64_of("--deadline").unwrap_or(0.0);
    let queue = p.usize_of("--queue").unwrap_or(4);

    heading(
        s,
        &format!(
            "Mesh serving: {nodes}-node MCU mesh under link fault `{fault_name}` (seed {seed}, {frames} frames)",
        ),
    );
    let rep = figures::mesh_scenario(
        nodes,
        link_fault,
        frames,
        arrivals,
        rate_fps,
        deadline_ms,
        queue,
        seed,
    )
    .map_err(|e| format!("mesh run failed: {e}"))?;
    let r = &rep.report;

    print_rungs(s, &rep.rungs, None);
    writeln!(
        s,
        "\n{} nodes over {} links (mean interval {} ms, deadline {} ms)",
        rep.nodes,
        r.links,
        ms(rep.mean_interval_ms),
        ms(rep.deadline_ms),
    );

    let slo = Slo::from(r);
    slo.print_table(s);
    slo.print_occupancy(s);

    writeln!(
        s,
        "\npartition: {} frames arrived with a link down, {} of them degraded to a surviving-subset rung",
        r.frames_during_partition, r.partition_degraded
    );
    print_planner_probes(s, &rep.planner);

    let mut violations = Vec::new();
    if let Err(e) = r.check_invariants() {
        violations.push(format!("mesh invariant: {e}"));
    }
    if rep.bit_identical {
        writeln!(
            s,
            "numerics gate: every rung bit-identical to the single-device QUInt8 reference"
        );
    } else {
        violations.push("numerics gate: a rung diverged from the QUInt8 reference".to_string());
    }

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
    let document = JsonValue::obj(vec![
        ("schema", JsonValue::s(MESH_SCHEMA)),
        ("net", JsonValue::s("mesh-cnn")),
        ("scenario", JsonValue::s(fault_name)),
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
    ]);
    Ok(Report {
        document: Some(document),
        note: "\n(each rung covers one surviving connected device subset; a partitioned mesh\n \
               degrades to its surviving component's rung instead of shedding the frame)\n",
        violations,
    })
}

/// Schema tag of the mesh document.
const MESH_SCHEMA: &str = "ulayer-mesh/v1";

/// `repro plan`: a drift-keyed planner session over a frame stream on
/// both SoCs, every incremental replan cross-checked against a
/// from-scratch plan, with cache hit rates and planner time against
/// the always-scratch arm. Violations: a replan that diverges from
/// scratch, or the `--min-hit-rate` gate.
fn plan(p: &Parsed, model: ModelId, s: &mut Sink) -> Result<Report, String> {
    let miniature = p.switch("--miniature");
    let frames = p.usize_of("--frames").unwrap_or(64);
    let seed = p.u64_of("--seed").unwrap_or(42);
    let drift = p.str_of("--drift").unwrap_or("calm");
    let min_hit_rate = p.f64_of("--min-hit-rate");

    heading(
        s,
        &format!(
            "Planner cache: uLayer {} over {frames} frames of `{drift}` drift (seed {seed})",
            model.name(),
        ),
    );
    let reports = figures::plan_experiment(model, drift, miniature, frames, seed);
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
    let mut socs = Vec::new();
    for rep in &reports {
        let st = &rep.stats;
        t.row(vec![
            rep.soc.clone(),
            st.frames.to_string(),
            format!("{}/{}", st.cache_hits, st.cache_misses),
            format!("{:.1}%", st.hit_rate() * 100.0),
            format!("{}/{}", st.incremental_replans, st.scratch_plans),
            format!("{}/{}", st.layers_reenumerated, st.layers_copied),
            format!("{:.3}", st.wall_ns as f64 / 1e6),
            format!("{:.3}", rep.scratch_wall_ms),
        ]);
        if !rep.equivalence_failures.is_empty() {
            violations.push(format!(
                "{}: incremental plans diverged from scratch at frames {:?}",
                rep.soc, rep.equivalence_failures
            ));
        }
        if let Some(min) = min_hit_rate {
            if st.hit_rate() < min {
                violations.push(format!(
                    "{}: hit rate {:.3} below the --min-hit-rate gate {min}",
                    rep.soc,
                    st.hit_rate()
                ));
            }
        }
        socs.push(JsonValue::obj(vec![
            ("soc", JsonValue::s(rep.soc.clone())),
            ("frames", JsonValue::n(st.frames as f64)),
            ("hits", JsonValue::n(st.cache_hits as f64)),
            ("misses", JsonValue::n(st.cache_misses as f64)),
            ("hit_rate", JsonValue::n(st.hit_rate())),
            ("incremental", JsonValue::n(st.incremental_replans as f64)),
            ("scratch", JsonValue::n(st.scratch_plans as f64)),
            (
                "layers_reenumerated",
                JsonValue::n(st.layers_reenumerated as f64),
            ),
            ("layers_copied", JsonValue::n(st.layers_copied as f64)),
            ("evictions", JsonValue::n(st.evictions as f64)),
            ("planner_wall_ms", JsonValue::n(st.wall_ns as f64 / 1e6)),
            ("planning_modeled_ms", JsonValue::n(rep.planning_modeled_ms)),
            ("scratch_wall_ms", JsonValue::n(rep.scratch_wall_ms)),
            (
                "equivalent",
                JsonValue::Bool(rep.equivalence_failures.is_empty()),
            ),
        ]));
    }
    write!(s, "{}", t.render());
    writeln!(
        s,
        "\nequivalence: every exact-policy frame cross-checked against a from-scratch plan"
    );

    let net = reports
        .first()
        .map(|r| r.network.clone())
        .unwrap_or_default();
    let document = JsonValue::obj(vec![
        ("schema", JsonValue::s(PLAN_SCHEMA)),
        ("net", JsonValue::s(net)),
        ("drift", JsonValue::s(drift)),
        ("seed", JsonValue::n(seed as f64)),
        ("socs", JsonValue::Arr(socs)),
    ]);
    Ok(Report {
        document: Some(document),
        note: "\n(a cache hit skips partitioning entirely; a drift-key miss replans only the\n \
               layers whose cost margin the drift change could have flipped)\n",
        violations,
    })
}

/// Schema tag of the planner document.
const PLAN_SCHEMA: &str = "ulayer-plan/v1";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_writes_parseable_documents() {
        let dir = std::env::temp_dir().join("ulayer-export-test");
        let _ = std::fs::remove_dir_all(&dir);
        let written = write_documents(&dir, false).expect("export");
        assert!(written.contains(&"fig16.json".to_string()));
        assert!(!written.contains(&"fig10.json".to_string()));
        for name in &written {
            let body = std::fs::read_to_string(dir.join(name)).expect("read back");
            // Cheap structural sanity: balanced braces/brackets and no
            // trailing garbage.
            assert!(body.starts_with('[') || body.starts_with('{'), "{name}");
            let opens = body.matches(['{', '[']).count();
            let closes = body.matches(['}', ']']).count();
            assert_eq!(opens, closes, "{name}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
