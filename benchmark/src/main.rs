//! `ulayer-benchmark`: see `README.md` beside `Cargo.toml`.

use std::path::Path;
use std::process::ExitCode;

use ulayer_benchmark::cli::{self, Cli, Command};
use ulayer_benchmark::harness::{Opts, RunOutput};
use ulayer_benchmark::metrics::{self, Bound};
use ulayer_benchmark::report;
use ulayer_benchmark::span;
use ulayer_benchmark::workloads::{Workload, ALL};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match cli::parse(&args) {
        Ok(cli) => cli,
        Err(why) => {
            eprintln!("{why}\n{}", cli::USAGE);
            return ExitCode::from(64);
        }
    };
    match dispatch(&cli) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(why) => {
            eprintln!("error: {why}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload and prints its table and record; writes the trace if
/// asked to.
fn run_and_print(w: &Workload, opts: &Opts, trace_out: Option<&Path>) -> Result<RunOutput, String> {
    let out = w.run(opts)?;
    print!("{}", report::table(&out));
    println!("RECORD {}", report::record_json(&out)?);
    if let (Some(path), true) = (trace_out, opts.traced) {
        std::fs::write(path, span::chrome_trace_json(out.workload, &out.spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("   {} spans written to {}", out.spans.len(), path.display());
    }
    Ok(out)
}

/// Runs every workload traced; `trace_dir` gets one `<workload>.json` each.
fn run_all(opts: &Opts, trace_dir: Option<&Path>) -> Result<Vec<RunOutput>, String> {
    let opts = Opts {
        traced: true,
        ..opts.clone()
    };
    if let Some(dir) = trace_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    ALL.iter()
        .map(|w| {
            let path = trace_dir.map(|d| d.join(format!("{}.json", w.name)));
            run_and_print(w, &opts, path.as_deref())
        })
        .collect()
}

/// Returns whether everything run was correct.
fn dispatch(cli: &Cli) -> Result<bool, String> {
    match &cli.command {
        Command::Run { workload } => {
            let w = Workload::find(workload)
                .ok_or(format!("unknown workload {workload}\n{}", cli::USAGE))?;
            let out = run_and_print(w, &cli.opts, cli.trace_out.as_deref())?;
            // Last line: the result object of the benchmark contract.
            println!("{}", report::result_line(&out)?);
            Ok(out.correct())
        }
        Command::All => {
            let outs = run_all(&cli.opts, cli.trace_out.as_deref())?;
            Ok(outs.iter().all(RunOutput::correct))
        }
        Command::Quick => {
            let opts = Opts {
                seconds: 1,
                setup_reps: 1,
                ..cli.opts.clone()
            };
            let outs = run_all(&opts, cli.trace_out.as_deref())?;
            let mut ok = true;
            for out in &outs {
                // Like the record already printed, the result line refuses
                // a reading that is not a finite number.
                report::result_line(out)?;
                for def in &metrics::END_TO_END {
                    if out.end_to_end.get(def.name).is_none() {
                        println!("{}: {} was not reported", out.workload, def.name);
                        ok = false;
                    }
                }
                ok &= out.correct();
            }
            // A layer a workload never calls reads 0 there, but every
            // per-layer name must be reported by some workload.
            for def in metrics::contract_per_layer() {
                let reported = |o: &RunOutput| {
                    o.per_layer
                        .as_ref()
                        .is_some_and(|r| r.get(def.name).is_some())
                };
                if !outs.iter().any(reported) {
                    println!("{} was reported by no workload", def.name);
                    ok = false;
                }
            }
            println!("quick: {}", if ok { "ok" } else { "FAILED" });
            Ok(ok)
        }
        Command::Agree => {
            let first = run_all(&cli.opts, None)?;
            let second = run_all(&cli.opts, None)?;
            let mut ok = first.iter().chain(&second).all(RunOutput::correct);
            for (a, b) in first.iter().zip(&second) {
                ok &= agree(a, b);
            }
            println!("agree: {}", if ok { "ok" } else { "FAILED" });
            Ok(ok)
        }
    }
}

/// Compares two runs of one workload on the same code: host-time
/// end-to-end metrics within their bounds, exact metrics and the simulated
/// digest identical. Prints one line per metric that disagrees.
fn agree(a: &RunOutput, b: &RunOutput) -> bool {
    let mut ok = a.sim_digest == b.sim_digest;
    if !ok {
        println!(
            "{}: sim_digest differs: {:?} vs {:?}",
            a.workload, a.sim_digest, b.sim_digest
        );
    }
    let layers = |o: &RunOutput| o.per_layer.clone().unwrap_or_default();
    let (la, lb) = (layers(a), layers(b));
    let pairs = metrics::END_TO_END
        .iter()
        .map(|d| (d, a.end_to_end.get(d.name), b.end_to_end.get(d.name)))
        .chain(
            metrics::PER_LAYER
                .iter()
                .map(|d| (d, la.get(d.name), lb.get(d.name))),
        );
    for (def, x, y) in pairs {
        let (x, y) = (x.unwrap_or(0.0), y.unwrap_or(0.0));
        let apart = match def.bound {
            Bound::Free => false,
            Bound::Exact => x != y,
            // A set-up of a few ms (`replan_churn`) moves by half between two
            // single runs; the driver compares medians of ten, one pair of
            // runs cannot, so differences under 10 ms of set-up agree.
            Bound::Share(_) if def.name == "setup_s" && (x - y).abs() < 0.01 => false,
            Bound::Share(share) => (x - y).abs() > share * x.abs().min(y.abs()),
        };
        if apart {
            println!(
                "{}: {} differs beyond its bound: {x} vs {y} {}",
                a.workload, def.name, def.unit
            );
            ok = false;
        }
    }
    ok
}
