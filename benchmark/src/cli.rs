//! Command line: `run`, `all`, `quick`, `agree`.

use std::path::PathBuf;

use crate::harness::{Opts, DEFAULT_SECONDS};

/// Set-ups per run behind the `setup_s` median.
const SETUP_REPS: usize = 3;

/// What to do.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// One workload; prints the table, the record and the result line.
    Run {
        /// Workload name.
        workload: String,
    },
    /// Every workload, traced.
    All,
    /// Smoke: every workload for one second, traced; asserts every named
    /// metric is present and finite and no op failed.
    Quick,
    /// Every workload twice; fails if any end-to-end metric differs between
    /// the two sets by more than its bound (exact ones: at all).
    Agree,
}

/// A parsed command line.
#[derive(Clone, Debug)]
pub struct Cli {
    /// The subcommand.
    pub command: Command,
    /// Options of each run.
    pub opts: Opts,
    /// Where to write the Chrome trace of a traced run (`run`: a file;
    /// `all`: a directory, one `<workload>.json` each).
    pub trace_out: Option<PathBuf>,
}

/// Usage text.
pub const USAGE: &str =
    "usage: ulayer-benchmark <run|all|quick|agree> [--workload <name>] [--seed <n>] \
[--seconds <n>] [--trace <0|1> | --traced] [--trace-out <path>]
  run    one workload (--workload is required); the last line of output is the result object
  all    every workload, traced
  quick  smoke: one second of every workload, traced, every metric checked
  agree  every workload twice; the two sets must agree within the bounds
workloads: coop_squeezenet single_mobilenet replan_churn fleet_storm";

/// Parses `args` (without the program name). Options take `--key value` or
/// `--key=value`.
pub fn parse(args: &[String]) -> Result<Cli, String> {
    let mut it = args.iter();
    let sub = it.next().ok_or("missing subcommand")?;
    let mut workload = None;
    let mut trace_out = None;
    let mut opts = Opts {
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        setup_reps: SETUP_REPS,
    };
    while let Some(arg) = it.next() {
        let (key, inline) = match arg.split_once('=') {
            Some((k, v)) => (k, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        if key == "--traced" && inline.is_none() {
            opts.traced = true;
            continue;
        }
        let value = match inline {
            Some(v) => v,
            None => it.next().cloned().ok_or(format!("{key} needs a value"))?,
        };
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{key}: not a whole number: {value}"))
        };
        match key {
            "--workload" => workload = Some(value),
            "--seed" => opts.seed = number()?,
            "--seconds" => opts.seconds = number()?.clamp(1, 60),
            "--trace" => opts.traced = number()? != 0,
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {key}")),
        }
    }
    let command = match sub.as_str() {
        "run" => Command::Run {
            workload: workload.ok_or("run needs --workload <name>")?,
        },
        "all" => Command::All,
        "quick" => Command::Quick,
        "agree" => Command::Agree,
        other => return Err(format!("unknown subcommand {other}")),
    };
    Ok(Cli {
        command,
        opts,
        trace_out,
    })
}
