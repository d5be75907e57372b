//! Typed argument parsing for the `repro` binary.
//!
//! Every command declares its flags in a table ([`FlagSpec`]) and
//! parses through [`parse_flags`], so an unknown flag, a malformed
//! `--key=value`, or an out-of-range value is a typed [`CliError`]
//! (rendered with the offending token and what was expected) and a
//! non-zero exit — never a silently ignored argument. The tables are
//! public (through [`crate::COMMANDS`]) so the CLI contract is testable
//! table-driven, without spawning processes.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use unn::ModelId;

/// The networks a model-taking command accepts positionally
/// (case-insensitive).
pub const NETWORKS: &[(&str, ModelId)] = &[
    ("vgg16", ModelId::Vgg16),
    ("vgg", ModelId::Vgg16),
    ("alexnet", ModelId::AlexNet),
    ("squeezenet", ModelId::SqueezeNet),
    ("googlenet", ModelId::GoogLeNet),
    ("mobilenet", ModelId::MobileNet),
];

/// Arrival-process names (`--arrivals=`); kept in sync with
/// `simcore::ArrivalKind::ALL` by a test.
pub const ARRIVALS: &[&str] = &["fixed", "bursty", "poisson"];

/// Single-device fault scenarios (`--scenario=`); kept in sync with
/// `simcore::Scenario::ALL` by a test.
pub const SCENARIOS: &[&str] = &["throttle", "flaky-gpu", "gpu-loss"];

/// Fleet storm names (`--storm=`): the [`simcore::FleetScenario`]
/// names plus `none`; kept in sync by a test.
pub const STORMS: &[&str] = &[
    "none",
    "throttle-wave",
    "gpu-loss",
    "flaky-epidemic",
    "link-partition",
];

/// Link-fault scenario names (`--link-fault=`): the
/// [`simcore::LinkFaultScenario`] names plus `none`; kept in sync by a
/// test.
pub const LINK_FAULTS: &[&str] = &["none", "drop", "delay", "jitter", "flap", "partition"];

/// On/off toggles (`--plan-cache=`).
pub(crate) const ONOFF: &[&str] = &["on", "off"];

/// Drift scenarios of the `plan` subcommand (`--drift=`): how the
/// per-frame `DriftAdapter` state evolves while the planner session
/// replans the stream.
pub(crate) const DRIFTS: &[&str] = &["calm", "throttle", "loss", "oscillate"];

/// What a flag's value must look like.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlagKind {
    /// Bare `--flag`; takes no value.
    Switch,
    /// `--flag=N`, unsigned 64-bit.
    U64,
    /// `--flag=N`, unsigned, at least the given minimum.
    UsizeMin(usize),
    /// `--flag=X`, non-negative float.
    F64NonNeg,
    /// `--flag=S`, any non-empty string (paths).
    Str,
    /// `--flag=S`, one of an enumerated set.
    OneOf(&'static [&'static str]),
}

impl FlagKind {
    fn expected(self) -> String {
        match self {
            FlagKind::Switch => "no value (it is a switch)".into(),
            FlagKind::U64 => "an unsigned integer".into(),
            FlagKind::UsizeMin(min) => format!("an integer >= {min}"),
            FlagKind::F64NonNeg => "a number >= 0".into(),
            FlagKind::Str => "a non-empty value".into(),
            FlagKind::OneOf(names) => format!("one of {}", names.join("|")),
        }
    }
}

/// One flag a subcommand accepts.
#[derive(Clone, Copy, Debug)]
pub struct FlagSpec {
    /// The flag name including the leading dashes (`"--seed"`).
    pub name: &'static str,
    /// Value shape.
    pub kind: FlagKind,
}

const fn flag(name: &'static str, kind: FlagKind) -> FlagSpec {
    FlagSpec { name, kind }
}

/// `repro trace` flags.
pub(crate) const TRACE_FLAGS: &[FlagSpec] = &[
    flag("--miniature", FlagKind::Switch),
    flag("--trace-out", FlagKind::Str),
];

/// `repro faults` flags.
pub(crate) const FAULTS_FLAGS: &[FlagSpec] = &[
    flag("--miniature", FlagKind::Switch),
    flag("--scenario", FlagKind::OneOf(SCENARIOS)),
    flag("--seed", FlagKind::U64),
];

/// `repro serve` flags.
pub const SERVE_FLAGS: &[FlagSpec] = &[
    flag("--miniature", FlagKind::Switch),
    flag("--arrivals", FlagKind::OneOf(ARRIVALS)),
    flag("--rate", FlagKind::F64NonNeg),
    flag("--deadline", FlagKind::F64NonNeg),
    flag("--queue", FlagKind::UsizeMin(1)),
    flag("--frames", FlagKind::UsizeMin(1)),
    flag("--seed", FlagKind::U64),
    flag("--trace-out", FlagKind::Str),
];

/// `repro measure` flags.
pub(crate) const MEASURE_FLAGS: &[FlagSpec] = &[
    flag("--miniature", FlagKind::Switch),
    flag("--threads", FlagKind::UsizeMin(1)),
    flag("--repeat", FlagKind::UsizeMin(1)),
    flag("--kernel-path", FlagKind::OneOf(ukernels::KERNEL_PATHS)),
    flag("--out", FlagKind::Str),
];

/// `repro fleet` flags.
pub const FLEET_FLAGS: &[FlagSpec] = &[
    flag("--miniature", FlagKind::Switch),
    flag("--devices", FlagKind::UsizeMin(1)),
    flag("--frames", FlagKind::UsizeMin(1)),
    flag("--seed", FlagKind::U64),
    flag("--storm", FlagKind::OneOf(STORMS)),
    flag("--arrivals", FlagKind::OneOf(ARRIVALS)),
    flag("--queue", FlagKind::UsizeMin(1)),
    flag("--rate", FlagKind::F64NonNeg),
    flag("--deadline", FlagKind::F64NonNeg),
    flag("--fuzz-orders", FlagKind::UsizeMin(0)),
    flag("--plan-cache", FlagKind::OneOf(ONOFF)),
    flag("--min-hit-rate", FlagKind::F64NonNeg),
    flag("--out", FlagKind::Str),
];

/// `repro plan` flags.
pub(crate) const PLAN_FLAGS: &[FlagSpec] = &[
    flag("--miniature", FlagKind::Switch),
    flag("--frames", FlagKind::UsizeMin(1)),
    flag("--seed", FlagKind::U64),
    flag("--drift", FlagKind::OneOf(DRIFTS)),
    flag("--min-hit-rate", FlagKind::F64NonNeg),
    flag("--out", FlagKind::Str),
];

/// `repro mesh` flags.
pub(crate) const MESH_FLAGS: &[FlagSpec] = &[
    flag("--nodes", FlagKind::UsizeMin(2)),
    flag("--frames", FlagKind::UsizeMin(1)),
    flag("--seed", FlagKind::U64),
    flag("--link-fault", FlagKind::OneOf(LINK_FAULTS)),
    flag("--arrivals", FlagKind::OneOf(ARRIVALS)),
    flag("--queue", FlagKind::UsizeMin(1)),
    flag("--rate", FlagKind::F64NonNeg),
    flag("--deadline", FlagKind::F64NonNeg),
    flag("--out", FlagKind::Str),
];

/// `repro --json` flags.
pub(crate) const JSON_FLAGS: &[FlagSpec] = &[flag("--with-fig10", FlagKind::Switch)];

/// A rejected command line, with enough structure to assert on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// The first argument names no subcommand, figure, or export mode.
    UnknownSubcommand {
        /// What was given.
        given: String,
    },
    /// A `--flag` the command does not declare, or a positional it
    /// does not take.
    UnknownFlag {
        /// The subcommand.
        subcommand: &'static str,
        /// The offending token.
        flag: String,
    },
    /// A declared flag with a value that fails its [`FlagKind`] — a
    /// switch given a value, a value flag given none, or a value that
    /// does not parse / is out of range.
    BadValue {
        /// The subcommand.
        subcommand: &'static str,
        /// The flag name.
        flag: &'static str,
        /// The offending value as given (empty when missing).
        given: String,
        /// What the flag requires.
        expected: String,
    },
    /// A positional argument that names no known network.
    BadPositional {
        /// The subcommand.
        subcommand: &'static str,
        /// The offending token.
        given: String,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownSubcommand { given } => {
                write!(f, "unknown subcommand or figure `{given}`")
            }
            CliError::UnknownFlag { subcommand, flag } => {
                write!(f, "{subcommand}: unknown flag `{flag}`")
            }
            CliError::BadValue {
                subcommand,
                flag,
                given,
                expected,
            } => {
                if given.is_empty() {
                    write!(f, "{subcommand}: `{flag}` expects {expected}")
                } else {
                    write!(
                        f,
                        "{subcommand}: bad value `{given}` for `{flag}` (expected {expected})"
                    )
                }
            }
            CliError::BadPositional { subcommand, given } => {
                let names: Vec<&str> = NETWORKS.iter().map(|(n, _)| *n).collect();
                write!(
                    f,
                    "{subcommand}: `{given}` names no network (expected one of {})",
                    names.join("|")
                )
            }
        }
    }
}

impl std::error::Error for CliError {}

/// A validated command line: switches, typed `--key=value` pairs, and
/// the remaining positional arguments (validated by the caller, e.g.
/// through [`Parsed::network`]).
#[derive(Clone, Debug, Default)]
pub struct Parsed {
    subcommand: &'static str,
    switches: BTreeSet<&'static str>,
    values: BTreeMap<&'static str, String>,
    /// Non-flag arguments, in order.
    pub positional: Vec<String>,
}

impl Parsed {
    /// True when the switch was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.contains(name)
    }

    /// The raw value of a value flag, if given.
    pub fn str_of(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// A `U64`/`UsizeMin` flag's value (validated at parse time).
    pub fn u64_of(&self, name: &str) -> Option<u64> {
        self.str_of(name)
            .map(|s| s.parse().expect("validated at parse"))
    }

    /// A `UsizeMin` flag's value (validated at parse time).
    pub fn usize_of(&self, name: &str) -> Option<usize> {
        self.str_of(name)
            .map(|s| s.parse().expect("validated at parse"))
    }

    /// An `F64NonNeg` flag's value (validated at parse time).
    pub fn f64_of(&self, name: &str) -> Option<f64> {
        self.str_of(name)
            .map(|s| s.parse().expect("validated at parse"))
    }

    /// The network the positionals name (the last one wins), or
    /// `default` when there is none; a positional that is not in
    /// [`NETWORKS`] is an error.
    pub fn network(&self, default: ModelId) -> Result<ModelId, CliError> {
        self.positional.iter().try_fold(default, |_, given| {
            NETWORKS
                .iter()
                .find(|(name, _)| given.eq_ignore_ascii_case(name))
                .map(|&(_, id)| id)
                .ok_or_else(|| CliError::BadPositional {
                    subcommand: self.subcommand,
                    given: given.clone(),
                })
        })
    }
}

/// Parses `args` against a subcommand's flag table. Flags may appear
/// in any order and interleave with positionals; later occurrences of
/// the same flag overwrite earlier ones (shell-alias friendly).
pub fn parse_flags(
    subcommand: &'static str,
    args: &[String],
    specs: &[FlagSpec],
) -> Result<Parsed, CliError> {
    let mut out = Parsed {
        subcommand,
        ..Parsed::default()
    };
    for a in args {
        if !a.starts_with("--") {
            out.positional.push(a.clone());
            continue;
        }
        let (name, value) = match a.split_once('=') {
            Some((n, v)) => (n, Some(v)),
            None => (a.as_str(), None),
        };
        let Some(spec) = specs.iter().find(|s| s.name == name) else {
            return Err(CliError::UnknownFlag {
                subcommand,
                flag: a.clone(),
            });
        };
        let bad = |given: &str| CliError::BadValue {
            subcommand,
            flag: spec.name,
            given: given.to_string(),
            expected: spec.kind.expected(),
        };
        match (spec.kind, value) {
            (FlagKind::Switch, None) => {
                out.switches.insert(spec.name);
            }
            (FlagKind::Switch, Some(v)) => return Err(bad(v)),
            (_, None) => return Err(bad("")),
            (kind, Some(v)) => {
                let ok = match kind {
                    FlagKind::Switch => unreachable!("handled above"),
                    FlagKind::U64 => v.parse::<u64>().is_ok(),
                    FlagKind::UsizeMin(min) => v.parse::<usize>().is_ok_and(|n| n >= min),
                    FlagKind::F64NonNeg => v.parse::<f64>().is_ok_and(|x| x >= 0.0),
                    FlagKind::Str => !v.is_empty(),
                    FlagKind::OneOf(names) => names.contains(&v),
                };
                if !ok {
                    return Err(bad(v));
                }
                out.values.insert(spec.name, v.to_string());
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_positionals_and_overrides() {
        let p = parse_flags(
            "serve",
            &args(&["squeezenet", "--queue=4", "--miniature", "--queue=6"]),
            SERVE_FLAGS,
        )
        .expect("parse");
        assert_eq!(p.positional, vec!["squeezenet".to_string()]);
        assert!(p.switch("--miniature"));
        assert_eq!(p.usize_of("--queue"), Some(6));
        assert_eq!(p.usize_of("--frames"), None);
    }

    #[test]
    fn unknown_flag_is_typed() {
        let e = parse_flags("serve", &args(&["--wat=1"]), SERVE_FLAGS).unwrap_err();
        assert_eq!(
            e,
            CliError::UnknownFlag {
                subcommand: "serve",
                flag: "--wat=1".into()
            }
        );
    }

    #[test]
    fn malformed_values_are_typed() {
        for bad in ["--queue=zero", "--queue=0", "--queue=", "--queue"] {
            let e = parse_flags("serve", &args(&[bad]), SERVE_FLAGS).unwrap_err();
            assert!(
                matches!(
                    e,
                    CliError::BadValue {
                        flag: "--queue",
                        ..
                    }
                ),
                "{bad}: {e:?}"
            );
        }
        let e = parse_flags("serve", &args(&["--miniature=yes"]), SERVE_FLAGS).unwrap_err();
        assert!(matches!(
            e,
            CliError::BadValue {
                flag: "--miniature",
                ..
            }
        ));
    }

    #[test]
    fn every_table_is_reachable_by_name() {
        for cmd in crate::COMMANDS {
            let found = crate::commands::command(cmd.name).expect("registered");
            let names = |t: &[FlagSpec]| t.iter().map(|s| s.name).collect::<Vec<_>>();
            assert_eq!(names(found.flags), names(cmd.flags), "{}", cmd.name);
            let rows = crate::COMMANDS.iter().filter(|c| c.name == cmd.name);
            assert_eq!(rows.count(), 1, "{} names two rows", cmd.name);
        }
        assert!(crate::commands::command("fig5").is_some_and(|c| c.flags.is_empty()));
        assert!(crate::commands::command("fig99").is_none());
    }
}
