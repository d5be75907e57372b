//! The `repro` CLI contract, table-driven: every subcommand's flag
//! table rejects unknown flags and malformed `--key=value` pairs with
//! a typed error, accepts its documented forms, and the enumerated
//! value lists stay in sync with the enums they name.

use ubench::{parse_flags, CliError, FlagKind};

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

/// Every subcommand rejects a flag nobody declares, with the offending
/// token preserved in the error.
#[test]
fn every_subcommand_rejects_unknown_flags() {
    for &(sub, specs) in ubench::SUBCOMMANDS {
        for bad in ["--definitely-not-a-flag", "--definitely-not-a-flag=1"] {
            let e = parse_flags(sub, &args(&[bad]), specs).unwrap_err();
            assert_eq!(
                e,
                CliError::UnknownFlag {
                    subcommand: sub,
                    flag: bad.into()
                },
                "{sub} accepted {bad}"
            );
            assert!(e.to_string().contains(bad), "{sub}: error hides the token");
        }
    }
}

/// Malformed values for every declared value flag of every subcommand:
/// each kind gets the inputs that must fail it.
#[test]
fn every_value_flag_rejects_malformed_values() {
    for &(sub, specs) in ubench::SUBCOMMANDS {
        for spec in specs {
            let bad_values: &[&str] = match spec.kind {
                // A switch must reject any value at all.
                FlagKind::Switch => &["yes", "1", ""],
                FlagKind::U64 => &["banana", "-1", "1.5", ""],
                FlagKind::UsizeMin(_) => &["banana", "-1", "1.5", ""],
                FlagKind::F64NonNeg => &["banana", "-0.5", ""],
                FlagKind::Str => &[""],
                FlagKind::OneOf(_) => &["definitely-not-a-member", ""],
            };
            for v in bad_values {
                let token = format!("{}={v}", spec.name);
                let e = parse_flags(sub, &args(&[&token]), specs).unwrap_err();
                assert!(
                    matches!(&e, CliError::BadValue { subcommand, flag, .. }
                        if *subcommand == sub && *flag == spec.name),
                    "{sub} {token}: expected BadValue, got {e:?}"
                );
            }
            // Below-minimum integers.
            if let FlagKind::UsizeMin(min) = spec.kind {
                if min > 0 {
                    let token = format!("{}={}", spec.name, min - 1);
                    assert!(
                        parse_flags(sub, &args(&[&token]), specs).is_err(),
                        "{sub} accepted {token}"
                    );
                }
            }
            // A value flag with no value at all.
            if spec.kind != FlagKind::Switch {
                let e = parse_flags(sub, &args(&[spec.name]), specs).unwrap_err();
                assert!(
                    matches!(&e, CliError::BadValue { given, .. } if given.is_empty()),
                    "{sub} {}: expected missing-value error, got {e:?}",
                    spec.name
                );
            }
        }
    }
}

/// Well-formed values for every declared flag parse and come back
/// through the typed accessors.
#[test]
fn every_flag_accepts_its_documented_form() {
    for &(sub, specs) in ubench::SUBCOMMANDS {
        for spec in specs {
            let good: String = match spec.kind {
                FlagKind::Switch => spec.name.to_string(),
                FlagKind::U64 => format!("{}=18446744073709551615", spec.name),
                FlagKind::UsizeMin(min) => format!("{}={}", spec.name, min.max(1)),
                FlagKind::F64NonNeg => format!("{}=12.5", spec.name),
                FlagKind::Str => format!("{}=some/path.json", spec.name),
                FlagKind::OneOf(names) => format!("{}={}", spec.name, names[0]),
            };
            let p = parse_flags(sub, &args(&[&good]), specs)
                .unwrap_or_else(|e| panic!("{sub} rejected {good}: {e}"));
            match spec.kind {
                FlagKind::Switch => assert!(p.switch(spec.name)),
                FlagKind::U64 => assert_eq!(p.u64_of(spec.name), Some(u64::MAX)),
                FlagKind::UsizeMin(min) => {
                    assert_eq!(p.usize_of(spec.name), Some(min.max(1)));
                }
                FlagKind::F64NonNeg => assert_eq!(p.f64_of(spec.name), Some(12.5)),
                FlagKind::Str => assert_eq!(p.str_of(spec.name), Some("some/path.json")),
                FlagKind::OneOf(names) => assert_eq!(p.str_of(spec.name), Some(names[0])),
            }
        }
    }
}

/// Positionals pass through untouched and mix freely with flags.
#[test]
fn positionals_pass_through() {
    let p = parse_flags(
        "fleet",
        &args(&["squeezenet", "--devices=64", "--storm=gpu-loss"]),
        ubench::FLEET_FLAGS,
    )
    .expect("parse");
    assert_eq!(p.positional, vec!["squeezenet".to_string()]);
    assert_eq!(p.usize_of("--devices"), Some(64));
    assert_eq!(p.str_of("--storm"), Some("gpu-loss"));
}

/// The enumerated value lists the tables advertise stay in sync with
/// the enums that actually parse them.
#[test]
fn enumerated_lists_match_their_enums() {
    let arrivals: Vec<&str> = simcore::ArrivalKind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(ubench::ARRIVALS, arrivals.as_slice());
    let scenarios: Vec<&str> = simcore::Scenario::ALL.iter().map(|s| s.name()).collect();
    assert_eq!(ubench::SCENARIOS, scenarios.as_slice());
    let mut storms = vec!["none"];
    storms.extend(simcore::FleetScenario::ALL.iter().map(|s| s.name()));
    assert_eq!(ubench::STORMS, storms.as_slice());
    for name in ubench::STORMS.iter().filter(|n| **n != "none") {
        assert!(
            simcore::FleetScenario::from_name(name).is_some(),
            "storm {name} does not round-trip"
        );
    }
    let mut link_faults = vec!["none"];
    link_faults.extend(simcore::LinkFaultScenario::ALL.iter().map(|s| s.name()));
    assert_eq!(ubench::LINK_FAULTS, link_faults.as_slice());
    for name in ubench::LINK_FAULTS.iter().filter(|n| **n != "none") {
        assert!(
            simcore::LinkFaultScenario::from_name(name).is_some(),
            "link fault {name} does not round-trip"
        );
    }
}

/// The typed errors render the subcommand, the flag, and what was
/// expected — what a user needs to fix the invocation.
#[test]
fn error_rendering_names_the_problem() {
    let e = parse_flags("serve", &args(&["--queue=zero"]), ubench::SERVE_FLAGS).unwrap_err();
    let msg = e.to_string();
    assert!(msg.contains("serve"), "{msg}");
    assert!(msg.contains("--queue"), "{msg}");
    assert!(msg.contains("zero"), "{msg}");
    assert!(msg.contains(">= 1"), "{msg}");

    let e = CliError::BadPositional {
        subcommand: "fleet",
        given: "resnet".into(),
    };
    let msg = e.to_string();
    assert!(
        msg.contains("resnet") && msg.contains("squeezenet"),
        "{msg}"
    );
}
