//! `BENCHMARK.json` and the catalogue in `src/metrics.rs` name the same
//! workloads and metrics, with the same units, directions and bounds.

use ulayer_benchmark::harness::DEFAULT_SECONDS;
use ulayer_benchmark::metrics::{self, Bound, MetricDef};
use ulayer_benchmark::workloads::ALL;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The objects of the array under `"key"`, as raw text.
fn objects(key: &str) -> Vec<&'static str> {
    let at = BENCHMARK_JSON
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key} in BENCHMARK.json"));
    let rest = &BENCHMARK_JSON[at..];
    let array = &rest[rest.find('[').unwrap()..=rest.find(']').unwrap()];
    array
        .split('{')
        .skip(1)
        .map(|o| &o[..o.find('}').unwrap()])
        .collect()
}

/// The value of `"key"` in a flat object, quotes stripped.
fn field<'a>(object: &'a str, key: &str) -> &'a str {
    let at = object
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key} in {object}"));
    let value = object[at..].split_once(':').unwrap().1.trim_start();
    match value.strip_prefix('"') {
        Some(quoted) => &quoted[..quoted.find('"').unwrap()],
        None => value.split([',', '\n']).next().unwrap().trim(),
    }
}

fn assert_same(listed: &[&str], defs: Vec<&MetricDef>) {
    let names: Vec<&str> = listed.iter().map(|o| field(o, "name")).collect();
    assert_eq!(names, defs.iter().map(|d| d.name).collect::<Vec<_>>());
    for (object, def) in listed.iter().zip(defs) {
        assert_eq!(field(object, "unit"), def.unit, "{}", def.name);
        let better = if def.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(field(object, "better"), better, "{}", def.name);
        if let Bound::Share(share) = def.bound {
            assert_eq!(
                field(object, "bound").parse::<f64>().unwrap(),
                share,
                "{}",
                def.name
            );
        }
    }
}

#[test]
fn emitted_names_are_the_names_in_benchmark_json() {
    assert_same(
        &objects("end_to_end"),
        metrics::contract_end_to_end().collect(),
    );
    assert_same(
        &objects("per_layer"),
        metrics::contract_per_layer().collect(),
    );
}

#[test]
fn names_and_units_use_the_allowed_characters() {
    let defs: Vec<&MetricDef> = metrics::END_TO_END
        .iter()
        .chain(&metrics::PER_LAYER)
        .collect();
    for def in &defs {
        assert!(def.name.len() <= 64 && def.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
        assert!(
            def.name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{}",
            def.name
        );
        assert!(def.unit.len() <= 16, "{}", def.unit);
        assert!(
            def.unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{}",
            def.unit
        );
    }
    let mut names: Vec<&str> = metrics::contract_end_to_end()
        .chain(metrics::contract_per_layer())
        .map(|d| d.name)
        .collect();
    names.sort_unstable();
    let before = names.len();
    names.dedup();
    assert_eq!(before, names.len(), "a name is used twice");
    assert!(metrics::contract_per_layer().count() <= 128);
    assert!(metrics::contract_end_to_end().any(|d| d.name == "setup_s" && d.unit == "s"));
}

#[test]
fn workloads_and_run_length_match_benchmark_json() {
    let listed = objects("workloads");
    assert_eq!(
        listed.iter().map(|o| field(o, "name")).collect::<Vec<_>>(),
        ALL.iter().map(|w| w.name).collect::<Vec<_>>()
    );
    for (object, w) in listed.iter().zip(&ALL) {
        assert_eq!(field(object, "why"), w.why);
        assert!(w.why.len() <= 200);
    }
    let at = BENCHMARK_JSON.find("\"run_seconds\"").unwrap();
    assert_eq!(
        field(&BENCHMARK_JSON[at..], "run_seconds"),
        DEFAULT_SECONDS.to_string()
    );
    assert!(BENCHMARK_JSON.contains("\"paths\": [\"benchmark\"]"));
}
