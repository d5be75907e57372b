//! Fuzz-hardening properties for the std-only Chrome trace JSON parser.
//!
//! The parser ([`simcore::JsonValue::parse`]) and the structural
//! validator ([`simcore::validate_chrome_trace`]) consume files written
//! by this repo *and* files a user hands to tooling, so malformed input
//! must produce an `Err` — never a panic, an abort (stack overflow), or
//! a hang. The properties below mutate and truncate valid exported
//! traces and feed outright random bytes; merely *returning* from every
//! call is the property (a panic fails the test), plus a round-trip
//! check whenever a mutant still parses.
//!
//! Deterministic in `TESTKIT_SEED`, case count via `TESTKIT_CASES`.

use simcore::export_chrome_trace;
use simcore::{
    validate_chrome_trace, JsonValue, OverlayEvent, ResourceId, SimSpan, SimTime, TaskId,
    TaskRecord, Trace, TraceArg,
};
use testkit::{prop_assert, props, Rng};

/// A small but representative exported trace: two resource tracks, one
/// overlay track, string escapes, and sub-microsecond timestamps.
fn valid_trace_json(seed: u64) -> String {
    let mut rng = Rng::seed_from_u64(seed);
    let mut records = Vec::new();
    let mut cursor = 0u64;
    for id in 0..rng.gen_range(1usize..=6) {
        let start = cursor + rng.gen_range(0u64..2_000);
        let end = start + rng.gen_range(1u64..5_000);
        cursor = end;
        records.push(TaskRecord {
            id: TaskId(id),
            label: format!("task \"{id}\"\n\u{3bc}"),
            resource: ResourceId(id % 2),
            start: SimTime::from_nanos(start),
            end: SimTime::from_nanos(end),
            payload: id as u32,
        });
    }
    let overlays = vec![OverlayEvent {
        track: "serve:admission".into(),
        name: "admit".into(),
        cat: "serve".into(),
        start: SimTime::from_nanos(rng.gen_range(0u64..1_000)),
        dur: SimSpan::ZERO,
        args: vec![("depth".into(), TraceArg::Num(rng.gen_range(0.0..9.0)))],
    }];
    export_chrome_trace(
        &Trace::new(records),
        &[(ResourceId(0), "cpu".into()), (ResourceId(1), "gpu".into())],
        |_| "t".into(),
        |r| vec![("payload".into(), TraceArg::Num(r.payload as f64))],
        &overlays,
    )
}

/// Calls both consumers on arbitrary input; returning at all is the
/// core property. When the parse succeeds the rendered form must
/// re-parse to the same value (no mangled state survives).
fn exercise(input: &str) {
    if let Ok(v) = JsonValue::parse(input) {
        let rendered = v.render();
        assert_eq!(
            JsonValue::parse(&rendered).expect("rendered JSON must re-parse"),
            v
        );
    }
    let _ = validate_chrome_trace(input);
}

props! {
    #![cases(300)]

    /// Mutated valid traces: byte replacements, insertions, deletions,
    /// and truncation never panic the parser or the validator.
    fn mutated_traces_never_panic(
        doc_seed in 0u64..50,
        mut_seed in 0u64..1_000_000,
        edits in 1usize..12,
    ) {
        let doc = valid_trace_json(doc_seed);
        let mut bytes = doc.into_bytes();
        let mut rng = Rng::seed_from_u64(mut_seed);
        for _ in 0..edits {
            if bytes.is_empty() {
                break;
            }
            let at = rng.gen_range(0usize..bytes.len());
            match rng.gen_range(0u8..4) {
                0 => bytes[at] = rng.gen_range(0u8..=255),
                1 => bytes.insert(at, rng.gen_range(0u8..=255)),
                2 => {
                    bytes.remove(at);
                }
                _ => bytes.truncate(at),
            }
        }
        let mutated = String::from_utf8_lossy(&bytes);
        exercise(&mutated);
        prop_assert!(true);
    }

    /// Pure random bytes (interpreted lossily as UTF-8) never panic.
    fn random_bytes_never_panic(seed in 0u64..1_000_000, len in 0usize..600) {
        let mut rng = Rng::seed_from_u64(seed);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0u8..=255)).collect();
        let input = String::from_utf8_lossy(&bytes);
        exercise(&input);
        prop_assert!(true);
    }

    /// Random *structured-looking* garbage built from JSON tokens —
    /// denser coverage of the parser's grammar paths than raw bytes.
    fn token_soup_never_panics(seed in 0u64..1_000_000, len in 0usize..80) {
        const TOKENS: [&str; 14] = [
            "{", "}", "[", "]", ",", ":", "\"", "\\u12", "null", "true",
            "-1e999", "0.5", "\"ts\"", " ",
        ];
        let mut rng = Rng::seed_from_u64(seed);
        let input: String = (0..len)
            .map(|_| TOKENS[rng.gen_range(0usize..TOKENS.len())])
            .collect();
        exercise(&input);
        prop_assert!(true);
    }
}

#[test]
fn deeply_nested_input_is_rejected_not_overflowed() {
    // The regression that motivated the depth bound: a few kilobytes of
    // '[' used to overflow the stack (abort, not Err).
    for pattern in ["[", "{\"x\":", "[{\"y\":["] {
        let deep = pattern.repeat(30_000);
        assert!(JsonValue::parse(&deep).is_err());
        assert!(validate_chrome_trace(&deep).is_err());
    }
}

#[test]
fn every_generated_trace_is_actually_valid() {
    // The mutation property is only meaningful if the pre-mutation
    // documents pass validation.
    for seed in 0..10 {
        let doc = valid_trace_json(seed);
        validate_chrome_trace(&doc).expect("generated trace must validate");
    }
}
