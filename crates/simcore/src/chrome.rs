//! Chrome trace-event JSON export and validation.
//!
//! [`export_chrome_trace`] renders any [`Trace`] as a Chrome trace-event
//! JSON document (the `chrome://tracing` / Perfetto "JSON Array with
//! metadata" flavor): one complete (`"ph": "X"`) event per task record
//! on a per-resource track, plus `thread_name` metadata events naming
//! each track. Timestamps are microseconds (the trace-event wire unit)
//! with sub-microsecond precision preserved as fractions.
//!
//! Because the workspace's dependency policy forbids external crates, the
//! document is built and re-read with the crate's own JSON tree
//! ([`JsonValue`], a minimal recursive-descent parser), and
//! [`validate_chrome_trace`] checks its structure, so tests and the CI
//! smoke run can prove an exported document round-trips without serde.

use std::collections::BTreeMap;

use crate::json::JsonValue;
use crate::resource::ResourceId;
use crate::trace::{TaskRecord, Trace};

/// An argument value attached to an exported trace event.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceArg {
    /// A numeric argument (counts, bytes, ids).
    Num(f64),
    /// A string argument (class names, labels).
    Str(String),
}

impl TraceArg {
    fn to_json(&self) -> JsonValue {
        match self {
            TraceArg::Num(v) => JsonValue::Num(*v),
            TraceArg::Str(s) => JsonValue::Str(s.clone()),
        }
    }
}

/// A synthetic event rendered on its own named track alongside the task
/// records — used for fault windows, failed attempts, and other
/// annotations that are not tasks. Events sharing a `track` value share a
/// `tid`; within one track they must not overlap (the validator enforces
/// per-track time order).
#[derive(Clone, Debug, PartialEq)]
pub struct OverlayEvent {
    /// Track name (becomes `thread_name` metadata); overlay tracks get
    /// `tid`s above every resource track.
    pub track: String,
    /// Event name shown in the viewer.
    pub name: String,
    /// Event category (filterable facet).
    pub cat: String,
    /// Start instant.
    pub start: crate::time::SimTime,
    /// Duration (zero-length events are allowed).
    pub dur: crate::time::SimSpan,
    /// Event arguments.
    pub args: Vec<(String, TraceArg)>,
}

/// Renders `trace` as a Chrome trace-event JSON document.
///
/// `track_names` assigns a human-readable name to each resource track
/// (exported as `thread_name` metadata); resources not listed fall back
/// to `res#N`. `args_of` supplies the per-event `args` object — return an
/// empty vector for no arguments. `cat_of` supplies the event category
/// (shown as a filterable facet in the viewers). `overlays` (possibly
/// empty) are rendered on their own named tracks: one `tid` per distinct
/// track name, numbered above all resource tracks, sorted by start time
/// per track so the exported document stays loadable.
pub fn export_chrome_trace<T>(
    trace: &Trace<T>,
    track_names: &[(ResourceId, String)],
    mut cat_of: impl FnMut(&TaskRecord<T>) -> String,
    mut args_of: impl FnMut(&TaskRecord<T>) -> Vec<(String, TraceArg)>,
    overlays: &[OverlayEvent],
) -> String {
    let names: BTreeMap<ResourceId, &str> = track_names
        .iter()
        .map(|(id, n)| (*id, n.as_str()))
        .collect();
    let mut events: Vec<JsonValue> = Vec::with_capacity(trace.records().len() + names.len());

    // Track-name metadata first: one `thread_name` event per resource.
    let mut tracks: Vec<ResourceId> = trace.records().iter().map(|r| r.resource).collect();
    tracks.sort();
    tracks.dedup();
    for rid in &tracks {
        let name = names
            .get(rid)
            .map(|s| s.to_string())
            .unwrap_or_else(|| format!("res#{}", rid.0));
        events.push(JsonValue::obj(vec![
            ("name", JsonValue::s("thread_name")),
            ("ph", JsonValue::s("M")),
            ("pid", JsonValue::n(0.0)),
            ("tid", JsonValue::n(rid.0 as f64)),
            ("args", JsonValue::obj(vec![("name", JsonValue::s(name))])),
        ]));
    }

    // One complete event per task record. Records are kept in task-id
    // order in the trace; viewers expect per-track time order, so sort by
    // (track, start) — stable, so simultaneous events keep id order.
    let mut ordered: Vec<&TaskRecord<T>> = trace.records().iter().collect();
    ordered.sort_by_key(|r| (r.resource, r.start, r.end));
    for rec in ordered {
        let args: Vec<(String, JsonValue)> = args_of(rec)
            .into_iter()
            .map(|(k, v)| (k, v.to_json()))
            .collect();
        events.push(JsonValue::obj(vec![
            ("name", JsonValue::s(rec.label.clone())),
            ("cat", JsonValue::s(cat_of(rec))),
            ("ph", JsonValue::s("X")),
            ("ts", JsonValue::n(rec.start.as_nanos() as f64 / 1e3)),
            ("dur", JsonValue::n(rec.span().as_nanos() as f64 / 1e3)),
            ("pid", JsonValue::n(0.0)),
            ("tid", JsonValue::n(rec.resource.0 as f64)),
            ("args", JsonValue::Obj(args)),
        ]));
    }

    // Overlay tracks: tids start above every resource track so they never
    // collide, one per distinct track name in first-appearance order.
    if !overlays.is_empty() {
        let base = tracks.iter().map(|r| r.0 + 1).max().unwrap_or(0);
        let mut overlay_tracks: Vec<&str> = Vec::new();
        for ov in overlays {
            if !overlay_tracks.contains(&ov.track.as_str()) {
                overlay_tracks.push(&ov.track);
            }
        }
        for (k, name) in overlay_tracks.iter().enumerate() {
            events.push(JsonValue::obj(vec![
                ("name", JsonValue::s("thread_name")),
                ("ph", JsonValue::s("M")),
                ("pid", JsonValue::n(0.0)),
                ("tid", JsonValue::n((base + k) as f64)),
                ("args", JsonValue::obj(vec![("name", JsonValue::s(*name))])),
            ]));
        }
        let mut ordered: Vec<&OverlayEvent> = overlays.iter().collect();
        ordered.sort_by_key(|ov| {
            (
                overlay_tracks
                    .iter()
                    .position(|t| *t == ov.track.as_str())
                    .unwrap_or(0),
                ov.start,
            )
        });
        for ov in ordered {
            let tid = base
                + overlay_tracks
                    .iter()
                    .position(|t| *t == ov.track.as_str())
                    .unwrap_or(0);
            let args: Vec<(String, JsonValue)> = ov
                .args
                .iter()
                .map(|(k, v)| (k.clone(), v.to_json()))
                .collect();
            events.push(JsonValue::obj(vec![
                ("name", JsonValue::s(ov.name.clone())),
                ("cat", JsonValue::s(ov.cat.clone())),
                ("ph", JsonValue::s("X")),
                ("ts", JsonValue::n(ov.start.as_nanos() as f64 / 1e3)),
                ("dur", JsonValue::n(ov.dur.as_nanos() as f64 / 1e3)),
                ("pid", JsonValue::n(0.0)),
                ("tid", JsonValue::n(tid as f64)),
                ("args", JsonValue::Obj(args)),
            ]));
        }
    }

    JsonValue::obj(vec![
        ("displayTimeUnit", JsonValue::s("ms")),
        ("traceEvents", JsonValue::Arr(events)),
    ])
    .render()
}

/// Summary of a structurally-validated Chrome trace document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChromeTraceSummary {
    /// Number of complete (`"ph": "X"`) events.
    pub complete_events: usize,
    /// Number of metadata (`"ph": "M"`) events.
    pub metadata_events: usize,
    /// Number of distinct `tid` tracks carrying complete events.
    pub tracks: usize,
}

/// Validates that `json` is a loadable Chrome trace-event document:
/// parses as JSON, has a `traceEvents` array, every event is an object
/// with `ph`, complete events carry numeric `ts`/`dur`/`tid` with
/// non-negative duration, and within each track events are sorted by
/// `ts` and *properly nested* (the trace-event contract for complete
/// events on one thread): an event either starts at/after the previous
/// one's end, or lies entirely inside it — zero-duration markers inside
/// a task's span (e.g. a skipped fallback) nest fine, while partial
/// overlaps are structural corruption and rejected.
pub fn validate_chrome_trace(json: &str) -> Result<ChromeTraceSummary, String> {
    let doc = JsonValue::parse(json)?;
    let events = match doc.get("traceEvents") {
        Some(JsonValue::Arr(events)) => events,
        _ => return Err("missing traceEvents array".into()),
    };
    let mut summary = ChromeTraceSummary {
        complete_events: 0,
        metadata_events: 0,
        tracks: 0,
    };
    let mut open_ends_per_tid: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        match ph {
            "M" => summary.metadata_events += 1,
            "X" => {
                let num = |k: &str| -> Result<f64, String> {
                    ev.get(k)
                        .and_then(JsonValue::as_num)
                        .ok_or_else(|| format!("event {i}: missing numeric {k}"))
                };
                let (ts, dur, tid) = (num("ts")?, num("dur")?, num("tid")?);
                if dur < 0.0 {
                    return Err(format!("event {i}: negative dur"));
                }
                // Timestamps are integer nanoseconds rendered as f64
                // microseconds, so a real overlap is >= 1e-3 us; anything
                // smaller is conversion noise, not an overlap.
                let stack = open_ends_per_tid.entry(tid as u64).or_default();
                while stack.last().is_some_and(|&end| ts >= end - 1e-4) {
                    stack.pop();
                }
                if let Some(&outer) = stack.last() {
                    if ts + dur > outer + 1e-4 {
                        return Err(format!(
                            "event {i}: [{ts}, {}] partially overlaps an event \
                             ending at {outer} on tid {tid}",
                            ts + dur
                        ));
                    }
                }
                stack.push(ts + dur);
                summary.complete_events += 1;
            }
            other => return Err(format!("event {i}: unsupported ph {other:?}")),
        }
    }
    summary.tracks = open_ends_per_tid.len();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::TaskId;
    use crate::json::MAX_DEPTH;
    use crate::time::SimTime;

    fn rec(id: usize, res: usize, start: u64, end: u64) -> TaskRecord<u32> {
        TaskRecord {
            id: TaskId(id),
            label: format!("t{id}"),
            resource: ResourceId(res),
            start: SimTime::from_nanos(start),
            end: SimTime::from_nanos(end),
            payload: id as u32,
        }
    }

    #[test]
    fn parser_round_trips() {
        let src = r#"{"a":[1,2.5,-3e2],"b":{"c":"x\ny","d":null},"e":true}"#;
        let v = JsonValue::parse(src).unwrap();
        assert_eq!(v.get("e"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        let rendered = v.render();
        assert_eq!(JsonValue::parse(&rendered).unwrap(), v);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("123 x").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
        assert!(JsonValue::parse("nul").is_err());
    }

    #[test]
    fn parser_rejects_pathological_nesting_without_overflowing() {
        // Regression: `value`/`array`/`object` recurse per nesting level,
        // so unbounded depth on a tiny input overflowed the stack.
        for open in ["[", "{\"k\":"] {
            let deep = open.repeat(50_000);
            let err = JsonValue::parse(&deep).unwrap_err();
            assert!(err.contains("nesting"), "unexpected error: {err}");
        }
        // Nesting at the bound still parses.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(JsonValue::parse(&ok).is_ok());
        let too_deep = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(JsonValue::parse(&too_deep).is_err());
    }

    #[test]
    fn parser_handles_escapes_and_unicode() {
        let v = JsonValue::parse(r#""μLayer \"quoted\" \\ \t""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{3bc}Layer \"quoted\" \\ \t"));
        // One scalar of each UTF-8 width, and multi-byte scalars
        // directly followed by an escape.
        for s in ["μLayer", "€ 5", "𝄞 clef", "μ€𝄞"] {
            let v = JsonValue::parse(&format!("\"{s}\"")).unwrap();
            assert_eq!(v.as_str(), Some(s));
        }
        let v = JsonValue::parse(r#""€\n𝄞\"μ\\""#).unwrap();
        assert_eq!(v.as_str(), Some("€\n𝄞\"μ\\"));
        let v = JsonValue::parse(r#""𝄞\u20ac""#).unwrap();
        assert_eq!(v.as_str(), Some("𝄞€"));
    }

    #[test]
    fn export_emits_one_complete_event_per_record() {
        let t = Trace::new(vec![
            rec(0, 0, 0, 100),
            rec(1, 1, 50, 250),
            rec(2, 0, 100, 150),
        ]);
        let names = vec![
            (ResourceId(0), "cpu".to_string()),
            (ResourceId(1), "gpu".to_string()),
        ];
        let json = export_chrome_trace(
            &t,
            &names,
            |_| "task".into(),
            |r| vec![("payload".into(), TraceArg::Num(r.payload as f64))],
            &[],
        );
        let summary = validate_chrome_trace(&json).unwrap();
        assert_eq!(summary.complete_events, 3);
        assert_eq!(summary.metadata_events, 2);
        assert_eq!(summary.tracks, 2);
        // Track names survive the round trip.
        let doc = JsonValue::parse(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(events.iter().any(|e| {
            e.get("ph").and_then(JsonValue::as_str) == Some("M")
                && e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(JsonValue::as_str)
                    == Some("gpu")
        }));
    }

    #[test]
    fn export_preserves_sub_microsecond_times() {
        let t = Trace::new(vec![rec(0, 0, 1_500, 2_250)]);
        let json = export_chrome_trace(&t, &[], |_| "t".into(), |_| Vec::new(), &[]);
        let doc = JsonValue::parse(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let ev = events
            .iter()
            .find(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .unwrap();
        assert_eq!(ev.get("ts").unwrap().as_num(), Some(1.5));
        assert_eq!(ev.get("dur").unwrap().as_num(), Some(0.75));
    }

    #[test]
    fn validator_flags_overlapping_track_events() {
        let json = r#"{"traceEvents":[
            {"name":"a","ph":"X","ts":0,"dur":10,"pid":0,"tid":0},
            {"name":"b","ph":"X","ts":5,"dur":10,"pid":0,"tid":0}
        ]}"#;
        assert!(validate_chrome_trace(json)
            .unwrap_err()
            .contains("overlaps"));
        // Same layout on different tracks is fine.
        let json = r#"{"traceEvents":[
            {"name":"a","ph":"X","ts":0,"dur":10,"pid":0,"tid":0},
            {"name":"b","ph":"X","ts":5,"dur":10,"pid":0,"tid":1}
        ]}"#;
        assert!(validate_chrome_trace(json).is_ok());
    }

    #[test]
    fn overlay_events_get_their_own_sorted_tracks() {
        use crate::time::SimSpan;
        let t = Trace::new(vec![rec(0, 0, 0, 100), rec(1, 1, 0, 50)]);
        let overlays = vec![
            OverlayEvent {
                track: "faults".into(),
                name: "throttle x0.5".into(),
                cat: "fault".into(),
                start: SimTime::from_nanos(2_000),
                dur: SimSpan::from_nanos(1_000),
                args: vec![("factor".into(), TraceArg::Num(0.5))],
            },
            // Out of order on purpose: the exporter must sort per track.
            OverlayEvent {
                track: "faults".into(),
                name: "retry".into(),
                cat: "fault".into(),
                start: SimTime::from_nanos(500),
                dur: SimSpan::ZERO,
                args: Vec::new(),
            },
            OverlayEvent {
                track: "faults:gpu".into(),
                name: "lost".into(),
                cat: "fault".into(),
                start: SimTime::from_nanos(100),
                dur: SimSpan::from_nanos(10),
                args: Vec::new(),
            },
        ];
        let json = export_chrome_trace(&t, &[], |_| "t".into(), |_| Vec::new(), &overlays);
        let summary = validate_chrome_trace(&json).unwrap();
        assert_eq!(summary.complete_events, 5);
        // 2 resource tracks + 2 overlay tracks.
        assert_eq!(summary.tracks, 4);
        assert_eq!(summary.metadata_events, 4);
        // Overlay tids sit above the resource tids.
        let doc = JsonValue::parse(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let overlay_tid = events
            .iter()
            .find(|e| e.get("name").and_then(JsonValue::as_str) == Some("retry"))
            .and_then(|e| e.get("tid"))
            .and_then(JsonValue::as_num)
            .unwrap();
        assert!(overlay_tid >= 2.0);
    }

    #[test]
    fn validator_rejects_non_trace_documents() {
        assert!(validate_chrome_trace("[]").is_err());
        assert!(validate_chrome_trace(r#"{"traceEvents":7}"#).is_err());
        assert!(validate_chrome_trace(r#"{"traceEvents":[{"name":"x"}]}"#).is_err());
    }
}
