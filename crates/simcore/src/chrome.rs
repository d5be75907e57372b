//! Chrome trace-event JSON export and validation.
//!
//! [`export`] renders any [`Trace`] as a Chrome trace-event JSON document
//! (the `chrome://tracing` / Perfetto "JSON Array with metadata" flavor):
//! one complete (`"ph": "X"`) event per task record on a per-resource
//! track, plus `thread_name` metadata events naming each track. Timestamps
//! are microseconds (the trace-event wire unit) with sub-microsecond
//! precision preserved as fractions.
//!
//! Because the workspace's dependency policy forbids external crates, this
//! module also carries a minimal recursive-descent JSON parser
//! ([`JsonValue::parse`]) and a structural validator
//! ([`validate_chrome_trace`]) so tests and the CI smoke run can prove an
//! exported document round-trips without serde.

use std::collections::BTreeMap;

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
pub fn export<T>(
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
        events.push(JsonValue::Obj(vec![
            ("name".into(), JsonValue::Str("thread_name".into())),
            ("ph".into(), JsonValue::Str("M".into())),
            ("pid".into(), JsonValue::Num(0.0)),
            ("tid".into(), JsonValue::Num(rid.0 as f64)),
            (
                "args".into(),
                JsonValue::Obj(vec![("name".into(), JsonValue::Str(name))]),
            ),
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
        events.push(JsonValue::Obj(vec![
            ("name".into(), JsonValue::Str(rec.label.clone())),
            ("cat".into(), JsonValue::Str(cat_of(rec))),
            ("ph".into(), JsonValue::Str("X".into())),
            (
                "ts".into(),
                JsonValue::Num(rec.start.as_nanos() as f64 / 1e3),
            ),
            (
                "dur".into(),
                JsonValue::Num(rec.span().as_nanos() as f64 / 1e3),
            ),
            ("pid".into(), JsonValue::Num(0.0)),
            ("tid".into(), JsonValue::Num(rec.resource.0 as f64)),
            ("args".into(), JsonValue::Obj(args)),
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
            events.push(JsonValue::Obj(vec![
                ("name".into(), JsonValue::Str("thread_name".into())),
                ("ph".into(), JsonValue::Str("M".into())),
                ("pid".into(), JsonValue::Num(0.0)),
                ("tid".into(), JsonValue::Num((base + k) as f64)),
                (
                    "args".into(),
                    JsonValue::Obj(vec![("name".into(), JsonValue::Str(name.to_string()))]),
                ),
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
            events.push(JsonValue::Obj(vec![
                ("name".into(), JsonValue::Str(ov.name.clone())),
                ("cat".into(), JsonValue::Str(ov.cat.clone())),
                ("ph".into(), JsonValue::Str("X".into())),
                (
                    "ts".into(),
                    JsonValue::Num(ov.start.as_nanos() as f64 / 1e3),
                ),
                ("dur".into(), JsonValue::Num(ov.dur.as_nanos() as f64 / 1e3)),
                ("pid".into(), JsonValue::Num(0.0)),
                ("tid".into(), JsonValue::Num(tid as f64)),
                ("args".into(), JsonValue::Obj(args)),
            ]));
        }
    }

    JsonValue::Obj(vec![
        ("displayTimeUnit".into(), JsonValue::Str("ms".into())),
        ("traceEvents".into(), JsonValue::Arr(events)),
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

/// A parsed JSON value (minimal, std-only).
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object (insertion-ordered pairs; duplicate keys kept as-is).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Parses a complete JSON document (rejects trailing garbage).
    pub fn parse(input: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(v) => {
                if !v.is_finite() {
                    out.push_str("null");
                } else if v.fract() == 0.0 && v.abs() < 1e15 {
                    let _ = write!(out, "{}", *v as i64);
                } else {
                    let _ = write!(out, "{v}");
                }
            }
            JsonValue::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    JsonValue::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

/// Containers deeper than this are rejected rather than recursed into:
/// `value`/`array`/`object` are mutually recursive, so without a bound a
/// short input like `"[".repeat(100_000)` would overflow the stack. Real
/// trace documents nest 4 levels.
const MAX_DEPTH: usize = 128;

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn nested(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        if self.depth >= MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            // Surrogate pairs are not needed for the BMP
                            // labels this codebase emits; map lone
                            // surrogates to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = &self.bytes[self.pos..];
                    // SAFETY: the input is a &str and `pos` only ever
                    // advances past whole scalars, so `rest` is UTF-8.
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "bad number")?;
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::TaskId;
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
        let v = JsonValue::parse("\"μLayer\"").unwrap();
        assert_eq!(v.as_str(), Some("μLayer"));
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
        let json = export(
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
        let json = export(&t, &[], |_| "t".into(), |_| Vec::new(), &[]);
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
        let json = export(&t, &[], |_| "t".into(), |_| Vec::new(), &overlays);
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
