//! Printing: the table a person reads, the full record of a run as one
//! JSON object, and the result line the driver parses.

use std::fmt::Write as _;

use crate::harness::RunOutput;
use crate::metrics::{self, MetricDef};

/// JSON string literal of `s`.
fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name":{"value":v,"unit":"u"},...}`, every digit of every value kept.
/// Refuses a reading that is not a finite number.
fn metrics_json(rows: &[(&MetricDef, f64)], with_domain: bool) -> Result<String, String> {
    let mut out = String::from("{");
    for (i, (def, value)) in rows.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("{} is not a finite number: {value}", def.name));
        }
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{}:{{\"value\":{value},\"unit\":{}",
            quoted(def.name),
            quoted(def.unit)
        );
        if with_domain {
            let _ = write!(out, ",\"domain\":{}", quoted(def.domain.label()));
        }
        out.push('}');
    }
    out.push('}');
    Ok(out)
}

/// Readings paired with their catalogue entries.
type Rows = Vec<(&'static MetricDef, f64)>;

/// The rows of `out`: all seven end-to-end metrics, then (traced) every
/// per-layer one.
fn rows(out: &RunOutput) -> (Rows, Rows) {
    let e2e = out.end_to_end.filled(metrics::END_TO_END.iter());
    let layers = out
        .per_layer
        .as_ref()
        .map_or_else(Vec::new, |r| r.filled(metrics::PER_LAYER.iter()));
    (e2e, layers)
}

/// The table: every metric the workload reported, by name, with its value,
/// unit and time domain (layers it never calls read 0 in the JSON lines and
/// are left out here).
pub fn table(out: &RunOutput) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== {}  seed {}  {} timed ops (+{} traced) after {} warm-up ops",
        out.workload, out.seed, out.timed_ops, out.traced_ops, out.warmup_ops
    );
    let _ = writeln!(
        s,
        "   host: {} cores, kernel path {} -> {}, cpu features [{}]",
        out.host.parallelism,
        out.host.kernel_path_requested,
        out.host.kernel_path,
        out.host.cpu_features
    );
    let (e2e, layers) = rows(out);
    let mut row = |def: &MetricDef, value: f64, note: &str| {
        let _ = writeln!(
            s,
            "   {:<42} {:>16.6} {:<7} {:<9} {}",
            def.name,
            value,
            def.unit,
            def.domain.label(),
            note
        );
    };
    for (def, value) in e2e {
        let note = match def.name {
            "op_ms_p50" => format!("{} samples", out.op_samples),
            "op_ms_p90" => format!(
                "{} samples, read at q = {:.3}",
                out.op_samples, out.tail_quantile
            ),
            "fail_frac" => format!(
                "{} failed of {} attempted",
                out.tally.failed, out.tally.attempted
            ),
            _ => String::new(),
        };
        row(def, value, &note);
    }
    let reported = |def: &MetricDef| {
        out.per_layer
            .as_ref()
            .is_some_and(|r| r.get(def.name).is_some())
    };
    for (def, value) in layers.into_iter().filter(|(def, _)| reported(def)) {
        row(def, value, "");
    }
    if let Some(d) = out.sim_digest {
        let _ = writeln!(s, "   sim_digest {d:#018x}");
    }
    for p in &out.problems {
        let _ = writeln!(s, "   PROBLEM: {p}");
    }
    s
}

/// The full record of a run as one JSON object: host, seed, op counts,
/// every metric with unit and domain, the simulated digest.
pub fn record_json(out: &RunOutput) -> Result<String, String> {
    let (e2e, layers) = rows(out);
    let problems: Vec<String> = out.problems.iter().map(|p| quoted(p)).collect();
    let mut s = String::from("{");
    let _ = write!(
        s,
        "\"workload\":{},\"seed\":{},\"timed_ops\":{},\"traced_ops\":{},\"warmup_ops\":{},",
        quoted(out.workload),
        out.seed,
        out.timed_ops,
        out.traced_ops,
        out.warmup_ops
    );
    let _ = write!(
        s,
        "\"host_parallelism\":{},\"kernel_path_requested\":{},\"kernel_path\":{},\"cpu_features\":{},",
        out.host.parallelism,
        quoted(&out.host.kernel_path_requested),
        quoted(&out.host.kernel_path),
        quoted(&out.host.cpu_features)
    );
    let _ = write!(
        s,
        "\"op_samples\":{},\"tail_quantile\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"problems\":[{}],",
        out.op_samples,
        out.tail_quantile,
        out.correct(),
        out.tally.attempted,
        out.tally.failed,
        problems.join(",")
    );
    if let Some(d) = out.sim_digest {
        let _ = write!(s, "\"sim_digest\":\"{d:#018x}\",");
    }
    let _ = write!(s, "\"end_to_end\":{}", metrics_json(&e2e, true)?);
    if out.per_layer.is_some() {
        let _ = write!(s, ",\"per_layer\":{}", metrics_json(&layers, true)?);
    }
    s.push('}');
    Ok(s)
}

/// The result line of the benchmark contract: exactly `correct`,
/// `attempted`, `failed` and `metrics`, the metrics being the
/// `end_to_end` list of `BENCHMARK.json` for an untraced run and its
/// `per_layer` list for a traced one.
pub fn result_line(out: &RunOutput) -> Result<String, String> {
    let rows = match &out.per_layer {
        None => out.end_to_end.filled(metrics::contract_end_to_end()),
        Some(r) => r.filled(metrics::contract_per_layer()),
    };
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.correct(),
        out.tally.attempted,
        out.tally.failed,
        metrics_json(&rows, false)?
    ))
}
