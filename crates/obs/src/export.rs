//! Exporters for a drained [`Telemetry`] snapshot.
//!
//! Three formats, all hand-rolled (no serde in this offline workspace):
//!
//! - [`to_jsonl`] — one JSON object per line; the machine-readable stream
//!   validated by the CI schema check (see DESIGN.md §6).
//! - [`to_chrome_trace`] — Chrome `trace_event` JSON (`{"traceEvents":
//!   [...]}`), loadable in `chrome://tracing` or <https://ui.perfetto.dev>.
//! - [`summary`] — a human-readable table of counters and histogram
//!   percentiles for terminal output.
//!
//! All writers append into one caller-provided (or internally reused)
//! `String` buffer via `fmt::Write` — the export path performs no
//! per-field allocations, so the flight recorder can serialize a crash's
//! event tail without churning the allocator.

use crate::hist::LogHistogram;
use crate::{Event, EventKind, Telemetry, Value};
use std::fmt::Write as _;

/// Escape a string for inclusion inside JSON double quotes, appending to
/// `out`. The zero-allocation workhorse behind every exporter.
pub fn json_escape_into(out: &mut String, s: &str) {
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
}

/// Escape a string for inclusion inside JSON double quotes, returning a
/// fresh `String`. Convenience wrapper over [`json_escape_into`] for
/// one-off callers; bulk exporters use the buffered form.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    json_escape_into(&mut out, s);
    out
}

/// Append a [`Value`] as a JSON value. Non-finite floats become `null`
/// (JSON has no representation for them).
fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::U64(x) => {
            let _ = write!(out, "{x}");
        }
        Value::I64(x) => {
            let _ = write!(out, "{x}");
        }
        Value::F64(x) => write_f64(out, *x),
        Value::Bool(x) => out.push_str(if *x { "true" } else { "false" }),
        Value::Str(s) => {
            out.push('"');
            json_escape_into(out, s);
            out.push('"');
        }
    }
}

/// Append an `f64` as JSON: `null` for non-finite values.
fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

fn write_fields(out: &mut String, fields: &[(&'static str, Value)]) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        json_escape_into(out, k);
        out.push_str("\":");
        write_value(out, v);
    }
    out.push('}');
}

/// Append one event as a JSONL line (no trailing newline) — the
/// `"type":"event"` schema of [`to_jsonl`]. Shared with the flight
/// recorder so its dumps serialize identically to the batch exporter.
pub(crate) fn write_jsonl_event(out: &mut String, e: &Event) {
    let kind = match e.kind {
        EventKind::Span => "span",
        EventKind::Instant => "instant",
    };
    out.push_str("{\"type\":\"event\",\"name\":\"");
    json_escape_into(out, e.name);
    out.push_str("\",\"cat\":\"");
    json_escape_into(out, e.cat);
    let _ = write!(
        out,
        "\",\"kind\":\"{kind}\",\"ts_us\":{},\"dur_us\":{},\"tid\":{},\"fields\":",
        e.ts_us, e.dur_us, e.tid
    );
    write_fields(out, &e.fields);
    out.push('}');
}

/// Append one histogram as a JSONL line (no trailing newline): summary
/// stats (`count`/`sum`/`min`/`max`/`p50`/`p90`/`p99`, non-finite stats
/// rendered as `null` — an empty histogram therefore renders `null`
/// quantiles rather than panicking) plus the full bucket array as
/// `"buckets":[[lo,hi,count],...]`, so consumers can compare whole
/// distributions, not just three quantiles.
fn write_jsonl_hist(out: &mut String, name: &str, h: &LogHistogram) {
    out.push_str("{\"type\":\"hist\",\"name\":\"");
    json_escape_into(out, name);
    let _ = write!(out, "\",\"count\":{},\"sum\":", h.count());
    write_f64(out, h.sum());
    out.push_str(",\"min\":");
    write_f64(out, h.min());
    out.push_str(",\"max\":");
    write_f64(out, h.max());
    out.push_str(",\"p50\":");
    write_f64(out, h.quantile(0.50));
    out.push_str(",\"p90\":");
    write_f64(out, h.quantile(0.90));
    out.push_str(",\"p99\":");
    write_f64(out, h.quantile(0.99));
    out.push_str(",\"buckets\":[");
    for (i, (lo, hi, c)) in h.buckets().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        write_f64(out, lo);
        out.push(',');
        write_f64(out, hi);
        let _ = write!(out, ",{c}]");
    }
    out.push_str("]}");
}

/// Export as JSONL: one JSON object per line. Event lines have
/// `"type":"event"`; counter lines `"type":"counter"` with `name`/`value`;
/// histogram lines `"type":"hist"` with summary stats (`count`, `sum`,
/// `min`, `max`, `p50`, `p90`, `p99`) and the full bucket array as
/// `"buckets":[[lo,hi,count],...]`.
pub fn to_jsonl(t: &Telemetry) -> String {
    let mut out = String::new();
    for e in &t.events {
        write_jsonl_event(&mut out, e);
        out.push('\n');
    }
    for (name, v) in &t.counters {
        out.push_str("{\"type\":\"counter\",\"name\":\"");
        json_escape_into(&mut out, name);
        let _ = writeln!(out, "\",\"value\":{v}}}");
    }
    for (name, h) in &t.hists {
        write_jsonl_hist(&mut out, name, h);
        out.push('\n');
    }
    out
}

/// Export as Chrome `trace_event` JSON. Spans become `"ph":"X"` (complete)
/// events, instants `"ph":"i"` with thread scope; fields ride in `args`.
/// The result loads directly in `chrome://tracing` and Perfetto.
pub fn to_chrome_trace(t: &Telemetry) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for e in &t.events {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("{\"name\":\"");
        json_escape_into(&mut out, e.name);
        out.push_str("\",\"cat\":\"");
        json_escape_into(&mut out, e.cat);
        match e.kind {
            EventKind::Span => {
                let _ = write!(
                    out,
                    "\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":",
                    e.ts_us, e.dur_us, e.tid
                );
            }
            EventKind::Instant => {
                let _ = write!(
                    out,
                    "\",\"ph\":\"i\",\"ts\":{},\"s\":\"t\",\"pid\":1,\"tid\":{},\"args\":",
                    e.ts_us, e.tid
                );
            }
        }
        write_fields(&mut out, &e.fields);
        out.push('}');
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

fn fmt_stat(v: f64) -> String {
    if !v.is_finite() {
        "-".to_string()
    } else if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1e6 || v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else {
        format!("{v:.3}")
    }
}

/// Human-readable summary: counters, then histogram percentiles, then a
/// per-span-name aggregate (count + total/mean duration).
pub fn summary(t: &Telemetry) -> String {
    let mut out = String::new();
    if !t.counters.is_empty() {
        out.push_str("counters:\n");
        for (name, v) in &t.counters {
            let _ = writeln!(out, "  {name:<40} {v}");
        }
    }
    if !t.hists.is_empty() {
        let _ = writeln!(
            out,
            "histograms:\n  {:<40} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "name", "count", "mean", "p50", "p99", "max"
        );
        for (name, h) in &t.hists {
            let _ = writeln!(
                out,
                "  {:<40} {:>8} {:>10} {:>10} {:>10} {:>10}",
                name,
                h.count(),
                fmt_stat(h.mean()),
                fmt_stat(h.quantile(0.50)),
                fmt_stat(h.quantile(0.99)),
                fmt_stat(h.max()),
            );
        }
    }
    // Aggregate spans by name.
    let mut agg: std::collections::BTreeMap<&'static str, (u64, u64)> =
        std::collections::BTreeMap::new();
    for e in &t.events {
        if e.kind == EventKind::Span {
            let s = agg.entry(e.name).or_insert((0, 0));
            s.0 += 1;
            s.1 += e.dur_us;
        }
    }
    if !agg.is_empty() {
        let _ = writeln!(
            out,
            "spans:\n  {:<40} {:>8} {:>12} {:>12}",
            "name", "count", "total_ms", "mean_ms"
        );
        for (name, (n, total_us)) in &agg {
            let _ = writeln!(
                out,
                "  {:<40} {:>8} {:>12.3} {:>12.3}",
                name,
                n,
                *total_us as f64 / 1e3,
                *total_us as f64 / 1e3 / *n as f64,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite regression: exporting a telemetry snapshot with an empty
    /// histogram (count 0, all stats NaN) must render `null` quantiles, an
    /// empty bucket array, and never panic.
    #[test]
    fn empty_histogram_exports_null_quantiles() {
        let mut t = Telemetry::default();
        t.hists.insert("t.empty", LogHistogram::new());
        let jsonl = to_jsonl(&t);
        let line = jsonl.lines().next().expect("one hist line");
        assert!(line.contains("\"count\":0"), "{line}");
        assert!(line.contains("\"p50\":null"), "{line}");
        assert!(line.contains("\"p99\":null"), "{line}");
        assert!(line.contains("\"min\":null"), "{line}");
        assert!(line.contains("\"buckets\":[]"), "{line}");
        // Fully empty telemetry: all exporters yield valid (empty) output.
        let empty = Telemetry::default();
        assert_eq!(to_jsonl(&empty), "");
        assert!(to_chrome_trace(&empty).starts_with("{\"traceEvents\":[]"));
        assert_eq!(summary(&empty), "");
    }

    #[test]
    fn hist_line_carries_quantiles_and_buckets() {
        let mut h = LogHistogram::new();
        for i in 1..=100 {
            h.record(i as f64);
        }
        let mut t = Telemetry::default();
        t.hists.insert("t.h", h);
        let line = to_jsonl(&t);
        for key in ["\"count\":100", "\"p50\":", "\"p90\":", "\"p99\":", "\"buckets\":[["] {
            assert!(line.contains(key), "{key}");
        }
        // The bucket array carries the full mass.
        let mass: u64 = t.hists["t.h"].buckets().map(|(_, _, c)| c).sum();
        assert_eq!(mass, 100);
    }
}
