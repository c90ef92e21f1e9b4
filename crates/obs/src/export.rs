//! Serialization of observability data: JSONL event logs, Chrome
//! trace-event files, the shared metrics-snapshot JSON, and Prometheus
//! text exposition (format 0.0.4) for the serving tier's `/metrics`.
//!
//! Field names in all formats are a **stable schema** — the golden-schema
//! integration tests (`tests/tests/observability.rs`,
//! `tests/tests/telemetry.rs`) pin them, and downstream tooling
//! (Perfetto, Prometheus scrapers, anything reading `results/profile.json`)
//! parses them. Change them only with the tests in the same commit.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::Snapshot;
use crate::span::{SpanEvent, SpanPhase};
use crate::streamhist::StreamHist;

/// Escapes `s` as a JSON string literal (with quotes).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Formats an `f64` as a JSON number: integral values print without a
/// fractional part (so byte counts stay grep-ably integral), non-finite
/// values — which JSON cannot carry — print as `null`.
pub fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    if v.fract() == 0.0 && v.abs() < 9.007_199_254_740_992e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// One span event per line:
/// `{"name":"batch","ph":"B","t_ns":12345,"depth":1}`.
pub fn events_to_jsonl(events: &[SpanEvent]) -> String {
    let mut out = String::new();
    for e in events {
        let _ = writeln!(
            out,
            "{{\"name\":{},\"ph\":{},\"t_ns\":{},\"depth\":{}}}",
            json_string(&e.name),
            json_string(e.phase.chrome_ph()),
            e.t_ns,
            e.depth,
        );
    }
    out
}

/// Chrome trace-event JSON (the `chrome://tracing` / Perfetto format).
///
/// `threads` pairs a display name with that thread's event stream; each
/// gets its own `tid` plus a `thread_name` metadata record so Perfetto
/// shows labeled tracks. Timestamps are microseconds (the format's unit),
/// carried as fractional values so nanosecond precision survives.
pub fn chrome_trace(threads: &[(&str, &[SpanEvent])]) -> String {
    let mut items = Vec::new();
    for (tid, (name, events)) in threads.iter().enumerate() {
        items.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":{}}}}}",
            tid + 1,
            json_string(name),
        ));
        for e in *events {
            items.push(format!(
                "{{\"name\":{},\"cat\":\"dgnn\",\"ph\":{},\"ts\":{},\"pid\":1,\"tid\":{}}}",
                json_string(&e.name),
                json_string(e.phase.chrome_ph()),
                json_number(e.t_ns as f64 / 1000.0),
                tid + 1,
            ));
        }
    }
    format!("{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}", items.join(","))
}

/// Serializes a [`Snapshot`] — the code path behind `results/profile.json`
/// (via `profile`).
///
/// `indent` is the number of leading spaces on each emitted line, letting
/// callers nest a snapshot inside a larger document.
pub fn snapshot_to_json(s: &Snapshot, indent: usize) -> String {
    let pad = " ".repeat(indent);
    let field = |out: &mut String, name: &str, body: String, last: bool| {
        let _ = write!(out, "{pad}  \"{name}\": {{{body}}}{}\n", if last { "" } else { "," });
    };
    let mut out = format!("{pad}{{\n");
    let counters = s
        .counters
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_string(k)))
        .collect::<Vec<_>>()
        .join(", ");
    field(&mut out, "counters", counters, false);
    let gauges = s
        .gauges
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_number(*v)))
        .collect::<Vec<_>>()
        .join(", ");
    field(&mut out, "gauges", gauges, false);
    let hists = s
        .histograms
        .iter()
        .map(|(k, h)| {
            format!(
                "{}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}}}",
                json_string(k),
                h.count,
                json_number(h.sum),
                json_number(h.min),
                json_number(h.max),
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    field(&mut out, "histograms", hists, false);
    let ops = s
        .ops
        .iter()
        .map(|(k, o)| {
            format!(
                "{}: {{\"forward\": {{\"calls\": {}, \"total_ns\": {}}}, \
                 \"backward\": {{\"calls\": {}, \"total_ns\": {}}}}}",
                json_string(k),
                o.forward.calls,
                o.forward.total_ns,
                o.backward.calls,
                o.backward.total_ns,
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    field(&mut out, "ops", ops, true);
    let _ = write!(out, "{pad}}}");
    out
}

/// Sums span durations by name: `name -> (span_count, total_ns)`.
///
/// Balanced begin/end pairs are matched by a per-name stack, so nested and
/// repeated spans of the same name both aggregate correctly.
pub fn span_totals(events: &[SpanEvent]) -> BTreeMap<String, (u64, u64)> {
    let mut open: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    let mut totals: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for e in events {
        match e.phase {
            SpanPhase::Begin => open.entry(&e.name).or_default().push(e.t_ns),
            SpanPhase::End => {
                if let Some(t0) = open.get_mut(e.name.as_ref()).and_then(Vec::pop) {
                    let entry = totals.entry(e.name.to_string()).or_insert((0, 0));
                    entry.0 += 1;
                    entry.1 += e.t_ns.saturating_sub(t0);
                }
            }
        }
    }
    totals
}

/// Maps a registry metric name onto the Prometheus charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): `/` and every other invalid character
/// become `_`, and a leading digit gains a `_` prefix. Empty input becomes
/// a single `_`.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if ok {
            out.push(c);
        } else if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a Prometheus label value: backslash, double quote, and newline
/// per the text-exposition rules. (The repo emits only the `le` label,
/// whose values never need escaping — the escaper exists so the format
/// stays correct if labels ever carry free text.)
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Formats a sample value the way Prometheus text exposition expects:
/// `+Inf` / `-Inf` / `NaN` for non-finite values, otherwise the JSON
/// number form (integral values without a fractional part).
fn prom_number(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        json_number(v)
    }
}

/// Renders a snapshot as Prometheus text exposition format 0.0.4.
///
/// * counters → `# TYPE <name> counter` + one sample;
/// * gauges → `# TYPE <name> gauge` + one sample;
/// * histograms with a matching [`StreamHist`] in `stream_hists` → full
///   `# TYPE <name> histogram` series: cumulative `_bucket{le="..."}`
///   samples over the non-empty buckets, the mandatory `le="+Inf"` bucket,
///   then `_sum` and `_count`;
/// * histograms with only a [`crate::HistStat`] aggregate → `# TYPE <name>
///   summary` with `_sum` and `_count` (no quantile series to offer).
///
/// Names pass through [`sanitize_metric_name`]; a trailing newline is
/// always present (scrapers require the final line be terminated).
pub fn prometheus_text(s: &Snapshot, stream_hists: &BTreeMap<String, StreamHist>) -> String {
    let mut out = String::new();
    for (name, v) in &s.counters {
        let n = sanitize_metric_name(name);
        let _ = writeln!(out, "# TYPE {n} counter\n{n} {v}");
    }
    for (name, v) in &s.gauges {
        let n = sanitize_metric_name(name);
        let _ = writeln!(out, "# TYPE {n} gauge\n{n} {}", prom_number(*v));
    }
    for (name, h) in &s.histograms {
        let n = sanitize_metric_name(name);
        match stream_hists.get(name) {
            Some(sh) => {
                let _ = writeln!(out, "# TYPE {n} histogram");
                for (hi, cum) in sh.cumulative_buckets() {
                    let _ = writeln!(out, "{n}_bucket{{le=\"{}\"}} {cum}", prom_number(hi));
                }
                let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", sh.count());
                let _ = writeln!(out, "{n}_sum {}", prom_number(h.sum));
                let _ = writeln!(out, "{n}_count {}", h.count);
            }
            None => {
                let _ = writeln!(out, "# TYPE {n} summary");
                let _ = writeln!(out, "{n}_sum {}", prom_number(h.sum));
                let _ = writeln!(out, "{n}_count {}", h.count);
            }
        }
    }
    out
}

/// One parsed Prometheus sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Metric name (with any `_bucket`/`_sum`/`_count` suffix intact).
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl PromSample {
    /// Value of the named label, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn parse_prom_value(s: &str) -> Option<f64> {
    match s {
        "+Inf" | "Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        s => s.parse::<f64>().ok(),
    }
}

/// Parses Prometheus text exposition back into samples — the validator the
/// integration tests run against a live `/metrics` scrape, and the
/// round-trip oracle for [`prometheus_text`]. Comment (`#`) and blank
/// lines are skipped; any malformed sample line is an error naming the
/// 1-based line number. Optional trailing timestamps are accepted and
/// ignored.
pub fn parse_prometheus_text(text: &str) -> Result<Vec<PromSample>, String> {
    let mut out = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}: {raw}", lineno + 1);
        let (name, rest) = match line.find(|c: char| c == '{' || c.is_ascii_whitespace()) {
            Some(i) => (&line[..i], line[i..].trim_start()),
            None => return Err(err("sample has no value")),
        };
        if !valid_metric_name(name) {
            return Err(err("invalid metric name"));
        }
        let (labels, value_part) = if let Some(body) = rest.strip_prefix('{') {
            let close = body.find('}').ok_or_else(|| err("unterminated label set"))?;
            (parse_labels(&body[..close]).map_err(|e| err(&e))?, body[close + 1..].trim_start())
        } else {
            (Vec::new(), rest)
        };
        let mut parts = value_part.split_ascii_whitespace();
        let value = parts
            .next()
            .and_then(parse_prom_value)
            .ok_or_else(|| err("unparseable sample value"))?;
        if parts.next().is_some_and(|ts| ts.parse::<i64>().is_err()) {
            return Err(err("unparseable timestamp"));
        }
        out.push(PromSample { name: name.to_string(), labels, value });
    }
    Ok(out)
}

/// Parses `k1="v1",k2="v2"` (label-set interior, escapes per
/// [`escape_label_value`]).
fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut chars = body.chars().peekable();
    loop {
        while chars.peek().is_some_and(|c| c.is_ascii_whitespace() || *c == ',') {
            chars.next();
        }
        if chars.peek().is_none() {
            return Ok(labels);
        }
        let mut key = String::new();
        while let Some(c) = chars.next_if(|c| *c != '=') {
            key.push(c);
        }
        let key = key.trim().to_string();
        if !valid_metric_name(&key) {
            return Err(format!("invalid label name {key:?}"));
        }
        if chars.next() != Some('=') || chars.next() != Some('"') {
            return Err("label value must be quoted".to_string());
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    _ => return Err("bad escape in label value".to_string()),
                },
                Some('"') => break,
                Some(c) => value.push(c),
                None => return Err("unterminated label value".to_string()),
            }
        }
        labels.push((key, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HistStat;
    use crate::ops::{OpStat, PhaseStat};
    use std::borrow::Cow;

    fn ev(name: &'static str, phase: SpanPhase, t_ns: u64, depth: u32) -> SpanEvent {
        SpanEvent { name: Cow::Borrowed(name), phase, t_ns, depth }
    }

    #[test]
    fn jsonl_schema_is_stable() {
        let line = events_to_jsonl(&[ev("batch", SpanPhase::Begin, 42, 1)]);
        assert_eq!(line, "{\"name\":\"batch\",\"ph\":\"B\",\"t_ns\":42,\"depth\":1}\n");
    }

    #[test]
    fn chrome_trace_has_required_fields() {
        let events =
            [ev("epoch", SpanPhase::Begin, 1000, 0), ev("epoch", SpanPhase::End, 3500, 0)];
        let t = chrome_trace(&[("DGNN", &events)]);
        assert!(t.starts_with("{\"traceEvents\":["));
        assert!(t.contains("\"ph\":\"B\""));
        assert!(t.contains("\"ph\":\"E\""));
        assert!(t.contains("\"ts\":1"));
        assert!(t.contains("\"ts\":3.5"));
        assert!(t.contains("\"thread_name\""));
        assert!(t.ends_with("],\"displayTimeUnit\":\"ms\"}"));
    }

    #[test]
    fn json_helpers() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_number(3.0), "3");
        assert_eq!(json_number(3.25), "3.25");
        assert_eq!(json_number(f64::NAN), "null");
    }

    #[test]
    fn snapshot_serializes_all_sections() {
        let mut s = Snapshot::default();
        s.counters.insert("grad_nonfinite".into(), 2);
        s.gauges.insert("profile/steps_per_sec".into(), 4096.0);
        s.histograms
            .insert("epoch_mean_loss".into(), HistStat { count: 2, sum: 1.5, min: 0.5, max: 1.0 });
        s.ops.insert(
            "matmul".into(),
            OpStat {
                forward: PhaseStat { calls: 4, total_ns: 100 },
                backward: PhaseStat { calls: 4, total_ns: 220 },
            },
        );
        let json = snapshot_to_json(&s, 2);
        for needle in [
            "\"counters\"",
            "\"gauges\"",
            "\"histograms\"",
            "\"ops\"",
            "\"grad_nonfinite\": 2",
            "\"profile/steps_per_sec\": 4096",
            "\"count\": 2",
            "\"forward\": {\"calls\": 4, \"total_ns\": 100}",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn span_totals_handle_nesting_and_repeats() {
        let events = [
            ev("epoch", SpanPhase::Begin, 0, 0),
            ev("batch", SpanPhase::Begin, 10, 1),
            ev("batch", SpanPhase::End, 30, 1),
            ev("batch", SpanPhase::Begin, 40, 1),
            ev("batch", SpanPhase::End, 100, 1),
            ev("epoch", SpanPhase::End, 110, 0),
        ];
        let t = span_totals(&events);
        assert_eq!(t["batch"], (2, 80));
        assert_eq!(t["epoch"], (1, 110));
    }

    #[test]
    fn metric_name_sanitization() {
        assert_eq!(sanitize_metric_name("serve/latency_ms"), "serve_latency_ms");
        assert_eq!(sanitize_metric_name("a-b.c d"), "a_b_c_d");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name("ok_name:x9"), "ok_name:x9");
        assert_eq!(sanitize_metric_name(""), "_");
        assert!(valid_metric_name(&sanitize_metric_name("serve/phase/queue_wait_ms")));
    }

    #[test]
    fn label_value_escaping_round_trips() {
        let nasty = "a\\b\"c\nd";
        assert_eq!(escape_label_value(nasty), "a\\\\b\\\"c\\nd");
        let text = format!("m{{k=\"{}\"}} 1\n", escape_label_value(nasty));
        let samples = parse_prometheus_text(&text).expect("escaped label must parse");
        assert_eq!(samples[0].label("k"), Some(nasty));
    }

    #[test]
    fn prometheus_text_golden_snapshot() {
        let mut s = Snapshot::default();
        s.counters.insert("serve/requests_ok".into(), 7);
        s.gauges.insert("serve/qps".into(), 123.5);
        let mut sh = StreamHist::new();
        sh.record(1.0);
        sh.record(1.0);
        sh.record(3.0);
        s.histograms.insert("serve/latency_ms".into(), sh.stat());
        s.histograms
            .insert("plain_agg".into(), HistStat { count: 2, sum: 3.0, min: 1.0, max: 2.0 });
        let mut hists = BTreeMap::new();
        hists.insert("serve/latency_ms".to_string(), sh);
        let text = prometheus_text(&s, &hists);
        let expected = "\
# TYPE serve_requests_ok counter
serve_requests_ok 7
# TYPE serve_qps gauge
serve_qps 123.5
# TYPE plain_agg summary
plain_agg_sum 3
plain_agg_count 2
# TYPE serve_latency_ms histogram
serve_latency_ms_bucket{le=\"1.125\"} 2
serve_latency_ms_bucket{le=\"3.25\"} 3
serve_latency_ms_bucket{le=\"+Inf\"} 3
serve_latency_ms_sum 5
serve_latency_ms_count 3
";
        assert_eq!(text, expected);
    }

    #[test]
    fn prometheus_round_trip_through_parser() {
        let mut s = Snapshot::default();
        s.counters.insert("reqs".into(), 3);
        s.gauges.insert("qps".into(), 9.25);
        let mut sh = StreamHist::new();
        for v in [0.5, 2.0, 2.0, 64.0] {
            sh.record(v);
        }
        s.histograms.insert("lat".into(), sh.stat());
        let mut hists = BTreeMap::new();
        hists.insert("lat".to_string(), sh);
        let samples =
            parse_prometheus_text(&prometheus_text(&s, &hists)).expect("own output must parse");
        let find = |n: &str| samples.iter().find(|p| p.name == n).expect("sample present");
        assert_eq!(find("reqs").value, 3.0);
        assert_eq!(find("qps").value, 9.25);
        assert_eq!(find("lat_count").value, 4.0);
        assert_eq!(find("lat_sum").value, 68.5);
        let buckets: Vec<&PromSample> =
            samples.iter().filter(|p| p.name == "lat_bucket").collect();
        assert_eq!(buckets.last().and_then(|p| p.label("le")), Some("+Inf"));
        assert_eq!(buckets.last().map(|p| p.value), Some(4.0));
        // Cumulative bucket counts never decrease.
        assert!(buckets.windows(2).all(|w| w[0].value <= w[1].value));
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_prometheus_text("ok 1\n").is_ok());
        assert!(parse_prometheus_text("# any comment\n\nok 2 1700000000\n").is_ok());
        for bad in [
            "9bad 1\n",
            "noval\n",
            "m{k=\"v\" 1\n",
            "m{k=unquoted} 1\n",
            "m{k=\"v\"} notanumber\n",
            "m 1 notatimestamp\n",
        ] {
            let err = parse_prometheus_text(bad);
            assert!(err.is_err(), "{bad:?} must be rejected");
            assert!(err.unwrap_err().starts_with("line "), "error must name the line");
        }
        // Non-finite values parse.
        let s = parse_prometheus_text("m +Inf\nn NaN\n").expect("non-finite values are legal");
        assert_eq!(s[0].value, f64::INFINITY);
        assert!(s[1].value.is_nan());
    }
}
