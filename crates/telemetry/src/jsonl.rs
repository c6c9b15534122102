//! JSON Lines export of diaries, spans and metric snapshots.
//!
//! One self-describing JSON object per line, distinguished by a `"type"`
//! field (`event`, `span`, `metric`), so a whole run can be concatenated
//! into a single `.jsonl` stream and filtered with standard tooling. The
//! encoder is hand-rolled (no serde — vendored builds must stay offline)
//! and emits `null` for non-finite floats, which JSON cannot represent.

use std::fmt::Write as _;

use simcore::trace::Diary;

use crate::registry::{MetricValue, Snapshot};
use crate::span::Span;

/// Appends `s` to `out` as a quoted JSON string.
pub fn push_escaped(out: &mut String, s: &str) {
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

/// Appends an `f64` as a JSON number, or `null` if non-finite.
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Renders a diary as JSONL: one `{"type":"event",…}` object per entry.
pub fn diary_to_jsonl(diary: &Diary) -> String {
    let mut out = String::new();
    for e in diary.entries() {
        let _ = write!(out, "{{\"type\":\"event\",\"t\":{},\"sev\":", e.at.as_secs());
        push_escaped(&mut out, &e.severity.to_string());
        out.push_str(",\"tier\":");
        push_escaped(&mut out, &e.tier.to_string());
        out.push_str(",\"msg\":");
        push_escaped(&mut out, &e.message);
        out.push_str("}\n");
    }
    out
}

/// Renders spans as JSONL: one `{"type":"span",…}` object per span; open
/// spans export `"end":null`.
pub fn spans_to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str("{\"type\":\"span\",\"name\":");
        push_escaped(&mut out, &s.name);
        let _ = write!(out, ",\"start\":{}", s.start.as_secs());
        match s.end {
            Some(end) => {
                let _ = write!(out, ",\"end\":{}", end.as_secs());
            }
            None => out.push_str(",\"end\":null"),
        }
        out.push_str("}\n");
    }
    out
}

/// Renders a metric snapshot as JSONL: one `{"type":"metric",…}` object
/// per metric, in name order.
pub fn snapshot_to_jsonl(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in snap.entries() {
        out.push_str("{\"type\":\"metric\",\"name\":");
        push_escaped(&mut out, name);
        match value {
            MetricValue::Counter(v) => {
                let _ = write!(out, ",\"kind\":\"counter\",\"value\":{v}");
            }
            MetricValue::Gauge(v) => {
                out.push_str(",\"kind\":\"gauge\",\"value\":");
                push_f64(&mut out, *v);
            }
            MetricValue::Histogram { bounds, counts, count, sum } => {
                out.push_str(",\"kind\":\"histogram\",\"bounds\":[");
                for (i, b) in bounds.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_f64(&mut out, *b);
                }
                out.push_str("],\"counts\":[");
                for (i, c) in counts.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{c}");
                }
                let _ = write!(out, "],\"count\":{count},\"sum\":");
                push_f64(&mut out, *sum);
            }
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Buckets, Registry};
    use crate::span::SpanLog;
    use simcore::time::SimTime;
    use simcore::trace::{Severity, Tier};

    #[test]
    fn diary_lines_are_one_object_each() {
        let mut d = Diary::new();
        d.log(SimTime::from_years(1), Severity::Incident, Tier::Gateway, "gw \"g0\" died\n");
        let out = diary_to_jsonl(&d);
        assert_eq!(out.lines().count(), 1);
        assert!(out.contains("\"sev\":\"INCIDENT\""));
        assert!(out.contains("\\\"g0\\\""), "quotes escaped: {out}");
        assert!(out.contains("\\n"), "newline escaped");
        assert!(out.ends_with("}\n"));
    }

    #[test]
    fn span_export_handles_open_spans() {
        let mut log = SpanLog::new();
        let id = log.open("outage", SimTime::from_secs(10));
        log.open("other", SimTime::from_secs(20));
        log.close(id, SimTime::from_secs(30));
        let out = spans_to_jsonl(log.spans());
        assert!(out.contains("\"start\":10,\"end\":30"));
        assert!(out.contains("\"start\":20,\"end\":null"));
    }

    #[test]
    fn snapshot_export_covers_all_kinds() {
        let reg = Registry::new();
        reg.counter("c").unwrap().add(3);
        reg.gauge("g").unwrap().set(1.5);
        let h = reg.histogram("h", Buckets::linear(0.0, 1.0, 2).unwrap()).unwrap();
        h.observe(0.5);
        let out = snapshot_to_jsonl(&reg.snapshot());
        assert_eq!(out.lines().count(), 3);
        assert!(out.contains("\"kind\":\"counter\",\"value\":3"));
        assert!(out.contains("\"kind\":\"gauge\",\"value\":1.5"));
        assert!(out.contains("\"counts\":[1,0,0]"), "{out}");
    }

    #[test]
    fn control_chars_escape_to_unicode() {
        let mut out = String::new();
        push_escaped(&mut out, "a\u{1}b");
        assert_eq!(out, "\"a\\u0001b\"");
    }
}
