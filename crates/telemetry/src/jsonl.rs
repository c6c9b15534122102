//! JSON Lines export of diaries, spans and metric snapshots.
//!
//! One self-describing JSON object per line, distinguished by a `"type"`
//! field (`event`, `span`, `metric`), so a whole run can be concatenated
//! into a single `.jsonl` stream and filtered with standard tooling. The
//! encoder is hand-rolled (no serde — vendored builds must stay offline)
//! and emits `null` for non-finite floats, which JSON cannot represent.

use std::fmt::Write as _;

use simcore::trace::{decimal, DigitBuf, Entry};

use crate::registry::{MetricValue, Snapshot};
use crate::span::Span;

/// Appends `s` to `out` as a quoted JSON string.
pub fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    push_escaped_body(out, s);
    out.push('"');
}

/// Appends `s` JSON-escaped, without the quotes. Escaping maps each
/// character on its own, so escaping a string piece by piece gives the
/// escaping of the whole. Every escaped character is ASCII, so the clean
/// runs between them are copied whole, on character boundaries.
fn push_escaped_body(out: &mut String, s: &str) {
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[clean..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        clean = i + 1;
    }
    out.push_str(&s[clean..]);
}

/// Appends an `f64` as a JSON number, or `null` if non-finite.
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Appends one diary entry as a `{"type":"event",…}` line. The severity
/// and tier labels and a message's fixed pieces need no escaping; only
/// the message's first piece is escaped, so a typed entry is never
/// rendered to a `String` first.
pub fn push_event(out: &mut String, e: &Entry<'_>) {
    let mut buf = DigitBuf::default();
    out.push_str("{\"type\":\"event\",\"t\":");
    out.push_str(decimal(e.at.as_secs(), &mut buf));
    out.push_str(",\"sev\":\"");
    out.push_str(e.severity.as_str());
    out.push_str("\",\"tier\":\"");
    out.push_str(e.tier.as_str());
    out.push_str("\",\"msg\":\"");
    let [text, fixed @ ..] = e.message.pieces(&mut buf);
    push_escaped_body(out, text);
    for piece in fixed {
        out.push_str(piece);
    }
    out.push_str("\"}\n");
}

/// The length of [`push_event`]'s line for `e`: exact unless the message
/// needs escaping, which only makes the line longer.
pub fn event_line_len(e: &Entry<'_>) -> usize {
    const FIXED: usize = r#"{"type":"event","t":,"sev":"","tier":"","msg":""}"#.len() + 1;
    let digits = e.at.as_secs().checked_ilog10().map_or(1, |d| d as usize + 1);
    FIXED + digits + e.severity.as_str().len() + e.tier.as_str().len() + e.message.len()
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
    use crate::oracle::{legacy, mixed_diaries, text_twin};
    use crate::registry::{Buckets, Registry};
    use crate::span::SpanLog;
    use simcore::time::SimTime;
    use simcore::trace::{Diary, DiaryView, Severity, Tier};

    /// The `String` renderer `push_event` replaced: each field through
    /// `to_string()`, each message as its legacy text.
    fn diary_to_jsonl(diaries: &[Diary]) -> String {
        let mut out = String::new();
        for e in DiaryView::new(diaries).entries() {
            let _ = write!(out, "{{\"type\":\"event\",\"t\":{},\"sev\":", e.at.as_secs());
            push_escaped(&mut out, &e.severity.to_string());
            out.push_str(",\"tier\":");
            push_escaped(&mut out, &e.tier.to_string());
            out.push_str(",\"msg\":");
            push_escaped(&mut out, &legacy(&e.message));
            out.push_str("}\n");
        }
        out
    }

    fn render(diaries: &[Diary]) -> String {
        let mut out = String::new();
        for e in DiaryView::new(diaries).entries() {
            push_event(&mut out, &e);
        }
        out
    }

    #[test]
    fn typed_and_text_events_render_like_the_string_oracle() {
        let typed = mixed_diaries();
        let oracle = diary_to_jsonl(&typed);
        assert_eq!(render(&typed), oracle);
        assert_eq!(render(&text_twin(&typed)), oracle);
        assert!(oracle.contains(&format!("device {} replaced", (1 << 30) - 1)));
        assert!(oracle.contains("q\\\"uote\\\\back\\u0001ctl: device 10 "), "{oracle}");
    }

    #[test]
    fn event_line_len_is_exact_without_escapes() {
        let mut d = Diary::new("arm");
        d.log(SimTime::ZERO, Severity::Info, Tier::System, "deployed");
        d.log(SimTime::from_secs(9), Severity::Warning, Tier::Device, "a");
        d.log(SimTime::from_secs(10), Severity::Incident, Tier::Backhaul, "");
        d.log(SimTime::from_years(50), Severity::Info, Tier::Gateway, "x".repeat(300));
        d.log_device(SimTime::from_years(51), 1 << 29, simcore::trace::DeviceEvent::Failed);
        for e in d.entries() {
            let mut line = String::new();
            push_event(&mut line, &e);
            assert_eq!(line.len(), event_line_len(&e), "{line}");
        }
        for e in DiaryView::new(&mixed_diaries()).entries() {
            let mut line = String::new();
            push_event(&mut line, &e);
            assert!(line.len() >= event_line_len(&e), "{line}");
        }
    }

    #[test]
    fn diary_lines_are_one_object_each() {
        let mut d = Diary::new("arm");
        d.log(SimTime::from_years(1), Severity::Incident, Tier::Gateway, "gw \"g0\" died\n");
        let out = render(&[d]);
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

    #[test]
    fn escaping_matches_the_per_char_oracle() {
        let per_char = |s: &str| {
            let mut out = String::from('"');
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
        };
        for s in ["", "plain", "\"", "a\"\\\n\r\t\u{0}\u{1f}\u{7f}b", "—é\u{1}日本\"", "end\\"] {
            let mut out = String::new();
            push_escaped(&mut out, s);
            assert_eq!(out, per_char(s), "{s:?}");
        }
    }
}
