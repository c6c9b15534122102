//! Sim-time spans: named intervals recorded alongside the diary.
//!
//! The [`simcore::trace::Diary`] records *point* events ("provider
//! terminated service"). A [`SpanLog`] records the *interval* view of the
//! same story ("the backhaul was out from year 12.3 to year 12.55"), which
//! is what downstream tooling needs to compute time-in-state without
//! re-parsing diary prose. Spans may still be open when the run ends —
//! an outage the horizon cut off — and export as `end: null`.

use simcore::time::SimTime;

/// One named interval. `end` is `None` while the span is open.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// What the interval represents.
    pub name: String,
    /// When it opened.
    pub start: SimTime,
    /// When it closed, if it has.
    pub end: Option<SimTime>,
}

/// Handle to an open span, returned by [`SpanLog::open`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    /// The span's position in its log, for serialization. Re-mint the
    /// handle after a restore with [`SpanLog::handle`].
    pub fn index(self) -> usize {
        self.0
    }
}

/// An append-only log of spans, in open order.
#[derive(Clone, Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        SpanLog::default()
    }

    /// Opens a span at `at` and returns its handle.
    pub fn open(&mut self, name: impl Into<String>, at: SimTime) -> SpanId {
        self.spans.push(Span { name: name.into(), start: at, end: None });
        SpanId(self.spans.len() - 1)
    }

    /// Closes an open span. Returns `false` (and changes nothing) if the
    /// handle is stale or the span is already closed.
    pub fn close(&mut self, id: SpanId, at: SimTime) -> bool {
        match self.spans.get_mut(id.0) {
            Some(span) if span.end.is_none() && at >= span.start => {
                span.end = Some(at);
                true
            }
            _ => false,
        }
    }

    /// All spans, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Rebuilds a log from checkpointed spans, in their original open
    /// order. Handles into the previous log stay valid positionally;
    /// re-mint them with [`SpanLog::handle`].
    pub fn restore(spans: Vec<Span>) -> Self {
        SpanLog { spans }
    }

    /// Mints the handle for the span at `index`, if one exists — the
    /// restore-side counterpart of [`SpanId::index`].
    pub fn handle(&self, index: usize) -> Option<SpanId> {
        (index < self.spans.len()).then_some(SpanId(index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_close_roundtrip() {
        let mut log = SpanLog::new();
        let a = log.open("outage", SimTime::from_years(1));
        let b = log.open("outage", SimTime::from_years(2));
        assert!(log.close(a, SimTime::from_years(3)));
        assert_eq!(log.len(), 2);
        assert_eq!(log.spans()[0].end, Some(SimTime::from_years(3)));
        assert_eq!(log.spans()[1].end, None);
        let _ = b;
    }

    #[test]
    fn double_close_and_backwards_close_rejected() {
        let mut log = SpanLog::new();
        let a = log.open("x", SimTime::from_years(5));
        assert!(!log.close(a, SimTime::from_years(4)), "close before open");
        assert!(log.close(a, SimTime::from_years(6)));
        assert!(!log.close(a, SimTime::from_years(7)), "double close");
        assert_eq!(log.spans()[0].end, Some(SimTime::from_years(6)));
    }
}
