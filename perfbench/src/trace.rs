//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into each layer's public functions; nothing inside the program is
//! instrumented. Each span keeps its name, start, end, parent and the
//! request (or op) it belongs to. A *merged* span stands for many short
//! intervals of one layer — the week-boundary slices of an engine run —
//! and carries their summed duration in `busy_ns` and their number in
//! `count`, so a 50-year run costs two spans instead of five thousand.
//!
//! A layer's self time is its busy time minus its children's busy time.
//! Spans are written out as JSON when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Handle to an open or closed span.
pub type SpanId = usize;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name (e.g. `fleet.build`).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Time spent in the layer: `end - start`, or the sum of the merged
    /// intervals.
    pub busy_ns: u64,
    /// Intervals merged into this span (1 for an ordinary span).
    pub count: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// The op or request this span belongs to.
    pub request: u64,
}

/// Records spans on one thread; per-thread tracers merge with
/// [`Tracer::absorb_under`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin` (share one origin
    /// across threads so merged spans line up).
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span now.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            busy_ns: 0,
            count: 0,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes an ordinary span now.
    pub fn close(&mut self, id: SpanId) {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.busy_ns = now.saturating_sub(span.start_ns);
        span.count = 1;
    }

    /// Adds one interval of `d` to a merged span and moves its end to now.
    pub fn add_interval(&mut self, id: SpanId, d: Duration) {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.busy_ns += u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        span.count += 1;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Busy time of a span.
    pub fn busy(&self, id: SpanId) -> Duration {
        Duration::from_nanos(self.spans[id].busy_ns)
    }

    /// The instant timestamps count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Appends another tracer's spans, re-basing their parent links and
    /// hanging its root spans under `parent`.
    pub fn absorb_under(&mut self, other: Tracer, parent: Option<SpanId>) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }

    /// Self time per layer name: `(total self time, spans)`.
    pub fn self_times(&self) -> BTreeMap<&'static str, (Duration, u64)> {
        let mut child_busy = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_busy[p] += s.busy_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (Duration, u64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_busy) {
            let entry = out.entry(s.name).or_default();
            entry.0 += Duration::from_nanos(s.busy_ns.saturating_sub(children));
            entry.1 += 1;
        }
        out
    }

    /// Mean self time per span of layer `name`, in milliseconds (zero if
    /// the layer never ran).
    pub fn mean_self_ms(&self, name: &str) -> f64 {
        self.self_times().get(name).map_or(0.0, |&(total, n)| {
            total.as_secs_f64() * 1e3 / n.max(1) as f64
        })
    }

    /// Every span as one JSON document (`{"spans":[...]}`).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        out.push_str("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"count\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.busy_ns, s.count, s.request
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.open("op", None, 7);
        let child = t.open("child", Some(root), 7);
        t.add_interval(child, Duration::from_millis(3));
        t.add_interval(child, Duration::from_millis(2));
        std::thread::sleep(Duration::from_millis(10));
        t.close(root);
        let times = t.self_times();
        assert_eq!(times["child"], (Duration::from_millis(5), 1));
        let root_self = times["op"].0;
        assert!(root_self + Duration::from_millis(5) == t.busy(root));
        assert!(t.to_json().contains("\"name\":\"child\",") && t.to_json().contains("\"count\":2"));
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        a.span("x", None, 0, || ());
        let mut b = Tracer::new(origin);
        let p = b.open("p", None, 1);
        b.span("c", Some(p), 1, || ());
        b.close(p);
        a.absorb_under(b, Some(0));
        assert_eq!(a.spans[1].parent, Some(0));
        assert_eq!(a.spans[2].parent, Some(1));
    }
}
