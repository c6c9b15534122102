//! The deterministic run digest: one `u64` that summarises a whole run.
//!
//! A [`Digest`] is a 64-bit FNV-1a fold with typed, length-prefixed
//! writers, so distinct value sequences cannot collide by concatenation
//! ambiguity (`"ab" + "c"` vs `"a" + "bc"` hash differently). Folding the
//! ordered trace and the final metric snapshot of a simulation yields a
//! number with the property the regression suite is built on:
//!
//! > same seed + same code ⇒ same digest, on every platform, serial or
//! > parallel.
//!
//! **Contract** (DESIGN.md §6): digests cover *simulated* behaviour only —
//! diary entries, spans, report ledgers, metric snapshots. Wall-clock
//! profiling ([`simcore::engine::EngineProfile`]) is excluded by design:
//! it varies run to run and must never perturb the hash.
//!
//! Floats are folded by `to_bits`, so a digest match is bit-for-bit, not
//! approximate.

use simcore::time::SimTime;
use simcore::trace::{Diary, DigitBuf};

use crate::registry::{MetricValue, Snapshot};
use crate::span::Span;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental 64-bit FNV-1a fold with typed writers.
///
/// # Examples
///
/// ```
/// use telemetry::Digest;
///
/// let mut a = Digest::new();
/// a.write_str("hello");
/// a.write_u64(7);
/// let mut b = Digest::new();
/// b.write_str("hello");
/// b.write_u64(7);
/// assert_eq!(a.finish(), b.finish());
/// ```
#[derive(Clone, Debug)]
pub struct Digest {
    h: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

impl Digest {
    /// Starts a fresh fold at the FNV-1a offset basis.
    pub fn new() -> Self {
        Digest { h: FNV_OFFSET }
    }

    /// Folds raw bytes (no length prefix; prefer the typed writers).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.h ^= b as u64;
            self.h = self.h.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Folds a `u64` as 8 little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds an `i128` as 16 little-endian bytes (exact money amounts).
    pub fn write_i128(&mut self, v: i128) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds an `f64` bit-exactly.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Folds a string, length-prefixed.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// The current fold value.
    pub fn finish(&self) -> u64 {
        self.h
    }

    /// Folds a whole diary: every entry's time, severity, tier and
    /// message, in order. A message folds as its rendered text, written
    /// like [`write_str`](Self::write_str) but piece by piece, so a typed
    /// entry and the text of it fold identically without allocating.
    pub fn fold_diary(&mut self, diary: &Diary) {
        self.write_u64(diary.len() as u64);
        let mut buf = DigitBuf::default();
        for e in diary.entries() {
            self.write_u64(e.at.as_secs());
            self.write_u8(e.severity.code());
            self.write_u8(e.tier.code());
            let pieces = e.message.pieces(&mut buf);
            self.write_u64(pieces.iter().map(|p| p.len() as u64).sum());
            for p in pieces {
                self.write_bytes(p.as_bytes());
            }
        }
    }

    /// Folds a span list in order; open spans fold as `u64::MAX`.
    pub fn fold_spans(&mut self, spans: &[Span]) {
        self.write_u64(spans.len() as u64);
        for s in spans {
            self.write_str(&s.name);
            self.write_u64(s.start.as_secs());
            self.write_u64(s.end.map_or(u64::MAX, SimTime::as_secs));
        }
    }

    /// Folds a metric snapshot (already name-sorted by construction).
    pub fn fold_snapshot(&mut self, snap: &Snapshot) {
        self.write_u64(snap.len() as u64);
        for (name, value) in snap.entries() {
            self.write_str(name);
            match value {
                MetricValue::Counter(v) => {
                    self.write_u8(0);
                    self.write_u64(*v);
                }
                MetricValue::Gauge(v) => {
                    self.write_u8(1);
                    self.write_f64(*v);
                }
                MetricValue::Histogram { bounds, counts, count, sum } => {
                    self.write_u8(2);
                    self.write_u64(bounds.len() as u64);
                    for b in bounds {
                        self.write_f64(*b);
                    }
                    for c in counts {
                        self.write_u64(*c);
                    }
                    self.write_u64(*count);
                    self.write_f64(*sum);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Buckets, Registry};
    use crate::span::SpanLog;
    use simcore::trace::{Severity, Tier};

    #[test]
    fn deterministic_and_order_sensitive() {
        let mut a = Digest::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Digest::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn length_prefix_blocks_concatenation_ambiguity() {
        let mut a = Digest::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Digest::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn empty_digest_is_offset_basis() {
        assert_eq!(Digest::new().finish(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn diary_fold_sees_every_field() {
        let mut d1 = Diary::new();
        d1.log(SimTime::from_years(1), Severity::Info, Tier::Device, "x");
        let mut d2 = Diary::new();
        d2.log(SimTime::from_years(1), Severity::Warning, Tier::Device, "x");
        let mut a = Digest::new();
        a.fold_diary(&d1);
        let mut b = Digest::new();
        b.fold_diary(&d2);
        assert_ne!(a.finish(), b.finish(), "severity must enter the fold");
    }

    /// The `&str` fold `fold_diary` replaced: each message as one
    /// length-prefixed string.
    fn fold_diary_text(d: &mut Digest, diary: &Diary) {
        d.write_u64(diary.len() as u64);
        for e in diary.entries() {
            d.write_u64(e.at.as_secs());
            d.write_u8(e.severity.code());
            d.write_u8(e.tier.code());
            d.write_str(&crate::oracle::legacy(&e.message));
        }
    }

    #[test]
    fn typed_diary_folds_like_the_text_oracle() {
        let typed = crate::oracle::mixed_diary();
        let mut a = Digest::new();
        a.fold_diary(&typed);
        let mut b = Digest::new();
        fold_diary_text(&mut b, &typed);
        assert_eq!(a.finish(), b.finish());
        // …and like the same diary stored as text.
        let mut c = Digest::new();
        c.fold_diary(&crate::oracle::text_twin(&typed));
        assert_eq!(a.finish(), c.finish());
    }

    #[test]
    fn snapshot_fold_distinguishes_kinds() {
        let r1 = Registry::new();
        r1.counter("m").unwrap().add(0);
        let r2 = Registry::new();
        r2.gauge("m").unwrap().set(0.0);
        let mut a = Digest::new();
        a.fold_snapshot(&r1.snapshot());
        let mut b = Digest::new();
        b.fold_snapshot(&r2.snapshot());
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn open_spans_fold_distinctly_from_closed() {
        let mut log = SpanLog::new();
        let id = log.open("outage", SimTime::from_years(1));
        let mut a = Digest::new();
        a.fold_spans(log.spans());
        log.close(id, SimTime::from_years(2));
        let mut b = Digest::new();
        b.fold_spans(log.spans());
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn histogram_fold_covers_counts() {
        let mk = |obs: &[f64]| {
            let r = Registry::new();
            let h = r.histogram("h", Buckets::linear(0.0, 1.0, 4).unwrap()).unwrap();
            for &x in obs {
                h.observe(x);
            }
            let mut d = Digest::new();
            d.fold_snapshot(&r.snapshot());
            d.finish()
        };
        assert_ne!(mk(&[0.5, 1.5]), mk(&[0.5, 2.5]));
        assert_eq!(mk(&[0.5, 1.5]), mk(&[0.5, 1.5]));
    }
}
