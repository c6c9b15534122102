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
//!
//! **Fixed bytes in one step.** One FNV-1a step, `(h ^ b)·P`, is `P·h`
//! plus a term that depends only on h's low byte. So folding any fixed
//! byte string `s` is one affine map, `h ↦ P^|s|·h + add_s[h & 0xff]`
//! (mod 2^64): a multiplier and 256 addends, read off the byte loop run
//! from each low byte. The diary fold folds each typed line's recurring
//! wording through such a table, and [`Digest::write_repeated`] folds a
//! long run of one record by squaring its map. Both give exactly the
//! value of the byte loop; only the work changes.

use simcore::time::SimTime;
use simcore::trace::{DeviceEvent, Diary, DigitBuf, Msg};

use crate::registry::{MetricValue, Snapshot};
use crate::span::Span;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// How often a fixed byte string must recur before it is folded through
/// a table, which costs 256 byte loops to build. [`Digest::write_repeated`]
/// folds fewer copies byte by byte, and the diary fold builds a wording's
/// table on its key's `RECUR`-th use, so small diaries keep the byte loop.
const RECUR: usize = 256;

/// The fold of one fixed byte string as a single step:
/// `h ↦ mul·h + add[h & 0xff]` (mod 2^64). See the module docs.
struct Fixed {
    /// `P^len`.
    mul: u64,
    /// The addend for each low byte of the state folded into.
    add: [u64; 256],
}

impl Fixed {
    /// The step that folds `bytes`. The byte loop run from state `x < 256`
    /// ends at `mul·x + add[x]`, which gives each addend.
    fn of(bytes: &[u8]) -> Fixed {
        let mut hs: [u64; 256] = core::array::from_fn(|x| x as u64);
        let mut mul = 1u64;
        for &b in bytes {
            for h in &mut hs {
                *h = (*h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
            mul = mul.wrapping_mul(FNV_PRIME);
        }
        let add = core::array::from_fn(|x| hs[x].wrapping_sub(mul.wrapping_mul(x as u64)));
        Fixed { mul, add }
    }

    /// Folds the string into state `h`.
    #[inline]
    fn apply(&self, h: u64) -> u64 {
        self.mul.wrapping_mul(h).wrapping_add(self.add[(h & 0xff) as usize])
    }

    /// `self`, then `next`. The low byte `self` leaves depends only on
    /// the low byte it starts from, so `next`'s addend is picked through
    /// that permutation of the 256 low bytes.
    fn then(&self, next: &Fixed) -> Fixed {
        let add = core::array::from_fn(|x| {
            let low = self.apply(x as u64) & 0xff;
            next.mul.wrapping_mul(self.add[x]).wrapping_add(next.add[low as usize])
        });
        Fixed { mul: next.mul.wrapping_mul(self.mul), add }
    }
}

/// Fixed wording keyed by the typed field it is rendered from (the key's
/// content, never a string's address, which the linker may share between
/// equal or overlapping literals). A key's wording folds byte by byte
/// until the key has recurred [`RECUR`] times, then through one table.
struct Recurring<K> {
    seen: Vec<(K, usize, Option<Box<Fixed>>)>,
}

impl<K: PartialEq> Recurring<K> {
    fn new() -> Self {
        Recurring { seen: Vec::new() }
    }

    /// Folds `pieces`, the wording `key` renders to, into `d`.
    fn fold(&mut self, d: &mut Digest, key: K, pieces: &[&str]) {
        let i = match self.seen.iter().position(|(k, ..)| *k == key) {
            Some(i) => i,
            None => {
                self.seen.push((key, 0, None));
                self.seen.len() - 1
            }
        };
        let (_, uses, table) = &mut self.seen[i];
        if table.is_none() {
            *uses += 1;
            if *uses < RECUR {
                for p in pieces {
                    d.write_bytes(p.as_bytes());
                }
                return;
            }
        }
        let table = table.get_or_insert_with(|| Box::new(Fixed::of(pieces.concat().as_bytes())));
        d.h = table.apply(d.h);
    }
}

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

    /// Folds `n` copies of `bytes`, exactly as `n` calls of
    /// [`write_bytes`](Self::write_bytes) would. A long run costs
    /// O(256 · log n) steps: the string's fold is one affine map (module
    /// docs), squared log₂ n times.
    pub fn write_repeated(&mut self, bytes: &[u8], n: usize) {
        if n < RECUR || bytes.is_empty() {
            for _ in 0..n {
                self.write_bytes(bytes);
            }
            return;
        }
        // Apply the map's power-of-two powers for n's set bits; powers of
        // one map commute, so their order does not matter.
        let (mut power, mut n) = (Fixed::of(bytes), n);
        loop {
            if n & 1 == 1 {
                self.h = power.apply(self.h);
            }
            n >>= 1;
            if n == 0 {
                return;
            }
            power = power.then(&power);
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
    ///
    /// A typed line's `"{arm}: device "` head and its event's wording are
    /// fixed strings: once one recurs often enough it folds through its
    /// table (module docs). The time, codes, length and device digits
    /// fold byte by byte.
    pub fn fold_diary(&mut self, diary: &Diary) {
        self.write_u64(diary.len() as u64);
        let mut buf = DigitBuf::default();
        let mut heads: Recurring<&str> = Recurring::new();
        let mut wordings: Recurring<DeviceEvent> = Recurring::new();
        for e in diary.entries() {
            self.write_u64(e.at.as_secs());
            self.write_u8(e.severity.code());
            self.write_u8(e.tier.code());
            self.write_u64(e.message.len() as u64);
            let [arm_or_text, device, digits, wording] = e.message.pieces(&mut buf);
            match e.message {
                Msg::Device { arm, event, .. } => {
                    heads.fold(self, arm, &[arm_or_text, device]);
                    self.write_bytes(digits.as_bytes());
                    wordings.fold(self, event, &[wording]);
                }
                Msg::Text(_) => self.write_bytes(arm_or_text.as_bytes()),
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
    use simcore::rng::Rng;
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

    /// `len` bytes of `rng`.
    fn random_bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    /// A digest whose state is `h`.
    fn at(h: u64) -> Digest {
        Digest { h }
    }

    #[test]
    fn a_fixed_step_folds_like_the_byte_loop() {
        let mut rng = Rng::seed_from(7);
        for len in 0..=64 {
            let bytes = random_bytes(&mut rng, len);
            let step = Fixed::of(&bytes);
            let starts = [0, 1, 0xff, FNV_OFFSET, u64::MAX];
            for h in starts.into_iter().chain((0..16).map(|_| rng.next_u64())) {
                let mut d = at(h);
                d.write_bytes(&bytes);
                assert_eq!(step.apply(h), d.finish(), "len {len}, h {h:#x}");
            }
            // Composing two steps folds the concatenation.
            let tail = random_bytes(&mut rng, (len * 7) % 23);
            let both = step.then(&Fixed::of(&tail));
            let concat = Fixed::of(&[bytes.as_slice(), &tail].concat());
            assert_eq!(both.mul, concat.mul);
            assert!(both.add == concat.add, "len {len}: composed ≢ concatenated");
        }
    }

    #[test]
    fn write_repeated_folds_like_the_byte_loop() {
        let mut rng = Rng::seed_from(11);
        let fold = |h: u64, bytes: &[u8], n: usize| {
            let mut d = at(h);
            for _ in 0..n {
                d.write_bytes(bytes);
            }
            d.finish()
        };
        for n in [0, 1, 2, 255, 256, 257, 1000] {
            for len in [0, 1, 2, 9, 17, 64] {
                let bytes = random_bytes(&mut rng, len);
                let h = rng.next_u64();
                let mut d = at(h);
                d.write_repeated(&bytes, n);
                assert_eq!(d.finish(), fold(h, &bytes, n), "n {n}, len {len}");
            }
        }
        // Long runs: one census record, one byte, and an empty string.
        for n in [(1 << 20) - 1, 1 << 20, (1 << 20) + 1] {
            for len in [0, 1, 9] {
                let bytes = random_bytes(&mut rng, len);
                let h = rng.next_u64();
                let mut d = at(h);
                d.write_repeated(&bytes, n);
                assert_eq!(d.finish(), fold(h, &bytes, n), "n {n}, len {len}");
            }
        }
    }

    #[test]
    fn recurring_wording_folds_like_the_byte_loop_across_the_threshold() {
        // Arm names that share an address and differ in length, typed
        // lines of each event, and free text, at line counts either side
        // of the threshold: the table fold must equal the text fold.
        const LONG: &str = "owned-802.15.4";
        let arms: [&'static str; 3] = [&LONG[..5], LONG, "q\"uote\\back\u{1}ctl"];
        let events = [DeviceEvent::Failed, DeviceEvent::Replaced, DeviceEvent::WalletExhausted];
        for lines in [RECUR - 1, RECUR, RECUR + 1, 3 * RECUR + 5] {
            let mut diary = Diary::new();
            for k in 0..lines {
                let at = SimTime::from_secs(k as u64);
                let arm = arms[k % arms.len()];
                let msg = Msg::device(arm, k * 37, events[k % events.len()]);
                diary.log(at, Severity::Warning, Tier::Device, msg);
                if k % 5 == 0 {
                    diary.log(at, Severity::Info, Tier::System, format!("\"{arm}\" {k}"));
                }
            }
            // Each arm's and each event's wording alone past the threshold.
            for arm in arms {
                for _ in 0..RECUR + 1 {
                    let at = SimTime::from_secs(lines as u64);
                    diary.log(at, Severity::Incident, Tier::Device, Msg::device(arm, 4, events[1]));
                }
            }
            let mut a = Digest::new();
            a.fold_diary(&diary);
            let mut b = Digest::new();
            fold_diary_text(&mut b, &diary);
            assert_eq!(a.finish(), b.finish(), "{lines} lines");
        }
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
