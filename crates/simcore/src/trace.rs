//! The structured event log — the simulated "experimental diary" of §4.5.
//!
//! The paper commits to a public, living diary of every intervention made to
//! keep the 50-year experiment alive. [`Diary`] is that artifact for
//! simulated runs: an append-only log of tagged entries with severity,
//! filterable and renderable as plain text.
//!
//! A million-device fleet writes millions of per-device lines over the
//! paper's horizon, so those are stored typed ([`Msg::Device`]: a static
//! arm name and a device id, no heap) and rendered only when read. Every
//! reader — [`Display`](fmt::Display), the run digest, the JSONL export,
//! the snapshot codec — sees exactly the text a [`Msg::Text`] holding the
//! rendered line would give.

use core::fmt;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// How consequential a diary entry is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Routine observation (data arrived, cohort deployed).
    Info,
    /// Degradation that needs no immediate action (device offline, redundancy lost).
    Warning,
    /// An intervention or loss (gateway replaced, backhaul sunset, device stranded).
    Incident,
}

impl Severity {
    /// Stable one-byte encoding used by run digests; must never be
    /// renumbered (it would silently re-bless every golden trace).
    pub const fn code(self) -> u8 {
        match self {
            Severity::Info => 0,
            Severity::Warning => 1,
            Severity::Incident => 2,
        }
    }
}

impl Severity {
    /// Decodes a [`code`](Severity::code) byte; `None` for unknown bytes
    /// (snapshot load paths must fail closed, not guess).
    pub const fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(Severity::Info),
            1 => Some(Severity::Warning),
            2 => Some(Severity::Incident),
            _ => None,
        }
    }
}

impl Severity {
    /// The display label (`INFO`, `WARN`, `INCIDENT`).
    pub const fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "INFO",
            Severity::Warning => "WARN",
            Severity::Incident => "INCIDENT",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which tier of the Figure-1 hierarchy an entry concerns.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Edge devices.
    Device,
    /// Gateways.
    Gateway,
    /// Backhaul links and providers.
    Backhaul,
    /// The cloud/data endpoint.
    Cloud,
    /// Cross-cutting (policy changes, staffing, budget).
    System,
}

impl Tier {
    /// Stable one-byte encoding used by run digests; must never be
    /// renumbered (it would silently re-bless every golden trace).
    pub const fn code(self) -> u8 {
        match self {
            Tier::Device => 0,
            Tier::Gateway => 1,
            Tier::Backhaul => 2,
            Tier::Cloud => 3,
            Tier::System => 4,
        }
    }
}

impl Tier {
    /// Decodes a [`code`](Tier::code) byte; `None` for unknown bytes
    /// (snapshot load paths must fail closed, not guess).
    pub const fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(Tier::Device),
            1 => Some(Tier::Gateway),
            2 => Some(Tier::Backhaul),
            3 => Some(Tier::Cloud),
            4 => Some(Tier::System),
            _ => None,
        }
    }
}

impl Tier {
    /// The display label (`device`, `gateway`, …).
    pub const fn as_str(self) -> &'static str {
        match self {
            Tier::Device => "device",
            Tier::Gateway => "gateway",
            Tier::Backhaul => "backhaul",
            Tier::Cloud => "cloud",
            Tier::System => "system",
        }
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What happened to one device, for the typed per-device diary lines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceEvent {
    /// `"{arm}: device {id} hardware failure (untouched policy: diagnose & replace)"`.
    Failed,
    /// `"{arm}: device {id} replaced"`.
    Replaced,
    /// `"{arm}: device {id} data-credit wallet exhausted"`.
    WalletExhausted,
}

impl DeviceEvent {
    /// The text after the device id.
    const fn suffix(self) -> &'static str {
        match self {
            DeviceEvent::Failed => " hardware failure (untouched policy: diagnose & replace)",
            DeviceEvent::Replaced => " replaced",
            DeviceEvent::WalletExhausted => " data-credit wallet exhausted",
        }
    }
}

/// Scratch space [`decimal`] renders a number into.
pub type DigitBuf = [u8; 20];

/// `v` in decimal, rendered into `buf` without allocating.
pub fn decimal(mut v: u64, buf: &mut DigitBuf) -> &str {
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    core::str::from_utf8(&buf[start..]).unwrap_or_default()
}

/// A diary message: typed for the per-device lines, free text otherwise.
///
/// A typed message and the [`Text`](Msg::Text) of its rendering are the
/// same message: they display, digest, export and compare equal.
#[derive(Clone, Debug)]
pub enum Msg {
    /// A per-device line, rendered as `"{arm}: device {device}"` followed
    /// by the event's fixed wording.
    Device {
        /// The arm's display name.
        arm: &'static str,
        /// The device's index within its arm.
        device: u32,
        /// What happened.
        event: DeviceEvent,
    },
    /// Any other line, verbatim.
    Text(Box<str>),
}

impl Msg {
    /// The typed line for device `device` of `arm`; an id beyond `u32`
    /// falls back to the same text, rendered eagerly.
    pub fn device(arm: &'static str, device: usize, event: DeviceEvent) -> Msg {
        match u32::try_from(device) {
            Ok(device) => Msg::Device { arm, device, event },
            Err(_) => Msg::Text(format!("{arm}: device {device}{}", event.suffix()).into()),
        }
    }

    /// The rendered text as consecutive pieces, without allocating; `buf`
    /// holds the device id's digits. Only the first piece carries
    /// caller-supplied text (the arm name, or the whole free text); the
    /// rest are fixed ASCII wording and digits.
    pub fn pieces<'a>(&'a self, buf: &'a mut DigitBuf) -> [&'a str; 4] {
        match self {
            Msg::Device { arm, device, event } => {
                [arm, ": device ", decimal(u64::from(*device), buf), event.suffix()]
            }
            Msg::Text(text) => [text, "", "", ""],
        }
    }

    /// Byte length of the rendered text.
    pub fn len(&self) -> usize {
        match self {
            Msg::Device { arm, device, event } => {
                let digits = device.checked_ilog10().map_or(1, |d| d as usize + 1);
                arm.len() + ": device ".len() + digits + event.suffix().len()
            }
            Msg::Text(text) => text.len(),
        }
    }

    /// Returns true if the rendered text is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Display for Msg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.pieces(&mut DigitBuf::default()).iter().try_for_each(|p| f.write_str(p))
    }
}

/// Equality of the rendered text, whatever the representation.
impl PartialEq for Msg {
    fn eq(&self, other: &Msg) -> bool {
        let (mut a, mut b) = (DigitBuf::default(), DigitBuf::default());
        self.pieces(&mut a)
            .iter()
            .flat_map(|p| p.bytes())
            .eq(other.pieces(&mut b).iter().flat_map(|p| p.bytes()))
    }
}

impl Eq for Msg {}

impl From<String> for Msg {
    fn from(text: String) -> Msg {
        Msg::Text(text.into_boxed_str())
    }
}

impl From<&str> for Msg {
    fn from(text: &str) -> Msg {
        Msg::Text(text.into())
    }
}

/// One diary entry.
#[derive(Clone, Debug)]
pub struct Entry {
    /// When it happened.
    pub at: SimTime,
    /// How consequential it is.
    pub severity: Severity,
    /// Which tier it concerns.
    pub tier: Tier,
    /// Human-readable description.
    pub message: Msg,
}

/// An append-only, time-ordered log of simulation happenings.
///
/// # Examples
///
/// ```
/// use simcore::trace::{Diary, Severity, Tier};
/// use simcore::time::SimTime;
///
/// let mut d = Diary::new();
/// d.log(SimTime::from_years(3), Severity::Incident, Tier::Gateway,
///       "gateway gw-0 SD card failed; replaced");
/// assert_eq!(d.count(Severity::Incident), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Diary {
    entries: Vec<Entry>,
}

impl Diary {
    /// Creates an empty diary.
    pub fn new() -> Self {
        Diary::default()
    }

    /// Appends an entry.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` precedes the last entry — the diary
    /// mirrors simulation time, which only moves forward.
    pub fn log(
        &mut self,
        at: SimTime,
        severity: Severity,
        tier: Tier,
        message: impl Into<Msg>,
    ) {
        debug_assert!(
            self.entries.last().is_none_or(|e| at >= e.at),
            "diary entries must be time-ordered"
        );
        self.entries.push(Entry { at, severity, tier, message: message.into() });
    }

    /// All entries in time order.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Number of entries at exactly the given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.entries.iter().filter(|e| e.severity == severity).count()
    }

    /// Number of entries for the given tier.
    pub fn count_tier(&self, tier: Tier) -> usize {
        self.entries.iter().filter(|e| e.tier == tier).count()
    }

    /// Iterator over entries at or above a severity.
    pub fn at_least(&self, severity: Severity) -> impl Iterator<Item = &Entry> {
        self.entries.iter().filter(move |e| e.severity >= severity)
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true if nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merges time-ordered diaries into one, in a single pass into an
    /// exactly sized log: by time, ties in input order, each diary's
    /// internal order kept. Merging per-arm diaries in arm order is
    /// therefore reproducible whichever thread or shard wrote each one.
    ///
    /// The merge runs from the back: the last entry overall is the latest
    /// tail (ties to the later diary), so it is popped off its source,
    /// and each source shrinks as it drains. The inputs' memory is handed
    /// back while the output fills, rather than both being held at once.
    pub fn merged(diaries: impl IntoIterator<Item = Diary>) -> Diary {
        let mut sources: Vec<Vec<Entry>> = diaries.into_iter().map(|d| d.entries).collect();
        let mut entries = Vec::with_capacity(sources.iter().map(Vec::len).sum());
        let mut tails: BinaryHeap<(SimTime, usize)> = sources
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.last().map(|e| (e.at, i)))
            .collect();
        while let Some((_, i)) = tails.pop() {
            // Drain source `i` while its tail stays behind every other tail.
            let next = tails.peek().copied();
            let src = &mut sources[i];
            while src.last().is_some_and(|e| next.is_none_or(|tail| (e.at, i) > tail)) {
                entries.extend(src.pop());
            }
            if src.len() <= src.capacity() / 2 {
                src.shrink_to_fit();
            }
            if let Some(e) = src.last() {
                tails.push((e.at, i));
            }
        }
        entries.reverse();
        Diary { entries }
    }

    /// Renders the diary as plain text, one line per entry.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for e in &self.entries {
            let _ = writeln!(out, "[{}] {:8} {:8} {}", e.at, e.severity, e.tier, e.message);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-device lines exactly as the fleet simulator `format!`ted
    /// them before messages were typed.
    fn legacy(m: &Msg) -> String {
        match m {
            Msg::Device { arm, device, event: DeviceEvent::Failed } => {
                format!("{arm}: device {device} hardware failure (untouched policy: diagnose & replace)")
            }
            Msg::Device { arm, device, event: DeviceEvent::Replaced } => {
                format!("{arm}: device {device} replaced")
            }
            Msg::Device { arm, device, event: DeviceEvent::WalletExhausted } => {
                format!("{arm}: device {device} data-credit wallet exhausted")
            }
            Msg::Text(text) => text.to_string(),
        }
    }

    /// The text-only render oracle: every message as its legacy `String`.
    fn render_text(diary: &Diary) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for e in diary.entries() {
            let message: String = legacy(&e.message);
            let _ = writeln!(out, "[{}] {:8} {:8} {}", e.at, e.severity, e.tier, message);
        }
        out
    }

    const ARMS: [&str; 2] = ["owned-802.15.4", "q\"uote\\back\u{1}ctl"];
    const EVENTS: [DeviceEvent; 3] =
        [DeviceEvent::Failed, DeviceEvent::Replaced, DeviceEvent::WalletExhausted];
    const IDS: [usize; 4] = [0, 9, 10, u32::MAX as usize];

    /// Every typed variant × edge-case id × awkward arm name, interleaved
    /// with free-text lines.
    fn mixed_diary() -> Diary {
        let mut d = Diary::new();
        d.log(SimTime::ZERO, Severity::Info, Tier::System, "arm 'x' deployed: 3 devices");
        for (k, (arm, (event, id))) in ARMS
            .iter()
            .flat_map(|a| EVENTS.iter().flat_map(move |e| IDS.iter().map(move |i| (a, (e, i)))))
            .enumerate()
        {
            let at = SimTime::from_secs(k as u64 * 7);
            d.log(at, Severity::Warning, Tier::Device, Msg::device(arm, *id, *event));
            d.log(at, Severity::Incident, Tier::Gateway, format!("{arm}: gateway {k} failed"));
        }
        d
    }

    #[test]
    fn typed_messages_render_their_legacy_text() {
        for arm in ARMS {
            for event in EVENTS {
                for id in IDS {
                    let m = Msg::device(arm, id, event);
                    assert!(matches!(m, Msg::Device { .. }), "{id} fits the typed id");
                    let text = legacy(&m);
                    assert_eq!(m.to_string(), text);
                    assert_eq!(m.len(), text.len());
                    assert_eq!(m, Msg::from(text.as_str()), "typed ≡ its text");
                    assert_ne!(m, Msg::from(format!("{text}.")));
                }
            }
        }
    }

    #[test]
    fn ids_beyond_the_typed_range_keep_their_text() {
        let Some(id) = (u32::MAX as usize).checked_add(1) else { return };
        let m = Msg::device("arm", id, DeviceEvent::Replaced);
        assert!(matches!(m, Msg::Text(_)));
        assert_eq!(m.to_string(), format!("arm: device {id} replaced"));
    }

    #[test]
    fn mixed_diary_renders_like_the_text_oracle() {
        let d = mixed_diary();
        assert_eq!(d.render(), render_text(&d));
        assert!(d.render().contains(&format!("device {} replaced", u32::MAX)));
    }

    #[test]
    fn entries_stay_compact() {
        assert!(core::mem::size_of::<Entry>() <= 40, "{}", core::mem::size_of::<Entry>());
    }

    #[test]
    fn merged_matches_a_stable_sort_of_the_concatenation() {
        // Eight diaries with heavy same-second collisions, merged in one
        // pass, against the stable sort the merge replaced.
        let diaries: Vec<Diary> = (0..8u64)
            .map(|arm| {
                let mut d = Diary::new();
                for k in 0..40u64 {
                    let at = SimTime::from_secs((k * (arm + 3)) / 5);
                    d.log(at, Severity::Info, Tier::Device, format!("arm{arm}-{k}"));
                }
                d
            })
            .collect();
        let mut oracle: Vec<Entry> = diaries.iter().flat_map(|d| d.entries().to_vec()).collect();
        oracle.sort_by_key(|e| e.at);
        let merged = Diary::merged(diaries);
        assert_eq!(merged.entries.capacity(), oracle.len());
        let text = |es: &[Entry]| es.iter().map(|e| (e.at, e.message.to_string())).collect::<Vec<_>>();
        assert_eq!(text(merged.entries()), text(&oracle));
        assert!(Diary::merged([]).is_empty());
    }

    #[test]
    fn log_and_count() {
        let mut d = Diary::new();
        d.log(SimTime::ZERO, Severity::Info, Tier::Device, "deployed");
        d.log(SimTime::from_years(1), Severity::Warning, Tier::Device, "offline");
        d.log(SimTime::from_years(2), Severity::Incident, Tier::Backhaul, "sunset");
        assert_eq!(d.len(), 3);
        assert_eq!(d.count(Severity::Info), 1);
        assert_eq!(d.count(Severity::Incident), 1);
        assert_eq!(d.count_tier(Tier::Device), 2);
        assert_eq!(d.at_least(Severity::Warning).count(), 2);
    }

    #[test]
    fn severity_orders() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Incident);
    }

    #[test]
    fn render_contains_fields() {
        let mut d = Diary::new();
        d.log(SimTime::from_years(5), Severity::Incident, Tier::Gateway, "gw replaced");
        let text = d.render();
        assert!(text.contains("INCIDENT"));
        assert!(text.contains("gateway"));
        assert!(text.contains("gw replaced"));
        assert!(text.contains("y005"));
    }

    #[test]
    fn digest_codes_are_frozen() {
        // These byte values are part of the golden-digest contract.
        assert_eq!(
            [Severity::Info.code(), Severity::Warning.code(), Severity::Incident.code()],
            [0, 1, 2]
        );
        assert_eq!(
            [
                Tier::Device.code(),
                Tier::Gateway.code(),
                Tier::Backhaul.code(),
                Tier::Cloud.code(),
                Tier::System.code()
            ],
            [0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn empty_diary() {
        let d = Diary::new();
        assert!(d.is_empty());
        assert_eq!(d.render(), "");
    }
}
