//! The structured event log — the simulated "experimental diary" of §4.5.
//!
//! The paper commits to a public, living diary of every intervention made to
//! keep the 50-year experiment alive. [`Diary`] is that artifact for
//! simulated runs: an append-only log of tagged entries with severity,
//! filterable and renderable as plain text.
//!
//! A million-device fleet writes millions of per-device lines over the
//! paper's horizon, so those are stored as two columns, 12 bytes a line:
//! the time and the device id with the [`DeviceEvent`] in its top two
//! bits. The diary's name, the event's wording, severity and tier are
//! fixed, so the line is rendered only when read. The rare free-form
//! lines are kept as text, each with the count of device lines logged
//! before it, which fixes where it falls among them.
//!
//! Each writer (a fleet arm) keeps its own diary; a [`DiaryView`] reads
//! several as one time-ordered log through a [`Merged`] cursor, without
//! copying them. Every reader — [`Display`](fmt::Display), the run
//! digest, the JSONL export, the snapshot codec — sees exactly the text a
//! [`Msg::Text`] holding the rendered line would give.

use core::fmt;

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
    /// `"{arm}: device {id} hardware failure (untouched policy: diagnose & replace)"`,
    /// a [`Warning`](Severity::Warning) about a [`Device`](Tier::Device).
    Failed,
    /// `"{arm}: device {id} replaced"`, an [`Incident`](Severity::Incident)
    /// of a [`Device`](Tier::Device).
    Replaced,
    /// `"{arm}: device {id} data-credit wallet exhausted"`, an
    /// [`Incident`](Severity::Incident) of the [`Backhaul`](Tier::Backhaul).
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

    /// The severity every line of this event is logged at.
    pub const fn severity(self) -> Severity {
        match self {
            DeviceEvent::Failed => Severity::Warning,
            DeviceEvent::Replaced | DeviceEvent::WalletExhausted => Severity::Incident,
        }
    }

    /// The tier every line of this event concerns.
    pub const fn tier(self) -> Tier {
        match self {
            DeviceEvent::Failed | DeviceEvent::Replaced => Tier::Device,
            DeviceEvent::WalletExhausted => Tier::Backhaul,
        }
    }

    /// The event in a device-column word's top two bits: its position
    /// in the declaration, which [`from_word`](Self::from_word) inverts.
    const fn tag(self) -> u32 {
        (self as u32) << ID_BITS
    }

    /// Decodes [`tag`](Self::tag)'s bits; only the diary writes them.
    const fn from_word(word: u32) -> DeviceEvent {
        match word >> ID_BITS {
            0 => DeviceEvent::Failed,
            1 => DeviceEvent::Replaced,
            _ => DeviceEvent::WalletExhausted,
        }
    }
}

/// Bits of a device-column word that hold the device id; the top two
/// hold the [`DeviceEvent`].
const ID_BITS: u32 = 30;
/// The largest device id a device-column word holds.
const MAX_TYPED_ID: u32 = (1 << ID_BITS) - 1;

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

/// A diary message as read: typed for the per-device lines, free text
/// otherwise, both borrowed from the diary.
///
/// A typed message and the [`Text`](Msg::Text) of its rendering are the
/// same message: they display, digest, export and compare equal.
#[derive(Clone, Copy, Debug)]
pub enum Msg<'a> {
    /// A per-device line, rendered as `"{arm}: device {device}"` followed
    /// by the event's fixed wording.
    Device {
        /// The name of the diary that logged it (the arm's display name).
        arm: &'a str,
        /// The device's index within its arm.
        device: u32,
        /// What happened.
        event: DeviceEvent,
    },
    /// Any other line, verbatim.
    Text(&'a str),
}

impl<'a> Msg<'a> {
    /// The rendered text as consecutive pieces, without allocating; `buf`
    /// holds the device id's digits. Only the first piece carries
    /// caller-supplied text (the arm name, or the whole free text); the
    /// rest are fixed ASCII wording and digits.
    pub fn pieces<'b>(&self, buf: &'b mut DigitBuf) -> [&'b str; 4]
    where
        'a: 'b,
    {
        match *self {
            Msg::Device { arm, device, event } => {
                [arm, ": device ", decimal(u64::from(device), buf), event.suffix()]
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

impl fmt::Display for Msg<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.pieces(&mut DigitBuf::default()).iter().try_for_each(|p| f.write_str(p))
    }
}

/// Equality of the rendered text, whatever the representation.
impl PartialEq for Msg<'_> {
    fn eq(&self, other: &Msg<'_>) -> bool {
        let (mut a, mut b) = (DigitBuf::default(), DigitBuf::default());
        self.pieces(&mut a)
            .iter()
            .flat_map(|p| p.bytes())
            .eq(other.pieces(&mut b).iter().flat_map(|p| p.bytes()))
    }
}

impl Eq for Msg<'_> {}

/// One diary entry, as read.
#[derive(Clone, Copy, Debug)]
pub struct Entry<'a> {
    /// When it happened.
    pub at: SimTime,
    /// How consequential it is.
    pub severity: Severity,
    /// Which tier it concerns.
    pub tier: Tier,
    /// Human-readable description.
    pub message: Msg<'a>,
}

/// A free-form diary line.
#[derive(Clone, Debug)]
struct TextLine {
    /// How many device lines were logged before it: it falls after those
    /// and before the next.
    before: usize,
    at: SimTime,
    severity: Severity,
    tier: Tier,
    text: Box<str>,
}

/// An append-only, time-ordered log of one writer's happenings.
///
/// # Examples
///
/// ```
/// use simcore::trace::{DeviceEvent, Diary, Severity, Tier};
/// use simcore::time::SimTime;
///
/// let mut d = Diary::new("arm-0");
/// d.log(SimTime::from_years(3), Severity::Incident, Tier::Gateway,
///       "gateway gw-0 SD card failed; replaced");
/// d.log_device(SimTime::from_years(4), 7, DeviceEvent::Replaced);
/// let last = d.entries().last().unwrap();
/// assert_eq!(last.message.to_string(), "arm-0: device 7 replaced");
/// assert_eq!(d.view().count(Severity::Incident), 2);
/// ```
#[derive(Clone, Debug)]
pub struct Diary {
    /// The name device lines are rendered with.
    name: &'static str,
    /// Device lines: the time in seconds…
    at: Vec<u64>,
    /// …and the device id, its [`DeviceEvent`] in the top two bits.
    dev: Vec<u32>,
    /// Every other line, in log order.
    text: Vec<TextLine>,
}

impl Diary {
    /// Creates an empty diary whose device lines name `name`.
    pub fn new(name: &'static str) -> Self {
        Diary { name, at: Vec::new(), dev: Vec::new(), text: Vec::new() }
    }

    /// Checks, in debug builds, that a line at `at` would not precede the
    /// last one.
    fn debug_assert_ordered(&self, at: SimTime) {
        let last = match self.text.last() {
            Some(line) if line.before == self.at.len() => Some(line.at),
            _ => self.at.last().map(|&at| SimTime::from_secs(at)),
        };
        debug_assert!(last.is_none_or(|last| at >= last), "diary entries must be time-ordered");
    }

    /// Appends a free-form line.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` precedes the last entry — the diary
    /// mirrors simulation time, which only moves forward.
    pub fn log(&mut self, at: SimTime, severity: Severity, tier: Tier, text: impl Into<Box<str>>) {
        self.debug_assert_ordered(at);
        let before = self.at.len();
        self.text.push(TextLine { before, at, severity, tier, text: text.into() });
    }

    /// Appends the line for `event` of device `device`, at the event's
    /// [`severity`](DeviceEvent::severity) and [`tier`](DeviceEvent::tier).
    /// An id beyond the column's 30 bits is logged as the same text.
    ///
    /// # Panics
    ///
    /// As [`log`](Self::log).
    pub fn log_device(&mut self, at: SimTime, device: usize, event: DeviceEvent) {
        match u32::try_from(device) {
            Ok(id) if id <= MAX_TYPED_ID => {
                self.debug_assert_ordered(at);
                self.at.push(at.as_secs());
                self.dev.push(id | event.tag());
            }
            _ => {
                let text = format!("{}: device {device}{}", self.name, event.suffix());
                self.log(at, event.severity(), event.tier(), text);
            }
        }
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.at.len() + self.text.len()
    }

    /// Returns true if nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All entries in log order.
    pub fn entries(&self) -> Merged<'_> {
        self.view().entries()
    }

    /// This diary alone, as a [`DiaryView`].
    pub fn view(&self) -> DiaryView<'_> {
        DiaryView::new(core::slice::from_ref(self))
    }

    /// The entry of device line `i`.
    fn device_entry(&self, i: usize) -> Entry<'_> {
        let word = self.dev[i];
        let event = DeviceEvent::from_word(word);
        Entry {
            at: SimTime::from_secs(self.at[i]),
            severity: event.severity(),
            tier: event.tier(),
            message: Msg::Device { arm: self.name, device: word & MAX_TYPED_ID, event },
        }
    }
}

impl TextLine {
    fn entry(&self) -> Entry<'_> {
        let message = Msg::Text(&self.text);
        Entry { at: self.at, severity: self.severity, tier: self.tier, message }
    }
}

/// Several diaries read as one log, without copying them: by time, ties
/// in diary order, each diary's own order kept. Reading per-arm diaries
/// in arm order is therefore reproducible whichever thread or shard wrote
/// each one.
#[derive(Clone, Copy, Debug)]
pub struct DiaryView<'a> {
    diaries: &'a [Diary],
}

impl<'a> DiaryView<'a> {
    /// The view of `diaries`, ties going to the earlier one.
    pub fn new(diaries: &'a [Diary]) -> Self {
        DiaryView { diaries }
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.diaries.iter().map(Diary::len).sum()
    }

    /// Returns true if nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All entries in time order.
    pub fn entries(&self) -> Merged<'a> {
        Merged::new(self.diaries)
    }

    /// Every entry, diary by diary, each diary's device lines first: for
    /// counts and sums, which need no order, without the merge's cost.
    pub fn unordered(&self) -> impl Iterator<Item = Entry<'a>> {
        self.diaries.iter().flat_map(|d| {
            let devices = (0..d.at.len()).map(move |i| d.device_entry(i));
            devices.chain(d.text.iter().map(TextLine::entry))
        })
    }

    /// Number of entries at exactly the given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.unordered().filter(|e| e.severity == severity).count()
    }

    /// Number of entries for the given tier.
    pub fn count_tier(&self, tier: Tier) -> usize {
        self.unordered().filter(|e| e.tier == tier).count()
    }

    /// Entries at or above a severity, in time order.
    pub fn at_least(&self, severity: Severity) -> impl Iterator<Item = Entry<'a>> {
        self.entries().filter(move |e| e.severity >= severity)
    }

    /// Renders the entries as plain text, one line each, in time order.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for e in self.entries() {
            let _ = writeln!(out, "[{}] {:8} {:8} {}", e.at, e.severity, e.tier, e.message);
        }
        out
    }
}

/// The sort key of a diary's next entry: its time, then the diary's
/// index, so every key is distinct and ties go to the earlier diary.
/// [`DONE`] once the diary is read out.
type Key = u128;
const DONE: Key = Key::MAX;

/// Where one diary's reading stands: its next entry's [`Key`], the next
/// device and text lines, and the device line that text line goes before
/// (`usize::MAX` past the last text line).
#[derive(Clone, Copy, Debug)]
struct Head {
    key: Key,
    device: usize,
    text: usize,
    text_before: usize,
}

impl Head {
    const DRAINED: Head = Head { key: DONE, device: 0, text: 0, text_before: usize::MAX };

    /// The reading of `d` from its start, as diary `leaf`.
    fn start(d: &Diary, leaf: usize) -> Head {
        let mut head = Head { text: 0, ..Head::DRAINED };
        head.next_text(d);
        head.rekey(d, leaf);
        head
    }

    /// Moves `text_before` to text line `self.text`.
    #[inline]
    fn next_text(&mut self, d: &Diary) {
        self.text_before = d.text.get(self.text).map_or(usize::MAX, |line| line.before);
    }

    /// Whether the next entry is text line `self.text`: a text line goes
    /// before the device line it was logged before.
    #[inline]
    fn at_text(&self) -> bool {
        self.text_before == self.device
    }

    /// Recomputes the key of diary `leaf`, which is `d`.
    #[inline]
    fn rekey(&mut self, d: &Diary, leaf: usize) {
        let at = if self.at_text() {
            d.text[self.text].at.as_secs()
        } else {
            match d.at.get(self.device) {
                Some(&at) => at,
                None => {
                    self.key = DONE;
                    return;
                }
            }
        };
        self.key = (Key::from(at) << 64) | leaf as Key;
    }
}

/// The time-ordered cursor over a [`DiaryView`]: a k-way merge through a
/// loser tree, so each entry costs ⌈log₂ k⌉ key comparisons.
///
/// The tree's leaves are the diaries, padded to a power of two with
/// read-out ones. Each internal node keeps the loser of the match below
/// it, `losers[0]` the overall winner: the diary whose entry comes next.
/// Once that entry is read, only the matches on its leaf's path to the
/// root can change, and they are replayed without branching on the
/// outcome, which a random interleave would mispredict half the time.
#[derive(Clone, Debug)]
pub struct Merged<'a> {
    diaries: &'a [Diary],
    /// Per leaf.
    heads: Vec<Head>,
    losers: Vec<u32>,
    remaining: usize,
}

impl<'a> Merged<'a> {
    fn new(diaries: &'a [Diary]) -> Self {
        let leaves = diaries.len().next_power_of_two();
        let mut heads = vec![Head::DRAINED; leaves];
        for (leaf, (head, d)) in heads.iter_mut().zip(diaries).enumerate() {
            *head = Head::start(d, leaf);
        }
        // Play every match bottom-up; node `n`'s players are nodes 2n and
        // 2n + 1, leaf `i` is node `leaves + i`.
        let mut losers = vec![0; leaves];
        let mut winners: Vec<u32> = vec![0; 2 * leaves];
        for (leaf, w) in winners[leaves..].iter_mut().enumerate() {
            *w = leaf as u32;
        }
        for n in (1..leaves).rev() {
            let (a, b) = (winners[2 * n], winners[2 * n + 1]);
            let a_first = heads[a as usize].key < heads[b as usize].key;
            (winners[n], losers[n]) = if a_first { (a, b) } else { (b, a) };
        }
        losers[0] = winners[1];
        Merged { diaries, heads, losers, remaining: diaries.iter().map(Diary::len).sum() }
    }
}

impl<'a> Iterator for Merged<'a> {
    type Item = Entry<'a>;

    #[inline]
    fn next(&mut self) -> Option<Entry<'a>> {
        let leaf = self.losers[0] as usize;
        let head = &mut self.heads[leaf];
        if head.key == DONE {
            return None;
        }
        let diaries: &'a [Diary] = self.diaries;
        let d = &diaries[leaf];
        let entry = if head.at_text() {
            head.text += 1;
            head.next_text(d);
            d.text[head.text - 1].entry()
        } else {
            head.device += 1;
            d.device_entry(head.device - 1)
        };
        head.rekey(d, leaf);
        self.remaining -= 1;
        // Replay the leaf's path: at each node the smaller key goes on.
        let (mut winner, mut key) = (leaf as u32, head.key);
        let mut node = (self.heads.len() + leaf) / 2;
        while node > 0 {
            let loser = self.losers[node];
            let loser_key = self.heads[loser as usize].key;
            let swap = loser_key < key;
            self.losers[node] = if swap { winner } else { loser };
            winner = if swap { loser } else { winner };
            key = if swap { loser_key } else { key };
            node /= 2;
        }
        self.losers[0] = winner;
        Some(entry)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Merged<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-device lines exactly as the fleet simulator `format!`ted
    /// them before messages were typed.
    fn legacy(m: &Msg<'_>) -> String {
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
    fn render_text(view: DiaryView<'_>) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for e in view.entries() {
            let message: String = legacy(&e.message);
            let _ = writeln!(out, "[{}] {:8} {:8} {}", e.at, e.severity, e.tier, message);
        }
        out
    }

    const ARMS: [&str; 2] = ["owned-802.15.4", "q\"uote\\back\u{1}ctl"];
    const EVENTS: [DeviceEvent; 3] =
        [DeviceEvent::Failed, DeviceEvent::Replaced, DeviceEvent::WalletExhausted];
    const IDS: [usize; 4] = [0, 9, 10, MAX_TYPED_ID as usize];

    /// Every typed variant × edge-case id, interleaved with free-text
    /// lines, in one diary per awkward arm name.
    fn mixed_diaries() -> Vec<Diary> {
        ARMS.iter()
            .map(|&arm| {
                let mut d = Diary::new(arm);
                d.log(SimTime::ZERO, Severity::Info, Tier::System, "arm 'x' deployed: 3 devices");
                for (k, (event, id)) in
                    EVENTS.iter().flat_map(|e| IDS.iter().map(move |i| (e, i))).enumerate()
                {
                    let at = SimTime::from_secs(k as u64 * 7);
                    d.log_device(at, *id, *event);
                    let text = format!("{arm}: gateway {k} failed");
                    d.log(at, Severity::Incident, Tier::Gateway, text);
                }
                d
            })
            .collect()
    }

    #[test]
    fn typed_messages_render_their_legacy_text() {
        for arm in ARMS {
            for event in EVENTS {
                for id in IDS {
                    let mut d = Diary::new(arm);
                    d.log_device(SimTime::ZERO, id, event);
                    let e = d.entries().next().unwrap();
                    assert!(matches!(e.message, Msg::Device { .. }), "{id} fits the typed id");
                    assert_eq!((e.severity, e.tier), (event.severity(), event.tier()));
                    let text = legacy(&e.message);
                    assert_eq!(e.message.to_string(), text);
                    assert_eq!(e.message.len(), text.len());
                    assert_eq!(e.message, Msg::Text(&text), "typed ≡ its text");
                    assert_ne!(e.message, Msg::Text(&format!("{text}.")));
                }
            }
        }
    }

    #[test]
    fn ids_beyond_the_typed_range_keep_their_text() {
        for id in [MAX_TYPED_ID as usize + 1, u32::MAX as usize] {
            let mut d = Diary::new("arm");
            d.log_device(SimTime::from_secs(3), id, DeviceEvent::WalletExhausted);
            let e = d.entries().next().unwrap();
            assert!(matches!(e.message, Msg::Text(_)));
            let text = format!("arm: device {id} data-credit wallet exhausted");
            assert_eq!(e.message.to_string(), text);
            assert_eq!((e.severity, e.tier), (Severity::Incident, Tier::Backhaul));
        }
    }

    #[test]
    fn mixed_diaries_render_like_the_text_oracle() {
        let diaries = mixed_diaries();
        let view = DiaryView::new(&diaries);
        assert_eq!(view.render(), render_text(view));
        assert!(view.render().contains(&format!("device {MAX_TYPED_ID} replaced")));
    }

    #[test]
    fn a_device_line_costs_twelve_bytes_of_columns() {
        let mut d = Diary::new("arm");
        for k in 0..1000u64 {
            d.log_device(SimTime::from_secs(k), k as usize, EVENTS[k as usize % 3]);
        }
        let bytes =
            core::mem::size_of_val(d.at.as_slice()) + core::mem::size_of_val(d.dev.as_slice());
        assert_eq!(bytes, 12 * 1000);
        assert!(d.text.is_empty(), "device lines never reach the text log");
        assert_eq!(d.len(), 1000);
    }

    #[test]
    fn view_matches_a_stable_sort_of_the_concatenation() {
        // Eight diaries with heavy same-second collisions, device and text
        // lines interleaved (text first, last, and in runs), read through
        // the cursor, against the stable sort of the concatenation.
        let diaries: Vec<Diary> = (0..8u64)
            .map(|arm| {
                let mut d = Diary::new(["a", "b", "c", "d", "e", "f", "g", "h"][arm as usize]);
                for k in 0..40u64 {
                    let at = SimTime::from_secs((k * (arm + 3)) / 5);
                    if (k + arm) % 3 == 0 {
                        d.log(at, Severity::Info, Tier::System, format!("arm{arm}-{k}"));
                    } else {
                        d.log_device(at, k as usize, EVENTS[(k % 3) as usize]);
                    }
                }
                d
            })
            .collect();
        let text = |e: Entry<'_>| (e.at, e.severity, e.message.to_string());
        for k in [0, 1, 2, 3, 5, 8] {
            let view = DiaryView::new(&diaries[..k]);
            let mut oracle: Vec<_> =
                diaries[..k].iter().flat_map(|d| d.entries().map(text)).collect();
            oracle.sort_by_key(|e| e.0);
            let merged = view.entries();
            assert_eq!(merged.len(), oracle.len());
            assert_eq!(merged.map(text).collect::<Vec<_>>(), oracle, "{k} diaries");
        }
        assert!(DiaryView::new(&[]).entries().next().is_none());
    }

    #[test]
    fn log_and_count() {
        let mut d = Diary::new("arm");
        d.log(SimTime::ZERO, Severity::Info, Tier::Device, "deployed");
        d.log_device(SimTime::from_years(1), 3, DeviceEvent::Failed);
        d.log(SimTime::from_years(2), Severity::Incident, Tier::Backhaul, "sunset");
        let view = d.view();
        assert_eq!(view.len(), 3);
        assert_eq!(view.count(Severity::Info), 1);
        assert_eq!(view.count(Severity::Warning), 1);
        assert_eq!(view.count(Severity::Incident), 1);
        assert_eq!(view.count_tier(Tier::Device), 2);
        assert_eq!(view.at_least(Severity::Warning).count(), 2);
        let order: Vec<u64> = d.entries().map(|e| e.at.as_secs()).collect();
        assert!(order.windows(2).all(|w| w[0] <= w[1]), "{order:?}");
    }

    #[test]
    fn severity_orders() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Incident);
    }

    #[test]
    fn render_contains_fields() {
        let mut d = Diary::new("arm");
        d.log(SimTime::from_years(5), Severity::Incident, Tier::Gateway, "gw replaced");
        let text = d.view().render();
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
        let d = Diary::new("arm");
        assert!(d.is_empty());
        assert_eq!(d.view().render(), "");
    }
}
