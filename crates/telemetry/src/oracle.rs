//! Test-only oracles for the typed diary: the text each typed message
//! stood for before messages were typed, and diaries that exercise every
//! typed variant next to free text.

use simcore::time::SimTime;
use simcore::trace::{DeviceEvent, Diary, Msg, Severity, Tier};

/// The per-device lines exactly as the fleet simulator `format!`ted them.
pub(crate) fn legacy(m: &Msg) -> String {
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

/// `diary` with every message stored as its legacy text.
pub(crate) fn text_twin(diary: &Diary) -> Diary {
    let mut twin = Diary::new();
    for e in diary.entries() {
        twin.log(e.at, e.severity, e.tier, legacy(&e.message));
    }
    twin
}

/// Every typed variant × ids 0, 9, 10 and `u32::MAX` × a plain and an
/// escape-heavy arm name, interleaved with free-text lines that need
/// escaping too.
pub(crate) fn mixed_diary() -> Diary {
    const ARMS: [&str; 2] = ["owned-802.15.4", "q\"uote\\back\u{1}ctl"];
    const EVENTS: [DeviceEvent; 3] =
        [DeviceEvent::Failed, DeviceEvent::Replaced, DeviceEvent::WalletExhausted];
    let mut d = Diary::new();
    d.log(SimTime::ZERO, Severity::Info, Tier::System, "arm 'x' deployed: 3 devices");
    let mut k = 0u64;
    for arm in ARMS {
        for event in EVENTS {
            for id in [0, 9, 10, u32::MAX as usize] {
                let at = SimTime::from_secs(k * 7);
                d.log(at, Severity::Warning, Tier::Device, Msg::device(arm, id, event));
                d.log(at, Severity::Incident, Tier::Backhaul, format!("{arm}: \"line\"\t{k}\n"));
                k += 1;
            }
        }
    }
    d
}
