//! Same-second tie order under arm-local device events.
//!
//! Under aggregate sampling each arm holds its own pending device events
//! and the engine queue holds only the arm's earliest one (DESIGN.md
//! §13). Each held event carries the sequence number reserved when the
//! per-event path would have scheduled it, so a tie must resolve exactly
//! as the Reference path, which queues every event, resolves it. Ties are
//! rare — event times are whole seconds drawn from continuous laws — so
//! the fixture below was found by scanning Reference diaries over seeds.
//! It covers four kinds of tie, and the test asserts that each kind is
//! present, so it cannot pass vacuously:
//!
//! * [`Tie::Tick`] — a device event on a `weekly-check` or `yearly-tick`
//!   second: whichever dispatches first decides whether that week's
//!   evaluation sees the device;
//! * [`Tie::Infra`] — a device event at the same second as a gateway or
//!   provider event of the same arm: their order is the order of the
//!   arm's diary lines, a text line placed among its device lines;
//! * [`Tie::Device`] — two device events of one arm at the same second:
//!   the due list must merge its sources by sequence number;
//! * [`Tie::Arms`] — lines of two arms at the same second: the report's
//!   diary cursor must read them in ascending arm order.
//!
//! For every fixture entry: the diary cursor ≡ a stable sort by time of
//! the per-arm diaries, aggregate ≡ reference, k ∈ {2, 4} ≡ serial, and
//! a resume at each tie's week ≡ the straight run, by run digest and
//! export FNV-1a. A resumed run's lines from before the checkpoint come
//! back from the snapshot as text lines and must read as the typed ones.
//! A checkpoint at a tick tie's week is taken at the tie's own second,
//! with both tied events pending, one queued and one held.

#![allow(clippy::unwrap_used, clippy::expect_used)] // Test-only target.

use std::num::NonZeroUsize;

use chaos::FaultPlan;
use fleet::run::{Run, Shards, Start};
use fleet::sim::{ArmConfig, FleetConfig, FleetReport, FleetSim, SamplingMode};
use fleet::snapshot::{self, ChaosProgress};
use simcore::snapshot::fnv1a;
use simcore::time::{SimDuration, SimTime, WEEK, YEAR};
use simcore::trace::{Entry, Msg, Severity, Tier};

/// Distinct arm names, so a diary line names the arm it came from.
const ARMS: [&str; 4] = ["tie-a", "tie-b", "tie-c", "tie-d"];

/// `(seed, devices per arm, gateways per arm, years)`, each found by
/// scanning seeds 1–150 at 10,000 devices and 500 single-homed gateways
/// per arm over 10 years; the horizon is cut to just past the ties
/// (device and gateway event times do not depend on it).
const FIXTURE: [(u64, usize, usize, u64); 3] = [
    // Tick ties in weeks 20 and 22 (a failure, then its replacement), an
    // infra tie in week 99.
    (118, 10_000, 500, 2),
    // Device ties in weeks 5 and 7.
    (24, 10_000, 500, 1),
    // Lines of two arms at one second in weeks 1 and 3 (a failure in
    // each, then both replacements).
    (12, 10_000, 500, 1),
];

fn config(seed: u64, devices: usize, gateways: usize, years: u64) -> FleetConfig {
    FleetConfig {
        seed,
        horizon: SimDuration::from_years(years),
        // Many single-homed gateways per arm make gateway events common
        // enough to tie with a device event.
        arms: ARMS
            .iter()
            .map(|&name| ArmConfig {
                name,
                dual_homed_fraction: 0.0,
                ..ArmConfig::paper_owned_154(devices, gateways)
            })
            .collect(),
        sampling: SamplingMode::Aggregate,
        ..FleetConfig::paper_experiment(seed)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tie {
    Tick,
    Infra,
    Device,
    Arms,
}

/// Every tie in `report`'s diary, as `(kind, second, arm)`; an
/// [`Tie::Arms`] tie names the first of the arms that share the second.
fn ties(report: &FleetReport) -> Vec<(Tie, u64, &'static str)> {
    let entries: Vec<Entry<'_>> = report.diary().entries().collect();
    let mut out = Vec::new();
    for (i, first) in entries.iter().enumerate() {
        if i > 0 && entries[i - 1].at == first.at {
            continue;
        }
        let t = first.at.as_secs();
        let same_second = entries[i..].iter().take_while(|e| e.at == first.at);
        let (mut devices, mut infra, mut lines) = (Vec::new(), Vec::new(), Vec::new());
        for e in same_second {
            let text = e.message.to_string();
            let Some(&arm) = ARMS.iter().find(|a| text.starts_with(&format!("{a}: "))) else {
                continue;
            };
            lines.push(arm);
            match e.message {
                Msg::Device { .. } => devices.push(arm),
                Msg::Text(text) => {
                    let infra_line = text.contains(": gateway ")
                        || text.contains(": backhaul provider terminated service")
                        || text.contains(": replacement backhaul commissioned");
                    if infra_line {
                        infra.push(arm);
                    }
                }
            }
        }
        for arm in ARMS {
            let n = devices.iter().filter(|&&a| a == arm).count();
            if n > 0 && t > 0 && (t % WEEK == 0 || t % YEAR == 0) {
                out.push((Tie::Tick, t, arm));
            }
            if n > 0 && infra.contains(&arm) {
                out.push((Tie::Infra, t, arm));
            }
            if n > 1 {
                out.push((Tie::Device, t, arm));
            }
        }
        if lines.iter().any(|&arm| arm != lines[0]) {
            out.push((Tie::Arms, t, lines[0]));
        }
    }
    out
}

/// The diary as the stable sort by time of every arm's lines in arm
/// order: the order the report's merged-on-read cursor must reproduce.
fn stable_sorted(report: &FleetReport) -> Vec<(SimTime, Severity, Tier, String)> {
    let line = |e: Entry<'_>| (e.at, e.severity, e.tier, e.message.to_string());
    let mut lines: Vec<_> = report.diaries.iter().flat_map(|d| d.entries().map(line)).collect();
    lines.sort_by_key(|l| l.0);
    lines
}

/// The run digest and the FNV-1a of the JSONL export.
fn pin(report: &FleetReport) -> (u64, u64) {
    (report.digest(), fnv1a(report.export_jsonl().as_bytes()))
}

fn run(cfg: FleetConfig, shards: usize) -> FleetReport {
    let shards = Shards::Forced(NonZeroUsize::new(shards).unwrap());
    Run { start: Start::Fresh(cfg), faults: FaultPlan::empty(), shards }.execute()
}

/// Runs `cfg` to `at`, snapshots, drops the engine, resumes from the
/// bytes alone and runs to the horizon.
fn resumed_at(cfg: FleetConfig, at: SimTime) -> FleetReport {
    let mut engine = FleetSim::build(cfg.clone());
    engine.run_until(at);
    let bytes = snapshot::checkpoint_bytes(&mut engine, ChaosProgress::default());
    drop(engine);
    let resumed = snapshot::resume_from_bytes(&bytes, cfg).unwrap();
    let start = Start::Resumed(Box::new(resumed));
    Run { start, faults: FaultPlan::empty(), shards: Shards::SERIAL }.execute()
}

#[test]
fn same_second_ties_resolve_as_on_the_per_event_path() {
    let mut kinds = Vec::new();
    for (seed, devices, gateways, years) in FIXTURE {
        let cfg = || config(seed, devices, gateways, years);
        let what = format!("seed {seed}, {devices} devices x {gateways} gateways, {years} y");
        let reference = FleetSim::run(cfg().with_sampling(SamplingMode::Reference));
        let found = ties(&reference);
        assert!(!found.is_empty(), "{what}: the fixture entry has no tie");
        kinds.extend(found.iter().map(|&(kind, _, _)| kind));

        let serial = FleetSim::run(cfg());
        let line = |e: Entry<'_>| (e.at, e.severity, e.tier, e.message.to_string());
        let read: Vec<_> = serial.diary().entries().map(line).collect();
        assert!(read == stable_sorted(&serial), "{what}: the diary cursor ≢ a stable sort");
        assert_eq!(pin(&reference), pin(&serial), "{what}: aggregate ≢ reference");
        assert_eq!(serial.events_processed, reference.events_processed, "{what}");
        assert_eq!(ties(&serial), found, "{what}: the aggregate diary ties differently");
        for k in [2, 4] {
            assert_eq!(pin(&run(cfg(), k)), pin(&serial), "{what}: k = {k} ≢ serial");
        }
        for &(kind, t, arm) in &found {
            let at = SimTime::from_secs(t / WEEK * WEEK);
            let resumed = resumed_at(cfg(), at);
            // The lines logged before the checkpoint come back as text.
            let restored = resumed.diary().entries().filter(|e| matches!(e.message, Msg::Text(_)));
            let logged = serial.diary().entries().filter(|e| e.at < at).count();
            assert!(restored.count() >= logged, "{what}: restored lines are text");
            assert!(resumed.diary().entries().map(line).eq(read.iter().cloned()), "{what}");
            assert_eq!(
                pin(&resumed),
                pin(&serial),
                "{what}: resume at week {} ≢ straight run ({kind:?} tie of {arm} at {t} s)",
                t / WEEK
            );
        }
    }
    for kind in [Tie::Tick, Tie::Infra, Tie::Device, Tie::Arms] {
        assert!(kinds.contains(&kind), "the fixture holds no {kind:?} tie");
    }
}

