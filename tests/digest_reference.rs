//! The run digest against its byte-wise reference.
//!
//! [`FleetReport::digest`] folds a typed diary line's fixed wording
//! through tables once the wording recurs, and a run of identical census
//! records in O(log n) steps. Neither may move a bit: each case here
//! compares the digest with the byte-wise fold of the same report
//! (`crates/fleet/src/sim/bytewise_digest.rs`, included by path), on the
//! shapes that reach each path — the aggregate golden configs (long
//! census runs, wording tables), the Legacy paper experiment (scattered
//! survivors, short runs, small diaries), a diary of free text and typed
//! lines with awkward arm names, and an arm with no devices.

#![allow(clippy::unwrap_used, clippy::expect_used)] // Test-only target.

use std::num::NonZeroUsize;

use chaos::{FaultPlan, FaultPlanBuilder};
use fleet::run::{Run, Shards, Start};
use fleet::sim::{ArmConfig, FleetConfig, FleetReport, FleetSim, SamplingMode};
use simcore::time::{SimDuration, SimTime};
use simcore::trace::{DeviceEvent, Diary, Severity, Tier};

#[path = "../crates/fleet/src/sim/bytewise_digest.rs"]
mod bytewise_digest;

use bytewise_digest::bytewise_digest;

/// The aggregate golden shape: 16 arms × 4,000 devices over two years.
fn aggregate_cfg(seed: u64) -> FleetConfig {
    FleetConfig {
        horizon: SimDuration::from_years(2),
        ..FleetConfig::scaled(seed, 64_000).with_sampling(SamplingMode::Aggregate)
    }
}

/// The longest run of identical consecutive lifetime observations of
/// any arm.
fn longest_census_run(report: &FleetReport) -> usize {
    let mut longest = 0;
    for arm in &report.arms {
        let mut last = None;
        let mut n = 0;
        for o in arm.lifetime_observations() {
            let key = (o.time.to_bits(), o.event);
            n = if last == Some(key) { n + 1 } else { 1 };
            last = Some(key);
            longest = longest.max(n);
        }
    }
    longest
}

fn assert_reference(report: &FleetReport, what: &str) {
    assert_eq!(report.digest(), bytewise_digest(report), "{what}: digest ≢ byte-wise fold");
}

#[test]
fn aggregate_golden_configs_fold_like_the_byte_loop() {
    let four = Shards::Forced(NonZeroUsize::new(4).unwrap());
    let plain = FleetSim::run(aggregate_cfg(1));
    // Each arm's never-failed cohort is one long run, and the typed lines
    // recur far past the table threshold: both fast paths run.
    assert!(longest_census_run(&plain) > 3_000, "{}", longest_census_run(&plain));
    assert!(plain.diary().len() > 5_000, "{}", plain.diary().len());
    assert_reference(&plain, "plain");

    let plan = FaultPlanBuilder::full(1).build(&aggregate_cfg(1), 1.0).unwrap();
    assert_reference(&chaos::run_with_plan(aggregate_cfg(1), plan), "full chaos");

    let start = Start::Fresh(aggregate_cfg(1));
    let sharded = Run { start, faults: FaultPlan::empty(), shards: four }.execute();
    assert_reference(&sharded, "4 shards");
}

#[test]
fn legacy_paper_experiment_folds_like_the_byte_loop() {
    for seed in [1, 2, 3, 42] {
        let report = FleetSim::run(FleetConfig::paper_experiment(seed));
        assert_reference(&report, &format!("paper seed {seed}"));
    }
}

#[test]
fn free_text_and_awkward_arm_names_fold_like_the_byte_loop() {
    // Arm names that share an address and differ in length (one is a
    // prefix of the other), one with quotes and control bytes, each
    // recurring past the table threshold, between free-text lines with
    // quotes. Counts 255, 256 and 257 straddle the threshold.
    const LONG: &str = "owned\"-802.15.4\\q";
    let arms: [&'static str; 3] = [&LONG[..5], LONG, "q\"uote\\back\u{1}ctl"];
    let events = [DeviceEvent::Failed, DeviceEvent::Replaced, DeviceEvent::WalletExhausted];
    for lines in [255, 256, 257, 700] {
        let mut report = FleetSim::run(FleetConfig::paper_experiment(5));
        let mut diaries: Vec<Diary> = arms.iter().map(|&arm| Diary::new(arm)).collect();
        for k in 0..lines {
            // Every arm logs at each second, so every line ties across arms.
            let at = SimTime::from_secs(k as u64 / 3 * 3);
            let arm = k % arms.len();
            let event = events[(k / 2) % events.len()];
            let device = [0, 9, 10, 12_345, u32::MAX as usize][k % 5];
            diaries[arm].log_device(at, device, event);
            if k % 4 == 0 {
                let text = format!("{}: \"gw {k}\"\t", arms[arm]);
                diaries[arm].log(at, Severity::Incident, Tier::Backhaul, text);
            }
        }
        report.diaries = diaries;
        assert_reference(&report, &format!("{lines} typed lines"));
    }
}

#[test]
fn an_arm_without_devices_folds_like_the_byte_loop() {
    for sampling in [SamplingMode::Legacy, SamplingMode::Aggregate] {
        let cfg = FleetConfig {
            horizon: SimDuration::from_years(3),
            arms: vec![ArmConfig::paper_owned_154(0, 2), ArmConfig::paper_owned_154(300, 2)],
            ..FleetConfig::paper_experiment(9).with_sampling(sampling)
        };
        let report = FleetSim::run(cfg);
        assert_eq!(report.arms[0].lifetime_observations().count(), 0);
        assert_reference(&report, &format!("{sampling:?}"));
    }
}
