//! Census oracle: an arm's lifetime observations are a pure function of
//! its diary.
//!
//! `ArmReport::lifetime_observations` derives its censored tail from the
//! device store's columns at the horizon instead of recording it. This
//! suite checks the derivation against an independent replay of each
//! arm's per-device diary lines: a `Failed` line observes the device's
//! age since its last `Replaced` line (or deployment), and every device
//! whose last line is not a failure is censored at its age at the
//! horizon. It covers seeds × {plain, full-intensity chaos} × shard
//! counts {1, 2, 4} × {straight, resumed mid-run}; chaos and resume are
//! the paths that could break the derivation without moving a count.

#![allow(clippy::unwrap_used, clippy::expect_used)] // Test-only target.

use std::num::NonZeroUsize;

use chaos::{FaultPlan, FaultPlanBuilder};
use fleet::run::{Run, Shards, Start};
use fleet::sim::{ArmConfig, FleetConfig, FleetReport, SamplingMode};
use fleet::snapshot;
use simcore::survival::Observation;
use simcore::time::{SimDuration, SimTime};

const SEEDS: [u64; 3] = [1, 7, 42];
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
/// The mid-run checkpoint of the resumed variant: year 12 of 25.
const CHECKPOINT_WEEK: u64 = 626;
const FAILED: &str = " hardware failure (untouched policy: diagnose & replace)";
const REPLACED: &str = " replaced";

/// Four arms with distinct names (the replay keys diary lines by name):
/// three owned arms and the federated one, so `k = 4` gives each arm
/// its own shard.
fn cfg(seed: u64) -> FleetConfig {
    let paper = FleetConfig::paper_experiment(seed);
    let owned = |name: &'static str| ArmConfig { name, ..ArmConfig::paper_owned_154(200, 2) };
    let federated = ArmConfig { devices: 200, ..paper.arms[1].clone() };
    FleetConfig {
        horizon: SimDuration::from_years(25),
        arms: vec![owned("owned-a"), federated, owned("owned-b"), owned("owned-c")],
        ..paper.with_sampling(SamplingMode::Aggregate)
    }
}

fn forced(k: usize) -> Shards {
    Shards::Forced(NonZeroUsize::new(k).unwrap())
}

fn age(installed: SimTime, at: SimTime) -> f64 {
    if at <= installed {
        0.0
    } else {
        at.since(installed).as_years_f64()
    }
}

/// Each arm's lifetime observations, replayed from the diary's
/// rendered lines (typed lines and the text lines a snapshot restores
/// render alike).
fn replay(report: &FleetReport, cfg: &FleetConfig) -> Vec<Vec<Observation>> {
    let horizon = SimTime::ZERO + cfg.horizon;
    let mut installed: Vec<Vec<SimTime>> =
        cfg.arms.iter().map(|a| vec![SimTime::ZERO; a.devices]).collect();
    let mut present: Vec<Vec<bool>> = cfg.arms.iter().map(|a| vec![true; a.devices]).collect();
    let mut failures: Vec<Vec<Observation>> = vec![Vec::new(); cfg.arms.len()];
    for entry in report.diary().entries() {
        let text = entry.message.to_string();
        let Some((name, rest)) = text.split_once(": device ") else { continue };
        let Some(ai) = cfg.arms.iter().position(|a| a.name == name) else { continue };
        let digits = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
        let Ok(di) = rest[..digits].parse::<usize>() else { continue };
        match &rest[digits..] {
            FAILED => {
                assert!(present[ai][di], "{name} device {di} fails twice");
                failures[ai].push(Observation::failed(age(installed[ai][di], entry.at)));
                present[ai][di] = false;
            }
            REPLACED => {
                assert!(!present[ai][di], "{name} device {di} replaced while present");
                installed[ai][di] = entry.at;
                present[ai][di] = true;
            }
            _ => {}
        }
    }
    failures
        .into_iter()
        .enumerate()
        .map(|(ai, mut obs)| {
            for (di, &at) in installed[ai].iter().enumerate() {
                if present[ai][di] {
                    obs.push(Observation::censored(age(at, horizon)));
                }
            }
            obs
        })
        .collect()
}

fn assert_census(report: &FleetReport, cfg: &FleetConfig, what: &str) {
    let want = replay(report, cfg);
    assert_eq!(report.arms.len(), want.len(), "{what}");
    for (arm, want) in report.arms.iter().zip(&want) {
        let got: Vec<Observation> = arm.lifetime_observations().collect();
        assert!(arm.device_failures > 0, "{what}, {}: the run observed failures", arm.name);
        assert_eq!(got.len(), want.len(), "{what}, {}: observation count", arm.name);
        if let Some(i) = got.iter().zip(want).position(|(g, w)| g != w) {
            panic!("{what}, {}: observation {i}: {:?} != replay {:?}", arm.name, got[i], want[i]);
        }
    }
}

fn temp_path(name: String) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("century-census-oracle");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn lifetime_census_matches_a_diary_replay() {
    for seed in SEEDS {
        let chaos_plan = FaultPlanBuilder::full(seed ^ 0xce25).build(&cfg(seed), 1.0).unwrap();
        for (label, plan) in [("plain", FaultPlan::empty()), ("chaos", chaos_plan)] {
            let path = temp_path(format!("{label}-{seed}.snap"));
            let week = SimTime::ZERO + SimDuration::from_weeks(CHECKPOINT_WEEK);
            let _ = fleet::run::checkpoint(cfg(seed), plan.clone(), week, &path).unwrap();
            for k in SHARD_COUNTS {
                let start = Start::Fresh(cfg(seed));
                let report = Run { start, faults: plan.clone(), shards: forced(k) }.execute();
                assert_census(&report, &cfg(seed), &format!("seed {seed}, {label}, k={k}"));
                let resumed = snapshot::resume_from(&path, cfg(seed)).unwrap();
                let start = Start::Resumed(Box::new(resumed));
                let report = Run { start, faults: plan.clone(), shards: forced(k) }.execute();
                let what = format!("seed {seed}, {label}, k={k}, resumed");
                assert_census(&report, &cfg(seed), &what);
            }
            std::fs::remove_file(&path).unwrap();
        }
    }
}
