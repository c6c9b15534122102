//! Differential harness for sharded execution: the tentpole's
//! correctness gate.
//!
//! A sharded [`fleet::run::Run`] promises a run digest **bit-identical** to
//! the serial run for every seed and every shard count — with and without
//! fault injection. This suite grinds that promise against 8 seeds ×
//! k ∈ {1, 2, 3, 8} × {plain, full-intensity chaos}, mirroring the
//! queue-vs-heap differential test that guarded the timing-wheel swap:
//! the serial path is the reference implementation, the sharded path is
//! the optimisation under test, and the digest (ordered diary, spans,
//! per-arm ledgers, metric snapshot) is the equivalence oracle.

#![allow(clippy::unwrap_used, clippy::expect_used)] // Test-only target.

use std::num::NonZeroUsize;

use chaos::{FaultPlan, FaultPlanBuilder};
use fleet::run::{Run, Shards, Start};
use fleet::shard::SERIAL_FALLBACK_DEVICES;
use fleet::sim::{FleetConfig, FleetSim, SamplingMode};
use fleet::FleetReport;
use simcore::time::SimDuration;

const SEEDS: [u64; 8] = [1, 2, 3, 7, 42, 97, 1001, 0xdead_beef];
const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];

fn nonzero(k: usize) -> NonZeroUsize {
    NonZeroUsize::new(k).unwrap()
}

/// A fresh plain run forced across `k` shards.
fn split_run(cfg: FleetConfig, k: usize) -> FleetReport {
    let shards = Shards::Forced(nonzero(k));
    Run { start: Start::Fresh(cfg), faults: FaultPlan::empty(), shards }.execute()
}

#[test]
fn sharded_digest_matches_serial_across_seeds_and_k() {
    for seed in SEEDS {
        let serial = FleetSim::run(FleetConfig::paper_experiment(seed));
        for k in SHARD_COUNTS {
            // Forced: the 20-device paper fleet sits below the
            // small-fleet serial fallback, and this suite exists to
            // exercise the real multi-shard machinery.
            let sharded = split_run(FleetConfig::paper_experiment(seed), k);
            assert_eq!(
                serial.digest(),
                sharded.digest(),
                "seed {seed}, k={k}: sharded digest drifted from serial"
            );
            // The digest already folds these, but name the usual suspects
            // so a failure pinpoints itself.
            assert_eq!(serial.events_processed, sharded.events_processed, "seed {seed}, k={k}");
            assert_eq!(serial.diary.len(), sharded.diary.len(), "seed {seed}, k={k}");
            assert_eq!(serial.spans.len(), sharded.spans.len(), "seed {seed}, k={k}");
        }
    }
}

#[test]
fn sharded_digest_matches_serial_under_full_intensity_chaos() {
    for seed in SEEDS {
        let cfg = FleetConfig::paper_experiment(seed);
        let plan = FaultPlanBuilder::full(seed ^ 0xc4a0).build(&cfg, 1.0).unwrap();
        let serial = chaos::run_with_plan(cfg, plan.clone());
        for k in SHARD_COUNTS {
            let sharded = Run {
                start: Start::Fresh(FleetConfig::paper_experiment(seed)),
                faults: plan.clone(),
                shards: Shards::Forced(nonzero(k)),
            }
            .execute();
            assert_eq!(
                serial.digest(),
                sharded.digest(),
                "seed {seed}, k={k}, chaos=full@1.0: sharded digest drifted from serial"
            );
        }
    }
    // Auto mode above the serial-fallback threshold: a 16-arm aggregate
    // fleet of exactly SERIAL_FALLBACK_DEVICES devices really splits, so
    // its fault routing runs across two shards.
    let mut cfg = FleetConfig::scaled(7, SERIAL_FALLBACK_DEVICES as usize)
        .with_sampling(SamplingMode::Aggregate);
    cfg.horizon = SimDuration::from_years(1);
    let plan = FaultPlanBuilder::full(7 ^ 0xc4a0).build(&cfg, 1.0).unwrap();
    assert!(!plan.is_empty(), "a year of full chaos over 16 arms fires faults");
    let serial = chaos::run_with_plan(cfg.clone(), plan.clone());
    let auto = Run { start: Start::Fresh(cfg), faults: plan, shards: Shards::Auto(nonzero(2)) }
        .execute();
    assert_eq!(serial.digest(), auto.digest(), "auto k=2 above the fallback threshold drifted");
    assert_eq!(serial.events_processed, auto.events_processed, "auto k=2 event count");
}

#[test]
fn sharded_profile_dispatch_counts_match_serial() {
    // events_processed equality is necessary but could mask compensating
    // errors; the per-kind dispatch breakdown must match too.
    let serial = FleetSim::run(FleetConfig::paper_experiment(11));
    let sharded = split_run(FleetConfig::paper_experiment(11), 2);
    for &(kind, n) in serial.profile.dispatches() {
        assert_eq!(
            sharded.profile.count(kind),
            n,
            "dispatch count for '{kind}' drifted under sharding"
        );
    }
    assert_eq!(
        serial.profile.total_dispatched(),
        sharded.profile.total_dispatched()
    );
}

#[test]
fn oversharded_run_still_matches_serial() {
    // k far beyond the arm count: surplus shards sit empty and the
    // degenerate split must not perturb anything.
    let serial = FleetSim::run(FleetConfig::paper_experiment(3));
    let sharded = split_run(FleetConfig::paper_experiment(3), 64);
    assert_eq!(serial.digest(), sharded.digest());
}
