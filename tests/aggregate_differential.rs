//! Differential harness for aggregate weekly sampling: the statistics
//! correctness gate.
//!
//! The aggregate path (`SamplingMode::Aggregate`, DESIGN.md §13) replaces
//! the per-device weekly loop with population-level draws: one binomial
//! total per path cohort, rank-ordered share division, and bulk wallet
//! burns over the federated column. Its contract is *exact* equality with
//! the per-device reference implementation (`SamplingMode::Reference`),
//! which recomputes everything naively — fresh participant scans, row
//! materialization, scalar wallet round-trips, per-device histogram
//! observes. The two share only the cohort RNG splits and the binomial
//! sampler, so digest equality proves the aggregate bookkeeping (the
//! incremental alive census, the stuck-device correction, the batched
//! burns and observes) — not merely that both call the same code.
//!
//! The grind mirrors `tests/shard_differential.rs`: 8 seeds ×
//! {plain, full-intensity chaos} × shard counts {1, 4}, comparing run
//! digests plus the specific ledgers the aggregate path batches: weekly
//! uptime, delivery counts, and wallet-exhaustion tallies (with their
//! diary weeks). Two scale points of the 16-arm `FleetConfig::scaled`
//! fleet (2k devices × 10 y at k = 4, 100k × 5 y at k = 8) run the same
//! sharded ≡ serial ≡ reference wall at sizes the paper fleet never
//! reaches.

#![allow(clippy::unwrap_used, clippy::expect_used)] // Test-only target.

use std::num::NonZeroUsize;

use chaos::{FaultPlan, FaultPlanBuilder};
use fleet::run::{Run, Shards, Start};
use fleet::sim::{FleetConfig, FleetReport, FleetSim, SamplingMode};
use simcore::time::SimDuration;

const SEEDS: [u64; 8] = [1, 2, 3, 7, 42, 97, 1001, 0xdead_beef];
const SHARD_COUNTS: [usize; 2] = [1, 4];

fn cfg(seed: u64, sampling: SamplingMode) -> FleetConfig {
    FleetConfig::paper_experiment(seed).with_sampling(sampling)
}

/// A fresh run of `cfg` under `faults`, forced across `k` shards.
fn run_forced(cfg: FleetConfig, faults: FaultPlan, k: usize) -> FleetReport {
    let shards = Shards::Forced(NonZeroUsize::new(k).unwrap());
    Run { start: Start::Fresh(cfg), faults, shards }.execute()
}

/// The wall of equality the differential demands: the full digest, plus
/// the individually named ledgers the issue calls out so a failure names
/// the drifted quantity instead of just "digest mismatch".
fn assert_equivalent(agg: &FleetReport, reference: &FleetReport, ctx: &str) {
    assert_eq!(agg.arms.len(), reference.arms.len(), "{ctx}: arm count");
    for (a, r) in agg.arms.iter().zip(reference.arms.iter()) {
        assert_eq!(a.weeks_up, r.weeks_up, "{ctx}: '{}' weekly uptime ledger", a.name);
        assert_eq!(a.weeks_total, r.weeks_total, "{ctx}: '{}' weeks evaluated", a.name);
        assert_eq!(
            a.readings_delivered, r.readings_delivered,
            "{ctx}: '{}' delivery count",
            a.name
        );
        assert_eq!(
            a.readings_expected, r.readings_expected,
            "{ctx}: '{}' expected readings",
            a.name
        );
        assert_eq!(
            a.wallets_exhausted, r.wallets_exhausted,
            "{ctx}: '{}' wallet exhaustions",
            a.name
        );
    }
    // Wallet-exhaustion *weeks*: the diary timestamps, not just tallies.
    let exhaustion_weeks = |report: &FleetReport| -> Vec<(u64, String)> {
        report
            .diary()
            .entries()
            .map(|e| (e.at.as_secs(), e.message.to_string()))
            .filter(|(_, message)| message.contains("wallet exhausted"))
            .collect()
    };
    assert_eq!(
        exhaustion_weeks(agg),
        exhaustion_weeks(reference),
        "{ctx}: wallet-exhaustion diary weeks"
    );
    assert_eq!(
        agg.events_processed, reference.events_processed,
        "{ctx}: events processed"
    );
    assert_eq!(agg.digest(), reference.digest(), "{ctx}: run digest");
}

#[test]
fn aggregate_matches_reference_plain_across_seeds_and_k() {
    for seed in SEEDS {
        let reference = FleetSim::run(cfg(seed, SamplingMode::Reference));
        for k in SHARD_COUNTS {
            let agg = if k == 1 {
                FleetSim::run(cfg(seed, SamplingMode::Aggregate))
            } else {
                // Forced: the paper fleet sits below the small-fleet
                // serial fallback, and this suite wants the real
                // multi-shard aggregate path.
                run_forced(cfg(seed, SamplingMode::Aggregate), FaultPlan::empty(), k)
            };
            assert_equivalent(&agg, &reference, &format!("seed {seed}, plain, k={k}"));
        }
    }
}

#[test]
fn aggregate_matches_reference_under_full_chaos_across_seeds_and_k() {
    for seed in SEEDS {
        // The fault plan is built once against the aggregate config and
        // replayed verbatim into both modes: same faults, same instants.
        let plan = FaultPlanBuilder::full(seed ^ 0xa66e)
            .build(&cfg(seed, SamplingMode::Aggregate), 1.0)
            .unwrap();
        let reference = chaos::run_with_plan(cfg(seed, SamplingMode::Reference), plan.clone());
        for k in SHARD_COUNTS {
            let agg = if k == 1 {
                chaos::run_with_plan(cfg(seed, SamplingMode::Aggregate), plan.clone())
            } else {
                run_forced(cfg(seed, SamplingMode::Aggregate), plan.clone(), k)
            };
            assert_equivalent(&agg, &reference, &format!("seed {seed}, chaos=full@1.0, k={k}"));
        }
    }
}

#[test]
fn sharded_aggregate_matches_serial_aggregate() {
    // The shard differential, re-run over the aggregate path: splitting
    // an aggregate run across workers must not move a single draw.
    for seed in [1_u64, 42] {
        let serial = FleetSim::run(cfg(seed, SamplingMode::Aggregate));
        for k in [2_usize, 4, 8] {
            let sharded = run_forced(cfg(seed, SamplingMode::Aggregate), FaultPlan::empty(), k);
            assert_eq!(
                sharded.digest(),
                serial.digest(),
                "seed {seed}, k={k}: sharded aggregate digest drifted from serial"
            );
        }
    }
}

/// One scale point: `devices` in the 16-arm scaled fleet over `years`,
/// forced across `k` shards (`Shards::Auto` would run the 2k point
/// serially, below the 50k fallback), must equal the serial aggregate
/// run, which must equal the per-device reference oracle.
fn assert_scale_point(devices: usize, years: u64, k: usize) {
    let scaled = |sampling| {
        let mut cfg = FleetConfig::scaled(0, devices).with_sampling(sampling);
        cfg.horizon = SimDuration::from_years(years);
        cfg
    };
    let serial = FleetSim::run(scaled(SamplingMode::Aggregate));
    let sharded = run_forced(scaled(SamplingMode::Aggregate), FaultPlan::empty(), k);
    let reference = FleetSim::run(scaled(SamplingMode::Reference));
    let ctx = format!("scaled {devices} devices x {years} y");
    assert_equivalent(&sharded, &serial, &format!("{ctx}, k={k} vs serial"));
    assert_equivalent(&serial, &reference, &format!("{ctx}, serial vs reference"));
}

#[test]
fn scaled_2k_fleet_sharded_matches_serial_and_reference() {
    assert_scale_point(2_000, 10, 4);
}

#[test]
fn scaled_100k_fleet_sharded_matches_serial_and_reference() {
    assert_scale_point(100_000, 5, 8);
}

#[test]
fn aggregate_differs_from_legacy_sampling() {
    // Sanity that the differential is not vacuous at the mode level:
    // aggregate draws come from a different RNG discipline than the
    // legacy per-device loop, so the two must disagree somewhere across
    // these seeds. (Aggregate ≡ Reference is the contract; Aggregate ≡
    // Legacy would mean the new path never actually ran.)
    let disagrees = SEEDS.iter().any(|&seed| {
        let legacy = FleetSim::run(cfg(seed, SamplingMode::Legacy));
        let agg = FleetSim::run(cfg(seed, SamplingMode::Aggregate));
        legacy.digest() != agg.digest()
    });
    assert!(disagrees, "aggregate sampling never diverged from legacy — mode switch inert?");
}
