//! Golden-trace regression suite: pinned run digests.
//!
//! Every entry in `tests/golden/digests.txt` is the
//! [`fleet::sim::FleetReport::digest`] of one canonical run — the paper
//! experiment across five seeds, plus the kitchen-sink chaos plan at full
//! intensity, plus the aggregate-sampled 64k-device scaled fleet — next to
//! the FNV-1a of the run's [`export_jsonl`] bytes. The digest folds the
//! ordered diary, spans, per-arm ledgers and the final metric snapshot, so
//! *any* behavioural drift — an extra diary line, a shifted random draw, a
//! changed metric — fails this suite even when the headline numbers happen
//! to agree. The export hash pins the renderer: a JSONL byte that moves
//! without moving the digest (an escaping or number-format slip) fails it
//! too.
//!
//! The aggregate pins are absolute: `aggregate ≡ reference` alone would
//! let a shared table or lifetime block drift in lockstep.
//!
//! [`export_jsonl`]: fleet::sim::FleetReport::export_jsonl
//!
//! After an **intentional** behaviour change, re-bless with
//! `scripts/bless.sh` (or `GOLDEN_BLESS=1 cargo test --test
//! golden_digests`) and review the diff before committing.

#![allow(clippy::unwrap_used, clippy::expect_used)] // Test-only target.

use std::num::NonZeroUsize;

use chaos::{FaultPlan, FaultPlanBuilder};
use fleet::run::{Run, Shards, Start};
use fleet::sim::{FleetConfig, FleetReport, FleetSim, SamplingMode};
use simcore::time::SimDuration;
use telemetry::Digest;

const GOLDEN_PATH: &str = "tests/golden/digests.txt";
const SEEDS: [u64; 5] = [1, 2, 3, 42, 1001];
const AGGREGATE_SEEDS: [u64; 2] = [1, 7];
const AGGREGATE_DEVICES: usize = 64_000;

/// One golden line: the run digest and the FNV-1a of its JSONL export.
fn pin(name: String, report: &FleetReport) -> (String, u64, u64) {
    let mut export = Digest::new();
    export.write_bytes(report.export_jsonl().as_bytes());
    (name, report.digest(), export.finish())
}

fn current_digests() -> Vec<(String, u64, u64)> {
    let mut out = Vec::new();
    for seed in SEEDS {
        let report = FleetSim::run(FleetConfig::paper_experiment(seed));
        out.push(pin(format!("paper_experiment/seed={seed}"), &report));
    }
    let cfg = FleetConfig::paper_experiment(42);
    let plan = FaultPlanBuilder::full(42).build(&cfg, 1.0).expect("intensity 1.0 is valid");
    let report = chaos::run_with_plan(cfg, plan.clone());
    out.push(pin("paper_experiment/seed=42/chaos=full@1.0".to_string(), &report));
    // Sharded-execution pins (k=4): identical values to the serial pins
    // above by the bit-identity contract, recorded separately so a drift
    // confined to the sharded path cannot hide behind a healthy serial
    // run. Forced shards: the 20-device paper fleet is below the
    // small-fleet serial fallback, and these pins exist to pin the real
    // multi-shard machinery.
    let four = Shards::Forced(NonZeroUsize::new(4).expect("four shards is valid"));
    let start = Start::Fresh(FleetConfig::paper_experiment(1));
    let report = Run { start, faults: FaultPlan::empty(), shards: four }.execute();
    out.push(pin("paper_experiment/seed=1/shards=4".to_string(), &report));
    let start = Start::Fresh(FleetConfig::paper_experiment(42));
    let report = Run { start, faults: plan, shards: four }.execute();
    out.push(pin("paper_experiment/seed=42/chaos=full@1.0/shards=4".to_string(), &report));
    // The aggregate path the 1M-device benchmark runs, at a size a debug
    // test affords: 16 arms × 4,000 devices over two years.
    for seed in AGGREGATE_SEEDS {
        let name = format!("scaled/devices={AGGREGATE_DEVICES}/years=2/aggregate/seed={seed}");
        let report = FleetSim::run(aggregate_cfg(seed));
        out.push(pin(name.clone(), &report));
        let plan = FaultPlanBuilder::full(seed)
            .build(&aggregate_cfg(seed), 1.0)
            .expect("intensity 1.0 is valid");
        let report = chaos::run_with_plan(aggregate_cfg(seed), plan);
        out.push(pin(format!("{name}/chaos=full@1.0"), &report));
        let start = Start::Fresh(aggregate_cfg(seed));
        let report = Run { start, faults: FaultPlan::empty(), shards: four }.execute();
        out.push(pin(format!("{name}/shards=4"), &report));
    }
    out
}

fn aggregate_cfg(seed: u64) -> FleetConfig {
    FleetConfig {
        horizon: SimDuration::from_years(2),
        ..FleetConfig::scaled(seed, AGGREGATE_DEVICES).with_sampling(SamplingMode::Aggregate)
    }
}

fn render(digests: &[(String, u64, u64)]) -> String {
    let mut s = String::from(
        "# Golden run digests and export FNV-1a hashes. Regenerate with\n\
         # scripts/bless.sh after an intentional behaviour change, and review\n\
         # the diff.\n",
    );
    for (name, d, export) in digests {
        s.push_str(&format!("{name} {d:016x} export={export:016x}\n"));
    }
    s
}

#[test]
fn run_digests_match_golden() {
    let rendered = render(&current_digests());
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::write(&path, &rendered).expect("write golden digests");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{GOLDEN_PATH} unreadable ({e}); run scripts/bless.sh"));
    assert_eq!(
        golden, rendered,
        "run digests drifted from {GOLDEN_PATH}. If the behaviour change is \
         intentional, re-bless with scripts/bless.sh and review the diff."
    );
}

#[test]
fn digest_ignores_wall_clock_profile() {
    // Two runs of one seed differ in wall-clock nanos but must share a
    // digest: the contract that keeps golden traces platform-stable.
    let a = FleetSim::run(FleetConfig::paper_experiment(5));
    let b = FleetSim::run(FleetConfig::paper_experiment(5));
    assert_eq!(a.digest(), b.digest());
    assert!(a.profile.run_nanos > 0 && b.profile.run_nanos > 0);
}
