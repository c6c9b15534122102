//! Golden-trace regression suite: pinned run digests.
//!
//! Every entry in `tests/golden/digests.txt` is the
//! [`fleet::sim::FleetReport::digest`] of one canonical run — the paper
//! experiment across five seeds, plus the kitchen-sink chaos plan at full
//! intensity. The digest folds the ordered diary, spans, per-arm ledgers
//! and the final metric snapshot, so *any* behavioural drift — an extra
//! diary line, a shifted random draw, a changed metric — fails this suite
//! even when the headline numbers happen to agree.
//!
//! After an **intentional** behaviour change, re-bless with
//! `scripts/bless.sh` (or `GOLDEN_BLESS=1 cargo test --test
//! golden_digests`) and review the diff before committing.

#![allow(clippy::unwrap_used, clippy::expect_used)] // Test-only target.

use std::num::NonZeroUsize;

use chaos::{FaultPlan, FaultPlanBuilder};
use fleet::run::{Run, Shards, Start};
use fleet::sim::{FleetConfig, FleetSim};

const GOLDEN_PATH: &str = "tests/golden/digests.txt";
const SEEDS: [u64; 5] = [1, 2, 3, 42, 1001];

fn current_digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for seed in SEEDS {
        let report = FleetSim::run(FleetConfig::paper_experiment(seed));
        out.push((format!("paper_experiment/seed={seed}"), report.digest()));
    }
    let cfg = FleetConfig::paper_experiment(42);
    let plan = FaultPlanBuilder::full(42).build(&cfg, 1.0).expect("intensity 1.0 is valid");
    let report = chaos::run_with_plan(cfg, plan.clone());
    out.push(("paper_experiment/seed=42/chaos=full@1.0".to_string(), report.digest()));
    // Sharded-execution pins (k=4): identical values to the serial pins
    // above by the bit-identity contract, recorded separately so a drift
    // confined to the sharded path cannot hide behind a healthy serial
    // run. Forced shards: the 20-device paper fleet is below the
    // small-fleet serial fallback, and these pins exist to pin the real
    // multi-shard machinery.
    let four = Shards::Forced(NonZeroUsize::new(4).expect("four shards is valid"));
    let start = Start::Fresh(FleetConfig::paper_experiment(1));
    let report = Run { start, faults: FaultPlan::empty(), shards: four }.execute();
    out.push(("paper_experiment/seed=1/shards=4".to_string(), report.digest()));
    let start = Start::Fresh(FleetConfig::paper_experiment(42));
    let report = Run { start, faults: plan, shards: four }.execute();
    out.push(("paper_experiment/seed=42/chaos=full@1.0/shards=4".to_string(), report.digest()));
    out
}

fn render(digests: &[(String, u64)]) -> String {
    let mut s = String::from(
        "# Golden run digests. Regenerate with scripts/bless.sh after an\n\
         # intentional behaviour change, and review the diff.\n",
    );
    for (name, d) in digests {
        s.push_str(&format!("{name} {d:016x}\n"));
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
