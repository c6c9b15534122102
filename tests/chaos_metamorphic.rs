//! Metamorphic properties of the chaos-injection subsystem.
//!
//! Three relations, all on a fixed seed so failures replay exactly:
//!
//! 1. **Never aborts** — a full-intensity kitchen-sink fault schedule
//!    runs the 50-year experiment to the horizon without panicking, and
//!    every scheduled fault lands in the diary.
//! 2. **Monotone degradation** — under the storm-heavy preset (faults
//!    that zero a path rather than scale it), per-arm weekly uptime is
//!    non-increasing in fault intensity, because plans nest by intensity
//!    and the simulation holds its random streams fixed (CRN).
//! 3. **Zero intensity is a no-op** — a zero-intensity plan produces a
//!    diary byte-identical to running without any plan at all.
//!
//! The same three relations also hold for *geometric* storm plans
//! ([`chaos::geo::GeoStormBuilder`]), whose faults are per-device
//! knockouts selected by a storm disc through the spatial grid — the
//! fourth test runs the combined schedule (arm-scoped + geometric) and
//! checks the same contracts.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use chaos::geo::GeoStormBuilder;
use chaos::{run_with_plan, Fault, FaultPlan, FaultPlanBuilder};
use fleet::geometry::FleetGeometry;
use fleet::sim::{FleetConfig, FleetSim};

const SEED: u64 = 0xC4A0_5EED;

#[test]
fn full_intensity_storms_never_abort_and_are_fully_diarised() {
    let cfg = FleetConfig::paper_experiment(SEED);
    let plan = FaultPlanBuilder::full(SEED).build(&cfg, 1.0).unwrap();
    let n = plan.len() as u64;
    assert!(n > 100, "a kitchen-sink half-century should be busy, got {n}");

    let report = run_with_plan(cfg, plan);

    // The run reached the horizon: every week was evaluated.
    for arm in &report.arms {
        assert_eq!(arm.weeks_total, 50 * 365 / 7, "{}", arm.name);
    }
    // Every fault was applied and recorded.
    let injected: u64 = report.arms.iter().map(|a| a.faults_injected).sum();
    assert_eq!(injected, n);
    let chaos_lines = report
        .diary()
        .render()
        .lines()
        .filter(|l| l.contains("chaos:"))
        .count() as u64;
    assert_eq!(chaos_lines, n);
}

#[test]
fn weekly_uptime_is_monotone_in_storm_intensity() {
    let cfg = FleetConfig::paper_experiment(SEED);
    let builder = FaultPlanBuilder::storm_heavy(SEED);
    let intensities = [0.0, 0.25, 0.5, 0.75, 1.0];

    let runs: Vec<_> = intensities
        .iter()
        .map(|&i| {
            let plan = builder.build(&cfg, i).unwrap();
            (i, run_with_plan(cfg.clone(), plan))
        })
        .collect();

    for pair in runs.windows(2) {
        let (lo_i, lo) = &pair[0];
        let (hi_i, hi) = &pair[1];
        for (a, b) in lo.arms.iter().zip(&hi.arms) {
            assert!(
                b.weeks_up <= a.weeks_up,
                "{}: intensity {hi_i} has {} weeks up, intensity {lo_i} only {}",
                a.name,
                b.weeks_up,
                a.weeks_up
            );
            assert!(
                b.readings_delivered <= a.readings_delivered,
                "{}: deliveries must not rise with intensity",
                a.name
            );
            assert!(b.faults_injected >= a.faults_injected, "{}", a.name);
        }
    }
    // The sweep is not vacuous: full intensity really hurts.
    let calm = &runs[0].1;
    let wild = &runs[runs.len() - 1].1;
    for (c, w) in calm.arms.iter().zip(&wild.arms) {
        assert!(
            w.weeks_up < c.weeks_up,
            "{}: a 50-year storm regime must cost at least one week",
            c.name
        );
    }
}

/// A combined schedule: the storm-heavy arm-scoped plan merged with a
/// geometric storm plan at the same intensity.
fn combined_plan(cfg: &FleetConfig, intensity: f64) -> FaultPlan {
    let arm_scoped = FaultPlanBuilder::storm_heavy(SEED).build(cfg, intensity).unwrap();
    let geo = FleetGeometry::for_config(cfg);
    let geometric = GeoStormBuilder::city(SEED ^ 0x6e0)
        .build(cfg, &geo, intensity)
        .unwrap();
    let mut all: Vec<Fault> = arm_scoped.faults().to_vec();
    all.extend_from_slice(geometric.faults());
    FaultPlan::from_faults(all)
}

#[test]
fn geometric_storms_obey_the_same_metamorphic_contracts() {
    let cfg = FleetConfig::paper_experiment(SEED);

    // Never aborts + fully diarised at full intensity.
    let full = combined_plan(&cfg, 1.0);
    let n = full.len() as u64;
    assert!(n > 100, "combined half-century schedule should be busy, got {n}");
    let wild = run_with_plan(cfg.clone(), full);
    for arm in &wild.arms {
        assert_eq!(arm.weeks_total, 50 * 365 / 7, "{}", arm.name);
    }
    let injected: u64 = wild.arms.iter().map(|a| a.faults_injected).sum();
    assert_eq!(injected, n);

    // Monotone degradation: geometric knockouts zero paths too, so CRN
    // plus nested plans keeps uptime non-increasing in intensity.
    let calm = run_with_plan(cfg.clone(), combined_plan(&cfg, 0.0));
    let mid = run_with_plan(cfg.clone(), combined_plan(&cfg, 0.5));
    for ((c, m), w) in calm.arms.iter().zip(&mid.arms).zip(&wild.arms) {
        assert!(m.weeks_up <= c.weeks_up, "{}", c.name);
        assert!(w.weeks_up <= m.weeks_up, "{}", c.name);
        assert!(w.readings_delivered <= c.readings_delivered, "{}", c.name);
    }

    // Zero intensity is a no-op.
    let plain = FleetSim::run(cfg.clone());
    assert_eq!(plain.digest(), calm.digest());
}

#[test]
fn zero_intensity_plan_is_byte_identical_to_no_plan() {
    let cfg = FleetConfig::paper_experiment(SEED);
    let plan = FaultPlanBuilder::full(SEED).build(&cfg, 0.0).unwrap();
    assert!(plan.is_empty());

    let plain = FleetSim::run(cfg.clone());
    let zeroed = run_with_plan(cfg, plan);
    let empty = run_with_plan(FleetConfig::paper_experiment(SEED), FaultPlan::empty());

    assert_eq!(plain.diary().render(), zeroed.diary().render());
    assert_eq!(plain.diary().render(), empty.diary().render());
    assert_eq!(plain.events_processed, zeroed.events_processed);
    for (a, b) in plain.arms.iter().zip(&zeroed.arms) {
        assert_eq!(a.weeks_up, b.weeks_up);
        assert_eq!(a.readings_delivered, b.readings_delivered);
        assert_eq!(a.spend, b.spend);
        assert_eq!(b.faults_injected, 0);
    }
}
