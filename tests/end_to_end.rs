//! End-to-end integration: the whole stack, seed to report.

#![allow(clippy::unwrap_used, clippy::expect_used)] // Test-only target.

use century::scenario::Scenario;
use fleet::sim::{ArmConfig, FleetConfig, FleetSim};
use simcore::time::SimDuration;
use simcore::trace::Tier;

#[test]
fn full_run_is_deterministic_across_the_stack() {
    let a = FleetSim::run(FleetConfig::paper_experiment(31337));
    let b = FleetSim::run(FleetConfig::paper_experiment(31337));
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.diary.len(), b.diary.len());
    for (x, y) in a.diary.entries().iter().zip(b.diary.entries()) {
        assert_eq!(x.at, y.at);
        assert_eq!(x.message, y.message);
    }
    for (x, y) in a.arms.iter().zip(&b.arms) {
        assert_eq!(x.readings_delivered, y.readings_delivered);
        assert_eq!(x.weeks_up, y.weeks_up);
        assert_eq!(x.spend, y.spend);
        assert_eq!(x.labor.hours(), y.labor.hours());
    }
}

#[test]
fn adding_an_arm_does_not_perturb_existing_arms() {
    // Per-entity RNG streams: arm 0's trajectory must be identical whether
    // or not arm 1 exists (common-random-number comparisons depend on it).
    let mut one = FleetConfig::paper_experiment(555);
    one.arms.truncate(1);
    let solo = FleetSim::run(one);
    let both = FleetSim::run(FleetConfig::paper_experiment(555));
    assert_eq!(
        solo.arms[0].device_failures, both.arms[0].device_failures,
        "arm-0 device failures must not depend on arm 1's existence"
    );
    assert_eq!(solo.arms[0].gateway_repairs, both.arms[0].gateway_repairs);
}

#[test]
fn horizon_scales_weeks_evaluated() {
    let mut cfg = FleetConfig::paper_experiment(9);
    cfg.horizon = SimDuration::from_years(10);
    let report = FleetSim::run(cfg);
    assert_eq!(report.arms[0].weeks_total, 10 * 365 / 7);
}

#[test]
fn scenario_roundtrip() {
    let scenario = Scenario {
        name: "integration".to_string(),
        fleet: FleetConfig {
            horizon: SimDuration::from_years(25),
            arms: vec![ArmConfig::paper_owned_154(6, 2)],
            ..FleetConfig::paper_experiment(77)
        },
        ..Scenario::paper_experiment(77)
    };
    let report = scenario.run();
    assert_eq!(report.arms.len(), 1);
    assert_eq!(report.arms[0].weeks_total, 25 * 365 / 7);
    assert!(report.arms[0].uptime() > 0.9);
}

#[test]
fn diary_covers_multiple_tiers_over_fifty_years() {
    let report = Scenario::paper_experiment(2).run();
    let d = &report.diary;
    assert!(d.count_tier(Tier::Device) > 0, "device events expected");
    assert!(d.count_tier(Tier::Gateway) > 0, "gateway events expected");
    assert!(d.count_tier(Tier::System) > 0, "deployment log expected");
}

#[test]
fn unmaintained_fleet_darkens_maintained_fleet_does_not() {
    let mut dark = FleetConfig::paper_experiment(400);
    for arm in &mut dark.arms {
        arm.replace_devices = None;
    }
    let dark = FleetSim::run(dark);
    let lit = FleetSim::run(FleetConfig::paper_experiment(400));
    for (d, l) in dark.arms.iter().zip(&lit.arms) {
        assert!(d.uptime() < l.uptime(), "{}: {} !< {}", d.name, d.uptime(), l.uptime());
        assert_eq!(d.device_replacements, 0);
        assert!(l.device_replacements > 0);
    }
}

#[test]
fn simulated_diary_supports_field_analysis() {
    // The full loop: run the experiment, pool the observed device
    // lifetimes across seeds, and fit a Weibull — the workflow a real
    // operator of the paper's experiment would run at year 50.
    let mut obs = Vec::new();
    for seed in 0..6 {
        let report = FleetSim::run(FleetConfig::paper_experiment(seed));
        obs.extend(report.arms[0].lifetime_observations());
    }
    assert!(obs.len() > 100, "pooled observations: {}", obs.len());
    let fit = reliability::fit::fit_weibull(&obs).expect("enough failures to fit");
    // The harvesting BOM's effective life is on the order of a decade-plus;
    // the fit should land in a sane band with a wear-out-ish shape.
    assert!(fit.shape > 0.7 && fit.shape < 4.0, "shape {}", fit.shape);
    assert!(fit.scale > 5.0 && fit.scale < 40.0, "scale {}", fit.scale);
    let km = simcore::survival::KaplanMeier::fit(&obs);
    assert!(km.median().is_some(), "most devices fail within 50 years");
}

#[test]
fn shorter_report_interval_multiplies_expected_readings() {
    let mut cfg = FleetConfig::paper_experiment(5);
    cfg.horizon = SimDuration::from_years(2);
    cfg.arms.truncate(1);
    let hourly = FleetSim::run(cfg.clone());
    cfg.arms[0].device_spec.report_interval = SimDuration::from_mins(30);
    let half_hourly = FleetSim::run(cfg);
    assert_eq!(
        half_hourly.arms[0].readings_expected,
        hourly.arms[0].readings_expected * 2
    );
}
