//! Fifty years under a storm-heavy fault regime.
//!
//! Sweeps the chaos intensity knob over the paper experiment and prints
//! the degraded-uptime table: how the owned and federated arms hold up
//! as correlated outages, backhaul flaps and wedged firmware pile on.
//! The same seed drives every run (common random numbers), so the
//! columns are directly comparable and uptime falls monotonically.
//!
//! ```text
//! cargo run --release --example storm_half_century
//! ```

use chaos::FaultPlanBuilder;
use fleet::sim::FleetConfig;

fn main() {
    let seed = 2021;
    let cfg = FleetConfig::paper_experiment(seed);
    let builder = FaultPlanBuilder::storm_heavy(seed);
    let intensities = [0.0, 0.25, 0.5, 0.75, 1.0];

    println!("=== 50-year experiment under storm-heavy chaos (seed {seed}) ===\n");
    println!(
        "{:<10} {:>7} {:>9} {:>13} {:>13} {:>12}",
        "intensity", "faults", "arm", "uptime", "data yield", "weeks up"
    );

    let mut last: Option<Vec<f64>> = None;
    for intensity in intensities {
        #[allow(clippy::expect_used)]
        let plan = builder
            .build(&cfg, intensity)
            // simlint: allow(P001, demo binary; intensities are in [0,1] by construction)
            .expect("intensities are in [0,1] by construction");
        let n_faults = plan.len();
        let report = chaos::run_with_plan(cfg.clone(), plan);

        let uptimes: Vec<f64> = report.arms.iter().map(|a| a.uptime()).collect();
        for (i, arm) in report.arms.iter().enumerate() {
            println!(
                "{:<10} {:>7} {:>9} {:>12.1}% {:>12.1}% {:>8}/{}",
                if i == 0 { format!("{intensity:.2}") } else { String::new() },
                if i == 0 { n_faults.to_string() } else { String::new() },
                arm.name.split('-').next().unwrap_or(arm.name),
                arm.uptime() * 100.0,
                arm.data_yield() * 100.0,
                arm.weeks_up,
                arm.weeks_total,
            );
        }
        if let Some(prev) = &last {
            for (p, u) in prev.iter().zip(&uptimes) {
                assert!(u <= p, "uptime rose with intensity — CRN discipline broken");
            }
        }
        last = Some(uptimes);
        println!();
    }

    // Show what a storm actually looks like in the §4.5 diary.
    #[allow(clippy::expect_used)]
    // simlint: allow(P001, demo binary; 1.0 is a valid intensity)
    let plan = builder.build(&cfg, 1.0).expect("valid intensity");
    let report = chaos::run_with_plan(cfg, plan);
    println!("first chaos entries of the full-intensity diary:");
    for line in report
        .diary()
        .render()
        .lines()
        .filter(|l| l.contains("chaos:"))
        .take(8)
    {
        println!("  {line}");
    }
    let total = report
        .diary()
        .render()
        .lines()
        .filter(|l| l.contains("chaos:"))
        .count();
    println!("  ... {total} chaos entries in total");
}
