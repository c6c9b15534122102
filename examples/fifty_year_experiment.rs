//! The 50-year experiment, replicated: Monte-Carlo over deployment seeds.
//!
//! The paper commences a single physical run; simulation lets us ask what
//! the *distribution* of outcomes looks like over twenty alternate
//! histories, and what the maintenance diary of a typical one contains.
//!
//! ```text
//! cargo run --release --example fifty_year_experiment
//! ```

use century::experiment::{run_replicated, ParallelError};
use century::metrics::labor_per_device_decade;
use fleet::sim::FleetConfig;
use simcore::trace::{Severity, Tier};

fn main() -> Result<(), ParallelError> {
    let replicates = 20;
    println!("=== 50-year experiment x {replicates} seeds ===\n");
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out = run_replicated(&FleetConfig::paper_experiment, 2021, replicates, threads)?;

    for arm in &out.arms {
        let mut uptime = arm.uptime.clone();
        let mut labor = arm.labor_hours.clone();
        println!("arm: {}", arm.name);
        println!(
            "  weekly uptime: mean {:.2}%  [min {:.2}%, max {:.2}%]",
            uptime.mean() * 100.0,
            uptime.quantile(0.0).unwrap_or(0.0) * 100.0,
            uptime.quantile(1.0).unwrap_or(0.0) * 100.0,
        );
        println!(
            "  device failures/run: {:.1}   gateway repairs/run: {:.1}",
            arm.device_failures.mean(),
            arm.gateway_repairs.mean()
        );
        println!(
            "  labor: {:.0} h/run (median {:.0} h)   spend: ${:.0}/run",
            arm.labor_hours.mean(),
            labor.median().unwrap_or(0.0),
            arm.spend_dollars.mean()
        );
        println!();
    }

    // Per-device-decade labor: the paper's "no human attention" ideal
    // measured against reality.
    println!("labor per device-decade (exemplar run):");
    for arm in &out.exemplar.arms {
        println!(
            "  {:<16} {:.2} person-hours",
            arm.name,
            labor_per_device_decade(arm, 10, 50.0)
        );
    }

    // Where did the interventions land in the hierarchy?
    let diary = out.exemplar.diary();
    println!("\nexemplar diary: {} entries", diary.len());
    for tier in [Tier::Device, Tier::Gateway, Tier::Backhaul, Tier::Cloud, Tier::System] {
        println!("  {:<9} {:>4} entries", tier.to_string(), diary.count_tier(tier));
    }
    println!("\nlast three interventions of the exemplar half-century:");
    let incidents: Vec<_> = diary.at_least(Severity::Incident).collect();
    for e in incidents.iter().rev().take(3).rev() {
        println!("  [{}] {}", e.at, e.message);
    }
    Ok(())
}
