//! Quickstart: run the paper's 50-year experiment and read the results.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use century::{audit, readiness_score, DesignPosture};
use fleet::sim::{FleetConfig, FleetSim};
use simcore::trace::Severity;

fn main() {
    // The §4 experiment: 10 energy-harvesting, transmit-only sensors per
    // arm. Arm 1 uses our own 802.15.4 gateways on a campus backhaul;
    // arm 2 rides the Helium network with $5 prepaid data-credit wallets.
    let posture = DesignPosture::paper_experiment();

    // First: does the design satisfy the paper's principles?
    let violations = audit(&posture);
    println!(
        "century-readiness: {:.0}% ({} violations)",
        readiness_score(&posture) * 100.0,
        violations.len()
    );

    // Then: fifty years of simulated operation.
    let report = FleetSim::run(FleetConfig::paper_experiment(42));
    println!("\n=== after 50 simulated years ===");
    for arm in &report.arms {
        println!(
            "{:<16} weekly uptime {:>6.2}%   data yield {:>6.2}%   {} device failures, {} gateway repairs",
            arm.name,
            arm.uptime() * 100.0,
            arm.data_yield() * 100.0,
            arm.device_failures,
            arm.gateway_repairs,
        );
        println!(
            "{:<16} labor {:.0} person-hours, total spend {}",
            "", arm.labor.hours(), arm.spend
        );
    }

    // The paper commits to publishing a maintenance diary (§4.5); here it is.
    println!(
        "\ndiary: {} entries, {} interventions; first five:",
        report.diary().len(),
        report.diary().count(Severity::Incident)
    );
    for entry in report.diary().at_least(Severity::Incident).take(5) {
        println!("  [{}] {}", entry.at, entry.message);
    }

    // The run digest pins this exact trace (the golden-digest suite
    // regression-tests these); the engine profile shows the event mix.
    println!("\nrun digest: {:016x}", report.digest());
    let p = &report.profile;
    print!("engine: {} events dispatched —", p.total_dispatched());
    for (kind, count) in p.dispatches() {
        print!(" {kind}:{count}");
    }
    println!();
    // The wall-clock profile field (run_nanos) varies run to run and is
    // deliberately not printed: quickstart output stays byte-identical
    // across invocations, like every seeded surface.
    println!("engine: queue high-water {}", p.queue_high_water);
}
