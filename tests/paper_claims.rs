//! Integration tests pinning every headline number the paper states.
//!
//! Each test names the paper section it reproduces. These are the
//! "EXPERIMENTS.md contract": if a model change breaks one of these, the
//! reproduction has drifted from the paper.

#![allow(clippy::unwrap_used, clippy::expect_used)] // Test-only target.

use century::presets::CityCensus;
use econ::credits::{credits_for_schedule, Wallet};
use econ::labor::recovery_effort_paper;
use econ::money::Usd;
use simcore::rng::Rng;
use simcore::time::SimDuration;

/// §1: "On average, wireless electronics devices are replaced every 50
/// months. On average, a bridge is replaced every 50 years." — a 12x gap.
#[test]
fn s1_lifetime_gap_is_12x() {
    let gap = reliability::mission::paper::lifetime_gap();
    assert!((gap - 12.0).abs() < 1e-9);
}

/// §1: LA has "over 320,000 utility poles, 61,315 intersections, and
/// 210,000 streetlights"; at 20 min/device, recovery needs "nearly
/// 200,000 person-hours".
#[test]
fn s1_la_recovery_effort() {
    let city = CityCensus::los_angeles();
    assert_eq!(city.utility_poles, 320_000);
    assert_eq!(city.intersections, 61_315);
    assert_eq!(city.streetlights, 210_000);
    let hours = recovery_effort_paper(city.total_mounts()).hours();
    assert!(hours > 190_000.0 && hours < 200_000.0, "hours {hours}");
}

/// §2: San Diego "installed 8,000 smart LEDs with 3,300 sensors";
/// deployments run 500-5,000 nodes with 2-7-year upgrade horizons.
#[test]
fn s2_deployment_presets() {
    let sd = century::presets::DeploymentPreset::san_diego();
    assert_eq!((sd.nodes, sd.sensors), (8_000, 3_300));
    assert_eq!(sd.upgrade_horizon_years, (2, 7));
    let typical = century::presets::DeploymentPreset::typical_today();
    assert!((500..=5_000).contains(&typical.nodes));
}

/// §3.3: the fiber/cellular cost structure produces a long-run crossover
/// (San Diego's planned cellular-to-wired transition).
#[test]
fn s33_cellular_crosses_fiber() {
    use backhaul::tech::{BackhaulTech, CellularGen};
    let fiber = BackhaulTech::Fiber.cost_stream(50);
    let cell = BackhaulTech::Cellular(CellularGen::G4).cost_stream(50);
    let y = cell.crossover_year(&fiber).expect("crossover exists");
    assert!(y < 20, "crossover year {y}");
    assert!(fiber.total() < cell.total());
}

/// §3.4: a tipping point always exists where owning beats renting, and it
/// falls with provider risk.
#[test]
fn s34_tipping_point_exists() {
    use econ::tipping::{tipping_fleet_size, Owned, ThirdParty};
    let third = ThirdParty {
        per_device_yearly: Usd::from_dollars(12),
        sunset_rate_per_year: 0.05,
        replacement_per_device: Usd::from_dollars(125),
    };
    let owned = Owned {
        buildout: Usd::from_dollars(500_000),
        yearly_ops: Usd::from_dollars(50_000),
        per_device_yearly: Usd::from_dollars(1),
    };
    let tp = tipping_fleet_size(&third, &owned, 50, 10_000_000).expect("tips");
    assert!(tp.fleet > 100 && tp.fleet < 100_000);
}

/// §4.3 footnote 5: "50% of nodes belong to just ten ASes, but the long
/// tail extends to nearly 200 unique ASes" of 12,400 public gateways.
#[test]
fn s43_helium_as_diversity() {
    let mut rng = Rng::seed_from(777);
    let pop = backhaul::asn::AsPopulation::paper_shaped(&mut rng);
    assert_eq!(pop.total(), 12_400);
    assert!((pop.top_share(10) - 0.50).abs() < 0.03, "{}", pop.top_share(10));
    assert!(pop.observed_ases() >= 185);
}

/// §4.4: "For one device to send one (up to 24-byte) packet every one hour
/// for 50 years will cost 438,000 data credits. We can provision a
/// dedicated wallet today with a conservative 500,000 data credits for
/// just $5 USD."
#[test]
fn s44_credit_arithmetic_exact() {
    let need = credits_for_schedule(24, SimDuration::from_hours(1), SimDuration::from_years(50));
    assert_eq!(need, 438_000);
    let wallet = Wallet::provision_dollars(Usd::from_dollars(5));
    assert_eq!(wallet.balance(), 500_000);
    assert!(wallet.balance() > need);
}

/// §4.4: "the maximum domain lease is 10 years" — the endpoint's one
/// certain recurring event.
#[test]
fn s44_domain_lease_ritual() {
    let ritual = fleet::cloud::Ritual::domain_lease();
    assert_eq!(ritual.period, SimDuration::from_years(10));
}

/// §4's top-level metric: "some data arrives at some interval of time up
/// to once a week" — the experiment sustains it for 50 years with
/// documented maintenance.
#[test]
fn s4_experiment_sustains_weekly_uptime() {
    let report = fleet::sim::FleetSim::run(fleet::sim::FleetConfig::paper_experiment(12345));
    for arm in &report.arms {
        assert!(
            arm.uptime() > 0.95,
            "{} uptime {} too low for a maintained deployment",
            arm.name,
            arm.uptime()
        );
    }
    // §4.4: "The end-to-end system will require maintenance before the
    // fifty year mark."
    assert!(report.diary.count(simcore::trace::Severity::Incident) > 0);
}

/// §4 under sharded execution: splitting the experiment across worker
/// threads (`shard::run_sharded(.., 4)`) must leave every paper number untouched —
/// the E7 AS-diversity exhibit computes identically before and after a
/// sharded run (no cross-thread perturbation of seeded streams), and the
/// sharded experiment itself digests identically to the serial §4 run.
#[test]
fn s4_paper_numbers_unchanged_under_sharded_execution() {
    let before = bench::exhibits::e7::compute(777);
    let serial = fleet::sim::FleetSim::run(fleet::sim::FleetConfig::paper_experiment(12345));
    let sharded =
        fleet::shard::run_sharded(fleet::sim::FleetConfig::paper_experiment(12345), 4)
            .expect("four shards is valid");
    assert_eq!(serial.digest(), sharded.digest(), "sharded §4 run drifted from serial");
    for (s, p) in serial.arms.iter().zip(&sharded.arms) {
        assert_eq!(s.weeks_up, p.weeks_up);
        assert_eq!(s.readings_delivered, p.readings_delivered);
        assert_eq!(s.spend, p.spend);
        assert!(p.uptime() > 0.95, "{} uptime {} under sharding", p.name, p.uptime());
    }
    let after = bench::exhibits::e7::compute(777);
    assert_eq!(before.total, after.total);
    assert_eq!(before.ases, after.ases);
    assert_eq!(before.survivors_without_top10, after.survivors_without_top10);
    assert!(before.top1.to_bits() == after.top1.to_bits());
    assert!(before.top3.to_bits() == after.top3.to_bits());
    assert!(before.top3_isp.to_bits() == after.top3_isp.to_bits());
    assert!(before.top10.to_bits() == after.top10.to_bits());
    assert!(before.hhi.to_bits() == after.hhi.to_bits());
}

/// §1 folklore band: the battery BOM's median life lands in roughly
/// 10-15 years; the harvesting BOM clearly exceeds it.
#[test]
fn s1_folklore_band_and_escape() {
    use reliability::system::bom;
    let env = bom::Environment::default();
    let mut rng = Rng::seed_from(99);
    let median = |b: &reliability::Block, rng: &mut Rng| {
        let mut v: Vec<f64> = (0..4_000).map(|_| b.sample_ttf(rng)).collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        v[v.len() / 2]
    };
    let bat = median(&bom::battery_node(&env), &mut rng);
    let har = median(&bom::harvesting_node(&env), &mut rng);
    assert!(bat > 6.0 && bat < 16.0, "battery median {bat}");
    assert!(har > bat * 1.3, "harvesting {har} vs battery {bat}");
}
