//! LA storm: a geometric storm cell sweeping a 320,000-pole city.
//!
//! The paper's motivating census is Los Angeles — 320k utility poles —
//! and its §3 failure stories are spatial: weather does not take down
//! "arm 3", it takes down everything under a disc. This example builds
//! the full-size pole deployment, resolves which gateways hear which
//! poles through the spatial grid (DESIGN.md §14 — the same index that
//! makes the city resolvable in ~a second instead of minutes), then
//! drives a seeded storm cell across the city and reports the coverage
//! lost underneath it, hour by hour.
//!
//! Stdout is pure JSONL (one `{"type":"storm_step",…}` object per hour,
//! same serde-free dialect as `telemetry::jsonl`); the human summary
//! goes to stderr, so the timeline pipes cleanly into standard tooling:
//!
//! ```text
//! cargo run --release --example la_storm > storm.jsonl
//! ```

use net::coverage::{resolve, RadioParams};
use net::link::ReceptionModel;
use net::pathloss::LogDistance;
use net::topology::{AssetKind, ManhattanCity, Point};
use net::units::Dbm;
use net::SpatialGrid;
use simcore::rng::Rng;

const SEED: u64 = 0x1a_5702;

/// LA pole census (topology.rs module docs).
const POLES: usize = 320_000;

/// Storm disc radius and track length, city defaults matching
/// `chaos::geo::GeoStormBuilder::city`: a 400 m cell, and knockouts
/// outlast the 24 h sweep (72 h truck-roll), so nothing recovers
/// mid-track — losses only accumulate.
const STORM_RADIUS_M: f64 = 400.0;
const SWEEP_HOURS: usize = 24;

/// Street-asset radio at 2.4 GHz — the parameter set whose ~1.1 km cull
/// radius makes the grid resolve city-scale-fast (see the 320k-pole
/// tests in `tests/grid_differential.rs`).
fn radio() -> RadioParams {
    RadioParams {
        tx: Dbm(12.0),
        rx_model: ReceptionModel::at_sensitivity(net::ieee802154::SENSITIVITY),
        pathloss: LogDistance::urban_2450(),
        usable_margin_db: 3.0,
    }
}

fn main() {
    let city = ManhattanCity::with_poles(POLES);
    let n = city.bx;
    let (w, h) = city.extent();
    let mut poles: Vec<Point> = city
        .assets()
        .into_iter()
        .filter(|a| a.kind == AssetKind::UtilityPole)
        .map(|a| a.at)
        .collect();
    poles.truncate(POLES);
    let gateways = city.gateway_grid(300.0);
    eprintln!(
        "city: {n}x{n} blocks ({:.1} x {:.1} km), {} poles, {} gateways",
        w / 1e3,
        h / 1e3,
        poles.len(),
        gateways.len()
    );

    // Calm-weather reliance structure, resolved through the grid.
    let params = radio();
    let cov = resolve(&poles, &gateways, &params, &mut Rng::seed_from(SEED));
    let covered_total =
        cov.device_gateways.iter().filter(|g| !g.is_empty()).count();
    eprintln!(
        "calm coverage: {:.1}% of poles ({} of {}), mean redundancy {:.2}",
        cov.covered_fraction() * 100.0,
        covered_total,
        poles.len(),
        cov.mean_redundancy()
    );

    // A seeded storm track: enter on the west edge at a random latitude,
    // cross east at ~1 km/h-of-step with a wandering heading. The disc
    // selects its victims through the same spatial grid the resolver
    // uses — an O(candidates) query per step, never a city scan.
    let grid = SpatialGrid::build(&poles, STORM_RADIUS_M.max(1.0));
    let mut rng = Rng::seed_from(SEED ^ 0x0057_0211);
    let step_m = (w + 2.0 * STORM_RADIUS_M) / SWEEP_HOURS as f64;
    let mut x = -STORM_RADIUS_M;
    let mut y = rng.next_f64() * h;
    let mut knocked = vec![false; poles.len()];
    let mut victims: Vec<u32> = Vec::new();
    let mut covered_out = 0usize;

    for hour in 0..SWEEP_HOURS {
        grid.within_into(Point::new(x, y), STORM_RADIUS_M, &mut victims);
        let mut new_hits = 0usize;
        for &v in &victims {
            let v = v as usize;
            if !knocked[v] {
                knocked[v] = true;
                new_hits += 1;
                if !cov.device_gateways[v].is_empty() {
                    covered_out += 1;
                }
            }
        }
        let coverage_now =
            (covered_total - covered_out) as f64 / poles.len() as f64;
        println!(
            "{{\"type\":\"storm_step\",\"hour\":{hour},\"x_m\":{x:.0},\"y_m\":{y:.0},\
             \"new_knockouts\":{new_hits},\"covered_knocked_out\":{covered_out},\
             \"coverage_fraction\":{coverage_now:.4}}}"
        );
        // Wander: mostly east, drifting north/south a few hundred meters.
        x += step_m;
        y = (y + (rng.next_f64() - 0.5) * 800.0).clamp(0.0, h);
    }

    let knocked_total = knocked.iter().filter(|&&k| k).count();
    eprintln!(
        "after the sweep: {knocked_total} poles knocked out, coverage \
         {:.1}% -> {:.1}% ({covered_out} covered poles silenced)",
        cov.covered_fraction() * 100.0,
        (covered_total - covered_out) as f64 / poles.len() as f64 * 100.0
    );
    eprintln!(
        "takeaway: a single 400 m storm cell crossing town silences ~{}k \
         poles for a 72 h truck-roll window — geometry, not arm scopes, \
         decides who goes dark (chaos::geo plans exactly this).",
        knocked_total / 1000
    );
}
