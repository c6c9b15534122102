//! Differential proof: grid-backed resolvers ≡ pairwise oracles, bit for
//! bit.
//!
//! The spatial-grid rewrite (DESIGN.md §14) claims more than speed: with
//! per-pair keyed shadowing streams and a provable cull radius
//! ([`RadioParams::cull_radius_m`]), skipping out-of-range pairs must
//! change *nothing* — not one draw, not one tie-break, not one byte of
//! output. This harness pins that claim across 8 seeds × 2 densities ×
//! 2 radio parameter sets for all four rewritten hot paths (coverage,
//! mesh, placement, interference neighborhoods), comparing full
//! structures and their digests against the `reference-mode` oracles.
//! Coverage is also pinned on LA-shaped Manhattan cities: a 20k-pole city
//! in every run, and the full 320k-pole census in two ignored tests (a
//! release-build wall-clock budget for the grid resolve, and the ~3 min
//! pairwise differential), run as
//! `cargo test --release --test grid_differential <name> -- --ignored`.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::time::{Duration, Instant};

use net::coverage::{resolve, resolve_pairwise, RadioParams};
use net::interference::{co_sf_neighborhoods, co_sf_neighborhoods_pairwise};
use net::link::ReceptionModel;
use net::lora::SpreadingFactor;
use net::mesh::{resolve_mesh, resolve_mesh_pairwise};
use net::pathloss::LogDistance;
use net::placement::{greedy_placement, greedy_placement_pairwise};
use net::topology::{uniform_scatter, AssetKind, ManhattanCity, Point};
use net::units::Dbm;
use net::{ieee802154, SpatialGrid};
use simcore::rng::Rng;

const SEEDS: [u64; 8] = [101, 102, 103, 104, 105, 106, 107, 108];

/// (label, devices per km² scaled into the fixed test extent).
const DENSITIES: [(&str, usize); 2] = [("sparse", 150), ("dense", 600)];

const EXTENT_M: f64 = 4_000.0;

/// The LA utility-pole census (net::topology module docs).
const LA_POLES: usize = 320_000;

/// Wall-clock budget for the grid resolve of the 320k-pole city in a
/// release build (measured ~1.9 s on a 2-core host).
const LA_GRID_BUDGET: Duration = Duration::from_secs(20);

fn radio_sets() -> Vec<(&'static str, RadioParams)> {
    vec![
        (
            "lora-915",
            RadioParams {
                tx: Dbm(14.0),
                rx_model: ReceptionModel::at_sensitivity(
                    SpreadingFactor::Sf10.sensitivity_125khz(),
                ),
                pathloss: LogDistance::urban_915(),
                usable_margin_db: 3.0,
            },
        ),
        (
            "154-2450",
            RadioParams {
                tx: Dbm(12.0),
                rx_model: ReceptionModel::at_sensitivity(ieee802154::SENSITIVITY),
                pathloss: LogDistance::urban_2450(),
                usable_margin_db: 3.0,
            },
        ),
    ]
}

/// The street-asset 2.4 GHz set, whose cull radius is a small fraction
/// of a city extent.
fn street_radio() -> RadioParams {
    radio_sets().remove(1).1
}

/// The first `poles` utility poles of the smallest square Manhattan city
/// that holds them, with a 300 m gateway lattice.
fn la_city(poles: usize) -> (Vec<Point>, Vec<Point>) {
    let city = ManhattanCity::with_poles(poles);
    let mut devices: Vec<Point> = city
        .assets()
        .into_iter()
        .filter(|a| a.kind == AssetKind::UtilityPole)
        .map(|a| a.at)
        .collect();
    devices.truncate(poles);
    (devices, city.gateway_grid(300.0))
}

fn assert_la_city_grid_equals_pairwise(poles: usize) {
    let (devices, gateways) = la_city(poles);
    assert_eq!(devices.len(), poles);
    let params = street_radio();
    let grid = resolve(&devices, &gateways, &params, &mut Rng::seed_from(0));
    let oracle = resolve_pairwise(&devices, &gateways, &params, &mut Rng::seed_from(0));
    let ctx = format!("LA city, {poles} poles");
    assert_eq!(grid.device_gateways, oracle.device_gateways, "{ctx}");
    assert_eq!(grid.gateway_load, oracle.gateway_load, "{ctx}");
    assert_eq!(grid.digest(), oracle.digest(), "{ctx}");
    assert!(grid.covered_fraction() > 0.0, "{ctx}: vacuous scene — nothing covered");
}

fn scene(seed: u64, devices: usize, gateways: usize) -> (Vec<Point>, Vec<Point>) {
    let mut rng = Rng::seed_from(seed);
    let d = uniform_scatter(devices, EXTENT_M, EXTENT_M, &mut rng);
    let g = uniform_scatter(gateways, EXTENT_M, EXTENT_M, &mut rng);
    (d, g)
}

#[test]
fn coverage_grid_equals_pairwise_across_seeds_densities_radios() {
    for &seed in &SEEDS {
        for &(dlabel, density) in &DENSITIES {
            let n = density * 4;
            let (devices, gateways) = scene(seed, n, n / 40 + 4);
            for (rlabel, params) in radio_sets() {
                let ctx = format!("seed {seed} {dlabel} {rlabel}");
                let grid = resolve(&devices, &gateways, &params, &mut Rng::seed_from(seed));
                let oracle =
                    resolve_pairwise(&devices, &gateways, &params, &mut Rng::seed_from(seed));
                assert_eq!(grid.device_gateways, oracle.device_gateways, "{ctx}");
                assert_eq!(grid.gateway_load, oracle.gateway_load, "{ctx}");
                assert_eq!(grid.digest(), oracle.digest(), "{ctx}");
                assert!(
                    grid.covered_fraction() > 0.0,
                    "{ctx}: vacuous scene — nothing covered"
                );
            }
        }
    }
}

#[test]
fn coverage_grid_equals_pairwise_on_a_20k_pole_city() {
    assert_la_city_grid_equals_pairwise(20_000);
}

#[test]
#[ignore = "320k-pole wall-clock budget; meaningful only in a release build"]
fn coverage_grid_resolves_the_320k_pole_city_within_budget() {
    let (devices, gateways) = la_city(LA_POLES);
    let t0 = Instant::now();
    let grid = resolve(&devices, &gateways, &street_radio(), &mut Rng::seed_from(0));
    let took = t0.elapsed();
    assert!(
        took <= LA_GRID_BUDGET,
        "grid resolve of {LA_POLES} poles took {took:?}, over the {LA_GRID_BUDGET:?} budget"
    );
    assert!(grid.covered_fraction() > 0.0, "vacuous scene — nothing covered");
}

#[test]
#[ignore = "the pairwise oracle takes ~3 min at 320k poles in a release build"]
fn coverage_grid_equals_pairwise_on_the_320k_pole_city() {
    assert_la_city_grid_equals_pairwise(LA_POLES);
}

#[test]
fn mesh_grid_equals_pairwise_across_seeds_and_radios() {
    // Smaller populations: the oracle's dev-links pass is O(n²).
    for &seed in &SEEDS {
        for &(dlabel, base) in &DENSITIES {
            let n = base / 2 + 50;
            let (devices, gateways) = scene(seed ^ 0xa5a5, n, 4);
            for (rlabel, params) in radio_sets() {
                let ctx = format!("seed {seed} {dlabel} {rlabel}");
                let grid =
                    resolve_mesh(&devices, &gateways, &params, 4, &mut Rng::seed_from(seed));
                let oracle = resolve_mesh_pairwise(
                    &devices,
                    &gateways,
                    &params,
                    4,
                    &mut Rng::seed_from(seed),
                );
                assert_eq!(grid.hops, oracle.hops, "{ctx}");
                assert_eq!(grid.parent, oracle.parent, "{ctx}");
                assert_eq!(grid.relay_load, oracle.relay_load, "{ctx}");
                assert_eq!(grid.digest(), oracle.digest(), "{ctx}");
            }
        }
    }
}

#[test]
fn placement_grid_equals_pairwise_across_seeds() {
    for &seed in &SEEDS {
        let (devices, candidates) = scene(seed ^ 0x1111, 600, 60);
        for (rlabel, params) in radio_sets() {
            let ctx = format!("seed {seed} {rlabel}");
            let grid = greedy_placement(
                &devices,
                &candidates,
                &params,
                0.9,
                &mut Rng::seed_from(seed),
            );
            let oracle = greedy_placement_pairwise(
                &devices,
                &candidates,
                &params,
                0.9,
                &mut Rng::seed_from(seed),
            );
            assert_eq!(grid.chosen, oracle.chosen, "{ctx}");
            assert_eq!(grid.uncovered, oracle.uncovered, "{ctx}");
            assert_eq!(grid.digest(), oracle.digest(), "{ctx}");
        }
    }
}

#[test]
fn interference_neighborhoods_equal_pairwise_across_seeds() {
    for &seed in &SEEDS {
        for &(dlabel, base) in &DENSITIES {
            let (devices, _) = scene(seed ^ 0x2222, base * 2, 1);
            for radius in [120.0, 450.0] {
                assert_eq!(
                    co_sf_neighborhoods(&devices, radius),
                    co_sf_neighborhoods_pairwise(&devices, radius),
                    "seed {seed} {dlabel} radius {radius}"
                );
            }
        }
    }
}

/// The harness is only meaningful if the grid path really culls: check
/// that at 2.4 GHz street-asset parameters the cull radius is a small
/// fraction of the test extent, so most pairs are genuinely skipped.
/// (LoRa-915's whole point is range — its ~46 km cull radius exceeds the
/// 4 km test extent, so that parameter set exercises the no-cull case of
/// the differential instead.)
#[test]
fn culling_is_not_vacuous() {
    let cull = street_radio().cull_radius_m();
    assert!(
        cull < EXTENT_M / 2.0,
        "cull radius {cull} m must be well inside the {EXTENT_M} m extent"
    );
    let (_, gateways) = scene(42, 100, 30);
    let grid = SpatialGrid::build(&gateways, cull);
    let far_corner = Point::new(0.0, 0.0);
    let candidates = grid.within(far_corner, cull).len();
    assert!(
        candidates < gateways.len(),
        "a corner query should see fewer than all {} gateways, saw {candidates}",
        gateways.len()
    );
}
