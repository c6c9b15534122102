//! Gateway placement: covering a city with as few gateways as possible.
//!
//! Deploying the owned arm (§4.2) starts with a planning question: given
//! candidate mounting sites (poles with power and backhaul access), which
//! subset covers the sensor population? Minimum set cover is NP-hard; the
//! greedy algorithm is the standard practical answer with a proven
//! `ln(n)+1` approximation bound. Placement-static shadowing is resolved
//! once per (device, candidate) pair so the plan is evaluated on the same
//! radio lottery a real site survey would sample.

use simcore::rng::Rng;

use crate::coverage::{Fnv, RadioParams};
use crate::grid::SpatialGrid;
use crate::link::Link;
use crate::topology::Point;

/// A placement plan: chosen candidate indices and the coverage they achieve.
#[derive(Clone, Debug)]
pub struct Placement {
    /// Indices into the candidate list, in selection order.
    pub chosen: Vec<usize>,
    /// Fraction of devices covered by the chosen set.
    pub covered_fraction: f64,
    /// Devices left uncovered (indices).
    pub uncovered: Vec<usize>,
}

impl Placement {
    /// FNV-1a 64-bit digest of the plan (selection order, coverage bitmap)
    /// for differential and bench cross-checks.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_u64(self.chosen.len() as u64);
        for &ci in &self.chosen {
            h.write_u64(ci as u64);
        }
        h.write_u64(self.covered_fraction.to_bits());
        h.write_u64(self.uncovered.len() as u64);
        for &di in &self.uncovered {
            h.write_u64(di as u64);
        }
        h.finish()
    }
}

/// Whether candidate `ci` hears device `di`; one draw from the pair's own
/// keyed stream — shared by the grid path and the pairwise oracle.
fn hears_pair(
    d: &Point,
    c: &Point,
    di: usize,
    ci: usize,
    params: &RadioParams,
    root: &Rng,
) -> bool {
    let mut pair_rng = root.split("place-pair", di as u64).split("cand", ci as u64);
    let shadow = params.pathloss.sample_shadowing(&mut pair_rng);
    let loss = params.pathloss.loss_with_shadowing(d.distance(c), shadow);
    let link = Link { tx: params.tx, loss, rx_model: params.rx_model };
    link.is_usable(params.usable_margin_db)
}

/// Greedily selects candidate sites until `target_coverage` of devices is
/// reached or no candidate adds coverage.
///
/// Audibility is resolved through a [`SpatialGrid`] over the candidate
/// sites at the provable [`RadioParams::cull_radius_m`], with per-pair
/// keyed shadowing — bit-identical to [`greedy_placement_pairwise`], in
/// O(devices · candidates-in-range) instead of O(devices · candidates).
///
/// # Panics
///
/// Panics unless `target_coverage` is in `(0, 1]`.
pub fn greedy_placement(
    devices: &[Point],
    candidates: &[Point],
    params: &RadioParams,
    target_coverage: f64,
    rng: &mut Rng,
) -> Placement {
    assert!(
        target_coverage > 0.0 && target_coverage <= 1.0,
        "target coverage must be in (0, 1]"
    );
    let cull = params.cull_radius_m();
    let grid = SpatialGrid::build(candidates, cull);
    let mut hears: Vec<Vec<usize>> = vec![Vec::new(); candidates.len()];
    let mut in_range: Vec<u32> = Vec::new();
    for (di, d) in devices.iter().enumerate() {
        grid.within_into(*d, cull, &mut in_range);
        for &ci in &in_range {
            let ci = ci as usize;
            if hears_pair(d, &candidates[ci], di, ci, params, rng) {
                hears[ci].push(di);
            }
        }
    }
    greedy_cover(devices.len(), &hears, target_coverage)
}

/// The exhaustive pairwise reference oracle for [`greedy_placement`] —
/// same per-pair streams, every pair evaluated. Differential use only.
pub fn greedy_placement_pairwise(
    devices: &[Point],
    candidates: &[Point],
    params: &RadioParams,
    target_coverage: f64,
    rng: &mut Rng,
) -> Placement {
    assert!(
        target_coverage > 0.0 && target_coverage <= 1.0,
        "target coverage must be in (0, 1]"
    );
    let mut hears: Vec<Vec<usize>> = vec![Vec::new(); candidates.len()];
    for (di, d) in devices.iter().enumerate() {
        for (ci, c) in candidates.iter().enumerate() {
            if hears_pair(d, c, di, ci, params, rng) {
                hears[ci].push(di);
            }
        }
    }
    greedy_cover(devices.len(), &hears, target_coverage)
}

/// The greedy set-cover core over resolved audibility sets — shared by
/// the grid path and the oracle.
fn greedy_cover(n: usize, hears: &[Vec<usize>], target_coverage: f64) -> Placement {
    let mut covered = vec![false; n];
    let mut covered_count = 0usize;
    let mut chosen = Vec::new();
    let mut used = vec![false; hears.len()];
    let needed = (target_coverage * n as f64).ceil() as usize;
    while covered_count < needed {
        // Pick the candidate covering the most new devices (ties: lowest
        // index, for determinism).
        let mut best: Option<(usize, usize)> = None;
        for (ci, ds) in hears.iter().enumerate() {
            if used[ci] {
                continue;
            }
            let gain = ds.iter().filter(|&&d| !covered[d]).count();
            if gain > 0 && best.is_none_or(|(_, bg)| gain > bg) {
                best = Some((ci, gain));
            }
        }
        let Some((ci, _)) = best else {
            break; // No candidate adds coverage.
        };
        used[ci] = true;
        chosen.push(ci);
        for &d in &hears[ci] {
            if !covered[d] {
                covered[d] = true;
                covered_count += 1;
            }
        }
    }
    Placement {
        chosen,
        covered_fraction: if n == 0 { 1.0 } else { covered_count as f64 / n as f64 },
        uncovered: (0..n).filter(|&d| !covered[d]).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ieee802154;
    use crate::link::ReceptionModel;
    use crate::pathloss::LogDistance;
    use crate::topology::{AssetKind, ManhattanCity};
    use crate::units::Dbm;

    fn params() -> RadioParams {
        RadioParams {
            tx: Dbm(12.0),
            rx_model: ReceptionModel::at_sensitivity(ieee802154::SENSITIVITY),
            pathloss: LogDistance::urban_2450(),
            usable_margin_db: 3.0,
        }
    }

    fn city_scene() -> (Vec<Point>, Vec<Point>) {
        let city = ManhattanCity::new(6, 6);
        let devices: Vec<Point> = city
            .assets()
            .into_iter()
            .filter(|a| a.kind == AssetKind::Streetlight)
            .map(|a| a.at)
            .collect();
        // Candidates: every intersection (power + conduit available).
        let candidates: Vec<Point> = city
            .assets()
            .into_iter()
            .filter(|a| a.kind == AssetKind::Intersection)
            .map(|a| a.at)
            .collect();
        (devices, candidates)
    }

    #[test]
    fn reaches_target_with_fewer_sites_than_grid() {
        let (devices, candidates) = city_scene();
        let mut rng = Rng::seed_from(1);
        let plan = greedy_placement(&devices, &candidates, &params(), 0.9, &mut rng);
        assert!(plan.covered_fraction >= 0.9, "covered {}", plan.covered_fraction);
        // A 600x600 m district at ~115 m radio reach wants >= 9 grid cells;
        // greedy should do it with a modest subset of the 49 candidates.
        assert!(
            plan.chosen.len() < candidates.len() / 2,
            "chose {} of {}",
            plan.chosen.len(),
            candidates.len()
        );
    }

    #[test]
    fn higher_targets_need_more_sites() {
        let (devices, candidates) = city_scene();
        let run = |target: f64| {
            let mut rng = Rng::seed_from(2);
            greedy_placement(&devices, &candidates, &params(), target, &mut rng)
                .chosen
                .len()
        };
        assert!(run(0.95) >= run(0.5));
    }

    #[test]
    fn greedy_is_deterministic() {
        let (devices, candidates) = city_scene();
        let mut r1 = Rng::seed_from(3);
        let mut r2 = Rng::seed_from(3);
        let a = greedy_placement(&devices, &candidates, &params(), 0.9, &mut r1);
        let b = greedy_placement(&devices, &candidates, &params(), 0.9, &mut r2);
        assert_eq!(a.chosen, b.chosen);
    }

    #[test]
    fn unreachable_devices_reported() {
        let devices = vec![Point::new(0.0, 0.0), Point::new(90_000.0, 0.0)];
        let candidates = vec![Point::new(10.0, 0.0)];
        let mut rng = Rng::seed_from(4);
        let plan = greedy_placement(&devices, &candidates, &params(), 1.0, &mut rng);
        assert_eq!(plan.uncovered, vec![1]);
        assert!((plan.covered_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_device_set_is_trivially_covered() {
        let mut rng = Rng::seed_from(5);
        let plan = greedy_placement(&[], &[Point::new(0.0, 0.0)], &params(), 1.0, &mut rng);
        assert_eq!(plan.covered_fraction, 1.0);
        assert!(plan.chosen.is_empty());
    }

    #[test]
    #[should_panic(expected = "target coverage")]
    fn rejects_zero_target() {
        let mut rng = Rng::seed_from(6);
        greedy_placement(&[], &[], &params(), 0.0, &mut rng);
    }

    #[test]
    fn grid_matches_pairwise_oracle() {
        let (devices, candidates) = city_scene();
        let mut r1 = Rng::seed_from(17);
        let mut r2 = Rng::seed_from(17);
        let grid = greedy_placement(&devices, &candidates, &params(), 0.9, &mut r1);
        let pairwise = greedy_placement_pairwise(&devices, &candidates, &params(), 0.9, &mut r2);
        assert_eq!(grid.chosen, pairwise.chosen);
        assert_eq!(grid.uncovered, pairwise.uncovered);
        assert_eq!(grid.digest(), pairwise.digest());
    }
}
