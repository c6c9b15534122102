//! Interference and capture: when collisions are not fatal.
//!
//! LoRa's spreading factors are (imperfectly) orthogonal: a receiver
//! locked onto an SF9 packet barely notices SF7 traffic, and a packet that
//! arrives several dB stronger than a same-SF interferer *captures* the
//! demodulator. Capture is a first-order effect on transmit-only network
//! scalability (design ablation #3 in DESIGN.md); this module provides
//! Monte-Carlo capture-probability estimation for realistic power
//! distributions and the co-SF neighborhoods collisions happen within.

use simcore::rng::Rng;

use crate::grid::SpatialGrid;
use crate::topology::Point;

/// Same-SF capture threshold: a packet survives a same-SF collision if it
/// is at least this much stronger (standard value ≈ 6 dB for LoRa; use
/// +∞-like values for pure ALOHA without capture).
pub const CO_SF_CAPTURE_DB: f64 = 6.0;

/// Monte-Carlo co-SF capture probability when both packets' received
/// powers are drawn i.i.d. from a lognormal shadowing spread of
/// `sigma_db` around a common mean (the dense-urban same-cell case).
///
/// With i.i.d. normal powers the difference is Normal(0, σ√2), so the
/// analytic value is `Q(threshold / (σ√2))`; the Monte-Carlo form exists
/// to compose with non-identical power distributions in callers.
pub fn co_sf_capture_probability(sigma_db: f64, rng: &mut Rng, trials: usize) -> f64 {
    assert!(sigma_db >= 0.0, "sigma must be >= 0");
    assert!(trials > 0, "need at least one trial");
    let mut wins = 0usize;
    for _ in 0..trials {
        let a = simcore::dist::standard_normal(rng) * sigma_db;
        let b = simcore::dist::standard_normal(rng) * sigma_db;
        if a - b > CO_SF_CAPTURE_DB {
            wins += 1;
        }
    }
    wins as f64 / trials as f64
}

/// For each device, the ascending indices of *other* devices within
/// `radius_m` — the population whose same-SF transmissions can collide
/// with it at a shared gateway. Grid-backed: O(n · neighbors) instead of
/// the O(n²) all-pairs scan, which is what makes per-device interference
/// degree computable for a 320k-pole city.
///
/// Purely geometric and deterministic; no RNG is consumed, so the result
/// is a stable input to capture-probability estimation downstream.
pub fn co_sf_neighborhoods(devices: &[Point], radius_m: f64) -> Vec<Vec<u32>> {
    let grid = SpatialGrid::build(devices, radius_m.max(1.0));
    let mut out = Vec::with_capacity(devices.len());
    let mut buf: Vec<u32> = Vec::new();
    for (i, d) in devices.iter().enumerate() {
        grid.within_into(*d, radius_m, &mut buf);
        out.push(buf.iter().copied().filter(|&j| j as usize != i).collect());
    }
    out
}

/// The exhaustive pairwise reference for [`co_sf_neighborhoods`] —
/// differential-harness use only.
pub fn co_sf_neighborhoods_pairwise(devices: &[Point], radius_m: f64) -> Vec<Vec<u32>> {
    devices
        .iter()
        .enumerate()
        .map(|(i, d)| {
            devices
                .iter()
                .enumerate()
                .filter(|&(j, o)| j != i && d.distance(o) <= radius_m)
                .map(|(j, _)| j as u32)
                .collect()
        })
        .collect()
}

/// The standard normal upper-tail probability Q(x), via `erfc`.
pub fn q_function(x: f64) -> f64 {
    0.5 * erfc(x / core::f64::consts::SQRT_2)
}

/// Complementary error function (Abramowitz–Stegun 7.1.26, |err| < 1.5e-7).
pub fn erfc(x: f64) -> f64 {
    let sign_neg = x < 0.0;
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736 + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let y = poly * (-x * x).exp();
    if sign_neg {
        2.0 - y
    } else {
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_probability_matches_analytic() {
        let sigma = 6.0;
        let mut rng = Rng::seed_from(3);
        let mc = co_sf_capture_probability(sigma, &mut rng, 200_000);
        let analytic = q_function(CO_SF_CAPTURE_DB / (sigma * core::f64::consts::SQRT_2));
        assert!((mc - analytic).abs() < 0.005, "mc {mc} analytic {analytic}");
        // ~24% for 6 dB shadowing: capture materially helps dense networks.
        assert!(analytic > 0.15 && analytic < 0.35);
    }

    #[test]
    fn zero_sigma_never_captures() {
        let mut rng = Rng::seed_from(4);
        assert_eq!(co_sf_capture_probability(0.0, &mut rng, 1_000), 0.0);
    }

    #[test]
    fn erfc_known_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157_299_2).abs() < 1e-6);
        assert!((erfc(-1.0) - 1.842_700_8).abs() < 1e-6);
        assert!(erfc(5.0) < 1e-10);
    }

    #[test]
    fn neighborhoods_exclude_self_and_are_ascending() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(50.0, 0.0),
            Point::new(120.0, 0.0),
            Point::new(10_000.0, 0.0),
        ];
        let n = co_sf_neighborhoods(&pts, 100.0);
        assert_eq!(n[0], vec![1]);
        assert_eq!(n[1], vec![0, 2]);
        assert_eq!(n[2], vec![1]);
        assert!(n[3].is_empty());
    }

    #[test]
    fn neighborhoods_match_pairwise() {
        use crate::topology::uniform_scatter;
        let mut rng = Rng::seed_from(61);
        let pts = uniform_scatter(500, 3_000.0, 3_000.0, &mut rng);
        assert_eq!(
            co_sf_neighborhoods(&pts, 250.0),
            co_sf_neighborhoods_pairwise(&pts, 250.0)
        );
    }

    #[test]
    fn q_function_symmetry() {
        assert!((q_function(0.0) - 0.5).abs() < 1e-7);
        assert!((q_function(1.0) + q_function(-1.0) - 1.0).abs() < 1e-6);
        assert!((q_function(1.96) - 0.025).abs() < 1e-3);
    }
}
