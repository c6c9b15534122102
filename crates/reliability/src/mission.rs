//! Mission-reliability queries: "will it last the mission?"
//!
//! The paper frames device viability against *infrastructure* missions —
//! a road's 25-year median service life, a bridge's 50 — and against the
//! consumer replacement cadence of ~50 months. This module answers the
//! standard questions: P(survive T), percentile life, and the lifetime-gap
//! ratio between a device and the structure hosting it (exhibit E1).

use simcore::rng::Rng;
use simcore::stats::Samples;

use crate::hazard::Hazard;

/// Paper constants for exhibit E1.
pub mod paper {
    /// "On average, wireless electronics devices are replaced every 50
    /// months."
    pub const DEVICE_REPLACEMENT_MONTHS: f64 = 50.0;

    /// "On average, a bridge is replaced every 50 years."
    pub const BRIDGE_SERVICE_YEARS: f64 = 50.0;

    /// The headline gap: bridge years vs device months.
    pub fn lifetime_gap() -> f64 {
        BRIDGE_SERVICE_YEARS / (DEVICE_REPLACEMENT_MONTHS / 12.0)
    }
}

/// Monte-Carlo mission-reliability estimate for a lifetime model.
#[derive(Clone, Debug)]
pub struct MissionReport {
    samples: Samples,
}

impl MissionReport {
    /// Draws `n` lifetimes from `h`.
    pub fn estimate<H: Hazard + ?Sized>(h: &H, rng: &mut Rng, n: usize) -> Self {
        assert!(n > 0, "need at least one draw");
        let mut samples = Samples::new();
        for _ in 0..n {
            samples.add(h.sample_ttf(rng));
        }
        MissionReport { samples }
    }

    /// Estimated probability of surviving `t` years.
    pub fn p_survive(&self, t: f64) -> f64 {
        let alive = self.samples.values().iter().filter(|&&x| x > t).count();
        alive as f64 / self.samples.len() as f64
    }

    /// Median life in years.
    #[allow(clippy::expect_used)]
    pub fn median_life(&mut self) -> f64 {
        // simlint: allow(P001, estimate() always draws at least one sample)
        self.samples.median().expect("non-empty by construction")
    }

    /// The `q`-percentile life (e.g. `0.1` for B10 life).
    #[allow(clippy::expect_used)]
    pub fn percentile_life(&mut self, q: f64) -> f64 {
        // simlint: allow(P001, estimate() always draws at least one sample)
        self.samples.quantile(q).expect("non-empty by construction")
    }

    /// Mean life in years.
    pub fn mean_life(&self) -> f64 {
        self.samples.mean()
    }

    /// Number of Monte-Carlo draws.
    pub fn n(&self) -> usize {
        self.samples.len()
    }
}

/// The device-vs-structure lifetime gap: how many device generations the
/// hosting structure outlives (E1's ratio, ≈12× for the paper's numbers).
pub fn lifetime_gap(structure_years: f64, device_years: f64) -> f64 {
    assert!(device_years > 0.0, "device life must be positive");
    structure_years / device_years
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hazard::{ExponentialHazard, WeibullHazard};

    #[test]
    fn paper_gap_is_twelve_x() {
        let gap = paper::lifetime_gap();
        assert!((gap - 12.0).abs() < 1e-9, "gap {gap}");
    }

    #[test]
    fn gap_helper() {
        assert!((lifetime_gap(50.0, 50.0 / 12.0) - 12.0).abs() < 1e-9);
        assert!((lifetime_gap(25.0, 4.0) - 6.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn gap_rejects_zero_device_life() {
        lifetime_gap(50.0, 0.0);
    }

    #[test]
    fn mission_report_exponential() {
        let h = ExponentialHazard::with_mttf(10.0);
        let mut rng = Rng::seed_from(5);
        let mut rep = MissionReport::estimate(&h, &mut rng, 100_000);
        assert!((rep.p_survive(10.0) - (-1.0f64).exp()).abs() < 0.01);
        assert!((rep.mean_life() - 10.0).abs() < 0.15);
        // Median of exponential = MTTF * ln 2.
        assert!((rep.median_life() - 10.0 * core::f64::consts::LN_2).abs() < 0.15);
        assert_eq!(rep.n(), 100_000);
    }

    #[test]
    fn percentile_life_ordering() {
        let h = WeibullHazard::new(2.0, 15.0);
        let mut rng = Rng::seed_from(6);
        let mut rep = MissionReport::estimate(&h, &mut rng, 50_000);
        let b10 = rep.percentile_life(0.1);
        let b50 = rep.percentile_life(0.5);
        let b90 = rep.percentile_life(0.9);
        assert!(b10 < b50 && b50 < b90);
    }

    #[test]
    fn sharp_lifetime_survives_mission_below_scale() {
        let h = WeibullHazard::new(8.0, 60.0);
        let mut rng = Rng::seed_from(7);
        let rep = MissionReport::estimate(&h, &mut rng, 20_000);
        assert!(rep.p_survive(30.0) > 0.95);
        assert!(rep.p_survive(90.0) < 0.05);
    }
}
