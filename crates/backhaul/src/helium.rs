//! The federated LoRa network (§4.2–4.4): Helium-style hotspot dynamics.
//!
//! The paper's second experimental arm rides a **semi-federated** network:
//! coverage is provided by other people's hotspots, paid per-packet with
//! prepaid data credits at a fixed price. The appeal is zero deployed
//! infrastructure; the risk is that local coverage is an emergent property
//! of strangers' hardware and incentives.
//!
//! [`HotspotPopulation`] models the local hotspot census year over year
//! (boom, churn, and possible bust), from which per-year delivery coverage
//! is derived. Credit economics live in [`econ::credits`]; this module
//! re-exports the paper's pricing for convenience.

use simcore::rng::Rng;

pub use econ::credits::{credits_for_packet, credits_for_schedule, paper_credit_price, Wallet};

/// Year-over-year dynamics of the hotspots audible from one deployment
/// site.
#[derive(Clone, Debug)]
pub struct HotspotPopulation {
    /// Hotspots currently in range.
    count: u32,
    /// Expected net growth per year during the boom phase (can be < 1 for
    /// decline), applied multiplicatively.
    boom_growth: f64,
    /// Year the boom ends and the network settles (or declines).
    boom_years: u32,
    /// Post-boom multiplicative drift per year.
    steady_growth: f64,
    /// Fraction of hotspots churning away each year (owner moves, unplugs).
    churn: f64,
    year: u32,
}

impl HotspotPopulation {
    /// Creates a population starting at `initial` hotspots in range.
    ///
    /// # Panics
    ///
    /// Panics on non-finite or negative parameters.
    pub fn new(
        initial: u32,
        boom_growth: f64,
        boom_years: u32,
        steady_growth: f64,
        churn: f64,
    ) -> Self {
        assert!(boom_growth >= 0.0 && boom_growth.is_finite(), "growth must be >= 0");
        assert!(steady_growth >= 0.0 && steady_growth.is_finite(), "growth must be >= 0");
        assert!((0.0..=1.0).contains(&churn), "churn must be in [0,1]");
        HotspotPopulation {
            count: initial,
            boom_growth,
            boom_years,
            steady_growth,
            churn,
            year: 0,
        }
    }

    /// The paper-era shape: a handful of audible hotspots, strong boom for
    /// 5 years (+60 %/yr), then slight decline (−3 %/yr) with 20 % owner
    /// churn.
    pub fn emerging(initial: u32) -> Self {
        HotspotPopulation::new(initial, 1.6, 5, 0.97, 0.20)
    }

    /// Hotspots currently in range.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Simulation year (steps taken).
    pub fn year(&self) -> u32 {
        self.year
    }

    /// Advances one year: churn removes a binomial share, growth adds a
    /// Poisson-ish share (rounded deterministic expectation with a random
    /// remainder to stay integral and unbiased).
    pub fn step_year(&mut self, rng: &mut Rng) -> u32 {
        self.year += 1;
        // Churn each hotspot independently.
        let mut survivors = 0u32;
        for _ in 0..self.count {
            if !rng.chance(self.churn) {
                survivors += 1;
            }
        }
        let growth = if self.year <= self.boom_years {
            self.boom_growth
        } else {
            self.steady_growth
        };
        // Replacement/addition: survivors grow by `growth` relative to the
        // pre-churn count (new owners join independent of who left).
        let target = self.count as f64 * growth;
        let additions = (target - survivors as f64).max(0.0);
        let whole = additions.floor() as u32;
        let frac = additions - whole as f64;
        let extra = u32::from(rng.chance(frac));
        self.count = survivors + whole + extra;
        self.count
    }

    /// Overwrites the mutable census state — current count and years
    /// stepped — from a checkpoint. The growth/churn parameters are
    /// configuration and are rebuilt from it, not snapshotted.
    pub fn restore_census(&mut self, count: u32, year: u32) {
        self.count = count;
        self.year = year;
    }

    /// Chaos: an abrupt market collapse removes `fraction` of the current
    /// population at once (deterministic floor, no RNG draw so injection
    /// never perturbs the arm's random streams). Returns hotspots removed.
    pub fn collapse(&mut self, fraction: f64) -> u32 {
        let f = if fraction.is_finite() { fraction.clamp(0.0, 1.0) } else { 0.0 };
        let removed = (self.count as f64 * f).floor() as u32;
        self.count -= removed.min(self.count);
        removed
    }

    /// Probability that at least one hotspot decodes an uplink, given each
    /// in-range hotspot independently decodes with probability `p_each`.
    pub fn delivery_probability(&self, p_each: f64) -> f64 {
        let p = p_each.clamp(0.0, 1.0);
        1.0 - (1.0 - p).powi(self.count as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boom_then_settle() {
        let mut pop = HotspotPopulation::emerging(4);
        let mut rng = Rng::seed_from(7);
        for _ in 0..5 {
            pop.step_year(&mut rng);
        }
        let after_boom = pop.count();
        assert!(after_boom > 8, "boom should grow the census: {after_boom}");
        for _ in 0..20 {
            pop.step_year(&mut rng);
        }
        let later = pop.count();
        assert!(later < after_boom * 2, "post-boom drift should not explode: {later}");
    }

    #[test]
    fn bust_scenario_loses_coverage() {
        // No growth at all, 30 % churn: coverage dies within ~15 years.
        let mut pop = HotspotPopulation::new(6, 0.0, 0, 0.0, 0.30);
        let mut rng = Rng::seed_from(8);
        let mut dark_year = None;
        for y in 1..=30 {
            pop.step_year(&mut rng);
            if pop.count() == 0 {
                dark_year = Some(y);
                break;
            }
        }
        assert!(dark_year.is_some(), "population must die out");
        assert!(dark_year.unwrap() <= 15);
    }

    #[test]
    fn delivery_probability_rises_with_density() {
        let sparse = HotspotPopulation::new(1, 1.0, 0, 1.0, 0.0);
        let dense = HotspotPopulation::new(8, 1.0, 0, 1.0, 0.0);
        assert!(dense.delivery_probability(0.5) > sparse.delivery_probability(0.5));
        assert!((sparse.delivery_probability(0.5) - 0.5).abs() < 1e-12);
        assert_eq!(dense.delivery_probability(0.0), 0.0);
        assert_eq!(dense.delivery_probability(1.0), 1.0);
    }

    #[test]
    fn zero_population_has_no_coverage() {
        let pop = HotspotPopulation::new(0, 1.5, 5, 1.0, 0.1);
        assert_eq!(pop.count(), 0);
        assert_eq!(pop.delivery_probability(0.9), 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut pop = HotspotPopulation::emerging(5);
            let mut rng = Rng::seed_from(seed);
            (0..20).map(|_| pop.step_year(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn reexported_credit_math_available() {
        // The module's users reach credit pricing through this crate.
        assert_eq!(credits_for_packet(24), 1);
        let w = Wallet::provision_dollars(econ::money::Usd::from_dollars(5));
        assert_eq!(w.balance(), 500_000);
    }

    #[test]
    #[should_panic(expected = "churn")]
    fn rejects_bad_churn() {
        HotspotPopulation::new(1, 1.0, 1, 1.0, 1.5);
    }

    #[test]
    fn collapse_removes_fraction_without_rng() {
        let mut pop = HotspotPopulation::emerging(100);
        assert_eq!(pop.collapse(0.6), 60);
        assert_eq!(pop.count(), 40);
        // Out-of-range and non-finite fractions are clamped, not panics.
        assert_eq!(pop.collapse(2.0), 40);
        assert_eq!(pop.count(), 0);
        assert_eq!(pop.collapse(f64::NAN), 0);
    }
}
