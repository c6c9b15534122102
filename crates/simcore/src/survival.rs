//! Survival analysis: the Kaplan–Meier product-limit estimator.
//!
//! Century-scale runs are right-censored by construction — the simulation
//! horizon (or the structure's demolition) ends observation before many
//! devices have failed. Kaplan–Meier is the standard nonparametric estimator
//! of the survival function under right censoring and is what EXPERIMENTS.md
//! plots for device cohorts.

/// One subject's observation: time on study and whether the event (failure)
/// was observed or the subject was censored at that time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Observation {
    /// Time on study (same unit as the caller uses throughout).
    pub time: f64,
    /// True if the failure occurred at `time`; false if censored there.
    pub event: bool,
}

impl Observation {
    /// An observed failure at `time`.
    pub fn failed(time: f64) -> Self {
        Observation { time, event: true }
    }

    /// A right-censored observation at `time` (still alive when last seen).
    pub fn censored(time: f64) -> Self {
        Observation { time, event: false }
    }
}

/// A step of the estimated survival curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SurvivalPoint {
    /// Event time at which the curve steps down.
    pub time: f64,
    /// Estimated S(t) just after this time.
    pub survival: f64,
    /// Number at risk just before this time.
    pub at_risk: u64,
    /// Number of events (failures) at this time.
    pub events: u64,
}

/// A fitted Kaplan–Meier survival curve.
///
/// # Examples
///
/// ```
/// use simcore::survival::{KaplanMeier, Observation};
///
/// let obs = vec![
///     Observation::failed(2.0),
///     Observation::failed(3.0),
///     Observation::censored(4.0),
///     Observation::failed(5.0),
///     Observation::censored(6.0),
/// ];
/// let km = KaplanMeier::fit(&obs);
/// // S(2) = 4/5, S(3) = 4/5 * 3/4 = 3/5, S(5) = 3/5 * 1/2 = 3/10.
/// assert!((km.survival_at(2.5) - 0.8).abs() < 1e-12);
/// assert!((km.survival_at(4.5) - 0.6).abs() < 1e-12);
/// assert!((km.survival_at(5.5) - 0.3).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, Default)]
pub struct KaplanMeier {
    points: Vec<SurvivalPoint>,
    n: u64,
}

impl KaplanMeier {
    /// Fits the product-limit estimator to a set of observations.
    ///
    /// Non-finite or negative times are ignored. Ties between failures and
    /// censorings at the same time follow the standard convention: failures
    /// are processed first (censored subjects at time t are still at risk
    /// for events at t).
    pub fn fit(observations: &[Observation]) -> Self {
        let mut obs: Vec<Observation> = observations
            .iter()
            .copied()
            .filter(|o| o.time.is_finite() && o.time >= 0.0)
            .collect();
        obs.sort_by(|a, b| {
            a.time
                .total_cmp(&b.time)
                // Failures before censorings at equal time.
                .then_with(|| b.event.cmp(&a.event))
        });
        let n = obs.len() as u64;
        let mut points = Vec::new();
        let mut at_risk = n;
        let mut survival = 1.0;
        let mut i = 0;
        while i < obs.len() {
            let t = obs[i].time;
            let mut deaths = 0u64;
            let mut removed = 0u64;
            while i < obs.len() && obs[i].time == t {
                if obs[i].event {
                    deaths += 1;
                }
                removed += 1;
                i += 1;
            }
            if deaths > 0 {
                let risk_before = at_risk;
                survival *= 1.0 - deaths as f64 / risk_before as f64;
                points.push(SurvivalPoint {
                    time: t,
                    survival,
                    at_risk: risk_before,
                    events: deaths,
                });
            }
            at_risk -= removed;
        }
        KaplanMeier { points, n }
    }

    /// Estimated S(t): probability of surviving beyond time `t`.
    pub fn survival_at(&self, t: f64) -> f64 {
        let mut s = 1.0;
        for p in &self.points {
            if p.time <= t {
                s = p.survival;
            } else {
                break;
            }
        }
        s
    }

    /// Median survival time: the earliest event time with S(t) ≤ 0.5.
    ///
    /// Returns `None` if the curve never falls to 0.5 (heavy censoring).
    pub fn median(&self) -> Option<f64> {
        self.points.iter().find(|p| p.survival <= 0.5).map(|p| p.time)
    }

    /// The step points of the fitted curve.
    pub fn points(&self) -> &[SurvivalPoint] {
        &self.points
    }

    /// Number of (valid) observations fitted.
    pub fn n(&self) -> u64 {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_censoring_matches_empirical() {
        // Failures at 1, 2, 3, 4: S steps 3/4, 2/4, 1/4, 0.
        let obs: Vec<Observation> = (1..=4).map(|t| Observation::failed(t as f64)).collect();
        let km = KaplanMeier::fit(&obs);
        assert!((km.survival_at(1.0) - 0.75).abs() < 1e-12);
        assert!((km.survival_at(2.5) - 0.5).abs() < 1e-12);
        assert!((km.survival_at(4.0) - 0.0).abs() < 1e-12);
        assert_eq!(km.median(), Some(2.0));
        assert_eq!(km.n(), 4);
    }

    #[test]
    fn all_censored_is_flat_one() {
        let obs: Vec<Observation> = (1..=5).map(|t| Observation::censored(t as f64)).collect();
        let km = KaplanMeier::fit(&obs);
        assert_eq!(km.points().len(), 0);
        assert_eq!(km.survival_at(100.0), 1.0);
        assert_eq!(km.median(), None);
    }

    #[test]
    fn textbook_example_with_censoring() {
        // Classic example: failures at 6,6,6 censored 6; failures 7, 10;
        // censored 9, 10, 11.
        let obs = vec![
            Observation::failed(6.0),
            Observation::failed(6.0),
            Observation::failed(6.0),
            Observation::censored(6.0),
            Observation::failed(7.0),
            Observation::censored(9.0),
            Observation::failed(10.0),
            Observation::censored(10.0),
            Observation::censored(11.0),
        ];
        let km = KaplanMeier::fit(&obs);
        // At t=6: 9 at risk, 3 events -> S = 6/9 = 2/3.
        assert!((km.survival_at(6.0) - 2.0 / 3.0).abs() < 1e-12);
        // At t=7: 5 at risk (9 - 3 failed - 1 censored), 1 event -> 2/3 * 4/5.
        assert!((km.survival_at(7.0) - 2.0 / 3.0 * 4.0 / 5.0).abs() < 1e-12);
        // At t=10: 3 at risk, 1 event -> * 2/3.
        let expect = 2.0 / 3.0 * 4.0 / 5.0 * 2.0 / 3.0;
        assert!((km.survival_at(10.5) - expect).abs() < 1e-12);
    }

    #[test]
    fn monotone_nonincreasing() {
        let obs = vec![
            Observation::failed(3.0),
            Observation::censored(1.0),
            Observation::failed(8.0),
            Observation::failed(2.0),
            Observation::censored(9.0),
            Observation::failed(5.0),
        ];
        let km = KaplanMeier::fit(&obs);
        let mut last = 1.0;
        for p in km.points() {
            assert!(p.survival <= last + 1e-15);
            last = p.survival;
        }
    }

    #[test]
    fn ignores_invalid_times() {
        let obs = vec![
            Observation::failed(f64::NAN),
            Observation::failed(-1.0),
            Observation::failed(2.0),
        ];
        let km = KaplanMeier::fit(&obs);
        assert_eq!(km.n(), 1);
        assert!((km.survival_at(2.0) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn empty_input() {
        let km = KaplanMeier::fit(&[]);
        assert_eq!(km.n(), 0);
        assert_eq!(km.survival_at(1.0), 1.0);
        assert_eq!(km.median(), None);
    }
}
