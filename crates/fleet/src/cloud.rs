//! The data endpoint: the one tier with *scheduled* obligations (§4.4–4.5).
//!
//! "Long-lived cloud services are comparatively well-understood" — but they
//! still decay without rituals: the paper calls out the 10-year maximum
//! domain lease (ICANN) as "one certain event". [`CloudEndpoint`] models
//! the renewal calendar (domain, TLS certificates, hosting) and the outage
//! that follows a missed ritual.

use simcore::rng::Rng;
use simcore::time::{SimDuration, SimTime};

/// A recurring administrative obligation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ritual {
    /// Descriptive name.
    pub name: &'static str,
    /// How often it must be performed.
    pub period: SimDuration,
    /// Probability any single occurrence is missed (staff turnover,
    /// expired card, forgotten mailbox).
    pub miss_probability: f64,
    /// Outage until a missed occurrence is noticed and fixed.
    pub recovery: SimDuration,
}

impl Ritual {
    /// The paper's "one certain event": the domain lease, renewable at
    /// most 10 years ahead.
    pub fn domain_lease() -> Self {
        Ritual {
            name: "domain-lease",
            period: SimDuration::from_years(10),
            miss_probability: 0.05,
            recovery: SimDuration::from_days(14),
        }
    }

    /// TLS certificate rotation (90-day ACME cadence, automated — low miss
    /// probability but frequent).
    pub fn tls_certificate() -> Self {
        Ritual {
            name: "tls-certificate",
            period: SimDuration::from_days(90),
            miss_probability: 0.002,
            recovery: SimDuration::from_days(3),
        }
    }

    /// Hosting-bill / account custody check (yearly).
    pub fn hosting_account() -> Self {
        Ritual {
            name: "hosting-account",
            period: SimDuration::from_years(1),
            miss_probability: 0.01,
            recovery: SimDuration::from_days(7),
        }
    }
}

/// One missed-ritual outage.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CloudOutage {
    /// Which ritual was missed.
    pub ritual: &'static str,
    /// When service dropped.
    pub from: SimTime,
    /// When service returned.
    pub until: SimTime,
}

/// The endpoint's precomputed outage calendar over a horizon.
#[derive(Clone, Debug)]
pub struct CloudEndpoint {
    outages: Vec<CloudOutage>,
}

impl CloudEndpoint {
    /// Simulates the ritual calendar over `horizon`, sampling misses.
    pub fn simulate(rituals: &[Ritual], horizon: SimDuration, rng: &mut Rng) -> Self {
        let mut outages = Vec::new();
        for ritual in rituals {
            assert!(!ritual.period.is_zero(), "ritual period must be positive");
            let mut t = ritual.period;
            while t.as_secs() < horizon.as_secs() {
                if rng.chance(ritual.miss_probability) {
                    let from = SimTime::ZERO + t;
                    outages.push(CloudOutage {
                        ritual: ritual.name,
                        from,
                        until: from + ritual.recovery,
                    });
                }
                t += ritual.period;
            }
        }
        outages.sort_by_key(|o| o.from);
        CloudEndpoint { outages }
    }

    /// The paper's endpoint with the standard ritual set.
    pub fn paper_default(horizon: SimDuration, rng: &mut Rng) -> Self {
        Self::simulate(
            &[Ritual::domain_lease(), Ritual::tls_certificate(), Ritual::hosting_account()],
            horizon,
            rng,
        )
    }

    /// Whether the endpoint is serving at `t`.
    pub fn up_at(&self, t: SimTime) -> bool {
        !self.outages.iter().any(|o| (o.from..o.until).contains(&t))
    }

    /// All outages in time order.
    pub fn outages(&self) -> &[CloudOutage] {
        &self.outages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_misses_means_no_outages() {
        let ritual = Ritual { miss_probability: 0.0, ..Ritual::domain_lease() };
        let mut rng = Rng::seed_from(1);
        let ep = CloudEndpoint::simulate(&[ritual], SimDuration::from_years(50), &mut rng);
        assert!(ep.outages().is_empty());
        assert!(ep.up_at(SimTime::from_years(25)));
    }

    #[test]
    fn certain_miss_produces_outage_each_period() {
        let ritual = Ritual {
            name: "test",
            period: SimDuration::from_years(10),
            miss_probability: 1.0,
            recovery: SimDuration::from_days(14),
        };
        let mut rng = Rng::seed_from(2);
        let ep = CloudEndpoint::simulate(&[ritual], SimDuration::from_years(50), &mut rng);
        // Renewals at years 10, 20, 30, 40 (50 excluded: not < horizon).
        assert_eq!(ep.outages().len(), 4);
        assert!(!ep.up_at(SimTime::from_years(10)));
        assert!(ep.up_at(SimTime::from_years(10) + SimDuration::from_days(20)));
    }

    #[test]
    fn fifty_year_run_misses_some_rituals() {
        // ~520 renewal events at the default miss rates: expect a handful
        // of misses over 50 years for most seeds.
        let mut any = 0;
        for seed in 0..20 {
            let mut rng = Rng::seed_from(seed);
            let ep = CloudEndpoint::paper_default(SimDuration::from_years(50), &mut rng);
            any += ep.outages().len();
        }
        assert!(any > 0, "no seed produced any missed ritual");
    }

    #[test]
    fn up_at_boundary_semantics() {
        let ritual = Ritual {
            name: "x",
            period: SimDuration::from_years(1),
            miss_probability: 1.0,
            recovery: SimDuration::from_days(1),
        };
        let mut rng = Rng::seed_from(4);
        let ep = CloudEndpoint::simulate(&[ritual], SimDuration::from_years(1) + SimDuration::from_days(1), &mut rng);
        let from = SimTime::from_years(1);
        assert!(!ep.up_at(from));
        assert!(ep.up_at(from + SimDuration::from_days(1)));
    }

    #[test]
    #[should_panic(expected = "period")]
    fn zero_period_ritual_panics() {
        let ritual = Ritual {
            name: "bad",
            period: SimDuration::ZERO,
            miss_probability: 0.5,
            recovery: SimDuration::from_days(1),
        };
        CloudEndpoint::simulate(&[ritual], SimDuration::from_years(1), &mut Rng::seed_from(5));
    }
}
