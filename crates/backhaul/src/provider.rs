//! Ownership models: who runs the backhaul, and how well (§3.3.3).
//!
//! The paper's empirical claim: municipal networks are viable even for tiny
//! cities (Chanute, KS: 9,000 residents, 2 staff, profitable), and
//! privately-provided institutional service is chronically under-prioritized.
//! A [`Provider`] couples an ownership model with service-priority and
//! continuity parameters that the fleet simulation consumes.

use simcore::dist::Exponential;
use simcore::rng::Rng;

/// Who owns and operates a backhaul.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Ownership {
    /// Commercial carrier / cable company.
    Commercial,
    /// City-owned utility network.
    Municipal,
    /// University or campus network (the paper's own 802.15.4 arm).
    Campus,
    /// Federated community network (Helium-style).
    Federated,
}

/// A backhaul provider's service characteristics.
#[derive(Clone, Copy, Debug)]
pub struct Provider {
    /// Ownership model.
    pub ownership: Ownership,
    /// Long-run availability (fraction of time up), excluding terminal exit.
    pub availability: f64,
    /// Mean time (years) until the provider exits the business, drops the
    /// product line, or otherwise terminates service permanently.
    pub mean_exit_years: f64,
    /// Whether institutional/IoT tenants get priority in repairs (the
    /// paper's under-served-institutional-networks observation).
    pub tenant_priority: bool,
}

impl Provider {
    /// A commercial ISP: high availability, but product lines churn
    /// (mean exit 15 y) and institutional tenants are low priority.
    pub fn commercial() -> Self {
        Provider {
            ownership: Ownership::Commercial,
            availability: 0.999,
            mean_exit_years: 15.0,
            tenant_priority: false,
        }
    }

    /// A municipal utility: comparable availability, effectively no exit
    /// risk on infrastructure timescales (mean 75 y), tenant priority.
    pub fn municipal() -> Self {
        Provider {
            ownership: Ownership::Municipal,
            availability: 0.998,
            mean_exit_years: 75.0,
            tenant_priority: true,
        }
    }

    /// A campus network: very stable, prioritized, slightly lower
    /// availability (maintenance windows).
    pub fn campus() -> Self {
        Provider {
            ownership: Ownership::Campus,
            availability: 0.997,
            mean_exit_years: 60.0,
            tenant_priority: true,
        }
    }

    /// A federated network: availability depends on hotspot churn; the
    /// *network* persists but any location's coverage is volatile, and the
    /// economic model itself is young (mean exit 12 y).
    pub fn federated() -> Self {
        Provider {
            ownership: Ownership::Federated,
            availability: 0.97,
            mean_exit_years: 12.0,
            tenant_priority: false,
        }
    }

    /// Samples the year (from epoch) at which this provider exits.
    ///
    /// # Panics
    ///
    /// Panics if `mean_exit_years` is not positive and finite (every
    /// built-in provider constructor sets a positive mean).
    #[allow(clippy::expect_used)]
    pub fn sample_exit_years(&self, rng: &mut Rng) -> f64 {
        Exponential::with_mean(self.mean_exit_years)
            // simlint: allow(P001, documented panic; provider constructors set positive means)
            .expect("mean_exit_years is positive")
            .sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_ordered_by_continuity() {
        let c = Provider::commercial();
        let m = Provider::municipal();
        let f = Provider::federated();
        assert!(m.mean_exit_years > c.mean_exit_years);
        assert!(c.mean_exit_years > f.mean_exit_years);
    }

    #[test]
    fn exit_sampling_matches_mean() {
        let p = Provider::commercial();
        let mut rng = Rng::seed_from(8);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| p.sample_exit_years(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 15.0).abs() < 0.25, "mean {mean}");
    }

    #[test]
    fn priority_flags() {
        assert!(Provider::municipal().tenant_priority);
        assert!(Provider::campus().tenant_priority);
        assert!(!Provider::commercial().tenant_priority);
        assert!(!Provider::federated().tenant_priority);
    }
}
