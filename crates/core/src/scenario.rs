//! Scenario composition: city + posture + fleet, in one struct.
//!
//! A [`Scenario`] is the toolkit's top-level object: it couples a
//! deployment description (how many devices, which arms, which city) with
//! a [`crate::principles::DesignPosture`] so that a single
//! call both **audits** the design against the paper's principles and
//! **simulates** its 50-year trajectory.

use fleet::sim::{FleetConfig, FleetReport, FleetSim};

use crate::presets::CityCensus;
use crate::principles::{audit, readiness_score, DesignPosture, Violation};

/// A composed deployment scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Display name.
    pub name: String,
    /// Host city census (context for labor exhibits).
    pub city: CityCensus,
    /// Design posture for the principles audit.
    pub posture: DesignPosture,
    /// The simulation configuration.
    pub fleet: FleetConfig,
}

impl Scenario {
    /// The paper's §4 experiment as a scenario: a small city, the
    /// compliant posture and [`FleetConfig::paper_experiment`].
    pub fn paper_experiment(seed: u64) -> Self {
        Scenario {
            name: "50-year experiment".to_string(),
            city: CityCensus::small_city(),
            posture: DesignPosture::paper_experiment(),
            fleet: FleetConfig::paper_experiment(seed),
        }
    }

    /// Audits the posture against the paper's principles.
    pub fn audit(&self) -> Vec<Violation> {
        audit(&self.posture)
    }

    /// Century-readiness score in `[0, 1]`.
    pub fn readiness(&self) -> f64 {
        readiness_score(&self.posture)
    }

    /// Runs the simulation once.
    pub fn run(&self) -> FleetReport {
        FleetSim::run(self.fleet.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scenario_is_compliant_and_runs() {
        let s = Scenario::paper_experiment(3);
        assert!(s.audit().is_empty());
        assert_eq!(s.readiness(), 1.0);
        let report = s.run();
        assert_eq!(report.arms.len(), 2);
        assert!(report.arms[0].weeks_total > 2_000);
    }

    #[test]
    fn vendor_posture_fails_audit() {
        let s = Scenario {
            posture: DesignPosture::vendor_kit(),
            ..Scenario::paper_experiment(42)
        };
        assert_eq!(s.audit().len(), 6);
        assert_eq!(s.readiness(), 0.0);
    }
}
