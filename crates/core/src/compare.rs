//! Scenario comparison: run a matrix of scenarios, render one table.
//!
//! The questions §3 raises are comparative — owned vs rented, maintained
//! vs abandoned, compliant vs vendor-locked. [`compare`] runs a list of
//! named scenarios (each deterministic per its own seed) and assembles the
//! side-by-side table an operator would actually decide from.

use fleet::sim::FleetReport;

use crate::metrics::cost_per_reading;
use crate::report::{f, n, pct, Table};
use crate::scenario::Scenario;

/// One compared row: the scenario's name, audit score, and run outcomes.
pub struct Comparison {
    /// Scenario name.
    pub name: String,
    /// Century-readiness score (principles audit).
    pub readiness: f64,
    /// The simulation report.
    pub report: FleetReport,
}

/// Runs every scenario once.
pub fn compare(scenarios: &[Scenario]) -> Vec<Comparison> {
    scenarios
        .iter()
        .map(|s| Comparison {
            name: s.name.clone(),
            readiness: s.readiness(),
            report: s.run(),
        })
        .collect()
}

/// Renders a comparison as a table: one row per (scenario, arm).
pub fn render(comparisons: &[Comparison]) -> String {
    let mut t = Table::new(
        "Scenario comparison",
        &[
            "scenario",
            "arm",
            "readiness",
            "weekly uptime",
            "data yield",
            "interventions",
            "labor (h)",
            "spend",
            "$/1k readings",
        ],
    );
    for c in comparisons {
        let incidents = c
            .report
            .diary
            .count(simcore::trace::Severity::Incident);
        for arm in &c.report.arms {
            t.row(&[
                c.name.clone(),
                arm.name.to_string(),
                pct(c.readiness),
                pct(arm.uptime()),
                pct(arm.data_yield()),
                n(incidents as u64),
                f(arm.labor.hours(), 0),
                arm.spend.to_string(),
                (cost_per_reading(arm) * 1_000).to_string(),
            ]);
        }
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleet::sim::{ArmConfig, FleetConfig};
    use simcore::time::SimDuration;

    fn quick(name: &str, seed: u64, replace: bool) -> Scenario {
        let mut arm = ArmConfig::paper_owned_154(5, 1);
        if !replace {
            arm.replace_devices = None;
        }
        Scenario {
            name: name.to_string(),
            fleet: FleetConfig {
                horizon: SimDuration::from_years(15),
                arms: vec![arm],
                ..FleetConfig::paper_experiment(seed)
            },
            ..Scenario::paper_experiment(seed)
        }
    }

    #[test]
    fn compares_multiple_scenarios() {
        let scenarios = vec![quick("maintained", 1, true), quick("abandoned", 1, false)];
        let out = compare(&scenarios);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].name, "maintained");
        assert!(
            out[0].report.arms[0].data_yield() >= out[1].report.arms[0].data_yield(),
            "maintenance must not lower yield"
        );
    }

    #[test]
    fn render_has_one_row_per_arm() {
        let scenarios = vec![quick("a", 2, true)];
        let out = compare(&scenarios);
        let text = render(&out);
        assert!(text.contains("Scenario comparison"));
        assert!(text.contains("owned-802.15.4"));
        assert!(text.contains('a'));
    }

    #[test]
    fn empty_comparison_renders_header_only() {
        let text = render(&[]);
        assert!(text.contains("Scenario comparison"));
    }
}
