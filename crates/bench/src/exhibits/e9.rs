//! E9 — the 50-year experiment, both arms (§4.1–4.5).
//!
//! The paper *commences* this experiment; we run it to completion, many
//! times. Ten energy-harvesting transmit-only devices per arm; the owned
//! arm's Pi gateways are maintained while devices are replaced only on
//! documented failure; the Helium arm rides third-party hotspots with $5
//! prepaid wallets. Reported: the weekly end-to-end uptime metric, the
//! intervention ledger, and what fifty years of "unattended" actually cost.

use century::experiment::{run_replicated, ExperimentOutcome};
use century::metrics::cost_per_reading;
use century::report::{f, n, pct, Table};
use fleet::sim::FleetConfig;
use simcore::trace::Severity;

/// Runs the replicated experiment on every available core.
#[allow(clippy::expect_used)]
pub fn compute(base_seed: u64, replicates: usize) -> ExperimentOutcome {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    run_replicated(&FleetConfig::paper_experiment, base_seed, replicates, threads)
        // simlint: allow(P001, exhibit callers pass replicates >= 1; available_parallelism gives threads >= 1)
        .expect("replicates >= 1 and threads >= 1")
}

/// Renders the exhibit.
pub fn render(seed: u64) -> String {
    let out = compute(seed, 20);
    let mut t = Table::new(
        "E9 - The 50-year experiment, 20 seeds (paper metric: some data each week)",
        &[
            "arm",
            "uptime mean",
            "uptime min",
            "data yield",
            "device failures",
            "gateway repairs",
            "labor (h)",
            "spend",
        ],
    );
    for (i, arm) in out.arms.iter().enumerate() {
        let mut uptime = arm.uptime.clone();
        let yield_ = arm.data_yield.clone();
        t.row(&[
            arm.name.to_string(),
            pct(uptime.mean()),
            pct(uptime.quantile(0.0).unwrap_or(0.0)),
            pct(yield_.mean()),
            f(arm.device_failures.mean(), 1),
            f(arm.gateway_repairs.mean(), 1),
            f(arm.labor_hours.mean(), 0),
            format!("${:.0}", arm.spend_dollars.mean()),
        ]);
        let _ = i;
    }
    let mut d = Table::new(
        "E9b - Exemplar run: intervention ledger (the §4.5 diary)",
        &["quantity", "value"],
    );
    d.row(&[
        "diary entries".into(),
        n(out.exemplar.diary().len() as u64),
    ]);
    d.row(&[
        "incidents (interventions)".into(),
        n(out.exemplar.diary().count(Severity::Incident) as u64),
    ]);
    d.row(&[
        "warnings".into(),
        n(out.exemplar.diary().count(Severity::Warning) as u64),
    ]);
    for arm in &out.exemplar.arms {
        d.row(&[
            format!("{}: cost per 1,000 delivered readings", arm.name),
            (cost_per_reading(arm) * 1_000).to_string(),
        ]);
        d.row(&[
            format!("{}: wallets exhausted", arm.name),
            n(arm.wallets_exhausted),
        ]);
    }
    // First few incidents as a diary excerpt.
    let mut excerpt = String::new();
    for e in out
        .exemplar
        .diary()
        .at_least(Severity::Incident)
        .take(8)
    {
        excerpt.push_str(&format!("  [{}] {}\n", e.at, e.message));
    }
    format!(
        "{}\n{}\nDiary excerpt (first incidents):\n{}",
        t.render(),
        d.render(),
        excerpt
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_arms_survive_with_maintenance() {
        let out = compute(500, 5);
        for arm in &out.arms {
            let uptime = arm.uptime.clone();
            assert!(
                uptime.mean() > 0.5,
                "{} mean uptime {}",
                arm.name,
                uptime.mean()
            );
        }
    }

    #[test]
    fn owned_arm_higher_uptime_than_federated() {
        // The owned arm's maintained gateways on a campus backhaul should
        // beat the hotspot-churn-exposed federated arm on uptime.
        let out = compute(600, 10);
        let owned = out.arms[0].uptime.clone().mean();
        let helium = out.arms[1].uptime.clone().mean();
        assert!(
            owned >= helium - 0.02,
            "owned {owned} vs helium {helium}"
        );
    }

    #[test]
    fn experiment_requires_interventions_before_year_50() {
        // §4.4: "The end-to-end system will require maintenance before the
        // fifty year mark."
        let out = compute(700, 3);
        assert!(out.exemplar_incidents() > 0);
    }

    #[test]
    fn render_includes_diary_excerpt() {
        let s = render(800);
        assert!(s.contains("E9"));
        assert!(s.contains("Diary excerpt"));
    }
}
