//! End-to-end metrics over experiment runs.
//!
//! The paper's headline metric is weekly end-to-end uptime (§4); operators
//! additionally care about cost per delivered reading and labor per
//! device-decade. This module aggregates those across Monte-Carlo
//! replicates of the fleet simulation.

use econ::money::Usd;
use fleet::sim::ArmReport;
use simcore::stats::Samples;

/// Cost per delivered reading for one arm.
pub fn cost_per_reading(report: &ArmReport) -> Usd {
    if report.readings_delivered == 0 {
        return Usd::ZERO;
    }
    report.spend / report.readings_delivered as i64
}

/// Labor hours per device-decade for one arm over `horizon_years`.
pub fn labor_per_device_decade(report: &ArmReport, devices: u64, horizon_years: f64) -> f64 {
    if devices == 0 || horizon_years <= 0.0 {
        return 0.0;
    }
    report.labor.hours() / (devices as f64 * horizon_years / 10.0)
}

/// Aggregated per-arm statistics across Monte-Carlo replicates.
#[derive(Clone, Debug)]
pub struct ArmSummary {
    /// Arm display name.
    pub name: &'static str,
    /// Uptime samples across replicates.
    pub uptime: Samples,
    /// Data-yield samples across replicates.
    pub data_yield: Samples,
    /// Device-failure counts across replicates.
    pub device_failures: Samples,
    /// Gateway-repair counts across replicates.
    pub gateway_repairs: Samples,
    /// Total spend across replicates (dollars, f64 for quantiles).
    pub spend_dollars: Samples,
    /// Labor hours across replicates.
    pub labor_hours: Samples,
}

impl ArmSummary {
    /// Creates an empty summary for an arm.
    pub fn new(name: &'static str) -> Self {
        ArmSummary {
            name,
            uptime: Samples::new(),
            data_yield: Samples::new(),
            device_failures: Samples::new(),
            gateway_repairs: Samples::new(),
            spend_dollars: Samples::new(),
            labor_hours: Samples::new(),
        }
    }

    /// Folds one replicate's scalars into the summary. Push order decides
    /// the stored sample order, so fold rows in seed order.
    pub fn add_row(&mut self, row: &ArmRow) {
        self.uptime.add(row.uptime);
        self.data_yield.add(row.data_yield);
        self.device_failures.add(row.device_failures);
        self.gateway_repairs.add(row.gateway_repairs);
        self.spend_dollars.add(row.spend_dollars);
        self.labor_hours.add(row.labor_hours);
    }

    /// Number of replicates folded in.
    pub fn replicates(&self) -> usize {
        self.uptime.len()
    }
}

/// One replicate's contribution to an [`ArmSummary`], reduced to the six
/// aggregated scalars. Lets parallel workers ship a few floats per seed
/// instead of keeping whole `FleetReport`s alive until the aggregation
/// barrier.
#[derive(Clone, Copy, Debug)]
pub struct ArmRow {
    /// Arm display name (summary construction key).
    pub name: &'static str,
    /// Weekly end-to-end uptime fraction.
    pub uptime: f64,
    /// Delivered/expected readings fraction.
    pub data_yield: f64,
    /// Device failures (as f64 for quantile math).
    pub device_failures: f64,
    /// Gateway repairs.
    pub gateway_repairs: f64,
    /// Total spend in dollars.
    pub spend_dollars: f64,
    /// Total labor hours.
    pub labor_hours: f64,
}

impl ArmRow {
    /// Extracts the aggregated scalars from one arm report.
    pub fn of(report: &ArmReport) -> Self {
        ArmRow {
            name: report.name,
            uptime: report.uptime(),
            data_yield: report.data_yield(),
            device_failures: report.device_failures as f64,
            gateway_repairs: report.gateway_repairs as f64,
            spend_dollars: report.spend.dollars_f64(),
            labor_hours: report.labor.hours(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use econ::labor::PersonHours;

    fn report() -> ArmReport {
        ArmReport {
            name: "test",
            weeks_up: 90,
            weeks_total: 100,
            readings_delivered: 1_000,
            readings_expected: 1_200,
            device_failures: 3,
            device_replacements: 3,
            gateway_repairs: 2,
            backhaul_migrations: 0,
            labor: PersonHours::from_hours(50.0),
            spend: Usd::from_dollars(2_000),
            wallets_exhausted: 0,
            faults_injected: 0,
            lifetime_observations: Vec::new(),
        }
    }

    #[test]
    fn cost_per_reading_division() {
        assert_eq!(cost_per_reading(&report()), Usd::from_dollars(2));
        let empty = ArmReport { readings_delivered: 0, ..report() };
        assert_eq!(cost_per_reading(&empty), Usd::ZERO);
    }

    #[test]
    fn labor_per_device_decade_math() {
        // 50 hours over 10 devices × 50 years = 50 device-decades -> 1 h.
        let l = labor_per_device_decade(&report(), 10, 50.0);
        assert!((l - 1.0).abs() < 1e-12);
        assert_eq!(labor_per_device_decade(&report(), 0, 50.0), 0.0);
    }

    #[test]
    fn summary_aggregates() {
        let mut s = ArmSummary::new("arm");
        s.add_row(&ArmRow::of(&report()));
        s.add_row(&ArmRow::of(&ArmReport { weeks_up: 50, ..report() }));
        assert_eq!(s.replicates(), 2);
        assert!((s.uptime.mean() - 0.7).abs() < 1e-12);
        assert!((s.labor_hours.mean() - 50.0).abs() < 1e-12);
        assert!((s.device_failures.mean() - 3.0).abs() < 1e-12);
    }
}
