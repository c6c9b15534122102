//! City and deployment presets from the paper's citations.
//!
//! Every number here appears in the paper (with its original source noted),
//! so exhibits can reference a single authority.

use econ::money::Usd;

/// A city's sensor-mount census.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CityCensus {
    /// City name.
    pub name: &'static str,
    /// Utility poles in service.
    pub utility_poles: u64,
    /// Signalized intersections.
    pub intersections: u64,
    /// Streetlights.
    pub streetlights: u64,
}

impl CityCensus {
    /// Los Angeles (§1): 320,000 utility poles (NAWPC), 61,315
    /// intersections (LA GeoHub), 210,000 streetlights (LA BSL).
    pub fn los_angeles() -> Self {
        CityCensus {
            name: "Los Angeles",
            utility_poles: 320_000,
            intersections: 61_315,
            streetlights: 210_000,
        }
    }

    /// A small city at roughly 1/100 LA scale (the Chanute-sized operator
    /// the paper argues should still own infrastructure).
    pub fn small_city() -> Self {
        CityCensus {
            name: "Small City",
            utility_poles: 3_200,
            intersections: 610,
            streetlights: 2_100,
        }
    }

    /// Total candidate sensor mounts.
    pub fn total_mounts(&self) -> u64 {
        self.utility_poles + self.intersections + self.streetlights
    }
}

/// A real smart-city deployment the paper cites (§2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeploymentPreset {
    /// Deployment name.
    pub name: &'static str,
    /// Deployed node count.
    pub nodes: u64,
    /// Sensors (when reported separately from nodes).
    pub sensors: u64,
    /// Operator-predicted system lifetime before upgrade, years (the
    /// paper's 2–7-year observation), as a `(min, max)` band.
    pub upgrade_horizon_years: (u32, u32),
}

impl DeploymentPreset {
    /// San Diego (§2): 8,000 smart LEDs with 3,300 sensors.
    pub fn san_diego() -> Self {
        DeploymentPreset {
            name: "San Diego Smart Streetlights",
            nodes: 8_000,
            sensors: 3_300,
            upgrade_horizon_years: (2, 7),
        }
    }

    /// The paper's "typical today" band: 500–5,000 nodes. This preset is
    /// the geometric middle (~1,600 nodes).
    pub fn typical_today() -> Self {
        DeploymentPreset {
            name: "Typical municipal deployment",
            nodes: 1_600,
            sensors: 1_600,
            upgrade_horizon_years: (2, 7),
        }
    }
}

/// Per-unit hardware/deployment cost assumptions used across exhibits.
#[derive(Clone, Copy, Debug)]
pub struct CostPreset {
    /// Edge-device hardware unit cost.
    pub device_hardware: Usd,
    /// Truck-roll cost to install or replace one device.
    pub truck_roll: Usd,
    /// Pi-class gateway hardware.
    pub gateway_hardware: Usd,
    /// Fully-burdened technician rate per hour.
    pub labor_hourly: Usd,
}

impl Default for CostPreset {
    /// Mid-range figures consistent with §2's "millions of dollars for a
    /// few thousand sensors" observation (~$600–1,200 all-in per node).
    fn default() -> Self {
        CostPreset {
            device_hardware: Usd::from_dollars(80),
            truck_roll: Usd::from_dollars(45),
            gateway_hardware: Usd::from_dollars(150),
            labor_hourly: Usd::from_dollars(85),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn la_census_totals() {
        let la = CityCensus::los_angeles();
        assert_eq!(la.total_mounts(), 591_315);
    }

    #[test]
    fn san_diego_matches_paper() {
        let sd = DeploymentPreset::san_diego();
        assert_eq!(sd.nodes, 8_000);
        assert_eq!(sd.sensors, 3_300);
        assert_eq!(sd.upgrade_horizon_years, (2, 7));
    }

    #[test]
    fn typical_band_within_paper_range() {
        let t = DeploymentPreset::typical_today();
        assert!((500..=5_000).contains(&t.nodes));
    }

    #[test]
    fn small_city_is_two_orders_below_la() {
        let la = CityCensus::los_angeles().total_mounts();
        let small = CityCensus::small_city().total_mounts();
        assert!(la / small >= 90 && la / small <= 110);
    }
}
