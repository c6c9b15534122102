//! Geometric chaos: storms with a footprint instead of an arm scope.
//!
//! [`FaultKind::RegionalOutage`] takes
//! a whole arm down — the right model for a backhaul or grid failure,
//! but weather is spatial: a storm cell has a center and a radius, and
//! only the devices underneath it suffer. [`GeoStormBuilder`] plans that
//! geometry deterministically: per arm, Poisson storm arrivals draw a
//! center uniformly over the arm's district
//! ([`fleet::geometry::FleetGeometry`]), and the storm disc selects its
//! victims through the arm's [`SpatialGrid`] — an O(candidates) query,
//! not an O(devices) scan — expanding at *plan-build time* into one
//! [`FaultKind::StormKnockout`] per affected device. The injector,
//! sharded fault routing, and snapshot replay cursor therefore need no
//! geometry at all: geometric chaos inherits CRN discipline and
//! bit-identical snapshot/resume from the existing plan machinery.
//!
//! The same nesting contract as [`FaultPlanBuilder`](crate::FaultPlanBuilder)
//! holds: every candidate storm draws its arrival gap, inclusion variate
//! and center at full rate regardless of intensity, and the inclusion
//! variate alone thins the plan — so lower-intensity plans are exact
//! subsets of higher-intensity ones and the storm-uptime monotonicity
//! metamorphic property is meaningful. Knockouts force transmit silence
//! (max-merged stuck-until), so more storms can only cost uptime.

use fleet::geometry::FleetGeometry;
use fleet::sim::FleetConfig;
use net::grid::SpatialGrid;
use net::topology::Point;
use simcore::error::ModelError;
use simcore::event::EventQueue;
use simcore::rng::Rng;
use simcore::time::{SimDuration, SimTime};

use crate::{Fault, FaultKind, FaultPlan};

/// Plans seeded geometric storms over a fleet's device layout.
#[derive(Clone, Debug)]
pub struct GeoStormBuilder {
    seed: u64,
    /// Storm cells per arm-year at full intensity.
    pub storm_rate: f64,
    /// Storm disc radius (m).
    pub radius_m: f64,
    /// How long a knocked-out device stays silent.
    pub duration: SimDuration,
}

impl GeoStormBuilder {
    /// City defaults: two storm cells per arm-year, a 400 m disc, and a
    /// three-day knockout (downed poles wait for a truck roll).
    pub fn city(seed: u64) -> Self {
        GeoStormBuilder {
            seed,
            storm_rate: 2.0,
            radius_m: 400.0,
            duration: SimDuration::from_hours(72),
        }
    }

    /// Builds the storm schedule for `cfg` over `geometry` at the given
    /// intensity. `geometry` must come from
    /// [`FleetGeometry::for_config`] on the same `cfg` (arm/device
    /// counts must line up; extra geometry arms are ignored).
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidRate`] if `intensity` is outside `[0, 1]`,
    /// or the rate or radius is negative or non-finite.
    pub fn build(
        &self,
        cfg: &FleetConfig,
        geometry: &FleetGeometry,
        intensity: f64,
    ) -> Result<FaultPlan, ModelError> {
        if !intensity.is_finite() || !(0.0..=1.0).contains(&intensity) {
            return Err(ModelError::InvalidRate { what: "intensity", value: intensity });
        }
        for (what, value) in [("storm_rate", self.storm_rate), ("radius_m", self.radius_m)] {
            if !value.is_finite() || value < 0.0 {
                return Err(ModelError::InvalidRate { what, value });
            }
        }

        let root = Rng::seed_from(self.seed);
        let years = cfg.horizon.as_years_f64();
        let mut queue: EventQueue<FaultKind> = EventQueue::new();
        let mut victims: Vec<u32> = Vec::new();

        if self.storm_rate > 0.0 {
            for (ai, arm_geo) in geometry.arms.iter().enumerate().take(cfg.arms.len()) {
                let grid: SpatialGrid = arm_geo.grid(self.radius_m.max(1.0));
                let mut rng = root.split("geo-storm", ai as u64);
                let mut t_years = 0.0f64;
                loop {
                    // Poisson arrivals: exponential gaps at the full rate.
                    t_years += -(1.0 - rng.next_f64()).ln() / self.storm_rate;
                    if t_years >= years {
                        break;
                    }
                    let include = rng.next_f64() < intensity;
                    // The center is drawn at every intensity, included or
                    // not, so thinning preserves the nested-subset
                    // contract.
                    let center = Point::new(
                        rng.next_f64() * arm_geo.side_m,
                        rng.next_f64() * arm_geo.side_m,
                    );
                    if !include {
                        continue;
                    }
                    let at = SimTime::ZERO + SimDuration::from_years_f64(t_years);
                    // Victim selection is draw-free: a pure grid query in
                    // ascending device order (FIFO ties in the queue keep
                    // that order in the plan).
                    grid.within_into(center, self.radius_m, &mut victims);
                    for &device in &victims {
                        queue.schedule(
                            at,
                            FaultKind::StormKnockout {
                                arm: ai,
                                device: device as usize,
                                duration: self.duration,
                            },
                        );
                    }
                }
            }
        }

        let mut faults = Vec::with_capacity(queue.len());
        while let Some((at, kind)) = queue.pop() {
            faults.push(Fault { at, kind });
        }
        Ok(FaultPlan::from_faults(faults))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_with_plan;
    use fleet::run::{Run, Shards, Start};
    use fleet::sim::FleetSim;

    fn cfg(seed: u64) -> FleetConfig {
        FleetConfig::paper_experiment(seed)
    }

    fn city_plan(seed: u64, intensity: f64) -> FaultPlan {
        let c = cfg(seed);
        let geo = FleetGeometry::for_config(&c);
        GeoStormBuilder::city(seed ^ 0x9e0_57a3)
            .build(&c, &geo, intensity)
            .unwrap()
    }

    #[test]
    fn plans_are_deterministic_and_nested() {
        let a = city_plan(5, 0.5);
        let b = city_plan(5, 0.5);
        assert_eq!(a, b);
        let hi = city_plan(5, 1.0);
        assert!(!hi.is_empty(), "50 years of storms should hit someone");
        assert!(a.len() < hi.len());
        for f in a.faults() {
            assert!(hi.faults().contains(f), "{f:?} missing at full intensity");
        }
        assert!(city_plan(5, 0.0).is_empty());
    }

    #[test]
    fn storms_only_hit_devices_inside_the_disc() {
        // Rebuild the geometry and verify each planned knockout's victim
        // is within radius of *some* storm draw — by brute force over a
        // tiny radius that cannot cover a whole district.
        let c = cfg(3);
        let geo = FleetGeometry::for_config(&c);
        let mut builder = GeoStormBuilder::city(11);
        builder.radius_m = 30.0;
        let plan = builder.build(&c, &geo, 1.0).unwrap();
        for f in plan.faults() {
            let FaultKind::StormKnockout { arm, device, duration } = f.kind else {
                panic!("geo plans contain only storm knockouts, got {:?}", f.kind);
            };
            assert_eq!(duration, builder.duration);
            assert!(arm < c.arms.len());
            assert!(device < geo.arms[arm].devices.len());
        }
    }

    #[test]
    fn storm_knockouts_apply_and_are_diarised() {
        let c = cfg(7);
        let plan = city_plan(7, 1.0);
        let n = plan.len() as u64;
        assert!(n > 0);
        let report = run_with_plan(c, plan);
        let injected: u64 = report.arms.iter().map(|a| a.faults_injected).sum();
        assert_eq!(injected, n, "every planned knockout targets a real device");
        let knockout_lines = report
            .diary
            .render()
            .lines()
            .filter(|l| l.contains("storm knockout"))
            .count() as u64;
        assert_eq!(knockout_lines, n);
    }

    #[test]
    fn zero_intensity_is_a_noop() {
        let plain = FleetSim::run(cfg(9));
        let stormed = run_with_plan(cfg(9), city_plan(9, 0.0));
        assert_eq!(plain.digest(), stormed.digest());
    }

    #[test]
    fn uptime_is_monotone_in_storm_intensity() {
        let run = |intensity: f64| {
            let report = run_with_plan(cfg(13), city_plan(13, intensity));
            report.arms.iter().map(|a| a.weeks_up).sum::<u64>()
        };
        let calm = run(0.0);
        let mid = run(0.5);
        let wild = run(1.0);
        assert!(mid <= calm, "mid {mid} calm {calm}");
        assert!(wild <= mid, "wild {wild} mid {mid}");
        assert!(wild < calm, "full-intensity storms must cost something");
    }

    #[test]
    fn mid_storm_resume_is_bit_identical() {
        let plan = city_plan(21, 1.0);
        assert!(plan.len() > 2, "need storms on both sides of the checkpoint");
        // Checkpoint *between* two knockouts of the same storm cluster if
        // possible — any interior fault time works: the replay cursor
        // carries exact progress.
        let mid = plan.faults()[plan.len() / 2].at;
        let baseline = run_with_plan(cfg(21), plan.clone());
        let dir = std::env::temp_dir().join("chaos-geo-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mid-storm.snap");
        let _ = fleet::run::checkpoint(cfg(21), plan.clone(), mid, &path).unwrap();
        let resumed = fleet::snapshot::resume_from(&path, cfg(21)).unwrap();
        let start = Start::Resumed(Box::new(resumed));
        let resumed = Run { start, faults: plan, shards: Shards::SERIAL }.execute();
        assert_eq!(resumed.digest(), baseline.digest());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn invalid_inputs_are_typed_errors() {
        let c = cfg(1);
        let geo = FleetGeometry::for_config(&c);
        let b = GeoStormBuilder::city(1);
        for bad in [-0.1, 1.5, f64::NAN] {
            assert!(matches!(
                b.build(&c, &geo, bad),
                Err(ModelError::InvalidRate { what: "intensity", .. })
            ));
        }
        let mut broken = GeoStormBuilder::city(1);
        broken.radius_m = f64::NAN;
        assert!(matches!(
            broken.build(&c, &geo, 1.0),
            Err(ModelError::InvalidRate { what: "radius_m", .. })
        ));
    }
}
