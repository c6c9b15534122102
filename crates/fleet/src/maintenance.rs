//! Maintenance crews, truck rolls, and geographic batching.
//!
//! Two of the paper's observations live here:
//!
//! * §1: replacing a city's worth of devices costs person-hours that scale
//!   with fleet size — ~200,000 hours for LA's census at 20 min/device.
//! * §1: *"infrastructure projects operate in geographical batches to keep
//!   costs down — one project repaves a block, installs its traffic
//!   sensors, and replaces its streetlights."* Batched service amortizes
//!   travel; reactive service pays full truck rolls.

use econ::labor::PersonHours;
use econ::money::Usd;
use simcore::dist::LogNormal;
use simcore::rng::Rng;
use simcore::time::SimDuration;

/// A maintenance workforce.
#[derive(Clone, Copy, Debug)]
pub struct Crew {
    /// Number of field technicians.
    pub workers: u32,
    /// Working hours per technician per day.
    pub hours_per_day: f64,
    /// Fully-burdened hourly labor rate.
    pub hourly_rate: Usd,
}

impl Crew {
    /// A small municipal crew: 4 techs, 8 h/day, $85/h burdened.
    pub fn municipal_small() -> Self {
        Crew { workers: 4, hours_per_day: 8.0, hourly_rate: Usd::from_dollars(85) }
    }

    /// Calendar time for this crew to complete `effort`.
    pub fn calendar_time(&self, effort: PersonHours) -> SimDuration {
        effort.calendar_time(self.workers, self.hours_per_day)
    }

    /// Labor cost of `effort`.
    pub fn cost(&self, effort: PersonHours) -> Usd {
        effort.cost(self.hourly_rate)
    }
}

/// Service-time model for one site visit.
#[derive(Clone, Debug)]
pub struct ServiceTimes {
    /// Travel time per *dispatch* (a reactive roll pays it once per device;
    /// a batch pays it once per batch plus a short hop between sites).
    pub travel: SimDuration,
    /// Hop time between adjacent sites within a batch.
    pub intra_batch_hop: SimDuration,
    /// On-site service time distribution (minutes-scale, lognormal).
    pub on_site: LogNormal,
}

impl ServiceTimes {
    /// The paper's nominal figures: 20 minutes total per device for a
    /// reactive roll. We split that into 12 min travel + 8 min on-site
    /// (mean), with a 2-minute intra-batch hop.
    #[allow(clippy::expect_used)]
    pub fn paper_nominal() -> Self {
        ServiceTimes {
            travel: SimDuration::from_mins(12),
            intra_batch_hop: SimDuration::from_mins(2),
            // simlint: allow(P001, constant parameters; infallible by construction)
            on_site: LogNormal::from_mean_cv(8.0, 0.4).expect("valid parameters"),
        }
    }

    /// Samples the on-site minutes for one device.
    pub fn sample_on_site_mins(&self, rng: &mut Rng) -> f64 {
        self.on_site.sample(rng)
    }
}

/// Effort to service `n` devices reactively (one dispatch each).
pub fn reactive_effort(times: &ServiceTimes, n: u64, rng: &mut Rng) -> PersonHours {
    let mut total_mins = 0.0;
    for _ in 0..n {
        total_mins += times.travel.as_secs() as f64 / 60.0 + times.sample_on_site_mins(rng);
    }
    PersonHours::from_hours(total_mins / 60.0)
}

/// Effort to service `n` devices in geographic batches of `batch_size`
/// (one travel per batch, hops between sites).
///
/// # Panics
///
/// Panics if `batch_size == 0`.
pub fn batched_effort(
    times: &ServiceTimes,
    n: u64,
    batch_size: u64,
    rng: &mut Rng,
) -> PersonHours {
    assert!(batch_size > 0, "batch size must be positive");
    let batches = n.div_ceil(batch_size);
    let mut total_mins = batches as f64 * times.travel.as_secs() as f64 / 60.0;
    for _ in 0..n {
        total_mins += times.sample_on_site_mins(rng);
    }
    // Hops: every device after the first in each batch.
    let hops = n.saturating_sub(batches);
    total_mins += hops as f64 * times.intra_batch_hop.as_secs() as f64 / 60.0;
    PersonHours::from_hours(total_mins / 60.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reactive_matches_paper_nominal() {
        // 20 min/device mean -> 1,000 devices ≈ 333 person-hours.
        let times = ServiceTimes::paper_nominal();
        let mut rng = Rng::seed_from(1);
        let e = reactive_effort(&times, 1_000, &mut rng);
        assert!((e.hours() - 333.3).abs() < 15.0, "hours {}", e.hours());
    }

    #[test]
    fn batch_of_one_is_reactive_plus_no_hops() {
        let times = ServiceTimes::paper_nominal();
        let base = Rng::seed_from(3);
        let mut r1 = base.split("a", 0);
        let mut r2 = base.split("a", 0);
        let reactive = reactive_effort(&times, 100, &mut r1);
        let batched = batched_effort(&times, 100, 1, &mut r2);
        assert!((reactive.hours() - batched.hours()).abs() < 1e-9);
    }

    #[test]
    fn crew_calendar_and_cost() {
        let crew = Crew::municipal_small();
        let effort = PersonHours::from_hours(320.0);
        // 4 workers * 8 h = 32 h/day -> 10 days.
        assert!((crew.calendar_time(effort).as_days_f64() - 10.0).abs() < 1e-9);
        assert_eq!(crew.cost(effort), Usd::from_dollars(27_200));
    }

    #[test]
    fn zero_devices_zero_effort() {
        let times = ServiceTimes::paper_nominal();
        let mut rng = Rng::seed_from(4);
        assert_eq!(reactive_effort(&times, 0, &mut rng).hours(), 0.0);
        let b = batched_effort(&times, 0, 10, &mut rng);
        assert_eq!(b.hours(), 0.0);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_size_panics() {
        let times = ServiceTimes::paper_nominal();
        batched_effort(&times, 10, 0, &mut Rng::seed_from(5));
    }
}
