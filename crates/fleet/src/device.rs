//! Edge devices: the paper's transmit-only, energy-harvesting sensors.
//!
//! A [`DeviceSpec`] describes an archetype (radio, energy system, reporting
//! cadence, vendor posture); [`DeviceState`] is one deployed instance with
//! its sampled lifetime and availability. Devices follow the §3.1
//! takeaways: they expect **no human attention** during their service life
//! and rely on **properties** of infrastructure, never specific instances —
//! unless explicitly configured vendor-locked for ablations.

use std::sync::Arc;

use net::packet::{Payload, RadioTech};
use reliability::system::{bom, Block};
use simcore::dist::{InverseCdf, ParamError};
use simcore::rng::Rng;
use simcore::time::{SimDuration, SimTime};

/// How the device is powered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnergySystem {
    /// Energy harvesting with capacitor buffer — the paper's design point.
    Harvesting,
    /// Primary battery — the 10–15-year folklore design point.
    Battery,
}

/// A device archetype.
#[derive(Clone, Copy, Debug)]
pub struct DeviceSpec {
    /// Radio technology.
    pub tech: RadioTech,
    /// Power architecture.
    pub energy: EnergySystem,
    /// Application payload per report.
    pub payload: Payload,
    /// Reporting interval.
    pub report_interval: SimDuration,
    /// True if the device only works with its manufacturer's gateways.
    pub vendor_locked: bool,
    /// Long-run energy availability (fraction of reports with enough
    /// energy to transmit), from `energy::budget` sizing. 1.0 = never
    /// energy-limited.
    pub energy_availability: f64,
}

impl DeviceSpec {
    /// The paper's initial experiment device (§4.1): harvesting,
    /// transmit-only, hourly 24-byte reports, standards-compliant.
    pub fn paper_sensor(tech: RadioTech) -> Self {
        DeviceSpec {
            tech,
            energy: EnergySystem::Harvesting,
            payload: Payload::CREDIT_UNIT,
            report_interval: SimDuration::from_hours(1),
            vendor_locked: false,
            energy_availability: 0.999,
        }
    }

    /// Reports per week (the paper's uptime metric counts weekly arrivals).
    pub fn reports_per_week(&self) -> u64 {
        simcore::time::WEEK / self.report_interval.as_secs().max(1)
    }

    /// The archetype's reliability BOM in `env`: the lifetime model every
    /// device of this archetype follows, sampled directly as a
    /// [`LifetimeLaw::Bom`] or through its tabulated inverse as a
    /// [`LifetimeLaw::Tabulated`].
    pub fn lifetime_block(&self, env: &bom::Environment) -> Block {
        match self.energy {
            EnergySystem::Harvesting => bom::harvesting_node(env),
            EnergySystem::Battery => bom::battery_node(env),
        }
    }
}

/// The law a fleet arm draws every device lifetime from: the build's
/// first lifetimes and every replacement's alike (DESIGN.md §13).
pub enum LifetimeLaw {
    /// The archetype's BOM, sampled component by component
    /// ([`Block::sample_ttf`]): Legacy sampling, the draws the paper-scale
    /// goldens pin.
    Bom(Block),
    /// The BOM's lifetime CDF tabulated and inverted: one open uniform
    /// per draw. The cohort modes share one table per energy system.
    Tabulated(Arc<InverseCdf>),
}

impl LifetimeLaw {
    /// Intervals of a tabulated law's inverse-CDF table.
    const KNOTS: usize = 4096;

    /// The table a [`Tabulated`](Self::Tabulated) law inverts: `block`'s
    /// lifetime CDF, `1 − survival(t)`, on 4096 intervals over
    /// `[0, t_max]` years. A draw past the tabulated mass
    /// clamps to `t_max`, so callers pick `t_max` well past their horizon.
    ///
    /// # Errors
    ///
    /// [`ParamError`] for a `t_max` that is not finite and positive.
    pub fn table(block: &Block, t_max: f64) -> Result<Arc<InverseCdf>, ParamError> {
        InverseCdf::tabulate(|t| 1.0 - block.survival(t), t_max, Self::KNOTS).map(Arc::new)
    }

    /// Draws one lifetime in years from `rng`.
    pub fn sample_years(&self, rng: &mut Rng) -> f64 {
        match self {
            LifetimeLaw::Bom(block) => block.sample_ttf(rng),
            LifetimeLaw::Tabulated(table) => table.invert(rng.next_f64_open()),
        }
    }
}

/// One deployed device.
#[derive(Clone, Debug)]
pub struct DeviceState {
    /// The archetype.
    pub spec: DeviceSpec,
    /// When it was installed.
    pub installed_at: SimTime,
    /// When its hardware fails (sampled at install).
    pub fails_at: SimTime,
    /// Whether it has been marked failed.
    pub failed: bool,
    /// Chaos: firmware wedged (transmitting nothing) until this time.
    pub stuck_until: SimTime,
    /// Chaos: emitting garbage readings (transmit, but worthless) until
    /// this time.
    pub byzantine_until: SimTime,
}

impl DeviceState {
    /// Deploys a device at `now`, drawing its hardware lifetime from
    /// `lifetime`, the law of the archetype's
    /// [`lifetime_block`](DeviceSpec::lifetime_block).
    pub fn deploy(spec: DeviceSpec, lifetime: &LifetimeLaw, now: SimTime, rng: &mut Rng) -> Self {
        let ttf_years = lifetime.sample_years(rng);
        DeviceState {
            spec,
            installed_at: now,
            fails_at: now.saturating_add(SimDuration::from_years_f64(ttf_years)),
            failed: false,
            stuck_until: SimTime::ZERO,
            byzantine_until: SimTime::ZERO,
        }
    }

    /// Whether the firmware is wedged (chaos-injected) at `t`.
    pub fn stuck_at(&self, t: SimTime) -> bool {
        t < self.stuck_until
    }

    /// Whether the device emits garbage readings (chaos-injected) at `t`.
    pub fn byzantine_at(&self, t: SimTime) -> bool {
        t < self.byzantine_until
    }

    /// Whether the hardware is functional at `t`.
    pub fn alive_at(&self, t: SimTime) -> bool {
        !self.failed && t < self.fails_at
    }

    /// Age at time `t`.
    pub fn age_at(&self, t: SimTime) -> SimDuration {
        if t <= self.installed_at {
            SimDuration::ZERO
        } else {
            t.since(self.installed_at)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> bom::Environment {
        bom::Environment::default()
    }

    fn bom_law(spec: &DeviceSpec) -> LifetimeLaw {
        LifetimeLaw::Bom(spec.lifetime_block(&env()))
    }

    #[test]
    fn paper_sensor_shape() {
        let s = DeviceSpec::paper_sensor(RadioTech::LoRa);
        assert_eq!(s.payload.len(), 24);
        assert_eq!(s.reports_per_week(), 168);
        assert!(!s.vendor_locked);
        assert_eq!(s.energy, EnergySystem::Harvesting);
    }

    #[test]
    fn deploy_samples_future_failure() {
        let mut rng = Rng::seed_from(1);
        let spec = DeviceSpec::paper_sensor(RadioTech::Ieee802154);
        let d = DeviceState::deploy(spec, &bom_law(&spec), SimTime::from_years(2), &mut rng);
        assert!(d.fails_at > d.installed_at);
        assert!(d.alive_at(SimTime::from_years(2)));
        assert!(!d.alive_at(SimTime::MAX));
    }

    #[test]
    fn harvesting_outlives_battery_in_distribution() {
        let mut rng = Rng::seed_from(2);
        let n = 2_000;
        let mean_life = |energy: EnergySystem, rng: &mut Rng| {
            let spec = DeviceSpec { energy, ..DeviceSpec::paper_sensor(RadioTech::LoRa) };
            let law = bom_law(&spec);
            (0..n)
                .map(|_| {
                    let d = DeviceState::deploy(spec, &law, SimTime::ZERO, rng);
                    d.fails_at.as_years_f64()
                })
                .sum::<f64>()
                / n as f64
        };
        let h = mean_life(EnergySystem::Harvesting, &mut rng);
        let b = mean_life(EnergySystem::Battery, &mut rng);
        assert!(h > b, "harvesting {h} battery {b}");
    }

    /// `table.invert(u)` as a binary search over every knot finds it:
    /// the first knot with `cdf ≥ u`, interpolated from its predecessor.
    fn invert_by_bisection(table: &InverseCdf, u: f64) -> f64 {
        let (ts, cdf) = table.knots();
        let last = cdf.len() - 1;
        if u <= cdf[0] {
            return ts[0];
        }
        if u >= cdf[last] {
            return ts[last];
        }
        let hi = cdf.partition_point(|&f| f < u);
        let (f0, f1) = (cdf[hi - 1], cdf[hi]);
        let frac = if f1 > f0 { (u - f0) / (f1 - f0) } else { 0.0 };
        ts[hi - 1] + frac * (ts[hi] - ts[hi - 1])
    }

    #[test]
    fn lifetime_tables_invert_like_a_full_binary_search() {
        let mut rng = Rng::seed_from(6);
        for energy in [EnergySystem::Harvesting, EnergySystem::Battery] {
            let spec = DeviceSpec { energy, ..DeviceSpec::paper_sensor(RadioTech::LoRa) };
            let table = LifetimeLaw::table(&spec.lifetime_block(&env()), 200.0).unwrap();
            let mut us: Vec<f64> = (0..100_000).map(|_| rng.next_f64_open()).collect();
            // Every knot's CDF value and the floats either side of it: the
            // edges of each search range.
            for &f in table.knots().1 {
                let bits = f.to_bits();
                us.extend([f, f64::from_bits(bits.saturating_sub(1)), f64::from_bits(bits + 1)]);
            }
            us.extend([0.0, 0.5, 1.0 - f64::EPSILON / 2.0]);
            for u in us {
                let want = invert_by_bisection(&table, u);
                assert_eq!(table.invert(u).to_bits(), want.to_bits(), "{energy:?} u = {u:e}");
            }
        }
    }

    #[test]
    fn age_accounting() {
        let mut rng = Rng::seed_from(3);
        let spec = DeviceSpec::paper_sensor(RadioTech::LoRa);
        let d = DeviceState::deploy(spec, &bom_law(&spec), SimTime::from_years(5), &mut rng);
        assert_eq!(d.age_at(SimTime::from_years(4)), SimDuration::ZERO);
        assert_eq!(d.age_at(SimTime::from_years(8)), SimDuration::from_years(3));
    }
}
