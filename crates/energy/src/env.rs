//! Environmental traces: irradiance and temperature over decades.
//!
//! Harvest-powered devices live or die by their environment. The models
//! here are deliberately structural rather than meteorological: a clear-sky
//! solar geometry with diurnal and seasonal terms, an AR(1) cloudiness
//! process, and a seasonal temperature sinusoid. They capture the features
//! that matter to energy-neutral sizing — day/night, winter troughs, and
//! multi-day overcast runs — while staying deterministic per seed.

use simcore::rng::Rng;
use simcore::time::{SimTime, DAY, YEAR};

/// Clear-sky solar irradiance (W/m²) at a site of the given latitude-like
/// seasonality, at simulation time `t`.
///
/// The model: a half-sine diurnal profile between 06:00 and 18:00 local,
/// peak `peak_w_m2`, modulated seasonally by
/// `1 - seasonal_depth/2 · (1 - cos(2π·day/365))` — mid-winter days deliver
/// `1 - seasonal_depth` of the mid-summer peak. Day 0 is mid-summer.
pub fn clear_sky_irradiance(t: SimTime, peak_w_m2: f64, seasonal_depth: f64) -> f64 {
    let sod = t.second_of_day() as f64;
    let day_frac = sod / DAY as f64;
    // Daylight window 0.25..0.75 of the day.
    if !(0.25..0.75).contains(&day_frac) {
        return 0.0;
    }
    let diurnal = (core::f64::consts::PI * (day_frac - 0.25) / 0.5).sin();
    let doy = (t.as_secs() % YEAR) as f64 / YEAR as f64;
    let seasonal = 1.0 - seasonal_depth * 0.5 * (1.0 - (core::f64::consts::TAU * doy).cos());
    peak_w_m2 * diurnal * seasonal
}

/// An AR(1) cloudiness process: returns an attenuation factor in `[0, 1]`
/// (1 = clear, 0 = fully overcast), updated once per step.
///
/// Persistence `phi` close to 1 yields realistic multi-day overcast runs —
/// the sizing-critical feature.
#[derive(Clone, Debug)]
pub struct Cloudiness {
    phi: f64,
    sigma: f64,
    mean: f64,
    state: f64,
}

impl Cloudiness {
    /// Creates a process with persistence `phi ∈ [0,1)`, innovation
    /// standard deviation `sigma >= 0`, and long-run mean clearness
    /// `mean ∈ [0,1]`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters.
    pub fn new(phi: f64, sigma: f64, mean: f64) -> Self {
        assert!((0.0..1.0).contains(&phi), "phi must be in [0,1)");
        assert!(sigma >= 0.0 && sigma.is_finite(), "sigma must be >= 0");
        assert!((0.0..=1.0).contains(&mean), "mean must be in [0,1]");
        Cloudiness { phi, sigma, mean, state: mean }
    }

    /// A temperate default: persistence 0.8/day, sd 0.25, mean clearness 0.65.
    pub fn temperate() -> Self {
        Cloudiness::new(0.8, 0.25, 0.65)
    }

    /// Advances one step (conventionally one day) and returns the new
    /// clearness factor in `[0, 1]`.
    pub fn step(&mut self, rng: &mut Rng) -> f64 {
        let noise = simcore::dist::standard_normal(rng) * self.sigma;
        self.state = self.mean + self.phi * (self.state - self.mean) + noise;
        self.state = self.state.clamp(0.0, 1.0);
        self.state
    }

    /// The current clearness without advancing.
    pub fn current(&self) -> f64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::{SimDuration, SimTime};

    #[test]
    fn night_is_dark() {
        let midnight = SimTime::from_days(10);
        assert_eq!(clear_sky_irradiance(midnight, 1000.0, 0.5), 0.0);
        let late = midnight + SimDuration::from_hours(23);
        assert_eq!(clear_sky_irradiance(late, 1000.0, 0.5), 0.0);
    }

    #[test]
    fn noon_is_peak_in_summer() {
        let noon_summer = SimTime::ZERO + SimDuration::from_hours(12);
        let w = clear_sky_irradiance(noon_summer, 1000.0, 0.5);
        assert!((w - 1000.0).abs() < 1.0, "w {w}");
    }

    #[test]
    fn winter_noon_attenuated_by_seasonal_depth() {
        let winter_noon = SimTime::from_days(182) + SimDuration::from_hours(12);
        let w = clear_sky_irradiance(winter_noon, 1000.0, 0.5);
        assert!((w - 500.0).abs() < 5.0, "w {w}");
    }

    #[test]
    fn irradiance_never_negative() {
        for h in 0..24 {
            for d in [0, 90, 182, 270] {
                let t = SimTime::from_days(d) + SimDuration::from_hours(h);
                assert!(clear_sky_irradiance(t, 800.0, 0.6) >= 0.0);
            }
        }
    }

    #[test]
    fn cloudiness_stays_bounded_and_averages_near_mean() {
        let mut c = Cloudiness::temperate();
        let mut rng = Rng::seed_from(3);
        let mut sum = 0.0;
        let n = 20_000;
        for _ in 0..n {
            let v = c.step(&mut rng);
            assert!((0.0..=1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        // The [0,1] clamp clips the near (upper) boundary more often than
        // the far one, biasing the realized mean slightly below the target.
        assert!((mean - 0.65).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn cloudiness_is_persistent() {
        // Lag-1 autocorrelation should be clearly positive.
        let mut c = Cloudiness::temperate();
        let mut rng = Rng::seed_from(4);
        let xs: Vec<f64> = (0..10_000).map(|_| c.step(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var: f64 = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>();
        let cov: f64 = xs.windows(2).map(|w| (w[0] - mean) * (w[1] - mean)).sum::<f64>();
        let rho = cov / var;
        assert!(rho > 0.5, "rho {rho}");
    }

    #[test]
    fn cloudiness_rejects_bad_params() {
        let err = std::panic::catch_unwind(|| Cloudiness::new(1.0, 0.1, 0.5));
        assert!(err.is_err());
    }

    #[test]
    fn cloudiness_deterministic_per_seed() {
        let run = |seed| {
            let mut c = Cloudiness::temperate();
            let mut rng = Rng::seed_from(seed);
            (0..100).map(|_| c.step(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
