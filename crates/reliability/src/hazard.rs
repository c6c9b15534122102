//! Hazard and survival models for component lifetimes.
//!
//! A [`Hazard`] describes a time-to-failure distribution through its
//! survival function `S(t)` and supports sampling a failure time. The
//! toolkit leans on three shapes:
//!
//! * **Exponential** — memoryless, for random external events (surge,
//!   lightning, vandalism).
//! * **Weibull** — `k < 1` infant mortality, `k > 1` wear-out. The standard
//!   model for electronic component life.
//! * **Bathtub** — competing-risk mixture of an infant-mortality Weibull, a
//!   constant random-failure floor, and a wear-out Weibull: the classic
//!   electronics lifetime curve the paper's 10–15-year folklore comes from.
//!
//! All times are in **years**, the natural unit at this timescale; callers
//! convert to [`simcore::time::SimDuration`] at the simulation boundary.

use simcore::dist;
use simcore::rng::Rng;

/// A time-to-failure model over non-negative times (in years).
pub trait Hazard {
    /// Survival function: probability the unit is still alive at age `t`.
    ///
    /// Must be 1 at `t <= 0`, non-increasing, and approach a limit in
    /// `[0, 1]` as `t → ∞`.
    fn survival(&self, t: f64) -> f64;

    /// Draws a failure time.
    fn sample_ttf(&self, rng: &mut Rng) -> f64;

    /// Probability of failing within `(age, age + dt]` given survival to
    /// `age` — the conditional failure probability used by discrete-event
    /// steppers. Returns 1 if `survival(age)` is zero.
    fn conditional_failure(&self, age: f64, dt: f64) -> f64 {
        let s0 = self.survival(age);
        if s0 <= 0.0 {
            return 1.0;
        }
        (1.0 - self.survival(age + dt) / s0).clamp(0.0, 1.0)
    }

    /// Draws a *remaining* lifetime for a unit already aged `age`, by
    /// inverse-CDF on the conditional survival. Default implementation uses
    /// bisection on `survival`, which suits any monotone model.
    fn sample_remaining(&self, rng: &mut Rng, age: f64) -> f64 {
        let s_age = self.survival(age);
        if s_age <= 0.0 {
            return 0.0;
        }
        let u = rng.next_f64_open();
        let target = s_age * u;
        // S is non-increasing; find t >= age with S(t) = target. Expand an
        // upper bracket geometrically, then bisect.
        let mut hi = (age.max(1e-9)) * 2.0 + 1.0;
        let mut iter = 0;
        while self.survival(hi) > target {
            hi *= 2.0;
            iter += 1;
            if iter > 200 {
                // Defective distribution (mass at infinity): report a very
                // long remaining life rather than looping forever.
                return f64::MAX / 4.0;
            }
        }
        let mut lo = age;
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if self.survival(mid) > target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (0.5 * (lo + hi) - age).max(0.0)
    }
}

/// Exponential (constant-hazard) lifetime.
#[derive(Clone, Copy, Debug)]
pub struct ExponentialHazard {
    dist: dist::Exponential,
}

impl ExponentialHazard {
    /// Creates from the mean time to failure (in years).
    ///
    /// # Panics
    ///
    /// Panics if `mttf_years` is not positive and finite.
    #[allow(clippy::expect_used)]
    pub fn with_mttf(mttf_years: f64) -> Self {
        ExponentialHazard {
            // simlint: allow(P001, documented panicking constructor; see # Panics)
            dist: dist::Exponential::with_mean(mttf_years).expect("MTTF must be positive"),
        }
    }

    /// The mean time to failure in years.
    pub fn mttf(&self) -> f64 {
        self.dist.mean()
    }
}

impl Hazard for ExponentialHazard {
    fn survival(&self, t: f64) -> f64 {
        if t <= 0.0 {
            1.0
        } else {
            (-self.dist.lambda() * t).exp()
        }
    }

    fn sample_ttf(&self, rng: &mut Rng) -> f64 {
        self.dist.sample(rng)
    }

    fn sample_remaining(&self, rng: &mut Rng, _age: f64) -> f64 {
        // Memoryless: remaining life is a fresh draw.
        self.dist.sample(rng)
    }
}

/// Weibull lifetime with shape `k` and scale `λ` (years).
#[derive(Clone, Copy, Debug)]
pub struct WeibullHazard {
    dist: dist::Weibull,
}

impl WeibullHazard {
    /// Creates from shape and scale (years).
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are positive and finite.
    #[allow(clippy::expect_used)]
    pub fn new(shape: f64, scale_years: f64) -> Self {
        WeibullHazard {
            // simlint: allow(P001, documented panicking constructor; see # Panics)
            dist: dist::Weibull::new(shape, scale_years).expect("Weibull parameters invalid"),
        }
    }

    /// Creates a Weibull with the given shape whose **median** life is
    /// `median_years` — field data usually quote medians.
    pub fn with_median(shape: f64, median_years: f64) -> Self {
        // median = scale * ln(2)^(1/shape).
        let scale = median_years / core::f64::consts::LN_2.powf(1.0 / shape);
        Self::new(shape, scale)
    }

    /// Mean time to failure in years.
    pub fn mttf(&self) -> f64 {
        self.dist.mean()
    }

    /// The shape parameter.
    pub fn shape(&self) -> f64 {
        self.dist.shape()
    }

    /// The scale parameter in years.
    pub fn scale(&self) -> f64 {
        self.dist.scale()
    }
}

impl Hazard for WeibullHazard {
    fn survival(&self, t: f64) -> f64 {
        if t <= 0.0 {
            1.0
        } else {
            (-(t / self.dist.scale()).powf(self.dist.shape())).exp()
        }
    }

    fn sample_ttf(&self, rng: &mut Rng) -> f64 {
        self.dist.sample(rng)
    }
}

/// Competing-risk bathtub curve: the unit fails at the **minimum** of an
/// infant-mortality draw, a random-failure draw, and a wear-out draw.
///
/// Survival is the product of the three survivals, giving the canonical
/// decreasing-then-flat-then-increasing hazard.
#[derive(Clone, Copy, Debug)]
pub struct BathtubHazard {
    infant: WeibullHazard,
    random: ExponentialHazard,
    wearout: WeibullHazard,
}

impl BathtubHazard {
    /// Creates a bathtub from its three phases.
    pub fn new(infant: WeibullHazard, random: ExponentialHazard, wearout: WeibullHazard) -> Self {
        BathtubHazard { infant, random, wearout }
    }

    /// A representative consumer-electronics bathtub:
    ///
    /// * infant mortality: Weibull(k = 0.5, λ = 200 y) — a weak early hazard
    ///   that mostly fires in the first months;
    /// * random failures: MTTF 40 y;
    /// * wear-out: Weibull(k = 4, median = `wearout_median_years`).
    pub fn consumer(wearout_median_years: f64) -> Self {
        BathtubHazard::new(
            WeibullHazard::new(0.5, 200.0),
            ExponentialHazard::with_mttf(40.0),
            WeibullHazard::with_median(4.0, wearout_median_years),
        )
    }

    /// Access the wear-out component.
    pub fn wearout(&self) -> &WeibullHazard {
        &self.wearout
    }
}

impl Hazard for BathtubHazard {
    fn survival(&self, t: f64) -> f64 {
        self.infant.survival(t) * self.random.survival(t) * self.wearout.survival(t)
    }

    fn sample_ttf(&self, rng: &mut Rng) -> f64 {
        let a = self.infant.sample_ttf(rng);
        let b = self.random.sample_ttf(rng);
        let c = self.wearout.sample_ttf(rng);
        a.min(b).min(c)
    }
}

/// Log-normal lifetime: the standard model for fatigue/diffusion wear
/// mechanisms with multiplicative degradation (e.g. corrosion depth).
#[derive(Clone, Copy, Debug)]
pub struct LogNormalHazard {
    dist: dist::LogNormal,
    mu: f64,
    sigma: f64,
}

impl LogNormalHazard {
    /// Creates from the underlying normal's `mu` and `sigma > 0` (times in
    /// years).
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters.
    #[allow(clippy::expect_used)]
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma > 0.0, "sigma must be positive");
        LogNormalHazard {
            // simlint: allow(P001, documented panicking constructor; sigma validated above)
            dist: dist::LogNormal::new(mu, sigma).expect("validated above"),
            mu,
            sigma,
        }
    }

    /// Creates from the **median** life (`exp(mu)`) and `sigma`.
    pub fn with_median(median_years: f64, sigma: f64) -> Self {
        assert!(median_years > 0.0, "median must be positive");
        Self::new(median_years.ln(), sigma)
    }

    /// Complementary error function (Abramowitz–Stegun 7.1.26).
    fn erfc(x: f64) -> f64 {
        let neg = x < 0.0;
        let x = x.abs();
        let t = 1.0 / (1.0 + 0.327_591_1 * x);
        let poly = t
            * (0.254_829_592
                + t * (-0.284_496_736
                    + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
        let y = poly * (-x * x).exp();
        if neg {
            2.0 - y
        } else {
            y
        }
    }
}

impl Hazard for LogNormalHazard {
    fn survival(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 1.0;
        }
        // S(t) = Q((ln t - mu)/sigma) = erfc(z/sqrt2)/2.
        let z = (t.ln() - self.mu) / self.sigma;
        0.5 * Self::erfc(z / core::f64::consts::SQRT_2)
    }

    fn sample_ttf(&self, rng: &mut Rng) -> f64 {
        self.dist.sample(rng)
    }
}

/// A unit that never fails on its own (e.g. a passive mount) — useful as a
/// neutral element when composing systems.
#[derive(Clone, Copy, Debug, Default)]
pub struct Immortal;

impl Hazard for Immortal {
    fn survival(&self, _t: f64) -> f64 {
        1.0
    }

    fn sample_ttf(&self, _rng: &mut Rng) -> f64 {
        f64::INFINITY
    }

    fn sample_remaining(&self, _rng: &mut Rng, _age: f64) -> f64 {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from(99)
    }

    #[test]
    fn exponential_survival_and_mttf() {
        let h = ExponentialHazard::with_mttf(10.0);
        assert_eq!(h.survival(0.0), 1.0);
        assert!((h.survival(10.0) - (-1.0f64).exp()).abs() < 1e-12);
        let mut r = rng();
        let est = (0..100_000).map(|_| h.sample_ttf(&mut r)).sum::<f64>() / 100_000.0;
        assert!((est - 10.0).abs() < 0.15, "est {est}");
    }

    #[test]
    fn weibull_median_constructor() {
        let h = WeibullHazard::with_median(3.0, 12.0);
        assert!((h.survival(12.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn weibull_survival_monotone() {
        let h = WeibullHazard::new(2.0, 15.0);
        let mut last = 1.0;
        for i in 0..100 {
            let s = h.survival(i as f64);
            assert!(s <= last + 1e-15);
            last = s;
        }
    }

    #[test]
    fn conditional_failure_probability() {
        let h = ExponentialHazard::with_mttf(10.0);
        // Memoryless: conditional failure in dt is the same at any age.
        let p0 = h.conditional_failure(0.0, 1.0);
        let p5 = h.conditional_failure(5.0, 1.0);
        assert!((p0 - p5).abs() < 1e-12);
        assert!((p0 - (1.0 - (-0.1f64).exp())).abs() < 1e-12);
    }

    #[test]
    fn conditional_failure_wearout_increases_with_age() {
        let h = WeibullHazard::new(4.0, 15.0);
        let young = h.conditional_failure(1.0, 1.0);
        let old = h.conditional_failure(14.0, 1.0);
        assert!(old > young * 5.0, "young {young} old {old}");
    }

    #[test]
    fn sample_remaining_memoryless_for_exponential() {
        let h = ExponentialHazard::with_mttf(8.0);
        let mut r = rng();
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| h.sample_remaining(&mut r, 100.0)).sum::<f64>() / n as f64;
        assert!((mean - 8.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn sample_remaining_weibull_consistent_with_survival() {
        // For aged wear-out units, remaining life should be much shorter
        // than fresh life.
        let h = WeibullHazard::new(4.0, 15.0);
        let mut r = rng();
        let n = 20_000;
        let fresh: f64 = (0..n).map(|_| h.sample_ttf(&mut r)).sum::<f64>() / n as f64;
        let aged: f64 = (0..n).map(|_| h.sample_remaining(&mut r, 14.0)).sum::<f64>() / n as f64;
        assert!(aged < fresh / 3.0, "fresh {fresh} aged {aged}");
        // And all draws are non-negative.
        for _ in 0..1000 {
            assert!(h.sample_remaining(&mut r, 5.0) >= 0.0);
        }
    }

    #[test]
    fn bathtub_is_min_of_phases() {
        let b = BathtubHazard::consumer(12.0);
        // Survival product form.
        let t = 6.0;
        let expect = b.infant.survival(t) * b.random.survival(t) * b.wearout.survival(t);
        assert!((b.survival(t) - expect).abs() < 1e-12);
        // Samples bounded by wear-out alone.
        let mut r = rng();
        let n = 20_000;
        let bath: f64 = (0..n).map(|_| b.sample_ttf(&mut r)).sum::<f64>() / n as f64;
        let wear: f64 = (0..n).map(|_| b.wearout.sample_ttf(&mut r)).sum::<f64>() / n as f64;
        assert!(bath < wear);
    }

    #[test]
    fn bathtub_sampling_matches_survival() {
        // Empirical survival at t should match analytic S(t).
        let b = BathtubHazard::consumer(15.0);
        let mut r = rng();
        let n = 100_000;
        let t = 10.0;
        let alive = (0..n).filter(|_| b.sample_ttf(&mut r) > t).count() as f64 / n as f64;
        assert!((alive - b.survival(t)).abs() < 0.01, "emp {alive} vs {}", b.survival(t));
    }

    #[test]
    fn lognormal_median_and_survival() {
        let h = LogNormalHazard::with_median(12.0, 0.5);
        assert!((h.survival(12.0) - 0.5).abs() < 1e-6);
        assert!(h.survival(0.0) == 1.0);
        assert!(h.survival(5.0) > 0.9);
        assert!(h.survival(40.0) < 0.05);
    }

    #[test]
    fn lognormal_sampling_matches_survival() {
        let h = LogNormalHazard::with_median(10.0, 0.4);
        let mut r = rng();
        let n = 100_000;
        let t = 14.0;
        let emp = (0..n).filter(|_| h.sample_ttf(&mut r) > t).count() as f64 / n as f64;
        assert!((emp - h.survival(t)).abs() < 0.01, "emp {emp} vs {}", h.survival(t));
    }

    #[test]
    fn immortal_never_fails() {
        let h = Immortal;
        assert_eq!(h.survival(1e9), 1.0);
        assert_eq!(h.sample_ttf(&mut rng()), f64::INFINITY);
        assert_eq!(h.conditional_failure(5.0, 1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "MTTF")]
    fn exponential_rejects_bad_mttf() {
        ExponentialHazard::with_mttf(0.0);
    }
}
