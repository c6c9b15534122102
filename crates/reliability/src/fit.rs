//! Fitting lifetime models to (censored) field data.
//!
//! A 50-year deployment produces exactly the data this module consumes:
//! failure ages for the devices that died and censoring ages for the ones
//! still alive at the horizon. [`fit_weibull`] recovers Weibull shape and
//! scale by maximum likelihood under right censoring — the standard
//! reliability-engineering workflow — so simulated fleets can be analyzed
//! with the same tools a real operator would use on the paper's diary.
//!
//! The MLE uses the classic profile-likelihood reduction: for fixed shape
//! `k`, the scale has the closed form
//! `λ̂(k) = (Σ tᵢᵏ / r)^(1/k)` (sum over **all** observations, `r` =
//! failure count), leaving a one-dimensional root-find in `k`.

use crate::hazard::WeibullHazard;
use simcore::survival::Observation;

/// Error returned when a fit cannot be performed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FitError {
    /// No uncensored failures: the likelihood has no interior maximum.
    NoFailures,
    /// Fewer than two distinct failure times: shape is unidentifiable.
    DegenerateData,
    /// The root-find failed to bracket a solution (pathological data).
    NoConvergence,
}

impl core::fmt::Display for FitError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            FitError::NoFailures => "no uncensored failures in the data",
            FitError::DegenerateData => "fewer than two distinct failure times",
            FitError::NoConvergence => "profile-likelihood root-find did not converge",
        };
        f.write_str(s)
    }
}

impl std::error::Error for FitError {}

/// A fitted Weibull model with fit diagnostics.
#[derive(Clone, Copy, Debug)]
pub struct WeibullFit {
    /// Estimated shape `k`.
    pub shape: f64,
    /// Estimated scale `λ` (same unit as the input times).
    pub scale: f64,
    /// Number of observed failures used.
    pub failures: usize,
    /// Number of censored observations used.
    pub censored: usize,
    /// Maximized log-likelihood.
    pub log_likelihood: f64,
}

impl WeibullFit {
    /// The fitted model as a [`WeibullHazard`].
    pub fn hazard(&self) -> WeibullHazard {
        WeibullHazard::new(self.shape, self.scale)
    }
}

/// Profile-likelihood score function in `k`; its root is the MLE.
///
/// `d/dk log L` after substituting the closed-form scale:
/// `r/k + Σ_fail ln tᵢ − r · (Σ_all tᵢᵏ ln tᵢ) / (Σ_all tᵢᵏ) = 0`.
fn score(k: f64, fail_times: &[f64], all_times: &[f64]) -> f64 {
    let r = fail_times.len() as f64;
    let sum_ln: f64 = fail_times.iter().map(|t| t.ln()).sum();
    let mut s_k = 0.0;
    let mut s_k_ln = 0.0;
    for &t in all_times {
        let tk = t.powf(k);
        s_k += tk;
        s_k_ln += tk * t.ln();
    }
    r / k + sum_ln - r * s_k_ln / s_k
}

fn log_likelihood(k: f64, lambda: f64, fail_times: &[f64], cens_times: &[f64]) -> f64 {
    let mut ll = 0.0;
    for &t in fail_times {
        ll += k.ln() - k * lambda.ln() + (k - 1.0) * t.ln() - (t / lambda).powf(k);
    }
    for &t in cens_times {
        ll -= (t / lambda).powf(k);
    }
    ll
}

/// Fits a Weibull by maximum likelihood under right censoring.
///
/// Observations with non-finite or non-positive times are ignored.
///
/// # Examples
///
/// ```
/// use reliability::fit::fit_weibull;
/// use simcore::rng::Rng;
/// use simcore::survival::Observation;
/// use reliability::hazard::{Hazard, WeibullHazard};
///
/// let truth = WeibullHazard::new(3.0, 15.0);
/// let mut rng = Rng::seed_from(1);
/// let obs: Vec<Observation> = (0..2_000)
///     .map(|_| Observation::failed(truth.sample_ttf(&mut rng)))
///     .collect();
/// let fit = fit_weibull(&obs).unwrap();
/// assert!((fit.shape - 3.0).abs() < 0.2);
/// assert!((fit.scale - 15.0).abs() < 0.5);
/// ```
pub fn fit_weibull(observations: &[Observation]) -> Result<WeibullFit, FitError> {
    let mut fail_times = Vec::new();
    let mut cens_times = Vec::new();
    for o in observations {
        if !o.time.is_finite() || o.time <= 0.0 {
            continue;
        }
        if o.event {
            fail_times.push(o.time);
        } else {
            cens_times.push(o.time);
        }
    }
    if fail_times.is_empty() {
        return Err(FitError::NoFailures);
    }
    {
        let mut distinct = fail_times.clone();
        distinct.sort_by(|a, b| a.total_cmp(b));
        distinct.dedup();
        if distinct.len() < 2 {
            return Err(FitError::DegenerateData);
        }
    }
    let all_times: Vec<f64> = fail_times.iter().chain(&cens_times).copied().collect();

    // Bracket the root of the score function. The score is decreasing in k;
    // score(k→0⁺) → +∞ and score(k→∞) → −∞ for non-degenerate data.
    let mut lo = 1e-3;
    let mut hi = 1.0;
    let mut iter = 0;
    while score(hi, &fail_times, &all_times) > 0.0 {
        hi *= 2.0;
        iter += 1;
        if iter > 60 {
            return Err(FitError::NoConvergence);
        }
    }
    if score(lo, &fail_times, &all_times) < 0.0 {
        return Err(FitError::NoConvergence);
    }
    // Bisection: robust, and 80 iterations give ~1e-24 relative precision.
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if score(mid, &fail_times, &all_times) > 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let k = 0.5 * (lo + hi);
    let r = fail_times.len() as f64;
    let s_k: f64 = all_times.iter().map(|t| t.powf(k)).sum();
    let lambda = (s_k / r).powf(1.0 / k);
    Ok(WeibullFit {
        shape: k,
        scale: lambda,
        failures: fail_times.len(),
        censored: cens_times.len(),
        log_likelihood: log_likelihood(k, lambda, &fail_times, &cens_times),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hazard::Hazard;
    use simcore::rng::Rng;

    fn sample_obs(
        shape: f64,
        scale: f64,
        n: usize,
        censor_at: Option<f64>,
        seed: u64,
    ) -> Vec<Observation> {
        let h = WeibullHazard::new(shape, scale);
        let mut rng = Rng::seed_from(seed);
        (0..n)
            .map(|_| {
                let t = h.sample_ttf(&mut rng);
                match censor_at {
                    Some(c) if t > c => Observation::censored(c),
                    _ => Observation::failed(t),
                }
            })
            .collect()
    }

    #[test]
    fn recovers_parameters_complete_data() {
        for &(shape, scale) in &[(0.8, 5.0), (1.0, 10.0), (2.5, 15.0), (6.0, 20.0)] {
            let obs = sample_obs(shape, scale, 4_000, None, 42);
            let fit = fit_weibull(&obs).expect("fit succeeds");
            assert!(
                (fit.shape - shape).abs() / shape < 0.08,
                "shape {shape}: got {}",
                fit.shape
            );
            assert!(
                (fit.scale - scale).abs() / scale < 0.05,
                "scale {scale}: got {}",
                fit.scale
            );
            assert_eq!(fit.censored, 0);
        }
    }

    #[test]
    fn recovers_parameters_heavy_censoring() {
        // Censor at the 30th-ish percentile: most units still alive — the
        // 50-year-horizon situation.
        let obs = sample_obs(3.0, 15.0, 8_000, Some(12.0), 7);
        let fit = fit_weibull(&obs).expect("fit succeeds");
        assert!(fit.censored > fit.failures, "censoring should dominate");
        assert!((fit.shape - 3.0).abs() < 0.35, "shape {}", fit.shape);
        assert!((fit.scale - 15.0).abs() < 1.0, "scale {}", fit.scale);
    }

    #[test]
    fn exponential_special_case() {
        let obs = sample_obs(1.0, 8.0, 6_000, None, 11);
        let fit = fit_weibull(&obs).expect("fit succeeds");
        assert!((fit.shape - 1.0).abs() < 0.05, "shape {}", fit.shape);
        assert!((fit.hazard().mttf() - 8.0).abs() < 0.4);
    }

    #[test]
    fn no_failures_is_error() {
        let obs = vec![Observation::censored(5.0); 10];
        match fit_weibull(&obs) {
            Err(FitError::NoFailures) => {}
            other => panic!("expected NoFailures, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_data_is_error() {
        let obs = vec![Observation::failed(5.0); 10];
        match fit_weibull(&obs) {
            Err(FitError::DegenerateData) => {}
            other => panic!("expected DegenerateData, got {other:?}"),
        }
    }

    #[test]
    fn ignores_invalid_times() {
        let mut obs = sample_obs(2.0, 10.0, 2_000, None, 3);
        obs.push(Observation::failed(f64::NAN));
        obs.push(Observation::failed(-1.0));
        obs.push(Observation::failed(0.0));
        let fit = fit_weibull(&obs).expect("fit succeeds");
        assert_eq!(fit.failures, 2_000);
    }

    #[test]
    fn log_likelihood_is_maximal_at_fit() {
        let obs = sample_obs(2.0, 10.0, 2_000, Some(15.0), 5);
        let fit = fit_weibull(&obs).expect("fit succeeds");
        let fail: Vec<f64> = obs.iter().filter(|o| o.event).map(|o| o.time).collect();
        let cens: Vec<f64> = obs.iter().filter(|o| !o.event).map(|o| o.time).collect();
        let at = |k: f64, l: f64| log_likelihood(k, l, &fail, &cens);
        let best = at(fit.shape, fit.scale);
        assert!((best - fit.log_likelihood).abs() < 1e-9);
        for (dk, dl) in [(0.1, 0.0), (-0.1, 0.0), (0.0, 0.5), (0.0, -0.5)] {
            assert!(
                at(fit.shape + dk, fit.scale + dl) < best,
                "perturbation ({dk},{dl}) should lower the likelihood"
            );
        }
    }

    #[test]
    fn no_convergence_is_error() {
        // Two distinct failure times separated by one ULP pass the
        // degeneracy check, but the profile score stays positive past the
        // bracket loop's 2^60 ceiling: with N points at 1+ε and one at 1,
        // score(k) ≈ (N+1)/k − N·ε, and (N+1)/2^60 > N·ε for N = 1000.
        let mut times = vec![1.0 + f64::EPSILON; 1_000];
        times.push(1.0);
        let obs: Vec<Observation> = times.iter().map(|&t| Observation::failed(t)).collect();
        match fit_weibull(&obs) {
            Err(FitError::NoConvergence) => {}
            other => panic!("expected NoConvergence, got {other:?}"),
        }
    }

    #[test]
    fn error_display() {
        assert!(FitError::NoFailures.to_string().contains("failures"));
        assert!(FitError::DegenerateData.to_string().contains("distinct"));
        assert!(FitError::NoConvergence.to_string().contains("converge"));
    }
}
