//! Renewal processes: replacement arithmetic for pipelined fleets.
//!
//! The paper's Ship-of-Theseus argument (§1, §3.4) is renewal theory in
//! disguise: each mount hosts a sequence of devices, each replaced on
//! failure (or on schedule), and the *system* lives as long as the renewal
//! process keeps running. This module estimates the renewal function
//! `m(t)` = expected replacements by time `t`, by Monte-Carlo.

use simcore::rng::Rng;
use simcore::stats::Moments;

use crate::hazard::Hazard;

/// Counts renewals (replacements) of a unit with lifetime model `h` over a
/// horizon of `t` years, for one realization.
pub fn sample_renewals<H: Hazard + ?Sized>(h: &H, rng: &mut Rng, horizon: f64) -> u64 {
    let mut t = 0.0;
    let mut n = 0;
    loop {
        t += h.sample_ttf(rng);
        if t > horizon {
            return n;
        }
        n += 1;
        // Guard against zero-lifetime pathologies.
        if n > 1_000_000 {
            return n;
        }
    }
}

/// Monte-Carlo estimate of the renewal function `m(horizon)` — expected
/// number of replacements per mount — with its standard error.
pub fn renewal_function<H: Hazard + ?Sized>(
    h: &H,
    rng: &mut Rng,
    horizon: f64,
    replicates: usize,
) -> (f64, f64) {
    assert!(replicates > 0, "need at least one replicate");
    let mut m = Moments::new();
    for _ in 0..replicates {
        m.add(sample_renewals(h, rng, horizon) as f64);
    }
    (m.mean(), m.std_err())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hazard::{ExponentialHazard, WeibullHazard};

    fn rng() -> Rng {
        Rng::seed_from(21)
    }

    #[test]
    fn exponential_renewal_function_is_linear() {
        // For a Poisson process, m(t) = t/MTTF exactly.
        let h = ExponentialHazard::with_mttf(5.0);
        let (m, se) = renewal_function(&h, &mut rng(), 50.0, 20_000);
        assert!((m - 10.0).abs() < 3.0 * se + 0.05, "m {m} se {se}");
    }

    #[test]
    fn weibull_renewal_approaches_elementary_rate() {
        let h = WeibullHazard::new(3.0, 10.0);
        let mttf = h.mttf();
        let horizon = 200.0;
        let (m, _) = renewal_function(&h, &mut rng(), horizon, 5_000);
        let expect = horizon / mttf;
        // Within a few percent at 20 lifetimes deep.
        assert!((m - expect).abs() / expect < 0.08, "m {m} expect {expect}");
    }

    #[test]
    fn renewals_zero_for_long_lived_unit() {
        let h = ExponentialHazard::with_mttf(1e9);
        assert_eq!(sample_renewals(&h, &mut rng(), 50.0), 0);
    }
}
