//! Obsolescence processes: the ways working devices die anyway.
//!
//! §1 (footnote 3) taxonomizes obsolescence: **technical** (a better device
//! supplants it, or the surrounding technology moves), **style** (taste),
//! **planned** (vendor-imposed), and the paper's goal state, **functional**
//! (replaced only when it stops doing its job). §3.2 adds the vendor-lock
//! mechanism: sensors that only work with their manufacturer's gateways
//! inherit the manufacturer's lifetime.

use simcore::dist::Exponential;
use simcore::rng::Rng;

/// Why a working device left service.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Obsolescence {
    /// Superseded by newer technology, or its dependencies moved on
    /// (e.g. the 802.11b scale whose router upgrade orphaned it).
    Technical,
    /// Replaced for taste/appearance reasons.
    Style,
    /// Vendor lockout, cloud-service shutdown, or designed-in expiry.
    Planned,
    /// Wore out doing its job — the only kind the paper accepts.
    Functional,
    /// Stranded by supporting-infrastructure loss (gateway or backhaul).
    Infrastructure,
}

/// Hazard rates (per year) for the non-functional obsolescence channels a
/// device is exposed to.
#[derive(Clone, Copy, Debug)]
pub struct ObsolescenceRates {
    /// Technical-obsolescence rate.
    pub technical: f64,
    /// Style-obsolescence rate.
    pub style: f64,
    /// Planned-obsolescence (vendor action) rate.
    pub planned: f64,
}

impl ObsolescenceRates {
    /// Consumer-electronics shape: the paper's 50-month mean replacement
    /// cadence is dominated by technical and style churn. Rates chosen so
    /// the combined mean time ≈ 50 months (≈ 4.17 y): technical 0.14/y,
    /// style 0.06/y, planned 0.04/y → combined 0.24/y ⇒ mean 4.17 y.
    pub fn consumer() -> Self {
        ObsolescenceRates { technical: 0.14, style: 0.06, planned: 0.04 }
    }

    /// Combined annual rate.
    pub fn total(&self) -> f64 {
        self.technical + self.style + self.planned
    }

    /// Samples `(time_years, cause)` of the first obsolescence event, or
    /// `None` if all rates are zero (the device is only ever functionally
    /// obsoleted).
    pub fn sample_first(&self, rng: &mut Rng) -> Option<(f64, Obsolescence)> {
        let mut best: Option<(f64, Obsolescence)> = None;
        for (rate, cause) in [
            (self.technical, Obsolescence::Technical),
            (self.style, Obsolescence::Style),
            (self.planned, Obsolescence::Planned),
        ] {
            // A non-positive (or non-finite) rate means "this channel is
            // off"; Exponential::new enforces the same bound, so the two
            // checks collapse into one panic-free gate.
            if let Ok(dist) = Exponential::new(rate) {
                let t = dist.sample(rng);
                if best.is_none_or(|(bt, _)| t < bt) {
                    best = Some((t, cause));
                }
            }
        }
        best
    }
}

/// A device's effective end of service: the earlier of functional failure
/// and non-functional obsolescence. Returns `(years, cause)`.
pub fn end_of_service(
    functional_ttf_years: f64,
    rates: &ObsolescenceRates,
    rng: &mut Rng,
) -> (f64, Obsolescence) {
    match rates.sample_first(rng) {
        Some((t, cause)) if t < functional_ttf_years => (t, cause),
        _ => (functional_ttf_years, Obsolescence::Functional),
    }
}

/// Vendor lock-in: a locked device inherits `min(own_ttf, vendor_exit)`;
/// a standards-compliant device keeps its own lifetime (the §3.2 takeaway:
/// "rely on properties of infrastructure, not specific instances").
pub fn vendor_locked_ttf(own_ttf_years: f64, vendor_exit_years: f64, locked: bool) -> f64 {
    if locked {
        own_ttf_years.min(vendor_exit_years)
    } else {
        own_ttf_years
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consumer_rates_match_50_month_cadence() {
        let r = ObsolescenceRates::consumer();
        let mean_years = 1.0 / r.total();
        assert!((mean_years * 12.0 - 50.0).abs() < 1.0, "months {}", mean_years * 12.0);
    }

    #[test]
    fn sampled_first_event_matches_combined_rate() {
        let r = ObsolescenceRates::consumer();
        let mut rng = Rng::seed_from(1);
        let n = 50_000;
        let mean: f64 = (0..n)
            .map(|_| r.sample_first(&mut rng).expect("rates > 0").0)
            .sum::<f64>()
            / n as f64;
        assert!((mean - 1.0 / r.total()).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn cause_mix_proportional_to_rates() {
        let r = ObsolescenceRates::consumer();
        let mut rng = Rng::seed_from(2);
        let n = 50_000;
        let technical = (0..n)
            .filter(|_| {
                matches!(
                    r.sample_first(&mut rng),
                    Some((_, Obsolescence::Technical))
                )
            })
            .count() as f64
            / n as f64;
        let expect = r.technical / r.total();
        assert!((technical - expect).abs() < 0.01, "technical {technical} expect {expect}");
    }

    #[test]
    fn principled_rates_rarely_fire_before_wearout() {
        let r = ObsolescenceRates { technical: 0.01, style: 0.0, planned: 0.0 };
        let mut rng = Rng::seed_from(3);
        let n = 10_000;
        let functional = (0..n)
            .filter(|_| matches!(end_of_service(20.0, &r, &mut rng), (_, Obsolescence::Functional)))
            .count() as f64
            / n as f64;
        // P(exp(0.01) > 20) = e^-0.2 ≈ 0.819.
        assert!((functional - 0.819).abs() < 0.02, "functional {functional}");
    }

    #[test]
    fn zero_rates_always_functional() {
        let r = ObsolescenceRates { technical: 0.0, style: 0.0, planned: 0.0 };
        let mut rng = Rng::seed_from(4);
        assert!(r.sample_first(&mut rng).is_none());
        assert_eq!(end_of_service(12.0, &r, &mut rng), (12.0, Obsolescence::Functional));
    }

    #[test]
    fn vendor_lock_caps_lifetime() {
        assert_eq!(vendor_locked_ttf(20.0, 6.0, true), 6.0);
        assert_eq!(vendor_locked_ttf(20.0, 6.0, false), 20.0);
        assert_eq!(vendor_locked_ttf(4.0, 6.0, true), 4.0);
    }
}
