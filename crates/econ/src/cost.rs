//! Capital/operating cost streams, amortization and net present value.
//!
//! §3.3–3.4 of the paper argue about infrastructure choices almost entirely
//! in these terms: fiber is capex-heavy but opex-light; cellular is the
//! reverse; trench costs amortize across co-deployed services; and the
//! vertical-integration decision is a crossover between two cost streams.
//! This module gives those arguments an executable form.

use simcore::time::{SimDuration, SimTime};

use crate::money::Usd;

/// A yearly cash-flow stream over a fixed horizon.
///
/// Index `y` holds the nominal cost paid during year `y` (year 0 is the
/// deployment year and typically carries the capex).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CostStream {
    yearly: Vec<Usd>,
}

impl CostStream {
    /// Creates an all-zero stream spanning `years` years.
    pub fn zeros(years: usize) -> Self {
        CostStream { yearly: vec![Usd::ZERO; years] }
    }

    /// Creates a stream with an upfront payment in year 0 and a constant
    /// recurring payment in every year (including year 0).
    pub fn upfront_plus_recurring(upfront: Usd, recurring: Usd, years: usize) -> Self {
        let mut s = CostStream::zeros(years);
        if years > 0 {
            s.yearly[0] += upfront;
            for y in &mut s.yearly {
                *y += recurring;
            }
        }
        s
    }

    /// The horizon in years.
    pub fn years(&self) -> usize {
        self.yearly.len()
    }

    /// Adds `amount` to year `y`, growing the stream if needed.
    pub fn add(&mut self, y: usize, amount: Usd) {
        if y >= self.yearly.len() {
            self.yearly.resize(y + 1, Usd::ZERO);
        }
        self.yearly[y] += amount;
    }

    /// The nominal cost in year `y` (zero beyond the horizon).
    pub fn at(&self, y: usize) -> Usd {
        self.yearly.get(y).copied().unwrap_or(Usd::ZERO)
    }

    /// Element-wise sum of two streams (the longer horizon wins).
    pub fn plus(&self, other: &CostStream) -> CostStream {
        let n = self.yearly.len().max(other.yearly.len());
        let mut out = CostStream::zeros(n);
        for y in 0..n {
            out.yearly[y] = self.at(y) + other.at(y);
        }
        out
    }

    /// Total nominal (undiscounted) cost.
    pub fn total(&self) -> Usd {
        self.yearly.iter().copied().sum()
    }

    /// Cumulative nominal cost through the end of year `y` (inclusive).
    pub fn cumulative_through(&self, y: usize) -> Usd {
        self.yearly.iter().take(y + 1).copied().sum()
    }

    /// Net present value at a yearly `discount_rate` (e.g. `0.03`), with
    /// year-0 cash flows undiscounted.
    ///
    /// # Panics
    ///
    /// Panics if `discount_rate <= -1` (nonsensical) or not finite.
    pub fn npv(&self, discount_rate: f64) -> Usd {
        assert!(
            discount_rate.is_finite() && discount_rate > -1.0,
            "discount rate must be finite and > -1"
        );
        let mut acc = Usd::ZERO;
        let mut factor = 1.0;
        let denom = 1.0 + discount_rate;
        for &c in &self.yearly {
            acc += c.scale(factor);
            factor /= denom;
        }
        acc
    }

    /// Returns a copy with each year's cost escalated by a compounding
    /// yearly rate (cost inflation: labor, subscriptions). Year 0 is
    /// unescalated. Opex-heavy streams suffer more than capex-heavy ones —
    /// which sharpens the paper's fiber-vs-cellular argument.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not finite or <= -1.
    pub fn escalated(&self, rate: f64) -> CostStream {
        assert!(rate.is_finite() && rate > -1.0, "escalation rate must be finite and > -1");
        let mut out = CostStream::zeros(self.yearly.len());
        let mut factor = 1.0;
        for (y, &c) in self.yearly.iter().enumerate() {
            out.yearly[y] = c.scale(factor);
            factor *= 1.0 + rate;
        }
        out
    }

    /// The first year (if any) in which this stream's cumulative cost
    /// exceeds `other`'s — the crossover the paper's §3.3.2 predicts between
    /// cellular and fiber.
    pub fn crossover_year(&self, other: &CostStream) -> Option<usize> {
        let n = self.yearly.len().max(other.yearly.len());
        (0..n).find(|&y| self.cumulative_through(y) > other.cumulative_through(y))
    }
}

/// Straight-line amortization of a capital cost over an asset life,
/// optionally shared among `beneficiaries` co-funded services (§3.3.1's
/// trench-sharing argument).
///
/// Returns the per-year, per-beneficiary charge.
///
/// # Panics
///
/// Panics if `life_years == 0` or `beneficiaries == 0`.
pub fn amortize(capex: Usd, life_years: u32, beneficiaries: u32) -> Usd {
    assert!(life_years > 0, "asset life must be positive");
    assert!(beneficiaries > 0, "need at least one beneficiary");
    capex / (life_years as i64) / (beneficiaries as i64)
}

/// Converts a yearly cost into an equivalent cost per device-reading, given
/// a fleet size and per-device reporting interval.
pub fn cost_per_reading(
    yearly: Usd,
    devices: u64,
    report_interval: SimDuration,
) -> Usd {
    if devices == 0 || report_interval.is_zero() {
        return Usd::ZERO;
    }
    let readings_per_device =
        SimDuration::from_years(1).as_secs() / report_interval.as_secs();
    let total = (devices * readings_per_device.max(1)) as i64;
    yearly / total
}

/// A dated ledger of expenditures, for diary-style cost accounting inside
/// simulations.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    entries: Vec<(SimTime, &'static str, Usd)>,
}

impl Ledger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Ledger::default()
    }

    /// Records an expenditure under a category label.
    pub fn charge(&mut self, at: SimTime, category: &'static str, amount: Usd) {
        self.entries.push((at, category, amount));
    }

    /// Total across all entries.
    pub fn total(&self) -> Usd {
        self.entries.iter().map(|&(_, _, a)| a).sum()
    }

    /// All entries in insertion order.
    pub fn entries(&self) -> &[(SimTime, &'static str, Usd)] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upfront_plus_recurring_layout() {
        let s = CostStream::upfront_plus_recurring(
            Usd::from_dollars(1_000),
            Usd::from_dollars(10),
            3,
        );
        assert_eq!(s.at(0), Usd::from_dollars(1_010));
        assert_eq!(s.at(1), Usd::from_dollars(10));
        assert_eq!(s.at(2), Usd::from_dollars(10));
        assert_eq!(s.at(3), Usd::ZERO);
        assert_eq!(s.total(), Usd::from_dollars(1_030));
    }

    #[test]
    fn cumulative_and_crossover() {
        // Cellular: $0 upfront, $240/yr. Fiber: $2000 upfront, $20/yr.
        let cell = CostStream::upfront_plus_recurring(Usd::ZERO, Usd::from_dollars(240), 30);
        let fiber =
            CostStream::upfront_plus_recurring(Usd::from_dollars(2_000), Usd::from_dollars(20), 30);
        // Cellular passes fiber cumulatively when 240(y+1) > 2000 + 20(y+1)
        // -> y+1 > 9.09 -> year index 9.
        assert_eq!(cell.crossover_year(&fiber), Some(9));
        assert_eq!(fiber.crossover_year(&cell), Some(0));
    }

    #[test]
    fn crossover_none_when_always_cheaper() {
        let cheap = CostStream::upfront_plus_recurring(Usd::ZERO, Usd::from_dollars(1), 10);
        let dear = CostStream::upfront_plus_recurring(Usd::from_dollars(100), Usd::from_dollars(1), 10);
        assert_eq!(cheap.crossover_year(&dear), None);
    }

    #[test]
    fn npv_discounts_later_years() {
        let mut s = CostStream::zeros(2);
        s.add(0, Usd::from_dollars(100));
        s.add(1, Usd::from_dollars(100));
        let npv = s.npv(0.10);
        // 100 + 100/1.1 = 190.909...
        assert!((npv.dollars_f64() - 190.909_090).abs() < 0.001, "{npv}");
        // Zero rate equals nominal total.
        assert_eq!(s.npv(0.0), s.total());
    }

    #[test]
    #[should_panic(expected = "discount rate")]
    fn npv_rejects_bad_rate() {
        CostStream::zeros(1).npv(-2.0);
    }

    #[test]
    fn escalation_compounds_and_spares_year_zero() {
        let s = CostStream::upfront_plus_recurring(Usd::from_dollars(100), Usd::from_dollars(10), 3);
        let e = s.escalated(0.10);
        assert_eq!(e.at(0), Usd::from_dollars(110)); // Unescalated.
        assert_eq!(e.at(1), Usd::from_dollars(11));
        assert_eq!(e.at(2), Usd::from_micros(12_100_000)); // $12.10.
        // Zero rate is identity.
        assert_eq!(s.escalated(0.0), s);
    }

    #[test]
    fn escalation_hurts_opex_heavy_streams_more() {
        let capex = CostStream::upfront_plus_recurring(Usd::from_dollars(1_000), Usd::ZERO, 30);
        let opex = CostStream::upfront_plus_recurring(Usd::ZERO, Usd::from_dollars(40), 30);
        let growth = |s: &CostStream| {
            s.escalated(0.03).total().dollars_f64() / s.total().dollars_f64()
        };
        assert!((growth(&capex) - 1.0).abs() < 1e-9);
        assert!(growth(&opex) > 1.4);
    }

    #[test]
    #[should_panic(expected = "escalation")]
    fn escalation_rejects_bad_rate() {
        CostStream::zeros(1).escalated(f64::NAN);
    }

    #[test]
    fn plus_merges_different_horizons() {
        let mut a = CostStream::zeros(1);
        a.add(0, Usd::from_dollars(5));
        let mut b = CostStream::zeros(3);
        b.add(2, Usd::from_dollars(7));
        let c = a.plus(&b);
        assert_eq!(c.years(), 3);
        assert_eq!(c.at(0), Usd::from_dollars(5));
        assert_eq!(c.at(2), Usd::from_dollars(7));
    }

    #[test]
    fn add_grows_stream() {
        let mut s = CostStream::zeros(1);
        s.add(5, Usd::from_dollars(1));
        assert_eq!(s.years(), 6);
        assert_eq!(s.at(5), Usd::from_dollars(1));
    }

    #[test]
    fn amortize_splits_fairly() {
        // $1.2M trench over 40 years shared by 3 services = $10k/yr each.
        let per = amortize(Usd::from_dollars(1_200_000), 40, 3);
        assert_eq!(per, Usd::from_dollars(10_000));
    }

    #[test]
    #[should_panic(expected = "asset life")]
    fn amortize_zero_life_panics() {
        amortize(Usd::from_dollars(1), 0, 1);
    }

    #[test]
    fn cost_per_reading_math() {
        // $8,760/yr, one device reporting hourly -> $1 per reading.
        let c = cost_per_reading(Usd::from_dollars(8_760), 1, SimDuration::from_hours(1));
        assert_eq!(c, Usd::from_dollars(1));
        assert_eq!(
            cost_per_reading(Usd::from_dollars(1), 0, SimDuration::from_hours(1)),
            Usd::ZERO
        );
    }

    #[test]
    fn ledger_accounting() {
        let mut l = Ledger::new();
        l.charge(SimTime::from_years(0), "capex", Usd::from_dollars(100));
        l.charge(SimTime::from_years(2), "opex", Usd::from_dollars(10));
        l.charge(SimTime::from_years(2), "opex", Usd::from_dollars(10));
        assert_eq!(l.total(), Usd::from_dollars(120));
        assert_eq!(l.entries().len(), 3);
    }
}
