//! Fixed-point money arithmetic.
//!
//! Century-long cost ledgers must not drift: adding a $0.00001-per-packet
//! data-credit burn 438,000 times has to produce an exact total. [`Usd`]
//! stores **micro-dollars** (1e-6 USD) in an `i128`, which covers ±1.7e23
//! dollars — more than any municipal budget — while representing the paper's
//! $5-per-500,000-credit price ($0.00001/credit = 10 micro-dollars) exactly.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Micro-dollars per dollar.
const MICRO: i128 = 1_000_000;

/// An exact USD amount in micro-dollars.
///
/// # Examples
///
/// ```
/// use econ::money::Usd;
///
/// let credit_price = Usd::from_dollars(5) / 500_000; // $5 per 500k credits.
/// assert_eq!(credit_price, Usd::from_micros(10));
/// assert_eq!(credit_price * 438_000, Usd::from_cents(438));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Usd(i128);

impl Usd {
    /// Zero dollars.
    pub const ZERO: Usd = Usd(0);

    /// Creates an amount from whole dollars.
    pub const fn from_dollars(d: i64) -> Usd {
        Usd(d as i128 * MICRO)
    }

    /// Creates an amount from whole cents.
    pub const fn from_cents(c: i64) -> Usd {
        Usd(c as i128 * (MICRO / 100))
    }

    /// Creates an amount from micro-dollars.
    pub const fn from_micros(u: i128) -> Usd {
        Usd(u)
    }

    /// The amount in micro-dollars.
    pub const fn micros(self) -> i128 {
        self.0
    }

    /// The amount in fractional dollars (lossy above 2^53 micro-dollars).
    pub fn dollars_f64(self) -> f64 {
        self.0 as f64 / MICRO as f64
    }

    /// Returns true if the amount is exactly zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Returns true if the amount is negative.
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// The absolute value.
    pub const fn abs(self) -> Usd {
        Usd(self.0.abs())
    }

    /// Checked addition.
    pub const fn checked_add(self, rhs: Usd) -> Option<Usd> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(Usd(v)),
            None => None,
        }
    }

    /// Multiplies by a float factor (e.g. a discount factor), rounding to
    /// the nearest micro-dollar. Use only where the factor is inherently
    /// approximate; ledger math should stay in integer ops.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not finite.
    pub fn scale(self, k: f64) -> Usd {
        assert!(k.is_finite(), "scale factor must be finite");
        Usd((self.0 as f64 * k).round() as i128)
    }

    /// The larger of two amounts.
    pub fn max(self, other: Usd) -> Usd {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two amounts.
    pub fn min(self, other: Usd) -> Usd {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Add for Usd {
    type Output = Usd;
    fn add(self, rhs: Usd) -> Usd {
        Usd(self.0 + rhs.0)
    }
}

impl AddAssign for Usd {
    fn add_assign(&mut self, rhs: Usd) {
        self.0 += rhs.0;
    }
}

impl Sub for Usd {
    type Output = Usd;
    fn sub(self, rhs: Usd) -> Usd {
        Usd(self.0 - rhs.0)
    }
}

impl SubAssign for Usd {
    fn sub_assign(&mut self, rhs: Usd) {
        self.0 -= rhs.0;
    }
}

impl Neg for Usd {
    type Output = Usd;
    fn neg(self) -> Usd {
        Usd(-self.0)
    }
}

impl Mul<i64> for Usd {
    type Output = Usd;
    fn mul(self, rhs: i64) -> Usd {
        Usd(self.0 * rhs as i128)
    }
}

impl Div<i64> for Usd {
    /// Integer division toward zero, in micro-dollars.
    type Output = Usd;
    fn div(self, rhs: i64) -> Usd {
        Usd(self.0 / rhs as i128)
    }
}

impl Sum for Usd {
    fn sum<I: Iterator<Item = Usd>>(iter: I) -> Usd {
        iter.fold(Usd::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Usd {
    /// Formats as `$1,234.56` (negative as `-$…`), rounding to cents.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let neg = self.0 < 0;
        let abs = self.0.unsigned_abs();
        // Round micro-dollars to cents (half away from zero).
        let cents = (abs + 5_000) / 10_000;
        let dollars = cents / 100;
        let rem = cents % 100;
        let mut digits = dollars.to_string();
        // Insert thousands separators.
        let mut grouped = String::new();
        let bytes = digits.as_bytes();
        for (i, b) in bytes.iter().enumerate() {
            if i > 0 && (bytes.len() - i).is_multiple_of(3) {
                grouped.push(',');
            }
            grouped.push(*b as char);
        }
        digits = grouped;
        if neg {
            write!(f, "-${digits}.{rem:02}")
        } else {
            write!(f, "${digits}.{rem:02}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Usd::from_dollars(1), Usd::from_cents(100));
        assert_eq!(Usd::from_cents(1), Usd::from_micros(10_000));
    }

    #[test]
    fn paper_credit_price_is_exact() {
        // $5 buys 500,000 data credits -> $0.00001 = 10 micro-dollars each.
        let per_credit = Usd::from_dollars(5) / 500_000;
        assert_eq!(per_credit.micros(), 10);
        // 438,000 credits cost exactly $4.38.
        let fifty_years = per_credit * 438_000;
        assert_eq!(fifty_years, Usd::from_cents(438));
    }

    #[test]
    fn arithmetic() {
        let a = Usd::from_dollars(10);
        let b = Usd::from_cents(250);
        assert_eq!(a + b, Usd::from_cents(1_250));
        assert_eq!(a - b, Usd::from_cents(750));
        assert_eq!(-b, Usd::from_cents(-250));
        assert_eq!(b * 4, Usd::from_dollars(10));
        let mut c = a;
        c += b;
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn sum_and_predicates() {
        let total: Usd = [Usd::from_dollars(1), Usd::from_dollars(2)].into_iter().sum();
        assert_eq!(total, Usd::from_dollars(3));
        assert!(Usd::ZERO.is_zero());
        assert!(Usd::from_dollars(-1).is_negative());
        assert_eq!(Usd::from_dollars(-1).abs(), Usd::from_dollars(1));
    }

    #[test]
    fn scale_rounds() {
        let a = Usd::from_dollars(100);
        assert_eq!(a.scale(0.5), Usd::from_dollars(50));
        assert_eq!(a.scale(1.0 / 3.0), Usd::from_micros(33_333_333));
    }

    #[test]
    fn min_max() {
        let a = Usd::from_dollars(1);
        let b = Usd::from_dollars(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn no_drift_over_many_small_adds() {
        // The 50-year hourly-packet ledger: 438,000 burns of 10 micro-dollars.
        let per = Usd::from_micros(10);
        let mut total = Usd::ZERO;
        for _ in 0..438_000 {
            total += per;
        }
        assert_eq!(total, Usd::from_cents(438));
    }

    #[test]
    fn display_formatting() {
        assert_eq!(Usd::from_dollars(0).to_string(), "$0.00");
        assert_eq!(Usd::from_cents(438).to_string(), "$4.38");
        assert_eq!(Usd::from_dollars(1_234_567).to_string(), "$1,234,567.00");
        assert_eq!(Usd::from_cents(-995).to_string(), "-$9.95");
        assert_eq!(Usd::from_micros(5_000).to_string(), "$0.01"); // Rounds up.
        assert_eq!(Usd::from_micros(4_999).to_string(), "$0.00");
    }

    #[test]
    fn checked_add_overflow() {
        let max = Usd::from_micros(i128::MAX);
        assert_eq!(max.checked_add(Usd::from_micros(1)), None);
        assert!(max.checked_add(Usd::ZERO).is_some());
    }
}
