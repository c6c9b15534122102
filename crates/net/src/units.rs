//! Radio units: dBm and dB link-budget arithmetic.
//!
//! Link budgets are additions in decibel space; keeping power levels in a
//! dedicated [`Dbm`] type prevents the classic watt/dBm mix-up bugs.

use core::fmt;
use core::ops::{Add, Sub};

/// A power level in dBm.
#[derive(Clone, Copy, Debug, PartialEq, PartialOrd)]
pub struct Dbm(pub f64);

/// A gain or loss in dB.
#[derive(Clone, Copy, Debug, PartialEq, PartialOrd)]
pub struct Db(pub f64);

impl Dbm {
    /// The raw dBm value.
    pub fn value(self) -> f64 {
        self.0
    }
}

impl Add<Db> for Dbm {
    type Output = Dbm;
    fn add(self, rhs: Db) -> Dbm {
        Dbm(self.0 + rhs.0)
    }
}

impl Sub<Db> for Dbm {
    type Output = Dbm;
    fn sub(self, rhs: Db) -> Dbm {
        Dbm(self.0 - rhs.0)
    }
}

impl Sub<Dbm> for Dbm {
    /// The difference between two levels is a gain/loss in dB.
    type Output = Db;
    fn sub(self, rhs: Dbm) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl Add for Db {
    type Output = Db;
    fn add(self, rhs: Db) -> Db {
        Db(self.0 + rhs.0)
    }
}

impl Sub for Db {
    type Output = Db;
    fn sub(self, rhs: Db) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl fmt::Display for Dbm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} dBm", self.0)
    }
}

impl fmt::Display for Db {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} dB", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_arithmetic() {
        // 14 dBm TX - 120 dB path + 3 dB antenna = -103 dBm RX.
        let rx = Dbm(14.0) - Db(120.0) + Db(3.0);
        assert!((rx.value() + 103.0).abs() < 1e-12);
        let margin = rx - Dbm(-110.0);
        assert!((margin.0 - 7.0).abs() < 1e-12);
    }

    #[test]
    fn db_arithmetic() {
        let total = Db(3.0) + Db(2.0) - Db(1.0);
        assert!((total.0 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn display() {
        assert_eq!(Dbm(-103.25).to_string(), "-103.2 dBm");
        assert_eq!(Db(7.0).to_string(), "7.0 dB");
    }
}
