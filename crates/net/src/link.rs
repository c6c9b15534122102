//! Link-level packet reception: budget → margin → reception probability.
//!
//! Real receivers do not switch from perfect to deaf at the sensitivity
//! line; packet reception rate (PRR) falls along a waterfall a few dB wide.
//! [`ReceptionModel`] captures that with a logistic curve centred at the
//! sensitivity point, which matches measured O-QPSK and LoRa waterfalls
//! well enough for deployment-scale questions ("which gateways hear this
//! device, and how reliably?").

use crate::units::{Db, Dbm};

/// Logistic PRR waterfall around a sensitivity threshold.
#[derive(Clone, Copy, Debug)]
pub struct ReceptionModel {
    /// Received power at which PRR = 50 %.
    pub p50: Dbm,
    /// Waterfall steepness: dB from 50 % to ~73 % (logistic scale).
    pub steepness_db: f64,
}

impl ReceptionModel {
    /// Creates a model with PRR = 50 % at `p50` and the given steepness.
    ///
    /// # Panics
    ///
    /// Panics unless `steepness_db` is positive and finite.
    pub fn new(p50: Dbm, steepness_db: f64) -> Self {
        assert!(
            steepness_db > 0.0 && steepness_db.is_finite(),
            "steepness must be positive"
        );
        ReceptionModel { p50, steepness_db }
    }

    /// A typical narrow waterfall (~1.5 dB scale) at the given sensitivity.
    pub fn at_sensitivity(sensitivity: Dbm) -> Self {
        ReceptionModel::new(sensitivity, 1.5)
    }

    /// Packet reception probability at received power `rx`.
    pub fn prr(&self, rx: Dbm) -> f64 {
        let x = (rx.value() - self.p50.value()) / self.steepness_db;
        1.0 / (1.0 + (-x).exp())
    }

    /// The link margin of a received power over the 50 % point.
    pub fn margin(&self, rx: Dbm) -> Db {
        rx - self.p50
    }
}

/// A static point-to-point link: budget plus waterfall.
#[derive(Clone, Copy, Debug)]
pub struct Link {
    /// Transmit power.
    pub tx: Dbm,
    /// Total path loss including shadowing (static per placement).
    pub loss: Db,
    /// Receiver model.
    pub rx_model: ReceptionModel,
}

impl Link {
    /// Received power.
    pub fn rx_power(&self) -> Dbm {
        self.tx - self.loss
    }

    /// Long-run packet reception rate on this link.
    pub fn prr(&self) -> f64 {
        self.rx_model.prr(self.rx_power())
    }

    /// Link margin above the 50 % point (negative = below waterfall).
    pub fn margin(&self) -> Db {
        self.rx_model.margin(self.rx_power())
    }

    /// True if the link clears the waterfall with at least `margin_db` to
    /// spare — the "usable link" criterion for coverage maps.
    pub fn is_usable(&self, margin_db: f64) -> bool {
        self.margin().0 >= margin_db
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prr_half_at_p50() {
        let m = ReceptionModel::at_sensitivity(Dbm(-100.0));
        assert!((m.prr(Dbm(-100.0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn prr_monotone_in_power() {
        let m = ReceptionModel::at_sensitivity(Dbm(-100.0));
        assert!(m.prr(Dbm(-95.0)) > 0.95);
        assert!(m.prr(Dbm(-105.0)) < 0.05);
        assert!(m.prr(Dbm(-90.0)) > m.prr(Dbm(-98.0)));
    }

    #[test]
    fn link_budget_chain() {
        let link = Link {
            tx: Dbm(14.0),
            loss: Db(110.0),
            rx_model: ReceptionModel::at_sensitivity(Dbm(-100.0)),
        };
        assert!((link.rx_power().value() + 96.0).abs() < 1e-12);
        assert!((link.margin().0 - 4.0).abs() < 1e-12);
        assert!(link.is_usable(3.0));
        assert!(!link.is_usable(5.0));
        assert!(link.prr() > 0.9);
    }

    #[test]
    #[should_panic(expected = "steepness")]
    fn rejects_bad_steepness() {
        ReceptionModel::new(Dbm(-100.0), 0.0);
    }
}
