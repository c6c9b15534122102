//! Packet and frame types shared by the PHY/MAC models.

use core::fmt;

/// The radio technologies deployed in the paper's experiment (§4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RadioTech {
    /// IEEE 802.15.4 at 2.4 GHz, 250 kb/s O-QPSK.
    Ieee802154,
    /// LoRa at 915 MHz (US) — spreading factor chosen per device.
    LoRa,
}

impl fmt::Display for RadioTech {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RadioTech::Ieee802154 => f.write_str("802.15.4"),
            RadioTech::LoRa => f.write_str("LoRa"),
        }
    }
}

/// An application payload, bounded to what one data credit covers when sent
/// over the federated network (24 bytes, §4.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Payload {
    len: u16,
}

impl Payload {
    /// The paper's data-credit unit payload: 24 bytes.
    pub const CREDIT_UNIT: Payload = Payload { len: 24 };

    /// Creates a payload of `len` bytes.
    pub const fn new(len: u16) -> Payload {
        Payload { len }
    }

    /// Payload length in bytes.
    pub const fn len(self) -> u16 {
        self.len
    }

    /// Returns true for a zero-byte payload.
    pub const fn is_empty(self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credit_unit_is_24_bytes() {
        assert_eq!(Payload::CREDIT_UNIT.len(), 24);
        assert!(!Payload::CREDIT_UNIT.is_empty());
        assert!(Payload::new(0).is_empty());
    }

    #[test]
    fn tech_displays() {
        assert_eq!(RadioTech::Ieee802154.to_string(), "802.15.4");
        assert_eq!(RadioTech::LoRa.to_string(), "LoRa");
    }
}
