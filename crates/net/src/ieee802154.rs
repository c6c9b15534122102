//! IEEE 802.15.4 PHY/MAC: airtime and sensitivity.
//!
//! The paper's "owned infrastructure" arm uses 802.15.4 (2.4 GHz O-QPSK,
//! 250 kb/s). The models here cover what the fleet simulation needs:
//! frame airtime and receiver sensitivity.

use crate::units::Dbm;

/// PHY bit rate, b/s (2.4 GHz O-QPSK).
pub const BIT_RATE_BPS: f64 = 250_000.0;

/// PHY overhead: 4 B preamble + 1 B SFD + 1 B PHR.
pub const PHY_OVERHEAD_BYTES: u32 = 6;

/// Typical MAC overhead for a short-address data frame:
/// FCF 2 + seq 1 + PAN 2 + dst 2 + src 2 + FCS 2 = 11 bytes.
pub const MAC_OVERHEAD_BYTES: u32 = 11;

/// Maximum PHY payload (aMaxPHYPacketSize).
pub const MAX_FRAME_BYTES: u32 = 127;

/// A practical receiver sensitivity (the standard mandates only −85 dBm;
/// current radios reach −95 to −100).
pub const SENSITIVITY: Dbm = Dbm(-95.0);

/// Airtime of a data frame carrying `payload_bytes` of MAC payload, in
/// seconds.
///
/// # Panics
///
/// Panics if the frame would exceed [`MAX_FRAME_BYTES`].
pub fn airtime_s(payload_bytes: u32) -> f64 {
    let mac_frame = payload_bytes + MAC_OVERHEAD_BYTES;
    assert!(
        mac_frame <= MAX_FRAME_BYTES,
        "frame of {mac_frame} bytes exceeds 802.15.4 maximum"
    );
    ((mac_frame + PHY_OVERHEAD_BYTES) * 8) as f64 / BIT_RATE_BPS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn airtime_reference_values() {
        // 24-byte payload: (24+11+6)*8/250k = 1.312 ms.
        assert!((airtime_s(24) - 0.001_312).abs() < 1e-9);
        // Empty payload: 17 bytes on air = 544 us.
        assert!((airtime_s(0) - 0.000_544).abs() < 1e-9);
    }

    #[test]
    fn airtime_max_frame_ok() {
        // Largest legal MAC payload with our overhead: 116 bytes.
        let t = airtime_s(MAX_FRAME_BYTES - MAC_OVERHEAD_BYTES);
        assert!((t - (133.0 * 8.0 / 250_000.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn airtime_rejects_oversize() {
        airtime_s(117);
    }

    #[test]
    fn sensitivity_constant() {
        assert_eq!(SENSITIVITY, Dbm(-95.0));
    }
}
