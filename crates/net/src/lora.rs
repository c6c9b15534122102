//! LoRa PHY: airtime, sensitivity, and regulatory duty cycle.
//!
//! The airtime computation implements the Semtech formula (AN1200.13 /
//! SX1276 datasheet §4.1.1.6) exactly; per-SF sensitivities and required
//! SNRs follow the SX1276 datasheet. These numbers drive both the energy
//! cost of a transmission (via the `energy` crate) and the collision
//! footprint on the shared channel (via [`crate::aloha`]).

use crate::units::{Db, Dbm};

/// LoRa spreading factors.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpreadingFactor {
    /// SF7 — fastest, shortest range.
    Sf7,
    /// SF8.
    Sf8,
    /// SF9.
    Sf9,
    /// SF10.
    Sf10,
    /// SF11.
    Sf11,
    /// SF12 — slowest, longest range.
    Sf12,
}

impl SpreadingFactor {
    /// All factors, fastest first.
    pub const ALL: [SpreadingFactor; 6] = [
        SpreadingFactor::Sf7,
        SpreadingFactor::Sf8,
        SpreadingFactor::Sf9,
        SpreadingFactor::Sf10,
        SpreadingFactor::Sf11,
        SpreadingFactor::Sf12,
    ];

    /// The numeric spreading factor (7–12).
    pub const fn value(self) -> u32 {
        match self {
            SpreadingFactor::Sf7 => 7,
            SpreadingFactor::Sf8 => 8,
            SpreadingFactor::Sf9 => 9,
            SpreadingFactor::Sf10 => 10,
            SpreadingFactor::Sf11 => 11,
            SpreadingFactor::Sf12 => 12,
        }
    }

    /// Receiver sensitivity at 125 kHz bandwidth (SX1276 datasheet).
    pub const fn sensitivity_125khz(self) -> Dbm {
        match self {
            SpreadingFactor::Sf7 => Dbm(-123.0),
            SpreadingFactor::Sf8 => Dbm(-126.0),
            SpreadingFactor::Sf9 => Dbm(-129.0),
            SpreadingFactor::Sf10 => Dbm(-132.0),
            SpreadingFactor::Sf11 => Dbm(-134.5),
            SpreadingFactor::Sf12 => Dbm(-137.0),
        }
    }
}

/// A LoRa PHY configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LoraConfig {
    /// Spreading factor.
    pub sf: SpreadingFactor,
    /// Bandwidth in Hz (125 kHz typical for uplinks).
    pub bandwidth_hz: u32,
    /// Coding rate denominator offset: 1 → 4/5 … 4 → 4/8.
    pub coding_rate: u8,
    /// Preamble symbol count (8 for LoRaWAN).
    pub preamble_symbols: u32,
    /// Explicit header present (LoRaWAN uplinks: yes).
    pub explicit_header: bool,
    /// CRC appended (LoRaWAN uplinks: yes).
    pub crc: bool,
}

impl LoraConfig {
    /// LoRaWAN-style uplink defaults at the given SF: 125 kHz, CR 4/5,
    /// 8-symbol preamble, explicit header, CRC on.
    pub fn uplink(sf: SpreadingFactor) -> Self {
        LoraConfig {
            sf,
            bandwidth_hz: 125_000,
            coding_rate: 1,
            preamble_symbols: 8,
            explicit_header: true,
            crc: true,
        }
    }

    /// Symbol duration in seconds.
    pub fn symbol_time_s(&self) -> f64 {
        (1u64 << self.sf.value()) as f64 / self.bandwidth_hz as f64
    }

    /// Whether low-data-rate optimization is mandated (symbol time > 16 ms:
    /// SF11/SF12 at 125 kHz).
    pub fn low_data_rate_optimization(&self) -> bool {
        self.symbol_time_s() > 0.016
    }

    /// Time on air for a `payload_bytes` PHY payload, in seconds
    /// (Semtech AN1200.13).
    ///
    /// # Panics
    ///
    /// Panics if `coding_rate` is outside 1–4.
    pub fn airtime_s(&self, payload_bytes: u32) -> f64 {
        assert!((1..=4).contains(&self.coding_rate), "coding rate must be 1..=4");
        let t_sym = self.symbol_time_s();
        let t_preamble = (self.preamble_symbols as f64 + 4.25) * t_sym;
        let sf = self.sf.value() as f64;
        let de = if self.low_data_rate_optimization() { 1.0 } else { 0.0 };
        let ih = if self.explicit_header { 0.0 } else { 1.0 };
        let crc = if self.crc { 1.0 } else { 0.0 };
        let numerator = 8.0 * payload_bytes as f64 - 4.0 * sf + 28.0 + 16.0 * crc - 20.0 * ih;
        let denominator = 4.0 * (sf - 2.0 * de);
        let symbols = 8.0 + ((numerator / denominator).ceil() * (self.coding_rate as f64 + 4.0)).max(0.0);
        t_preamble + symbols * t_sym
    }
}

/// Regulatory duty-cycle limits for sub-GHz bands.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DutyCycle {
    /// EU 868 MHz: 1 % per sub-band.
    Eu868,
    /// US 915 MHz: no duty cycle, but 400 ms max dwell per channel.
    Us915,
}

impl DutyCycle {
    /// Minimum interval between packets of airtime `airtime_s`, in seconds.
    pub fn min_interval_s(&self, airtime_s: f64) -> f64 {
        match self {
            // 1 % duty cycle: wait 99x the airtime.
            DutyCycle::Eu868 => airtime_s * 99.0,
            // Dwell limit only; frequency hopping makes back-to-back legal.
            DutyCycle::Us915 => 0.0,
        }
    }

    /// Whether a single transmission of `airtime_s` is legal at all.
    pub fn transmission_legal(&self, airtime_s: f64) -> bool {
        match self {
            DutyCycle::Eu868 => true,
            DutyCycle::Us915 => airtime_s <= 0.400,
        }
    }
}

/// The maximum link budget (TX power minus sensitivity) for a configuration
/// at the given transmit power.
pub fn max_coupling_loss(tx: Dbm, sf: SpreadingFactor) -> Db {
    tx - sf.sensitivity_125khz()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn airtime_sf7_24byte_reference() {
        // Hand-computed from the Semtech formula: SF7/125k, CR 4/5, 8-sym
        // preamble, explicit header, CRC, 24-byte payload:
        //   t_sym = 1.024 ms; preamble = 12.544 ms;
        //   ceil((192-28+28+16)/28)=8 -> 8*5=40; (8+40)*1.024 = 49.152 ms;
        //   total = 61.696 ms.
        let cfg = LoraConfig::uplink(SpreadingFactor::Sf7);
        let t = cfg.airtime_s(24);
        assert!((t - 0.061_696).abs() < 1e-6, "t {t}");
    }

    #[test]
    fn airtime_sf12_24byte_reference() {
        // SF12/125k with LDRO: t_sym = 32.768 ms; preamble = 401.408 ms;
        // ceil((192-48+28+16)/40)=5 -> 25; (8+25)*32.768 = 1081.344 ms;
        // total = 1482.752 ms.
        let cfg = LoraConfig::uplink(SpreadingFactor::Sf12);
        let t = cfg.airtime_s(24);
        assert!((t - 1.482_752).abs() < 1e-6, "t {t}");
    }

    #[test]
    fn airtime_monotone_in_payload_and_sf() {
        let cfg7 = LoraConfig::uplink(SpreadingFactor::Sf7);
        assert!(cfg7.airtime_s(48) > cfg7.airtime_s(24));
        let mut last = 0.0;
        for sf in SpreadingFactor::ALL {
            let t = LoraConfig::uplink(sf).airtime_s(24);
            assert!(t > last, "sf {sf:?}");
            last = t;
        }
    }

    #[test]
    fn ldro_only_sf11_sf12_at_125k() {
        for sf in SpreadingFactor::ALL {
            let cfg = LoraConfig::uplink(sf);
            let expect = sf.value() >= 11;
            assert_eq!(cfg.low_data_rate_optimization(), expect, "sf {sf:?}");
        }
    }

    #[test]
    fn sensitivity_improves_with_sf() {
        let mut last = 0.0;
        for sf in SpreadingFactor::ALL {
            let s = sf.sensitivity_125khz().value();
            assert!(s < last, "sf {sf:?}");
            last = s;
        }
        assert_eq!(SpreadingFactor::Sf12.sensitivity_125khz(), Dbm(-137.0));
    }

    #[test]
    fn coupling_loss_vs_range() {
        // 14 dBm TX at SF12: 151 dB budget.
        let mcl = max_coupling_loss(Dbm(14.0), SpreadingFactor::Sf12);
        assert!((mcl.0 - 151.0).abs() < 1e-9);
    }

    #[test]
    fn eu_duty_cycle_spacing() {
        let cfg = LoraConfig::uplink(SpreadingFactor::Sf12);
        let t = cfg.airtime_s(24);
        let gap = DutyCycle::Eu868.min_interval_s(t);
        // SF12 24-byte packets legal at most every ~147 s in the EU.
        assert!((gap - t * 99.0).abs() < 1e-9);
        assert!(gap > 140.0);
        assert_eq!(DutyCycle::Us915.min_interval_s(t), 0.0);
    }

    #[test]
    fn us_dwell_limit_blocks_sf12_large() {
        // SF11+ with 24-byte payloads exceeds the 400 ms US dwell limit.
        let t11 = LoraConfig::uplink(SpreadingFactor::Sf11).airtime_s(24);
        assert!(!DutyCycle::Us915.transmission_legal(t11), "t11 {t11}");
        let t10 = LoraConfig::uplink(SpreadingFactor::Sf10).airtime_s(24);
        assert!(DutyCycle::Us915.transmission_legal(t10), "t10 {t10}");
    }

    #[test]
    #[should_panic(expected = "coding rate")]
    fn rejects_bad_coding_rate() {
        let mut cfg = LoraConfig::uplink(SpreadingFactor::Sf7);
        cfg.coding_rate = 5;
        cfg.airtime_s(10);
    }
}
