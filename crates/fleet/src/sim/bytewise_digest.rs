//! The byte-wise reference of [`FleetReport::digest`]: every byte the
//! digest covers, folded one at a time, read through the report's public
//! view only (each message as its rendered text, each lifetime
//! observation on its own). The digest's fixed-wording tables and
//! repeated-record runs must give exactly this value.
//!
//! fleet's unit tests use it as `sim::bytewise_digest`; the workspace's
//! `tests/digest_reference.rs` includes this file by path.

use telemetry::Digest;

use super::FleetReport;

/// [`FleetReport::digest`], one byte at a time.
pub(crate) fn bytewise_digest(report: &FleetReport) -> u64 {
    let mut d = Digest::new();
    d.write_str("century-fleet-digest-v1");
    d.write_u64(report.events_processed);
    d.write_u64(report.diary().len() as u64);
    for e in report.diary().entries() {
        d.write_u64(e.at.as_secs());
        d.write_u8(e.severity.code());
        d.write_u8(e.tier.code());
        d.write_str(&e.message.to_string());
    }
    d.write_u64(report.arms.len() as u64);
    for arm in &report.arms {
        d.write_str(arm.name);
        for v in [
            arm.weeks_up,
            arm.weeks_total,
            arm.readings_delivered,
            arm.readings_expected,
            arm.device_failures,
            arm.device_replacements,
            arm.gateway_repairs,
            arm.backhaul_migrations,
            arm.wallets_exhausted,
            arm.faults_injected,
        ] {
            d.write_u64(v);
        }
        d.write_f64(arm.labor.hours());
        d.write_i128(arm.spend.micros());
        d.write_u64(arm.lifetime_observations().count() as u64);
        for o in arm.lifetime_observations() {
            d.write_f64(o.time);
            d.write_u8(u8::from(o.event));
        }
    }
    d.fold_spans(&report.spans);
    d.fold_snapshot(&report.metrics);
    d.finish()
}
