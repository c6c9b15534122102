//! Fleet world snapshot/restore: crash-recoverable checkpoints mid-run.
//!
//! A century-scale run is long; the machine running it will crash, be
//! rebooted, or get preempted before the horizon. This module captures a
//! running [`FleetSim`] engine into the versioned, checksummed binary
//! frame of [`simcore::snapshot`] and rebuilds a bit-identical
//! continuation from it: run-to-week-W, snapshot, crash, resume,
//! run-to-horizon digests exactly like the uninterrupted run
//! (`tests/snapshot_differential.rs` proves it per seed × week × chaos ×
//! shard count).
//!
//! The design splits state two ways:
//!
//! * **Rebuilt, not stored.** Everything `FleetSim::build` derives purely
//!   from the [`FleetConfig`] — the config itself, arm metadata, device
//!   specs, gateway specs, the deployment-time coverage lottery (each
//!   device's home cohort), the cloud ritual calendar, metric
//!   registration. Resume re-runs `build` on the caller's config and
//!   asserts (via a config fingerprint) that it matches the one the
//!   snapshot was taken under.
//! * **Stored and overlaid.** Everything the run mutates: the engine's
//!   clock, dispatch counters and pending event queue
//!   ([`simcore::engine::EngineCheckpoint`]); each arm's runtime rng
//!   stream, device wear, gateway state, wallets, hotspot census, ledger,
//!   diary, spans and the deferred weekly-delivery accumulator; and chaos
//!   replay progress ([`ChaosProgress`]).
//!
//! Loads are fail-closed: a torn, truncated, or bit-flipped file is a
//! typed [`SnapshotError`], never a silently wrong world.

use std::fmt::Write as _;
use std::path::Path;

use simcore::engine::{Engine, EngineCheckpoint, ResumeError};
use simcore::rng::Rng;
use simcore::snapshot::{self, ByteReader, ByteWriter, SnapshotError};
use simcore::time::SimTime;
use simcore::trace::{Diary, Severity, Tier};
use telemetry::span::{Span, SpanLog};

use econ::labor::PersonHours;
use econ::money::Usd;

use crate::sim::{ArmInfra, ArmKind, ArmState, Ev, FleetConfig, FleetSim, SamplingMode};

/// Version byte of the fleet snapshot payload. Bump on any layout change;
/// old files then fail with [`SnapshotError::UnsupportedVersion`] instead
/// of decoding garbage.
///
/// v2: the device population moved into the struct-of-arrays
/// [`DeviceStore`](crate::store::DeviceStore) (same per-device byte
/// layout, encoded via materialized rows), federated wallets became a
/// [`WalletColumn`](econ::credits::WalletColumn), and the config
/// fingerprint gained the sampling mode.
///
/// v3: the per-device row dropped its 8-byte report sequence counter
/// (33 bytes: four times and the failed flag).
pub const FLEET_SNAPSHOT_VERSION: u8 = 3;

/// Chaos replay progress at the checkpoint: how far through its
/// [`FaultPlan`](crate::fault::FaultPlan)-ordered schedule the injector
/// had advanced, and its applied/skipped tallies. All zero for plain runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosProgress {
    /// Index of the next fault to fire in the serial plan order.
    pub next: u64,
    /// Faults successfully injected before the checkpoint.
    pub applied: u64,
    /// Faults skipped (missing target) before the checkpoint.
    pub skipped: u64,
}

/// A restored mid-run simulation: the engine positioned exactly where the
/// checkpoint was taken, plus the chaos progress needed to resume an
/// injected run. Produced by [`resume_from`] / [`resume_from_bytes`];
/// run it to the horizon as a [`Start::Resumed`](crate::run::Start::Resumed)
/// [`Run`](crate::run::Run).
pub struct ResumedFleet {
    /// The engine, clock and queue restored to the checkpoint instant.
    pub engine: Engine<FleetSim>,
    /// Chaos replay progress stored in the snapshot (zeros for plain runs).
    pub chaos: ChaosProgress,
}

/// A 64-bit FNV-1a fold of the configuration facets that determine the
/// simulation's derived state: seed, horizon, and each arm's shape. Two
/// configs with the same fingerprint rebuild the same world skeleton, so
/// a snapshot overlays cleanly; a mismatch is refused with
/// [`SnapshotError::ConfigMismatch`] before any state is touched.
pub fn config_fingerprint(cfg: &FleetConfig) -> u64 {
    let mut w = ByteWriter::new();
    w.put_str("century-fleet-config-v2");
    w.put_u64(cfg.seed);
    w.put_u64(cfg.horizon.as_secs());
    w.put_u8(match cfg.sampling {
        SamplingMode::Legacy => 0,
        SamplingMode::Aggregate => 1,
        SamplingMode::Reference => 2,
    });
    w.put_u64(cfg.arms.len() as u64);
    for arm in &cfg.arms {
        w.put_str(arm.name);
        w.put_u64(arm.devices as u64);
        w.put_u64(arm.device_spec.report_interval.as_secs());
        w.put_u64(arm.per_packet_delivery.to_bits());
        w.put_u64(arm.dual_homed_fraction.to_bits());
        match arm.replace_devices {
            Some(delay) => {
                w.put_u8(1);
                w.put_u64(delay.as_secs());
            }
            None => w.put_u8(0),
        }
        match &arm.kind {
            ArmKind::Owned { gateways, spec } => {
                w.put_u8(0);
                w.put_u64(*gateways as u64);
                w.put_u64(spec.repair_delay.as_secs());
            }
            ArmKind::Federated { hotspots, wallet_dollars } => {
                w.put_u8(1);
                w.put_u32(hotspots.count());
                w.put_i128(wallet_dollars.micros());
            }
        }
    }
    snapshot::fnv1a(w.as_bytes())
}

/// Captures the engine mid-run into a complete sealed snapshot image
/// (framing, version byte and checksum trailer included).
///
/// The pending events are the engine queue's and the arms' due lists'
/// together, merged into one `(time, seq)` order and stored without
/// their seqs: the same bytes whichever side held an event. Capturing
/// leaves the run untouched, so continuing it is bit-identical to never
/// having snapshotted. Pass [`ChaosProgress::default`] for plain runs.
pub fn checkpoint_bytes(engine: &mut Engine<FleetSim>, chaos: ChaosProgress) -> Vec<u8> {
    let cp = FleetSim::checkpoint(engine);
    let world = engine.world();
    let mut w = ByteWriter::with_capacity(4096);
    w.put_u64(config_fingerprint(&world.cfg));
    w.put_u64(world.cfg.seed);
    w.put_u64(world.cfg.horizon.as_secs());
    encode_engine(&mut w, &cp);
    w.put_u64(chaos.next);
    w.put_u64(chaos.applied);
    w.put_u64(chaos.skipped);
    w.put_u64(world.chaos_applied.get());
    w.put_u64(world.chaos_skipped.get());
    w.put_u64(world.arms.len() as u64);
    for arm in &world.arms {
        encode_arm(&mut w, arm);
    }
    snapshot::seal(FLEET_SNAPSHOT_VERSION, w.as_bytes())
}

/// [`checkpoint_bytes`] written atomically to `path`: temp-file sibling,
/// fsync, rename — a crash mid-write leaves either the previous file or a
/// torn temp file, never a half-written snapshot under the final name.
///
/// # Errors
///
/// [`SnapshotError::Io`] on any filesystem failure.
pub fn write_checkpoint(
    path: &Path,
    engine: &mut Engine<FleetSim>,
    chaos: ChaosProgress,
) -> Result<(), SnapshotError> {
    let bytes = checkpoint_bytes(engine, chaos);
    snapshot::write_atomic(path, &bytes)
}

/// Restores a mid-run simulation from a sealed snapshot image.
///
/// `cfg` must be the configuration the snapshot was taken under (checked
/// by fingerprint): the world skeleton is rebuilt from it and the stored
/// mutable state overlaid.
///
/// # Errors
///
/// Fail-closed on every defect: framing/checksum errors from
/// [`simcore::snapshot::open`], [`SnapshotError::ConfigMismatch`] for a
/// foreign config, [`SnapshotError::Truncated`]/[`SnapshotError::Corrupt`]
/// for payload damage.
pub fn resume_from_bytes(bytes: &[u8], cfg: FleetConfig) -> Result<ResumedFleet, SnapshotError> {
    let (_version, payload) = snapshot::open(bytes, FLEET_SNAPSHOT_VERSION)?;
    resume_payload(payload, cfg)
}

/// [`resume_from_bytes`] reading (and verifying) the file at `path`.
///
/// # Errors
///
/// As [`resume_from_bytes`], plus [`SnapshotError::Io`] on read failure.
pub fn resume_from(path: &Path, cfg: FleetConfig) -> Result<ResumedFleet, SnapshotError> {
    let (_version, payload) = snapshot::read_verified(path, FLEET_SNAPSHOT_VERSION)?;
    resume_payload(&payload, cfg)
}

fn encode_engine(w: &mut ByteWriter, cp: &EngineCheckpoint<Ev>) {
    w.put_time(cp.now);
    w.put_u64(cp.processed);
    w.put_u64(cp.dispatches.len() as u64);
    for (name, n) in &cp.dispatches {
        w.put_str(name);
        w.put_u64(*n);
    }
    w.put_u64(cp.queue_high_water as u64);
    w.put_u64(cp.hook_fires);
    w.put_u64(cp.events.len() as u64);
    for (at, _, ev) in &cp.events {
        w.put_time(*at);
        encode_ev(w, *ev);
    }
}

/// Decodes the engine section. The stored events are in pop order without
/// seqs, so each takes its position as its seq; resuming under those
/// numbers reproduces every tie of the uninterrupted run.
fn decode_engine(r: &mut ByteReader<'_>) -> Result<EngineCheckpoint<Ev>, SnapshotError> {
    let now = r.take_time()?;
    let processed = r.take_u64()?;
    let n_dispatches = r.take_count(16)?;
    let mut dispatches = Vec::with_capacity(n_dispatches);
    for _ in 0..n_dispatches {
        let name = r.take_str()?;
        let n = r.take_u64()?;
        dispatches.push((name, n));
    }
    let queue_high_water = usize::try_from(r.take_u64()?)
        .map_err(|_| SnapshotError::Corrupt { what: "queue high-water exceeds usize" })?;
    let hook_fires = r.take_u64()?;
    let n_events = r.take_count(9)?;
    let mut events = Vec::with_capacity(n_events);
    for seq in 0..n_events as u64 {
        let at = r.take_time()?;
        let ev = decode_ev(r)?;
        events.push((at, seq, ev));
    }
    let next_seq = n_events as u64;
    Ok(EngineCheckpoint {
        now,
        processed,
        dispatches,
        queue_high_water,
        hook_fires,
        events,
        next_seq,
    })
}

fn encode_ev(w: &mut ByteWriter, ev: Ev) {
    match ev {
        Ev::WeeklyCheck => w.put_u8(0),
        Ev::YearlyTick => w.put_u8(1),
        Ev::DeviceFail(ai, di) => {
            w.put_u8(2);
            w.put_u64(ai as u64);
            w.put_u64(di as u64);
        }
        Ev::DeviceReplace(ai, di) => {
            w.put_u8(3);
            w.put_u64(ai as u64);
            w.put_u64(di as u64);
        }
        Ev::GatewayFail(ai, gi) => {
            w.put_u8(4);
            w.put_u64(ai as u64);
            w.put_u64(gi as u64);
        }
        Ev::GatewayRepair(ai, gi) => {
            w.put_u8(5);
            w.put_u64(ai as u64);
            w.put_u64(gi as u64);
        }
        Ev::ProviderExit(ai) => {
            w.put_u8(6);
            w.put_u64(ai as u64);
        }
        Ev::BackhaulMigrated(ai) => {
            w.put_u8(7);
            w.put_u64(ai as u64);
        }
    }
}

fn take_index(r: &mut ByteReader<'_>) -> Result<usize, SnapshotError> {
    usize::try_from(r.take_u64()?)
        .map_err(|_| SnapshotError::Corrupt { what: "index exceeds usize" })
}

fn decode_ev(r: &mut ByteReader<'_>) -> Result<Ev, SnapshotError> {
    Ok(match r.take_u8()? {
        0 => Ev::WeeklyCheck,
        1 => Ev::YearlyTick,
        2 => Ev::DeviceFail(take_index(r)?, take_index(r)?),
        3 => Ev::DeviceReplace(take_index(r)?, take_index(r)?),
        4 => Ev::GatewayFail(take_index(r)?, take_index(r)?),
        5 => Ev::GatewayRepair(take_index(r)?, take_index(r)?),
        6 => Ev::ProviderExit(take_index(r)?),
        7 => Ev::BackhaulMigrated(take_index(r)?),
        _ => return Err(SnapshotError::Corrupt { what: "unknown event tag" }),
    })
}

fn encode_arm(w: &mut ByteWriter, arm: &ArmState) {
    w.put_u64(arm.id as u64);
    for s in arm.rng.state() {
        w.put_u64(s);
    }
    w.put_u64(arm.store.len() as u64);
    for di in 0..arm.store.len() {
        let dev = arm.store.row(di);
        w.put_time(dev.installed_at);
        w.put_time(dev.fails_at);
        w.put_bool(dev.failed);
        w.put_time(dev.stuck_until);
        w.put_time(dev.byzantine_until);
    }
    match &arm.infra {
        ArmInfra::Owned { gateways, backhaul_down, sunset_logged, flap_until } => {
            w.put_u8(0);
            w.put_u64(gateways.len() as u64);
            for gw in gateways {
                w.put_time(gw.fails_at);
                w.put_bool(gw.down);
                w.put_u64(gw.repairs);
                w.put_time(gw.outage_until);
            }
            w.put_bool(*backhaul_down);
            w.put_bool(*sunset_logged);
            w.put_time(*flap_until);
        }
        ArmInfra::Federated { hotspots, wallets, dark_until } => {
            w.put_u8(1);
            w.put_u32(hotspots.count());
            w.put_u32(hotspots.year());
            w.put_u64(wallets.len() as u64);
            for i in 0..wallets.len() {
                let Some(wallet) = wallets.get(i) else { continue };
                let (balance, burned, funded, exhausted_at) = wallet.raw_state();
                w.put_u64(balance);
                w.put_u64(burned);
                w.put_i128(funded.micros());
                w.put_opt_time(exhausted_at);
            }
            w.put_time(*dark_until);
        }
    }
    // Ledger.
    w.put_str(arm.report.name);
    for v in [
        arm.report.weeks_up,
        arm.report.weeks_total,
        arm.report.readings_delivered,
        arm.report.readings_expected,
        arm.report.device_failures,
        arm.report.device_replacements,
        arm.report.gateway_repairs,
        arm.report.backhaul_migrations,
        arm.report.wallets_exhausted,
        arm.report.faults_injected,
    ] {
        w.put_u64(v);
    }
    w.put_f64(arm.report.labor.hours());
    w.put_i128(arm.report.spend.micros());
    // Lifetime observations: mid-run, only the failures so far. The
    // censored tail is derived at finalize and never stored; the event
    // flag stays in the layout and is always set.
    w.put_u64(arm.report.failure_ages.len() as u64);
    for &age in &arm.report.failure_ages {
        w.put_f64(age);
        w.put_bool(true);
    }
    // Diary (replaces the rebuilt arm's deployment entry on resume — the
    // stored stream already begins with it), read in log order. Device
    // lines are stored as their rendered text and come back as text
    // lines, which read, digest and export identically.
    w.put_u64(arm.diary.len() as u64);
    let mut text = String::new();
    for entry in arm.diary.entries() {
        w.put_time(entry.at);
        w.put_u8(entry.severity.code());
        w.put_u8(entry.tier.code());
        text.clear();
        let _ = write!(text, "{}", entry.message);
        w.put_str(&text);
    }
    // Spans, plus the open-outage handle as an index into them.
    w.put_u64(arm.spans.len() as u64);
    for span in arm.spans.spans() {
        w.put_str(&span.name);
        w.put_time(span.start);
        w.put_opt_time(span.end);
    }
    match arm.outage_span {
        Some(id) => {
            w.put_u8(1);
            w.put_u64(id.index() as u64);
        }
        None => w.put_u8(0),
    }
    // The deferred weekly-delivery accumulator: the only telemetry buffer
    // with mid-run state (counters/histograms settle at finalize).
    w.put_u64(arm.weekly_acc.bucket_counts().len() as u64);
    for &c in arm.weekly_acc.bucket_counts() {
        w.put_u64(c);
    }
    w.put_u64(arm.weekly_acc.count());
    w.put_f64(arm.weekly_acc.sum());
}

fn decode_arm_into(r: &mut ByteReader<'_>, arm: &mut ArmState) -> Result<(), SnapshotError> {
    if r.take_u64()? != arm.id as u64 {
        return Err(SnapshotError::Corrupt { what: "arm id out of order" });
    }
    let mut state = [0u64; 4];
    for s in &mut state {
        *s = r.take_u64()?;
    }
    arm.rng = Rng::from_state(state);
    let n_devices = r.take_count(33)?;
    if n_devices != arm.store.len() {
        return Err(SnapshotError::Corrupt { what: "device count differs from config" });
    }
    for di in 0..n_devices {
        let mut dev = arm.store.row(di);
        dev.installed_at = r.take_time()?;
        dev.fails_at = r.take_time()?;
        dev.failed = r.take_bool()?;
        dev.stuck_until = r.take_time()?;
        dev.byzantine_until = r.take_time()?;
        arm.store.set_row(di, &dev);
    }
    arm.store.rebuild_stuck_ids();
    match (&mut arm.infra, r.take_u8()?) {
        (ArmInfra::Owned { gateways, backhaul_down, sunset_logged, flap_until }, 0) => {
            let n_gw = r.take_count(25)?;
            if n_gw != gateways.len() {
                return Err(SnapshotError::Corrupt { what: "gateway count differs from config" });
            }
            for gw in gateways.iter_mut() {
                gw.fails_at = r.take_time()?;
                gw.down = r.take_bool()?;
                gw.repairs = r.take_u64()?;
                gw.outage_until = r.take_time()?;
            }
            *backhaul_down = r.take_bool()?;
            *sunset_logged = r.take_bool()?;
            *flap_until = r.take_time()?;
        }
        (ArmInfra::Federated { hotspots, wallets, dark_until }, 1) => {
            let count = r.take_u32()?;
            let year = r.take_u32()?;
            hotspots.restore_census(count, year);
            let n_wallets = r.take_count(33)?;
            if n_wallets != wallets.len() {
                return Err(SnapshotError::Corrupt { what: "wallet count differs from config" });
            }
            for i in 0..n_wallets {
                let balance = r.take_u64()?;
                let burned = r.take_u64()?;
                let funded = Usd::from_micros(r.take_i128()?);
                let exhausted_at = r.take_opt_time()?;
                let wallet =
                    econ::credits::Wallet::from_raw_state(balance, burned, funded, exhausted_at);
                wallets.set(i, &wallet);
            }
            *dark_until = r.take_time()?;
        }
        _ => return Err(SnapshotError::Corrupt { what: "arm infrastructure kind differs" }),
    }
    // Ledger.
    if r.take_str()? != arm.report.name {
        return Err(SnapshotError::Corrupt { what: "arm name differs from config" });
    }
    arm.report.weeks_up = r.take_u64()?;
    arm.report.weeks_total = r.take_u64()?;
    arm.report.readings_delivered = r.take_u64()?;
    arm.report.readings_expected = r.take_u64()?;
    arm.report.device_failures = r.take_u64()?;
    arm.report.device_replacements = r.take_u64()?;
    arm.report.gateway_repairs = r.take_u64()?;
    arm.report.backhaul_migrations = r.take_u64()?;
    arm.report.wallets_exhausted = r.take_u64()?;
    arm.report.faults_injected = r.take_u64()?;
    arm.report.labor = PersonHours::from_hours(restore_finite(r.take_f64()?, "labor hours")?);
    arm.report.spend = Usd::from_micros(r.take_i128()?);
    let n_obs = r.take_count(9)?;
    let mut failure_ages = Vec::with_capacity(n_obs);
    for _ in 0..n_obs {
        let age = restore_finite(r.take_f64()?, "lifetime observation")?;
        if !r.take_bool()? {
            return Err(SnapshotError::Corrupt { what: "censored lifetime observation mid-run" });
        }
        failure_ages.push(age);
    }
    arm.report.failure_ages = failure_ages;
    // Diary: rebuilt wholesale in stored (time-ordered) sequence.
    let n_diary = r.take_count(18)?;
    let mut diary = Diary::new(arm.cfg.name);
    for _ in 0..n_diary {
        let at = r.take_time()?;
        let severity = Severity::from_code(r.take_u8()?)
            .ok_or(SnapshotError::Corrupt { what: "unknown diary severity code" })?;
        let tier = Tier::from_code(r.take_u8()?)
            .ok_or(SnapshotError::Corrupt { what: "unknown diary tier code" })?;
        let message = r.take_str()?;
        diary.log(at, severity, tier, message);
    }
    arm.diary = diary;
    // Spans and the re-minted open-outage handle.
    let n_spans = r.take_count(25)?;
    let mut spans = Vec::with_capacity(n_spans);
    for _ in 0..n_spans {
        let name = r.take_str()?;
        let start = r.take_time()?;
        let end = r.take_opt_time()?;
        spans.push(Span { name, start, end });
    }
    arm.spans = SpanLog::restore(spans);
    arm.outage_span = match r.take_u8()? {
        0 => None,
        1 => {
            let index = take_index(r)?;
            Some(
                arm.spans
                    .handle(index)
                    .ok_or(SnapshotError::Corrupt { what: "outage span index out of range" })?,
            )
        }
        _ => return Err(SnapshotError::Corrupt { what: "unknown outage-span tag" }),
    };
    // Weekly accumulator buffer.
    let n_buckets = r.take_count(8)?;
    let mut counts = Vec::with_capacity(n_buckets);
    for _ in 0..n_buckets {
        counts.push(r.take_u64()?);
    }
    let count = r.take_u64()?;
    let sum = restore_finite(r.take_f64()?, "weekly accumulator sum")?;
    if !arm.weekly_acc.restore(&counts, count, sum) {
        return Err(SnapshotError::Corrupt { what: "weekly accumulator layout differs" });
    }
    Ok(())
}

/// Times in the simulation are finite by construction; a non-finite float
/// in a snapshot is damage, not data.
fn restore_finite(v: f64, what: &'static str) -> Result<f64, SnapshotError> {
    if v.is_finite() {
        Ok(v)
    } else {
        Err(SnapshotError::Corrupt { what })
    }
}

/// Refuses a pending event timed before the checkpoint clock (the
/// resumed run could never dispatch it) or naming an arm, device or
/// gateway the rebuilt world does not have (its handler would index past
/// the end). Checked before any event moves into an arm's due list, out
/// of [`Engine::resume`]'s sight.
fn check_pending(cp: &EngineCheckpoint<Ev>, world: &FleetSim) -> Result<(), SnapshotError> {
    for &(at, _, ev) in &cp.events {
        if at < cp.now {
            return Err(SnapshotError::Corrupt { what: "pending event before the clock" });
        }
        let Some(ai) = ev.arm() else { continue };
        let known = world.arms.get(ai).is_some_and(|arm| match (ev, &arm.infra) {
            (Ev::DeviceFail(_, di) | Ev::DeviceReplace(_, di), _) => di < arm.store.len(),
            (Ev::GatewayFail(_, gi) | Ev::GatewayRepair(_, gi), infra) => match infra {
                ArmInfra::Owned { gateways, .. } => gi < gateways.len(),
                ArmInfra::Federated { .. } => false,
            },
            _ => true,
        });
        if !known {
            return Err(SnapshotError::Corrupt { what: "pending event names an unknown target" });
        }
    }
    Ok(())
}

fn resume_payload(payload: &[u8], cfg: FleetConfig) -> Result<ResumedFleet, SnapshotError> {
    let mut r = ByteReader::new(payload);
    let stored_fp = r.take_u64()?;
    let current_fp = config_fingerprint(&cfg);
    if stored_fp != current_fp {
        return Err(SnapshotError::ConfigMismatch { stored: stored_fp, current: current_fp });
    }
    if r.take_u64()? != cfg.seed || r.take_u64()? != cfg.horizon.as_secs() {
        return Err(SnapshotError::ConfigMismatch { stored: stored_fp, current: current_fp });
    }
    let cp = decode_engine(&mut r)?;
    let horizon = SimTime::ZERO + cfg.horizon;
    if cp.now > horizon {
        return Err(SnapshotError::Corrupt { what: "checkpoint clock past the horizon" });
    }
    let chaos =
        ChaosProgress { next: r.take_u64()?, applied: r.take_u64()?, skipped: r.take_u64()? };
    let applied_counter = r.take_u64()?;
    let skipped_counter = r.take_u64()?;
    // Rebuild the world skeleton deterministically from the config, then
    // discard the freshly primed queue: the stored checkpoint carries the
    // authoritative pending events.
    let mut world = FleetSim::build(cfg).into_world();
    let n_arms = r.take_count(64)?;
    if n_arms != world.arms.len() {
        return Err(SnapshotError::Corrupt { what: "arm count differs from config" });
    }
    for arm in &mut world.arms {
        decode_arm_into(&mut r, arm)?;
    }
    r.finish()?;
    check_pending(&cp, &world)?;
    world.chaos_applied.add(applied_counter);
    world.chaos_skipped.add(skipped_counter);
    let engine = FleetSim::resume(world, cp).map_err(|e| SnapshotError::Corrupt {
        what: match e {
            ResumeError::UnknownEventKind { .. } => "checkpoint names unknown event kind",
            ResumeError::EventBeforeClock { .. } => "pending event before the clock",
            ResumeError::SeqNotReserved { .. } => "pending event above the seq counter",
        },
    })?;
    Ok(ResumedFleet { engine, chaos })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::run::{Run, Shards, Start};
    use simcore::time::SimDuration;

    fn cfg(seed: u64) -> FleetConfig {
        FleetConfig::paper_experiment(seed)
    }

    fn week(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_weeks(n)
    }

    #[test]
    fn snapshot_resume_matches_uninterrupted_run() {
        let baseline = FleetSim::run(cfg(11));
        let mut engine = FleetSim::build(cfg(11));
        engine.run_until(week(52));
        let bytes = checkpoint_bytes(&mut engine, ChaosProgress::default());
        drop(engine);
        let resumed = resume_from_bytes(&bytes, cfg(11)).expect("snapshot round-trips");
        assert_eq!(resumed.chaos, ChaosProgress::default());
        let start = Start::Resumed(Box::new(resumed));
        let report = Run { start, faults: FaultPlan::empty(), shards: Shards::SERIAL }.execute();
        assert_eq!(report.digest(), baseline.digest());
        assert_eq!(report.events_processed, baseline.events_processed);
    }

    #[test]
    fn checkpointing_does_not_perturb_the_run() {
        let baseline = FleetSim::run(cfg(12));
        let horizon = SimTime::ZERO + cfg(12).horizon;
        let mut engine = FleetSim::build(cfg(12));
        engine.run_until(week(100));
        let _ = checkpoint_bytes(&mut engine, ChaosProgress::default());
        engine.run_until(horizon);
        let report = FleetSim::into_report(engine, horizon);
        assert_eq!(report.digest(), baseline.digest());
    }

    #[test]
    fn foreign_config_is_refused() {
        let mut engine = FleetSim::build(cfg(13));
        engine.run_until(week(10));
        let bytes = checkpoint_bytes(&mut engine, ChaosProgress::default());
        let Err(err) = resume_from_bytes(&bytes, cfg(14)) else {
            panic!("seed mismatch must be refused");
        };
        assert!(matches!(err, SnapshotError::ConfigMismatch { .. }), "{err}");
        let mut small = cfg(13);
        small.arms.truncate(1);
        let Err(err) = resume_from_bytes(&bytes, small) else {
            panic!("arm-list mismatch must be refused");
        };
        assert!(matches!(err, SnapshotError::ConfigMismatch { .. }), "{err}");
    }

    #[test]
    fn truncated_and_corrupted_images_fail_closed() {
        let mut engine = FleetSim::build(cfg(15));
        engine.run_until(week(26));
        let bytes = checkpoint_bytes(&mut engine, ChaosProgress::default());
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                resume_from_bytes(&bytes[..cut], cfg(15)).is_err(),
                "truncation to {cut} bytes must be rejected"
            );
        }
        let mut flipped = bytes.clone();
        flipped[bytes.len() / 3] ^= 0x40;
        assert!(matches!(
            resume_from_bytes(&flipped, cfg(15)),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn older_snapshot_versions_are_refused() {
        let mut engine = FleetSim::build(cfg(16));
        engine.run_until(week(8));
        let bytes = checkpoint_bytes(&mut engine, ChaosProgress::default());
        let (_, payload) = snapshot::open(&bytes, FLEET_SNAPSHOT_VERSION).expect("sealed image");
        let stale = snapshot::seal(2, payload);
        let Err(err) = resume_from_bytes(&stale, cfg(16)) else {
            panic!("a version-2 image must be refused");
        };
        assert!(
            matches!(err, SnapshotError::UnsupportedVersion { found: 2, supported: 3 }),
            "{err}"
        );
    }

    /// A large arm early in the run: the device rows dominate the payload,
    /// so the device-count floor must not exceed the row size.
    #[test]
    fn large_single_arm_resumes_from_an_early_checkpoint() {
        let one_arm = || FleetConfig {
            horizon: SimDuration::from_years(1),
            arms: vec![crate::sim::ArmConfig::paper_owned_154(10_000, 2)],
            ..cfg(17)
        };
        let baseline = FleetSim::run(one_arm());
        let mut engine = FleetSim::build(one_arm());
        engine.run_until(week(1));
        let bytes = checkpoint_bytes(&mut engine, ChaosProgress::default());
        drop(engine);
        let resumed = resume_from_bytes(&bytes, one_arm()).expect("early checkpoint resumes");
        let start = Start::Resumed(Box::new(resumed));
        let report = Run { start, faults: FaultPlan::empty(), shards: Shards::SERIAL }.execute();
        assert_eq!(report.digest(), baseline.digest());
    }

    #[test]
    fn a_censored_lifetime_observation_is_refused() {
        let mut engine = FleetSim::build(cfg(18));
        engine.run_until(week(1300));
        let bytes = checkpoint_bytes(&mut engine, ChaosProgress::default());
        let age = engine.world().arms[0].report.failure_ages[0];
        let (_, payload) = snapshot::open(&bytes, FLEET_SNAPSHOT_VERSION).expect("sealed image");
        // The first stored observation: its age, then its event flag.
        let mut needle = age.to_bits().to_le_bytes().to_vec();
        needle.push(1);
        let at = payload
            .windows(needle.len())
            .position(|w| w == needle.as_slice())
            .expect("the first failure is stored");
        let mut censored = payload.to_vec();
        censored[at + 8] = 0;
        let image = snapshot::seal(FLEET_SNAPSHOT_VERSION, &censored);
        let Err(err) = resume_from_bytes(&image, cfg(18)) else {
            panic!("a censored observation must be refused");
        };
        assert!(matches!(err, SnapshotError::Corrupt { .. }), "{err}");
    }

    /// Pending events a resumed run could not dispatch — timed before the
    /// checkpoint clock, or naming a device, gateway or arm past the
    /// rebuilt world's — are refused as `Corrupt` instead of panicking
    /// mid-run.
    #[test]
    fn undispatchable_pending_events_are_refused() {
        // Under Aggregate the arms hold their device events outside the
        // engine queue, so a bad one must be refused before it moves there.
        for cfg in [cfg(19), cfg(19).with_sampling(SamplingMode::Aggregate)] {
            let mut engine = FleetSim::build(cfg.clone());
            engine.run_until(week(10));
            let bytes = checkpoint_bytes(&mut engine, ChaosProgress::default());
            let (_, payload) =
                snapshot::open(&bytes, FLEET_SNAPSHOT_VERSION).expect("sealed image");
            // The engine section follows the fingerprint, seed and horizon.
            let mut section = ByteReader::new(&payload[24..]);
            let cp = decode_engine(&mut section).expect("stored engine section");
            let engine_end = payload.len() - section.remaining();
            let with_event = |at: SimTime, ev: Ev| {
                let mut edited = cp.clone();
                edited.events.push((at, 0, ev));
                let mut section = ByteWriter::new();
                encode_engine(&mut section, &edited);
                let mut spliced = payload[..24].to_vec();
                spliced.extend_from_slice(section.as_bytes());
                spliced.extend_from_slice(&payload[engine_end..]);
                snapshot::seal(FLEET_SNAPSHOT_VERSION, &spliced)
            };
            let later = cp.now + SimDuration::from_weeks(1);
            let devices = engine.world().arms[0].store.len();
            let fine = resume_from_bytes(&with_event(later, Ev::DeviceFail(0, 0)), cfg.clone());
            assert!(fine.is_ok());
            for (at, ev) in [
                (SimTime::ZERO, Ev::WeeklyCheck),
                (SimTime::ZERO, Ev::DeviceFail(0, 0)),
                (later, Ev::DeviceFail(0, devices)),
                (later, Ev::DeviceReplace(1, usize::MAX)),
                (later, Ev::GatewayFail(0, 2)),
                (later, Ev::GatewayRepair(0, 7)),
                (later, Ev::GatewayFail(1, 0)),
                (later, Ev::ProviderExit(2)),
            ] {
                let Err(err) = resume_from_bytes(&with_event(at, ev), cfg.clone()) else {
                    panic!("{:?}: {ev:?} at {at:?} must be refused", cfg.sampling);
                };
                assert!(matches!(err, SnapshotError::Corrupt { .. }), "{ev:?}: {err}");
            }
        }
    }

    #[test]
    fn fingerprint_separates_configs() {
        assert_ne!(config_fingerprint(&cfg(1)), config_fingerprint(&cfg(2)));
        let mut wider = cfg(1);
        wider.arms[0].devices += 1;
        assert_ne!(config_fingerprint(&cfg(1)), config_fingerprint(&wider));
        assert_eq!(config_fingerprint(&cfg(1)), config_fingerprint(&cfg(1)));
    }
}
