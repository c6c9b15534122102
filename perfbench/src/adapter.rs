//! The one place the benchmark reaches the simulator.
//!
//! Every workload builds its scenario shapes from the existing public
//! constructors ([`RunSpec::fleet_config`] and
//! [`FleetConfig::paper_experiment`]) and runs them only through the
//! functions below, so a change to the simulator's entry points edits
//! this file and nothing else in the benchmark.

use std::time::{Duration, Instant};

use fleet::sim::{FleetConfig, FleetSim, SamplingMode};
use serve::scenario::{ChaosSpec, RunSpec, Scenario};
use simcore::snapshot::fnv1a;
use simcore::time::{SimDuration, SimTime};

use crate::trace::{SpanId, Tracer};

/// A request-shaped scenario: the paper's 2-arm experiment.
pub fn paper_spec(seed: u64, years: u64) -> RunSpec {
    RunSpec {
        scenario: Scenario::Paper,
        seed,
        years,
        sampling: SamplingMode::Legacy,
        shards: 1,
        chaos: ChaosSpec::Off,
    }
}

/// A request-shaped scenario: the 16-arm aggregate fleet of `devices`.
pub fn scaled_spec(devices: usize, seed: u64, years: u64) -> RunSpec {
    RunSpec {
        scenario: Scenario::Scaled { devices },
        seed,
        years,
        sampling: SamplingMode::Aggregate,
        shards: 1,
        chaos: ChaosSpec::Off,
    }
}

/// `spec` under the full chaos recipe at intensity 1.
pub fn with_chaos(spec: RunSpec) -> RunSpec {
    RunSpec {
        chaos: ChaosSpec::Full { intensity: 1.0 },
        ..spec
    }
}

/// The paper experiment config for `seed` (the replicate runners' shape).
pub fn paper_config(seed: u64) -> FleetConfig {
    FleetConfig::paper_experiment(seed)
}

/// Configured device-weeks of a config: the work a run is asked to do,
/// independent of how the simulator does it.
pub fn device_weeks(cfg: &FleetConfig) -> f64 {
    let devices: usize = cfg.arms.iter().map(|a| a.devices).sum();
    let weeks = cfg.horizon.as_secs() as f64 / SimDuration::from_weeks(1).as_secs() as f64;
    devices as f64 * weeks
}

/// What one op leaves behind: the digest and the exported JSONL size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpOut {
    /// The run digest.
    pub digest: u64,
    /// Bytes of `export_jsonl`.
    pub export_bytes: usize,
}

/// One serial op: `FleetSim::run` + digest + `export_jsonl`.
pub fn op(cfg: FleetConfig) -> OpOut {
    let report = FleetSim::run(cfg);
    let digest = report.digest();
    let export_bytes = std::hint::black_box(report.export_jsonl()).len();
    OpOut {
        digest,
        export_bytes,
    }
}

/// The same op through `fleet::shard::run_sharded` with `shards` shards.
pub fn op_sharded(cfg: FleetConfig, shards: usize) -> Result<OpOut, String> {
    let report = fleet::shard::run_sharded(cfg, shards).map_err(|e| format!("run_sharded: {e}"))?;
    let digest = report.digest();
    let export_bytes = std::hint::black_box(report.export_jsonl()).len();
    Ok(OpOut {
        digest,
        export_bytes,
    })
}

/// Digest of the run under `SamplingMode::Reference`, the per-device
/// oracle of the aggregate sampler.
pub fn reference_digest(cfg: FleetConfig) -> u64 {
    FleetSim::run(cfg.with_sampling(SamplingMode::Reference)).digest()
}

/// Digest of one plain serial run.
pub fn run_digest(cfg: FleetConfig) -> u64 {
    FleetSim::run(cfg).digest()
}

/// Digests of seeds `base..base+n` through the replicate runner
/// (`bench::parallel::run_reports`) at `threads` workers, in seed order.
pub fn sweep(
    make: &(dyn Fn(u64) -> FleetConfig + Sync),
    base: u64,
    n: usize,
    threads: usize,
) -> Result<Vec<u64>, String> {
    let reports = bench::parallel::run_reports(make, base, n, threads)
        .map_err(|e| format!("replicate: {e}"))?;
    Ok(reports.iter().map(|r| r.digest()).collect())
}

/// The direct library run a served response must equal: digest and
/// FNV-1a of the exported JSONL body.
pub fn direct(spec: &RunSpec) -> Result<(u64, u64), String> {
    let cfg = spec.fleet_config();
    let report = match spec.fault_plan().map_err(|e| e.to_string())? {
        None => FleetSim::run(cfg),
        Some(plan) => chaos::run_with_plan(cfg, plan),
    };
    Ok((report.digest(), fnv1a(report.export_jsonl().as_bytes())))
}

/// Per-run figures of a [`sliced`] run.
#[derive(Clone, Debug, Default)]
pub struct Sliced {
    /// The run digest (must equal the untraced run's).
    pub digest: u64,
    /// Bytes of `export_jsonl`.
    pub export_bytes: usize,
    /// Events dispatched.
    pub events: u64,
    /// Dispatches per kind, in [`KINDS`] order.
    pub kinds: [u64; KINDS.len()],
    /// Queue high-water mark.
    pub queue_high_water: usize,
    /// Time inside `run_until` across all slices.
    pub run_time: Duration,
}

/// The event kinds reported per run (`World::event_kind` names).
pub const KINDS: [&str; 6] = [
    "weekly-check",
    "device-fail",
    "device-replace",
    "gateway-fail",
    "gateway-repair",
    "yearly-tick",
];

/// One serial run with its phases timed from outside:
/// `FleetSim::build`, `Engine::run_until` sliced at every week boundary
/// (the slice just past a boundary holds its `weekly-check`, the slices
/// between boundaries hold everything else), `FleetSim::into_report`,
/// `FleetReport::digest` and `FleetReport::export_jsonl`.
///
/// Slicing only observes: events exactly at a slice end wait for the
/// next slice, the same guarantee checkpointing at week boundaries
/// relies on, so the digest equals an unsliced run's.
pub fn sliced(cfg: FleetConfig, t: &mut Tracer, parent: Option<SpanId>, request: u64) -> Sliced {
    let horizon = SimTime::ZERO + cfg.horizon;
    let mut engine = t.span("fleet.build", parent, request, || FleetSim::build(cfg));
    let run = t.open("fleet.run", parent, request);
    let weekly = t.open("run.weekly_check", Some(run), request);
    let other = t.open("run.other", Some(run), request);
    let week = SimDuration::from_weeks(1);
    let mut boundary = SimTime::ZERO + week;
    loop {
        let end = boundary.min(horizon);
        let s = Instant::now();
        engine.run_until(end);
        t.add_interval(other, s.elapsed());
        if end >= horizon {
            break;
        }
        let s = Instant::now();
        engine.run_until(end + SimDuration::from_secs(1));
        t.add_interval(weekly, s.elapsed());
        boundary += week;
    }
    t.close(run);
    let profile = engine.profile();
    let mut out = Sliced {
        events: engine.events_processed(),
        kinds: KINDS.map(|k| profile.count(k)),
        queue_high_water: profile.queue_high_water,
        run_time: t.busy(weekly) + t.busy(other),
        ..Sliced::default()
    };
    let report = t.span("fleet.finalize", parent, request, || {
        FleetSim::into_report(engine, horizon)
    });
    out.digest = t.span("telemetry.digest", parent, request, || report.digest());
    out.export_bytes = t.span("telemetry.export", parent, request, || {
        std::hint::black_box(report.export_jsonl()).len()
    });
    out
}
