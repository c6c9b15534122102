//! One run path: a [`Run`] value names everything that decides how a
//! fleet simulation executes, and [`Run::execute`] runs it.
//!
//! A run has three independent facets:
//!
//! * **where it starts** ([`Start`]) — a fresh build from a
//!   [`FleetConfig`], or an engine restored mid-run by
//!   [`snapshot::resume_from`] / [`snapshot::resume_from_bytes`];
//! * **what it injects** ([`FaultPlan`]) — the chaos schedule, empty for
//!   a plain run (an empty plan is byte-identical to no injection);
//! * **how it splits** ([`Shards`]) — the worker count, either subject to
//!   the small-fleet serial fallback ([`Shards::Auto`]) or not
//!   ([`Shards::Forced`]).
//!
//! Every combination digests bit-identically to the uninterrupted serial
//! run of the same configuration and plan; the differential suites
//! (`tests/shard_differential.rs`, `tests/snapshot_differential.rs`)
//! grind that promise. [`checkpoint`] is the matching way *into* a
//! resumable run: run to an instant under a plan and write a snapshot
//! that carries the injector's replay progress.
//!
//! [`FleetSim::run`], [`shard::run_sharded`]
//! and `chaos::run_with_plan` remain as one-line conveniences over this
//! module; [`FleetSim::run_with_queue`] is the queue-recycling primitive
//! the replicate runners loop.

use std::num::NonZeroUsize;
use std::path::Path;

use simcore::engine::Engine;
use simcore::snapshot::SnapshotError;
use simcore::time::SimTime;

use crate::fault::{FaultPlan, FleetInjector};
use crate::shard::{self, ShardPlan};
use crate::sim::{FleetConfig, FleetReport, FleetSim};
use crate::snapshot::{self, ResumedFleet};

/// Where a run starts.
pub enum Start {
    /// Build the world from this configuration at time zero.
    Fresh(FleetConfig),
    /// Continue a restored mid-run engine; its stored chaos progress
    /// says how far through the run's fault plan replay had advanced.
    /// Boxed: the engine is large next to a config.
    Resumed(Box<ResumedFleet>),
}

/// How many worker threads a run splits across. Zero is unrepresentable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shards {
    /// Up to this many shards, but fleets under
    /// [`SERIAL_FALLBACK_DEVICES`](crate::shard::SERIAL_FALLBACK_DEVICES)
    /// run serially: below it the spawn/merge overhead exceeds the win.
    Auto(NonZeroUsize),
    /// Exactly this many shards (capped at one per arm), whatever the
    /// fleet size. Test harnesses and `century-serve` use it so small
    /// fleets still drive the real multi-shard machinery.
    Forced(NonZeroUsize),
}

impl Shards {
    /// One shard: the serial run.
    pub const SERIAL: Shards = Shards::Forced(NonZeroUsize::MIN);

    /// The shard count a run over `cfg` actually splits into.
    fn effective(self, cfg: &FleetConfig) -> NonZeroUsize {
        match self {
            Shards::Auto(k) if shard::fleet_devices(cfg) >= shard::SERIAL_FALLBACK_DEVICES => k,
            Shards::Auto(_) => NonZeroUsize::MIN,
            Shards::Forced(k) => k,
        }
    }
}

/// A complete run request: start, fault plan, shard count.
pub struct Run {
    /// Fresh build or restored engine.
    pub start: Start,
    /// Faults to inject ([`FaultPlan::empty`] for a plain run). A resumed
    /// run takes the *full serial* plan of the original run; replay
    /// continues from the snapshot's stored progress, so faults fired
    /// before the checkpoint never fire twice.
    pub faults: FaultPlan,
    /// Worker threads.
    pub shards: Shards,
}

impl Run {
    /// Runs to the configured horizon and finalizes the report.
    ///
    /// A fresh run's per-arm build fans out over worker threads exactly
    /// when the run splits into two or more shards; the build is
    /// bit-identical either way.
    ///
    /// # Panics
    ///
    /// Re-raises (via [`std::panic::resume_unwind`]) any panic raised on a
    /// shard worker thread, after every worker has been joined.
    pub fn execute(self) -> FleetReport {
        let cfg = match &self.start {
            Start::Fresh(cfg) => cfg,
            Start::Resumed(resumed) => &resumed.engine.world().cfg,
        };
        let plan = ShardPlan::for_fleet(cfg, self.shards.effective(cfg));
        shard::drive(self, &plan)
    }
}

/// Runs `cfg` under `faults` to the checkpoint boundary `at` and writes
/// an atomic snapshot (world state plus the injector's replay progress)
/// to `path`. Returns the engine and injector still positioned at `at`,
/// so the caller can keep running — checkpointing never perturbs the
/// run — or drop both and resume later with [`snapshot::resume_from`]
/// and a [`Start::Resumed`] run under the same plan.
///
/// # Errors
///
/// [`SnapshotError::Io`] on any filesystem failure.
pub fn checkpoint(
    cfg: FleetConfig,
    faults: FaultPlan,
    at: SimTime,
    path: &Path,
) -> Result<(Engine<FleetSim>, FleetInjector), SnapshotError> {
    let mut engine = FleetSim::build(cfg);
    let mut injector = FleetInjector::new(faults);
    engine.run_until_hooked(at, &mut injector);
    snapshot::write_checkpoint(path, &mut engine, injector.progress())?;
    Ok((engine, injector))
}
