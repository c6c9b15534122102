//! Deterministic intra-run sharding: one `FleetSim` run split across
//! worker threads, bit-identical to the serial run.
//!
//! The conservative-synchronization insight (classic PDES, cf. the survey
//! papers in PAPERS.md) is that the fleet's arms are *causally
//! independent* between weekly evaluations: a device failure in one arm
//! never schedules an event in another arm, and the only fleet-wide
//! coupling — the weekly uptime evaluation and the yearly upkeep tick —
//! is a broadcast, not an interaction. That makes the arm the natural
//! shard granule (device-level splits are impossible without perturbing
//! the common-random-numbers discipline: `weekly_eval` consumes exactly
//! one normal draw per alive device, in device order, from the *arm's*
//! stream).
//!
//! The protocol, in full (DESIGN.md §11):
//!
//! 1. **Plan** ([`ShardPlan`]): a stable, seed-independent partition of
//!    global arm ids into `k` groups, balanced by per-arm device count
//!    (LPT greedy). Pure function of `(weights, k)` — no RNG, no clock.
//! 2. **Split** (`FleetSim::split_for_shards`): build the serial engine,
//!    then move each arm — with its private rng, diary, span log and
//!    held device events — into its owner shard, and route the queued
//!    events by owner under their serial sequence numbers. Tick-chain
//!    events are replicated into every shard.
//! 3. **Run**: each shard advances its own `Engine` on a scoped worker
//!    thread to the shared horizon. The weekly tick is the epoch barrier
//!    of the literature, but because no cross-shard messages exist the
//!    shards never have to wait for each other — each replays the
//!    broadcast locally.
//! 4. **Merge** (`FleetSim::merge_shards` → `FleetSim::finalize`): arms
//!    are regrouped in ascending global-id order and the *same* finalize
//!    path as a serial run performs the canonical diary/span merge and
//!    ledger collection; profiles fold with the replayed tick chains
//!    deduplicated so `events_processed` matches serial exactly.
//!
//! Bit-identity is structural, not coincidental: every number that feeds
//! the run digest is produced per-arm by per-arm state (rng, ledger,
//! diary, spans, deferred metric settlements), and both execution modes
//! funnel through one finalize path whose output is a pure function of
//! those per-arm streams. The differential harness
//! (`tests/shard_differential.rs`) and the golden pins keep it that way.

use core::fmt;
use std::num::NonZeroUsize;

use simcore::engine::Engine;
use simcore::time::SimTime;

use crate::fault::{FaultPlan, FleetInjector};
use crate::run::{Run, Shards, Start};
use crate::sim::{FleetConfig, FleetReport, FleetSim};
use crate::snapshot::ChaosProgress;

/// Ways a sharded run request can be invalid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardError {
    /// Zero shards were requested; at least one is required.
    ZeroShards,
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::ZeroShards => write!(f, "cannot run a fleet across zero shards"),
        }
    }
}

impl std::error::Error for ShardError {}

/// A stable, seed-independent partition of global arm ids into shards.
///
/// Built by longest-processing-time greedy: arms are taken in descending
/// weight order (ties broken by ascending arm id) and each is assigned to
/// the currently least-loaded shard (ties broken by lowest shard index).
/// The plan is a pure function of the weight list and the shard count —
/// it never consults the seed, the clock, or an RNG — so every replicate
/// of an experiment shards identically.
///
/// Invariants (property-tested in `tests/properties.rs`):
///
/// * every arm appears in exactly one group;
/// * group membership is ascending by arm id within each group;
/// * empty groups only ever appear as a suffix (so filtering them off
///   preserves the shard indices of the non-empty ones);
/// * with more shards than arms, each arm gets its own shard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    /// `groups[si]` = ascending global arm ids owned by shard `si`.
    groups: Vec<Vec<usize>>,
    /// `owner[ai]` = shard index owning global arm `ai`.
    owner: Vec<usize>,
}

impl ShardPlan {
    /// Balances `weights.len()` arms (weight = device count; zero-weight
    /// arms are costed as 1 so they still occupy a slot) across `shards`.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::ZeroShards`] when `shards == 0`.
    pub fn balance(weights: &[u64], shards: usize) -> Result<ShardPlan, ShardError> {
        NonZeroUsize::new(shards).map(|k| Self::lpt(weights, k)).ok_or(ShardError::ZeroShards)
    }

    fn lpt(weights: &[u64], shards: NonZeroUsize) -> ShardPlan {
        let shards = shards.get();
        let mut order: Vec<usize> = (0..weights.len()).collect();
        order.sort_by(|&a, &b| weights[b].max(1).cmp(&weights[a].max(1)).then(a.cmp(&b)));
        let mut loads = vec![0u64; shards];
        let mut groups: Vec<Vec<usize>> = (0..shards).map(|_| Vec::new()).collect();
        for &ai in &order {
            let mut best = 0;
            for (si, &load) in loads.iter().enumerate().skip(1) {
                if load < loads[best] {
                    best = si;
                }
            }
            loads[best] += weights[ai].max(1);
            groups[best].push(ai);
        }
        for group in &mut groups {
            group.sort_unstable();
        }
        let mut owner = vec![0usize; weights.len()];
        for (si, group) in groups.iter().enumerate() {
            for &ai in group {
                owner[ai] = si;
            }
        }
        ShardPlan { groups, owner }
    }

    /// The plan for a fleet configuration: arms weighted by device count.
    pub fn for_fleet(cfg: &FleetConfig, shards: NonZeroUsize) -> ShardPlan {
        let weights: Vec<u64> = cfg.arms.iter().map(|a| a.devices as u64).collect();
        Self::lpt(&weights, shards)
    }

    /// The shard owning global arm `ai`, or `None` for an out-of-range id
    /// (chaos plans can target arms a configuration doesn't have; the
    /// runner routes those to shard 0, whose injector skips them exactly
    /// like the serial injector does).
    pub fn owner_of(&self, ai: usize) -> Option<usize> {
        self.owner.get(ai).copied()
    }

    /// The groups, `groups()[si]` being the ascending global arm ids of
    /// shard `si`. Trailing groups may be empty; non-empty groups form a
    /// prefix.
    pub fn groups(&self) -> &[Vec<usize>] {
        &self.groups
    }

    /// Number of shard slots (including empty trailing ones).
    pub fn shards(&self) -> usize {
        self.groups.len()
    }
}

/// Fleets smaller than this many devices run serially under
/// [`Shards::Auto`]: below it the per-thread spawn/merge overhead exceeds
/// the parallel win (a bench row recorded in commit `c575f22` measured a
/// 0.979× *slowdown* at 10k devices and a 1.34× speedup at 100k, k = 8).
/// [`Shards::Forced`] bypasses the threshold; the differential and golden
/// suites use it so small test fleets still exercise the real multi-shard
/// machinery.
pub const SERIAL_FALLBACK_DEVICES: u64 = 50_000;

/// Total configured device count — the work measure the serial-fallback
/// threshold compares against [`SERIAL_FALLBACK_DEVICES`].
pub(crate) fn fleet_devices(cfg: &FleetConfig) -> u64 {
    cfg.arms.iter().map(|a| a.devices as u64).sum()
}

/// Runs `cfg` split across up to `shards` worker threads: a fresh,
/// fault-free [`Run`] under [`Shards::Auto`].
///
/// The returned report is bit-identical — same digest — to
/// [`FleetSim::run`] for every seed and every shard count. `shards`
/// larger than the arm count degrades gracefully (one arm per shard,
/// surplus shards idle); fleets under [`SERIAL_FALLBACK_DEVICES`]
/// devices run serially.
///
/// # Errors
///
/// Returns [`ShardError::ZeroShards`] when `shards == 0`.
pub fn run_sharded(cfg: FleetConfig, shards: usize) -> Result<FleetReport, ShardError> {
    let shards = Shards::Auto(NonZeroUsize::new(shards).ok_or(ShardError::ZeroShards)?);
    Ok(Run { start: Start::Fresh(cfg), faults: FaultPlan::empty(), shards }.execute())
}

/// Shard `si`'s injector: the subsequence of `faults` targeting the arms
/// `plan` gives it (faults aimed at arms the configuration lacks go to
/// shard 0, whose injector skips them exactly like a serial one), in
/// serial plan order. Its replay cursor starts past the faults the serial
/// run had fired before a checkpoint — serial index below `fired`, zero
/// for a fresh run. Tallies restart at zero: pre-checkpoint counts live
/// in the world's restored chaos counters, exactly as in an
/// uninterrupted run. Under a one-shard plan this is the whole plan.
fn injector_for(si: usize, plan: &ShardPlan, faults: &FaultPlan, fired: u64) -> FleetInjector {
    let mut mine = Vec::new();
    let mut mine_fired = 0u64;
    for (idx, f) in faults.faults().iter().enumerate() {
        if plan.owner_of(f.kind.arm()).unwrap_or(0) == si {
            if (idx as u64) < fired {
                mine_fired += 1;
            }
            mine.push(*f);
        }
    }
    // `from_faults` sorts stably by time; the filtered subsequence is
    // already time-ordered, so replay order is the serial plan's.
    FleetInjector::with_progress(
        FaultPlan::from_faults(mine),
        ChaosProgress { next: mine_fired, applied: 0, skipped: 0 },
    )
}

/// The one runner behind every [`Run`]: fresh and resumed, serial and
/// sharded, plain and injected, under the run's effective `plan`.
///
/// A fresh world is built first (its per-arm planning fans out over
/// threads for fleets of at least [`SERIAL_FALLBACK_DEVICES`] devices,
/// whatever the shard count). The engine is then split by the plan's
/// groups, each shard runs under its own
/// injector on a scoped worker thread, and the shards merge through the
/// canonical finalize path; with one group of work (or an arm-less
/// config) the split would be the identity, so the engine runs serially
/// under shard 0's injector.
///
/// The engine's profile is captured *before* the split and folded back
/// in at merge ([`FleetSim::merge_shards_onto`]): a fresh engine
/// contributes an empty base, a resumed engine its pre-checkpoint
/// dispatch counts, so `events_processed` matches the uninterrupted
/// serial run either way.
pub(crate) fn drive(run: Run, plan: &ShardPlan) -> FleetReport {
    let Run { start, faults, .. } = run;
    let faults = &faults;
    let groups: Vec<Vec<usize>> =
        plan.groups().iter().filter(|g| !g.is_empty()).cloned().collect();
    let (engine, fired) = match start {
        Start::Fresh(cfg) => (FleetSim::build(cfg), 0),
        Start::Resumed(resumed) => (resumed.engine, resumed.chaos.next),
    };
    let horizon = SimTime::ZERO + engine.world().cfg.horizon;
    if groups.len() <= 1 {
        let mut engine = engine;
        let mut injector = injector_for(0, plan, faults, fired);
        engine.run_until_hooked(horizon, &mut injector);
        return FleetSim::into_report(engine, horizon);
    }
    let base_profile = engine.profile().clone();
    let engines = FleetSim::split_for_shards(engine, &groups);
    let joined: Vec<std::thread::Result<Engine<FleetSim>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = engines
            .into_iter()
            .enumerate()
            .map(|(si, mut engine)| {
                scope.spawn(move || {
                    let mut injector = injector_for(si, plan, faults, fired);
                    engine.run_until_hooked(horizon, &mut injector);
                    engine
                })
            })
            .collect();
        handles.into_iter().map(std::thread::ScopedJoinHandle::join).collect()
    });
    let mut finished = Vec::with_capacity(joined.len());
    for result in joined {
        match result {
            Ok(engine) => finished.push(engine),
            // A worker died: every sibling has been joined above, so
            // re-raising the first payload loses nothing.
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    let Some(report) = FleetSim::merge_shards_onto(base_profile, finished, horizon) else {
        unreachable!("{} non-empty groups yield as many shard engines", groups.len());
    };
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_forced(cfg: FleetConfig, k: usize) -> FleetReport {
        let shards = Shards::Forced(NonZeroUsize::new(k).unwrap());
        Run { start: Start::Fresh(cfg), faults: FaultPlan::empty(), shards }.execute()
    }

    #[test]
    fn zero_shards_is_an_error() {
        assert_eq!(ShardPlan::balance(&[1, 2, 3], 0), Err(ShardError::ZeroShards));
        let err = run_sharded(FleetConfig::paper_experiment(1), 0).unwrap_err();
        assert_eq!(err, ShardError::ZeroShards);
        assert!(err.to_string().contains("zero shards"));
    }

    #[test]
    fn every_arm_lands_in_exactly_one_group() {
        let plan = ShardPlan::balance(&[10, 10, 3, 0, 7], 3).unwrap();
        let mut seen = vec![0u32; 5];
        for group in plan.groups() {
            for &ai in group {
                seen[ai] += 1;
            }
        }
        assert!(seen.iter().all(|&n| n == 1), "memberships {seen:?}");
        for (ai, &n) in seen.iter().enumerate() {
            assert_eq!(n, 1);
            assert_eq!(plan.owner_of(ai), plan.groups().iter().position(|g| g.contains(&ai)));
        }
        assert_eq!(plan.owner_of(5), None);
    }

    #[test]
    fn lpt_balances_heavy_and_light_arms() {
        // One heavy arm, three light: LPT isolates the heavy one.
        let plan = ShardPlan::balance(&[100, 5, 5, 5], 2).unwrap();
        assert_eq!(plan.groups()[0], vec![0]);
        assert_eq!(plan.groups()[1], vec![1, 2, 3]);
    }

    #[test]
    fn more_shards_than_arms_degrades_to_singletons() {
        let plan = ShardPlan::balance(&[4, 4], 8).unwrap();
        assert_eq!(plan.shards(), 8);
        let nonempty: Vec<_> = plan.groups().iter().filter(|g| !g.is_empty()).collect();
        assert_eq!(nonempty.len(), 2, "one arm per shard");
        // Empty groups are a strict suffix.
        let first_empty = plan.groups().iter().position(Vec::is_empty).unwrap();
        assert!(plan.groups()[first_empty..].iter().all(Vec::is_empty));
    }

    #[test]
    fn plan_is_seed_independent() {
        let two = NonZeroUsize::new(2).unwrap();
        let a = ShardPlan::for_fleet(&FleetConfig::paper_experiment(1), two);
        let b = ShardPlan::for_fleet(&FleetConfig::paper_experiment(999), two);
        assert_eq!(a, b);
    }

    #[test]
    fn sharded_matches_serial_smoke() {
        let serial = FleetSim::run(FleetConfig::paper_experiment(5));
        // Forced: the 20-device paper fleet is below the fallback
        // threshold, and this smoke test wants the real split machinery.
        let sharded = run_forced(FleetConfig::paper_experiment(5), 2);
        assert_eq!(serial.digest(), sharded.digest());
    }

    #[test]
    fn small_fleet_serial_fallback_digests_identically() {
        // The paper fleet (20 devices) sits far below
        // SERIAL_FALLBACK_DEVICES: the auto path must collapse to serial
        // and still digest exactly like serial and like a forced split.
        let serial = FleetSim::run(FleetConfig::paper_experiment(9));
        let auto = run_sharded(FleetConfig::paper_experiment(9), 4).unwrap();
        let forced = run_forced(FleetConfig::paper_experiment(9), 4);
        assert_eq!(serial.digest(), auto.digest());
        assert_eq!(serial.digest(), forced.digest());
        assert_eq!(serial.events_processed, auto.events_processed);
    }

    #[test]
    fn resumed_sharded_run_matches_uninterrupted() {
        use simcore::time::SimDuration;

        let cfg = || FleetConfig::paper_experiment(33);
        let baseline = FleetSim::run(cfg());
        let mut engine = FleetSim::build(cfg());
        engine.run_until(SimTime::ZERO + SimDuration::from_weeks(80));
        let bytes = crate::snapshot::checkpoint_bytes(
            &mut engine,
            crate::snapshot::ChaosProgress::default(),
        );
        drop(engine);
        let resumed = crate::snapshot::resume_from_bytes(&bytes, cfg()).unwrap();
        let shards = Shards::Forced(NonZeroUsize::new(2).unwrap());
        let start = Start::Resumed(Box::new(resumed));
        let report = Run { start, faults: FaultPlan::empty(), shards }.execute();
        assert_eq!(report.digest(), baseline.digest());
        assert_eq!(report.events_processed, baseline.events_processed);
    }
}
