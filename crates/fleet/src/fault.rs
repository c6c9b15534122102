//! Fault plans and their replay: the schedule a chaos run injects and
//! the [`FaultHook`] that injects it.
//!
//! * [`FaultPlan`] — a time-ordered fault schedule, built once (by the
//!   `chaos` crate's builders, or by hand) and replayed exactly.
//! * [`FleetInjector`] — replays a plan against a running [`FleetSim`]
//!   engine without touching the world's own event stream or randomness
//!   (injection is draw-free by construction).
//!
//! Every run drives an injector: [`crate::run::Run`] takes a plan, and an
//! [`empty`](FaultPlan::empty) plan is byte-identical to a fault-free run.

use simcore::engine::{Ctx, FaultHook};
use simcore::time::{SimDuration, SimTime};

use crate::sim::{Ev, FleetSim};
use crate::snapshot::ChaosProgress;

/// One kind of injected fault, with its target and magnitude.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// Correlated regional outage (storm/grid): the whole arm's coverage
    /// is suppressed for `duration`.
    RegionalOutage {
        /// Target arm index.
        arm: usize,
        /// Outage length.
        duration: SimDuration,
    },
    /// The owned arm's backhaul link flaps out for `duration`.
    BackhaulFlap {
        /// Target arm index.
        arm: usize,
        /// Flap length.
        duration: SimDuration,
    },
    /// The backhaul provider sunsets service abruptly; the arm spends an
    /// emergency-recommissioning quarter dark.
    ProviderSunset {
        /// Target arm index.
        arm: usize,
    },
    /// The federated arm's hotspot market collapses, losing `fraction`
    /// of the audible census at once.
    HotspotCollapse {
        /// Target arm index.
        arm: usize,
        /// Fraction of hotspots removed, clamped to `[0, 1]`.
        fraction: f64,
    },
    /// A top-up/billing failure drains one device's prepaid wallet.
    WalletFailure {
        /// Target arm index.
        arm: usize,
        /// Target device index within the arm.
        device: usize,
    },
    /// A device's firmware wedges: it transmits nothing for `duration`.
    DeviceStuck {
        /// Target arm index.
        arm: usize,
        /// Target device index within the arm.
        device: usize,
        /// Wedged interval.
        duration: SimDuration,
    },
    /// A device goes byzantine: it transmits (and pays) but every
    /// reading is garbage for `duration`.
    DeviceByzantine {
        /// Target arm index.
        arm: usize,
        /// Target device index within the arm.
        device: usize,
        /// Garbage interval.
        duration: SimDuration,
    },
    /// A geometric storm disc (see `chaos::geo`) knocks one device out for
    /// `duration` — planned per affected device so replay, sharded
    /// routing and snapshot cursors need no geometry at injection time.
    StormKnockout {
        /// Target arm index.
        arm: usize,
        /// Target device index within the arm.
        device: usize,
        /// Knockout interval.
        duration: SimDuration,
    },
}

impl FaultKind {
    /// The global arm index this fault targets. Possibly out of range —
    /// plans can aim at arms a configuration lacks; those faults inject
    /// as skips. The sharded runner routes such strays to shard 0, whose
    /// injector skips them exactly as the serial injector would.
    pub fn arm(&self) -> usize {
        match *self {
            FaultKind::RegionalOutage { arm, .. }
            | FaultKind::BackhaulFlap { arm, .. }
            | FaultKind::ProviderSunset { arm }
            | FaultKind::HotspotCollapse { arm, .. }
            | FaultKind::WalletFailure { arm, .. }
            | FaultKind::DeviceStuck { arm, .. }
            | FaultKind::DeviceByzantine { arm, .. }
            | FaultKind::StormKnockout { arm, .. } => arm,
        }
    }
}

/// One scheduled fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fault {
    /// Injection time.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A time-ordered fault schedule. Build one with `chaos::FaultPlanBuilder` or
/// start [`empty`](FaultPlan::empty) and [`push`](FaultPlan::push) faults
/// by hand for targeted experiments.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// A plan with no faults: running it is byte-identical to not
    /// injecting at all.
    pub fn empty() -> Self {
        FaultPlan { faults: Vec::new() }
    }

    /// Builds a plan from an unordered fault list, sorting by time
    /// (stable: equal-time faults keep insertion order).
    pub fn from_faults(mut faults: Vec<Fault>) -> Self {
        faults.sort_by_key(|f| f.at);
        FaultPlan { faults }
    }

    /// Appends one fault, keeping the schedule time-ordered.
    pub fn push(&mut self, fault: Fault) {
        self.faults.push(fault);
        self.faults.sort_by_key(|f| f.at);
    }

    /// Scheduled faults in replay order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// Replays a [`FaultPlan`] against a running [`FleetSim`] engine.
///
/// Use with [`simcore::engine::Engine::run_until_hooked`]; each fault
/// fires at its scheduled time, before any simulation event at the same
/// instant. Faults that target a missing arm/device or an arm of the
/// wrong kind are counted as skipped, not errors.
#[derive(Clone, Debug)]
pub struct FleetInjector {
    plan: FaultPlan,
    next: usize,
    applied: u64,
    skipped: u64,
}

impl FleetInjector {
    /// Wraps a plan for replay.
    pub fn new(plan: FaultPlan) -> Self {
        FleetInjector { plan, next: 0, applied: 0, skipped: 0 }
    }

    /// Wraps a plan with replay already advanced to `progress` — the
    /// snapshot-resume constructor. `progress.next` indexes into *this*
    /// plan's fault order (a stored value beyond the plan clamps to its
    /// end, leaving nothing to replay).
    pub fn with_progress(plan: FaultPlan, progress: ChaosProgress) -> Self {
        let next = usize::try_from(progress.next).unwrap_or(plan.len()).min(plan.len());
        FleetInjector { plan, next, applied: progress.applied, skipped: progress.skipped }
    }

    /// Replay progress in snapshot form: the next fault index and the
    /// applied/skipped tallies. Stored by [`crate::snapshot`] checkpoints
    /// and fed back through [`FleetInjector::with_progress`] on resume.
    pub fn progress(&self) -> ChaosProgress {
        ChaosProgress {
            next: self.next as u64,
            applied: self.applied,
            skipped: self.skipped,
        }
    }

    /// Faults successfully injected so far.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Faults whose target did not exist (wrong arm kind, index out of
    /// range).
    pub fn skipped(&self) -> u64 {
        self.skipped
    }
}

impl FaultHook<FleetSim> for FleetInjector {
    fn next_fault_at(&self) -> Option<SimTime> {
        self.plan.faults.get(self.next).map(|f| f.at)
    }

    fn fire(&mut self, now: SimTime, world: &mut FleetSim, _ctx: &mut Ctx<'_, Ev>) {
        let Some(fault) = self.plan.faults.get(self.next).copied() else { return };
        self.next += 1;
        let ok = match fault.kind {
            FaultKind::RegionalOutage { arm, duration } => {
                world.inject_regional_outage(arm, now, duration)
            }
            FaultKind::BackhaulFlap { arm, duration } => {
                world.inject_backhaul_flap(arm, now, duration)
            }
            FaultKind::ProviderSunset { arm } => world.inject_provider_sunset(arm, now),
            FaultKind::HotspotCollapse { arm, fraction } => {
                world.inject_hotspot_collapse(arm, now, fraction)
            }
            FaultKind::WalletFailure { arm, device } => {
                world.inject_wallet_failure(arm, now, device)
            }
            FaultKind::DeviceStuck { arm, device, duration } => {
                world.inject_device_stuck(arm, now, device, duration)
            }
            FaultKind::DeviceByzantine { arm, device, duration } => {
                world.inject_device_byzantine(arm, now, device, duration)
            }
            FaultKind::StormKnockout { arm, device, duration } => {
                world.inject_storm_knockout(arm, now, device, duration)
            }
        };
        if ok {
            self.applied += 1;
        } else {
            self.skipped += 1;
            world.note_chaos_skipped();
        }
    }
}
