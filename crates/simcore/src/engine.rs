//! The discrete-event simulation loop.
//!
//! A simulation is a [`World`] — user state plus an event handler — driven by
//! an [`Engine`] that owns the clock and the [`EventQueue`]. The handler
//! receives a [`Ctx`] through which it schedules follow-up events. This
//! inversion (engine owns the queue, world owns the model) keeps borrows
//! simple and the loop allocation-free.
//!
//! # Examples
//!
//! A minimal counter that reschedules itself until the horizon:
//!
//! ```
//! use simcore::engine::{Ctx, Engine, World};
//! use simcore::time::{SimDuration, SimTime};
//!
//! struct Ticker {
//!     ticks: u64,
//! }
//!
//! impl World for Ticker {
//!     type Event = ();
//!     fn handle(&mut self, ctx: &mut Ctx<'_, ()>, _event: ()) {
//!         self.ticks += 1;
//!         ctx.schedule_in(SimDuration::from_days(1), ());
//!     }
//! }
//!
//! let mut engine = Engine::new(Ticker { ticks: 0 });
//! engine.schedule_at(SimTime::ZERO, ());
//! engine.run_until(SimTime::from_days(10));
//! assert_eq!(engine.world().ticks, 10);
//! ```

use crate::event::EventQueue;
use crate::time::{SimDuration, SimTime};

/// User-provided simulation state and event handler.
pub trait World {
    /// The event payload type routed through the queue.
    type Event;

    /// Handles one event at the current simulation time (`ctx.now()`).
    fn handle(&mut self, ctx: &mut Ctx<'_, Self::Event>, event: Self::Event);

    /// A stable label for an event, used by [`EngineProfile`] to break
    /// dispatch counts down per kind. The default lumps everything under
    /// one label; worlds with an event enum should map each variant to
    /// its own name.
    fn event_kind(_event: &Self::Event) -> &'static str {
        "event"
    }

    /// Pending events the world holds itself, outside the engine queue,
    /// under sequence numbers it reserved ([`Ctx::reserve_seq`]). They
    /// count toward the profile's `queue_high_water`, which is logical:
    /// the same whichever side holds an event. Zero for worlds that hold none.
    fn held_events(&self) -> usize {
        0
    }
}

/// Per-run profiling collected by the engine: where the simulated
/// half-century went.
///
/// Dispatch counts and the queue high-water mark are deterministic for a
/// deterministic world. The high-water mark is logical: it counts the
/// events a world holds outside the queue ([`World::held_events`]) too.
/// `run_nanos` is wall-clock and varies run to run — it is **excluded
/// from run digests** by contract (DESIGN.md §6). The run loop reads no
/// clock per event: `run_nanos` costs one clock pair per run call
/// (DESIGN.md §7).
#[derive(Clone, Debug, Default)]
pub struct EngineProfile {
    /// Dispatch counts per event kind, in first-dispatch order.
    kinds: Vec<(&'static str, u64)>,
    /// Highest pending-event count observed at a dispatch point, queued
    /// and world-held together.
    pub queue_high_water: usize,
    /// Wall-clock nanoseconds spent inside engine run calls (handlers,
    /// hooks, and queue operations together).
    pub run_nanos: u64,
    /// Fault-hook firings interleaved into the run.
    pub hook_fires: u64,
}

impl EngineProfile {
    /// Per-kind dispatch counts, in first-dispatch order.
    pub fn dispatches(&self) -> &[(&'static str, u64)] {
        &self.kinds
    }

    /// Dispatches of one kind (zero if never seen).
    pub fn count(&self, kind: &str) -> u64 {
        self.kinds.iter().find(|(k, _)| *k == kind).map_or(0, |&(_, n)| n)
    }

    /// Total events dispatched across all kinds.
    pub fn total_dispatched(&self) -> u64 {
        self.kinds.iter().map(|&(_, n)| n).sum()
    }

    #[inline]
    fn record(&mut self, kind: &'static str) {
        // The kind set is tiny (one entry per event-enum variant), so a
        // linear scan beats hashing on this hot path. Kinds are literals,
        // so the same address and length usually finds the entry before
        // any bytes are compared; equal text from elsewhere still does.
        let slot = self.kinds.iter().position(|e| core::ptr::eq(e.0, kind));
        match slot.or_else(|| self.kinds.iter().position(|e| e.0 == kind)) {
            Some(i) => self.kinds[i].1 += 1,
            None => self.kinds.push((kind, 1)),
        }
    }

    fn record_n(&mut self, kind: &'static str, n: u64) {
        if n == 0 {
            return;
        }
        for entry in &mut self.kinds {
            if entry.0 == kind {
                entry.1 += n;
                return;
            }
        }
        self.kinds.push((kind, n));
    }

    /// Folds a shard's profile into this one so the merged profile of a
    /// sharded run matches the serial profile's dispatch counts.
    ///
    /// Kinds listed in `duplicated` are tick chains every shard replays
    /// (e.g. the weekly evaluation barrier): a serial run dispatches each
    /// once per tick, so they are *not* summed — this profile (shard 0's)
    /// already carries the canonical count. Everything else is owned by
    /// exactly one shard and sums. `run_nanos` keeps the maximum (shards
    /// run concurrently).
    pub fn absorb_shard(&mut self, other: &EngineProfile, duplicated: &[&str]) {
        for &(kind, n) in &other.kinds {
            if duplicated.contains(&kind) {
                continue;
            }
            self.record_n(kind, n);
        }
        self.queue_high_water = self.queue_high_water.max(other.queue_high_water);
        self.run_nanos = self.run_nanos.max(other.run_nanos);
        self.hook_fires += other.hook_fires;
    }
}

/// Handler-side view of the engine: the clock and scheduling operations.
pub struct Ctx<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
}

impl<E> Ctx<'_, E> {
    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules an event at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before `now`). Scheduling *at* `now`
    /// is allowed and fires after the current event (FIFO).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.schedule(at, event);
    }

    /// Schedules an event `delay` after the current time, saturating at the
    /// end of representable time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.queue.schedule(self.now.saturating_add(delay), event);
    }

    /// Reserves the sequence number an event scheduled now would get, for
    /// a world that holds the event itself and schedules it later with
    /// [`Ctx::schedule_reserved`]. Same-time ties then resolve as if it
    /// had been scheduled at this call.
    pub fn reserve_seq(&mut self) -> u64 {
        self.queue.reserve(1)
    }

    /// Schedules an event under a sequence number reserved earlier.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before `now`).
    pub fn schedule_reserved(&mut self, at: SimTime, seq: u64, event: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.schedule_reserved(at, seq, event);
    }
}

/// Structured diagnosis returned by the checked engine entry points.
///
/// Mirrors the `FitError` / `ProtocolError` pattern: every way the engine
/// can go wrong is a typed variant instead of a panic or a hang.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimError {
    /// A handler kept rescheduling at the same instant: the clock cannot
    /// advance and an unchecked run would spin forever.
    Livelock {
        /// The instant the simulation is stuck at.
        at: SimTime,
        /// Events processed at that instant before the watchdog fired.
        events: u64,
    },
    /// Event volume within one simulated day exceeded the watchdog budget
    /// (unbounded self-rescheduling that *does* advance the clock).
    EventStorm {
        /// The simulated day (days since time zero) that blew the budget.
        day: u64,
        /// Events processed within that day before the watchdog fired.
        events: u64,
    },
    /// The queue drained before the horizon while the watchdog was told
    /// starvation is abnormal for this workload.
    Starvation {
        /// The clock when the queue emptied.
        at: SimTime,
        /// The horizon the run was supposed to reach.
        horizon: SimTime,
    },
    /// The queue yielded an event timestamped before the clock — a
    /// time-monotonicity violation inside the scheduling substrate.
    TimeRegression {
        /// The engine clock.
        now: SimTime,
        /// The (earlier) event timestamp.
        event_at: SimTime,
    },
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::Livelock { at, events } => {
                write!(f, "livelock: {events} events at {at:?} without the clock advancing")
            }
            SimError::EventStorm { day, events } => {
                write!(f, "event storm: {events} events within simulated day {day}")
            }
            SimError::Starvation { at, horizon } => {
                write!(f, "queue starved at {at:?} before horizon {horizon:?}")
            }
            SimError::TimeRegression { now, event_at } => {
                write!(f, "time regression: event at {event_at:?} behind clock {now:?}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Budgets for [`Engine::run_until_checked`].
///
/// The defaults are far above anything a healthy fleet simulation produces
/// (a 50-year run processes a few thousand events total) while still
/// catching a runaway handler within milliseconds of wall-clock time.
#[derive(Clone, Copy, Debug)]
pub struct Watchdog {
    /// Maximum events processed at a single instant before the run is
    /// declared a [`SimError::Livelock`].
    pub max_events_per_instant: u64,
    /// Maximum events processed within one simulated day before the run is
    /// declared a [`SimError::EventStorm`].
    pub max_events_per_day: u64,
    /// When `true`, the queue draining before the horizon is reported as
    /// [`SimError::Starvation`] instead of a normal `QueueEmpty` outcome.
    pub starvation_is_error: bool,
}

impl Default for Watchdog {
    fn default() -> Self {
        Watchdog {
            max_events_per_instant: 100_000,
            max_events_per_day: 1_000_000,
            starvation_is_error: false,
        }
    }
}

/// A source of scheduled faults interleaved with a [`World`]'s own events.
///
/// The hook lives on the *engine*, not inside the world: any `World` can be
/// run under fault injection without modifying its handler. At each step
/// the engine fires every fault due at or before the next world event
/// (faults win ties), handing the hook direct access to the world and a
/// scheduling context.
pub trait FaultHook<W: World> {
    /// The time of the next pending fault, if any. Must be non-decreasing
    /// across calls unless [`FaultHook::fire`] consumed faults.
    fn next_fault_at(&self) -> Option<SimTime>;

    /// Applies every fault due at `now` to the world. The hook must advance
    /// its own cursor so `next_fault_at` moves past `now`.
    fn fire(&mut self, now: SimTime, world: &mut W, ctx: &mut Ctx<'_, W::Event>);
}

/// A no-op hook used by the unhooked entry points.
struct NoFaults;

impl<W: World> FaultHook<W> for NoFaults {
    fn next_fault_at(&self) -> Option<SimTime> {
        None
    }
    fn fire(&mut self, _now: SimTime, _world: &mut W, _ctx: &mut Ctx<'_, W::Event>) {}
}

/// Why a call to [`Engine::run_until`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The horizon was reached; events at or beyond it remain pending.
    HorizonReached,
    /// The event queue drained before the horizon.
    QueueEmpty,
}

/// The discrete-event engine: clock + queue + world.
pub struct Engine<W: World> {
    world: W,
    queue: EventQueue<W::Event>,
    now: SimTime,
    processed: u64,
    profile: EngineProfile,
}

impl<W: World> Engine<W> {
    /// Creates an engine at time zero wrapping `world`.
    pub fn new(world: W) -> Self {
        Engine {
            world,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
            profile: EngineProfile::default(),
        }
    }

    /// Schedules an event before or between runs.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current clock.
    pub fn schedule_at(&mut self, at: SimTime, event: W::Event) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.schedule(at, event);
    }

    /// Reserves `n` consecutive sequence numbers and returns the first —
    /// the numbers `n` [`schedule_at`](Self::schedule_at) calls made now
    /// would draw (see [`Ctx::reserve_seq`]).
    pub fn reserve_seqs(&mut self, n: u64) -> u64 {
        self.queue.reserve(n)
    }

    /// Schedules an event under a sequence number reserved earlier.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current clock.
    pub fn schedule_reserved(&mut self, at: SimTime, seq: u64, event: W::Event) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.schedule_reserved(at, seq, event);
    }

    /// Runs until the clock would pass `horizon` or the queue empties.
    /// Events exactly at `horizon` do **not** fire; the clock is left at
    /// `horizon` when it is reached.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        match self.run_supervised(horizon, &mut NoFaults, None) {
            Ok(outcome) => outcome,
            // No watchdog is installed, so no supervised error can occur.
            Err(e) => unreachable!("unchecked run cannot fail: {e}"),
        }
    }

    /// Runs like [`Engine::run_until`] with a [`FaultHook`] interleaved:
    /// every fault due before the next world event is applied first (faults
    /// win ties with events at the same instant).
    pub fn run_until_hooked(
        &mut self,
        horizon: SimTime,
        hook: &mut dyn FaultHook<W>,
    ) -> RunOutcome {
        match self.run_supervised(horizon, hook, None) {
            Ok(outcome) => outcome,
            Err(e) => unreachable!("unchecked run cannot fail: {e}"),
        }
    }

    /// Runs like [`Engine::run_until`] under a [`Watchdog`], returning a
    /// structured [`SimError`] diagnosis instead of hanging or panicking
    /// when the world misbehaves (livelock, event storm, starvation).
    // simlint: allow(U001, the Watchdog's entry point: the supervised run for worlds that may livelock, kept for callers outside this workspace)
    pub fn run_until_checked(
        &mut self,
        horizon: SimTime,
        watchdog: &Watchdog,
    ) -> Result<RunOutcome, SimError> {
        self.run_supervised(horizon, &mut NoFaults, Some(watchdog))
    }

    fn run_supervised(
        &mut self,
        horizon: SimTime,
        hook: &mut dyn FaultHook<W>,
        watchdog: Option<&Watchdog>,
    ) -> Result<RunOutcome, SimError> {
        // simlint: allow(D002, EngineProfile run wall-clock; excluded from digests per DESIGN.md §6)
        let run_started = std::time::Instant::now();
        let result = self.run_supervised_inner(horizon, hook, watchdog);
        self.profile.run_nanos += run_started.elapsed().as_nanos() as u64;
        result
    }

    fn run_supervised_inner(
        &mut self,
        horizon: SimTime,
        hook: &mut dyn FaultHook<W>,
        watchdog: Option<&Watchdog>,
    ) -> Result<RunOutcome, SimError> {
        let mut instant_at = self.now;
        let mut instant_events: u64 = 0;
        let mut day = self.now.as_secs() / 86_400;
        let mut day_events: u64 = 0;
        loop {
            // Faults due before the next event (or before the horizon when
            // the queue is empty) fire first; ties go to the fault so an
            // outage starting "this week" suppresses this week's readings.
            let fault_at = hook.next_fault_at().filter(|&t| t < horizon);
            let event_at = self.queue.peek_time();
            if let Some(fat) = fault_at {
                let fault_first = match event_at {
                    Some(eat) => fat <= eat,
                    None => true,
                };
                if fault_first {
                    self.now = self.now.max(fat);
                    let mut ctx = Ctx { now: self.now, queue: &mut self.queue };
                    hook.fire(self.now, &mut self.world, &mut ctx);
                    self.profile.hook_fires += 1;
                    continue;
                }
            }
            let Some(at) = event_at else {
                if self.now < horizon {
                    self.now = horizon;
                }
                if let Some(w) = watchdog {
                    if w.starvation_is_error {
                        return Err(SimError::Starvation { at: self.now, horizon });
                    }
                }
                return Ok(RunOutcome::QueueEmpty);
            };
            if at >= horizon {
                self.now = horizon;
                return Ok(RunOutcome::HorizonReached);
            }
            if at < self.now {
                return Err(SimError::TimeRegression { now: self.now, event_at: at });
            }
            if let Some(w) = watchdog {
                if at == instant_at {
                    instant_events += 1;
                    if instant_events >= w.max_events_per_instant {
                        return Err(SimError::Livelock { at, events: instant_events });
                    }
                } else {
                    instant_at = at;
                    instant_events = 1;
                }
                let at_day = at.as_secs() / 86_400;
                if at_day == day {
                    day_events += 1;
                    if day_events >= w.max_events_per_day {
                        return Err(SimError::EventStorm { day, events: day_events });
                    }
                } else {
                    day = at_day;
                    day_events = 1;
                }
            }
            let pending = self.queue.len() + self.world.held_events();
            if pending > self.profile.queue_high_water {
                self.profile.queue_high_water = pending;
            }
            // The peek above guarantees a pending event; stay panic-free
            // anyway (an empty pop here would mean queue corruption, which
            // the golden digests would surface immediately).
            let Some((at, event)) = self.queue.pop() else {
                return Ok(RunOutcome::QueueEmpty);
            };
            self.now = at;
            self.processed += 1;
            self.profile.record(W::event_kind(&event));
            let mut ctx = Ctx { now: self.now, queue: &mut self.queue };
            self.world.handle(&mut ctx, event);
        }
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Profiling collected so far (cumulative across run calls).
    pub fn profile(&self) -> &EngineProfile {
        &self.profile
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Exclusive access to the world (between runs).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Consumes the engine, returning the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Rebuilds an engine mid-run from a [`checkpoint`](Engine::checkpoint)
    /// capture and a freshly reconstructed world.
    ///
    /// `resolve_kind` maps each checkpointed dispatch-count name back to
    /// the world's `&'static` event-kind string (the caller knows its own
    /// [`World::event_kind`] table); an unknown name is a typed error, not
    /// a silently dropped counter — sharded merges recompute
    /// `events_processed` from these counts, so they must be exact.
    ///
    /// Pending events are re-scheduled under their checkpointed sequence
    /// numbers, and the sequence counter resumes at `next_seq`, so every
    /// tie-break of the uninterrupted run is reproduced. Wall-clock
    /// profiling fields restart from zero; they are excluded from run
    /// digests by contract (DESIGN.md §6).
    ///
    /// # Errors
    ///
    /// [`ResumeError::UnknownEventKind`] if a dispatch name fails to
    /// resolve — the checkpoint belongs to a different world shape —
    /// [`ResumeError::EventBeforeClock`] if a pending event is timed
    /// before the checkpoint clock, which the resumed run could never
    /// dispatch, and [`ResumeError::SeqNotReserved`] if a pending event's
    /// sequence number is not below `next_seq`.
    pub fn resume<F>(
        world: W,
        checkpoint: EngineCheckpoint<W::Event>,
        resolve_kind: F,
    ) -> Result<Self, ResumeError>
    where
        F: Fn(&str) -> Option<&'static str>,
    {
        let mut profile = EngineProfile::default();
        for (name, n) in &checkpoint.dispatches {
            let Some(kind) = resolve_kind(name) else {
                return Err(ResumeError::UnknownEventKind { name: name.clone() });
            };
            profile.record_n(kind, *n);
        }
        let now = checkpoint.now;
        if let Some(&(at, _, _)) = checkpoint.events.iter().find(|(at, _, _)| *at < now) {
            return Err(ResumeError::EventBeforeClock { at, now });
        }
        let next_seq = checkpoint.next_seq;
        if let Some(&(_, seq, _)) = checkpoint.events.iter().find(|(_, seq, _)| *seq >= next_seq) {
            return Err(ResumeError::SeqNotReserved { seq, next_seq });
        }
        profile.queue_high_water = checkpoint.queue_high_water;
        profile.hook_fires = checkpoint.hook_fires;
        let mut queue = EventQueue::new();
        queue.reserve(next_seq);
        for (at, seq, event) in checkpoint.events {
            queue.schedule_reserved(at, seq, event);
        }
        Ok(Engine {
            world,
            queue,
            now: checkpoint.now,
            processed: checkpoint.processed,
            profile,
        })
    }
}

impl<W: World> Engine<W>
where
    W::Event: Clone,
{
    /// Captures the engine's execution state — clock, dispatch counts,
    /// the sequence counter and every queued event in (time, seq) pop
    /// order — without touching the run. Events the world holds itself
    /// ([`World::held_events`]) are the world's to capture.
    pub fn checkpoint(&self) -> EngineCheckpoint<W::Event> {
        let pending = self.queue.pending().into_iter();
        EngineCheckpoint {
            now: self.now,
            processed: self.processed,
            dispatches: self.profile.kinds.iter().map(|&(k, n)| (k.to_string(), n)).collect(),
            queue_high_water: self.profile.queue_high_water,
            hook_fires: self.profile.hook_fires,
            events: pending.map(|(at, seq, event)| (at, seq, event.clone())).collect(),
            next_seq: self.queue.next_seq(),
        }
    }
}

/// A pure-data capture of an [`Engine`]'s mid-run execution state:
/// everything the engine itself owns that the world cannot rebuild.
/// Produced by [`Engine::checkpoint`], consumed by [`Engine::resume`];
/// the snapshot layers serialize it with [`crate::snapshot`] codecs.
#[derive(Clone, Debug)]
pub struct EngineCheckpoint<E> {
    /// The simulation clock at capture.
    pub now: SimTime,
    /// Events processed so far.
    pub processed: u64,
    /// Per-kind dispatch counts, as owned strings (the `&'static` kind
    /// table is re-resolved on resume).
    pub dispatches: Vec<(String, u64)>,
    /// Queue depth high-water mark.
    pub queue_high_water: usize,
    /// Fault-hook fires so far.
    pub hook_fires: u64,
    /// Every pending event with its sequence number, in (time, seq) pop
    /// order.
    pub events: Vec<(SimTime, u64, E)>,
    /// The sequence counter: above every number issued before capture.
    pub next_seq: u64,
}

/// Why [`Engine::resume`] refused a checkpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResumeError {
    /// A checkpointed dispatch-count name that the resuming world does
    /// not recognise — the checkpoint belongs to a different world shape.
    UnknownEventKind {
        /// The unresolvable event-kind name.
        name: String,
    },
    /// A pending event timed before the checkpoint clock: dispatching it
    /// would move simulated time backwards.
    EventBeforeClock {
        /// When the event is timed.
        at: SimTime,
        /// The checkpoint clock.
        now: SimTime,
    },
    /// A pending event's sequence number is not below the checkpoint's
    /// sequence counter, so a later event could tie with it in no defined
    /// order.
    SeqNotReserved {
        /// The event's sequence number.
        seq: u64,
        /// The checkpoint's sequence counter.
        next_seq: u64,
    },
}

impl core::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ResumeError::UnknownEventKind { name } => {
                write!(f, "checkpoint names unknown event kind '{name}'")
            }
            ResumeError::EventBeforeClock { at, now } => {
                write!(f, "checkpoint holds an event at {at} before its clock {now}")
            }
            ResumeError::SeqNotReserved { seq, next_seq } => {
                write!(f, "checkpoint holds seq {seq} at or above its counter {next_seq}")
            }
        }
    }
}

impl std::error::Error for ResumeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{SimDuration, SimTime};

    #[derive(Default)]
    struct Recorder {
        seen: Vec<(u64, u32)>,
        chain: bool,
    }

    impl World for Recorder {
        type Event = u32;
        fn handle(&mut self, ctx: &mut Ctx<'_, u32>, event: u32) {
            self.seen.push((ctx.now().as_secs(), event));
            if self.chain && event < 5 {
                ctx.schedule_in(SimDuration::from_secs(10), event + 1);
            }
        }
    }

    #[test]
    fn processes_in_order_and_reaches_horizon() {
        let mut e = Engine::new(Recorder::default());
        e.schedule_at(SimTime::from_secs(20), 2);
        e.schedule_at(SimTime::from_secs(10), 1);
        let out = e.run_until(SimTime::from_secs(100));
        assert_eq!(out, RunOutcome::QueueEmpty);
        assert_eq!(e.world().seen, vec![(10, 1), (20, 2)]);
        assert_eq!(e.now(), SimTime::from_secs(100));
        assert_eq!(e.events_processed(), 2);
    }

    #[test]
    fn horizon_excludes_boundary_event() {
        let mut e = Engine::new(Recorder::default());
        e.schedule_at(SimTime::from_secs(50), 1);
        let out = e.run_until(SimTime::from_secs(50));
        assert_eq!(out, RunOutcome::HorizonReached);
        assert!(e.world().seen.is_empty());
        // Resuming past the boundary fires it.
        let out = e.run_until(SimTime::from_secs(51));
        assert_eq!(out, RunOutcome::QueueEmpty);
        assert_eq!(e.world().seen, vec![(50, 1)]);
    }

    #[test]
    fn resume_refuses_an_event_before_the_checkpoint_clock() {
        let mut e = Engine::new(Recorder::default());
        e.schedule_at(SimTime::from_secs(60), 2);
        e.run_until(SimTime::from_secs(50));
        let mut cp = e.checkpoint();
        assert_eq!(cp.now, SimTime::from_secs(50));
        cp.events.push((SimTime::from_secs(10), 0, 1));
        let refused = Engine::resume(Recorder::default(), cp, |_| Some("event"));
        assert_eq!(
            refused.err(),
            Some(ResumeError::EventBeforeClock {
                at: SimTime::from_secs(10),
                now: SimTime::from_secs(50),
            })
        );
    }

    #[test]
    fn resume_refuses_an_unknown_event_kind_and_accepts_a_clean_checkpoint() {
        let mut e = Engine::new(Recorder::default());
        e.schedule_at(SimTime::from_secs(10), 1);
        e.schedule_at(SimTime::from_secs(60), 2);
        e.run_until(SimTime::from_secs(50));
        let cp = e.checkpoint();
        let unknown = Engine::resume(Recorder::default(), cp.clone(), |_| None);
        assert_eq!(unknown.err(), Some(ResumeError::UnknownEventKind { name: "event".into() }));
        let mut resumed = Engine::resume(Recorder::default(), cp, |_| Some("event")).unwrap();
        assert_eq!(resumed.run_until(SimTime::from_secs(100)), RunOutcome::QueueEmpty);
        assert_eq!(resumed.world().seen, vec![(60, 2)]);
        assert_eq!(resumed.events_processed(), 2);
    }

    #[test]
    fn handlers_can_chain_events() {
        let mut e = Engine::new(Recorder { chain: true, ..Default::default() });
        e.schedule_at(SimTime::ZERO, 1);
        e.run_until(SimTime::from_secs(1_000));
        assert_eq!(
            e.world().seen,
            vec![(0, 1), (10, 2), (20, 3), (30, 4), (40, 5)]
        );
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut e = Engine::new(Recorder::default());
        e.schedule_at(SimTime::from_secs(10), 1);
        e.run_until(SimTime::from_secs(100));
        e.schedule_at(SimTime::from_secs(5), 2);
    }

    #[test]
    fn same_time_events_fifo() {
        let mut e = Engine::new(Recorder::default());
        for i in 0..10 {
            e.schedule_at(SimTime::from_secs(7), i);
        }
        e.run_until(SimTime::from_secs(8));
        let order: Vec<u32> = e.world().seen.iter().map(|&(_, v)| v).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn into_world_returns_state() {
        let mut e = Engine::new(Recorder::default());
        e.schedule_at(SimTime::ZERO, 9);
        e.run_until(SimTime::from_secs(1));
        let w = e.into_world();
        assert_eq!(w.seen, vec![(0, 9)]);
    }

    /// A world that reschedules itself at the *same instant* forever: the
    /// classic livelock an unchecked engine would spin on.
    struct SameInstantLoop;

    impl World for SameInstantLoop {
        type Event = ();
        fn handle(&mut self, ctx: &mut Ctx<'_, ()>, _event: ()) {
            let now = ctx.now();
            ctx.schedule_at(now, ());
        }
    }

    #[test]
    fn watchdog_catches_self_rescheduling_livelock_within_a_day() {
        let mut e = Engine::new(SameInstantLoop);
        e.schedule_at(SimTime::ZERO, ());
        let err = e
            .run_until_checked(SimTime::from_days(365), &Watchdog::default())
            .unwrap_err();
        match err {
            SimError::Livelock { at, events } => {
                // Caught before one simulated day elapsed.
                assert!(at < SimTime::from_days(1), "stuck at {at:?}");
                assert_eq!(events, Watchdog::default().max_events_per_instant);
            }
            other => panic!("expected Livelock, got {other:?}"),
        }
    }

    /// A world that advances the clock by one second per event — never
    /// stuck at an instant, but an unbounded storm per simulated day.
    struct SecondTicker;

    impl World for SecondTicker {
        type Event = ();
        fn handle(&mut self, ctx: &mut Ctx<'_, ()>, _event: ()) {
            ctx.schedule_in(SimDuration::from_secs(1), ());
        }
    }

    #[test]
    fn watchdog_catches_event_storm() {
        let mut e = Engine::new(SecondTicker);
        e.schedule_at(SimTime::ZERO, ());
        let wd = Watchdog { max_events_per_day: 1_000, ..Watchdog::default() };
        let err = e.run_until_checked(SimTime::from_days(365), &wd).unwrap_err();
        match err {
            SimError::EventStorm { day: 0, events: 1_000 } => {}
            other => panic!("expected EventStorm on day 0, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_reports_starvation_when_asked() {
        let mut e = Engine::new(Recorder::default());
        e.schedule_at(SimTime::from_secs(1), 1);
        let wd = Watchdog { starvation_is_error: true, ..Watchdog::default() };
        let err = e.run_until_checked(SimTime::from_secs(100), &wd).unwrap_err();
        assert_eq!(
            err,
            SimError::Starvation {
                at: SimTime::from_secs(100),
                horizon: SimTime::from_secs(100)
            }
        );
    }

    #[test]
    fn checked_run_passes_healthy_world_through() {
        let mut e = Engine::new(Recorder::default());
        e.schedule_at(SimTime::from_secs(3), 1);
        e.schedule_at(SimTime::from_secs(5), 2);
        let out = e
            .run_until_checked(SimTime::from_secs(10), &Watchdog::default())
            .expect("healthy world");
        assert_eq!(out, RunOutcome::QueueEmpty);
        assert_eq!(e.world().seen, vec![(3, 1), (5, 2)]);
    }

    /// Hook that records fire times and injects a marker event.
    struct EveryTen {
        next: u64,
        fired: Vec<u64>,
    }

    impl FaultHook<Recorder> for EveryTen {
        fn next_fault_at(&self) -> Option<SimTime> {
            Some(SimTime::from_secs(self.next))
        }
        fn fire(&mut self, now: SimTime, _world: &mut Recorder, ctx: &mut Ctx<'_, u32>) {
            self.fired.push(now.as_secs());
            ctx.schedule_at(now, 999);
            self.next += 10;
        }
    }

    #[test]
    fn hook_fires_before_tied_events_and_respects_horizon() {
        let mut e = Engine::new(Recorder::default());
        e.schedule_at(SimTime::from_secs(10), 1);
        e.schedule_at(SimTime::from_secs(25), 2);
        let mut hook = EveryTen { next: 10, fired: Vec::new() };
        let out = e.run_until_hooked(SimTime::from_secs(31), &mut hook);
        assert_eq!(out, RunOutcome::QueueEmpty);
        // Faults at 10, 20, 30 all fire (30 < 31). The fault at 10 wins the
        // tie with the world's event, but its marker enters the queue
        // behind the already-scheduled event (FIFO at equal times).
        assert_eq!(hook.fired, vec![10, 20, 30]);
        assert_eq!(
            e.world().seen,
            vec![(10, 1), (10, 999), (20, 999), (25, 2), (30, 999)]
        );
    }

    /// Two-kind world for profile tests: pings reschedule as pongs.
    struct PingPong;

    impl World for PingPong {
        type Event = bool;
        fn handle(&mut self, ctx: &mut Ctx<'_, bool>, ping: bool) {
            if ping {
                ctx.schedule_in(SimDuration::from_secs(1), false);
            }
        }
        fn event_kind(event: &bool) -> &'static str {
            if *event {
                "ping"
            } else {
                "pong"
            }
        }
    }

    #[test]
    fn profile_counts_kinds_and_queue_depth() {
        let mut e = Engine::new(PingPong);
        for i in 0..5 {
            e.schedule_at(SimTime::from_secs(i), true);
        }
        e.run_until(SimTime::from_secs(100));
        let p = e.profile();
        assert_eq!(p.count("ping"), 5);
        assert_eq!(p.count("pong"), 5);
        assert_eq!(p.count("never"), 0);
        assert_eq!(p.total_dispatched(), 10);
        assert_eq!(p.total_dispatched(), e.events_processed());
        // All five pings were pending at the first dispatch.
        assert_eq!(p.queue_high_water, 5);
        // First-dispatch order is stable.
        let kinds: Vec<&str> = p.dispatches().iter().map(|&(k, _)| k).collect();
        assert_eq!(kinds, vec!["ping", "pong"]);
    }

    #[test]
    fn profile_tracks_hook_fires_and_wall_clock() {
        let mut e = Engine::new(Recorder::default());
        e.schedule_at(SimTime::from_secs(5), 1);
        let mut hook = EveryTen { next: 10, fired: Vec::new() };
        e.run_until_hooked(SimTime::from_secs(35), &mut hook);
        let p = e.profile();
        assert_eq!(p.hook_fires, 3, "faults at 10, 20, 30");
        assert!(p.run_nanos > 0, "run wall-clock must accumulate");
    }

    #[test]
    fn a_second_ticker_dispatches_once_a_second() {
        let mut e = Engine::new(SecondTicker);
        e.schedule_at(SimTime::ZERO, ());
        // Events fire at t = 0..=2999.
        e.run_until(SimTime::from_secs(3_000));
        assert_eq!(e.events_processed(), 3_000);
        assert_eq!(e.profile().total_dispatched(), 3_000);
    }

    /// A world that holds one pending event itself: event 1 reserves a
    /// seq for 11 at second 5, and event 2 queues 21 at second 5 before
    /// handing 11 over.
    #[derive(Default)]
    struct Holder {
        held: Option<(u64, u32)>,
        seen: Vec<u32>,
    }

    impl World for Holder {
        type Event = u32;
        fn handle(&mut self, ctx: &mut Ctx<'_, u32>, event: u32) {
            self.seen.push(event);
            if event == 1 {
                self.held = Some((ctx.reserve_seq(), 11));
                ctx.schedule_at(SimTime::from_secs(2), 2);
            } else if event == 2 {
                ctx.schedule_at(SimTime::from_secs(5), 21);
                if let Some((seq, held)) = self.held.take() {
                    ctx.schedule_reserved(SimTime::from_secs(5), seq, held);
                }
            }
        }
        fn held_events(&self) -> usize {
            usize::from(self.held.is_some())
        }
    }

    #[test]
    fn reserved_seqs_keep_their_place_and_count_as_pending() {
        let mut e = Engine::new(Holder::default());
        e.schedule_at(SimTime::from_secs(1), 1);
        e.run_until(SimTime::from_secs(2));
        e.run_until(SimTime::from_secs(10));
        // 11 reached the queue after 21 but was reserved before it.
        assert_eq!(e.world().seen, vec![1, 2, 11, 21]);
        assert_eq!(e.profile().queue_high_water, 2);
    }

    #[test]
    fn checkpoint_carries_seqs_and_resume_refuses_an_unreserved_one() {
        let mut e = Engine::new(Recorder::default());
        let first = e.reserve_seqs(2);
        e.schedule_at(SimTime::from_secs(9), 3);
        e.schedule_reserved(SimTime::from_secs(9), first + 1, 2);
        e.schedule_reserved(SimTime::from_secs(9), first, 1);
        let cp = e.checkpoint();
        let seqs: Vec<(u64, u32)> = cp.events.iter().map(|&(_, seq, ev)| (seq, ev)).collect();
        assert_eq!(seqs, vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(cp.next_seq, 3);
        let mut bad = cp.clone();
        bad.next_seq = 2;
        let refused = Engine::resume(Recorder::default(), bad, |_| Some("event"));
        assert_eq!(refused.err(), Some(ResumeError::SeqNotReserved { seq: 2, next_seq: 2 }));
        let mut resumed = Engine::resume(Recorder::default(), cp, |_| Some("event")).unwrap();
        resumed.schedule_at(SimTime::from_secs(9), 4);
        resumed.run_until(SimTime::from_secs(10));
        let order: Vec<u32> = resumed.world().seen.iter().map(|&(_, v)| v).collect();
        assert_eq!(order, vec![1, 2, 3, 4]);
    }

    #[test]
    fn default_event_kind_lumps_everything() {
        let mut e = Engine::new(Recorder::default());
        e.schedule_at(SimTime::ZERO, 1);
        e.schedule_at(SimTime::from_secs(1), 2);
        e.run_until(SimTime::from_secs(10));
        assert_eq!(e.profile().count("event"), 2);
    }

    #[test]
    fn sim_error_display_is_informative() {
        let s = SimError::Livelock { at: SimTime::ZERO, events: 7 }.to_string();
        assert!(s.contains("livelock"), "{s}");
        let s = SimError::EventStorm { day: 3, events: 9 }.to_string();
        assert!(s.contains("day 3"), "{s}");
    }
}
