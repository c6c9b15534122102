//! `chaos` — deterministic fault injection for the fleet simulation.
//!
//! A century-scale deployment will see every failure the paper warns
//! about, usually several at once: storms that black out a region's
//! gateways, backhaul providers that flap or sunset service without
//! notice (§3.3.2), hotspot markets that collapse under the federated
//! arm (§4.2), billing systems that eat a wallet top-up, and devices
//! that wedge or go byzantine in the field. This crate turns those into
//! a reproducible experiment:
//!
//! * [`FaultPlanBuilder`] — Poisson-arrival fault generation over a
//!   [`FleetConfig`]'s horizon, scaled by an *intensity* knob in `[0, 1]`.
//!   Plans built at lower intensity are **nested subsets** of plans built
//!   at higher intensity from the same seed, which is what makes
//!   monotonicity metamorphic tests meaningful.
//! * [`geo`] — geometric storms: a disc over the device layout, expanded
//!   at plan time into per-device knockouts.
//! * [`FaultPlan`], [`FleetInjector`] and the fault types live in
//!   [`fleet::fault`] and are re-exported here: a plan is one field of a
//!   [`fleet::run::Run`], which drives every run — serial or sharded,
//!   fresh or resumed from a snapshot.
//! * [`run_with_plan`] — the one-line serial chaos run, the counterpart
//!   of [`FleetSim::run`](fleet::sim::FleetSim::run). With an empty plan
//!   the output is byte-identical to the fault-free run.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod geo;

pub use fleet::fault::*;

use fleet::run::{Run, Shards, Start};
use fleet::sim::{ArmKind, FleetConfig, FleetReport};
use simcore::error::ModelError;
use simcore::event::EventQueue;
use simcore::rng::Rng;
use simcore::time::{SimDuration, SimTime};

/// Per-injector candidate rates (events per arm-year at full intensity)
/// and magnitudes. The *intensity* argument of
/// [`build`](FaultPlanBuilder::build) thins the candidate set: a
/// candidate drawn with inclusion variate `u` joins the plan iff
/// `u < intensity`, so plans at increasing intensity from one seed are
/// nested supersets.
#[derive(Clone, Debug)]
pub struct FaultPlanBuilder {
    seed: u64,
    /// Regional outages per arm-year (any arm kind).
    pub outage_rate: f64,
    /// Outage length.
    pub outage_duration: SimDuration,
    /// Backhaul flaps per arm-year (owned arms).
    pub flap_rate: f64,
    /// Flap length.
    pub flap_duration: SimDuration,
    /// Abrupt provider sunsets per arm-year (owned arms).
    pub sunset_rate: f64,
    /// Hotspot-market collapses per arm-year (federated arms).
    pub collapse_rate: f64,
    /// Census fraction lost per collapse.
    pub collapse_fraction: f64,
    /// Wallet top-up failures per arm-year (federated arms).
    pub wallet_rate: f64,
    /// Firmware-wedge events per arm-year (any arm kind).
    pub stuck_rate: f64,
    /// Wedged interval.
    pub stuck_duration: SimDuration,
    /// Byzantine episodes per arm-year (any arm kind).
    pub byzantine_rate: f64,
    /// Garbage interval.
    pub byzantine_duration: SimDuration,
}

impl FaultPlanBuilder {
    /// A builder with every injector disabled; enable rates field by
    /// field for targeted schedules.
    pub fn quiet(seed: u64) -> Self {
        FaultPlanBuilder {
            seed,
            outage_rate: 0.0,
            outage_duration: SimDuration::from_weeks(3),
            flap_rate: 0.0,
            flap_duration: SimDuration::from_hours(36),
            sunset_rate: 0.0,
            collapse_rate: 0.0,
            collapse_fraction: 0.5,
            wallet_rate: 0.0,
            stuck_rate: 0.0,
            stuck_duration: SimDuration::from_weeks(4),
            byzantine_rate: 0.0,
            byzantine_duration: SimDuration::from_weeks(4),
        }
    }

    /// The storm-heavy preset: correlated outages, backhaul flaps and
    /// wedged firmware only. Every storm fault forces the affected path
    /// probability to zero (rather than scaling it), so with the
    /// simulation's common-random-numbers discipline weekly uptime is
    /// non-increasing in intensity — the preset the metamorphic
    /// monotonicity tests use.
    pub fn storm_heavy(seed: u64) -> Self {
        FaultPlanBuilder {
            outage_rate: 0.8,
            flap_rate: 2.0,
            stuck_rate: 0.5,
            ..Self::quiet(seed)
        }
    }

    /// The kitchen-sink preset: every injector enabled, §3's whole risk
    /// register at once.
    pub fn full(seed: u64) -> Self {
        FaultPlanBuilder {
            sunset_rate: 0.05,
            collapse_rate: 0.1,
            wallet_rate: 0.5,
            byzantine_rate: 0.3,
            ..Self::storm_heavy(seed)
        }
    }

    /// Builds the fault schedule for `cfg` at the given intensity.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidRate`] if `intensity` is outside `[0, 1]` or
    /// any rate/magnitude is negative or non-finite.
    pub fn build(&self, cfg: &FleetConfig, intensity: f64) -> Result<FaultPlan, ModelError> {
        if !intensity.is_finite() || !(0.0..=1.0).contains(&intensity) {
            return Err(ModelError::InvalidRate { what: "intensity", value: intensity });
        }
        for (what, value) in [
            ("outage_rate", self.outage_rate),
            ("flap_rate", self.flap_rate),
            ("sunset_rate", self.sunset_rate),
            ("collapse_rate", self.collapse_rate),
            ("wallet_rate", self.wallet_rate),
            ("stuck_rate", self.stuck_rate),
            ("byzantine_rate", self.byzantine_rate),
            ("collapse_fraction", self.collapse_fraction),
        ] {
            if !value.is_finite() || value < 0.0 {
                return Err(ModelError::InvalidRate { what, value });
            }
        }

        let root = Rng::seed_from(self.seed);
        let years = cfg.horizon.as_years_f64();
        let mut queue: EventQueue<FaultKind> = EventQueue::new();

        for (ai, arm) in cfg.arms.iter().enumerate() {
            let owned = matches!(arm.kind, ArmKind::Owned { .. });
            let devices = arm.devices;
            // Each injector owns a private stream keyed by arm, and draws
            // its full-rate candidate sequence (arrival gap, inclusion
            // variate, target) identically at every intensity. Inclusion
            // thins the sequence, so lower-intensity plans are nested
            // subsets of higher-intensity ones.
            let emit = |label: &str,
                            rate: f64,
                            queue: &mut EventQueue<FaultKind>,
                            mk: &dyn Fn(&mut Rng) -> FaultKind| {
                if rate <= 0.0 {
                    return;
                }
                // simlint: allow(R001, label is a closure param; every emit() call below passes a distinct string literal)
                let mut rng = root.split(label, ai as u64);
                let mut t_years = 0.0f64;
                loop {
                    // Poisson arrivals: exponential gaps at the full rate.
                    t_years += -(1.0 - rng.next_f64()).ln() / rate;
                    if t_years >= years {
                        break;
                    }
                    let include = rng.next_f64() < intensity;
                    let kind = mk(&mut rng);
                    if include {
                        let at = SimTime::ZERO + SimDuration::from_years_f64(t_years);
                        queue.schedule(at, kind);
                    }
                }
            };

            emit("outage", self.outage_rate, &mut queue, &|_| FaultKind::RegionalOutage {
                arm: ai,
                duration: self.outage_duration,
            });
            if owned {
                emit("flap", self.flap_rate, &mut queue, &|_| FaultKind::BackhaulFlap {
                    arm: ai,
                    duration: self.flap_duration,
                });
                emit("sunset", self.sunset_rate, &mut queue, &|_| FaultKind::ProviderSunset {
                    arm: ai,
                });
            } else {
                emit("collapse", self.collapse_rate, &mut queue, &|_| {
                    FaultKind::HotspotCollapse { arm: ai, fraction: self.collapse_fraction }
                });
                if devices > 0 {
                    emit("wallet", self.wallet_rate, &mut queue, &|rng| FaultKind::WalletFailure {
                        arm: ai,
                        device: rng.next_below(devices as u64) as usize,
                    });
                }
            }
            if devices > 0 {
                emit("stuck", self.stuck_rate, &mut queue, &|rng| FaultKind::DeviceStuck {
                    arm: ai,
                    device: rng.next_below(devices as u64) as usize,
                    duration: self.stuck_duration,
                });
                emit("byzantine", self.byzantine_rate, &mut queue, &|rng| {
                    FaultKind::DeviceByzantine {
                        arm: ai,
                        device: rng.next_below(devices as u64) as usize,
                        duration: self.byzantine_duration,
                    }
                });
            }
        }

        // The engine's event queue does the time-ordering (FIFO on ties),
        // exactly as the simulation itself would.
        let mut faults = Vec::with_capacity(queue.len());
        while let Some((at, kind)) = queue.pop() {
            faults.push(Fault { at, kind });
        }
        Ok(FaultPlan::from_faults(faults))
    }
}

/// Runs `cfg` to its horizon with `plan` injected, serially, and
/// finalizes through the same path as
/// [`FleetSim::run`](fleet::sim::FleetSim::run). An
/// [`empty`](FaultPlan::empty) plan reproduces the fault-free run byte
/// for byte (diary included). Shorthand for a fresh one-shard
/// [`Run`].
pub fn run_with_plan(cfg: FleetConfig, plan: FaultPlan) -> FleetReport {
    Run { start: Start::Fresh(cfg), faults: plan, shards: Shards::SERIAL }.execute()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleet::sim::FleetSim;
    use fleet::snapshot::ChaosProgress;
    use std::num::NonZeroUsize;

    fn cfg(seed: u64) -> FleetConfig {
        FleetConfig::paper_experiment(seed)
    }

    #[test]
    fn zero_intensity_plan_is_empty() {
        let plan = FaultPlanBuilder::full(1).build(&cfg(1), 0.0).unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        let a = FaultPlanBuilder::full(7).build(&cfg(1), 0.6).unwrap();
        let b = FaultPlanBuilder::full(7).build(&cfg(1), 0.6).unwrap();
        assert_eq!(a, b);
        let c = FaultPlanBuilder::full(8).build(&cfg(1), 0.6).unwrap();
        assert_ne!(a, c, "different seeds should schedule different faults");
    }

    #[test]
    fn plans_nest_by_intensity() {
        let b = FaultPlanBuilder::full(3);
        let lo = b.build(&cfg(1), 0.25).unwrap();
        let mid = b.build(&cfg(1), 0.5).unwrap();
        let hi = b.build(&cfg(1), 1.0).unwrap();
        assert!(lo.len() < mid.len() && mid.len() < hi.len());
        for plan in [&lo, &mid] {
            for f in plan.faults() {
                assert!(hi.faults().contains(f), "{f:?} missing at full intensity");
            }
        }
        for f in lo.faults() {
            assert!(mid.faults().contains(f), "{f:?} missing at mid intensity");
        }
    }

    #[test]
    fn plan_is_time_ordered_and_in_horizon() {
        let c = cfg(1);
        let plan = FaultPlanBuilder::full(5).build(&c, 1.0).unwrap();
        assert!(!plan.is_empty());
        let horizon = SimTime::ZERO + c.horizon;
        let mut last = SimTime::ZERO;
        for f in plan.faults() {
            assert!(f.at >= last);
            assert!(f.at < horizon);
            last = f.at;
        }
    }

    #[test]
    fn invalid_inputs_are_typed_errors() {
        let b = FaultPlanBuilder::full(1);
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            match b.build(&cfg(1), bad) {
                Err(ModelError::InvalidRate { what, .. }) => assert_eq!(what, "intensity"),
                other => panic!("expected InvalidRate, got {other:?}"),
            }
        }
        let mut broken = FaultPlanBuilder::full(1);
        broken.stuck_rate = f64::NAN;
        match broken.build(&cfg(1), 0.5) {
            Err(ModelError::InvalidRate { what, .. }) => assert_eq!(what, "stuck_rate"),
            other => panic!("expected InvalidRate, got {other:?}"),
        }
    }

    #[test]
    fn every_planned_fault_applies_to_the_paper_experiment() {
        let c = cfg(4);
        let plan = FaultPlanBuilder::full(4).build(&c, 1.0).unwrap();
        let n = plan.len() as u64;
        assert!(n > 50, "full intensity over 50 years should be busy, got {n}");
        let report = run_with_plan(c, plan);
        let injected: u64 = report.arms.iter().map(|a| a.faults_injected).sum();
        assert_eq!(injected, n, "plan targets are built from the config; none may miss");
        let chaos_lines = report
            .diary()
            .render()
            .lines()
            .filter(|l| l.contains("chaos:"))
            .count() as u64;
        assert_eq!(chaos_lines, n);
    }

    #[test]
    fn empty_plan_reproduces_the_fault_free_run_exactly() {
        let plain = FleetSim::run(cfg(9));
        let hooked = run_with_plan(cfg(9), FaultPlan::empty());
        assert_eq!(plain.diary().render(), hooked.diary().render());
        assert_eq!(plain.events_processed, hooked.events_processed);
        assert_eq!(
            plain.digest(),
            hooked.digest(),
            "a zero-fault chaos run must digest identically to a plain run"
        );
        for (a, b) in plain.arms.iter().zip(&hooked.arms) {
            assert_eq!(a.weeks_up, b.weeks_up);
            assert_eq!(a.readings_delivered, b.readings_delivered);
            assert_eq!(a.faults_injected, 0);
            assert_eq!(b.faults_injected, 0);
        }
    }

    #[test]
    fn storms_cost_uptime() {
        let storms = |intensity: f64| {
            let plan = FaultPlanBuilder::storm_heavy(11 ^ 0x5eed_c4a0).build(&cfg(11), intensity);
            run_with_plan(cfg(11), plan.unwrap())
        };
        let calm = storms(0.0);
        let wild = storms(1.0);
        for (c, w) in calm.arms.iter().zip(&wild.arms) {
            assert!(
                w.weeks_up < c.weeks_up,
                "{}: storms should cost weeks ({} vs {})",
                w.name,
                w.weeks_up,
                c.weeks_up
            );
        }
    }

    #[test]
    fn misaimed_faults_are_skipped_not_fatal() {
        let c = cfg(2);
        let horizon = SimTime::ZERO + c.horizon;
        let plan = FaultPlan::from_faults(vec![
            Fault {
                at: SimTime::from_years(1),
                kind: FaultKind::HotspotCollapse { arm: 0, fraction: 0.5 }, // arm 0 is owned
            },
            Fault {
                at: SimTime::from_years(2),
                kind: FaultKind::RegionalOutage { arm: 99, duration: SimDuration::from_weeks(1) },
            },
            Fault {
                at: SimTime::from_years(3),
                kind: FaultKind::BackhaulFlap { arm: 0, duration: SimDuration::from_hours(12) },
            },
        ]);
        let mut engine = FleetSim::build(c);
        let mut injector = FleetInjector::new(plan);
        engine.run_until_hooked(horizon, &mut injector);
        assert_eq!(injector.applied(), 1);
        assert_eq!(injector.skipped(), 2);
        let report = FleetSim::into_report(engine, horizon);
        let injected: u64 = report.arms.iter().map(|a| a.faults_injected).sum();
        assert_eq!(injected, 1);
        // Both outcomes are ledgered in the metric snapshot too.
        use telemetry::MetricValue;
        assert_eq!(report.metrics.get("chaos.applied"), Some(&MetricValue::Counter(1)));
        assert_eq!(report.metrics.get("chaos.skipped"), Some(&MetricValue::Counter(2)));
    }

    #[test]
    fn hand_built_plans_stay_sorted() {
        let mut plan = FaultPlan::empty();
        plan.push(Fault {
            at: SimTime::from_years(5),
            kind: FaultKind::ProviderSunset { arm: 0 },
        });
        plan.push(Fault {
            at: SimTime::from_years(1),
            kind: FaultKind::ProviderSunset { arm: 0 },
        });
        assert_eq!(plan.faults()[0].at, SimTime::from_years(1));
        assert_eq!(plan.len(), 2);
    }

    fn temp_snapshot(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("chaos-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn injector_progress_roundtrip() {
        let plan = FaultPlanBuilder::full(5).build(&cfg(5), 1.0).unwrap();
        let a = FleetInjector::with_progress(
            plan.clone(),
            ChaosProgress { next: 3, applied: 2, skipped: 1 },
        );
        let b = FleetInjector::with_progress(plan.clone(), a.progress());
        assert_eq!(b.progress(), a.progress());
        // A stored cursor beyond the plan clamps to its end.
        let over = ChaosProgress { next: u64::MAX, applied: 0, skipped: 0 };
        let clamped = FleetInjector::with_progress(plan.clone(), over);
        assert_eq!(clamped.progress().next, plan.len() as u64);
    }

    #[test]
    fn chaos_checkpoint_resume_matches_uninterrupted() {
        let plan = FaultPlanBuilder::full(77).build(&cfg(77), 1.0).unwrap();
        let baseline = run_with_plan(cfg(77), plan.clone());
        let path = temp_snapshot("serial-resume.snap");
        let at = SimTime::from_years(10);
        let (engine, injector) = fleet::run::checkpoint(cfg(77), plan.clone(), at, &path).unwrap();
        assert!(injector.progress().next > 0, "a decade of full chaos fires faults");
        drop(engine);
        let resumed = fleet::snapshot::resume_from(&path, cfg(77)).unwrap();
        let start = Start::Resumed(Box::new(resumed));
        let report = Run { start, faults: plan, shards: Shards::SERIAL }.execute();
        assert_eq!(report.digest(), baseline.digest());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn chaos_checkpoint_resume_sharded_matches_uninterrupted() {
        let plan = FaultPlanBuilder::storm_heavy(78).build(&cfg(78), 1.0).unwrap();
        let baseline = run_with_plan(cfg(78), plan.clone());
        let path = temp_snapshot("sharded-resume.snap");
        let at = SimTime::from_years(25);
        let _ = fleet::run::checkpoint(cfg(78), plan.clone(), at, &path).unwrap();
        let resumed = fleet::snapshot::resume_from(&path, cfg(78)).unwrap();
        let two = Shards::Forced(NonZeroUsize::new(2).unwrap());
        let start = Start::Resumed(Box::new(resumed));
        let report = Run { start, faults: plan, shards: two }.execute();
        assert_eq!(report.digest(), baseline.digest());
        assert_eq!(report.events_processed, baseline.events_processed);
        std::fs::remove_file(&path).unwrap();
    }
}
