//! The fleet simulation: §4's 50-year experiment, executable.
//!
//! [`FleetSim`] wires the whole stack together — devices
//! ([`crate::device`]), gateways ([`crate::gateway`]), backhaul providers
//! and hotspot populations ([`backhaul`]), the cloud endpoint
//! ([`crate::cloud`]) — and runs it on the discrete-event engine over a
//! multi-decade horizon. Each experiment *arm* mirrors the paper:
//!
//! * **owned-802.15.4** — self-deployed Pi-class gateways on a campus
//!   backhaul; gateways are maintained, devices are not.
//! * **helium-lora** — third-party hotspots carry the data, prepaid with
//!   data-credit wallets; nothing but the device is deployed.
//!
//! The paper's uptime metric is implemented verbatim: *"some data arrives
//! at some interval of time up to once a week."* Weekly check events walk
//! each arm's end-to-end path; the structured diary records every failure,
//! repair, sunset and renewal, exactly as §4.5 promises to publish.
//!
//! ## Modelling notes
//!
//! Per-packet events over 50 years (hundreds of thousands per device) are
//! aggregated to weekly evaluations: within a week, a live device's packet
//! deliveries are Bernoulli draws at the arm's per-packet delivery
//! probability. Device energy availability enters as a per-week
//! availability factor computed by the `energy` crate offline (E12 covers
//! the fine-grained energy dynamics).

use std::io;
use std::sync::Arc;

use backhaul::helium::HotspotPopulation;
use econ::credits::{Wallet, WalletColumn};
use econ::labor::PersonHours;
use econ::money::Usd;
use reliability::system::bom;
use simcore::dist::{sorted_uniforms, Binomial, InverseCdf};
use simcore::engine::{Ctx, Engine, EngineCheckpoint, EngineProfile, ResumeError, World};
use simcore::rng::Rng;
use simcore::survival::Observation;
use simcore::time::{SimDuration, SimTime, WEEK};
use simcore::trace::{DeviceEvent, Diary, Msg, Severity, Tier};
use telemetry::jsonl;
use telemetry::span::{SpanId, SpanLog};
use telemetry::{Buckets, Counter, Digest, Histogram, LocalHistogram, Registry, Snapshot, Span};

use crate::cloud::CloudEndpoint;
use crate::device::{DeviceSpec, DeviceState, EnergySystem, LifetimeLaw};
use crate::due::DueList;
use crate::gateway::{GatewaySpec, GatewayState};
use crate::shard;
use crate::store::DeviceStore;

/// Infrastructure flavour of an experiment arm.
#[derive(Clone, Debug)]
pub enum ArmKind {
    /// Self-deployed gateways (the paper's 802.15.4 arm).
    Owned {
        /// Number of gateways deployed.
        gateways: usize,
        /// Gateway configuration.
        spec: GatewaySpec,
    },
    /// Third-party federated coverage (the paper's Helium arm).
    Federated {
        /// Local hotspot census dynamics.
        hotspots: HotspotPopulation,
        /// Wallet provisioned per device.
        wallet_dollars: Usd,
    },
}

/// Configuration of one experiment arm.
#[derive(Clone, Debug)]
pub struct ArmConfig {
    /// Display name (diary prefix).
    pub name: &'static str,
    /// Infrastructure flavour.
    pub kind: ArmKind,
    /// Number of edge devices.
    pub devices: usize,
    /// Device archetype.
    pub device_spec: DeviceSpec,
    /// Per-packet delivery probability given the path is up (link PRR ×
    /// collision survival), from the `net` crate's models.
    pub per_packet_delivery: f64,
    /// Whether failed devices are replaced (the paper documents, diagnoses
    /// and replaces — a living study), and after what delay.
    pub replace_devices: Option<SimDuration>,
    /// Fraction of devices hearing two gateways instead of one (owned
    /// arms; Figure 1's "one or two gateways"). The rest are single-homed
    /// on a deployment-time lottery.
    pub dual_homed_fraction: f64,
}

impl ArmConfig {
    /// The paper's owned-802.15.4 arm with `devices` sensors and
    /// `gateways` campus-backhauled Pi gateways.
    pub fn paper_owned_154(devices: usize, gateways: usize) -> Self {
        ArmConfig {
            name: "owned-802.15.4",
            kind: ArmKind::Owned { gateways, spec: GatewaySpec::paper_owned() },
            devices,
            device_spec: DeviceSpec::paper_sensor(net::packet::RadioTech::Ieee802154),
            per_packet_delivery: 0.95,
            replace_devices: Some(SimDuration::from_weeks(2)),
            dual_homed_fraction: 0.6,
        }
    }

    /// Derives `per_packet_delivery` from the shared-channel model instead
    /// of the preset constant: link PRR × pure-ALOHA collision survival
    /// (with capture) at this arm's own offered load.
    ///
    /// # Panics
    ///
    /// Panics if the spec's report interval is zero.
    pub fn with_channel_derived_delivery(mut self, link_prr: f64, capture_prob: f64) -> Self {
        let airtime = match self.device_spec.tech {
            net::packet::RadioTech::Ieee802154 => {
                net::ieee802154::airtime_s(self.device_spec.payload.len() as u32)
            }
            net::packet::RadioTech::LoRa => {
                net::lora::LoraConfig::uplink(net::lora::SpreadingFactor::Sf10)
                    .airtime_s(self.device_spec.payload.len() as u32)
            }
        };
        let interval = self.device_spec.report_interval.as_secs() as f64;
        assert!(interval > 0.0, "report interval must be positive");
        let g = net::aloha::offered_load(self.devices as u64, airtime, interval);
        let collision_survival = net::aloha::delivery_prob_with_capture(g, capture_prob);
        self.per_packet_delivery = (link_prr * collision_survival).clamp(0.0, 1.0);
        self
    }

    /// A cellular-backhauled variant of the owned arm (§3.3.2's risk case):
    /// same devices and gateways, but the uplink is a cellular generation
    /// that will sunset within the horizon.
    pub fn cellular_owned_154(
        devices: usize,
        gateways: usize,
        generation: backhaul::tech::CellularGen,
    ) -> Self {
        let mut spec = GatewaySpec::paper_owned();
        spec.backhaul = backhaul::tech::BackhaulTech::Cellular(generation);
        spec.provider = backhaul::provider::Provider::commercial();
        ArmConfig {
            name: "cellular-802.15.4",
            kind: ArmKind::Owned { gateways, spec },
            devices,
            device_spec: DeviceSpec::paper_sensor(net::packet::RadioTech::Ieee802154),
            per_packet_delivery: 0.95,
            replace_devices: Some(SimDuration::from_weeks(2)),
            dual_homed_fraction: 0.6,
        }
    }

    /// The paper's Helium arm with `devices` sensors riding `hotspots`
    /// initially-audible hotspots, each device prepaid with a $5 wallet.
    pub fn paper_helium(devices: usize, hotspots: u32) -> Self {
        ArmConfig {
            name: "helium-lora",
            kind: ArmKind::Federated {
                hotspots: HotspotPopulation::emerging(hotspots),
                wallet_dollars: Usd::from_dollars(5),
            },
            devices,
            device_spec: DeviceSpec::paper_sensor(net::packet::RadioTech::LoRa),
            per_packet_delivery: 0.90,
            replace_devices: Some(SimDuration::from_weeks(2)),
            dual_homed_fraction: 1.0,
        }
    }
}

/// How weekly deliveries are sampled (DESIGN.md §13).
///
/// The three modes share the struct-of-arrays [`DeviceStore`] and every
/// event handler; they differ only in the weekly evaluation pass and in
/// how build-time device lifetimes are drawn.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SamplingMode {
    /// One RNG draw per alive device per week — the original paper-scale
    /// path, bit-for-bit. All published golden digests are pinned under
    /// this mode; it remains the default.
    #[default]
    Legacy,
    /// Population-level aggregate sampling: one binomial draw per
    /// (arm × path cohort × week), shares distributed by device id, bulk
    /// wallet burns over the federated column, cohort order-statistic
    /// death times at build. The million-device path. Draws are pinned to
    /// entity ids (per-arm `"aggregate"` substream keyed by week and
    /// cohort), never loop order, so the CRN contract survives.
    Aggregate,
    /// A naive per-device implementation of the *aggregate* semantics —
    /// fresh participant scans, materialized rows, scalar wallet ops —
    /// kept as the exact-equality oracle the differential harness pins
    /// [`Aggregate`](Self::Aggregate) against.
    Reference,
}

/// Arm count of [`FleetConfig::scaled`]: divisible by 2, 4 and 8 so the
/// LPT shard plan balances perfectly at the usual shard counts.
pub const SCALE_ARMS: usize = 16;

/// Whole-simulation configuration.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Master seed; every entity derives an independent stream from it.
    pub seed: u64,
    /// Simulation horizon.
    pub horizon: SimDuration,
    /// Experiment arms.
    pub arms: Vec<ArmConfig>,
    /// Device/gateway physical environment.
    pub env: bom::Environment,
    /// Weekly delivery sampling mode.
    pub sampling: SamplingMode,
}

impl FleetConfig {
    /// The paper's initial experiment: 10 devices per arm, 2 owned
    /// gateways, 4 audible hotspots, 50-year horizon.
    pub fn paper_experiment(seed: u64) -> Self {
        FleetConfig {
            seed,
            horizon: SimDuration::from_years(50),
            arms: vec![
                ArmConfig::paper_owned_154(10, 2),
                ArmConfig::paper_helium(10, 4),
            ],
            env: bom::Environment::default(),
            sampling: SamplingMode::Legacy,
        }
    }

    /// A synthetic `devices`-device fleet: [`SCALE_ARMS`] equal owned
    /// arms of `devices / SCALE_ARMS` sensors (at least one) with 2
    /// gateways each, otherwise the paper experiment (seed, horizon,
    /// environment, sampling). Many equal arms keep the shard plan
    /// balanced. The benchmark's `fleet_1m` workload, the scale-point
    /// differentials and `century-serve`'s `scaled` scenario all build
    /// this shape.
    pub fn scaled(seed: u64, devices: usize) -> Self {
        FleetConfig {
            arms: (0..SCALE_ARMS)
                .map(|_| ArmConfig::paper_owned_154((devices / SCALE_ARMS).max(1), 2))
                .collect(),
            ..Self::paper_experiment(seed)
        }
    }

    /// Returns the configuration with its sampling mode replaced.
    pub fn with_sampling(mut self, sampling: SamplingMode) -> Self {
        self.sampling = sampling;
        self
    }
}

/// Simulation events (public because the `World` impl exposes the type;
/// construct them only through [`FleetSim::build`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[doc(hidden)]
pub enum Ev {
    /// Per-week end-to-end evaluation.
    WeeklyCheck,
    /// Yearly hotspot/upkeep tick.
    YearlyTick,
    /// Device hardware failure: `(arm, device)`.
    DeviceFail(usize, usize),
    /// Device replacement arrives: `(arm, device)`.
    DeviceReplace(usize, usize),
    /// Gateway hardware failure: `(arm, gateway)`.
    GatewayFail(usize, usize),
    /// Gateway repaired: `(arm, gateway)`.
    GatewayRepair(usize, usize),
    /// The arm's backhaul provider exits the business: `(arm)`.
    ProviderExit(usize),
    /// Replacement backhaul commissioned after a provider exit: `(arm)`.
    BackhaulMigrated(usize),
}

impl Ev {
    /// The global arm index this event is scoped to, or `None` for the
    /// fleet-wide tick chains ([`Ev::WeeklyCheck`], [`Ev::YearlyTick`])
    /// that every shard replays locally. The shard router
    /// ([`FleetSim::split_for_shards`]) uses this to deliver each primed
    /// event to the one shard that owns its arm.
    pub(crate) fn arm(&self) -> Option<usize> {
        match *self {
            Ev::WeeklyCheck | Ev::YearlyTick => None,
            Ev::DeviceFail(ai, _)
            | Ev::DeviceReplace(ai, _)
            | Ev::GatewayFail(ai, _)
            | Ev::GatewayRepair(ai, _)
            | Ev::ProviderExit(ai)
            | Ev::BackhaulMigrated(ai) => Some(ai),
        }
    }
}

/// Live infrastructure state of an arm.
pub(crate) enum ArmInfra {
    Owned {
        gateways: Vec<GatewayState>,
        /// True while the backhaul provider is gone and the replacement is
        /// not yet commissioned (§3.3.3 continuity risk).
        backhaul_down: bool,
        /// Whether the technology-sunset incident has been logged.
        sunset_logged: bool,
        /// Chaos: the backhaul link is flapping/offline until this time.
        flap_until: SimTime,
    },
    Federated {
        hotspots: HotspotPopulation,
        /// Per-device prepaid wallets, laid out column-wise so the weekly
        /// bulk burn touches only the balance columns.
        wallets: WalletColumn,
        /// Chaos: a regional outage blacks out every hotspot until this
        /// time.
        dark_until: SimTime,
    },
}

/// Per-arm accumulated results.
#[derive(Clone, Debug, Default)]
pub struct ArmReport {
    /// Arm display name.
    pub name: &'static str,
    /// Weeks in which at least one reading reached the endpoint.
    pub weeks_up: u64,
    /// Total weeks evaluated.
    pub weeks_total: u64,
    /// Readings delivered end-to-end.
    pub readings_delivered: u64,
    /// Readings expected (devices × reports, regardless of state).
    pub readings_expected: u64,
    /// Device hardware failures observed.
    pub device_failures: u64,
    /// Device replacements performed.
    pub device_replacements: u64,
    /// Gateway repairs performed.
    pub gateway_repairs: u64,
    /// Backhaul provider exits survived (replacement commissioned).
    pub backhaul_migrations: u64,
    /// Field labor spent on this arm.
    pub labor: PersonHours,
    /// Money spent on this arm (hardware, wallets, truck rolls).
    pub spend: Usd,
    /// Devices whose wallets exhausted (federated arm).
    pub wallets_exhausted: u64,
    /// Chaos faults injected into this arm (zero outside chaos runs).
    pub faults_injected: u64,
    /// Device age in years at each observed failure, in event order.
    pub(crate) failure_ages: Vec<f64>,
    /// The devices at the horizon, from which the censored tail of
    /// [`lifetime_observations`](Self::lifetime_observations) is derived.
    /// Empty until finalize hands over the device store's columns.
    pub(crate) census: Census,
}

/// An arm's device population at the horizon: the device store's
/// install-time and failed-flag columns (moved out of the store at
/// finalize, not copied) and the horizon itself. Each device still
/// present is a right-censored lifetime observation.
#[derive(Clone, Debug, Default)]
pub(crate) struct Census {
    pub(crate) installed_at: Vec<SimTime>,
    pub(crate) failed: Vec<bool>,
    pub(crate) horizon: SimTime,
}

impl ArmReport {
    /// The paper's end-to-end uptime metric: fraction of weeks with data.
    pub fn uptime(&self) -> f64 {
        if self.weeks_total == 0 {
            return 0.0;
        }
        self.weeks_up as f64 / self.weeks_total as f64
    }

    /// Fraction of expected readings that arrived.
    pub fn data_yield(&self) -> f64 {
        if self.readings_expected == 0 {
            return 0.0;
        }
        self.readings_delivered as f64 / self.readings_expected as f64
    }

    /// Per-incarnation device lifetimes in years, ready for
    /// [`simcore::survival::KaplanMeier`] or `reliability::fit`: every
    /// failure observed during the run, in event order, then every device
    /// present at the horizon, right-censored at its age there, in
    /// device-id order.
    pub fn lifetime_observations(&self) -> impl Iterator<Item = Observation> + '_ {
        let Census { installed_at, failed, horizon } = &self.census;
        let survivors = installed_at
            .iter()
            .zip(failed)
            .filter(|(_, &failed)| !failed)
            .map(move |(&installed, _)| censored(installed, *horizon));
        self.failure_ages.iter().map(|&age| Observation::failed(age)).chain(survivors)
    }

    /// How many [`lifetime_observations`](Self::lifetime_observations)
    /// there are, read off the census columns without deriving any age.
    fn lifetime_observation_count(&self) -> usize {
        let survivors = self.census.failed.iter().filter(|&&failed| !failed).count();
        self.failure_ages.len() + survivors
    }

    /// Calls `f` on [`lifetime_observations`](Self::lifetime_observations)
    /// as runs `(observation, n)` of `n` identical consecutive ones: each
    /// failure alone, survivors grouped by install time (one age each).
    /// Under Aggregate sampling the never-failed cohort is one such run
    /// (DESIGN.md §13).
    fn for_each_observation_run(&self, mut f: impl FnMut(Observation, usize)) {
        for &age in &self.failure_ages {
            f(Observation::failed(age), 1);
        }
        let Census { installed_at, failed, horizon } = &self.census;
        let mut installs =
            installed_at.iter().zip(failed).filter(|(_, &failed)| !failed).map(|(&at, _)| at);
        let Some(mut run) = installs.next() else { return };
        let mut n = 1;
        for at in installs {
            if at == run {
                n += 1;
            } else {
                f(censored(run, *horizon), n);
                (run, n) = (at, 1);
            }
        }
        f(censored(run, *horizon), n);
    }
}

/// The right-censored observation of a device installed at `installed`
/// and still present at `horizon`.
fn censored(installed: SimTime, horizon: SimTime) -> Observation {
    let age = if horizon <= installed { SimDuration::ZERO } else { horizon.since(installed) };
    Observation::censored(age.as_years_f64())
}

/// Full simulation output.
#[derive(Debug)]
pub struct FleetReport {
    /// Per-arm results, in configuration order.
    pub arms: Vec<ArmReport>,
    /// The experiment diary (§4.5).
    pub diary: Diary,
    /// Events processed by the engine.
    pub events_processed: u64,
    /// Engine profiling: per-kind dispatch counts, queue high-water mark,
    /// wall-clock timing. Excluded from [`digest`](FleetReport::digest) —
    /// wall-clock varies run to run.
    pub profile: EngineProfile,
    /// Final metric snapshot, name-sorted.
    pub metrics: Snapshot,
    /// Recorded sim-time spans (e.g. backhaul outages), in open order.
    pub spans: Vec<Span>,
}

impl FleetReport {
    /// The deterministic run digest: a 64-bit fold of everything the
    /// simulation *did* — ordered diary, spans, per-arm ledgers, the
    /// metric snapshot and the event count. Same seed + same code ⇒ same
    /// digest, serial or parallel; wall-clock profiling is excluded by
    /// contract. The golden-trace regression suite pins these values.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.write_str("century-fleet-digest-v1");
        d.write_u64(self.events_processed);
        d.fold_diary(&self.diary);
        d.write_u64(self.arms.len() as u64);
        for arm in &self.arms {
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
            // Each observation folds as 9 bytes: its time's bits and its
            // event flag. A run of identical ones folds in one call.
            d.write_u64(arm.lifetime_observation_count() as u64);
            arm.for_each_observation_run(|o, n| {
                let mut record = [0u8; 9];
                record[..8].copy_from_slice(&o.time.to_bits().to_le_bytes());
                record[8] = u8::from(o.event);
                d.write_repeated(&record, n);
            });
        }
        d.fold_spans(&self.spans);
        d.fold_snapshot(&self.metrics);
        d.finish()
    }

    /// Exports the run as JSON Lines: diary events, then spans, then the
    /// metric snapshot — one self-describing object per line. The bytes
    /// of [`write_jsonl`](Self::write_jsonl), rendered into one string
    /// sized up front.
    pub fn export_jsonl(&self) -> String {
        let tail = self.jsonl_tail();
        let events: usize = self.diary.entries().iter().map(jsonl::event_line_len).sum();
        let mut out = String::with_capacity(events + tail.len());
        for e in self.diary.entries() {
            jsonl::push_event(&mut out, e);
        }
        out.push_str(&tail);
        out
    }

    /// Streams [`export_jsonl`](Self::export_jsonl)'s bytes to `w` through
    /// one bounded buffer, so a century-horizon export never holds its
    /// whole body in memory.
    pub fn write_jsonl(&self, w: &mut impl io::Write) -> io::Result<()> {
        const CHUNK: usize = 64 * 1024;
        let mut buf = String::with_capacity(2 * CHUNK);
        for e in self.diary.entries() {
            jsonl::push_event(&mut buf, e);
            if buf.len() >= CHUNK {
                w.write_all(buf.as_bytes())?;
                buf.clear();
            }
        }
        buf.push_str(&self.jsonl_tail());
        w.write_all(buf.as_bytes())
    }

    /// The spans and metrics lines that follow the diary in the export.
    fn jsonl_tail(&self) -> String {
        let mut tail = jsonl::spans_to_jsonl(&self.spans);
        tail.push_str(&jsonl::snapshot_to_jsonl(&self.metrics));
        tail
    }
}

pub(crate) struct ArmState {
    /// Global arm index — the arm's position in `FleetConfig::arms`. A
    /// shard world owns an ascending *subset* of arms but keeps their
    /// global ids, so events (which carry global indices) and rng-stream
    /// derivations are identical to the serial run.
    pub(crate) id: usize,
    pub(crate) cfg: ArmConfig,
    /// The law every device lifetime of this arm is drawn from, at build
    /// and at each replacement: the archetype's BOM under Legacy, the
    /// build's shared table for its energy system in the cohort modes.
    /// Rebuilt from the config on resume, never snapshotted (like
    /// `agg_root`).
    pub(crate) lifetime: LifetimeLaw,
    /// The device population as struct-of-arrays columns, including the
    /// home-gateway lottery and the path-cohort decomposition.
    pub(crate) store: DeviceStore,
    /// The arm's own pending device events under Aggregate sampling
    /// (`None` in the other modes, whose device events go straight into
    /// the engine queue). Its earliest event sits in the engine queue,
    /// the rest here (see [`crate::due`]).
    pub(crate) due: Option<DueList>,
    pub(crate) infra: ArmInfra,
    pub(crate) report: ArmReport,
    /// The arm's private runtime stream: weekly draws, replacements and
    /// hotspot churn never touch another arm's randomness, so adding an
    /// arm to a configuration cannot perturb existing arms (the
    /// common-random-numbers property DESIGN.md calls out).
    pub(crate) rng: Rng,
    /// Root of the aggregate path's weekly cohort substreams:
    /// `agg_root.split("week", t).split("cohort", c)` is a pure function
    /// of (seed, arm, week, cohort), never of loop order or event
    /// history, so chaos cannot shift any other cohort's draws. Derived
    /// at build (`arm_rng.split("aggregate", 0)`), not snapshotted — the
    /// resume skeleton rebuilds it bit-identically from the config.
    pub(crate) agg_root: Rng,
    /// The arm's private diary. Every diary line the simulation writes is
    /// arm-scoped, so each arm logs into its own stream and finalize
    /// performs one canonical merge: stable by time, ties in ascending
    /// global-arm-id order. Serial and sharded runs share that merge, so
    /// the merged diary — and therefore the run digest — is bit-identical
    /// by construction, not by scheduling accident.
    pub(crate) diary: Diary,
    /// The arm's private span log (same ownership argument as `diary`).
    pub(crate) spans: SpanLog,
    /// Telemetry: readings delivered end-to-end (mirrors the report field
    /// so the snapshot cross-checks the ledger). Settled once at finalize
    /// from the report ledger rather than bumped mid-run.
    pub(crate) delivered: Counter,
    /// Telemetry: distribution of per-device delivered readings per week.
    pub(crate) weekly_hist: Histogram,
    /// Hot-loop buffer for `weekly_hist`: ~50k observations per 50-year
    /// run accumulate here without atomics and flush once at finalize,
    /// keeping instrumentation inside the profiling overhead budget.
    pub(crate) weekly_acc: LocalHistogram,
    /// Telemetry: the open backhaul-outage span, between a provider exit
    /// and the replacement commissioning.
    pub(crate) outage_span: Option<SpanId>,
    /// The current week's path probability per cohort, refilled by every
    /// weekly pass before use: a reused buffer rather than a per-week
    /// allocation, carrying nothing between weeks (never snapshotted).
    pub(crate) path_probs: Vec<f64>,
}

/// The simulation world.
///
/// A *serial* world owns every configured arm at its natural index. A
/// *shard* world (see [`crate::shard`]) owns an ascending subset of the
/// arms, shares the metric [`Registry`] with its sibling shards through
/// the `Arc`, and is merged back into a single report at the horizon.
pub struct FleetSim {
    pub(crate) cfg: FleetConfig,
    pub(crate) arms: Vec<ArmState>,
    pub(crate) cloud: CloudEndpoint,
    pub(crate) metrics: Arc<Registry>,
    pub(crate) chaos_applied: Counter,
    pub(crate) chaos_skipped: Counter,
    /// Device events the arms' due lists hold outside the engine queue,
    /// summed over arms: [`World::held_events`].
    pub(crate) held: usize,
}

/// The registry-free output of build phase 1 for one arm: a pure function
/// of `(config, arm index)`, computable on any thread
/// (see [`FleetSim::build`]).
struct ArmPlan {
    lifetime: LifetimeLaw,
    store: DeviceStore,
    infra: ArmInfra,
    report: ArmReport,
    /// Under Aggregate, how many build-time deaths the arm's due list
    /// holds: devices `0..n`, the ones dying before the horizon.
    held_deaths: Option<usize>,
    /// The arm's other primed events in canonical serial order: device
    /// failures (ascending id, unless held), provider exit, gateway
    /// failures.
    initial: Vec<(SimTime, Ev)>,
    rng: Rng,
    agg_root: Rng,
}

/// One build's lifetime tables, one per device energy system in use
/// (see [`FleetSim::lifetime_tables`]); empty under Legacy sampling.
struct LifetimeTables(Vec<(EnergySystem, Arc<InverseCdf>)>);

impl LifetimeTables {
    fn get(&self, energy: EnergySystem) -> Option<&Arc<InverseCdf>> {
        self.0.iter().find(|(e, _)| *e == energy).map(|(_, table)| table)
    }

    /// The law `arm` draws its lifetimes from: its energy system's shared
    /// table when the build tabulated one (the cohort modes), else its own
    /// BOM (Legacy).
    fn law(&self, arm: &ArmConfig, env: &bom::Environment) -> LifetimeLaw {
        match self.get(arm.device_spec.energy) {
            Some(table) => LifetimeLaw::Tabulated(Arc::clone(table)),
            None => LifetimeLaw::Bom(arm.device_spec.lifetime_block(env)),
        }
    }
}

impl FleetSim {
    /// Builds the world and returns an engine primed with initial events.
    ///
    /// The build runs in two phases. Phase 1 (`plan_arm`) plans each
    /// arm — lifetime sampling, gateway deploys, the coverage lottery — as
    /// a pure function of `(seed, arm index, config)` with no shared
    /// state. A fleet of at least
    /// [`SERIAL_FALLBACK_DEVICES`](crate::shard::SERIAL_FALLBACK_DEVICES)
    /// devices plans its arms on `min(arms, available_parallelism)` scoped
    /// threads; smaller fleets plan serially, where a thread would cost
    /// more than it saves. Phase 2 (`assemble`) runs on the calling
    /// thread: it registers metrics and primes the queue in the canonical
    /// serial order, so the engine is bit-identical however phase 1 ran.
    /// The shared lifetime tables are computed once, before phase 1.
    pub fn build(cfg: FleetConfig) -> Engine<FleetSim> {
        let tables = Self::lifetime_tables(&cfg);
        let n = cfg.arms.len();
        let workers = if shard::fleet_devices(&cfg) >= shard::SERIAL_FALLBACK_DEVICES {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get).min(n)
        } else {
            1
        };
        if workers <= 1 {
            let plans = (0..n).map(|ai| Self::plan_arm(&cfg, &tables, ai)).collect();
            return Self::assemble(cfg, plans);
        }
        let mut plans: Vec<Option<ArmPlan>> = (0..n).map(|_| None).collect();
        let chunk = n.div_ceil(workers);
        std::thread::scope(|s| {
            for (w, slots) in plans.chunks_mut(chunk).enumerate() {
                let (cfg, tables) = (&cfg, &tables);
                s.spawn(move || {
                    for (off, slot) in slots.iter_mut().enumerate() {
                        *slot = Some(FleetSim::plan_arm(cfg, tables, w * chunk + off));
                    }
                });
            }
        });
        let plans = plans.into_iter().flatten().collect();
        Self::assemble(cfg, plans)
    }

    /// Phase 1 of the build: everything about arm `ai` that is a pure
    /// function of the configuration — device lifetimes, infrastructure
    /// deploys, the coverage lottery, initial spend, and the arm's primed
    /// events (in the canonical device → provider → gateway order). No
    /// registry or queue access, so arms can be planned concurrently
    /// ([`build`](Self::build)) with a bit-identical result.
    fn plan_arm(cfg: &FleetConfig, tables: &LifetimeTables, ai: usize) -> ArmPlan {
        let arm_cfg = &cfg.arms[ai];
        let root = Rng::seed_from(cfg.seed);
        let arm_rng = root.split("arm", ai as u64);
        let mut initial: Vec<(SimTime, Ev)> = Vec::new();
        let lifetime = tables.law(arm_cfg, &cfg.env);
        // Device lifetimes. Legacy samples the BOM per device from the
        // device's own substream (the original event-path contract the
        // paper-scale goldens pin); the cohort modes pre-sample the whole
        // arm's lifetimes as order statistics of their table in O(n) from
        // one "deaths" stream.
        let fails: Vec<SimTime> = match &lifetime {
            LifetimeLaw::Bom(_) => (0..arm_cfg.devices)
                .map(|di| {
                    let mut drng = arm_rng.split("device", di as u64);
                    DeviceState::deploy(arm_cfg.device_spec, &lifetime, SimTime::ZERO, &mut drng)
                        .fails_at
                })
                .collect(),
            LifetimeLaw::Tabulated(table) => {
                Self::cohort_death_times(table, arm_cfg.devices, &arm_rng)
            }
        };
        // Aggregate arms hold their own device events: order-statistic
        // deaths ascend with the device id, so the ones before the horizon
        // are a prefix.
        let held_deaths = (cfg.sampling == SamplingMode::Aggregate).then(|| {
            debug_assert!(fails.windows(2).all(|w| w[0] <= w[1]), "deaths ascend");
            fails.partition_point(|at| at.as_secs() < cfg.horizon.as_secs())
        });
        if held_deaths.is_none() {
            for (di, &at) in fails.iter().enumerate() {
                if at.as_secs() < cfg.horizon.as_secs() {
                    initial.push((at, Ev::DeviceFail(ai, di)));
                }
            }
        }
        // Infrastructure.
        // §3.3.3: the provider may terminate service within the horizon.
        if let ArmKind::Owned { spec, .. } = &arm_cfg.kind {
            let mut prng = arm_rng.split("provider", 0);
            let exit = SimDuration::from_years_f64(spec.provider.sample_exit_years(&mut prng));
            if exit.as_secs() < cfg.horizon.as_secs() {
                initial.push((SimTime::ZERO + exit, Ev::ProviderExit(ai)));
            }
        }
        let infra = match &arm_cfg.kind {
            ArmKind::Owned { gateways, spec } => {
                let mut gws = Vec::with_capacity(*gateways);
                for gi in 0..*gateways {
                    let mut grng = arm_rng.split("gateway", gi as u64);
                    let gw = GatewayState::deploy(*spec, SimTime::ZERO, &cfg.env, &mut grng);
                    if gw.fails_at.as_secs() < cfg.horizon.as_secs() {
                        initial.push((gw.fails_at, Ev::GatewayFail(ai, gi)));
                    }
                    gws.push(gw);
                }
                ArmInfra::Owned {
                    gateways: gws,
                    backhaul_down: false,
                    sunset_logged: false,
                    flap_until: SimTime::ZERO,
                }
            }
            ArmKind::Federated { hotspots, wallet_dollars } => ArmInfra::Federated {
                hotspots: hotspots.clone(),
                wallets: WalletColumn::provision_uniform(arm_cfg.devices, *wallet_dollars),
                dark_until: SimTime::ZERO,
            },
        };
        // Figure 1: each device relies on one or two gateways.
        let (cohort, cohort_homes) = match &arm_cfg.kind {
            ArmKind::Owned { gateways, .. } if *gateways > 0 => home_cohorts(
                arm_cfg.devices,
                *gateways,
                arm_cfg.dual_homed_fraction,
                &mut arm_rng.split("homes", 0),
            ),
            _ if arm_cfg.devices > 0 => (vec![0; arm_cfg.devices], vec![Vec::new()]),
            _ => (Vec::new(), Vec::new()),
        };
        let store = DeviceStore::build(arm_cfg.device_spec, fails, cohort, cohort_homes);
        let mut report = ArmReport { name: arm_cfg.name, ..ArmReport::default() };
        // Initial spend: device hardware + wallets + gateway hardware.
        let device_cost = Usd::from_dollars(80) * arm_cfg.devices as i64;
        report.spend += device_cost;
        match &arm_cfg.kind {
            ArmKind::Owned { gateways, .. } => {
                report.spend += Usd::from_dollars(150) * *gateways as i64;
            }
            ArmKind::Federated { wallet_dollars, .. } => {
                report.spend += *wallet_dollars * arm_cfg.devices as i64;
            }
        }
        ArmPlan {
            lifetime,
            store,
            infra,
            report,
            held_deaths,
            initial,
            rng: arm_rng.split("runtime", 0),
            agg_root: arm_rng.split("aggregate", 0),
        }
    }

    /// The cohort modes' lifetime tables: a numeric inverse of each
    /// device archetype's closed-form survival product, tabulated once per
    /// build for every energy system the arms use (the environment and
    /// horizon are the build's own). Each arm's build-time deaths and
    /// replacements both draw from its system's table. Legacy samples the
    /// BOM and needs none.
    fn lifetime_tables(cfg: &FleetConfig) -> LifetimeTables {
        let mut tables = LifetimeTables(Vec::new());
        if cfg.sampling == SamplingMode::Legacy {
            return tables;
        }
        // Tabulate past the horizon: clamped mass beyond t_max belongs to
        // devices that outlive the run either way.
        let t_max = 200.0_f64.max(cfg.horizon.as_years_f64() * 2.0);
        for arm in &cfg.arms {
            let energy = arm.device_spec.energy;
            if tables.get(energy).is_none() {
                let block = arm.device_spec.lifetime_block(&cfg.env);
                #[allow(clippy::expect_used)]
                let table = LifetimeLaw::table(&block, t_max)
                    // simlint: allow(P001, the survival product is finite and non-increasing by construction)
                    .expect("lifetime CDF is finite and monotone");
                tables.0.push((energy, table));
            }
        }
        tables
    }

    /// Cohort-mode device lifetimes for one arm of `devices`: sorted
    /// uniforms (exponential spacings, O(n)) mapped through the
    /// archetype's lifetime table in one forward walk over its knots.
    /// Device `i` receives the `i`-th order statistic — exchangeable with
    /// `n` independent draws for every arm-level summary statistic, and
    /// two orders of magnitude cheaper than a million `sample_ttf`
    /// min-of-three calls.
    fn cohort_death_times(table: &InverseCdf, devices: usize, arm_rng: &Rng) -> Vec<SimTime> {
        let mut death_rng = arm_rng.split("deaths", 0);
        let us = sorted_uniforms(devices, &mut death_rng);
        table
            .invert_ascending(&us)
            .map(|t| SimTime::ZERO.saturating_add(SimDuration::from_years_f64(t)))
            .collect()
    }

    /// Phase 2 of the build: serial assembly of planned arms into the
    /// world — metric registration (in arm order, so the registry is
    /// identical to the serial build's), diary creation, and queue
    /// priming in the canonical serial order.
    fn assemble(cfg: FleetConfig, plans: Vec<ArmPlan>) -> Engine<FleetSim> {
        let root = Rng::seed_from(cfg.seed);
        let metrics = Arc::new(Registry::new());
        // Chaos counters are pre-registered (at zero) in *every* run, so a
        // zero-fault chaos run snapshots — and therefore digests —
        // identically to a plain run.
        #[allow(clippy::expect_used)]
        // simlint: allow(P001, fresh registry; fixed names cannot collide)
        let chaos_applied = metrics.counter("chaos.applied").expect("fresh registry");
        #[allow(clippy::expect_used)]
        // simlint: allow(P001, fresh registry; fixed names cannot collide)
        let chaos_skipped = metrics.counter("chaos.skipped").expect("fresh registry");

        let mut arms = Vec::with_capacity(plans.len());
        let mut primed = Vec::with_capacity(plans.len());
        for (ai, plan) in plans.into_iter().enumerate() {
            let arm_cfg = &cfg.arms[ai];
            primed.push((plan.held_deaths, plan.initial));
            let mut arm_diary = Diary::new();
            arm_diary.log(
                SimTime::ZERO,
                Severity::Info,
                Tier::System,
                format!("arm '{}' deployed: {} devices", arm_cfg.name, arm_cfg.devices),
            );
            // Per-arm metric handles; the index prefix makes names unique
            // even if two arms share a display name.
            #[allow(clippy::expect_used)]
            let delivered = metrics
                .counter(&format!("fleet.arm{ai}.{}.readings_delivered", arm_cfg.name))
                // simlint: allow(P001, the arm-index prefix makes the name unique)
                .expect("index-prefixed names are unique");
            #[allow(clippy::expect_used)]
            // simlint: allow(P001, constant bucket layout; infallible by construction)
            let weekly_buckets = Buckets::linear(0.0, 24.0, 7).expect("static bucket layout");
            #[allow(clippy::expect_used)]
            let weekly_hist = metrics
                .histogram(
                    &format!("fleet.arm{ai}.{}.weekly_deliveries", arm_cfg.name),
                    weekly_buckets.clone(),
                )
                // simlint: allow(P001, the arm-index prefix makes the name unique)
                .expect("index-prefixed names are unique");
            let weekly_acc = LocalHistogram::new(weekly_buckets);
            arms.push(ArmState {
                id: ai,
                cfg: arm_cfg.clone(),
                lifetime: plan.lifetime,
                store: plan.store,
                due: None,
                infra: plan.infra,
                report: plan.report,
                rng: plan.rng,
                agg_root: plan.agg_root,
                diary: arm_diary,
                spans: SpanLog::new(),
                delivered,
                weekly_hist,
                weekly_acc,
                outage_span: None,
                path_probs: Vec::new(),
            });
        }

        let mut cloud_rng = root.split("cloud", 0);
        let cloud = CloudEndpoint::paper_default(cfg.horizon, &mut cloud_rng);

        let world = FleetSim { cfg, arms, cloud, metrics, chaos_applied, chaos_skipped, held: 0 };
        let mut engine = Engine::new(world);
        // Prime in the canonical order — the fleet ticks, then per arm its
        // deaths (ascending device id), provider exit and gateway failures
        // — so sequence numbers, and every same-second tie, follow it. An
        // Aggregate arm reserves its deaths' seqs as one block in their
        // slot and holds the deaths itself.
        engine.schedule_at(SimTime::ZERO + SimDuration::from_weeks(1), Ev::WeeklyCheck);
        engine.schedule_at(SimTime::ZERO + SimDuration::from_years(1), Ev::YearlyTick);
        for (ai, (held_deaths, initial)) in primed.into_iter().enumerate() {
            if let Some(deaths) = held_deaths {
                let seq0 = engine.reserve_seqs(deaths as u64);
                engine.world_mut().arms[ai].due = Some(DueList::primed(deaths, seq0));
            }
            for (at, ev) in initial {
                engine.schedule_at(at, ev);
            }
        }
        Self::queue_arm_heads(&mut engine);
        engine
    }

    /// Hands each due list's earliest event to the engine queue under its
    /// reserved seq, then recounts the held events. Run once the due lists
    /// are primed (build) or refilled (resume); afterwards the device
    /// handlers hand over each arm's next event as its last one fires.
    fn queue_arm_heads(engine: &mut Engine<FleetSim>) {
        let world = engine.world_mut();
        let heads: Vec<(SimTime, u64, Ev)> = world
            .arms
            .iter_mut()
            .filter_map(|arm| arm.due.as_mut()?.pop(arm.id, &arm.store))
            .collect();
        world.recount_held();
        for (at, seq, ev) in heads {
            engine.schedule_reserved(at, seq, ev);
        }
    }

    /// Recomputes [`held`](Self::held) from the arms this world owns.
    pub(crate) fn recount_held(&mut self) {
        self.held = self.arms.iter().filter_map(|arm| arm.due.as_ref()).map(DueList::len).sum();
    }

    /// The engine's checkpoint with the device events the arms' due lists
    /// hold merged in: every pending event in one `(time, seq)` order,
    /// the list the per-event path's queue would hold. What a snapshot
    /// stores; [`resume`](Self::resume) takes it back.
    pub(crate) fn checkpoint(engine: &Engine<FleetSim>) -> EngineCheckpoint<Ev> {
        let mut cp = engine.checkpoint();
        let held = engine.world().arms.iter().filter_map(|arm| {
            arm.due.as_ref().map(|due| due.events(arm.id, &arm.store))
        });
        cp.events.extend(held.flatten());
        cp.events.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        cp
    }

    /// Rebuilds an engine around `world` from a [`checkpoint`](Self::checkpoint):
    /// the device events of each arm that keeps a due list go back into
    /// it, emptied first, under their seqs; the rest are queued; then each
    /// arm's earliest held event is queued too.
    ///
    /// # Errors
    ///
    /// As [`Engine::resume`], for the events that reach the queue.
    pub(crate) fn resume(
        mut world: FleetSim,
        mut cp: EngineCheckpoint<Ev>,
    ) -> Result<Engine<FleetSim>, ResumeError> {
        for arm in &mut world.arms {
            if let Some(due) = &mut arm.due {
                *due = DueList::default();
            }
        }
        cp.events.retain(|&(at, seq, ev)| {
            let li = ev.arm().and_then(|ai| world.local_slot(ai));
            let due = li.and_then(|li| world.arms[li].due.as_mut());
            !due.is_some_and(|due| due.push(at, seq, ev))
        });
        let mut engine = Engine::resume(world, cp, resolve_event_kind)?;
        Self::queue_arm_heads(&mut engine);
        Ok(engine)
    }

    /// Schedules arm slot `li`'s device event `ev` at `at`: held in the
    /// arm's due list under a seq reserved now, or straight into the
    /// engine queue for an arm without one.
    fn schedule_device_event(&mut self, li: usize, at: SimTime, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
        match &mut self.arms[li].due {
            Some(due) => {
                due.push(at, ctx.reserve_seq(), ev);
                self.held += 1;
            }
            None => ctx.schedule_at(at, ev),
        }
    }

    /// After one of arm slot `li`'s device events fired: hands the arm's
    /// next held device event to the engine queue. The arm's earliest
    /// event is always the only one queued, so this keeps it there.
    fn queue_next_device_event(&mut self, li: usize, ctx: &mut Ctx<'_, Ev>) {
        let arm = &mut self.arms[li];
        let Some(due) = &mut arm.due else { return };
        if let Some((at, seq, ev)) = due.pop(arm.id, &arm.store) {
            self.held -= 1;
            ctx.schedule_reserved(at, seq, ev);
        }
    }

    /// Runs the configured experiment to its horizon and returns the report.
    pub fn run(cfg: FleetConfig) -> FleetReport {
        let horizon = SimTime::ZERO + cfg.horizon;
        let mut engine = Self::build(cfg);
        engine.run_until(horizon);
        Self::into_report(engine, horizon)
    }

    /// Finalizes a finished engine into a [`FleetReport`]: takes each
    /// arm's survivor census and collects the per-arm ledgers. Shared by
    /// [`run`], [`Run::execute`](crate::run::Run::execute) and external callers
    /// that step an engine themselves, so reports stay structurally
    /// identical.
    ///
    /// [`run`]: FleetSim::run
    pub fn into_report(engine: Engine<FleetSim>, horizon: SimTime) -> FleetReport {
        let events = engine.events_processed();
        let profile = engine.profile().clone();
        engine.into_world().finalize(events, profile, horizon)
    }

    /// The one finalize path every runner — serial, hooked, sharded —
    /// funnels through: hands each report its survivor census, settles
    /// the deferred per-arm metrics, and performs the canonical merge of
    /// the per-arm diaries and span logs (stable by time, ties in
    /// ascending global arm id). Because the merge order is a pure
    /// function of per-arm streams, a sharded run that reproduced each
    /// arm's stream exactly produces a bit-identical report here.
    pub(crate) fn finalize(
        mut self,
        events: u64,
        profile: EngineProfile,
        horizon: SimTime,
    ) -> FleetReport {
        // Arms in ascending global id: the identity for serial worlds,
        // and the merge order for arms regrouped from shards.
        self.arms.sort_by_key(|a| a.id);
        // Settle the per-arm delivery metrics the hot loop deferred: the
        // counter from the report ledger, the histogram from its local
        // accumulator. Local f64 accumulation starting from 0.0 matches
        // the sequential atomic-add order bit-for-bit, so digests are
        // unchanged by the batching.
        for arm in &mut self.arms {
            arm.delivered.add(arm.report.readings_delivered);
            let flushed = arm.weekly_acc.flush_into(&arm.weekly_hist);
            debug_assert!(flushed, "accumulator layout matches by construction");
        }
        let metrics = self.metrics.snapshot();
        // Keep only what the report needs from each arm, so the rest of
        // each device store is freed before the diary merge allocates its
        // output. The census right-censors every incarnation whose failure
        // event never ran — including one failing exactly at the horizon,
        // which is never scheduled (`fails_at < horizon`) and so is never
        // observed failed.
        let mut arms = Vec::with_capacity(self.arms.len());
        let mut diaries = Vec::with_capacity(self.arms.len());
        let mut spans: Vec<Span> = Vec::new();
        for arm in self.arms {
            let (installed_at, failed) = arm.store.into_census();
            arms.push(ArmReport { census: Census { installed_at, failed, horizon }, ..arm.report });
            diaries.push(arm.diary);
            spans.extend(arm.spans.spans().iter().cloned());
        }
        spans.sort_by_key(|s| s.start);
        // Canonical merge. `Diary::merged` orders by time with ties in
        // input (ascending arm) order, so same-second entries from
        // different arms always come out in ascending arm order —
        // regardless of which order the serial event loop (or which shard)
        // happened to write them in.
        let diary = Diary::merged(diaries);
        FleetReport {
            arms,
            diary,
            events_processed: events,
            profile,
            metrics,
            spans,
        }
    }

    /// Event kinds every shard replays locally instead of owning: the
    /// fleet-wide tick chains. [`Self::merge_shards_onto`] must not sum
    /// their dispatch counts across shards — shard 0's copy is the
    /// canonical one — so the merged profile (and `events_processed`)
    /// matches the serial run exactly.
    pub(crate) const DUPLICATED_KINDS: &'static [&'static str] = &["weekly-check", "yearly-tick"];

    /// Splits a freshly built (primed, not yet run) engine into one engine
    /// per shard group.
    ///
    /// `groups[si]` lists the global arm ids shard `si` owns; every arm
    /// must appear in exactly one group and groups must be non-empty. The
    /// split preserves determinism in three ways:
    ///
    /// 1. **Arms** move whole (with their private rng/diary/spans) into
    ///    their owner shard, keeping ascending-id order within the shard,
    ///    so each arm's random stream is untouched.
    /// 2. **Queued events** move into the owner shard's queue under their
    ///    serial sequence numbers, and every shard's counter resumes at the
    ///    serial one, so relative order among a shard's events — queued,
    ///    held in its arms' due lists, or scheduled later — is exactly the
    ///    serial order. Tick-chain events ([`Ev::arm`] = `None`) are cloned
    ///    into every shard so each shard evaluates its own arms weekly.
    /// 3. **Shared telemetry**: all shards keep handles to the same
    ///    [`Registry`] through the `Arc`; counter increments are atomic
    ///    adds, which commute, and histogram flushes happen per-arm at
    ///    finalize — so the merged snapshot is order-independent.
    pub(crate) fn split_for_shards(
        engine: Engine<FleetSim>,
        groups: &[Vec<usize>],
    ) -> Vec<Engine<FleetSim>> {
        let pending = engine.checkpoint();
        let FleetSim { cfg, arms, cloud, metrics, chaos_applied, chaos_skipped, .. } =
            engine.into_world();
        // Owner map: global arm id -> shard slot.
        let mut owner = vec![0usize; arms.len()];
        for (si, group) in groups.iter().enumerate() {
            for &ai in group {
                owner[ai] = si;
            }
        }
        // Partition arms, preserving ascending-id order within each shard.
        let mut shard_arms: Vec<Vec<ArmState>> = (0..groups.len()).map(|_| Vec::new()).collect();
        for arm in arms {
            shard_arms[owner[arm.id]].push(arm);
        }
        // Route the queued events to their owners, seqs kept.
        let mut shard_events: Vec<Vec<(SimTime, u64, Ev)>> =
            (0..groups.len()).map(|_| Vec::new()).collect();
        for (at, seq, ev) in pending.events {
            match ev.arm() {
                Some(ai) => shard_events[owner[ai]].push((at, seq, ev)),
                None => {
                    for events in &mut shard_events {
                        events.push((at, seq, ev));
                    }
                }
            }
        }
        let mut engines = Vec::with_capacity(groups.len());
        for (si, arms) in shard_arms.into_iter().enumerate() {
            let world = FleetSim {
                cfg: cfg.clone(),
                arms,
                cloud: cloud.clone(),
                metrics: Arc::clone(&metrics),
                chaos_applied: chaos_applied.clone(),
                chaos_skipped: chaos_skipped.clone(),
                held: 0,
            };
            let mut engine = Engine::new(world);
            engine.world_mut().recount_held();
            engine.reserve_seqs(pending.next_seq);
            for (at, seq, ev) in shard_events[si].drain(..) {
                engine.schedule_reserved(at, seq, ev);
            }
            engines.push(engine);
        }
        engines
    }

    /// Merges finished shard engines (in shard-index order) back into one
    /// [`FleetReport`], bit-identical to the serial report.
    ///
    /// Arms are regrouped and [`finalize`](Self::finalize) re-sorts them
    /// into ascending global-id order, so the canonical diary/span merge
    /// and the per-arm ledgers come out exactly as a serial run's would.
    /// Profiles fold via [`EngineProfile::absorb_shard`]: per-arm event
    /// kinds sum (each is owned by one shard), the replayed tick chains
    /// ([`DUPLICATED_KINDS`](Self::DUPLICATED_KINDS)) keep shard 0's
    /// canonical count, and `events_processed` is recomputed from the
    /// merged dispatch counts. Returns `None` only for an empty input.
    ///
    /// Shard profiles fold onto `base` — the dispatch counts a resumed
    /// run accrued *before* its checkpoint, which
    /// [`split_for_shards`](Self::split_for_shards) discards (shard
    /// engines start with fresh profiles). Fresh runs pass a default
    /// base; resumed sharded runs pass the restored serial profile so
    /// `events_processed` still matches the uninterrupted serial run
    /// exactly.
    pub(crate) fn merge_shards_onto(
        base: EngineProfile,
        engines: Vec<Engine<FleetSim>>,
        horizon: SimTime,
    ) -> Option<FleetReport> {
        let mut engines = engines.into_iter();
        let first = engines.next()?;
        let mut profile = base;
        // The first shard absorbs with nothing deduplicated: its tick
        // chains are the canonical copies.
        profile.absorb_shard(first.profile(), &[]);
        let mut world = first.into_world();
        for engine in engines {
            profile.absorb_shard(engine.profile(), Self::DUPLICATED_KINDS);
            world.arms.extend(engine.into_world().arms);
        }
        let events = profile.total_dispatched();
        Some(world.finalize(events, profile, horizon))
    }

    /// Evaluates one week for one arm: delivers readings, burns credits,
    /// and updates the uptime ledger. Dispatches on the configured
    /// [`SamplingMode`]; all three paths share the event handlers, the
    /// store, and the ledger shape.
    fn weekly_eval(&mut self, li: usize, now: SimTime) {
        match self.cfg.sampling {
            SamplingMode::Legacy => self.weekly_eval_legacy(li, now),
            SamplingMode::Aggregate => self.weekly_eval_cohort(li, now),
            SamplingMode::Reference => self.weekly_eval_reference(li, now),
        }
    }

    /// The original per-device weekly pass, bit-for-bit (the paper-scale
    /// goldens pin its digests), now reading the SoA store.
    ///
    /// **Common-random-numbers discipline:** exactly one normal draw is
    /// consumed per *alive* device per week, whether or not the path is up.
    /// Path state (cloud, backhaul, gateways, hotspots, chaos injections)
    /// only scales the per-packet probability the draw is applied to, so a
    /// fault schedule can never shift another entity's random stream — the
    /// property the metamorphic monotonicity tests depend on.
    fn weekly_eval_legacy(&mut self, li: usize, now: SimTime) {
        let cloud_up = self.cloud.up_at(now);
        let arm = &mut self.arms[li];
        let reports = arm.cfg.device_spec.reports_per_week();
        arm.report.weeks_total += 1;
        arm.report.readings_expected += reports * arm.cfg.devices as u64;
        // Path state is per cohort, fixed for the week, and draw-free:
        // computed once here, it leaves the per-device draw order alone.
        Self::refresh_path_probs(arm, now);
        let mut any_delivered = false;
        for di in 0..arm.store.len() {
            if !arm.store.alive_at(di, now) {
                continue;
            }
            // One unconditional draw per alive device (CRN; see above).
            let z = simcore::dist::standard_normal(&mut arm.rng);
            // Figure 1's reliance structure: the device's own gateways
            // must forward (its cohort's path probability).
            let path_p = arm.path_probs[arm.store.cohort_of(di)];
            let p_packet = if !cloud_up || arm.store.stuck_at(di, now) {
                0.0
            } else {
                path_p * arm.cfg.device_spec.energy_availability
            };
            // Sample the delivered count with a normal approximation of the
            // binomial (reports is 168 for the paper cadence).
            let delivered = if p_packet <= 0.0 {
                0
            } else {
                let mean = reports as f64 * p_packet;
                let sd = (reports as f64 * p_packet * (1.0 - p_packet)).sqrt();
                (mean + sd * z).round().clamp(0.0, reports as f64) as u64
            };
            // Federated arm: credits burn per delivered packet.
            let delivered = match &mut arm.infra {
                ArmInfra::Federated { wallets, .. } => {
                    // O(1) bulk burn, semantically identical to burning
                    // per packet and stopping at the first failure.
                    let paid = wallets.burn_packets(
                        di,
                        now,
                        arm.cfg.device_spec.payload.len() as u32,
                        delivered,
                    );
                    if wallets.exhausted_at(di) == Some(now) {
                        arm.report.wallets_exhausted += 1;
                        arm.diary.log(
                            now,
                            Severity::Incident,
                            Tier::Backhaul,
                            Msg::device(arm.cfg.name, di, DeviceEvent::WalletExhausted),
                        );
                    }
                    paid
                }
                ArmInfra::Owned { .. } => delivered,
            };
            // A byzantine device transmits (and pays) as usual, but its
            // readings are garbage: nothing usable reaches the endpoint.
            let delivered = if arm.store.byzantine_at(di, now) { 0 } else { delivered };
            arm.weekly_acc.observe(delivered as f64);
            if delivered > 0 {
                any_delivered = true;
                arm.report.readings_delivered += delivered;
            }
        }
        if any_delivered {
            arm.report.weeks_up += 1;
        }
    }

    /// Refills `arm.path_probs` with this week's path probability per
    /// cohort, shared by all three weekly passes: owned cohorts need any
    /// home gateway forwarding plus the backhaul up; federated cohorts ride
    /// the hotspot census (or a chaos blackout).
    fn refresh_path_probs(arm: &mut ArmState, now: SimTime) {
        let ncoh = arm.store.cohort_count();
        arm.path_probs.clear();
        match &arm.infra {
            ArmInfra::Owned { gateways, backhaul_down, flap_until, .. } => {
                let backhaul_up = !*backhaul_down && now >= *flap_until;
                arm.path_probs.extend((0..ncoh).map(|c| {
                    let heard = arm
                        .store
                        .cohort_homes(c)
                        .iter()
                        .any(|&g| gateways.get(g).is_some_and(|gw| gw.forwarding_at(now)));
                    if heard && backhaul_up {
                        arm.cfg.per_packet_delivery
                    } else {
                        0.0
                    }
                }));
            }
            ArmInfra::Federated { hotspots, dark_until, .. } => {
                let p = if now < *dark_until {
                    0.0
                } else {
                    hotspots.delivery_probability(arm.cfg.per_packet_delivery)
                };
                arm.path_probs.resize(ncoh, p);
            }
        }
    }

    /// One binomial draw per cohort: the cohort's weekly delivered total
    /// over `participants × reports` trials, from the substream pinned to
    /// `(arm, week, cohort)`. Returns `(base, rem)` per cohort — every
    /// participant receives `base`, and the first `rem` participants in
    /// ascending device-id order receive one extra.
    fn cohort_totals(
        arm: &ArmState,
        now: SimTime,
        cloud_up: bool,
        participants: &[u64],
        reports: u64,
    ) -> (Vec<u64>, Vec<u64>) {
        let energy = arm.cfg.device_spec.energy_availability;
        let ncoh = arm.path_probs.len();
        let mut base = vec![0u64; ncoh];
        let mut rem = vec![0u64; ncoh];
        for (c, &p) in arm.path_probs.iter().enumerate() {
            let pe = if cloud_up { p * energy } else { 0.0 };
            let trials = participants[c] * reports;
            if trials == 0 || pe <= 0.0 {
                continue;
            }
            let total = match Binomial::new(trials, pe) {
                Ok(b) => {
                    let mut crng =
                        arm.agg_root.split("week", now.as_secs()).split("cohort", c as u64);
                    b.sample(&mut crng)
                }
                Err(_) => 0,
            };
            base[c] = total / participants[c];
            rem[c] = total % participants[c];
        }
        (base, rem)
    }

    /// The aggregate weekly pass: one binomial draw per (cohort × week)
    /// instead of one normal draw per device, shares distributed in
    /// ascending device-id order, wallet burns against the federated
    /// column, and the weekly histogram fed by exact batched counts.
    ///
    /// Participation is the *flag* state (`present && !stuck`), which the
    /// incrementally-maintained cohort alive counts track event-exactly;
    /// the per-device reference pass recomputes the same sets naively, so
    /// the differential harness pins this pass's bookkeeping — cohort
    /// counters, stuck-index correction, bulk burns, `observe_n` — against
    /// a loop with none of it.
    fn weekly_eval_cohort(&mut self, li: usize, now: SimTime) {
        let cloud_up = self.cloud.up_at(now);
        let arm = &mut self.arms[li];
        let reports = arm.cfg.device_spec.reports_per_week();
        arm.report.weeks_total += 1;
        arm.report.readings_expected += reports * arm.cfg.devices as u64;
        let payload_len = arm.cfg.device_spec.payload.len() as u32;

        Self::refresh_path_probs(arm, now);
        let ncoh = arm.path_probs.len();

        // Participants per cohort: the incremental alive counts minus the
        // currently-stuck present devices (corrected over the short
        // stuck-device index, not the population).
        let mut participants: Vec<u64> = (0..ncoh).map(|c| arm.store.cohort_alive(c)).collect();
        let mut stuck_present = 0u64;
        for i in 0..arm.store.stuck_ids().len() {
            let di = arm.store.stuck_ids()[i];
            if arm.store.present(di) && arm.store.stuck_at(di, now) {
                participants[arm.store.cohort_of(di)] -= 1;
                stuck_present += 1;
            }
        }

        let (base, rem) = Self::cohort_totals(arm, now, cloud_up, &participants, reports);

        // Owned arms with nobody stuck or byzantine: every participant's
        // delivered count *is* its share, so the histogram counts and the
        // ledger follow arithmetically from (participants, base, rem) with
        // no per-device work. The general scan below stays the
        // oracle-checked path for federated wallets and active chaos.
        if stuck_present == 0
            && matches!(arm.infra, ArmInfra::Owned { .. })
            && !arm.store.any_byzantine_at(now)
        {
            let mut counts = vec![0u64; reports as usize + 1];
            let mut delivered_total = 0u64;
            for c in 0..ncoh {
                counts[base[c] as usize] += participants[c] - rem[c];
                if rem[c] > 0 {
                    counts[base[c] as usize + 1] += rem[c];
                }
                delivered_total += base[c] * participants[c] + rem[c];
            }
            if delivered_total > 0 {
                arm.report.readings_delivered += delivered_total;
                arm.report.weeks_up += 1;
            }
            for (v, &n) in counts.iter().enumerate() {
                if n > 0 {
                    arm.weekly_acc.observe_n(v as f64, n);
                }
            }
            return;
        }

        // Single O(n) scan in ascending device-id order: assign shares,
        // burn credits, accumulate exact per-value histogram counts.
        let mut rank = vec![0u64; ncoh];
        let mut value_counts = vec![0u64; reports as usize + 1];
        let mut any_delivered = false;
        for di in 0..arm.store.len() {
            if !arm.store.present(di) {
                continue;
            }
            if stuck_present > 0 && arm.store.stuck_at(di, now) {
                // A stuck device is alive but transmits nothing; it still
                // observes a zero week, exactly as the per-device paths do.
                value_counts[0] += 1;
                continue;
            }
            let c = arm.store.cohort_of(di);
            let share = base[c] + u64::from(rank[c] < rem[c]);
            rank[c] += 1;
            let delivered = match &mut arm.infra {
                ArmInfra::Federated { wallets, .. } => {
                    let paid = wallets.burn_packets(di, now, payload_len, share);
                    if wallets.exhausted_at(di) == Some(now) {
                        arm.report.wallets_exhausted += 1;
                        arm.diary.log(
                            now,
                            Severity::Incident,
                            Tier::Backhaul,
                            Msg::device(arm.cfg.name, di, DeviceEvent::WalletExhausted),
                        );
                    }
                    paid
                }
                ArmInfra::Owned { .. } => share,
            };
            // Byzantine devices transmit (and pay) but deliver garbage.
            let delivered = if arm.store.byzantine_at(di, now) { 0 } else { delivered };
            value_counts[delivered as usize] += 1;
            if delivered > 0 {
                any_delivered = true;
                arm.report.readings_delivered += delivered;
            }
        }
        // Batched histogram feed: every observed value is an integer
        // ≤ reports, so `observe_n` reproduces the per-device observe
        // sequence bit-for-bit regardless of batching order (see
        // `LocalHistogram::observe_n`).
        for (v, &n) in value_counts.iter().enumerate() {
            if n > 0 {
                arm.weekly_acc.observe_n(v as f64, n);
            }
        }
        if any_delivered {
            arm.report.weeks_up += 1;
        }
    }

    /// The reference weekly pass: identical *semantics* to
    /// [`weekly_eval_cohort`](Self::weekly_eval_cohort) — same cohort
    /// substreams, same binomial totals, same id-order share distribution
    /// — implemented the naive way: participants recounted by a fresh
    /// population scan, device rows materialized, wallets round-tripped
    /// through scalar [`Wallet`] ops, and the histogram observed one
    /// device at a time. Everything the aggregate pass does incrementally
    /// or in bulk, this pass does from first principles, so an exact
    /// digest match is a proof of the aggregate bookkeeping.
    fn weekly_eval_reference(&mut self, li: usize, now: SimTime) {
        let cloud_up = self.cloud.up_at(now);
        let arm = &mut self.arms[li];
        let reports = arm.cfg.device_spec.reports_per_week();
        arm.report.weeks_total += 1;
        arm.report.readings_expected += reports * arm.cfg.devices as u64;
        let payload_len = arm.cfg.device_spec.payload.len() as u32;

        Self::refresh_path_probs(arm, now);
        let ncoh = arm.path_probs.len();

        // Participants recounted from scratch (the oracle for the
        // aggregate pass's incremental counts + stuck-index correction).
        let mut participants = vec![0u64; ncoh];
        for di in 0..arm.store.len() {
            let dev = arm.store.row(di);
            if !dev.failed && !dev.stuck_at(now) {
                participants[arm.store.cohort_of(di)] += 1;
            }
        }

        let (base, rem) = Self::cohort_totals(arm, now, cloud_up, &participants, reports);

        let mut rank = vec![0u64; ncoh];
        let mut any_delivered = false;
        for di in 0..arm.store.len() {
            let dev = arm.store.row(di);
            if dev.failed {
                continue;
            }
            if dev.stuck_at(now) {
                arm.weekly_acc.observe(0.0);
                continue;
            }
            let c = arm.store.cohort_of(di);
            let share = base[c] + u64::from(rank[c] < rem[c]);
            rank[c] += 1;
            let delivered = match &mut arm.infra {
                ArmInfra::Federated { wallets, .. } => {
                    // Scalar wallet round-trip: materialize, burn via the
                    // per-wallet path, write back.
                    let Some(mut w) = wallets.get(di) else { continue };
                    let paid = w.burn_packets(now, payload_len, share);
                    wallets.set(di, &w);
                    if w.exhausted_at() == Some(now) {
                        arm.report.wallets_exhausted += 1;
                        arm.diary.log(
                            now,
                            Severity::Incident,
                            Tier::Backhaul,
                            Msg::device(arm.cfg.name, di, DeviceEvent::WalletExhausted),
                        );
                    }
                    paid
                }
                ArmInfra::Owned { .. } => share,
            };
            let delivered = if dev.byzantine_at(now) { 0 } else { delivered };
            arm.weekly_acc.observe(delivered as f64);
            if delivered > 0 {
                any_delivered = true;
                arm.report.readings_delivered += delivered;
            }
        }
        if any_delivered {
            arm.report.weeks_up += 1;
        }
    }

    /// Number of arms this world owns (fault planners size their targets
    /// by this; equal to the configured arm count for serial worlds).
    pub fn arm_count(&self) -> usize {
        self.arms.len()
    }

    /// Resolves a *global* arm index to this world's slot for it. Serial
    /// worlds are identity-indexed (the fast path); shard worlds own an
    /// ascending subset and fall back to a binary search on the stable
    /// global id. `None` means another shard owns the arm — or it never
    /// existed.
    fn local_slot(&self, ai: usize) -> Option<usize> {
        match self.arms.get(ai) {
            Some(arm) if arm.id == ai => Some(ai),
            _ => self.arms.binary_search_by_key(&ai, |a| a.id).ok(),
        }
    }

    /// Mutable access to the arm with *global* index `ai`, if owned.
    fn local_arm(&mut self, ai: usize) -> Option<&mut ArmState> {
        let li = self.local_slot(ai)?;
        self.arms.get_mut(li)
    }

    /// Records a chaos fault whose target did not exist — the injector's
    /// skipped path — so the metric snapshot ledgers both outcomes.
    pub fn note_chaos_skipped(&self) {
        self.chaos_skipped.inc();
    }

    /// Records one applied chaos fault: diary line + per-arm counter.
    /// Every injection funnels through here so "chaos:" grep-counts the
    /// applied faults exactly.
    fn chaos_log(applied: &Counter, arm: &mut ArmState, now: SimTime, tier: Tier, what: String) {
        applied.inc();
        arm.report.faults_injected += 1;
        arm.diary.log(
            now,
            Severity::Incident,
            tier,
            format!("{}: chaos: {what}", arm.cfg.name),
        );
    }

    /// Chaos: a correlated regional outage (storm, grid failure) takes the
    /// whole arm's coverage down until `now + duration` — every owned
    /// gateway is suppressed, or every hotspot goes dark. Returns whether
    /// the fault applied (arm exists).
    ///
    /// Injection draws no randomness: overlapping outages keep the latest
    /// end time, so fault schedules compose monotonically.
    pub fn inject_regional_outage(&mut self, ai: usize, now: SimTime, duration: SimDuration) -> bool {
        let until = now.saturating_add(duration);
        let applied = self.chaos_applied.clone();
        let Some(arm) = self.local_arm(ai) else { return false };
        match &mut arm.infra {
            ArmInfra::Owned { gateways, .. } => {
                for gw in gateways.iter_mut() {
                    gw.suppress_until(until);
                }
            }
            ArmInfra::Federated { dark_until, .. } => {
                *dark_until = (*dark_until).max(until);
            }
        }
        let days = duration.as_secs() / 86_400;
        Self::chaos_log(&applied, arm, now, Tier::Gateway, format!("regional outage, {days} days"));
        true
    }

    /// Chaos: the backhaul provider's link flaps out until `now +
    /// duration` (owned arms only; federated arms have no single backhaul
    /// to flap). Returns whether the fault applied.
    pub fn inject_backhaul_flap(&mut self, ai: usize, now: SimTime, duration: SimDuration) -> bool {
        let until = now.saturating_add(duration);
        let applied = self.chaos_applied.clone();
        let Some(arm) = self.local_arm(ai) else { return false };
        let ArmInfra::Owned { flap_until, .. } = &mut arm.infra else { return false };
        *flap_until = (*flap_until).max(until);
        let hours = duration.as_secs() / 3_600;
        Self::chaos_log(&applied, arm, now, Tier::Backhaul, format!("backhaul flapping, {hours} h"));
        true
    }

    /// Chaos: the backhaul provider sunsets service abruptly — no notice
    /// period, §3.3.2's revocable-medium risk — and the arm spends a
    /// quarter dark while an emergency replacement is commissioned (owned
    /// arms only). Returns whether the fault applied.
    pub fn inject_provider_sunset(&mut self, ai: usize, now: SimTime) -> bool {
        let until = now.saturating_add(SimDuration::from_weeks(13));
        let applied = self.chaos_applied.clone();
        let Some(arm) = self.local_arm(ai) else { return false };
        let ArmInfra::Owned { flap_until, .. } = &mut arm.infra else { return false };
        *flap_until = (*flap_until).max(until);
        Self::chaos_log(
            &applied,
            arm,
            now,
            Tier::Backhaul,
            "provider sunset without notice; emergency recommissioning".to_string(),
        );
        true
    }

    /// Chaos: the hotspot market collapses, removing `fraction` of the
    /// arm's audible hotspots at once (federated arms only). Returns
    /// whether the fault applied.
    pub fn inject_hotspot_collapse(&mut self, ai: usize, now: SimTime, fraction: f64) -> bool {
        let applied = self.chaos_applied.clone();
        let Some(arm) = self.local_arm(ai) else { return false };
        let ArmInfra::Federated { hotspots, .. } = &mut arm.infra else { return false };
        let removed = hotspots.collapse(fraction);
        Self::chaos_log(
            &applied,
            arm,
            now,
            Tier::Gateway,
            format!("hotspot population collapse, {removed} hotspots lost"),
        );
        true
    }

    /// Chaos: a top-up/billing failure empties `device`'s prepaid wallet
    /// (federated arms only). Returns whether the fault applied.
    pub fn inject_wallet_failure(&mut self, ai: usize, now: SimTime, device: usize) -> bool {
        let applied = self.chaos_applied.clone();
        let Some(arm) = self.local_arm(ai) else { return false };
        let ArmInfra::Federated { wallets, .. } = &mut arm.infra else { return false };
        if wallets.drain(device).is_none() {
            return false;
        }
        Self::chaos_log(
            &applied,
            arm,
            now,
            Tier::Backhaul,
            format!("device {device} top-up failed; wallet drained"),
        );
        true
    }

    /// Chaos: `device`'s firmware wedges — it transmits nothing until `now
    /// + duration`. Returns whether the fault applied.
    pub fn inject_device_stuck(
        &mut self,
        ai: usize,
        now: SimTime,
        device: usize,
        duration: SimDuration,
    ) -> bool {
        let until = now.saturating_add(duration);
        let applied = self.chaos_applied.clone();
        let Some(arm) = self.local_arm(ai) else { return false };
        if !arm.store.set_stuck_until(device, until) {
            return false;
        }
        let weeks = duration.as_secs() / (7 * 86_400);
        Self::chaos_log(
            &applied,
            arm,
            now,
            Tier::Device,
            format!("device {device} firmware stuck, {weeks} weeks"),
        );
        true
    }

    /// Chaos: a geometric storm knocks `device` out — same transmit-
    /// silence mechanics as [`inject_device_stuck`](Self::inject_device_stuck)
    /// (max-merged stuck-until, so overlapping storms compose
    /// monotonically), but ledgered as a storm knockout so diaries
    /// distinguish weather from firmware. Returns whether the fault
    /// applied.
    pub fn inject_storm_knockout(
        &mut self,
        ai: usize,
        now: SimTime,
        device: usize,
        duration: SimDuration,
    ) -> bool {
        let until = now.saturating_add(duration);
        let applied = self.chaos_applied.clone();
        let Some(arm) = self.local_arm(ai) else { return false };
        if !arm.store.set_stuck_until(device, until) {
            return false;
        }
        let days = duration.as_secs() / 86_400;
        Self::chaos_log(
            &applied,
            arm,
            now,
            Tier::Device,
            format!("device {device} storm knockout, {days} days"),
        );
        true
    }

    /// Chaos: `device` turns byzantine — it keeps transmitting (and
    /// paying) but every reading is garbage until `now + duration`.
    /// Returns whether the fault applied.
    pub fn inject_device_byzantine(
        &mut self,
        ai: usize,
        now: SimTime,
        device: usize,
        duration: SimDuration,
    ) -> bool {
        let until = now.saturating_add(duration);
        let applied = self.chaos_applied.clone();
        let Some(arm) = self.local_arm(ai) else { return false };
        if !arm.store.set_byzantine_until(device, until) {
            return false;
        }
        let weeks = duration.as_secs() / (7 * 86_400);
        Self::chaos_log(
            &applied,
            arm,
            now,
            Tier::Device,
            format!("device {device} byzantine readings, {weeks} weeks"),
        );
        true
    }
}

/// Figure 1's deployment lottery for an owned arm with `gateways ≥ 1`:
/// each device relies on one gateway, or on two with probability
/// `dual_homed_fraction`. Returns each device's cohort id and each
/// cohort's canonical (sorted) home set, ids in first-appearance order.
/// The draws per device are fixed — `next_below(gateways)`, then (with two
/// or more gateways) a `chance` and, if dual-homed, a second
/// `next_below(gateways − 1)` — so the cohort an id names, and the
/// `agg_root.split("cohort", c)` stream it keys, follow from the seed.
fn home_cohorts(
    devices: usize,
    gateways: usize,
    dual_homed_fraction: f64,
    rng: &mut Rng,
) -> (Vec<u32>, Vec<Vec<usize>>) {
    let g = gateways as u64;
    let mut ids = PairIds::new();
    let mut homes: Vec<Vec<usize>> = Vec::new();
    let cohort = (0..devices)
        .map(|_| {
            let first = rng.next_below(g);
            let (lo, hi) = if gateways > 1 && rng.chance(dual_homed_fraction) {
                let mut second = rng.next_below(g - 1);
                if second >= first {
                    second += 1;
                }
                (first.min(second), first.max(second))
            } else {
                (first, first)
            };
            ids.get_or_insert(lo, hi, || {
                let (lo, hi) = (lo as usize, hi as usize);
                homes.push(if lo == hi { vec![lo] } else { vec![lo, hi] });
                (homes.len() - 1) as u32
            })
        })
        .collect();
    (cohort, homes)
}

/// [`home_cohorts`]' cohort id per canonical `(lo, hi)` gateway pair: an
/// open-addressing table with linear probing, kept at most half full, so
/// a lookup is O(1) per device and memory is O(cohorts) whatever the
/// gateway count. Nothing iterates it, so its layout never reaches a
/// digest.
struct PairIds {
    /// `(tag, id)` per slot, where `tag` is the pair packed as
    /// `lo · 2^32 + hi + 1`; tag 0 marks an empty slot.
    slots: Vec<(u64, u32)>,
    len: usize,
}

impl PairIds {
    fn new() -> Self {
        PairIds { slots: vec![(0, 0); 8], len: 0 }
    }

    /// Fibonacci hashing onto a power-of-two table.
    fn slot(tag: u64, capacity: usize) -> usize {
        (tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - capacity.trailing_zeros())) as usize
    }

    /// The id of `(lo, hi)`, inserting `fresh()` on first sight.
    fn get_or_insert(&mut self, lo: u64, hi: u64, fresh: impl FnOnce() -> u32) -> u32 {
        let tag = (lo << 32) + hi + 1;
        let mask = self.slots.len() - 1;
        let mut i = Self::slot(tag, self.slots.len());
        loop {
            match self.slots[i] {
                (0, _) => break,
                (t, id) if t == tag => return id,
                _ => i = (i + 1) & mask,
            }
        }
        let id = fresh();
        self.slots[i] = (tag, id);
        self.len += 1;
        if 2 * self.len > self.slots.len() {
            let old = std::mem::replace(&mut self.slots, vec![(0, 0); 2 * (mask + 1)]);
            let mask = self.slots.len() - 1;
            for (tag, id) in old.into_iter().filter(|&(tag, _)| tag != 0) {
                let mut j = Self::slot(tag, self.slots.len());
                while self.slots[j].0 != 0 {
                    j = (j + 1) & mask;
                }
                self.slots[j] = (tag, id);
            }
        }
        id
    }
}

/// Maps a checkpointed dispatch-count name back to the `&'static` entry
/// of [`FleetSim`]'s event-kind table (the strings
/// [`World::event_kind`] returns) — the resolver
/// [`simcore::engine::Engine::resume`] needs to rebuild an engine
/// profile. `None` means the snapshot belongs to a different world shape.
pub(crate) fn resolve_event_kind(name: &str) -> Option<&'static str> {
    const KINDS: [&str; 8] = [
        "weekly-check",
        "yearly-tick",
        "device-fail",
        "device-replace",
        "gateway-fail",
        "gateway-repair",
        "provider-exit",
        "backhaul-migrated",
    ];
    KINDS.iter().copied().find(|&k| k == name)
}

impl World for FleetSim {
    type Event = Ev;

    fn held_events(&self) -> usize {
        self.held
    }

    fn event_kind(event: &Ev) -> &'static str {
        match event {
            Ev::WeeklyCheck => "weekly-check",
            Ev::YearlyTick => "yearly-tick",
            Ev::DeviceFail(..) => "device-fail",
            Ev::DeviceReplace(..) => "device-replace",
            Ev::GatewayFail(..) => "gateway-fail",
            Ev::GatewayRepair(..) => "gateway-repair",
            Ev::ProviderExit(..) => "provider-exit",
            Ev::BackhaulMigrated(..) => "backhaul-migrated",
        }
    }

    fn handle(&mut self, ctx: &mut Ctx<'_, Ev>, ev: Ev) {
        let now = ctx.now();
        match ev {
            Ev::WeeklyCheck => {
                // Walks the arms this world owns (all of them in a serial
                // run, the shard's subset otherwise) in ascending global
                // id — the same per-arm order either way.
                for li in 0..self.arms.len() {
                    self.weekly_eval(li, now);
                }
                ctx.schedule_in(SimDuration::from_secs(WEEK), Ev::WeeklyCheck);
            }
            Ev::YearlyTick => {
                for arm in &mut self.arms {
                    if let ArmInfra::Federated { hotspots, .. } = &mut arm.infra {
                        let before = hotspots.count();
                        // Per-year split stream: churn draws scale with the
                        // census, so a chaos-injected collapse would shift
                        // every later draw if churn shared the arm's weekly
                        // stream. Keyed on the year, the perturbation stays
                        // confined to the hotspot model (CRN).
                        let mut hrng = arm.rng.split("hotspots", u64::from(hotspots.year()) + 1);
                        let after = hotspots.step_year(&mut hrng);
                        if before > 0 && after == 0 {
                            arm.diary.log(
                                now,
                                Severity::Incident,
                                Tier::Gateway,
                                format!("{}: no hotspots remain in range", arm.cfg.name),
                            );
                        }
                    }
                    if let ArmInfra::Owned { gateways, sunset_logged, .. } = &mut arm.infra {
                        // §3.3.2: a revocable medium can disappear on the
                        // operator's schedule — log the stranding once.
                        let t_years = now.as_years_f64();
                        if !*sunset_logged
                            && gateways
                                .iter()
                                .any(|g| !g.spec.backhaul.available(t_years))
                        {
                            *sunset_logged = true;
                            arm.diary.log(
                                now,
                                Severity::Incident,
                                Tier::Backhaul,
                                format!(
                                    "{}: backhaul technology sunset; gateways stranded",
                                    arm.cfg.name
                                ),
                            );
                        }
                        // Software upkeep labor for maintained gateways.
                        let hours: f64 = gateways
                            .iter()
                            .map(|g| g.spec.mode.yearly_upkeep_hours())
                            .sum();
                        arm.report.labor = arm.report.labor.plus(PersonHours::from_hours(hours));
                    }
                }
                ctx.schedule_in(SimDuration::from_years(1), Ev::YearlyTick);
            }
            Ev::DeviceFail(ai, di) => {
                let Some(li) = self.local_slot(ai) else { return };
                let arm = &mut self.arms[li];
                arm.store.mark_failed(di);
                arm.report.device_failures += 1;
                arm.report.failure_ages.push(arm.store.age_at(di, now).as_years_f64());
                arm.diary.log(
                    now,
                    Severity::Warning,
                    Tier::Device,
                    Msg::device(arm.cfg.name, di, DeviceEvent::Failed),
                );
                if let Some(delay) = arm.cfg.replace_devices {
                    let at = now.saturating_add(delay);
                    self.schedule_device_event(li, at, Ev::DeviceReplace(ai, di), ctx);
                }
                self.queue_next_device_event(li, ctx);
            }
            Ev::DeviceReplace(ai, di) => {
                let horizon = self.cfg.horizon;
                let Some(li) = self.local_slot(ai) else { return };
                let arm = &mut self.arms[li];
                // Keyed by (device, time), never by visit order. The arm's
                // law samples the BOM under Legacy and inverts one open
                // uniform through the build's table in the cohort modes.
                let mut drng = arm
                    .rng
                    .split("replace", di as u64)
                    .split("at", now.as_secs());
                let dev = DeviceState::deploy(arm.cfg.device_spec, &arm.lifetime, now, &mut drng);
                let refails = dev.fails_at.as_secs() < horizon.as_secs();
                arm.store.set_row(di, &dev);
                arm.report.device_replacements += 1;
                arm.report.labor = arm.report.labor.plus(PersonHours::from_hours(20.0 / 60.0));
                arm.report.spend += Usd::from_dollars(80) + Usd::from_dollars(45);
                // Federated devices carry a fresh wallet.
                if let ArmInfra::Federated { wallets, .. } = &mut arm.infra {
                    wallets.set(di, &Wallet::provision_dollars(Usd::from_dollars(5)));
                    arm.report.spend += Usd::from_dollars(5);
                }
                arm.diary.log(
                    now,
                    Severity::Incident,
                    Tier::Device,
                    Msg::device(arm.cfg.name, di, DeviceEvent::Replaced),
                );
                if refails {
                    self.schedule_device_event(li, dev.fails_at, Ev::DeviceFail(ai, di), ctx);
                }
                self.queue_next_device_event(li, ctx);
            }
            Ev::GatewayFail(ai, gi) => {
                let Some(arm) = self.local_arm(ai) else { return };
                if let ArmInfra::Owned { gateways, .. } = &mut arm.infra {
                    let done = gateways[gi].fail(now);
                    ctx.schedule_at(done, Ev::GatewayRepair(ai, gi));
                    arm.diary.log(
                        now,
                        Severity::Incident,
                        Tier::Gateway,
                        format!("{}: gateway {gi} failed; repair scheduled", arm.cfg.name),
                    );
                }
            }
            Ev::GatewayRepair(ai, gi) => {
                let env = self.cfg.env;
                let horizon = self.cfg.horizon;
                let Some(arm) = self.local_arm(ai) else { return };
                if let ArmInfra::Owned { gateways, .. } = &mut arm.infra {
                    let mut grng = arm
                        .rng
                        .split("gw-repair", gi as u64)
                        .split("at", now.as_secs());
                    gateways[gi].repair(now, &env, &mut grng);
                    if gateways[gi].fails_at.as_secs() < horizon.as_secs() {
                        ctx.schedule_at(gateways[gi].fails_at, Ev::GatewayFail(ai, gi));
                    }
                    arm.report.gateway_repairs += 1;
                    arm.report.labor = arm.report.labor.plus(PersonHours::from_hours(2.0));
                    arm.report.spend += Usd::from_dollars(150) + Usd::from_dollars(170);
                    arm.diary.log(
                        now,
                        Severity::Info,
                        Tier::Gateway,
                        format!("{}: gateway {gi} repaired", arm.cfg.name),
                    );
                }
            }
            Ev::ProviderExit(ai) => {
                let Some(arm) = self.local_arm(ai) else { return };
                if let ArmInfra::Owned { backhaul_down, .. } = &mut arm.infra {
                    *backhaul_down = true;
                    let sid = arm.spans.open(format!("{}: backhaul-outage", arm.cfg.name), now);
                    arm.outage_span = Some(sid);
                    arm.diary.log(
                        now,
                        Severity::Incident,
                        Tier::Backhaul,
                        format!(
                            "{}: backhaul provider terminated service; sourcing replacement",
                            arm.cfg.name
                        ),
                    );
                    // Sourcing + commissioning a replacement attachment:
                    // a quarter of procurement, per §3.4's "comparatively
                    // manageable cost" for wired replacements.
                    ctx.schedule_in(SimDuration::from_weeks(13), Ev::BackhaulMigrated(ai));
                }
            }
            Ev::BackhaulMigrated(ai) => {
                let horizon = self.cfg.horizon;
                let Some(arm) = self.local_arm(ai) else { return };
                if let ArmInfra::Owned { gateways, backhaul_down, .. } = &mut arm.infra {
                    *backhaul_down = false;
                    if let Some(id) = arm.outage_span.take() {
                        arm.spans.close(id, now);
                    }
                    arm.report.backhaul_migrations += 1;
                    let n_gw = gateways.len() as i64;
                    // Re-attachment cost and commissioning labor per gateway.
                    arm.report.spend += Usd::from_dollars(400) * n_gw;
                    arm.report.labor =
                        arm.report.labor.plus(PersonHours::from_hours(2.0 * n_gw as f64));
                    // The replacement provider gets a fresh exit clock.
                    if let ArmKind::Owned { spec, .. } = &arm.cfg.kind {
                        let mut prng = arm.rng.split("provider-next", now.as_secs());
                        let exit = SimDuration::from_years_f64(
                            spec.provider.sample_exit_years(&mut prng),
                        );
                        let at = now.saturating_add(exit);
                        if at.as_secs() < horizon.as_secs() {
                            ctx.schedule_at(at, Ev::ProviderExit(ai));
                        }
                    }
                    arm.diary.log(
                        now,
                        Severity::Info,
                        Tier::Backhaul,
                        format!("{}: replacement backhaul commissioned", arm.cfg.name),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod bytewise_digest;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_experiment_runs_to_horizon() {
        let report = FleetSim::run(FleetConfig::paper_experiment(1));
        assert_eq!(report.arms.len(), 2);
        for arm in &report.arms {
            assert_eq!(arm.weeks_total, 50 * 365 / 7);
            assert!(arm.weeks_up > 0, "{} never delivered", arm.name);
            assert!(arm.uptime() > 0.3, "{} uptime {}", arm.name, arm.uptime());
            assert!(arm.uptime() <= 1.0);
        }
        assert!(!report.diary.is_empty());
        assert!(report.events_processed > 2_600);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = FleetSim::run(FleetConfig::paper_experiment(7));
        let b = FleetSim::run(FleetConfig::paper_experiment(7));
        for (x, y) in a.arms.iter().zip(&b.arms) {
            assert_eq!(x.weeks_up, y.weeks_up);
            assert_eq!(x.readings_delivered, y.readings_delivered);
            assert_eq!(x.spend, y.spend);
        }
        assert_eq!(a.diary.len(), b.diary.len());
    }

    #[test]
    fn different_seeds_differ() {
        let a = FleetSim::run(FleetConfig::paper_experiment(1));
        let b = FleetSim::run(FleetConfig::paper_experiment(2));
        let same = a
            .arms
            .iter()
            .zip(&b.arms)
            .all(|(x, y)| x.readings_delivered == y.readings_delivered);
        assert!(!same, "different seeds should perturb delivery counts");
    }

    #[test]
    fn devices_fail_and_get_replaced_over_50_years() {
        let report = FleetSim::run(FleetConfig::paper_experiment(3));
        let owned = &report.arms[0];
        // Harvesting nodes median ~20 y: with 10 devices over 50 y, many
        // failures are near-certain.
        assert!(owned.device_failures >= 3, "failures {}", owned.device_failures);
        assert_eq!(owned.device_failures, owned.device_replacements);
    }

    #[test]
    fn owned_arm_pays_gateway_maintenance() {
        let report = FleetSim::run(FleetConfig::paper_experiment(4));
        let owned = &report.arms[0];
        assert!(owned.gateway_repairs >= 2, "repairs {}", owned.gateway_repairs);
        assert!(owned.labor.hours() > 10.0);
    }

    #[test]
    fn no_replacement_policy_decays_to_dark() {
        let mut cfg = FleetConfig::paper_experiment(5);
        for arm in &mut cfg.arms {
            arm.replace_devices = None;
        }
        let with = FleetSim::run(FleetConfig::paper_experiment(5));
        let without = FleetSim::run(cfg);
        for (w, wo) in with.arms.iter().zip(&without.arms) {
            assert!(wo.device_replacements == 0);
            assert!(
                wo.readings_delivered <= w.readings_delivered,
                "{}: unreplaced fleet cannot deliver more",
                w.name
            );
        }
    }

    #[test]
    fn federated_arm_burns_credits() {
        let report = FleetSim::run(FleetConfig::paper_experiment(6));
        let helium = &report.arms[1];
        // Data yield implies credits flowed.
        assert!(helium.readings_delivered > 0);
        // Initial spend includes 10 x $5 wallets + 10 x $80 devices.
        assert!(helium.spend >= Usd::from_dollars(850));
    }

    #[test]
    fn lifetime_observations_cover_every_incarnation() {
        let cfg = FleetConfig::paper_experiment(21);
        let report = FleetSim::run(cfg.clone());
        for (arm, arm_cfg) in report.arms.iter().zip(&cfg.arms) {
            let obs: Vec<Observation> = arm.lifetime_observations().collect();
            let failures = obs.iter().filter(|o| o.event).count() as u64;
            assert_eq!(failures, arm.device_failures, "{}", arm.name);
            assert!(
                obs[failures as usize..].iter().all(|o| !o.event),
                "{}: failures come first, then the censored tail",
                arm.name
            );
            let censored = obs.len() as u64 - failures;
            // Every mount's final incarnation that is still alive at the
            // horizon is censored; unreplaced dead mounts contribute none.
            let present = arm_cfg.devices as u64 + arm.device_replacements - arm.device_failures;
            assert_eq!(censored, present, "{}: censored != devices present", arm.name);
            assert!(censored <= 10, "{}: censored {censored}", arm.name);
            for o in &obs {
                assert!(o.time >= 0.0 && o.time <= 50.0);
            }
        }
    }

    #[test]
    fn dual_homing_beats_single_homing() {
        // Single-homed devices go dark with their gateway; dual-homed ride
        // through. Compare yields with identical seeds.
        let mk = |dual: f64, seed: u64| {
            let mut cfg = FleetConfig::paper_experiment(seed);
            cfg.arms.truncate(1);
            cfg.arms[0].dual_homed_fraction = dual;
            FleetSim::run(cfg).arms[0].data_yield()
        };
        let mut single_total = 0.0;
        let mut dual_total = 0.0;
        for seed in 0..5 {
            single_total += mk(0.0, seed);
            dual_total += mk(1.0, seed);
        }
        assert!(
            dual_total > single_total,
            "dual {dual_total} should beat single {single_total}"
        );
    }

    #[test]
    fn channel_derived_delivery_scales_with_population() {
        let small = ArmConfig::paper_owned_154(10, 2)
            .with_channel_derived_delivery(0.95, 0.24);
        let huge = ArmConfig::paper_owned_154(200_000, 2)
            .with_channel_derived_delivery(0.95, 0.24);
        assert!(small.per_packet_delivery > 0.90, "{}", small.per_packet_delivery);
        assert!(
            huge.per_packet_delivery < small.per_packet_delivery - 0.05,
            "huge fleet {} should collide more than {}",
            huge.per_packet_delivery,
            small.per_packet_delivery
        );
    }

    #[test]
    fn cellular_arm_goes_dark_at_sunset() {
        use backhaul::tech::CellularGen;
        // 3G sunsets at year 12: a 3G-backhauled arm delivers nothing after,
        // and the diary records the stranding.
        let mut cfg = FleetConfig::paper_experiment(42);
        cfg.arms = vec![
            ArmConfig::paper_owned_154(10, 2),
            ArmConfig::cellular_owned_154(10, 2, CellularGen::G3),
        ];
        let report = FleetSim::run(cfg);
        let ethernet = &report.arms[0];
        let cellular = &report.arms[1];
        // The cellular arm's uptime is capped near 12/50 of the horizon.
        assert!(
            cellular.uptime() < 0.30,
            "cellular uptime {} should collapse after the year-12 sunset",
            cellular.uptime()
        );
        assert!(ethernet.uptime() > 0.9);
        assert!(report.diary.render().contains("backhaul technology sunset"));
    }

    #[test]
    fn provider_exits_happen_and_are_survived() {
        // Campus provider mean-exit 60 y: over many seeds, exits within the
        // 50-year horizon are common and each is followed by a migration.
        let mut exits = 0u64;
        for seed in 0..10 {
            let report = FleetSim::run(FleetConfig::paper_experiment(seed));
            let owned = &report.arms[0];
            exits += owned.backhaul_migrations;
            if owned.backhaul_migrations > 0 {
                let text = report.diary.render();
                assert!(text.contains("backhaul provider terminated service"));
                assert!(text.contains("replacement backhaul commissioned"));
            }
        }
        assert!(exits > 0, "no provider exit across 10 seeds is implausible");
    }

    #[test]
    fn fast_cadence_exhausts_prepaid_wallets() {
        // At a 5-minute cadence the $5 wallet lasts ~4.8 years; over a
        // 50-year run the federated arm must log exhaustions.
        let mut cfg = FleetConfig::paper_experiment(77);
        cfg.arms.remove(0);
        cfg.arms[0].device_spec.report_interval = SimDuration::from_mins(5);
        cfg.arms[0].replace_devices = None; // Keep original wallets in place.
        let report = FleetSim::run(cfg);
        let helium = &report.arms[0];
        assert!(
            helium.wallets_exhausted > 0,
            "5-minute reporting must exhaust $5 wallets"
        );
        let text = report.diary.render();
        assert!(text.contains("wallet exhausted"));
    }

    #[test]
    fn plain_runs_leave_the_chaos_columns_unallocated() {
        let cfg = FleetConfig {
            horizon: SimDuration::from_years(20),
            ..FleetConfig::scaled(5, 1_600).with_sampling(SamplingMode::Aggregate)
        };
        let horizon = SimTime::ZERO + cfg.horizon;
        let mut engine = FleetSim::build(cfg);
        engine.run_until(horizon);
        let w = engine.world_mut();
        assert!(
            w.arms.iter().all(|a| a.report.device_replacements > 0),
            "every arm replaced a device that was never stuck"
        );
        for arm in &w.arms {
            assert_eq!(arm.store.chaos_columns_allocated(), [false, false], "arm {}", arm.id);
        }
        assert!(w.inject_device_stuck(0, horizon, 3, SimDuration::from_weeks(2)));
        assert_eq!(w.arms[0].store.chaos_columns_allocated(), [true, false]);
        assert!(w.inject_device_byzantine(1, horizon, 3, SimDuration::from_weeks(2)));
        assert_eq!(w.arms[1].store.chaos_columns_allocated(), [false, true]);
        assert_eq!(w.arms[2].store.chaos_columns_allocated(), [false, false]);
    }

    #[test]
    fn injections_apply_only_to_matching_arms() {
        let mut engine = FleetSim::build(FleetConfig::paper_experiment(9));
        let w = engine.world_mut();
        let t = SimTime::from_years(1);
        // Arm 0 is owned, arm 1 is federated.
        assert!(w.inject_regional_outage(0, t, SimDuration::from_weeks(1)));
        assert!(w.inject_regional_outage(1, t, SimDuration::from_weeks(1)));
        assert!(w.inject_backhaul_flap(0, t, SimDuration::from_hours(6)));
        assert!(!w.inject_backhaul_flap(1, t, SimDuration::from_hours(6)));
        assert!(w.inject_provider_sunset(0, t));
        assert!(!w.inject_provider_sunset(1, t));
        assert!(!w.inject_hotspot_collapse(0, t, 0.5));
        assert!(w.inject_hotspot_collapse(1, t, 0.5));
        assert!(!w.inject_wallet_failure(0, t, 0));
        assert!(w.inject_wallet_failure(1, t, 0));
        assert!(w.inject_device_stuck(0, t, 3, SimDuration::from_weeks(2)));
        assert!(w.inject_device_byzantine(1, t, 3, SimDuration::from_weeks(2)));
        // Out-of-range targets are rejected, not panics.
        assert!(!w.inject_regional_outage(99, t, SimDuration::from_weeks(1)));
        assert!(!w.inject_device_stuck(0, t, 99, SimDuration::from_weeks(1)));
        assert!(!w.inject_wallet_failure(1, t, 99));
    }

    #[test]
    fn hooked_faults_degrade_uptime_and_are_diarised() {
        use simcore::engine::FaultHook;

        // A year-long regional outage against both arms every 5 years.
        struct Storms {
            times: Vec<SimTime>,
            next: usize,
        }
        impl FaultHook<FleetSim> for Storms {
            fn next_fault_at(&self) -> Option<SimTime> {
                self.times.get(self.next).copied()
            }
            fn fire(&mut self, now: SimTime, world: &mut FleetSim, _ctx: &mut Ctx<'_, Ev>) {
                self.next += 1;
                for ai in 0..world.arm_count() {
                    assert!(world.inject_regional_outage(ai, now, SimDuration::from_years(1)));
                }
            }
        }

        let horizon = SimTime::ZERO + SimDuration::from_years(50);
        let baseline = FleetSim::run(FleetConfig::paper_experiment(11));
        let mut hook = Storms {
            times: (1..50).step_by(5).map(SimTime::from_years).collect(),
            next: 0,
        };
        let n_storms = hook.times.len() as u64;
        let mut engine = FleetSim::build(FleetConfig::paper_experiment(11));
        engine.run_until_hooked(horizon, &mut hook);
        let stormy = FleetSim::into_report(engine, horizon);

        for (b, s) in baseline.arms.iter().zip(&stormy.arms) {
            assert_eq!(s.faults_injected, n_storms, "{}", s.name);
            assert!(
                s.weeks_up < b.weeks_up,
                "{}: {} storm-weeks should cost uptime ({} vs {})",
                s.name,
                n_storms,
                s.weeks_up,
                b.weeks_up
            );
        }
        let text = stormy.diary.render();
        assert!(text.contains("chaos: regional outage"));
        let chaos_lines = text.lines().filter(|l| l.contains("chaos:")).count() as u64;
        assert_eq!(chaos_lines, 2 * n_storms);
        assert!(!baseline.diary.render().contains("chaos:"));
    }

    #[test]
    fn digest_is_deterministic_and_seed_sensitive() {
        let a = FleetSim::run(FleetConfig::paper_experiment(13));
        let b = FleetSim::run(FleetConfig::paper_experiment(13));
        let c = FleetSim::run(FleetConfig::paper_experiment(14));
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest(), "different seeds must not collide");
    }

    #[test]
    fn metric_snapshot_cross_checks_the_ledger() {
        use telemetry::MetricValue;
        let report = FleetSim::run(FleetConfig::paper_experiment(15));
        for (ai, arm) in report.arms.iter().enumerate() {
            let name = format!("fleet.arm{ai}.{}.readings_delivered", arm.name);
            assert_eq!(
                report.metrics.get(&name),
                Some(&MetricValue::Counter(arm.readings_delivered)),
                "{name} must mirror the report ledger"
            );
            let hist = format!("fleet.arm{ai}.{}.weekly_deliveries", arm.name);
            match report.metrics.get(&hist) {
                Some(MetricValue::Histogram { count, .. }) => {
                    // One observation per alive device per week: bounded by
                    // devices × weeks.
                    assert!(*count > 0 && *count <= 10 * arm.weeks_total, "{hist}: {count}");
                }
                other => panic!("{hist}: expected histogram, got {other:?}"),
            }
        }
        assert_eq!(report.metrics.get("chaos.applied"), Some(&MetricValue::Counter(0)));
        assert_eq!(report.metrics.get("chaos.skipped"), Some(&MetricValue::Counter(0)));
    }

    #[test]
    fn provider_exits_record_outage_spans() {
        // Find a seed whose owned arm migrates at least once, then check
        // the span ledger matches the migration count.
        for seed in 0..10 {
            let report = FleetSim::run(FleetConfig::paper_experiment(seed));
            let owned = &report.arms[0];
            if owned.backhaul_migrations == 0 {
                continue;
            }
            let outages: Vec<_> = report
                .spans
                .iter()
                .filter(|s| s.name.contains("backhaul-outage"))
                .collect();
            assert!(outages.len() as u64 >= owned.backhaul_migrations);
            let closed = outages.iter().filter(|s| s.end.is_some()).count() as u64;
            assert_eq!(closed, owned.backhaul_migrations, "every migration closes its span");
            for s in &outages {
                if let Some(end) = s.end {
                    // §3.4: sourcing a replacement takes a quarter.
                    assert_eq!(end.since(s.start), SimDuration::from_weeks(13));
                }
            }
            return;
        }
        panic!("no provider exit across 10 seeds is implausible");
    }

    #[test]
    fn profile_reports_event_mix_and_timing() {
        let report = FleetSim::run(FleetConfig::paper_experiment(16));
        assert_eq!(report.profile.count("weekly-check"), 50 * 365 / 7);
        assert_eq!(report.profile.count("yearly-tick"), 49);
        assert_eq!(report.profile.total_dispatched(), report.events_processed);
        assert!(report.profile.queue_high_water > 0);
        assert!(report.profile.run_nanos > 0);
        // Handler time is sampled (every 1024th dispatch); a ~2.8k-event
        // run must have timed at least the dispatches at 0, 1024 and 2048.
        assert!(report.profile.handler_samples() >= 3);
    }

    #[test]
    fn jsonl_export_is_one_object_per_line() {
        let report = FleetSim::run(FleetConfig::paper_experiment(17));
        let out = report.export_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines.len(),
            report.diary.len() + report.spans.len() + report.metrics.len()
        );
        for line in &lines {
            assert!(line.starts_with("{\"type\":\"") && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn a_failure_on_the_horizon_is_censored() {
        // Device 0 of every arm fails exactly at the horizon. Its failure
        // is never scheduled (`fails_at < horizon`), so it must leave a
        // censored observation like any survivor: every incarnation —
        // deployed or replaced — is observed exactly once.
        let horizon = SimTime::ZERO + SimDuration::from_years(2);
        let mut engine = FleetSim::build(FleetConfig {
            horizon: horizon.since(SimTime::ZERO),
            ..FleetConfig::paper_experiment(3)
        });
        for arm in &mut engine.world_mut().arms {
            let mut dev = arm.store.row(0);
            assert!(dev.fails_at > horizon, "device 0 must not be primed to fail");
            dev.fails_at = horizon;
            arm.store.set_row(0, &dev);
        }
        engine.run_until(horizon);
        let report = FleetSim::into_report(engine, horizon);
        for (arm, cfg) in report.arms.iter().zip(&FleetConfig::paper_experiment(3).arms) {
            let obs: Vec<Observation> = arm.lifetime_observations().collect();
            assert_eq!(
                obs.len() as u64,
                cfg.devices as u64 + arm.device_replacements,
                "{}",
                arm.name
            );
            let censored = obs.iter().filter(|o| !o.event).count();
            assert_eq!(arm.device_failures as usize + censored, obs.len());
            // Device 0 is censored at its full two-year age.
            assert!(obs.iter().any(|o| !o.event && o.time == 2.0));
        }
    }

    /// The century-horizon check: 100k devices × 50 years under Aggregate
    /// (~590k diary entries, nearly all typed). The streamed export must
    /// equal the `String` oracle byte for byte, and the digest must equal
    /// the byte-wise reference fold and the fold of the same diary stored
    /// as text. About a second in a release build; run with `cargo test
    /// --release -p fleet -- --ignored
    /// century_horizon_export_and_digest_match_the_text_oracles`.
    #[test]
    #[ignore = "release-build scale check; scripts/verify.sh runs it"]
    fn century_horizon_export_and_digest_match_the_text_oracles() {
        use std::fmt::Write as _;

        let cfg = FleetConfig::scaled(5, 100_000).with_sampling(SamplingMode::Aggregate);
        let mut report = FleetSim::run(cfg);
        let typed = report.diary.entries().iter().filter(|e| matches!(e.message, Msg::Device { .. }));
        assert!(typed.count() > 500_000, "the typed path must carry the diary");

        // The export as it was rendered before messages were typed: each
        // field and message through a `String`.
        let mut oracle = String::new();
        for e in report.diary.entries() {
            let _ = write!(oracle, "{{\"type\":\"event\",\"t\":{},\"sev\":", e.at.as_secs());
            jsonl::push_escaped(&mut oracle, &e.severity.to_string());
            oracle.push_str(",\"tier\":");
            jsonl::push_escaped(&mut oracle, &e.tier.to_string());
            oracle.push_str(",\"msg\":");
            jsonl::push_escaped(&mut oracle, &e.message.to_string());
            oracle.push_str("}\n");
        }
        oracle.push_str(&jsonl::spans_to_jsonl(&report.spans));
        oracle.push_str(&jsonl::snapshot_to_jsonl(&report.metrics));
        let mut streamed = Vec::new();
        report.write_jsonl(&mut streamed).unwrap();
        assert!(streamed == oracle.as_bytes(), "write_jsonl ≢ String oracle");
        assert!(report.export_jsonl() == oracle, "export_jsonl ≢ String oracle");

        let digest = report.digest();
        // ~590k typed lines and, after 50 years of replacements, short
        // census runs: the tables and runs against the byte loop.
        assert_eq!(digest, super::bytewise_digest::bytewise_digest(&report), "≢ byte-wise fold");
        let mut text = Diary::new();
        for e in report.diary.entries() {
            text.log(e.at, e.severity, e.tier, e.message.to_string());
        }
        report.diary = text;
        assert_eq!(digest, report.digest(), "typed fold ≢ text fold");
    }

    #[test]
    fn write_jsonl_streams_the_export_bytes() {
        // Large enough that the stream flushes several 64 KiB chunks.
        let cfg = FleetConfig {
            horizon: SimDuration::from_years(5),
            ..FleetConfig::scaled(4, 8_000).with_sampling(SamplingMode::Aggregate)
        };
        let report = FleetSim::run(cfg);
        let export = report.export_jsonl();
        assert!(export.len() > 3 * 64 * 1024, "{} bytes", export.len());
        let mut streamed = Vec::new();
        report.write_jsonl(&mut streamed).unwrap();
        assert!(streamed == export.as_bytes());
    }

    #[test]
    fn diary_is_time_ordered() {
        let report = FleetSim::run(FleetConfig::paper_experiment(8));
        let mut last = SimTime::ZERO;
        for e in report.diary.entries() {
            assert!(e.at >= last);
            last = e.at;
        }
    }

    #[test]
    fn home_cohorts_replay_the_per_device_lottery() {
        // The lottery as it was drawn into one home list per device.
        fn per_device(devices: usize, g: usize, dual: f64, rng: &mut Rng) -> Vec<Vec<usize>> {
            (0..devices)
                .map(|_| {
                    let first = rng.next_below(g as u64) as usize;
                    if g > 1 && rng.chance(dual) {
                        let mut second = rng.next_below(g as u64 - 1) as usize;
                        if second >= first {
                            second += 1;
                        }
                        vec![first, second]
                    } else {
                        vec![first]
                    }
                })
                .collect()
        }
        for (g, dual) in [(1, 0.5), (2, 0.5), (3, 1.0), (5, 0.3), (4, 0.0), (40, 0.7)] {
            let rng = Rng::seed_from(g as u64);
            let (mut a, mut b) = (rng.clone(), rng);
            let (cohort, homes) = home_cohorts(300, g, dual, &mut a);
            let lists = per_device(300, g, dual, &mut b);
            assert_eq!(a.next_u64(), b.next_u64(), "g {g}: same draws consumed");
            let mut seen = 0;
            for (di, list) in lists.iter().enumerate() {
                let mut canon = list.clone();
                canon.sort_unstable();
                let c = cohort[di] as usize;
                assert_eq!(homes[c], canon, "g {g} device {di}");
                assert!(c <= seen, "g {g}: ids are assigned in first-appearance order");
                seen = seen.max(c + 1);
            }
            assert_eq!(seen, homes.len(), "g {g}: every cohort is used");
        }
    }

    /// Runs the same fleet under `Aggregate` and `Reference` to several
    /// checkpoint weeks and compares every device row, every federated
    /// wallet and each arm's delivery ledger. Wallets burn exactly each
    /// device's share, so they pin the id-order share rule per device.
    #[test]
    fn aggregate_matches_reference_on_every_device_row() {
        use crate::fault::{Fault, FaultKind, FaultPlan, FleetInjector};

        let row_key = |d: &DeviceState| {
            (d.installed_at, d.fails_at, d.failed, d.stuck_until, d.byzantine_until)
        };
        let weeks = [2u64, 9, 30, 53, 130, 209];
        for seed in 1..=4u64 {
            for chaos in [false, true] {
                let cfg = |sampling| FleetConfig {
                    seed,
                    horizon: SimDuration::from_years(4),
                    arms: vec![
                        ArmConfig::paper_owned_154(60, 2),
                        ArmConfig::paper_owned_154(45, 3),
                        ArmConfig::paper_helium(30, 4),
                    ],
                    sampling,
                    ..FleetConfig::paper_experiment(seed)
                };
                let mut faults = Vec::new();
                if chaos {
                    for (i, w) in [3u64, 20, 21, 60, 120].into_iter().enumerate() {
                        let at = SimTime::ZERO + SimDuration::from_weeks(w);
                        let (arm, device) = (i % 3, (7 * i + seed as usize) % 30);
                        let duration = SimDuration::from_weeks(1 + i as u64 * 3);
                        faults.push(Fault {
                            at,
                            kind: FaultKind::DeviceStuck { arm, device, duration },
                        });
                        faults.push(Fault {
                            at,
                            kind: FaultKind::DeviceByzantine { arm, device: device + 1, duration },
                        });
                    }
                }
                let plan = FaultPlan::from_faults(faults);
                let mut agg = FleetSim::build(cfg(SamplingMode::Aggregate));
                let mut refr = FleetSim::build(cfg(SamplingMode::Reference));
                let mut agg_hook = FleetInjector::new(plan.clone());
                let mut ref_hook = FleetInjector::new(plan);
                for &w in &weeks {
                    let at = SimTime::ZERO + SimDuration::from_weeks(w);
                    agg.run_until_hooked(at, &mut agg_hook);
                    refr.run_until_hooked(at, &mut ref_hook);
                    let mut delivered = 0u64;
                    let mut burned = 0u64;
                    for (a, r) in agg.world().arms.iter().zip(&refr.world().arms) {
                        let what = format!("seed {seed} chaos {chaos} week {w} arm {}", a.id);
                        assert_eq!(a.store.len(), r.store.len());
                        for di in 0..a.store.len() {
                            assert_eq!(
                                row_key(&a.store.row(di)),
                                row_key(&r.store.row(di)),
                                "{what} device {di}"
                            );
                        }
                        if let (
                            ArmInfra::Federated { wallets: wa, .. },
                            ArmInfra::Federated { wallets: wr, .. },
                        ) = (&a.infra, &r.infra)
                        {
                            assert_eq!(wa.len(), wr.len());
                            for di in 0..wa.len() {
                                let state = wa.get(di).map(|x| x.raw_state());
                                assert_eq!(
                                    state,
                                    wr.get(di).map(|x| x.raw_state()),
                                    "{what} wallet {di}"
                                );
                                burned += state.map_or(0, |(_, b, _, _)| b);
                            }
                        }
                        assert_eq!(
                            a.report.readings_delivered, r.report.readings_delivered,
                            "{what} readings delivered"
                        );
                        assert_eq!(a.report.weeks_up, r.report.weeks_up, "{what} weeks up");
                        delivered += a.report.readings_delivered;
                    }
                    assert!(delivered > 0, "seed {seed} week {w}: nothing delivered");
                    assert!(burned > 0, "seed {seed} week {w}: no wallet burned");
                }
                assert_eq!(agg_hook.applied(), ref_hook.applied());
                if chaos {
                    assert!(agg_hook.applied() > 0, "the chaos plan must inject");
                }
            }
        }
    }
}
