//! `fleet` — the deployment hierarchy and its century-scale dynamics.
//!
//! This crate assembles the substrates (`energy`, `reliability`, `net`,
//! `backhaul`, `econ`) into the system *Century-Scale Smart Infrastructure*
//! (HotOS ’21) describes: devices that expect no human attention, gateways
//! that are maintained, backhaul that sunsets, and the maintenance economy
//! around them.
//!
//! * [`device`] / [`gateway`] / [`cloud`] — the three managed tiers.
//! * [`hierarchy`] — Figure 1's reliance graph and its fan-out statistics.
//! * [`commissioning`] — the §3.2 gateway-migration protocol as a typed
//!   state machine (trusted-third-party handoff vs disorderly failure).
//! * [`maintenance`] — crews, truck rolls, geographic batching.
//! * [`obsolescence`] — technical/style/planned/functional obsolescence
//!   and vendor lock-in.
//! * [`pipeline`] — Ship-of-Theseus cohort pipelining.
//! * [`sim`] — the discrete-event fleet simulation running §4's 50-year
//!   experiment.
//! * [`run`] — the one run path: a [`Run`] value (start, fault plan,
//!   shard count) and the one function that runs it, [`Run::execute`].
//! * [`fault`] — fault plans and the injector that replays them.
//! * [`shard`] — deterministic intra-run sharding: the same simulation
//!   split across worker threads with a bit-identical run digest.
//! * [`snapshot`] — crash-recoverable mid-run checkpoints: run-to-week,
//!   snapshot, resume, run-to-horizon digests exactly like the
//!   uninterrupted run.
//! * [`store`] — the struct-of-arrays device population (parallel
//!   columns + path cohorts) that aggregate weekly sampling runs over.
//! * [`upgrade`] — gateway technology-generation planning: upgrade policies
//!   vs heterogeneity and out-of-support exposure.
//! * [`workforce`] — crew-capacity backlog dynamics: what replacement waves
//!   cost in dark device-years when the crew is finite.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod cloud;
pub mod commissioning;
pub mod device;
pub mod fault;
pub mod gateway;
pub mod geometry;
pub mod hierarchy;
pub mod maintenance;
pub mod obsolescence;
pub mod pipeline;
pub mod run;
pub mod shard;
pub mod sim;
pub mod snapshot;
pub mod store;
pub mod upgrade;
pub mod workforce;

pub use device::{DeviceSpec, DeviceState, EnergySystem};
pub use gateway::{GatewaySpec, GatewayState};
pub use hierarchy::Hierarchy;
pub use run::{Run, Shards, Start};
pub use shard::{ShardError, ShardPlan};
pub use sim::{
    ArmConfig, ArmReport, FleetConfig, FleetReport, FleetSim, SamplingMode, SCALE_ARMS,
};
pub use snapshot::{ChaosProgress, ResumedFleet, FLEET_SNAPSHOT_VERSION};
pub use store::DeviceStore;
