//! `century` — century-scale smart infrastructure, as a library.
//!
//! This crate is the public facade of a full reproduction of
//! *Century-Scale Smart Infrastructure* (Jagtap, Bhaskar, Pannuto —
//! HotOS ’21): the paper's architectural principles as a machine-checkable
//! audit, its city censuses and cost constants as presets, and its 50-year
//! experiment as a deterministic discrete-event simulation.
//!
//! # Quickstart
//!
//! ```
//! use century::{audit, readiness_score, DesignPosture};
//! use fleet::sim::{FleetConfig, FleetSim};
//!
//! // The paper's §4 experiment: 10 energy-harvesting transmit-only
//! // sensors per arm — owned 802.15.4 gateways vs the Helium network —
//! // run for 50 simulated years.
//! let posture = DesignPosture::paper_experiment();
//! assert!(audit(&posture).is_empty(), "the paper's design is compliant");
//! assert_eq!(readiness_score(&posture), 1.0);
//!
//! let report = FleetSim::run(FleetConfig::paper_experiment(42));
//! for arm in &report.arms {
//!     println!("{}: weekly uptime {:.1}%", arm.name, arm.uptime() * 100.0);
//! }
//! // The diary is the §4.5 "living, public experimental diary".
//! assert!(!report.diary().is_empty());
//! ```
//!
//! # Module map
//!
//! * [`principles`] — §3's takeaways as an executable audit.
//! * [`presets`] — the paper's censuses, deployments and cost constants.
//! * [`experiment`] — the replicate driver: the 50-year experiment over
//!   many seeds on a worker pool.
//! * [`metrics`] — cost-per-reading, labor-per-device-decade, summaries.
//! * [`report`] — text tables / CSV for the exhibit suite.
//!
//! The substrates live in their own crates: `simcore` (engine),
//! `energy`, `reliability`, `net`, `backhaul`, `fleet`, `econ`.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod experiment;
pub mod metrics;
pub mod presets;
pub mod principles;
pub mod report;

pub use presets::{CityCensus, CostPreset, DeploymentPreset};
pub use principles::{audit, readiness_score, DesignPosture, Principle, Violation};
