//! `reliability` — component and system lifetime models.
//!
//! This crate turns §1 of *Century-Scale Smart Infrastructure* (HotOS ’21)
//! — the folklore that batteries, electrolytic capacitors and PCB substrates
//! cap device life at 10–15 years, and the claim that energy-harvesting
//! design points escape it — into quantitative, testable models:
//!
//! * [`hazard`] — exponential / Weibull / bathtub lifetime models with
//!   deterministic sampling.
//! * [`arrhenius`] — temperature acceleration (the capacitor 10-degree
//!   rule).
//! * [`fatigue`] — Coffin–Manson solder thermal-cycling life.
//! * [`components`] — a parts library with documented default parameters.
//! * [`system`] — reliability block diagrams and the paper's device
//!   archetypes ([`system::bom`]).
//! * [`renewal`] — replacement processes and the pipelined-fleet age math
//!   behind the Ship-of-Theseus argument.
//! * [`mission`] — P(survive T) queries and the device-vs-structure
//!   lifetime gap.
//! * [`fit`] — Weibull maximum-likelihood fitting under right censoring,
//!   for analyzing simulated (or real) deployment diaries.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod arrhenius;
pub mod components;
pub mod fatigue;
pub mod fit;
pub mod hazard;
pub mod mission;
pub mod renewal;
pub mod system;

pub use components::Component;
pub use hazard::{BathtubHazard, ExponentialHazard, Hazard, WeibullHazard};
pub use system::Block;
