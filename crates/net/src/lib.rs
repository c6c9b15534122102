//! `net` — wireless PHY/MAC models and deployment geometry.
//!
//! The edge tier of *Century-Scale Smart Infrastructure* (HotOS ’21)
//! communicates over 802.15.4 and LoRa (§4.1). This crate provides the
//! physical-layer substrate the fleet simulation stands on:
//!
//! * [`units`] — dBm/dB arithmetic.
//! * [`pathloss`] — log-distance propagation with placement-static
//!   shadowing.
//! * [`link`] — logistic PRR waterfalls and link budgets.
//! * [`ieee802154`] — O-QPSK airtime and sensitivity.
//! * [`lora`] — the exact Semtech airtime formula, per-SF sensitivities,
//!   duty-cycle law.
//! * [`aloha`] — pure-ALOHA collision math for transmit-only populations,
//!   with capture.
//! * [`interference`] — SF orthogonality and capture-probability models.
//! * [`mesh`] — multi-hop relay coverage and its energy price.
//! * [`placement`] — greedy minimum-gateway placement (set cover).
//! * [`packet`] — shared frame/payload types (the 24-byte credit unit).
//! * [`topology`] — Manhattan-grid city and scatter generators.
//! * [`coverage`] — who-hears-whom resolution and Figure-1 reliance
//!   statistics.
//! * [`grid`] — flat spatial grid index: O(1) deterministic radius
//!   queries that let the resolvers above scale to 320k-pole cities.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod aloha;
pub mod coverage;
pub mod grid;
pub mod ieee802154;
pub mod interference;
pub mod link;
pub mod lora;
pub mod mesh;
pub mod packet;
pub mod placement;
pub mod pathloss;
pub mod topology;
pub mod units;

pub use coverage::{Coverage, RadioParams};
pub use grid::SpatialGrid;
pub use lora::{LoraConfig, SpreadingFactor};
pub use packet::{Payload, RadioTech};
pub use topology::{ManhattanCity, Point};
pub use units::{Db, Dbm};
