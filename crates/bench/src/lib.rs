//! `bench` — exhibit regeneration.
//!
//! The [`exhibits`] module regenerates every table and figure claimed in
//! EXPERIMENTS.md; the `tables` binary prints them. Timing is perfbench's
//! job (`perfbench/`, declared in BENCHMARK.json), which drives
//! [`parallel`]'s replicate runner.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod ablations;
pub mod exhibits;
pub mod figures;
pub mod parallel;
