//! `telemetry` — the observability layer of the century toolkit.
//!
//! The paper commits to a "public, living diary" of every intervention
//! over the 50-year experiment (§4.5). [`simcore::trace::Diary`] records
//! *what happened*; this crate answers the operational questions around
//! it — where the simulated half-century went, how hot each path ran, and
//! whether a code change moved the physics:
//!
//! * [`registry`] — a metrics registry (counters, gauges, fixed-bucket
//!   histograms) handing out cheap cloneable handles. Handles are plain
//!   `Arc<Atomic…>` wrappers, safe to update from hot paths and from
//!   worker threads; the registry snapshots them deterministically
//!   (sorted by name) at the end of a run.
//! * [`span`] — sim-time spans (an interval with a name, e.g. "backhaul
//!   outage on arm 0") recorded alongside the diary's point events.
//! * [`jsonl`] — structured export of diaries, spans and metric
//!   snapshots as JSON Lines, one self-describing object per line, for
//!   external tooling. No serde: the encoder is ~50 lines and vendored
//!   builds stay offline.
//! * [`digest`] — a deterministic 64-bit FNV-1a fold over ordered
//!   telemetry. Two runs of the same seed are comparable by a single
//!   number; the golden-trace regression suite (`tests/golden_digests.rs`)
//!   pins those numbers so a PR that changes the physics fails loudly.
//!
//! Engine-level profiling (per-event-kind dispatch counts, wall-clock
//! handler time, queue high-water marks) lives in
//! [`simcore::engine::EngineProfile`], collected by the engine itself and
//! surfaced on `fleet::sim::FleetReport` next to this crate's snapshot.
//! Wall-clock figures are **excluded** from digests by contract; see
//! DESIGN.md §6 for exactly what the hash covers.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod digest;
pub mod jsonl;
#[cfg(test)]
mod oracle;
pub mod registry;
pub mod span;

pub use digest::Digest;
pub use registry::{
    Buckets, Counter, Gauge, Histogram, LocalHistogram, MetricValue, Registry, Snapshot,
    TelemetryError,
};
pub use span::{Span, SpanId, SpanLog};
