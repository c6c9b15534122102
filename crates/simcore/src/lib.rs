//! `simcore` — deterministic discrete-event simulation substrate.
//!
//! This crate is the foundation of the `century` toolkit (a reproduction of
//! *Century-Scale Smart Infrastructure*, HotOS ’21). It provides:
//!
//! * [`time`] — a u64-second clock spanning century-scale horizons, with a
//!   simplified 365-day calendar for seasonal models and report formatting.
//! * [`rng`] — an in-tree xoshiro256\*\* generator with hierarchical stream
//!   splitting, so every simulated entity owns an independent, reproducible
//!   random stream.
//! * [`dist`] — validated samplers for the distributions the higher layers
//!   need (Weibull lifetimes, lognormal service times, Zipf populations, …).
//! * [`event`] / [`engine`] — a stable-FIFO event queue and the
//!   discrete-event loop.
//! * [`stats`], [`survival`], [`series`] — single-pass moments and exact
//!   order statistics, Kaplan–Meier survival curves, and time-series
//!   recording for figures.
//! * [`trace`] — the structured "experimental diary" the paper commits to
//!   publishing (§4.5).
//! * [`snapshot`] — the versioned, checksummed binary substrate for
//!   checkpoint/restore: atomic writes, torn-file rejection, and the
//!   byte codecs higher layers serialize world state with.
//!
//! # Quick example
//!
//! ```
//! use simcore::engine::{Ctx, Engine, World};
//! use simcore::dist::Exponential;
//! use simcore::rng::Rng;
//! use simcore::time::{SimDuration, SimTime};
//!
//! // A device that fails after an exponential lifetime and is replaced
//! // after a fixed truck-roll delay, forever.
//! struct Fleet {
//!     rng: Rng,
//!     ttf: Exponential,
//!     failures: u32,
//! }
//!
//! enum Ev { Fail, Replaced }
//!
//! impl World for Fleet {
//!     type Event = Ev;
//!     fn handle(&mut self, ctx: &mut Ctx<'_, Ev>, ev: Ev) {
//!         match ev {
//!             Ev::Fail => {
//!                 self.failures += 1;
//!                 ctx.schedule_in(SimDuration::from_days(3), Ev::Replaced);
//!             }
//!             Ev::Replaced => {
//!                 let life = SimDuration::from_years_f64(self.ttf.sample(&mut self.rng));
//!                 ctx.schedule_in(life, Ev::Fail);
//!             }
//!         }
//!     }
//! }
//!
//! let ttf = Exponential::with_mean(4.0).unwrap(); // Mean 4-year lifetime.
//! let mut engine = Engine::new(Fleet { rng: Rng::seed_from(1), ttf, failures: 0 });
//! engine.schedule_at(SimTime::ZERO, Ev::Replaced);
//! engine.run_until(SimTime::from_years(50));
//! // Roughly 50/4 failures over the horizon.
//! assert!(engine.world().failures > 5);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod dist;
pub mod engine;
pub mod error;
pub mod event;
pub mod rng;
pub mod series;
pub mod snapshot;
pub mod stats;
pub mod survival;
pub mod time;
pub mod trace;

pub use engine::{
    Ctx, Engine, EngineCheckpoint, EngineProfile, FaultHook, ResumeError, RunOutcome, SimError,
    Watchdog, World,
};
pub use error::ModelError;
pub use rng::Rng;
pub use time::{SimDuration, SimTime};
