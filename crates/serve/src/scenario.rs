//! Scenario requests: the pure function from a wire request to a
//! deterministic simulation run.
//!
//! A serve request names a *scenario* (a config constructor), a seed and
//! a handful of knobs. [`RunSpec::fleet_config`] maps those to the exact
//! [`FleetConfig`] a library caller would build, and
//! [`RunSpec::fault_plan`] derives the chaos schedule from the same
//! published recipe — so a client, the daemon, and a direct library run
//! all construct bit-identical worlds. That purity is the whole serving
//! story: it is what makes results cacheable by fingerprint and
//! re-provable on demand (`op:"replay"`), and `tests/serve_differential.rs`
//! holds the daemon to it digest-for-digest.
//!
//! The cache key ([`RunSpec::request_key`]) reuses
//! [`fleet::snapshot::config_fingerprint`] — the same fold that guards
//! snapshot resume — extended with the chaos recipe, which changes run
//! output but is not part of the fleet config. Shard count is
//! deliberately *excluded*: sharded execution is digest-identical to
//! serial by the `fleet::shard` contract, so `k=1` and `k=4` requests
//! for the same scenario share one cache entry.

use std::num::NonZeroUsize;

use chaos::{FaultPlan, FaultPlanBuilder};
use fleet::run::{Run, Shards, Start};
use fleet::shard::ShardError;
use fleet::sim::{FleetConfig, SamplingMode};
use fleet::snapshot::config_fingerprint;
use simcore::snapshot::{fnv1a, ByteWriter};
use simcore::time::SimDuration;

use crate::ServeError;

/// Salt folded into the chaos plan seed so a scenario's fault schedule
/// is a *published* function of the request seed: plan seed =
/// `seed ^ CHAOS_PLAN_SALT`. Clients and replay verifiers reconstruct
/// the identical plan from this constant (see DESIGN.md §16).
pub const CHAOS_PLAN_SALT: u64 = 0x6365_6e74_5f73_7276; // "cent_srv"

/// Bounds on the horizon knob: a zero-year run is meaningless and a
/// 10-millennium request is a typo, not a workload.
pub const MAX_YEARS: u64 = 10_000;

/// Bounds on the shard knob (matches the differential suites' range).
pub const MAX_SHARDS: usize = 64;

/// Bounds on the scaled scenario's device knob.
pub const MAX_DEVICES: usize = 4_000_000;

/// Which config constructor the request names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// The paper's two-arm experiment ([`FleetConfig::paper_experiment`]).
    Paper,
    /// The synthetic many-arm fleet
    /// ([`FleetConfig::scaled`]): 16 equal owned arms totalling `devices`
    /// sensors.
    Scaled {
        /// Total device count across the 16 arms.
        devices: usize,
    },
}

/// The chaos recipe requested, if any.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ChaosSpec {
    /// Fault-free run.
    Off,
    /// [`FaultPlanBuilder::full`] at the given intensity.
    Full {
        /// Plan intensity in `[0, 1]`.
        intensity: f64,
    },
    /// [`FaultPlanBuilder::storm_heavy`] at the given intensity.
    Storm {
        /// Plan intensity in `[0, 1]`.
        intensity: f64,
    },
}

/// A fully-validated run request: everything that determines the run's
/// digest, and nothing that does not (stream/cache/deadline knobs live
/// on the enclosing request).
#[derive(Clone, Debug, PartialEq)]
pub struct RunSpec {
    /// Scenario constructor.
    pub scenario: Scenario,
    /// Master seed.
    pub seed: u64,
    /// Horizon in years.
    pub years: u64,
    /// Weekly sampling mode (legacy or aggregate).
    pub sampling: SamplingMode,
    /// Worker-side shard count (`1` = serial). Never part of the cache
    /// key: sharded digests are bit-identical to serial by contract.
    pub shards: usize,
    /// Chaos recipe.
    pub chaos: ChaosSpec,
}

/// What a completed run leaves behind: the digest, the event count, and
/// the rendered JSONL body (diary, spans, metrics — the
/// [`FleetReport::export_jsonl`](fleet::sim::FleetReport::export_jsonl)
/// stream the daemon serves back).
#[derive(Debug)]
pub struct RunArtifact {
    /// The deterministic 64-bit run digest.
    pub digest: u64,
    /// Events the engine processed.
    pub events: u64,
    /// `FleetReport::export_jsonl` output.
    pub body: String,
}

impl RunSpec {
    /// The exact configuration a direct library caller would build for
    /// this request.
    pub fn fleet_config(&self) -> FleetConfig {
        let mut cfg = match self.scenario {
            Scenario::Paper => FleetConfig::paper_experiment(self.seed),
            Scenario::Scaled { devices } => FleetConfig::scaled(self.seed, devices),
        };
        cfg.horizon = SimDuration::from_years(self.years);
        cfg.with_sampling(self.sampling)
    }

    /// The chaos plan for this request, built from the published recipe
    /// (`FaultPlanBuilder::{full,storm_heavy}(seed ^ CHAOS_PLAN_SALT)`
    /// against [`fleet_config`](Self::fleet_config)), or `None` for
    /// plain runs.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] if the intensity is outside `[0, 1]`
    /// (surfaced from the chaos crate's own validation).
    pub fn fault_plan(&self) -> Result<Option<FaultPlan>, ServeError> {
        let (builder, intensity) = match self.chaos {
            ChaosSpec::Off => return Ok(None),
            ChaosSpec::Full { intensity } => {
                (FaultPlanBuilder::full(self.seed ^ CHAOS_PLAN_SALT), intensity)
            }
            ChaosSpec::Storm { intensity } => {
                (FaultPlanBuilder::storm_heavy(self.seed ^ CHAOS_PLAN_SALT), intensity)
            }
        };
        builder
            .build(&self.fleet_config(), intensity)
            .map(Some)
            .map_err(|e| ServeError::BadRequest(format!("chaos plan rejected: {e}")))
    }

    /// The digest-addressed cache key: the snapshot config fingerprint
    /// (seed, horizon, sampling, every arm's shape — the facets that
    /// rebuild the world) extended with the chaos recipe. Two requests
    /// with equal keys are the *same pure computation*; shard count and
    /// transport knobs never enter the fold.
    pub fn request_key(&self) -> u64 {
        let mut w = ByteWriter::new();
        w.put_str("century-serve-cache-key-v1");
        w.put_u64(config_fingerprint(&self.fleet_config()));
        match self.chaos {
            ChaosSpec::Off => w.put_u8(0),
            ChaosSpec::Full { intensity } => {
                w.put_u8(1);
                w.put_u64(intensity.to_bits());
            }
            ChaosSpec::Storm { intensity } => {
                w.put_u8(2);
                w.put_u64(intensity.to_bits());
            }
        }
        fnv1a(w.as_bytes())
    }

    /// Executes the request as one fresh [`Run`] under
    /// [`Shards::Forced`] — *forced* so a `k=4` request genuinely
    /// exercises multi-shard execution even on small fleets, exactly like
    /// the differential suites; `k=1` is the serial run.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for an invalid chaos recipe,
    /// [`ServeError::Internal`] for a zero shard count.
    pub fn execute(&self) -> Result<RunArtifact, ServeError> {
        let faults = self.fault_plan()?.unwrap_or_default();
        let Some(k) = NonZeroUsize::new(self.shards) else {
            return Err(ServeError::Internal(format!("shard: {}", ShardError::ZeroShards)));
        };
        let start = Start::Fresh(self.fleet_config());
        let report = Run { start, faults, shards: Shards::Forced(k) }.execute();
        Ok(RunArtifact {
            digest: report.digest(),
            events: report.events_processed,
            body: report.export_jsonl(),
        })
    }
}

/// Parses the run-shaped fields out of a request object, applying
/// defaults and validating ranges. Shared by `op:"run"` and
/// `op:"replay"`.
///
/// # Errors
///
/// [`ServeError::BadRequest`] naming the offending field.
pub fn run_spec_from(obj: &crate::json::Object) -> Result<RunSpec, ServeError> {
    let bad = |msg: String| Err(ServeError::BadRequest(msg));

    let scenario = match obj.str_field("scenario").unwrap_or("paper") {
        "paper" => {
            if obj.get("devices").is_some() {
                return bad("field 'devices' only applies to scenario \"scaled\"".to_string());
            }
            Scenario::Paper
        }
        "scaled" => {
            let devices = match obj.get("devices") {
                None => 1_000,
                Some(crate::json::Value::UInt(v)) => *v as usize,
                Some(_) => return bad("field 'devices' must be a non-negative integer".to_string()),
            };
            if devices == 0 || devices > MAX_DEVICES {
                return bad(format!("'devices' must be in 1..={MAX_DEVICES}"));
            }
            Scenario::Scaled { devices }
        }
        other => return bad(format!("unknown scenario {other:?} (expected \"paper\" or \"scaled\")")),
    };

    let seed = match obj.get("seed") {
        None => 0,
        Some(crate::json::Value::UInt(v)) => *v,
        Some(_) => return bad("field 'seed' must be a non-negative integer".to_string()),
    };

    let years = match obj.get("years") {
        None => 50,
        Some(crate::json::Value::UInt(v)) => *v,
        Some(_) => return bad("field 'years' must be a non-negative integer".to_string()),
    };
    if years == 0 || years > MAX_YEARS {
        return bad(format!("'years' must be in 1..={MAX_YEARS}"));
    }

    let sampling = match obj.str_field("sampling") {
        None | Some("legacy") => SamplingMode::Legacy,
        Some("aggregate") => SamplingMode::Aggregate,
        Some(other) => {
            return bad(format!(
                "unknown sampling {other:?} (expected \"legacy\" or \"aggregate\")"
            ))
        }
    };

    let shards = match obj.get("shards") {
        None => 1usize,
        Some(crate::json::Value::UInt(v)) => *v as usize,
        Some(_) => return bad("field 'shards' must be a non-negative integer".to_string()),
    };
    if shards == 0 || shards > MAX_SHARDS {
        return bad(format!("'shards' must be in 1..={MAX_SHARDS}"));
    }

    let intensity = match obj.get("intensity") {
        None => 1.0f64,
        Some(_) => match obj.f64_field("intensity") {
            Some(v) => v,
            None => return bad("field 'intensity' must be a number".to_string()),
        },
    };
    if !intensity.is_finite() || !(0.0..=1.0).contains(&intensity) {
        return bad("'intensity' must be a finite number in [0, 1]".to_string());
    }
    let chaos = match obj.str_field("chaos") {
        None | Some("off") => ChaosSpec::Off,
        Some("full") => ChaosSpec::Full { intensity },
        Some("storm") => ChaosSpec::Storm { intensity },
        Some(other) => {
            return bad(format!(
                "unknown chaos {other:?} (expected \"off\", \"full\" or \"storm\")"
            ))
        }
    };
    if matches!(chaos, ChaosSpec::Off) && obj.get("intensity").is_some() {
        return bad("field 'intensity' requires chaos \"full\" or \"storm\"".to_string());
    }

    Ok(RunSpec { scenario, seed, years, sampling, shards, chaos })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_object;
    use fleet::sim::FleetSim;

    fn spec(json: &str) -> Result<RunSpec, ServeError> {
        run_spec_from(&parse_object(json).map_err(|e| ServeError::BadRequest(e.to_string()))?)
    }

    #[test]
    fn defaults_are_the_paper_run() {
        let s = spec("{\"op\":\"run\"}").unwrap();
        assert_eq!(s.scenario, Scenario::Paper);
        assert_eq!((s.seed, s.years, s.shards), (0, 50, 1));
        assert_eq!(s.sampling, SamplingMode::Legacy);
        assert_eq!(s.chaos, ChaosSpec::Off);
        assert_eq!(s.fleet_config().horizon, SimDuration::from_years(50));
    }

    #[test]
    fn range_and_type_validation() {
        assert!(spec("{\"years\":0}").is_err());
        assert!(spec("{\"years\":10001}").is_err());
        assert!(spec("{\"shards\":0}").is_err());
        assert!(spec("{\"shards\":65}").is_err());
        assert!(spec("{\"seed\":-1}").is_err());
        assert!(spec("{\"scenario\":\"nope\"}").is_err());
        assert!(spec("{\"chaos\":\"full\",\"intensity\":1.5}").is_err());
        assert!(spec("{\"intensity\":0.5}").is_err(), "intensity without chaos");
        assert!(spec("{\"devices\":10}").is_err(), "devices without scaled");
        assert!(spec("{\"scenario\":\"scaled\",\"devices\":0}").is_err());
    }

    #[test]
    fn cache_key_ignores_shards_but_not_chaos_or_sampling() {
        let base = spec("{\"seed\":7,\"years\":10}").unwrap();
        let sharded = spec("{\"seed\":7,\"years\":10,\"shards\":4}").unwrap();
        assert_eq!(base.request_key(), sharded.request_key(), "shards must not split the cache");

        let chaotic = spec("{\"seed\":7,\"years\":10,\"chaos\":\"full\"}").unwrap();
        assert_ne!(base.request_key(), chaotic.request_key());
        let storm = spec("{\"seed\":7,\"years\":10,\"chaos\":\"storm\"}").unwrap();
        assert_ne!(chaotic.request_key(), storm.request_key());
        let dialed = spec("{\"seed\":7,\"years\":10,\"chaos\":\"full\",\"intensity\":0.5}").unwrap();
        assert_ne!(chaotic.request_key(), dialed.request_key());

        let agg = spec("{\"seed\":7,\"years\":10,\"sampling\":\"aggregate\"}").unwrap();
        assert_ne!(base.request_key(), agg.request_key());
        let other_seed = spec("{\"seed\":8,\"years\":10}").unwrap();
        assert_ne!(base.request_key(), other_seed.request_key());
    }

    #[test]
    fn execute_matches_direct_library_run() {
        let s = spec("{\"seed\":3,\"years\":2}").unwrap();
        let direct = FleetSim::run(s.fleet_config());
        let served = s.execute().unwrap();
        assert_eq!(served.digest, direct.digest());
        assert_eq!(served.events, direct.events_processed);
        assert_eq!(served.body, direct.export_jsonl());
    }
}
