//! Differential harness for snapshot/restore: the crash-recovery
//! correctness gate.
//!
//! The snapshot contract (`fleet::snapshot`, DESIGN.md §12) promises
//! that run-to-week-W → checkpoint → **crash** → resume → run-to-horizon
//! is bit-identical to the uninterrupted run: same digest, same event
//! count, same diary. This suite grinds that promise against 8 seeds ×
//! 3 checkpoint weeks × {plain, full-intensity chaos} × shard counts
//! {1, 4}, mirroring `tests/shard_differential.rs`: the uninterrupted
//! serial run is the reference implementation, the checkpoint/resume
//! path is the machinery under test, and the run digest is the
//! equivalence oracle.
//!
//! The crash is real in the only sense that matters: the engine is
//! dropped after the snapshot bytes exist, and the resumed world is
//! rebuilt from nothing but the config and those bytes. A separate test
//! simulates the *mid-write* crash — a torn, truncated, or bit-flipped
//! file — which must fail closed with a typed error, never load.

#![allow(clippy::unwrap_used, clippy::expect_used)] // Test-only target.

use std::num::NonZeroUsize;

use chaos::{FaultPlan, FaultPlanBuilder};
use fleet::run::{Run, Shards, Start};
use fleet::sim::{FleetConfig, FleetSim, SamplingMode};
use fleet::snapshot::{self, ChaosProgress};
use simcore::snapshot::SnapshotError;
use simcore::time::{SimDuration, SimTime};

const SEEDS: [u64; 8] = [1, 2, 3, 7, 42, 97, 1001, 0xdead_beef];
/// Checkpoint boundaries: the first week, mid-decade, and deep into the
/// second half of the 50-year horizon.
const CHECKPOINT_WEEKS: [u64; 3] = [1, 260, 1560];
const SHARD_COUNTS: [usize; 2] = [1, 4];

fn cfg(seed: u64) -> FleetConfig {
    FleetConfig::paper_experiment(seed)
}

fn week(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_weeks(n)
}

/// Forced: the paper fleet is below the small-fleet serial fallback, and
/// this suite wants the real multi-shard continuation.
fn forced(k: usize) -> Shards {
    Shards::Forced(NonZeroUsize::new(k).unwrap())
}

fn temp_path(name: String) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("century-snapshot-differential");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn plain_resume_matches_uninterrupted_across_seeds_weeks_and_k() {
    for seed in SEEDS {
        let baseline = FleetSim::run(cfg(seed));
        for w in CHECKPOINT_WEEKS {
            let mut engine = FleetSim::build(cfg(seed));
            engine.run_until(week(w));
            let bytes = snapshot::checkpoint_bytes(&mut engine, ChaosProgress::default());
            drop(engine); // The crash: nothing survives but the bytes.
            for k in SHARD_COUNTS {
                let resumed = snapshot::resume_from_bytes(&bytes, cfg(seed))
                    .expect("a freshly sealed snapshot verifies");
                let start = Start::Resumed(Box::new(resumed));
                let report =
                    Run { start, faults: FaultPlan::empty(), shards: forced(k) }.execute();
                assert_eq!(
                    report.digest(),
                    baseline.digest(),
                    "seed {seed}, checkpoint week {w}, k={k}: resumed digest drifted"
                );
                assert_eq!(
                    report.events_processed, baseline.events_processed,
                    "seed {seed}, checkpoint week {w}, k={k}"
                );
                assert_eq!(
                    report.diary.len(),
                    baseline.diary.len(),
                    "seed {seed}, checkpoint week {w}, k={k}"
                );
            }
        }
    }
}

#[test]
fn chaos_resume_matches_uninterrupted_across_seeds_weeks_and_k() {
    for seed in SEEDS {
        let plan = FaultPlanBuilder::full(seed ^ 0xc4a0).build(&cfg(seed), 1.0).unwrap();
        let baseline = chaos::run_with_plan(cfg(seed), plan.clone());
        for w in CHECKPOINT_WEEKS {
            // Through the real filesystem path: atomic write, then
            // verified read — the bench `--checkpoint-every/--resume`
            // flags ride exactly this route.
            let path = temp_path(format!("chaos-{seed}-w{w}.snap"));
            let _ = fleet::run::checkpoint(cfg(seed), plan.clone(), week(w), &path)
                .expect("checkpoint writes atomically");
            for k in SHARD_COUNTS {
                let resumed = snapshot::resume_from(&path, cfg(seed)).unwrap();
                let start = Start::Resumed(Box::new(resumed));
                let report = Run { start, faults: plan.clone(), shards: forced(k) }.execute();
                assert_eq!(
                    report.digest(),
                    baseline.digest(),
                    "seed {seed}, checkpoint week {w}, k={k}, chaos=full@1.0: digest drifted"
                );
                assert_eq!(
                    report.events_processed, baseline.events_processed,
                    "seed {seed}, checkpoint week {w}, k={k}, chaos=full@1.0"
                );
            }
            std::fs::remove_file(&path).unwrap();
        }
    }
}

#[test]
fn aggregate_mode_resume_matches_uninterrupted_across_seeds_weeks_and_k() {
    // The snapshot promise, re-proven over the aggregate sampling path:
    // the struct-of-arrays device columns, the wallet column, and the
    // rebuilt stuck-device index must all overlay to a world whose
    // remaining aggregate draws land exactly where the uninterrupted
    // run's did. (The aggregate cohort RNG is re-derived from the config,
    // not stored — this grind is what proves that's sufficient.)
    for seed in [1_u64, 7, 42, 1001] {
        let agg = |s: u64| cfg(s).with_sampling(SamplingMode::Aggregate);
        let baseline = FleetSim::run(agg(seed));
        let baseline_export = baseline.export_jsonl();
        for w in CHECKPOINT_WEEKS {
            let mut engine = FleetSim::build(agg(seed));
            engine.run_until(week(w));
            let bytes = snapshot::checkpoint_bytes(&mut engine, ChaosProgress::default());
            drop(engine); // The crash: nothing survives but the bytes.
            for k in SHARD_COUNTS {
                let resumed = snapshot::resume_from_bytes(&bytes, agg(seed))
                    .expect("a freshly sealed aggregate snapshot verifies");
                let start = Start::Resumed(Box::new(resumed));
                let report =
                    Run { start, faults: FaultPlan::empty(), shards: forced(k) }.execute();
                assert_eq!(
                    report.digest(),
                    baseline.digest(),
                    "seed {seed}, checkpoint week {w}, k={k}: aggregate resume drifted"
                );
                assert_eq!(
                    report.events_processed, baseline.events_processed,
                    "seed {seed}, checkpoint week {w}, k={k} (aggregate)"
                );
                // The resumed diary's prefix comes back from the snapshot
                // as text and its suffix is typed: the export must not
                // tell them apart.
                assert!(
                    report.export_jsonl() == baseline_export,
                    "seed {seed}, checkpoint week {w}, k={k}: aggregate resume export drifted"
                );
            }
        }
    }
}

#[test]
fn sampling_mode_is_part_of_the_config_fingerprint() {
    // A snapshot taken under one sampling mode must refuse to resume
    // under another: the modes advance different RNG streams, so a
    // cross-mode overlay would silently continue the wrong world.
    let aggregate = cfg(42).with_sampling(SamplingMode::Aggregate);
    let mut engine = FleetSim::build(aggregate.clone());
    engine.run_until(week(52));
    let bytes = snapshot::checkpoint_bytes(&mut engine, ChaosProgress::default());
    let Err(err) = snapshot::resume_from_bytes(&bytes, cfg(42)) else {
        panic!("legacy-mode resume of an aggregate snapshot must be refused");
    };
    assert!(matches!(err, SnapshotError::ConfigMismatch { .. }), "{err}");
    snapshot::resume_from_bytes(&bytes, aggregate).expect("same-mode resume verifies");
}

#[test]
fn resume_restores_chaos_progress_not_just_state() {
    // The stored replay cursor must skip already-fired faults: resuming
    // with the full plan but zeroed progress would double-inject.
    let seed = 42;
    let plan = FaultPlanBuilder::full(seed).build(&cfg(seed), 1.0).unwrap();
    let path = temp_path("progress-guard.snap".to_string());
    let (_, injector) =
        fleet::run::checkpoint(cfg(seed), plan.clone(), week(520), &path).unwrap();
    let fired = injector.progress().next;
    assert!(fired > 0, "a decade of full-intensity chaos fires faults");
    let resumed = snapshot::resume_from(&path, cfg(seed)).unwrap();
    assert_eq!(resumed.chaos.next, fired, "stored cursor must equal fired count");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn mid_write_crash_fails_closed() {
    // Simulated torn write: only a prefix of the sealed image reaches
    // disk. Every truncation length must be rejected with a typed error —
    // a torn snapshot is never silently loaded.
    let mut engine = FleetSim::build(cfg(7));
    engine.run_until(week(260));
    let bytes = snapshot::checkpoint_bytes(&mut engine, ChaosProgress::default());
    let path = temp_path("torn.snap".to_string());
    for cut in [0, 8, 9, 100, bytes.len() / 4, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let err = match snapshot::resume_from(&path, cfg(7)) {
            Err(e) => e,
            Ok(_) => panic!("torn snapshot ({cut} of {} bytes) must not load", bytes.len()),
        };
        assert!(
            matches!(
                err,
                SnapshotError::TooShort { .. }
                    | SnapshotError::LengthMismatch { .. }
                    | SnapshotError::ChecksumMismatch { .. }
            ),
            "truncation to {cut} bytes surfaced the wrong error: {err}"
        );
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn corrupted_snapshot_fails_closed() {
    // Single-bit flips at sampled offsets across the image: header,
    // payload, and trailer damage must all be caught by the checksum (or
    // an earlier framing check), never decoded.
    let mut engine = FleetSim::build(cfg(3));
    engine.run_until(week(52));
    let bytes = snapshot::checkpoint_bytes(&mut engine, ChaosProgress::default());
    let stride = (bytes.len() / 64).max(1);
    for offset in (0..bytes.len()).step_by(stride) {
        let mut flipped = bytes.clone();
        flipped[offset] ^= 0x01;
        assert!(
            snapshot::resume_from_bytes(&flipped, cfg(3)).is_err(),
            "bit flip at offset {offset} must be rejected"
        );
    }
}
