//! The 50-year experiment harness (§4, exhibit E9).
//!
//! Wraps [`fleet::sim::FleetSim`] with Monte-Carlo replication over seeds
//! `base_seed..base_seed + replicates`: one call reproduces both arms of
//! the paper's experiment across seeds and reports the uptime
//! distribution, the intervention counts, and the cost of keeping each
//! arm alive for fifty years.
//!
//! Replicates are embarrassingly parallel and fully deterministic per
//! seed, so results are independent of scheduling: workers claim seed
//! indices from an atomic counter, and the collector reorders by index
//! before aggregation. [`run_replicated`] and [`run_reports`] give the
//! same summaries, reports and digests at any thread count.
//!
//! A panic inside one replicate is caught at the replicate boundary and
//! surfaced as [`ParallelError::ReplicatePanicked`] **with the failing
//! seed** — a 64-seed batch that dies on seed 41 tells you so, instead of
//! handing back a bare payload that leaves you bisecting. When several
//! replicates panic, the smallest seed wins deterministically,
//! independent of thread scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};

use fleet::sim::{FleetConfig, FleetReport, FleetSim};
use simcore::trace::Severity;

use crate::metrics::{ArmRow, ArmSummary};

/// Results of a replicated 50-year experiment.
#[derive(Debug)]
pub struct ExperimentOutcome {
    /// Per-arm summaries across replicates (configuration order).
    pub arms: Vec<ArmSummary>,
    /// The full report of the first replicate (for diary inspection).
    pub exemplar: FleetReport,
    /// Replicates run.
    pub replicates: usize,
}

impl ExperimentOutcome {
    /// Incidents (interventions) logged in the exemplar run's diary.
    pub fn exemplar_incidents(&self) -> usize {
        self.exemplar.diary().count(Severity::Incident)
    }
}

/// Failures of the replicate drivers: bad preconditions, or a replicate
/// that panicked mid-run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParallelError {
    /// `replicates` was zero: there would be no reports to aggregate.
    ZeroReplicates,
    /// `threads` was zero: no worker could claim a seed.
    ZeroThreads,
    /// One replicate's config construction or simulation run panicked.
    /// When several do, the smallest seed is reported, deterministically.
    ReplicatePanicked {
        /// The seed whose replicate died (`base_seed + index`).
        seed: u64,
        /// The panic payload, stringified (`<non-string panic payload>`
        /// when the payload was neither `String` nor `&str`).
        message: String,
    },
}

impl core::fmt::Display for ParallelError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ParallelError::ZeroReplicates => f.write_str("need at least one replicate"),
            ParallelError::ZeroThreads => f.write_str("need at least one thread"),
            ParallelError::ReplicatePanicked { seed, message } => {
                write!(f, "replicate seed {seed} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for ParallelError {}

/// Renders a caught panic payload for [`ParallelError::ReplicatePanicked`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "<non-string panic payload>".to_string())
}

/// Runs `replicates` seeds (`base_seed..base_seed + replicates`) across
/// `threads` workers and folds every arm into an [`ArmSummary`] in seed
/// order. Each worker reduces a report to its [`ArmRow`] scalars as soon
/// as the run finishes, except seed `base_seed`, whose full report is
/// kept as the exemplar — memory stays O(threads), not O(replicates).
///
/// # Errors
///
/// [`ParallelError`] if `replicates` or `threads` is zero, or
/// [`ParallelError::ReplicatePanicked`] (naming the smallest failing
/// seed) if any replicate panics.
pub fn run_replicated(
    make_config: &(dyn Fn(u64) -> FleetConfig + Sync),
    base_seed: u64,
    replicates: usize,
    threads: usize,
) -> Result<ExperimentOutcome, ParallelError> {
    let mut indexed = run_indexed(make_config, base_seed, replicates, threads, |i, report| {
        let rows: Vec<ArmRow> = report.arms.iter().map(ArmRow::of).collect();
        (rows, (i == 0).then_some(report))
    })?;
    indexed.sort_by_key(|&(i, _)| i);
    let mut arms: Vec<ArmSummary> = Vec::new();
    let mut exemplar = None;
    for (_, (rows, report)) in indexed {
        if arms.is_empty() {
            arms = rows.iter().map(|r| ArmSummary::new(r.name)).collect();
        }
        for (summary, row) in arms.iter_mut().zip(&rows) {
            summary.add_row(row);
        }
        exemplar = exemplar.or(report);
    }
    // The pool ran index 0 (replicates > 0, no panic), so the exemplar
    // exists; re-surface the precondition error rather than panic.
    let exemplar = exemplar.ok_or(ParallelError::ZeroReplicates)?;
    Ok(ExperimentOutcome { arms, exemplar, replicates })
}

/// Runs `replicates` seeds (`base_seed..base_seed + replicates`) across
/// `threads` workers, returning the full reports in seed order.
///
/// # Errors
///
/// [`ParallelError`] if `replicates` or `threads` is zero, or
/// [`ParallelError::ReplicatePanicked`] (naming the smallest failing
/// seed) if any replicate panics.
pub fn run_reports(
    make_config: &(dyn Fn(u64) -> FleetConfig + Sync),
    base_seed: u64,
    replicates: usize,
    threads: usize,
) -> Result<Vec<FleetReport>, ParallelError> {
    let mut indexed = run_indexed(make_config, base_seed, replicates, threads, |_, report| report)?;
    indexed.sort_by_key(|&(i, _)| i);
    Ok(indexed.into_iter().map(|(_, r)| r).collect())
}

/// Worker pool shared by both drivers: claims seed indices from an
/// atomic counter, runs each seed with [`FleetSim::run`], and maps each
/// finished report through `extract` so callers choose how much of it
/// outlives the run. Results are unordered; callers sort by index.
///
/// Panics are caught at the replicate boundary
/// (`catch_unwind(AssertUnwindSafe(..))` — safe because the replicate's
/// world and report are abandoned on failure, never reused) and
/// the worker stops claiming seeds. The collector still joins every
/// worker, then reports the panicking replicate with the **smallest
/// seed**, so the error is independent of which worker happened to claim
/// what.
///
/// # Panics
///
/// Re-raises a panic only if it somehow escapes the per-replicate guard
/// (e.g. from a `Drop` impl during unwinding).
fn run_indexed<T: Send>(
    make_config: &(dyn Fn(u64) -> FleetConfig + Sync),
    base_seed: u64,
    replicates: usize,
    threads: usize,
    extract: impl Fn(usize, FleetReport) -> T + Sync,
) -> Result<Vec<(usize, T)>, ParallelError> {
    if replicates == 0 {
        return Err(ParallelError::ZeroReplicates);
    }
    if threads == 0 {
        return Err(ParallelError::ZeroThreads);
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.min(replicates))
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= replicates {
                            break;
                        }
                        let seed = base_seed + i as u64;
                        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                            || (i, extract(i, FleetSim::run(make_config(seed)))),
                        ));
                        match attempt {
                            Ok(item) => local.push(item),
                            Err(payload) => {
                                return (
                                    local,
                                    Some((seed, panic_message(payload.as_ref()))),
                                );
                            }
                        }
                    }
                    (local, None)
                })
            })
            .collect();
        let mut all = Vec::with_capacity(replicates);
        let mut first_panic: Option<(u64, String)> = None;
        for handle in handles {
            match handle.join() {
                Ok((local, failure)) => {
                    all.extend(local);
                    if let Some((seed, message)) = failure {
                        let beats = match &first_panic {
                            None => true,
                            Some((earliest, _)) => seed < *earliest,
                        };
                        if beats {
                            first_panic = Some((seed, message));
                        }
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        match first_panic {
            Some((seed, message)) => Err(ParallelError::ReplicatePanicked { seed, message }),
            None => Ok(all),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::stats::Samples;

    #[test]
    fn replication_aggregates_both_arms() {
        let out = run_replicated(&FleetConfig::paper_experiment, 100, 3, 2).unwrap();
        assert_eq!(out.replicates, 3);
        assert_eq!(out.arms.len(), 2);
        for arm in &out.arms {
            assert_eq!(arm.replicates(), 3);
            assert!(arm.uptime.mean() > 0.3, "{} uptime {}", arm.name, arm.uptime.mean());
        }
        assert!(out.exemplar_incidents() > 0);
    }

    #[test]
    fn run_replicated_equals_a_serial_fold_at_any_thread_count() {
        // Oracle: plain one-seed-at-a-time runs, folded in seed order.
        let (base, n) = (700, 5);
        let mut oracle: Vec<ArmSummary> = Vec::new();
        let mut exemplar_digest = None;
        for seed in base..base + n as u64 {
            let report = FleetSim::run(FleetConfig::paper_experiment(seed));
            if oracle.is_empty() {
                oracle = report.arms.iter().map(|a| ArmSummary::new(a.name)).collect();
            }
            for (summary, arm) in oracle.iter_mut().zip(&report.arms) {
                summary.add_row(&ArmRow::of(arm));
            }
            exemplar_digest.get_or_insert(report.digest());
        }
        let bits = |s: &Samples| s.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for threads in [1, 3, 8] {
            let out = run_replicated(&FleetConfig::paper_experiment, base, n, threads).unwrap();
            assert_eq!(out.replicates, n);
            assert_eq!(Some(out.exemplar.digest()), exemplar_digest, "threads {threads}");
            assert_eq!(out.arms.len(), oracle.len());
            for (o, a) in oracle.iter().zip(&out.arms) {
                assert_eq!(o.name, a.name);
                // Value AND order (seed order), not just as a multiset.
                for (x, y) in [
                    (&o.uptime, &a.uptime),
                    (&o.data_yield, &a.data_yield),
                    (&o.device_failures, &a.device_failures),
                    (&o.gateway_repairs, &a.gateway_repairs),
                    (&o.spend_dollars, &a.spend_dollars),
                    (&o.labor_hours, &a.labor_hours),
                ] {
                    assert_eq!(bits(x), bits(y), "{} at threads {threads}", o.name);
                }
            }
        }
    }

    #[test]
    fn parallel_digests_match_serial() {
        // The acceptance bar for the observability layer: same seed ⇒ the
        // same run digest whether the replicate ran serial or threaded.
        let serial: Vec<u64> = (0..4)
            .map(|i| FleetSim::run(FleetConfig::paper_experiment(900 + i)).digest())
            .collect();
        let parallel: Vec<u64> = run_reports(&FleetConfig::paper_experiment, 900, 4, 4)
            .unwrap()
            .iter()
            .map(FleetReport::digest)
            .collect();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn nested_plan_threads_keep_replicate_digests() {
        // 64k devices is past `SERIAL_FALLBACK_DEVICES`, so every build
        // plans its arms on threads inside a replicate worker that is
        // itself one of two.
        let cfg = |seed: u64| FleetConfig {
            horizon: simcore::SimDuration::from_years(1),
            ..FleetConfig::scaled(seed, 64_000).with_sampling(fleet::sim::SamplingMode::Aggregate)
        };
        let serial: Vec<u64> = (0..3).map(|i| FleetSim::run(cfg(40 + i)).digest()).collect();
        let nested: Vec<u64> =
            run_reports(&cfg, 40, 3, 2).unwrap().iter().map(FleetReport::digest).collect();
        assert_eq!(serial, nested);
    }

    #[test]
    fn reports_in_seed_order_regardless_of_threads() {
        let one = run_reports(&FleetConfig::paper_experiment, 50, 6, 1).unwrap();
        let many = run_reports(&FleetConfig::paper_experiment, 50, 6, 6).unwrap();
        for (a, b) in one.iter().zip(&many) {
            assert_eq!(a.arms[0].readings_delivered, b.arms[0].readings_delivered);
            assert_eq!(a.diary().len(), b.diary().len());
        }
    }

    #[test]
    fn more_threads_than_replicates_is_fine() {
        let out = run_reports(&FleetConfig::paper_experiment, 1, 2, 16).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn zero_preconditions_are_typed_errors() {
        assert_eq!(
            run_reports(&FleetConfig::paper_experiment, 1, 0, 4).unwrap_err(),
            ParallelError::ZeroReplicates
        );
        assert_eq!(
            run_reports(&FleetConfig::paper_experiment, 1, 4, 0).unwrap_err(),
            ParallelError::ZeroThreads
        );
        match run_replicated(&FleetConfig::paper_experiment, 1, 0, 4) {
            Err(e @ ParallelError::ZeroReplicates) => {
                assert_eq!(e.to_string(), "need at least one replicate");
            }
            other => panic!("expected ZeroReplicates, got {other:?}"),
        }
        match run_replicated(&FleetConfig::paper_experiment, 1, 4, 0) {
            Err(e @ ParallelError::ZeroThreads) => {
                assert_eq!(e.to_string(), "need at least one thread");
            }
            other => panic!("expected ZeroThreads, got {other:?}"),
        }
    }

    #[test]
    fn replicate_panic_reports_the_failing_seed() {
        // Regression: the panic message itself does NOT name the seed —
        // the runner must thread it through the typed error.
        let boom = |seed: u64| -> FleetConfig {
            assert!(seed != 103, "config rejected");
            FleetConfig::paper_experiment(seed)
        };
        let err = run_reports(&boom, 100, 6, 2).unwrap_err();
        match &err {
            ParallelError::ReplicatePanicked { seed, message } => {
                assert_eq!(*seed, 103, "the failing replicate's seed");
                assert!(message.contains("config rejected"), "payload survives: {message:?}");
            }
            other => panic!("expected ReplicatePanicked, got {other:?}"),
        }
        let shown = err.to_string();
        assert!(shown.contains("seed 103"), "Display names the seed: {shown}");
        assert!(shown.contains("config rejected"), "Display keeps the payload: {shown}");
    }

    #[test]
    fn multiple_panics_report_the_smallest_seed_deterministically() {
        let boom = |seed: u64| -> FleetConfig {
            assert!(seed != 2 && seed != 4, "boom");
            FleetConfig::paper_experiment(seed)
        };
        // Max parallelism so both failing seeds are usually claimed by
        // different workers; the collector must still pick seed 2.
        for _ in 0..4 {
            match run_reports(&boom, 0, 6, 6).unwrap_err() {
                ParallelError::ReplicatePanicked { seed, .. } => assert_eq!(seed, 2),
                other => panic!("expected ReplicatePanicked, got {other:?}"),
            }
        }
    }

    #[test]
    fn run_replicated_reports_panics_too() {
        let boom = |seed: u64| -> FleetConfig {
            assert!(seed != 1, "boom");
            FleetConfig::paper_experiment(seed)
        };
        match run_replicated(&boom, 0, 3, 2).unwrap_err() {
            ParallelError::ReplicatePanicked { seed, .. } => assert_eq!(seed, 1),
            other => panic!("expected ReplicatePanicked, got {other:?}"),
        }
    }
}
