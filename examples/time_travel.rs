//! Time travel: rewind a fifty-year run to just before a storm hits.
//!
//! The snapshot layer (`fleet::run::checkpoint` writes, `fleet::snapshot`
//! restores, a resumed `fleet::run::Run` replays) makes a mid-run
//! checkpoint a first-class artifact: a sealed,
//! checksummed file that rebuilds the *exact* simulation state — clock,
//! pending events, every rng stream, wallets, wear, diaries, chaos replay
//! progress. This demo uses it the way an operator would after an ugly
//! incident in production telemetry:
//!
//! 1. run the storm-heavy half-century once, uninterrupted, and note the
//!    first correlated-outage incident in the §4.5 diary;
//! 2. re-run with a checkpoint planted one week *before* that incident,
//!    then "crash" (drop everything);
//! 3. resume from the file and replay through the storm — twice — and
//!    check both replays digest bit-identically to the uninterrupted run.
//!
//! Same bytes in, same catastrophe out: the rewind is a genuine time
//! machine, not an approximation.
//!
//! ```text
//! cargo run --release --example time_travel
//! ```

use chaos::{FaultKind, FaultPlanBuilder};
use fleet::run::{Run, Shards, Start};
use fleet::sim::FleetConfig;
use fleet::snapshot;
use simcore::time::{SimDuration, SimTime};

fn main() {
    let seed = 2021;
    let cfg = || FleetConfig::paper_experiment(seed);
    let builder = FaultPlanBuilder::storm_heavy(seed);
    #[allow(clippy::expect_used)]
    // simlint: allow(P001, demo binary; 1.0 is a valid intensity)
    let plan = builder.build(&cfg(), 1.0).expect("1.0 is a valid intensity");

    // --- Act 1: the uninterrupted timeline. -----------------------------
    let baseline = chaos::run_with_plan(cfg(), plan.clone());
    println!("=== uninterrupted storm-heavy run (seed {seed}) ===");
    println!(
        "  {} faults planned, digest {:016x}, {} events",
        plan.len(),
        baseline.digest(),
        baseline.events_processed
    );

    // The incident to rewind to: the first regional-storm fault in the
    // plan (plans are time-ordered).
    #[allow(clippy::expect_used)]
    let storm = plan
        .faults()
        .iter()
        .find(|f| matches!(f.kind, FaultKind::RegionalOutage { .. }))
        // simlint: allow(P001, demo binary; storm_heavy plans always carry storms)
        .expect("storm_heavy plans always carry storms");
    let storm_week = storm.at.as_secs() / SimDuration::from_weeks(1).as_secs();
    let rewind_point = SimTime::ZERO + SimDuration::from_weeks(storm_week.saturating_sub(1));
    println!("  first regional storm lands in week {storm_week};");
    println!("  planting the checkpoint one week earlier.\n");

    // --- Act 2: checkpoint before the storm, then crash. ----------------
    let snap = std::env::temp_dir().join(format!("time-travel-seed{seed}.snap"));
    let live = fleet::run::checkpoint(cfg(), plan.clone(), rewind_point, &snap);
    #[allow(clippy::expect_used)]
    // simlint: allow(P001, demo binary; temp dir is writable)
    let (engine, injector) = live.expect("checkpoint writes to the temp dir");
    println!("=== checkpoint at week {} ===", storm_week.saturating_sub(1));
    println!(
        "  {} of {} faults already replayed, {} bytes on disk at {}",
        injector.progress().next,
        plan.len(),
        std::fs::metadata(&snap).map(|m| m.len()).unwrap_or(0),
        snap.display()
    );
    // The crash: the live engine and injector are gone. Only the file —
    // and the original config and plan — survive.
    drop(engine);
    drop(injector);
    println!("  ...crash. Engine dropped; only the snapshot file remains.\n");

    // --- Act 3: resume and replay the storm, twice. ---------------------
    println!("=== replaying the storm from the snapshot ===");
    for attempt in 1..=2 {
        #[allow(clippy::expect_used)]
        let resumed = snapshot::resume_from(&snap, cfg())
            // simlint: allow(P001, demo binary; the snapshot was just written)
            .expect("the snapshot was just written");
        let start = Start::Resumed(Box::new(resumed));
        let report = Run { start, faults: plan.clone(), shards: Shards::SERIAL }.execute();
        let identical = report.digest() == baseline.digest();
        println!(
            "  replay {attempt}: digest {:016x}, {} events — {}",
            report.digest(),
            report.events_processed,
            if identical { "bit-identical to the uninterrupted timeline" } else { "DRIFTED" }
        );
        assert!(identical, "time travel must reproduce the timeline exactly");
    }

    // What the rewound week actually contains: the diary lines around the
    // storm, straight from a resumed run.
    #[allow(clippy::expect_used)]
    let resumed = snapshot::resume_from(&snap, cfg())
        // simlint: allow(P001, demo binary; the snapshot was just written)
        .expect("the snapshot was just written");
    println!(
        "\n  resumed clock: week {} (sim time {} s)",
        resumed.engine.now().as_secs() / SimDuration::from_weeks(1).as_secs(),
        resumed.engine.now().as_secs()
    );
    let start = Start::Resumed(Box::new(resumed));
    let report = Run { start, faults: plan.clone(), shards: Shards::SERIAL }.execute();
    println!("  diary entries for the storm and its aftermath:");
    for line in report
        .diary
        .render()
        .lines()
        .filter(|l| l.contains("chaos:"))
        .take(6)
    {
        println!("    {line}");
    }

    let _ = std::fs::remove_file(&snap);
    println!("\nSame bytes, same storm, same half-century: rewind verified.");
}
