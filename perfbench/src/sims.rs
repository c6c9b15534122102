//! The simulator workloads: `fleet_1m` and `paper_sweep`.
//!
//! * `fleet_1m`: one op is a 1,000,000-device, 16-arm aggregate fleet
//!   run for one year (`FleetSim::run` + digest + `export_jsonl`), one
//!   seed per op, serially. Gate: the op digest equals
//!   `fleet::shard::run_sharded` on the same seed, and the first seed
//!   equals `SamplingMode::Reference`.
//! * `paper_sweep`: one op is the paper's 2-arm, 20-device, 50-year
//!   experiment over 64 seeds through the replicate runner at `nproc`
//!   threads; op `i` sweeps seeds `b+i .. b+i+64`. Gate: the XOR of the
//!   parallel digests equals the XOR of serial runs of the same seeds.
//!
//! Ops run back to back; the gates run after the timed phase.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use fleet::sim::FleetConfig;
use serve::scenario::RunSpec;
use simcore::rng::Rng;

use crate::adapter::{self, Sliced};
use crate::report::{self, mean, median, ms, Report};
use crate::serve_mix;
use crate::trace::Tracer;
use crate::Args;

/// Devices in the `fleet_1m` fleet.
pub const FLEET_DEVICES: usize = 1_000_000;
/// Horizon of a `fleet_1m` op, in years.
pub const FLEET_YEARS: u64 = 1;
/// Seeds per `paper_sweep` op (the paper's 64-seed sweep).
pub const SWEEP_SEEDS: usize = 64;
/// Set-up rounds whose median is `setup_s`.
pub const SETUP_ROUNDS: usize = 5;
/// Seeds a traced run times serial against sharded for `shard.speedup`.
const SHARD_SAMPLES: usize = 3;

/// The `fleet_1m` scenario for one seed.
pub fn fleet_spec(seed: u64) -> RunSpec {
    adapter::scaled_spec(FLEET_DEVICES, seed, FLEET_YEARS)
}

/// Op seeds of a workload: a pure function of the workload seed.
pub fn op_seeds(workload: &str, seed: u64) -> impl FnMut() -> u64 {
    let mut rng = Rng::seed_from(seed).split(workload, 0);
    // Sweep bases leave room for 64 consecutive seeds.
    move || rng.next_u64() >> 16
}

fn xor(digests: &[u64]) -> u64 {
    digests.iter().fold(0, |a, d| a ^ d)
}

/// One timed untraced sim op and what its gate needs.
struct Timed {
    time: Duration,
    digest: u64,
}

/// How one workload's op is run, gated and traced.
trait SimWorkload: Sync {
    fn name(&self) -> &'static str;
    /// Configured device-weeks of one op.
    fn op_device_weeks(&self) -> f64;
    /// The untraced op for `seed`.
    fn op(&self, seed: u64, nproc: usize) -> Result<Timed, String>;
    /// Whether op `i` of a run uses seed `first + i` (so the gate can
    /// share serial runs between overlapping sweeps) rather than a fresh
    /// seeded draw.
    fn consecutive_seeds(&self) -> bool;
    /// The gate, run after the timed phase: one message per `(seed,
    /// digest)` op that disagrees with its oracle.
    fn verify(&self, ops: &[(u64, u64)], nproc: usize) -> Result<Vec<String>, String>;
    /// The traced op: digest and per-run figures.
    fn traced(&self, seed: u64, nproc: usize, t: &mut Tracer, request: u64) -> (u64, Vec<Sliced>);
    /// The shape and count the replicate probe sweeps.
    fn replicate_probe(&self, nproc: usize) -> (fn(u64) -> FleetConfig, usize);
    /// One simulation run of this workload, as a request.
    fn spec(&self, seed: u64) -> RunSpec;
    /// The config of one simulation run of this workload.
    fn run_config(&self, seed: u64) -> FleetConfig {
        self.spec(seed).fleet_config()
    }
}

struct Fleet1m;

impl SimWorkload for Fleet1m {
    fn name(&self) -> &'static str {
        "fleet_1m"
    }
    fn op_device_weeks(&self) -> f64 {
        adapter::device_weeks(&self.run_config(0))
    }
    fn op(&self, seed: u64, _nproc: usize) -> Result<Timed, String> {
        let cfg = self.run_config(seed);
        let start = Instant::now();
        let out = adapter::op(cfg);
        Ok(Timed {
            time: start.elapsed(),
            digest: out.digest,
        })
    }
    fn consecutive_seeds(&self) -> bool {
        false
    }
    fn verify(&self, ops: &[(u64, u64)], nproc: usize) -> Result<Vec<String>, String> {
        let mut failures = Vec::new();
        if let Some(&(seed, digest)) = ops.first() {
            let reference = adapter::reference_digest(self.run_config(seed));
            if reference != digest {
                failures.push(format!(
                    "fleet_1m seed {seed}: aggregate {digest:016x} != reference {reference:016x}"
                ));
            }
        }
        for &(seed, digest) in ops {
            let sharded = adapter::op_sharded(self.run_config(seed), nproc)?.digest;
            if sharded != digest {
                failures.push(format!(
                    "fleet_1m seed {seed}: digest {digest:016x} != run_sharded {sharded:016x}"
                ));
            }
        }
        Ok(failures)
    }
    fn traced(&self, seed: u64, _nproc: usize, t: &mut Tracer, request: u64) -> (u64, Vec<Sliced>) {
        let root = t.open("op", None, request);
        let run = adapter::sliced(self.run_config(seed), t, Some(root), request);
        t.close(root);
        (run.digest, vec![run])
    }
    fn replicate_probe(&self, nproc: usize) -> (fn(u64) -> FleetConfig, usize) {
        (|s| fleet_spec(s).fleet_config(), nproc)
    }
    fn spec(&self, seed: u64) -> RunSpec {
        fleet_spec(seed)
    }
}

struct PaperSweep;

impl SimWorkload for PaperSweep {
    fn name(&self) -> &'static str {
        "paper_sweep"
    }
    fn op_device_weeks(&self) -> f64 {
        SWEEP_SEEDS as f64 * adapter::device_weeks(&self.run_config(0))
    }
    fn op(&self, seed: u64, nproc: usize) -> Result<Timed, String> {
        let start = Instant::now();
        let digests = adapter::sweep(&adapter::paper_config, seed, SWEEP_SEEDS, nproc)?;
        Ok(Timed {
            time: start.elapsed(),
            digest: xor(&digests),
        })
    }
    fn consecutive_seeds(&self) -> bool {
        true
    }
    fn verify(&self, ops: &[(u64, u64)], _nproc: usize) -> Result<Vec<String>, String> {
        // Op i sweeps seeds first+i .. first+i+63: one serial run per seed
        // of the union covers every op's window.
        let Some(first) = ops.iter().map(|&(s, _)| s).min() else {
            return Ok(Vec::new());
        };
        let last = ops.iter().map(|&(s, _)| s).max().unwrap_or(first) + SWEEP_SEEDS as u64;
        let serial: Vec<u64> = (first..last)
            .map(|s| adapter::run_digest(adapter::paper_config(s)))
            .collect();
        Ok(ops
            .iter()
            .filter_map(|&(base, digest)| {
                let at = (base - first) as usize;
                let expected = xor(&serial[at..at + SWEEP_SEEDS]);
                (expected != digest).then(|| format!("paper_sweep base {base}: parallel XOR {digest:016x} != serial XOR {expected:016x}"))
            })
            .collect())
    }
    fn traced(&self, seed: u64, nproc: usize, t: &mut Tracer, request: u64) -> (u64, Vec<Sliced>) {
        // The sweep's seeds over the same worker count, each seed through
        // the sliced adapter on its worker's own tracer.
        let root = t.open("op", None, request);
        let next = AtomicUsize::new(0);
        let done = Mutex::new(Vec::new());
        let origin = t.origin();
        std::thread::scope(|s| {
            for _ in 0..nproc {
                s.spawn(|| {
                    let mut local = Tracer::new(origin);
                    let mut runs = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= SWEEP_SEEDS {
                            break;
                        }
                        let seed_root = local.open("replicate.seed", None, request);
                        runs.push(adapter::sliced(
                            adapter::paper_config(seed + i as u64),
                            &mut local,
                            Some(seed_root),
                            request,
                        ));
                        local.close(seed_root);
                    }
                    done.lock()
                        .expect("no traced worker panics")
                        .push((local, runs));
                });
            }
        });
        t.close(root);
        let mut all = Vec::new();
        for (local, runs) in done.into_inner().expect("no traced worker panics") {
            t.absorb_under(local, Some(root));
            all.extend(runs);
        }
        (xor(&all.iter().map(|r| r.digest).collect::<Vec<_>>()), all)
    }
    fn replicate_probe(&self, _nproc: usize) -> (fn(u64) -> FleetConfig, usize) {
        (adapter::paper_config, SWEEP_SEEDS)
    }
    fn spec(&self, seed: u64) -> RunSpec {
        adapter::paper_spec(seed, 50)
    }
}

/// Runs `fleet_1m`.
pub fn fleet_1m(args: &Args) -> Result<Report, String> {
    run(&Fleet1m, args)
}

/// Runs `paper_sweep`.
pub fn paper_sweep(args: &Args) -> Result<Report, String> {
    run(&PaperSweep, args)
}

fn run(w: &dyn SimWorkload, args: &Args) -> Result<Report, String> {
    let nproc = crate::nproc();
    let mut next_seed = op_seeds(w.name(), args.seed);
    let mut report = Report::default();

    let mut setups = Vec::new();
    for _ in 0..SETUP_ROUNDS {
        let start = Instant::now();
        w.op(next_seed(), nproc)?;
        setups.push(start.elapsed().as_secs_f64());
    }
    let setup_s = median(&setups);

    let deadline = Instant::now() + args.run_time();
    if args.trace {
        traced_run(w, args, nproc, &mut next_seed, deadline, &mut report)?;
        return Ok(report);
    }

    // Ops run back to back; their gates run after the timed phase.
    let mut samples = Vec::new();
    let mut ops = Vec::new();
    let first = next_seed();
    report::reset_peak_rss();
    while samples.is_empty() || Instant::now() < deadline {
        let seed = if w.consecutive_seeds() {
            first + report.attempted
        } else {
            next_seed()
        };
        report.attempted += 1;
        match w.op(seed, nproc) {
            Ok(timed) => {
                samples.push(timed.time.as_secs_f64());
                ops.push((seed, timed.digest));
            }
            Err(e) => report.fail(format!("{} seed {seed}: {e}", w.name())),
        }
    }
    let peak = report::peak_rss_mb();
    for why in w.verify(&ops, nproc)? {
        report.fail(why);
    }
    summarize(&mut report, setup_s, peak, &samples, w.op_device_weeks());
    Ok(report)
}

/// The end-to-end metrics of a sim workload from its op times.
fn summarize(
    report: &mut Report,
    setup_s: f64,
    peak_mb: f64,
    op_secs: &[f64],
    op_device_weeks: f64,
) {
    let total: f64 = op_secs.iter().sum();
    report.set("setup_s", setup_s);
    report.set("ok_frac", report.ok_frac());
    report.set("peak_rss_mb", peak_mb);
    report.set("run_s_p50", median(op_secs));
    report.set(
        "device_weeks_per_s",
        op_device_weeks * op_secs.len() as f64 / total,
    );
    report.set("requests_per_s", op_secs.len() as f64 / total);
    report.notes.push(format!(
        "{} timed ops: min {:.4} s, p25 {:.4} s, p75 {:.4} s, max {:.4} s",
        op_secs.len(),
        report::quantile(op_secs, 0.0).unwrap_or(0.0),
        report::quantile(op_secs, 0.25).unwrap_or(0.0),
        report::quantile(op_secs, 0.75).unwrap_or(0.0),
        report::quantile(op_secs, 1.0).unwrap_or(0.0)
    ));
}

fn traced_run(
    w: &dyn SimWorkload,
    args: &Args,
    nproc: usize,
    next_seed: &mut dyn FnMut() -> u64,
    deadline: Instant,
    report: &mut Report,
) -> Result<(), String> {
    let mut tracer = Tracer::new(Instant::now());
    let (mut untraced, mut traced, mut runs) = (Vec::new(), Vec::new(), Vec::new());
    let mut shard_speedups = Vec::new();
    let mut request = 0;
    while untraced.is_empty() || Instant::now() < deadline {
        let seed = next_seed();
        report.attempted += 1;
        let plain = w.op(seed, nproc)?;
        let start = Instant::now();
        let (digest, seed_runs) = w.traced(seed, nproc, &mut tracer, request);
        traced.push(start.elapsed().as_secs_f64());
        untraced.push(plain.time.as_secs_f64());
        if digest != plain.digest {
            report.fail(format!(
                "seed {seed}: traced digest {digest:016x} != untraced {:016x}",
                plain.digest
            ));
        }
        runs.extend(seed_runs);
        request += 1;
        if shard_speedups.len() < SHARD_SAMPLES {
            shard_speedups.push(shard_speedup(w.run_config(seed), nproc)?);
        }
    }
    record_fleet_layers(report, &tracer, &runs);
    report.set("shard.speedup", median(&shard_speedups));
    report.set(
        "trace.overhead_frac",
        median(&traced) / median(&untraced) - 1.0,
    );

    let (make, n) = w.replicate_probe(nproc);
    report.set(
        "replicate.speedup",
        replicate_speedup(make, next_seed(), n, nproc)?,
    );

    let probe_seed = next_seed();
    serve_mix::probe(w.name(), w.spec(probe_seed), report, &mut tracer)?;
    crate::write_trace(args, &tracer);
    Ok(())
}

/// Serial op time ÷ `run_sharded` op time on the same config (digests
/// must agree).
pub fn shard_speedup(cfg: FleetConfig, shards: usize) -> Result<f64, String> {
    let start = Instant::now();
    let serial = adapter::op(cfg.clone());
    let serial_time = start.elapsed();
    let start = Instant::now();
    let sharded = adapter::op_sharded(cfg, shards)?;
    if sharded != serial {
        return Err(format!(
            "run_sharded digest {:016x} != serial {:016x}",
            sharded.digest, serial.digest
        ));
    }
    Ok(serial_time.as_secs_f64() / start.elapsed().as_secs_f64())
}

/// Σ serial per-seed run time ÷ wall time of the same seeds through the
/// replicate runner at `nproc` workers (digests must agree).
pub fn replicate_speedup(
    make: fn(u64) -> FleetConfig,
    base: u64,
    n: usize,
    nproc: usize,
) -> Result<f64, String> {
    let mut serial = Duration::ZERO;
    let mut serial_digests = Vec::new();
    for i in 0..n as u64 {
        let start = Instant::now();
        serial_digests.push(adapter::run_digest(make(base + i)));
        serial += start.elapsed();
    }
    let start = Instant::now();
    let parallel = adapter::sweep(&make, base, n, nproc)?;
    let wall = start.elapsed();
    if parallel != serial_digests {
        return Err("replicate runner digests differ from serial runs".to_string());
    }
    Ok(serial.as_secs_f64() / wall.as_secs_f64())
}

/// The `fleet::sim`, `simcore::engine` and `telemetry` layer metrics:
/// mean self time per simulation run from the spans, counts per run
/// from the engine profile.
pub fn record_fleet_layers(report: &mut Report, tracer: &Tracer, runs: &[Sliced]) {
    for (metric, span) in [
        ("build.ms", "fleet.build"),
        ("run.weekly_check.ms", "run.weekly_check"),
        ("run.other.ms", "run.other"),
        ("finalize.ms", "fleet.finalize"),
        ("digest.ms", "telemetry.digest"),
        ("export.ms", "telemetry.export"),
    ] {
        report.set(metric, tracer.mean_self_ms(span));
    }
    let per_run = |f: &dyn Fn(&Sliced) -> f64| mean(&runs.iter().map(f).collect::<Vec<_>>());
    report.set("export.bytes", per_run(&|r| r.export_bytes as f64));
    // One metric per entry of `adapter::KINDS`, in the same order.
    for (i, metric) in [
        "run.weekly_check.events",
        "run.device_fail.events",
        "run.device_replace.events",
        "run.gateway_fail.events",
        "run.gateway_repair.events",
        "run.yearly_tick.events",
    ]
    .into_iter()
    .enumerate()
    {
        report.set(metric, per_run(&|r| r.kinds[i] as f64));
    }
    let events: u64 = runs.iter().map(|r| r.events).sum();
    let run_time: f64 = runs.iter().map(|r| r.run_time.as_secs_f64()).sum();
    report.set(
        "engine.events_per_s",
        if run_time > 0.0 {
            events as f64 / run_time
        } else {
            0.0
        },
    );
    report.set(
        "engine.queue_high_water",
        runs.iter().map(|r| r.queue_high_water).max().unwrap_or(0) as f64,
    );
    report.notes.push(format!(
        "{} traced simulation runs, {:.3} ms mean run",
        runs.len(),
        ms(Duration::from_secs_f64(run_time)) / runs.len().max(1) as f64
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{END_TO_END, PER_LAYER};

    #[test]
    fn op_seeds_repeat_per_seed_and_differ_across() {
        let take = |w: &str, s: u64| {
            let mut f = op_seeds(w, s);
            (0..4).map(|_| f()).collect::<Vec<_>>()
        };
        assert_eq!(take("fleet_1m", 5), take("fleet_1m", 5));
        assert_ne!(take("fleet_1m", 5), take("fleet_1m", 6));
        assert_ne!(take("fleet_1m", 5), take("paper_sweep", 5));
    }

    #[test]
    fn untraced_summary_prints_every_end_to_end_metric() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        summarize(&mut r, 0.5, 100.0, &[1.0, 2.0, 3.0], 52.0);
        let out = r.render(END_TO_END).unwrap();
        assert!(out
            .lines()
            .last()
            .unwrap()
            .contains("\"requests_per_s\": {\"value\": 0.5, \"unit\": \"1/s\"}"));
    }

    #[test]
    fn fleet_layers_cover_their_catalogue_entries() {
        let mut t = Tracer::new(Instant::now());
        let run = adapter::sliced(adapter::paper_spec(3, 2).fleet_config(), &mut t, None, 0);
        assert_eq!(
            run.digest,
            adapter::run_digest(adapter::paper_spec(3, 2).fleet_config()),
            "slicing must only observe"
        );
        assert_eq!(run.kinds[0], 104, "two years of weekly checks");
        let mut r = Report::default();
        record_fleet_layers(&mut r, &t, &[run]);
        for name in [
            "build.ms",
            "run.weekly_check.ms",
            "export.bytes",
            "engine.events_per_s",
            "run.yearly_tick.events",
        ] {
            assert!(r.values.contains_key(name), "{name}");
            assert!(PER_LAYER.iter().any(|&(n, _)| n == name));
        }
    }
}
