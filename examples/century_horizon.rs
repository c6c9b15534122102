//! The century-horizon measurement: the 16-arm scaled fleet under
//! aggregate sampling, built, run to the paper's 50-year horizon and
//! finalized, then digested and streamed as JSON Lines into a sink.
//! Prints each phase's wall time, the process's current and peak
//! resident set after it (Linux `VmRSS` and `VmHWM`; `n/a` elsewhere)
//! and the peak in bytes per device, so a memory saving can be traced to
//! the phase it shows up in. After the run phase it prints the events
//! dispatched per second, the device-weeks simulated per second and the
//! logical queue high-water mark (queued and arm-held events together).
//! EXPERIMENTS.md records the 1M-device figures.
//!
//! ```text
//! cargo run --release --example century_horizon -- [devices] [years]
//! ```
//!
//! Defaults: 1,000,000 devices, 50 years, seed 1.

use std::io;
use std::time::Instant; // simlint: allow(D002, this example *measures* wall-clock time)

use fleet::sim::{FleetConfig, FleetSim, SamplingMode};
use simcore::time::{SimDuration, SimTime, WEEK};

/// A `/proc/self/status` memory field (`VmRSS:`, `VmHWM:`) in bytes.
fn status_bytes(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = status.lines().find_map(|l| l.strip_prefix(field))?;
    kib.trim().trim_end_matches("kB").trim().parse::<f64>().ok().map(|k| k * 1024.0)
}

fn mib(bytes: Option<f64>) -> String {
    bytes.map_or("n/a".to_string(), |b| format!("{:.0} MiB", b / (1024.0 * 1024.0)))
}

/// Runs `f`, printing its wall time, the current and peak RSS after it,
/// and the peak per device. Returns `f`'s output and its wall time in
/// seconds.
fn phase<T>(name: &str, devices: u64, f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now(); // simlint: allow(D002, wall-clock is the measurement itself)
    let out = f();
    let secs = t0.elapsed().as_secs_f64();
    let peak = status_bytes("VmHWM:");
    let per_device = peak.map_or("n/a".to_string(), |b| format!("{:.0}", b / devices as f64));
    println!(
        "{name:<12} {secs:>8.2} s   RSS {:>8}   peak RSS {:>8}   peak {per_device} B/device",
        mib(status_bytes("VmRSS:")),
        mib(peak),
    );
    (out, secs)
}

fn main() -> io::Result<()> {
    let mut args = std::env::args().skip(1);
    let mut arg = |default: u64| args.next().map_or(Ok(default), |a| a.parse::<u64>());
    let (Ok(devices), Ok(years)) = (arg(1_000_000), arg(50)) else {
        eprintln!("usage: century_horizon [devices] [years]");
        std::process::exit(2);
    };
    let cfg = FleetConfig {
        horizon: SimDuration::from_years(years),
        ..FleetConfig::scaled(1, devices as usize).with_sampling(SamplingMode::Aggregate)
    };
    println!("{devices} devices x {years} years, 16 arms, aggregate sampling");
    let horizon = SimTime::ZERO + cfg.horizon;
    let device_weeks = devices as f64 * (cfg.horizon.as_secs() / WEEK) as f64;
    let (mut engine, _) = phase("build", devices, || FleetSim::build(cfg));
    let (_, run_secs) = phase("run", devices, || engine.run_until(horizon));
    println!(
        "run rates    {:.3e} events/s   {:.3e} device-weeks/s   queue high-water {}",
        engine.events_processed() as f64 / run_secs,
        device_weeks / run_secs,
        engine.profile().queue_high_water,
    );
    let (report, _) = phase("finalize", devices, || FleetSim::into_report(engine, horizon));
    println!("diary        {} entries", report.diary().len());
    let (digest, _) = phase("digest", devices, || report.digest());
    phase("write_jsonl", devices, || report.write_jsonl(&mut io::sink())).0?;
    phase("drop", devices, || drop(report));
    println!("digest       {digest:016x}");
    Ok(())
}
