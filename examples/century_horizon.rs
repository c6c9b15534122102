//! The century-horizon measurement: the 16-arm scaled fleet under
//! aggregate sampling, run to the paper's 50-year horizon, then digested
//! and streamed as JSON Lines into a sink. Prints each phase's wall time
//! and the process's peak resident set after it (Linux `VmHWM`; `n/a`
//! elsewhere). EXPERIMENTS.md records the 1M-device figures.
//!
//! ```text
//! cargo run --release --example century_horizon -- [devices] [years]
//! ```
//!
//! Defaults: 1,000,000 devices, 50 years, seed 1.

use std::io;
use std::time::Instant; // simlint: allow(D002, this example *measures* wall-clock time)

use fleet::sim::{FleetConfig, FleetSim, SamplingMode};
use simcore::time::SimDuration;

/// Peak resident set so far, in MiB, from `/proc/self/status`.
fn peak_rss() -> String {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kib.map_or("n/a".to_string(), |k| format!("{:.0} MiB", k / 1024.0))
}

/// Runs `f`, printing its wall time and the peak RSS after it.
fn phase<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now(); // simlint: allow(D002, wall-clock is the measurement itself)
    let out = f();
    println!("{name:<12} {:>8.2} s   peak RSS {}", t0.elapsed().as_secs_f64(), peak_rss());
    out
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
    let report = phase("run", || FleetSim::run(cfg));
    println!("diary        {} entries", report.diary.len());
    let digest = phase("digest", || report.digest());
    phase("write_jsonl", || report.write_jsonl(&mut io::sink()))?;
    phase("drop", || drop(report));
    println!("digest       {digest:016x}");
    Ok(())
}
