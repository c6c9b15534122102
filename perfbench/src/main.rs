//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet_1m|paper_sweep|serve_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics with tracing off; `--trace 1` is a separate run that records
//! spans around every layer call and prints the per-layer metrics. The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The process exits non-zero when any correctness gate fails.
//! See `perfbench/README.md` for what each metric and workload means.

#![forbid(unsafe_code)]

mod adapter;
mod report;
mod serve_mix;
mod sims;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

use report::{END_TO_END, PER_LAYER};

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => trace = Some(number()? != 0),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(0),
            seconds: seconds.unwrap_or(10),
            trace: trace.unwrap_or(false),
        })
    }

    /// The measured phase's length.
    pub fn run_time(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// Worker threads and client connections: the host's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The build directory: `$CARGO_TARGET_DIR` or `perfbench/target`.
fn build_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from)
}

/// A fresh per-process scratch directory under the build directory.
pub fn work_dir(name: &str) -> Result<PathBuf, String> {
    let dir = build_dir()
        .join("perfbench-work")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Writes the traced run's spans beside the build output.
pub fn write_trace(args: &Args, tracer: &trace::Tracer) {
    let dir = build_dir().join("perfbench-trace");
    let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_json())) {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => println!("# spans not written ({}): {e}", path.display()),
    }
}

fn main() {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        let report = match args.workload.as_str() {
            "fleet_1m" => sims::fleet_1m(&args),
            "paper_sweep" => sims::paper_sweep(&args),
            "serve_mix" => serve_mix::serve_mix(&args),
            other => Err(format!(
                "unknown workload {other:?} (fleet_1m, paper_sweep, serve_mix)"
            )),
        }?;
        let text = report.render(if args.trace { PER_LAYER } else { END_TO_END })?;
        Ok((report.correct(), text))
    });
    match outcome {
        Ok((correct, text)) => {
            println!("{text}");
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
