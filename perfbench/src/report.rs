//! The metric catalogue, small statistics helpers and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single source of every metric
//! name and unit the benchmark prints; `BENCHMARK.json` lists the same
//! pairs and a unit test holds the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("run_s_p50", "s"),
    ("device_weeks_per_s", "1/s"),
    ("requests_per_s", "1/s"),
];

/// Per-layer metrics, printed by every traced run of every workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("build.ms", "ms"),
    ("run.weekly_check.ms", "ms"),
    ("run.other.ms", "ms"),
    ("finalize.ms", "ms"),
    ("digest.ms", "ms"),
    ("export.ms", "ms"),
    ("export.bytes", "bytes"),
    ("run.weekly_check.events", "count"),
    ("run.device_fail.events", "count"),
    ("run.device_replace.events", "count"),
    ("run.gateway_fail.events", "count"),
    ("run.gateway_repair.events", "count"),
    ("run.yearly_tick.events", "count"),
    ("engine.events_per_s", "1/s"),
    ("engine.queue_high_water", "count"),
    ("replicate.speedup", "x"),
    ("shard.speedup", "x"),
    ("chaos.plan_ms", "ms"),
    ("serve.execute_ms", "ms"),
    ("serve.cache.lookup_ms", "ms"),
    ("serve.cache.lookup_bytes", "bytes"),
    ("serve.cache.store_ms", "ms"),
    ("serve.frame.encode_ms", "ms"),
    ("serve.frames_per_response", "count"),
    ("serve.unattributed_ms.hit", "ms"),
    ("serve.unattributed_ms.miss", "ms"),
    ("serve.unattributed_ms.extend", "ms"),
    ("serve.unattributed_ms.reconnect", "ms"),
    ("serve.connect_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_p90_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.miss_p90_ms", "ms"),
    ("serve.extend_p50_ms", "ms"),
    ("serve.reconnect_p50_ms", "ms"),
    ("serve.cache.hits", "count"),
    ("serve.cache.misses", "count"),
    ("serve.coalesced", "count"),
    ("serve.executed", "count"),
    ("serve.rejected.overload", "count"),
    ("serve.cache.damaged", "count"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.coalesce_ratio", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `xs` by linear interpolation, or
/// `None` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The median of `xs` (zero for an empty sample).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5).unwrap_or(0.0)
}

/// The mean of `xs` (zero for an empty sample).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The outcome of one benchmark run: what the result line reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted during the measured phase.
    pub attempted: u64,
    /// Operations that failed, were refused, or disagreed with an oracle.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Extra human-readable lines printed above the metric table.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Counts one failed operation and keeps its reason for the table.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.notes.len() < 64 {
            self.notes.push(format!("FAILED: {why}"));
        }
    }

    /// Share of attempted operations that passed every check.
    pub fn ok_frac(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }

    /// Whether every operation passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Renders the human-readable table and the final JSON result line
    /// for the metrics in `catalogue`. A catalogue metric the workload
    /// did not record is an error, never a silent zero.
    pub fn render(&self, catalogue: &[(&'static str, &str)]) -> Result<String, String> {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, &(name, unit)) in catalogue.iter().enumerate() {
            let value = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            let _ = writeln!(out, "{name:<34} {value:>16.6} {unit}");
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        out.push_str(&json);
        Ok(out)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the peak-RSS mark so the next [`peak_rss_mb`] covers only what
/// follows. Best effort: where the kernel refuses, the mark stays
/// process-wide.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `(name, unit)` pairs listed under `key` in `BENCHMARK.json`.
    fn listed(key: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let section = &text[start..];
        let end = section.find(']').expect("section closes");
        let field = |obj: &str, name: &str| -> String {
            let at = obj.find(&format!("\"{name}\"")).expect("field present");
            let rest = &obj[at + name.len() + 2..];
            let open = rest.find('"').expect("value opens") + 1;
            let close = rest[open..].find('"').expect("value closes");
            rest[open..open + close].to_string()
        };
        section[..end]
            .split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn catalogue(c: &[(&str, &str)]) -> Vec<(String, String)> {
        c.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        assert_eq!(listed("end_to_end"), catalogue(END_TO_END));
        assert_eq!(listed("per_layer"), catalogue(PER_LAYER));
    }

    #[test]
    fn render_prints_every_metric_with_its_unit() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        for &(name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        let out = r.render(END_TO_END).unwrap();
        let last = out.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for &(name, unit) in END_TO_END {
            assert!(last.contains(&format!(
                "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
            )));
        }
        r.values.remove("setup_s");
        assert!(
            r.render(END_TO_END).is_err(),
            "a missing metric must not print"
        );
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(quantile(&[], 0.5), None);
    }
}
