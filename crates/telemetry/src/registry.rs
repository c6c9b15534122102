//! The metrics registry: counters, gauges, and fixed-bucket histograms.
//!
//! Design constraints, in order:
//!
//! 1. **Cheap on the hot path.** A handle is one `Arc` deref plus one
//!    relaxed atomic op; cloning a handle is an `Arc` clone. Simulation
//!    inner loops (weekly evaluations over every device, packet-level
//!    models in `net`, credit burns in `econ`) can hold handles without
//!    feeling them.
//! 2. **Deterministic snapshots.** [`Registry::snapshot`] sorts by metric
//!    name and reads exact integer state, so a snapshot of a
//!    deterministic simulation is itself deterministic and can be folded
//!    into a run digest.
//! 3. **Fixed bucketing.** Histogram buckets are chosen up front
//!    ([`Buckets`]) and never adapt to data, so the same inputs always
//!    produce the same counts — adaptive schemes would leak execution
//!    order into the digest.
//!
//! Counters and histogram bucket counts are exact under concurrency.
//! The histogram's floating-point `sum` is CAS-accumulated; when several
//! threads observe into *the same* histogram the sum is order-dependent
//! in the last ulp (each simulation replicate owns its registry, so the
//! fleet pipeline never hits that case).

use core::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Everything that can go wrong registering a metric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TelemetryError {
    /// The name is already registered as a different metric kind (or a
    /// histogram with different buckets).
    KindMismatch {
        /// The contested metric name.
        name: String,
    },
    /// A bucket specification was rejected.
    BadBuckets {
        /// Why the specification is invalid.
        reason: &'static str,
    },
}

impl fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TelemetryError::KindMismatch { name } => {
                write!(f, "metric '{name}' already registered with a different shape")
            }
            TelemetryError::BadBuckets { reason } => write!(f, "invalid buckets: {reason}"),
        }
    }
}

impl std::error::Error for TelemetryError {}

/// A monotonically increasing event count.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value (stored as `f64` bits).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A fixed, validated histogram bucket specification: strictly increasing
/// finite upper bounds. Observations land in the first bucket whose upper
/// bound is `>=` the value; anything above the last bound (or non-finite)
/// lands in the implicit overflow bucket.
#[derive(Clone, Debug, PartialEq)]
pub struct Buckets {
    bounds: Vec<f64>,
}

impl Buckets {
    /// Builds buckets from explicit upper bounds.
    ///
    /// # Errors
    ///
    /// [`TelemetryError::BadBuckets`] if `bounds` is empty, non-finite,
    /// or not strictly increasing.
    pub fn explicit(bounds: Vec<f64>) -> Result<Self, TelemetryError> {
        if bounds.is_empty() {
            return Err(TelemetryError::BadBuckets { reason: "no bounds" });
        }
        if bounds.iter().any(|b| !b.is_finite()) {
            return Err(TelemetryError::BadBuckets { reason: "non-finite bound" });
        }
        if bounds.windows(2).any(|w| w[0] >= w[1]) {
            return Err(TelemetryError::BadBuckets { reason: "bounds not strictly increasing" });
        }
        Ok(Buckets { bounds })
    }

    /// `count` equal-width buckets: upper bounds `start + width,
    /// start + 2·width, …`.
    ///
    /// # Errors
    ///
    /// [`TelemetryError::BadBuckets`] if `count` is zero or `width` is
    /// not a positive finite number.
    pub fn linear(start: f64, width: f64, count: usize) -> Result<Self, TelemetryError> {
        if count == 0 {
            return Err(TelemetryError::BadBuckets { reason: "zero buckets" });
        }
        if !(width.is_finite() && width > 0.0 && start.is_finite()) {
            return Err(TelemetryError::BadBuckets { reason: "bad linear parameters" });
        }
        Self::explicit((1..=count).map(|i| start + width * i as f64).collect())
    }

    /// `count` geometrically growing buckets: upper bounds `first,
    /// first·factor, first·factor², …`.
    ///
    /// # Errors
    ///
    /// [`TelemetryError::BadBuckets`] if `count` is zero, `first` is not
    /// positive, or `factor` is not greater than one.
    pub fn exponential(first: f64, factor: f64, count: usize) -> Result<Self, TelemetryError> {
        if count == 0 {
            return Err(TelemetryError::BadBuckets { reason: "zero buckets" });
        }
        if !(first.is_finite() && first > 0.0 && factor.is_finite() && factor > 1.0) {
            return Err(TelemetryError::BadBuckets { reason: "bad exponential parameters" });
        }
        let mut bounds = Vec::with_capacity(count);
        let mut b = first;
        for _ in 0..count {
            bounds.push(b);
            b *= factor;
        }
        Self::explicit(bounds)
    }

    /// The bucket index an observation falls into: the first bucket whose
    /// upper bound is `>= x`, or the overflow index (`bounds().len()`)
    /// for larger or non-finite values. Monotone non-decreasing in `x`
    /// (the property the regression suite pins).
    pub fn bucket_index(&self, x: f64) -> usize {
        if x.is_nan() {
            return self.bounds.len();
        }
        self.bounds.partition_point(|&b| b < x)
    }

    /// The configured upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }
}

struct HistogramInner {
    buckets: Buckets,
    /// One slot per bound plus the overflow bucket.
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

/// A fixed-bucket histogram of `f64` observations.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, x: f64) {
        let idx = self.0.buckets.bucket_index(x);
        self.0.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        if x.is_finite() {
            let mut cur = self.0.sum_bits.load(Ordering::Relaxed);
            loop {
                let new = (f64::from_bits(cur) + x).to_bits();
                match self.0.sum_bits.compare_exchange_weak(
                    cur,
                    new,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all finite observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// Per-bucket counts (last entry is the overflow bucket).
    pub fn counts(&self) -> Vec<u64> {
        self.0.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// The bucket specification.
    pub fn buckets(&self) -> &Buckets {
        &self.0.buckets
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("bounds", &self.0.buckets.bounds)
            .field("count", &self.count())
            .finish()
    }
}

/// A single-threaded accumulation buffer for a [`Histogram`].
///
/// Atomic handles are cheap, but a simulation hot loop can record tens of
/// thousands of observations per run; batching them in plain fields and
/// [`flush_into`](LocalHistogram::flush_into)-ing once at finalize keeps
/// the instrumented run inside the profiling overhead budget (DESIGN.md
/// §6). The layout must match the target histogram's.
#[derive(Clone, Debug)]
pub struct LocalHistogram {
    buckets: Buckets,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
}

impl LocalHistogram {
    /// An empty buffer with the given layout.
    pub fn new(buckets: Buckets) -> Self {
        let slots = buckets.bounds.len() + 1;
        LocalHistogram { buckets, counts: vec![0; slots], count: 0, sum: 0.0 }
    }

    /// Records one observation (no atomics).
    #[inline]
    pub fn observe(&mut self, x: f64) {
        let idx = self.buckets.bucket_index(x);
        self.counts[idx] += 1;
        self.count += 1;
        if x.is_finite() {
            self.sum += x;
        }
    }

    /// Records one observation of `x` into `bucket`, which must be
    /// `bucket_index(x)` of this buffer's layout: the same update as
    /// [`observe`](Self::observe) for a caller that tabulated the bucket
    /// of each value it can observe.
    #[inline]
    pub fn observe_at(&mut self, bucket: usize, x: f64) {
        debug_assert_eq!(bucket, self.buckets.bucket_index(x), "bucket of {x}");
        self.counts[bucket] += 1;
        self.count += 1;
        if x.is_finite() {
            self.sum += x;
        }
    }

    /// Records `n` identical observations of `x` in O(1).
    ///
    /// Exactly equivalent to calling [`observe`](Self::observe) `n`
    /// times when `x` is an integer-valued sample small enough that
    /// `x * n` and the running sum stay within `2^53` (the weekly
    /// delivery histograms observe integers ≤ 168, so every partial sum
    /// is an exactly-representable integer and the batched `sum` update
    /// is bit-identical to `n` repeated additions, in any order). This
    /// is what lets the aggregate sampling path fold a whole cohort's
    /// identical observations into the digest-feeding histogram without
    /// an O(devices) loop.
    #[inline]
    pub fn observe_n(&mut self, x: f64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self.buckets.bucket_index(x);
        self.counts[idx] += n;
        self.count += n;
        if x.is_finite() {
            self.sum += x * n as f64;
        }
    }

    /// Observations buffered so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The buffered per-bucket counts (last entry is the overflow
    /// bucket), for checkpointing a mid-run accumulator.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// The buffered sum of finite observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Overwrites the buffer with checkpointed state. Returns `false`
    /// (and changes nothing) if `counts` does not match this buffer's
    /// bucket layout.
    pub fn restore(&mut self, counts: &[u64], count: u64, sum: f64) -> bool {
        if counts.len() != self.counts.len() {
            return false;
        }
        self.counts.copy_from_slice(counts);
        self.count = count;
        self.sum = sum;
        true
    }

    /// Adds everything buffered into `target` and clears the buffer.
    /// Returns `false` (and flushes nothing) if the bucket layouts differ.
    pub fn flush_into(&mut self, target: &Histogram) -> bool {
        if target.0.buckets.bounds != self.buckets.bounds {
            return false;
        }
        for (slot, &n) in target.0.counts.iter().zip(&self.counts) {
            if n > 0 {
                slot.fetch_add(n, Ordering::Relaxed);
            }
        }
        target.0.count.fetch_add(self.count, Ordering::Relaxed);
        let add = self.sum;
        // Exact-zero fast path: skip the CAS loop when there is nothing to
        // add. This is an identity check, not a numeric comparison.
        // simlint: allow(F001, exact-zero fast path; adding 0.0 is a no-op)
        if add != 0.0 {
            let mut cur = target.0.sum_bits.load(Ordering::Relaxed);
            loop {
                let new = (f64::from_bits(cur) + add).to_bits();
                match target.0.sum_bits.compare_exchange_weak(
                    cur,
                    new,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.count = 0;
        self.sum = 0.0;
        true
    }
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// The final value of one metric, as captured by [`Registry::snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// A counter's total.
    Counter(u64),
    /// A gauge's last value.
    Gauge(f64),
    /// A histogram's full state.
    Histogram {
        /// Configured upper bounds.
        bounds: Vec<f64>,
        /// Per-bucket counts; the last entry is the overflow bucket.
        counts: Vec<u64>,
        /// Total observations.
        count: u64,
        /// Sum of finite observations.
        sum: f64,
    },
}

/// A deterministic point-in-time capture of every registered metric,
/// sorted by name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    entries: Vec<(String, MetricValue)>,
}

impl Snapshot {
    /// All `(name, value)` pairs, sorted by name.
    pub fn entries(&self) -> &[(String, MetricValue)] {
        &self.entries
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Number of captured metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The registry: owns metric identities, hands out cheap handles, and
/// snapshots deterministically.
///
/// # Examples
///
/// ```
/// use telemetry::{Buckets, Registry};
///
/// let reg = Registry::new();
/// let delivered = reg.counter("net.delivered").unwrap();
/// let depth = reg.gauge("queue.depth").unwrap();
/// let weekly = reg
///     .histogram("weekly.readings", Buckets::linear(0.0, 24.0, 7).unwrap())
///     .unwrap();
/// delivered.add(3);
/// depth.set(17.0);
/// weekly.observe(42.0);
/// let snap = reg.snapshot();
/// assert_eq!(snap.len(), 3);
/// ```
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<Vec<(String, Metric)>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn with_entries<T>(&self, f: impl FnOnce(&mut Vec<(String, Metric)>) -> T) -> T {
        // A poisoned lock only means another thread panicked mid-push;
        // the Vec itself is still structurally sound, so recover rather
        // than propagate the panic (panic-free core).
        let mut guard = match self.metrics.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        f(&mut guard)
    }

    /// Registers (or re-opens) a counter.
    ///
    /// # Errors
    ///
    /// [`TelemetryError::KindMismatch`] if `name` is already a gauge or
    /// histogram.
    pub fn counter(&self, name: &str) -> Result<Counter, TelemetryError> {
        self.with_entries(|entries| {
            if let Some((_, m)) = entries.iter().find(|(n, _)| n == name) {
                return match m {
                    Metric::Counter(c) => Ok(c.clone()),
                    _ => Err(TelemetryError::KindMismatch { name: name.to_string() }),
                };
            }
            let c = Counter(Arc::new(AtomicU64::new(0)));
            entries.push((name.to_string(), Metric::Counter(c.clone())));
            Ok(c)
        })
    }

    /// Registers (or re-opens) a gauge, initialised to `0.0`.
    ///
    /// # Errors
    ///
    /// [`TelemetryError::KindMismatch`] if `name` is already a counter or
    /// histogram.
    pub fn gauge(&self, name: &str) -> Result<Gauge, TelemetryError> {
        self.with_entries(|entries| {
            if let Some((_, m)) = entries.iter().find(|(n, _)| n == name) {
                return match m {
                    Metric::Gauge(g) => Ok(g.clone()),
                    _ => Err(TelemetryError::KindMismatch { name: name.to_string() }),
                };
            }
            let g = Gauge(Arc::new(AtomicU64::new(0f64.to_bits())));
            entries.push((name.to_string(), Metric::Gauge(g.clone())));
            Ok(g)
        })
    }

    /// Registers (or re-opens) a histogram. Re-opening requires identical
    /// buckets.
    ///
    /// # Errors
    ///
    /// [`TelemetryError::KindMismatch`] if `name` is already a different
    /// metric kind or a histogram with different buckets.
    pub fn histogram(&self, name: &str, buckets: Buckets) -> Result<Histogram, TelemetryError> {
        self.with_entries(|entries| {
            if let Some((_, m)) = entries.iter().find(|(n, _)| n == name) {
                return match m {
                    Metric::Histogram(h) if *h.buckets() == buckets => Ok(h.clone()),
                    _ => Err(TelemetryError::KindMismatch { name: name.to_string() }),
                };
            }
            let slots = buckets.bounds().len() + 1;
            let h = Histogram(Arc::new(HistogramInner {
                buckets,
                counts: (0..slots).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0f64.to_bits()),
            }));
            entries.push((name.to_string(), Metric::Histogram(h.clone())));
            Ok(h)
        })
    }

    /// Captures every metric's current value, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let mut entries: Vec<(String, MetricValue)> = self.with_entries(|metrics| {
            metrics
                .iter()
                .map(|(name, m)| {
                    let value = match m {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                        Metric::Histogram(h) => MetricValue::Histogram {
                            bounds: h.buckets().bounds().to_vec(),
                            counts: h.counts(),
                            count: h.count(),
                            sum: h.sum(),
                        },
                    };
                    (name.clone(), value)
                })
                .collect()
        });
        entries.sort_by(|(a, _), (b, _)| a.cmp(b));
        Snapshot { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip_and_reopen() {
        let reg = Registry::new();
        let a = reg.counter("hits").unwrap();
        let b = reg.counter("hits").unwrap();
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert!(matches!(reg.snapshot().get("hits"), Some(MetricValue::Counter(3))));
    }

    #[test]
    fn gauge_set_and_get() {
        let reg = Registry::new();
        let g = reg.gauge("depth").unwrap();
        g.set(5.0);
        assert_eq!(g.get(), 5.0);
        g.set(3.0);
        assert_eq!(g.get(), 3.0);
    }

    #[test]
    fn histogram_buckets_fill_exactly() {
        let reg = Registry::new();
        let h = reg
            .histogram("lat", Buckets::explicit(vec![1.0, 2.0, 4.0]).unwrap())
            .unwrap();
        for x in [0.5, 1.0, 1.5, 3.0, 100.0, f64::NAN] {
            h.observe(x);
        }
        assert_eq!(h.counts(), vec![2, 1, 1, 2]);
        assert_eq!(h.count(), 6);
        assert!((h.sum() - 106.0).abs() < 1e-12);
    }

    #[test]
    fn kind_mismatch_is_typed() {
        let reg = Registry::new();
        reg.counter("x").unwrap();
        assert!(matches!(reg.gauge("x"), Err(TelemetryError::KindMismatch { .. })));
        assert!(matches!(
            reg.histogram("x", Buckets::linear(0.0, 1.0, 2).unwrap()),
            Err(TelemetryError::KindMismatch { .. })
        ));
        let h = reg.histogram("h", Buckets::linear(0.0, 1.0, 2).unwrap()).unwrap();
        // Re-opening with different buckets is a mismatch too.
        assert!(matches!(
            reg.histogram("h", Buckets::linear(0.0, 2.0, 2).unwrap()),
            Err(TelemetryError::KindMismatch { .. })
        ));
        drop(h);
    }

    #[test]
    fn bad_buckets_rejected() {
        assert!(Buckets::explicit(vec![]).is_err());
        assert!(Buckets::explicit(vec![1.0, 1.0]).is_err());
        assert!(Buckets::explicit(vec![1.0, f64::NAN]).is_err());
        assert!(Buckets::linear(0.0, 0.0, 3).is_err());
        assert!(Buckets::linear(0.0, 1.0, 0).is_err());
        assert!(Buckets::exponential(0.0, 2.0, 3).is_err());
        assert!(Buckets::exponential(1.0, 1.0, 3).is_err());
    }

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        let b = Buckets::exponential(1.0, 2.0, 8).unwrap();
        let mut last = 0usize;
        for i in 0..1_000 {
            let x = i as f64 * 0.5;
            let idx = b.bucket_index(x);
            assert!(idx >= last);
            assert!(idx <= b.bounds().len());
            last = idx;
        }
        assert_eq!(b.bucket_index(f64::NAN), b.bounds().len());
        assert_eq!(b.bucket_index(f64::INFINITY), b.bounds().len());
        assert_eq!(b.bucket_index(f64::NEG_INFINITY), 0);
    }

    #[test]
    fn snapshot_sorted_by_name() {
        let reg = Registry::new();
        reg.counter("zeta").unwrap();
        reg.counter("alpha").unwrap();
        reg.gauge("mid").unwrap();
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.entries().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn local_histogram_flush_matches_direct_observation_bit_for_bit() {
        let buckets = Buckets::linear(0.0, 24.0, 7).unwrap();
        let reg = Registry::new();
        let direct = reg.histogram("direct", buckets.clone()).unwrap();
        let batched = reg.histogram("batched", buckets.clone()).unwrap();
        let mut acc = LocalHistogram::new(buckets);
        let samples = [0.0, 3.5, 24.0, 24.1, 167.9, 168.0, 1.0e9, f64::NAN, 0.1];
        for &x in &samples {
            direct.observe(x);
            acc.observe(x);
        }
        assert_eq!(acc.count(), samples.len() as u64);
        assert!(acc.flush_into(&batched));
        assert_eq!(acc.count(), 0, "flush clears the buffer");
        let snap = reg.snapshot();
        let (Some(MetricValue::Histogram { counts: cd, count: nd, sum: sd, .. }),
             Some(MetricValue::Histogram { counts: cb, count: nb, sum: sb, .. })) =
            (snap.get("direct"), snap.get("batched"))
        else {
            panic!("both metrics must be histograms");
        };
        assert_eq!(cd, cb);
        assert_eq!(nd, nb);
        assert_eq!(sd.to_bits(), sb.to_bits(), "f64 sum must match bit-for-bit");
    }

    #[test]
    fn local_histogram_observe_n_matches_repeated_observe_bit_for_bit() {
        let buckets = Buckets::linear(0.0, 24.0, 7).unwrap();
        let mut looped = LocalHistogram::new(buckets.clone());
        let mut batched = LocalHistogram::new(buckets);
        // Integer observations ≤ 168 in arbitrary interleavings: the
        // batched sum must be the exact same f64 as the loop's.
        let runs = [(0.0, 3_u64), (7.0, 1000), (168.0, 9), (24.0, 1), (3.0, 0), (1.0, 250_000)];
        for &(x, n) in &runs {
            for _ in 0..n {
                looped.observe(x);
            }
            batched.observe_n(x, n);
        }
        assert_eq!(looped.bucket_counts(), batched.bucket_counts());
        assert_eq!(looped.count(), batched.count());
        assert_eq!(looped.sum().to_bits(), batched.sum().to_bits());
    }

    #[test]
    fn local_histogram_refuses_mismatched_layout() {
        let reg = Registry::new();
        let h = reg.histogram("h", Buckets::linear(0.0, 1.0, 3).unwrap()).unwrap();
        let mut acc = LocalHistogram::new(Buckets::linear(0.0, 2.0, 3).unwrap());
        acc.observe(1.5);
        assert!(!acc.flush_into(&h));
        assert_eq!(h.count(), 0, "mismatched flush must not leak observations");
        assert_eq!(acc.count(), 1, "mismatched flush must not clear the buffer");
    }

    #[test]
    fn handles_are_shareable_across_threads() {
        let reg = Registry::new();
        let c = reg.counter("par").unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4_000);
    }
}
