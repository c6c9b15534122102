//! Statistics: single-pass moments and exact order statistics.
//!
//! [`Moments`] is O(1) in memory for streams too long to retain. Where
//! exactness matters for reports (medians of modest sample sets),
//! [`Samples`] retains values and computes exact order statistics.

/// Welford's online mean/variance accumulator.
///
/// # Examples
///
/// ```
/// use simcore::stats::Moments;
///
/// let mut m = Moments::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     m.add(x);
/// }
/// assert_eq!(m.count(), 8);
/// assert!((m.mean() - 5.0).abs() < 1e-12);
/// assert!((m.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Moments {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Moments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Moments { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Moments) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (divides by n; 0 if empty).
    pub fn population_variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample variance (divides by n-1; 0 if fewer than two observations).
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_err(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Minimum observation (+∞ if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (−∞ if empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Exact sample store with order statistics, for modest sample counts
/// (per-run summaries, Monte-Carlo replicates).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    xs: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Creates an empty store.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.xs.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Returns true if no observations were added.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.xs.is_empty() {
            0.0
        } else {
            self.xs.iter().sum::<f64>() / self.xs.len() as f64
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
    /// statistics. Returns `None` if empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.xs.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if !self.sorted {
            self.xs.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let pos = q * (self.xs.len() - 1) as f64;
        let i = pos.floor() as usize;
        let frac = pos - i as f64;
        if i + 1 < self.xs.len() {
            Some(self.xs[i] * (1.0 - frac) + self.xs[i + 1] * frac)
        } else {
            Some(self.xs[i])
        }
    }

    /// The median. Returns `None` if empty.
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Read-only view of the raw samples (insertion or sorted order).
    pub fn values(&self) -> &[f64] {
        &self.xs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_basic() {
        let mut m = Moments::new();
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.sample_variance(), 0.0);
        m.add(1.0);
        m.add(2.0);
        m.add(3.0);
        assert_eq!(m.count(), 3);
        assert!((m.mean() - 2.0).abs() < 1e-12);
        assert!((m.sample_variance() - 1.0).abs() < 1e-12);
        assert_eq!(m.min(), 1.0);
        assert_eq!(m.max(), 3.0);
    }

    #[test]
    fn moments_merge_equals_combined() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = Moments::new();
        let mut a = Moments::new();
        let mut b = Moments::new();
        for (i, &x) in xs.iter().enumerate() {
            all.add(x);
            if i % 2 == 0 {
                a.add(x);
            } else {
                b.add(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-10);
        assert!((a.sample_variance() - all.sample_variance()).abs() < 1e-10);
    }

    #[test]
    fn moments_merge_with_empty() {
        let mut a = Moments::new();
        a.add(5.0);
        let b = Moments::new();
        a.merge(&b);
        assert_eq!(a.count(), 1);
        let mut c = Moments::new();
        c.merge(&a);
        assert_eq!(c.count(), 1);
        assert_eq!(c.mean(), 5.0);
    }

    #[test]
    fn samples_quantiles() {
        let mut s = Samples::new();
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            s.add(x);
        }
        assert_eq!(s.median(), Some(3.0));
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(5.0));
        assert_eq!(s.quantile(0.25), Some(2.0));
        assert!((s.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn samples_interpolated_quantile() {
        let mut s = Samples::new();
        s.add(10.0);
        s.add(20.0);
        assert_eq!(s.median(), Some(15.0));
        assert_eq!(s.quantile(0.75), Some(17.5));
    }

    #[test]
    fn samples_empty() {
        let mut s = Samples::new();
        assert!(s.is_empty());
        assert_eq!(s.median(), None);
        assert_eq!(s.mean(), 0.0);
    }
}
