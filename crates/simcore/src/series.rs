//! Time-series recording for figures.
//!
//! A [`Series`] is an append-only `(SimTime, f64)` sequence — the raw
//! material for every figure in EXPERIMENTS.md. A [`SeriesSet`] groups
//! named series that share an x-axis (e.g. one line per policy) and
//! exports them as CSV.

use std::fmt::Write as _;

use crate::time::SimTime;

/// An append-only named time series.
#[derive(Clone, Debug)]
pub struct Series {
    name: String,
    points: Vec<(SimTime, f64)>,
}

impl Series {
    /// Creates an empty series with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        Series { name: name.into(), points: Vec::new() }
    }

    /// Appends a point.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `t` precedes the last recorded point.
    pub fn push(&mut self, t: SimTime, value: f64) {
        debug_assert!(
            self.points.last().is_none_or(|&(last, _)| t >= last),
            "series must be appended in time order"
        );
        self.points.push((t, value));
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The recorded points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns true if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Value at time `t` under zero-order hold (last value at or before `t`).
    ///
    /// Returns `None` if `t` precedes the first point.
    pub fn sample_hold(&self, t: SimTime) -> Option<f64> {
        match self.points.binary_search_by(|&(pt, _)| pt.cmp(&t)) {
            Ok(i) => Some(self.points[i].1),
            Err(0) => None,
            Err(i) => Some(self.points[i - 1].1),
        }
    }
}

/// A group of series sharing an x-axis, exportable as CSV.
#[derive(Clone, Debug, Default)]
pub struct SeriesSet {
    series: Vec<Series>,
}

impl SeriesSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        SeriesSet::default()
    }

    /// Adds a series to the set.
    pub fn add(&mut self, series: Series) {
        self.series.push(series);
    }

    /// All member series.
    pub fn series(&self) -> &[Series] {
        &self.series
    }

    /// Looks a series up by name.
    pub fn get(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name() == name)
    }

    /// Renders the set as CSV with a `time_years` column and one column per
    /// series, sampling each series with zero-order hold on the union of all
    /// timestamps. Missing leading values render empty.
    pub fn to_csv(&self) -> String {
        let mut times: Vec<SimTime> = self
            .series
            .iter()
            .flat_map(|s| s.points().iter().map(|&(t, _)| t))
            .collect();
        times.sort_unstable();
        times.dedup();

        let mut out = String::new();
        out.push_str("time_years");
        for s in &self.series {
            // Commas inside names would corrupt the CSV; replace them.
            let clean = s.name().replace(',', ";");
            let _ = write!(out, ",{clean}");
        }
        out.push('\n');
        for &t in &times {
            let _ = write!(out, "{:.6}", t.as_years_f64());
            for s in &self.series {
                match s.sample_hold(t) {
                    Some(v) => {
                        let _ = write!(out, ",{v:.6}");
                    }
                    None => out.push(','),
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{SimDuration, SimTime, YEAR};

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn push_and_read() {
        let mut s = Series::new("alive");
        assert!(s.is_empty());
        s.push(t(0), 1.0);
        s.push(t(10), 0.5);
        assert_eq!(s.len(), 2);
        assert_eq!(s.points().last(), Some(&(t(10), 0.5)));
        assert_eq!(s.name(), "alive");
    }

    #[test]
    fn sample_hold_semantics() {
        let mut s = Series::new("x");
        s.push(t(10), 1.0);
        s.push(t(20), 2.0);
        assert_eq!(s.sample_hold(t(5)), None);
        assert_eq!(s.sample_hold(t(10)), Some(1.0));
        assert_eq!(s.sample_hold(t(15)), Some(1.0));
        assert_eq!(s.sample_hold(t(20)), Some(2.0));
        assert_eq!(s.sample_hold(t(99)), Some(2.0));
    }

    #[test]
    fn csv_export() {
        let mut a = Series::new("fiber");
        a.push(SimTime::from_secs(0), 1.0);
        a.push(SimTime::from_secs(YEAR), 2.0);
        let mut b = Series::new("cellular,lte");
        b.push(SimTime::from_secs(YEAR), 5.0);
        let mut set = SeriesSet::new();
        set.add(a);
        set.add(b);
        let csv = set.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time_years,fiber,cellular;lte");
        assert!(lines[1].starts_with("0.000000,1.000000,"));
        assert!(lines[2].starts_with("1.000000,2.000000,5.000000"));
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn set_lookup() {
        let mut set = SeriesSet::new();
        set.add(Series::new("a"));
        assert!(set.get("a").is_some());
        assert!(set.get("b").is_none());
        assert_eq!(set.series().len(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time order")]
    fn out_of_order_push_panics_in_debug() {
        let mut s = Series::new("x");
        s.push(t(10), 1.0);
        s.push(t(5), 2.0);
        let _ = SimDuration::ZERO;
    }
}
