//! Simulation time over century-scale horizons.
//!
//! The simulator measures time in whole **seconds** held in a `u64`, which
//! comfortably spans more than 500 billion years — far beyond the 50–100-year
//! horizons this toolkit targets. Sub-second resolution is deliberately not
//! modelled: the phenomena of interest (harvest cycles, failures, weekly
//! uptime checks) evolve over seconds to decades, and radio airtimes that do
//! require millisecond precision are handled analytically inside the `net`
//! crate rather than as discrete events.
//!
//! A simplified civil calendar is provided for readability of reports and for
//! seasonal models: every year has exactly 365 days (no leap years). Seasonal
//! drift from ignoring leap days is irrelevant at the fidelity of the models
//! built on top, and a fixed-length year keeps every conversion exact and
//! branch-free.

use core::fmt;
use core::ops::{Add, AddAssign, Sub, SubAssign};

/// Seconds in one minute.
pub const MINUTE: u64 = 60;
/// Seconds in one hour.
pub const HOUR: u64 = 60 * MINUTE;
/// Seconds in one day.
pub const DAY: u64 = 24 * HOUR;
/// Seconds in one week.
pub const WEEK: u64 = 7 * DAY;
/// Seconds in one (365-day) simulation year.
pub const YEAR: u64 = 365 * DAY;

/// An instant on the simulation clock, in whole seconds since the start of
/// the simulation (the "epoch", conventionally the deployment date).
///
/// `SimTime` is ordered, hashable and cheap to copy. Arithmetic with
/// [`SimDuration`] is checked in debug builds via the underlying integer ops.
///
/// # Examples
///
/// ```
/// use simcore::time::{SimTime, SimDuration, YEAR};
///
/// let start = SimTime::ZERO;
/// let mid = start + SimDuration::from_years(25);
/// assert_eq!(mid.as_secs(), 25 * YEAR);
/// assert_eq!(mid.year(), 25);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time, in whole seconds.
///
/// # Examples
///
/// ```
/// use simcore::time::SimDuration;
///
/// let d = SimDuration::from_hours(2) + SimDuration::from_mins(30);
/// assert_eq!(d.as_secs(), 9_000);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from whole seconds since the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs)
    }

    /// Creates an instant from whole days since the epoch.
    pub const fn from_days(days: u64) -> Self {
        SimTime(days * DAY)
    }

    /// Creates an instant from whole (365-day) years since the epoch.
    pub const fn from_years(years: u64) -> Self {
        SimTime(years * YEAR)
    }

    /// Returns the number of whole seconds since the epoch.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// Returns the time as fractional years since the epoch.
    pub fn as_years_f64(self) -> f64 {
        self.0 as f64 / YEAR as f64
    }

    /// Returns the zero-based calendar year containing this instant.
    pub const fn year(self) -> u64 {
        self.0 / YEAR
    }

    /// Returns the zero-based day of the year (0..=364).
    pub const fn day_of_year(self) -> u64 {
        (self.0 % YEAR) / DAY
    }

    /// Returns the zero-based day since the epoch.
    pub const fn day(self) -> u64 {
        self.0 / DAY
    }

    /// Returns the second within the current day (0..DAY).
    pub const fn second_of_day(self) -> u64 {
        self.0 % DAY
    }

    /// Returns the hour within the current day (0..=23).
    pub const fn hour_of_day(self) -> u64 {
        self.second_of_day() / HOUR
    }

    /// Returns the duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is later than `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(earlier <= self, "time went backwards");
        SimDuration(self.0 - earlier.0)
    }

    /// Returns `self + d`, saturating at [`SimTime::MAX`].
    pub const fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// Returns `self + d`, or `None` on overflow.
    pub const fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        match self.0.checked_add(d.0) {
            Some(v) => Some(SimTime(v)),
            None => None,
        }
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs)
    }

    /// Creates a duration from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * MINUTE)
    }

    /// Creates a duration from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * HOUR)
    }

    /// Creates a duration from whole days.
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * DAY)
    }

    /// Creates a duration from whole weeks.
    pub const fn from_weeks(weeks: u64) -> Self {
        SimDuration(weeks * WEEK)
    }

    /// Creates a duration from whole (365-day) years.
    pub const fn from_years(years: u64) -> Self {
        SimDuration(years * YEAR)
    }

    /// Creates a duration from fractional years, rounding to whole seconds.
    ///
    /// Negative and non-finite inputs clamp to zero; values beyond the
    /// representable range clamp to [`SimDuration::MAX`].
    pub fn from_years_f64(years: f64) -> Self {
        Self::from_secs_f64(years * YEAR as f64)
    }

    /// Creates a duration from fractional seconds, rounding to whole seconds.
    ///
    /// Negative and non-finite inputs clamp to zero; values beyond the
    /// representable range clamp to [`SimDuration::MAX`].
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            if secs.is_infinite() && secs > 0.0 {
                return SimDuration::MAX;
            }
            return SimDuration::ZERO;
        }
        if secs >= u64::MAX as f64 {
            return SimDuration::MAX;
        }
        // Round half away from zero, as `f64::round` does, without its
        // libm call. Below 2^53 both the truncation and the fractional
        // part `secs - whole` are exact; at or above it every f64 is
        // already a whole number.
        if secs < (1u64 << 53) as f64 {
            let whole = secs as u64;
            return SimDuration(whole + u64::from(secs - whole as f64 >= 0.5));
        }
        SimDuration(secs as u64)
    }

    /// Returns the duration in whole seconds.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// Returns the duration in fractional hours.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / HOUR as f64
    }

    /// Returns the duration in fractional days.
    pub fn as_days_f64(self) -> f64 {
        self.0 as f64 / DAY as f64
    }

    /// Returns the duration in fractional years.
    pub fn as_years_f64(self) -> f64 {
        self.0 as f64 / YEAR as f64
    }

    /// Returns `self * k`, saturating on overflow.
    pub const fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }

    /// Returns true if this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({self})")
    }
}

impl fmt::Display for SimTime {
    /// Formats as `yYYY dDDD HH:MM:SS` — year, day-of-year, time-of-day.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sod = self.second_of_day();
        write!(
            f,
            "y{:03} d{:03} {:02}:{:02}:{:02}",
            self.year(),
            self.day_of_year(),
            sod / HOUR,
            (sod % HOUR) / MINUTE,
            sod % MINUTE
        )
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimDuration({self})")
    }
}

impl fmt::Display for SimDuration {
    /// Formats with the largest natural unit: years, days, hours, minutes or
    /// seconds, with one decimal where it aids reading.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if s >= YEAR {
            write!(f, "{:.1}y", self.as_years_f64())
        } else if s >= DAY {
            write!(f, "{:.1}d", self.as_days_f64())
        } else if s >= HOUR {
            write!(f, "{:.1}h", self.as_hours_f64())
        } else if s >= MINUTE {
            write!(f, "{:.1}m", s as f64 / MINUTE as f64)
        } else {
            write!(f, "{s}s")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_compose() {
        assert_eq!(HOUR, 3_600);
        assert_eq!(DAY, 86_400);
        assert_eq!(WEEK, 604_800);
        assert_eq!(YEAR, 31_536_000);
    }

    #[test]
    fn calendar_decomposition() {
        let t = SimTime::from_years(3) + SimDuration::from_days(100) + SimDuration::from_hours(5);
        assert_eq!(t.year(), 3);
        assert_eq!(t.day_of_year(), 100);
        assert_eq!(t.hour_of_day(), 5);
        assert_eq!(t.day(), 3 * 365 + 100);
    }

    #[test]
    fn century_horizon_fits() {
        let t = SimTime::from_years(100);
        assert_eq!(t.year(), 100);
        assert!(t.as_secs() < u64::MAX / 1_000_000);
    }

    #[test]
    fn arithmetic_roundtrips() {
        let a = SimTime::from_secs(1_000);
        let d = SimDuration::from_secs(234);
        assert_eq!((a + d) - d, a);
        assert_eq!((a + d).since(a), d);
        assert_eq!((a + d) - a, d);
    }

    #[test]
    fn saturating_add_caps() {
        assert_eq!(SimTime::MAX.saturating_add(SimDuration::from_secs(1)), SimTime::MAX);
        assert_eq!(SimTime::ZERO.checked_add(SimDuration::MAX), Some(SimTime::MAX));
        assert_eq!(SimTime::from_secs(1).checked_add(SimDuration::MAX), None);
    }

    #[test]
    fn from_secs_f64_edge_cases() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
        assert_eq!(SimDuration::from_secs_f64(1.6), SimDuration::from_secs(2));
        assert_eq!(SimDuration::from_secs_f64(1e30), SimDuration::MAX);
    }

    #[test]
    fn from_secs_f64_rounds_like_f64_round() {
        let rounded = |secs: f64| SimDuration::from_secs_f64(secs).as_secs();
        let p52 = (1u64 << 52) as f64;
        let p53 = (1u64 << 53) as f64;
        let mut edges = vec![
            0.49999999999999994,
            0.5,
            p52 - 0.5,
            p52 + 0.5,
            p52 - 1.5,
            p52 + 1.0,
            p53 - 1.0,
            p53,
            p53 + 2.0,
            f64::MIN_POSITIVE,
            f64::EPSILON,
        ];
        edges.extend((0..64).map(|k| k as f64 + 0.5));
        edges.extend((0..64).map(|k| (1u64 << (k % 53)) as f64 + 0.5));
        let mut rng = crate::rng::Rng::seed_from(53);
        // Random mantissas in every binade from 2^-4 to 2^63.
        edges.extend((0..40_000).map(|_| {
            let binade = rng.next_below(67) as i32 - 4;
            (1.0 + rng.next_f64()) * 2f64.powi(binade)
        }));
        for secs in edges {
            assert_eq!(rounded(secs), secs.round() as u64, "secs {secs:e}");
        }
    }

    #[test]
    fn fractional_year_conversions() {
        let d = SimDuration::from_years_f64(0.5);
        assert_eq!(d.as_secs(), YEAR / 2);
        assert!((d.as_years_f64() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_secs(42).to_string(), "42s");
        assert_eq!(SimDuration::from_mins(90).to_string(), "1.5h");
        assert_eq!(SimDuration::from_years(50).to_string(), "50.0y");
        let t = SimTime::from_years(2) + SimDuration::from_hours(1);
        assert_eq!(t.to_string(), "y002 d000 01:00:00");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimDuration::from_days(1) < SimDuration::from_weeks(1));
    }
}
