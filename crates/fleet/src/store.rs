//! Struct-of-arrays device population store.
//!
//! [`DeviceStore`] holds one arm's whole device population as parallel
//! columns (install and death times, failed flag, cohort id) instead of a
//! `Vec<DeviceState>`-of-structs. The weekly hot loop at million-device
//! scale touches one or two columns per device; the row layout made every
//! pass stride over whole structs.
//!
//! The two chaos timers (`stuck_until`, `byzantine_until`) are *sparse*:
//! each column stays unallocated until the first injection (or restored
//! row) that needs a non-zero value, and an absent column reads as
//! `SimTime::ZERO` for every device. A plain run therefore stores 21 B per
//! device (two times, the failed flag and the cohort id), not 37.
//!
//! The store also owns the *cohort* decomposition that aggregate sampling
//! (DESIGN.md §13) is built on: devices with the same canonical (sorted)
//! home-gateway set share one path probability each week, so a single
//! binomial draw per (arm × cohort × week) replaces one draw per device.
//! The build assigns cohort ids in first-appearance (device-id) order from
//! the deployment lottery and hands them in; they never change —
//! replacements keep the device's homes, so a device's cohort is a pure
//! function of the lottery. Each cohort counts its present (not-failed)
//! members.
//!
//! Mutation goes through accessors ([`mark_failed`](DeviceStore::mark_failed),
//! [`set_row`](DeviceStore::set_row), the chaos setters) so the per-cohort
//! alive counts and the stuck-device index stay consistent with the
//! columns; simlint rule D004 enforces the discipline in digest-feeding
//! crates.

use simcore::time::{SimDuration, SimTime};

use crate::device::{DeviceSpec, DeviceState};

/// One path cohort: its canonical home set and how many of its members
/// are present.
#[derive(Clone, Debug)]
struct Cohort {
    /// Canonical (sorted, deduplicated) home-gateway set.
    homes: Vec<usize>,
    /// Present (not-failed) members, maintained incrementally by
    /// [`DeviceStore::mark_failed`] / [`DeviceStore::set_row`].
    alive: u64,
}

/// One experiment arm's device population, laid out column-wise.
#[derive(Clone, Debug)]
pub struct DeviceStore {
    /// The shared archetype (every device in an arm uses the arm's spec).
    spec: DeviceSpec,
    installed_at: Vec<SimTime>,
    fails_at: Vec<SimTime>,
    failed: Vec<bool>,
    /// Chaos wedge timers: empty until a device first needs a non-zero
    /// value, then one entry per device (see [`sparse_get`]).
    stuck_until: Vec<SimTime>,
    /// Chaos garbage-reading timers, sparse like `stuck_until`.
    byzantine_until: Vec<SimTime>,
    /// Each device's cohort id (index into `cohorts`).
    cohort: Vec<u32>,
    /// Per-cohort state, in first-appearance order.
    cohorts: Vec<Cohort>,
    /// Devices that have ever been chaos-stuck (deduplicated, bounded by
    /// the fault plan's injection count). The weekly aggregate pass
    /// corrects participant counts by scanning this short list instead of
    /// the whole population.
    stuck_ids: Vec<usize>,
    /// Membership flags for `stuck_ids`, so an injection dedupes in O(1).
    /// Allocated with the first stuck injection, like `stuck_until`.
    stuck_listed: Vec<bool>,
    /// Upper bound on every device's `byzantine_until` (max-merged by the
    /// setters, never lowered). `any_byzantine_at` tests against it so the
    /// weekly aggregate pass can skip the per-device byzantine column
    /// entirely in runs with no (or no longer active) injections.
    byzantine_max_until: SimTime,
}

impl DeviceStore {
    /// Builds a store for devices all installed at `SimTime::ZERO` with
    /// the given sampled death times. `cohort[d]` is device `d`'s cohort
    /// id, an index into `cohort_homes`, the canonical home set of each
    /// cohort (ids in first-appearance order; federated arms use one
    /// cohort with an empty set).
    pub(crate) fn build(
        spec: DeviceSpec,
        fails_at: Vec<SimTime>,
        cohort: Vec<u32>,
        cohort_homes: Vec<Vec<usize>>,
    ) -> Self {
        let n = fails_at.len();
        debug_assert_eq!(cohort.len(), n, "one cohort id per device");
        let mut cohorts: Vec<Cohort> =
            cohort_homes.into_iter().map(|homes| Cohort { homes, alive: 0 }).collect();
        for &c in &cohort {
            cohorts[c as usize].alive += 1;
        }
        DeviceStore {
            spec,
            installed_at: vec![SimTime::ZERO; n],
            fails_at,
            failed: vec![false; n],
            stuck_until: Vec::new(),
            byzantine_until: Vec::new(),
            cohort,
            cohorts,
            stuck_ids: Vec::new(),
            stuck_listed: Vec::new(),
            byzantine_max_until: SimTime::ZERO,
        }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.fails_at.len()
    }

    /// Whether the store holds no devices.
    pub fn is_empty(&self) -> bool {
        self.fails_at.is_empty()
    }

    /// The arm's device archetype.
    pub fn spec(&self) -> DeviceSpec {
        self.spec
    }

    /// Whether device `di`'s hardware is functional at `t` (the
    /// time-based check [`DeviceState::alive_at`] performs).
    #[inline]
    pub fn alive_at(&self, di: usize, t: SimTime) -> bool {
        !self.failed[di] && t < self.fails_at[di]
    }

    /// Whether device `di` is present — its failure *event* has not yet
    /// been processed. This is the flag the aggregate path keys
    /// participation on: it is exactly what the incremental
    /// [`cohort_alive`](Self::cohort_alive) counts track, event by event.
    #[inline]
    pub fn present(&self, di: usize) -> bool {
        !self.failed[di]
    }

    /// Whether device `di`'s firmware is chaos-wedged at `t`.
    #[inline]
    pub fn stuck_at(&self, di: usize, t: SimTime) -> bool {
        t < sparse_get(&self.stuck_until, di)
    }

    /// Whether device `di` emits garbage readings at `t`.
    #[inline]
    pub fn byzantine_at(&self, di: usize, t: SimTime) -> bool {
        t < sparse_get(&self.byzantine_until, di)
    }

    /// Whether *any* device could be byzantine at `t` (watermark check —
    /// may over-approximate, never under-approximates). `false` lets the
    /// weekly pass skip the per-device `byzantine_until` reads.
    #[inline]
    pub fn any_byzantine_at(&self, t: SimTime) -> bool {
        t < self.byzantine_max_until
    }

    /// Device `di`'s age at `t` (zero before installation).
    pub fn age_at(&self, di: usize, t: SimTime) -> SimDuration {
        let installed = self.installed_at[di];
        if t <= installed {
            SimDuration::ZERO
        } else {
            t.since(installed)
        }
    }

    /// When device `di`'s hardware fails.
    pub fn fails_at(&self, di: usize) -> SimTime {
        self.fails_at[di]
    }

    /// Number of path cohorts (distinct canonical home sets).
    pub fn cohort_count(&self) -> usize {
        self.cohorts.len()
    }

    /// Device `di`'s cohort id.
    #[inline]
    pub fn cohort_of(&self, di: usize) -> usize {
        self.cohort[di] as usize
    }

    /// The canonical home-gateway set of cohort `c`.
    pub fn cohort_homes(&self, c: usize) -> &[usize] {
        &self.cohorts[c].homes
    }

    /// Present devices in cohort `c` (incrementally maintained).
    pub fn cohort_alive(&self, c: usize) -> u64 {
        self.cohorts[c].alive
    }

    /// Devices that have ever been chaos-stuck, deduplicated.
    pub fn stuck_ids(&self) -> &[usize] {
        &self.stuck_ids
    }

    /// Marks device `di` failed (its `DeviceFail` event fired), leaving
    /// its cohort's alive count. Idempotent.
    pub fn mark_failed(&mut self, di: usize) {
        if !self.failed[di] {
            self.failed[di] = true;
            self.cohorts[self.cohort[di] as usize].alive -= 1;
        }
    }

    /// Overwrites device `di`'s mutable columns from a materialized row
    /// (device replacement, snapshot restore), keeping the cohort's alive
    /// count consistent with the failed-flag transition. The device's
    /// homes — and therefore its cohort — are deployment-time constants
    /// and are not touched.
    pub fn set_row(&mut self, di: usize, dev: &DeviceState) {
        if self.failed[di] != dev.failed {
            let alive = &mut self.cohorts[self.cohort[di] as usize].alive;
            if dev.failed {
                *alive -= 1;
            } else {
                *alive += 1;
            }
        }
        let n = self.len();
        self.installed_at[di] = dev.installed_at;
        self.fails_at[di] = dev.fails_at;
        self.failed[di] = dev.failed;
        sparse_set(&mut self.stuck_until, n, di, dev.stuck_until);
        sparse_set(&mut self.byzantine_until, n, di, dev.byzantine_until);
        self.byzantine_max_until = self.byzantine_max_until.max(dev.byzantine_until);
    }

    /// Materializes device `di` as a standalone [`DeviceState`] row
    /// (snapshotting and the per-device reference path).
    pub fn row(&self, di: usize) -> DeviceState {
        DeviceState {
            spec: self.spec,
            installed_at: self.installed_at[di],
            fails_at: self.fails_at[di],
            failed: self.failed[di],
            stuck_until: sparse_get(&self.stuck_until, di),
            byzantine_until: sparse_get(&self.byzantine_until, di),
        }
    }

    /// Hands the census columns a report keeps over to it — each
    /// device's install time and failed flag, moved, not copied — and
    /// frees the rest of the store.
    pub(crate) fn into_census(self) -> (Vec<SimTime>, Vec<bool>) {
        (self.installed_at, self.failed)
    }

    /// Whether the `stuck_until` and `byzantine_until` columns are
    /// allocated.
    #[cfg(test)]
    pub(crate) fn chaos_columns_allocated(&self) -> [bool; 2] {
        [!self.stuck_until.is_empty(), !self.byzantine_until.is_empty()]
    }

    /// Chaos: wedges device `di` until at least `until` (overlapping
    /// injections keep the latest end time) and indexes it for the
    /// aggregate participant correction. Returns `false` (and changes
    /// nothing) if `di` is out of bounds.
    pub fn set_stuck_until(&mut self, di: usize, until: SimTime) -> bool {
        let n = self.len();
        if di >= n {
            return false;
        }
        let merged = sparse_get(&self.stuck_until, di).max(until);
        sparse_set(&mut self.stuck_until, n, di, merged);
        if self.stuck_listed.is_empty() {
            self.stuck_listed = vec![false; n];
        }
        if !std::mem::replace(&mut self.stuck_listed[di], true) {
            self.stuck_ids.push(di);
        }
        true
    }

    /// Chaos: marks device `di` byzantine until at least `until`
    /// (max-merge). Returns `false` if `di` is out of bounds.
    pub fn set_byzantine_until(&mut self, di: usize, until: SimTime) -> bool {
        let n = self.len();
        if di >= n {
            return false;
        }
        let merged = sparse_get(&self.byzantine_until, di).max(until);
        sparse_set(&mut self.byzantine_until, n, di, merged);
        self.byzantine_max_until = self.byzantine_max_until.max(until);
        true
    }

    /// Rebuilds the stuck-device index from the `stuck_until` column
    /// (snapshot resume: the index is derived state and is not stored).
    /// The rebuilt list is ascending by device id; the weekly correction
    /// only counts over it, so ordering differences against the
    /// injection-order list of an uninterrupted run are unobservable.
    pub fn rebuild_stuck_ids(&mut self) {
        self.stuck_listed = self.stuck_until.iter().map(|&until| until > SimTime::ZERO).collect();
        self.stuck_ids = (0..self.stuck_listed.len()).filter(|&di| self.stuck_listed[di]).collect();
    }
}

/// Device `di`'s entry in a sparse chaos column: an unallocated column
/// reads as `SimTime::ZERO`.
#[inline]
fn sparse_get(col: &[SimTime], di: usize) -> SimTime {
    col.get(di).copied().unwrap_or(SimTime::ZERO)
}

/// Writes device `di`'s entry in a sparse chaos column of `n` devices,
/// allocating it only when the value is non-zero.
fn sparse_set(col: &mut Vec<SimTime>, n: usize, di: usize, v: SimTime) {
    if col.is_empty() {
        if v == SimTime::ZERO {
            return;
        }
        *col = vec![SimTime::ZERO; n];
    }
    col[di] = v;
}

#[cfg(test)]
mod tests {
    use super::*;
    use net::packet::RadioTech;
    use simcore::rng::Rng;

    fn spec() -> DeviceSpec {
        DeviceSpec::paper_sensor(RadioTech::Ieee802154)
    }

    fn store() -> DeviceStore {
        // Cohorts: 0 -> {0}, 1 -> {0,1}, 2 -> {1}; devices 1 and 3 share
        // cohort 1.
        DeviceStore::build(
            spec(),
            vec![
                SimTime::from_years(10),
                SimTime::from_years(20),
                SimTime::from_years(30),
                SimTime::from_years(40),
            ],
            vec![0, 1, 2, 1],
            vec![vec![0], vec![0, 1], vec![1]],
        )
    }

    #[test]
    fn cohorts_follow_device_id_order() {
        let s = store();
        assert_eq!(s.cohort_count(), 3);
        assert_eq!(s.cohort_of(1), 1);
        assert_eq!(s.cohort_of(3), 1);
        assert_eq!(s.cohort_homes(0), &[0]);
        assert_eq!(s.cohort_homes(1), &[0, 1]);
        assert_eq!(s.cohort_homes(2), &[1]);
        assert_eq!(s.cohort_alive(1), 2);
    }

    #[test]
    fn mark_failed_is_idempotent_and_tracks_cohort_alive() {
        let mut s = store();
        assert!(s.present(1));
        s.mark_failed(1);
        assert!(!s.present(1));
        assert!(!s.alive_at(1, SimTime::ZERO));
        assert_eq!(s.cohort_alive(1), 1);
        s.mark_failed(1);
        assert_eq!(s.cohort_alive(1), 1, "second mark must not double-decrement");
    }

    #[test]
    fn set_row_round_trips_and_updates_cohort_alive() {
        let mut s = store();
        s.mark_failed(3);
        assert_eq!(s.cohort_alive(1), 1);
        // Replacement: a fresh, live row re-enters the cohort.
        let mut fresh = s.row(3);
        fresh.failed = false;
        fresh.installed_at = SimTime::from_years(5);
        fresh.fails_at = SimTime::from_years(45);
        s.set_row(3, &fresh);
        assert_eq!(s.cohort_alive(1), 2);
        let back = s.row(3);
        assert_eq!(back.installed_at, fresh.installed_at);
        assert_eq!(back.fails_at, fresh.fails_at);
        assert!(!back.failed);
        // Overwriting a live row with a failed one decrements once.
        let mut dead = s.row(0);
        dead.failed = true;
        s.set_row(0, &dead);
        assert_eq!(s.cohort_alive(0), 0);
    }

    #[test]
    fn row_matches_column_accessors() {
        let mut s = store();
        assert!(s.set_stuck_until(2, SimTime::from_years(1)));
        assert!(s.set_byzantine_until(2, SimTime::from_years(2)));
        let r = s.row(2);
        assert_eq!(r.failed, !s.present(2));
        assert_eq!(r.fails_at, s.fails_at(2));
        assert_eq!(r.stuck_until, SimTime::from_years(1));
        assert_eq!(r.byzantine_until, SimTime::from_years(2));
        assert_eq!(s.age_at(2, SimTime::from_years(3)), SimDuration::from_years(3));
        assert!(s.stuck_at(2, SimTime::from_secs(1)));
        assert!(s.byzantine_at(2, SimTime::from_years(1)));
        assert!(!s.stuck_at(2, SimTime::from_years(1)));
    }

    #[test]
    fn chaos_setters_max_merge_and_bounds_check() {
        let mut s = store();
        assert!(s.set_stuck_until(0, SimTime::from_years(2)));
        assert!(s.set_stuck_until(0, SimTime::from_years(1)), "shorter overlap applies");
        assert_eq!(s.row(0).stuck_until, SimTime::from_years(2), "max-merge keeps the later end");
        assert_eq!(s.stuck_ids(), &[0], "re-injection must not duplicate the index");
        assert!(!s.set_stuck_until(99, SimTime::from_years(1)));
        assert!(!s.set_byzantine_until(99, SimTime::from_years(1)));
    }

    #[test]
    fn overlapping_storms_list_each_stuck_device_once() {
        // Storms that knock out overlapping windows of devices, over and
        // over, with a replacement clearing one device's timer in between.
        let n = 64;
        let mut s = DeviceStore::build(
            spec(),
            vec![SimTime::from_years(50); n],
            vec![0; n],
            vec![Vec::new()],
        );
        let mut want = Vec::new();
        for storm in 0..20u64 {
            let first = (storm as usize * 3) % n;
            for di in (first..first + 16).map(|d| d % n) {
                assert!(s.set_stuck_until(di, SimTime::ZERO + SimDuration::from_weeks(storm + 1)));
                if !want.contains(&di) {
                    want.push(di);
                }
            }
            if storm == 10 {
                // The next storm knocks this replacement out again.
                let replaced = first + 15;
                let mut fresh = s.row(replaced);
                fresh.stuck_until = SimTime::ZERO;
                s.set_row(replaced, &fresh);
            }
        }
        assert_eq!(s.stuck_ids(), want.as_slice(), "one entry per device, in injection order");
        let mut sorted = want.clone();
        sorted.sort_unstable();
        s.rebuild_stuck_ids();
        assert_eq!(s.stuck_ids(), sorted.as_slice(), "rebuild keeps the same id set");
    }

    #[test]
    fn chaos_columns_are_allocated_by_the_first_injection_only() {
        let mut s = store();
        assert_eq!(s.chaos_columns_allocated(), [false, false], "a fresh store has none");
        // Replacing a device that was never stuck writes no chaos column.
        s.mark_failed(1);
        let mut fresh = s.row(1);
        fresh.failed = false;
        fresh.installed_at = SimTime::from_years(5);
        s.set_row(1, &fresh);
        assert_eq!(s.chaos_columns_allocated(), [false, false], "unstuck replacement");
        assert!(!s.stuck_at(1, SimTime::ZERO) && !s.byzantine_at(1, SimTime::ZERO));
        assert!(s.set_stuck_until(2, SimTime::from_years(1)));
        assert_eq!(s.chaos_columns_allocated(), [true, false], "first stuck injection");
        assert!(!s.stuck_at(1, SimTime::ZERO), "other devices read zero");
        assert!(s.set_byzantine_until(0, SimTime::from_years(1)));
        assert_eq!(s.chaos_columns_allocated(), [true, true], "first byzantine injection");
        // A restored row with a non-zero timer allocates its column too.
        let mut restored = store();
        let mut row = restored.row(3);
        row.byzantine_until = SimTime::from_years(3);
        restored.set_row(3, &row);
        assert_eq!(restored.chaos_columns_allocated(), [false, true]);
        assert_eq!(restored.row(3).byzantine_until, SimTime::from_years(3));
    }

    #[test]
    fn rebuild_stuck_ids_recovers_index_from_columns() {
        let mut s = store();
        assert!(s.set_stuck_until(3, SimTime::from_years(1)));
        assert!(s.set_stuck_until(1, SimTime::from_years(2)));
        assert_eq!(s.stuck_ids(), &[3, 1], "injection order before rebuild");
        s.rebuild_stuck_ids();
        assert_eq!(s.stuck_ids(), &[1, 3], "ascending id order after rebuild");
    }

    #[test]
    fn byzantine_watermark_over_approximates_and_never_lowers() {
        let mut s = store();
        assert!(!s.any_byzantine_at(SimTime::ZERO), "fresh store has no byzantine devices");
        assert!(s.set_byzantine_until(2, SimTime::from_years(2)));
        assert!(s.any_byzantine_at(SimTime::from_years(1)));
        assert!(!s.any_byzantine_at(SimTime::from_years(2)), "watermark expires with the injection");
        // Clearing the device's own timer via set_row must not lower the
        // watermark (it is an upper bound, not an exact max).
        let mut cleared = s.row(2);
        cleared.byzantine_until = SimTime::ZERO;
        s.set_row(2, &cleared);
        assert!(s.any_byzantine_at(SimTime::from_years(1)), "watermark is sticky");
    }

    #[test]
    fn federated_arm_is_one_cohort_with_no_homes() {
        let s = DeviceStore::build(
            spec(),
            vec![SimTime::from_years(10); 5],
            vec![0; 5],
            vec![Vec::new()],
        );
        assert_eq!(s.cohort_count(), 1);
        assert_eq!(s.cohort_alive(0), 5);
        assert!(s.cohort_homes(0).is_empty());
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
    }

    /// The eager model the store is checked against: plain rows, with
    /// alive counts recomputed by a population scan.
    struct Eager {
        cohort: Vec<u32>,
        rows: Vec<DeviceState>,
    }

    impl Eager {
        fn alive(&self, c: usize) -> u64 {
            self.rows
                .iter()
                .zip(&self.cohort)
                .filter(|(d, &k)| !d.failed && k as usize == c)
                .count() as u64
        }
    }

    fn assert_matches(s: &DeviceStore, m: &Eager, what: &str) {
        let key = |d: &DeviceState| {
            (d.installed_at, d.fails_at, d.failed, d.stuck_until, d.byzantine_until)
        };
        for (di, want) in m.rows.iter().enumerate() {
            assert_eq!(key(&s.row(di)), key(want), "{what}: row of device {di}");
        }
        for c in 0..s.cohort_count() {
            assert_eq!(s.cohort_alive(c), m.alive(c), "{what}: alive count of cohort {c}");
        }
    }

    #[test]
    fn store_matches_the_eager_model_under_random_interleavings() {
        for seed in 0..6 {
            let mut rng = Rng::seed_from(seed);
            // Cohort 0 has one member (device 5); cohorts 1..=3 are larger
            // and interleaved in id order.
            let cohort: Vec<u32> =
                (0..48).map(|d| if d == 5 { 0 } else { 1 + (d % 7 % 3) as u32 }).collect();
            let n = cohort.len();
            let fails = (0..n).map(|d| SimTime::from_years(10 + d as u64)).collect();
            let mut s = DeviceStore::build(spec(), fails, cohort.clone(), vec![Vec::new(); 4]);
            let rows = (0..n).map(|d| s.row(d)).collect();
            let mut m = Eager { cohort, rows };
            for step in 0..600 {
                let di = rng.next_below(n as u64) as usize;
                let what = format!("seed {seed} step {step}");
                match rng.next_below(4) {
                    0 => {
                        s.mark_failed(di);
                        m.rows[di].failed = true;
                    }
                    1 => {
                        // Revive (replacement) or overwrite (restore) with a
                        // present row.
                        let mut dev = m.rows[di].clone();
                        dev.failed = false;
                        dev.installed_at = SimTime::from_years(rng.next_below(5));
                        s.set_row(di, &dev);
                        m.rows[di] = dev;
                    }
                    2 => {
                        // Kill through set_row (restore of a failed row).
                        let mut dev = m.rows[di].clone();
                        dev.failed = true;
                        dev.fails_at = SimTime::from_years(rng.next_below(40));
                        s.set_row(di, &dev);
                        m.rows[di] = dev;
                    }
                    _ => {
                        let until = SimTime::from_years(rng.next_below(6));
                        if rng.chance(0.5) {
                            assert!(s.set_stuck_until(di, until));
                            let slot = &mut m.rows[di].stuck_until;
                            *slot = (*slot).max(until);
                        } else {
                            assert!(s.set_byzantine_until(di, until));
                            let slot = &mut m.rows[di].byzantine_until;
                            *slot = (*slot).max(until);
                        }
                    }
                }
                assert_matches(&s, &m, &what);
            }
        }
    }
}
