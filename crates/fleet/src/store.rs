//! Struct-of-arrays device population store.
//!
//! [`DeviceStore`] holds one arm's whole device population as parallel
//! columns (death time, failed flag, sequence counter, chaos timers,
//! cohort id and position) instead of a `Vec<DeviceState>`-of-structs.
//! The weekly hot loop at million-device scale touches one or two columns
//! per device; the row layout made every pass stride over whole structs.
//!
//! The store also owns the *cohort* decomposition that aggregate sampling
//! (DESIGN.md §13) is built on: devices with the same canonical (sorted)
//! home-gateway set share one path probability each week, so a single
//! binomial draw per (arm × cohort × week) replaces one draw per device.
//! The build assigns cohort ids in first-appearance (device-id) order from
//! the deployment lottery and hands them in; they never change —
//! replacements keep the device's homes, so a device's cohort is a pure
//! function of the lottery. Each device also keeps its *position*: its rank
//! within its cohort in ascending id order, fixed at build.
//!
//! Sequence counters are lazy per cohort. The owned-arm aggregate fast path
//! gives every present member of cohort `c` the same weekly `base[c]` plus
//! one extra to the first `rem[c]` present members in id order; instead of
//! touching every device, [`seq_add_shares`](DeviceStore::seq_add_shares)
//! records that as one running sum and one range mark per cohort, and a
//! present device's counter is materialized on read:
//!
//! ```text
//! seq(d) = stored[d] + shares[c] − (marks in cuts[c] at positions ≤ pos d)
//! ```
//!
//! in wrapping `u64` arithmetic. `shares[c]` sums `base[c]` plus one per
//! week with an extra, and `cuts[c]` is a Fenwick tree holding a mark at
//! `k + 1` for each such week, where `k` is the position of the `rem[c]`-th
//! present member (found by a k-th search over a second Fenwick tree of
//! present flags). Together they are a "+1 on positions `[0, k]`" range
//! update with a point query. A failed
//! device's counter is frozen in `stored` when it fails, and re-based
//! against the lazy part when it becomes present again.
//!
//! Mutation goes through accessors ([`mark_failed`](DeviceStore::mark_failed),
//! [`set_row`](DeviceStore::set_row), the chaos setters) so the
//! per-cohort present-flag trees (and with them the alive counts) and the
//! stuck-device index stay consistent with the columns; simlint rule D004
//! enforces the discipline in digest-feeding crates.

use simcore::time::{SimDuration, SimTime};

use crate::device::{DeviceSpec, DeviceState};

/// A Fenwick (binary indexed) tree of `u32` counts over positions `0..n`.
/// Updates wrap, so adding `u32::MAX` subtracts one.
#[derive(Clone, Debug)]
struct Fenwick {
    /// 1-based partial sums; `tree[0]` is unused.
    tree: Vec<u32>,
}

impl Fenwick {
    /// `n` positions, all zero.
    fn zeros(n: usize) -> Self {
        Fenwick { tree: vec![0; n + 1] }
    }

    /// `n` positions, all one: node `i` covers `lowbit(i)` positions.
    fn ones(n: usize) -> Self {
        Fenwick { tree: (0..=n).map(|i| (i & i.wrapping_neg()) as u32).collect() }
    }

    /// Number of positions.
    fn len(&self) -> usize {
        self.tree.len() - 1
    }

    /// Adds `delta` (wrapping) at position `pos`.
    fn add(&mut self, pos: usize, delta: u32) {
        let mut i = pos + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// Sum over positions `0..end`.
    fn sum_below(&self, end: usize) -> u32 {
        let mut i = end;
        let mut sum = 0u32;
        while i > 0 {
            sum = sum.wrapping_add(self.tree[i]);
            i &= i - 1;
        }
        sum
    }

    /// The smallest position whose prefix sum reaches `k ≥ 1` (binary
    /// lifting), or `None` if the total is below `k`.
    fn kth(&self, k: u32) -> Option<usize> {
        let n = self.len();
        let mut step = if n == 0 { 0 } else { 1usize << n.ilog2() };
        let mut below = 0usize;
        let mut need = k;
        while step > 0 {
            let next = below + step;
            if next <= n && self.tree[next] < need {
                below = next;
                need -= self.tree[next];
            }
            step >>= 1;
        }
        (below < n).then_some(below)
    }
}

/// One path cohort: its canonical home set and the derived state the
/// aggregate pass reads and the lazy sequence counters live in.
#[derive(Clone, Debug)]
struct Cohort {
    /// Canonical (sorted, deduplicated) home-gateway set.
    homes: Vec<usize>,
    /// Present (not-failed) flags by member position, maintained
    /// incrementally by [`DeviceStore::mark_failed`] /
    /// [`DeviceStore::set_row`].
    present: Fenwick,
    /// Running sum of the shares every member received lazily.
    shares: u64,
    /// Range marks by member position (see the module docs); allocated
    /// by the first week that gives out an extra.
    cuts: Option<Fenwick>,
}

/// One experiment arm's device population, laid out column-wise.
#[derive(Clone, Debug)]
pub struct DeviceStore {
    /// The shared archetype (every device in an arm uses the arm's spec).
    spec: DeviceSpec,
    installed_at: Vec<SimTime>,
    fails_at: Vec<SimTime>,
    failed: Vec<bool>,
    /// A failed device's sequence counter; for a present device, the
    /// counter minus its cohort's lazy part (see the module docs).
    seq: Vec<u64>,
    stuck_until: Vec<SimTime>,
    byzantine_until: Vec<SimTime>,
    /// Each device's cohort id (index into `cohorts`).
    cohort: Vec<u32>,
    /// Each device's rank within its cohort in ascending id order.
    pos: Vec<u32>,
    /// Per-cohort state, in first-appearance order.
    cohorts: Vec<Cohort>,
    /// Devices that have ever been chaos-stuck (deduplicated, bounded by
    /// the fault plan's injection count). The weekly aggregate pass
    /// corrects participant counts by scanning this short list instead of
    /// the whole population.
    stuck_ids: Vec<usize>,
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
        let mut sizes = vec![0u32; cohort_homes.len()];
        let pos = cohort
            .iter()
            .map(|&c| {
                let p = sizes[c as usize];
                sizes[c as usize] += 1;
                p
            })
            .collect();
        let cohorts = cohort_homes
            .into_iter()
            .zip(sizes)
            .map(|(homes, size)| Cohort {
                homes,
                present: Fenwick::ones(size as usize),
                shares: 0,
                cuts: None,
            })
            .collect();
        DeviceStore {
            spec,
            installed_at: vec![SimTime::ZERO; n],
            fails_at,
            failed: vec![false; n],
            seq: vec![0; n],
            stuck_until: vec![SimTime::ZERO; n],
            byzantine_until: vec![SimTime::ZERO; n],
            cohort,
            pos,
            cohorts,
            stuck_ids: Vec::new(),
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
        t < self.stuck_until[di]
    }

    /// Whether device `di` emits garbage readings at `t`.
    #[inline]
    pub fn byzantine_at(&self, di: usize, t: SimTime) -> bool {
        t < self.byzantine_until[di]
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

    /// The lazily accumulated part of present device `di`'s counter.
    #[inline]
    fn lazy_seq(&self, di: usize) -> u64 {
        let c = &self.cohorts[self.cohort[di] as usize];
        let marks = c.cuts.as_ref().map_or(0, |cuts| cuts.sum_below(self.pos[di] as usize + 1));
        c.shares.wrapping_sub(u64::from(marks))
    }

    /// Device `di`'s lifetime report sequence number.
    pub fn seq(&self, di: usize) -> u64 {
        if self.failed[di] {
            self.seq[di]
        } else {
            self.seq[di].wrapping_add(self.lazy_seq(di))
        }
    }

    /// Advances device `di`'s sequence number by `n` delivered reports.
    #[inline]
    pub fn seq_add(&mut self, di: usize, n: u64) {
        self.seq[di] = self.seq[di].wrapping_add(n);
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
        let present = &self.cohorts[c].present;
        u64::from(present.sum_below(present.len()))
    }

    /// Devices that have ever been chaos-stuck, deduplicated.
    pub fn stuck_ids(&self) -> &[usize] {
        &self.stuck_ids
    }

    /// Moves device `di` into (`present`) or out of its cohort's
    /// present set. The caller keeps `failed[di]` in step.
    fn set_present(&mut self, di: usize, present: bool) {
        let delta = if present { 1 } else { u32::MAX };
        self.cohorts[self.cohort[di] as usize].present.add(self.pos[di] as usize, delta);
    }

    /// Marks device `di` failed (its `DeviceFail` event fired), freezing
    /// its sequence counter and leaving its cohort's present set.
    /// Idempotent.
    pub fn mark_failed(&mut self, di: usize) {
        if !self.failed[di] {
            self.seq[di] = self.seq(di);
            self.failed[di] = true;
            self.set_present(di, false);
        }
    }

    /// Overwrites device `di`'s mutable columns from a materialized row
    /// (device replacement, snapshot restore), keeping the cohort's
    /// present set consistent with the failed-flag transition and
    /// re-basing a present device's counter against the lazy part. The
    /// device's homes — and therefore its cohort and position — are
    /// deployment-time constants and are not touched.
    pub fn set_row(&mut self, di: usize, dev: &DeviceState) {
        if self.failed[di] != dev.failed {
            self.set_present(di, !dev.failed);
        }
        self.installed_at[di] = dev.installed_at;
        self.fails_at[di] = dev.fails_at;
        self.failed[di] = dev.failed;
        self.seq[di] = if dev.failed { dev.seq } else { dev.seq.wrapping_sub(self.lazy_seq(di)) };
        self.stuck_until[di] = dev.stuck_until;
        self.byzantine_until[di] = dev.byzantine_until;
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
            seq: self.seq(di),
            stuck_until: self.stuck_until[di],
            byzantine_until: self.byzantine_until[di],
        }
    }

    /// Chaos: wedges device `di` until at least `until` (overlapping
    /// injections keep the latest end time) and indexes it for the
    /// aggregate participant correction. Returns `false` (and changes
    /// nothing) if `di` is out of bounds.
    pub fn set_stuck_until(&mut self, di: usize, until: SimTime) -> bool {
        let Some(slot) = self.stuck_until.get_mut(di) else {
            return false;
        };
        *slot = (*slot).max(until);
        if !self.stuck_ids.contains(&di) {
            self.stuck_ids.push(di);
        }
        true
    }

    /// Chaos: marks device `di` byzantine until at least `until`
    /// (max-merge). Returns `false` if `di` is out of bounds.
    pub fn set_byzantine_until(&mut self, di: usize, until: SimTime) -> bool {
        let Some(slot) = self.byzantine_until.get_mut(di) else {
            return false;
        };
        *slot = (*slot).max(until);
        self.byzantine_max_until = self.byzantine_max_until.max(until);
        true
    }

    /// Adds each present device's weekly share to its sequence counter:
    /// `base[c]` per present member of cohort `c`, plus one extra for the
    /// first `rem[c]` present members in ascending device-id order — the
    /// same id-order rank rule the general weekly loop applies. Fast path
    /// for owned arms with no stuck or byzantine devices, where the share
    /// *is* the delivered count; callers are responsible for that
    /// precondition.
    ///
    /// O(cohorts · log n): each cohort takes one running-sum add and at
    /// most one k-th search plus one range mark (see the module docs).
    pub fn seq_add_shares(&mut self, base: &[u64], rem: &[u64]) {
        for ((c, &base), &rem) in self.cohorts.iter_mut().zip(base).zip(rem) {
            c.shares = c.shares.wrapping_add(base);
            if rem == 0 {
                continue;
            }
            c.shares = c.shares.wrapping_add(1);
            // The extra stops after the `rem`-th present member; with
            // fewer present members than `rem`, everyone gets it.
            let n = c.present.len();
            let kth = u32::try_from(rem).ok().and_then(|r| c.present.kth(r));
            if let Some(k) = kth.filter(|&k| k + 1 < n) {
                c.cuts.get_or_insert_with(|| Fenwick::zeros(n)).add(k + 1, 1);
            }
        }
    }

    /// Rebuilds the stuck-device index from the `stuck_until` column
    /// (snapshot resume: the index is derived state and is not stored).
    /// The rebuilt list is ascending by device id; the weekly correction
    /// only counts over it, so ordering differences against the
    /// injection-order list of an uninterrupted run are unobservable.
    pub fn rebuild_stuck_ids(&mut self) {
        self.stuck_ids.clear();
        for (di, &until) in self.stuck_until.iter().enumerate() {
            if until > SimTime::ZERO {
                self.stuck_ids.push(di);
            }
        }
    }
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
    fn cohorts_and_positions_follow_device_id_order() {
        let s = store();
        assert_eq!(s.cohort_count(), 3);
        assert_eq!(s.cohort_of(1), 1);
        assert_eq!(s.cohort_of(3), 1);
        assert_eq!(s.pos, vec![0, 0, 0, 1], "rank within the cohort in id order");
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
        fresh.seq = 7;
        s.set_row(3, &fresh);
        assert_eq!(s.cohort_alive(1), 2);
        let back = s.row(3);
        assert_eq!(back.installed_at, fresh.installed_at);
        assert_eq!(back.fails_at, fresh.fails_at);
        assert_eq!(back.seq, 7);
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
        s.seq_add(2, 42);
        assert!(s.set_stuck_until(2, SimTime::from_years(1)));
        assert!(s.set_byzantine_until(2, SimTime::from_years(2)));
        let r = s.row(2);
        assert_eq!(r.seq, s.seq(2));
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
    fn seq_add_shares_matches_the_id_order_rank_rule() {
        let mut s = store();
        s.mark_failed(0);
        // Cohorts: 0 -> {0}, 1 -> {1, 3}, 2 -> {2}. Device 0 is dead.
        // base = [5, 2, 0], rem = [0, 1, 0]: device 1 (rank 0 in cohort 1)
        // takes the extra, device 3 (rank 1) does not.
        s.seq_add_shares(&[5, 2, 0], &[0, 1, 0]);
        assert_eq!(s.seq(0), 0, "failed devices receive nothing");
        assert_eq!(s.seq(1), 3);
        assert_eq!(s.seq(2), 0);
        assert_eq!(s.seq(3), 2);
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

    #[test]
    fn fenwick_prefix_and_kth_match_a_plain_array() {
        let mut rng = Rng::seed_from(5);
        for n in [0usize, 1, 2, 3, 7, 8, 9, 33] {
            let mut plain = vec![1u32; n];
            let mut tree = Fenwick::ones(n);
            for _ in 0..200 {
                if n > 0 {
                    let p = rng.next_below(n as u64) as usize;
                    if plain[p] == 0 {
                        plain[p] = 1;
                        tree.add(p, 1);
                    } else {
                        plain[p] -= 1;
                        tree.add(p, u32::MAX);
                    }
                }
                let mut sum = 0;
                for (p, &v) in plain.iter().enumerate() {
                    assert_eq!(tree.sum_below(p), sum, "n {n} sum below {p}");
                    sum += v;
                }
                assert_eq!(tree.sum_below(n), sum, "n {n} total");
                for k in 1..=sum + 1 {
                    let want = plain
                        .iter()
                        .scan(0, |acc, &v| {
                            *acc += v;
                            Some(*acc)
                        })
                        .position(|acc| acc >= k);
                    assert_eq!(tree.kth(k), want, "n {n} k {k}");
                }
            }
        }
    }

    /// The eager model the lazy counters are checked against: plain rows
    /// and the per-device `seq_add_shares` loop the store used to run.
    struct Eager {
        cohort: Vec<u32>,
        rows: Vec<DeviceState>,
    }

    impl Eager {
        fn seq_add_shares(&mut self, base: &[u64], rem: &[u64]) {
            let mut rank = vec![0u64; base.len()];
            for (dev, &c) in self.rows.iter_mut().zip(&self.cohort) {
                if dev.failed {
                    continue;
                }
                let c = c as usize;
                dev.seq = dev.seq.wrapping_add(base[c] + u64::from(rank[c] < rem[c]));
                rank[c] += 1;
            }
        }

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
            (d.installed_at, d.fails_at, d.failed, d.seq, d.stuck_until, d.byzantine_until)
        };
        for (di, want) in m.rows.iter().enumerate() {
            assert_eq!(s.seq(di), want.seq, "{what}: seq of device {di}");
            assert_eq!(key(&s.row(di)), key(want), "{what}: row of device {di}");
        }
        for c in 0..s.cohort_count() {
            assert_eq!(s.cohort_alive(c), m.alive(c), "{what}: alive count of cohort {c}");
        }
    }

    /// A store over `cohort` ids (with `k` cohorts) and its eager twin.
    fn twins(cohort: Vec<u32>, k: usize) -> (DeviceStore, Eager) {
        let n = cohort.len();
        let fails = (0..n).map(|d| SimTime::from_years(10 + d as u64)).collect();
        let s = DeviceStore::build(spec(), fails, cohort.clone(), vec![Vec::new(); k]);
        let rows = (0..n).map(|d| s.row(d)).collect();
        (s, Eager { cohort, rows })
    }

    #[test]
    fn lazy_counters_match_the_eager_model_under_random_interleavings() {
        for seed in 0..6 {
            let mut rng = Rng::seed_from(seed);
            // Cohort 0 has one member (device 5); cohorts 1..=3 are larger
            // and interleaved in id order.
            let cohort: Vec<u32> =
                (0..48).map(|d| if d == 5 { 0 } else { 1 + (d % 7 % 3) as u32 }).collect();
            let (mut s, mut m) = twins(cohort, 4);
            let n = m.rows.len();
            for step in 0..600 {
                let di = rng.next_below(n as u64) as usize;
                let what = format!("seed {seed} step {step}");
                match rng.next_below(8) {
                    0..=2 => {
                        let base: Vec<u64> = (0..4).map(|_| rng.next_below(4)).collect();
                        let rem: Vec<u64> = (0..4)
                            .map(|c| {
                                let alive = m.alive(c);
                                // Bias towards the edges: none, all but one,
                                // and (off-contract) everyone or more.
                                match rng.next_below(5) {
                                    0 => 0,
                                    1 => alive.saturating_sub(1),
                                    2 => alive + rng.next_below(2),
                                    _ => rng.next_below(alive + 1),
                                }
                            })
                            .collect();
                        s.seq_add_shares(&base, &rem);
                        m.seq_add_shares(&base, &rem);
                    }
                    3 => {
                        s.mark_failed(di);
                        m.rows[di].failed = true;
                    }
                    4 => {
                        // Revive (replacement) or overwrite (restore) with a
                        // present row carrying an arbitrary counter.
                        let mut dev = m.rows[di].clone();
                        dev.failed = false;
                        dev.seq = if rng.chance(0.5) { 0 } else { rng.next_u64() };
                        dev.installed_at = SimTime::from_years(rng.next_below(5));
                        s.set_row(di, &dev);
                        m.rows[di] = dev;
                    }
                    5 => {
                        // Kill through set_row (restore of a failed row).
                        let mut dev = m.rows[di].clone();
                        dev.failed = true;
                        dev.seq = rng.next_below(1000);
                        s.set_row(di, &dev);
                        m.rows[di] = dev;
                    }
                    6 => {
                        let k = rng.next_below(200);
                        s.seq_add(di, k);
                        m.rows[di].seq = m.rows[di].seq.wrapping_add(k);
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

    #[test]
    fn lazy_counters_handle_lone_survivors_and_single_member_cohorts() {
        // Cohort 0: one member (device 0). Cohort 1: devices 1..=4.
        let (mut s, mut m) = twins(vec![0, 1, 1, 1, 1], 2);
        fn both(s: &mut DeviceStore, m: &mut Eager, base: [u64; 2], rem: [u64; 2]) {
            s.seq_add_shares(&base, &rem);
            m.seq_add_shares(&base, &rem);
            assert_matches(s, m, &format!("base {base:?} rem {rem:?}"));
        }
        // rem = participants − 1 in cohort 1; the lone member takes base.
        both(&mut s, &mut m, [3, 2], [0, 3]);
        // All but the last member of cohort 1 fail: only position 3 is
        // present, so rem = participants − 1 = 0, then rem = 1 (everyone).
        for di in 1..=3 {
            s.mark_failed(di);
            m.rows[di].failed = true;
        }
        both(&mut s, &mut m, [1, 4], [0, 0]);
        both(&mut s, &mut m, [0, 0], [1, 1]);
        // Revive the first member; now the extra must stop before device 4.
        let mut dev = m.rows[1].clone();
        dev.failed = false;
        dev.seq = 0;
        s.set_row(1, &dev);
        m.rows[1] = dev;
        both(&mut s, &mut m, [2, 1], [0, 1]);
        // All but the *first* member failed.
        s.mark_failed(4);
        m.rows[4].failed = true;
        both(&mut s, &mut m, [5, 5], [1, 1]);
        assert_eq!(s.seq(4), m.rows[4].seq, "a frozen counter ignores later weeks");
    }
}
