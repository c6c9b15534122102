//! Arm-local device events: what an arm under aggregate sampling has due
//! (DESIGN.md §13).
//!
//! At a century horizon nearly every event is a device failure or a
//! replacement, and the build primes every device's death at once. Under
//! [`SamplingMode::Aggregate`](crate::sim::SamplingMode::Aggregate) each
//! arm keeps its own pending device events in a [`DueList`] and the
//! engine queue holds only the arm's earliest one, so the queue stays at
//! tens of entries. Every event still dispatches through the engine. Each
//! carries the sequence number the engine reserved at the moment the
//! per-event path would have scheduled it, so every same-second tie —
//! with the fleet ticks, with the arm's gateway and provider events, with
//! fault-hook firings, within the arm — resolves exactly as it does there.
//! Legacy and Reference keep the per-event path as the oracle.
//!
//! A due list merges three sources, each already in `(time, seq)` order:
//!
//! * the build's deaths: device `d < deaths` dies at the store's
//!   `fails_at(d)` under seq `death_seq0 + d`, because order-statistic
//!   deaths ascend with the device id and their seqs are one block;
//! * replacements, a FIFO: the arm's replacement delay is constant, so
//!   they are scheduled in `(time, seq)` order;
//! * re-failures, a [`RadixHeap`]: a replacement's next death can fall
//!   anywhere in the decades ahead, but never before the arm's latest
//!   event, which is what a radix heap needs.

use std::collections::VecDeque;

use simcore::time::SimTime;

use crate::sim::Ev;
use crate::store::DeviceStore;

/// A held event: `(time, reserved seq, device)`.
type Item = (SimTime, u64, usize);

/// One arm's pending device events, outside the engine queue.
#[derive(Debug, Default)]
pub(crate) struct DueList {
    /// The next build-time death not yet handed to the engine.
    next_death: usize,
    /// Devices `0..deaths` were primed to die before the horizon.
    deaths: usize,
    /// Seq of device 0's death; device `d`'s is `death_seq0 + d`.
    death_seq0: u64,
    replacements: VecDeque<Item>,
    refailures: RadixHeap,
}

impl DueList {
    /// A list of the build's first `deaths` device deaths, under the seqs
    /// `seq0..seq0 + deaths`.
    pub(crate) fn primed(deaths: usize, seq0: u64) -> Self {
        DueList { deaths, death_seq0: seq0, ..DueList::default() }
    }

    /// Events held.
    pub(crate) fn len(&self) -> usize {
        self.deaths - self.next_death + self.replacements.len() + self.refailures.len()
    }

    /// Holds the device event `ev` at `at` under the reserved `seq`.
    /// Returns `false`, holding nothing, for any other event kind.
    pub(crate) fn push(&mut self, at: SimTime, seq: u64, ev: Ev) -> bool {
        match ev {
            Ev::DeviceFail(_, di) => self.refailures.push((at, seq, di)),
            Ev::DeviceReplace(_, di) => {
                debug_assert!(
                    self.replacements.back().map(|&(t, s, _)| (t, s)) < Some((at, seq)),
                    "replacements arrive in (time, seq) order"
                );
                self.replacements.push_back((at, seq, di));
            }
            _ => return false,
        }
        true
    }

    /// Removes the earliest held event by `(time, seq)` and returns it as
    /// arm `ai`'s engine event with its seq. `store` is the arm's, whose
    /// `fails_at` column the build-time deaths are read from.
    pub(crate) fn pop(&mut self, ai: usize, store: &DeviceStore) -> Option<(SimTime, u64, Ev)> {
        // An empty source reads as a key after every real one (a real seq
        // is never `u64::MAX`), and real keys are distinct, so plain
        // comparisons pick the earliest source.
        const EMPTY: (SimTime, u64) = (SimTime::MAX, u64::MAX);
        let death = if self.next_death < self.deaths {
            (store.fails_at(self.next_death), self.death_seq0 + self.next_death as u64)
        } else {
            EMPTY
        };
        let replace = self.replacements.front().map_or(EMPTY, |&(at, seq, _)| (at, seq));
        let refail = self.refailures.peek().unwrap_or(EMPTY);
        if death < replace && death < refail {
            self.next_death += 1;
            return Some((death.0, death.1, Ev::DeviceFail(ai, self.next_death - 1)));
        }
        if replace < refail {
            let (at, seq, di) = self.replacements.pop_front()?;
            return Some((at, seq, Ev::DeviceReplace(ai, di)));
        }
        let (at, seq, di) = self.refailures.pop()?;
        Some((at, seq, Ev::DeviceFail(ai, di)))
    }

    /// Every held event as arm `ai`'s engine event with its seq,
    /// unordered: what a checkpoint merges into the engine's pending set.
    pub(crate) fn events<'a>(
        &'a self,
        ai: usize,
        store: &'a DeviceStore,
    ) -> impl Iterator<Item = (SimTime, u64, Ev)> + 'a {
        let deaths = (self.next_death..self.deaths)
            .map(move |d| (store.fails_at(d), self.death_seq0 + d as u64, Ev::DeviceFail(ai, d)));
        let replacements = self
            .replacements
            .iter()
            .map(move |&(at, seq, di)| (at, seq, Ev::DeviceReplace(ai, di)));
        let refailures = self
            .refailures
            .buckets
            .iter()
            .flatten()
            .map(move |&(at, seq, di)| (at, seq, Ev::DeviceFail(ai, di)));
        deaths.chain(replacements).chain(refailures)
    }
}

/// A monotone min-queue on `(time, seq)`: a radix heap over the time in
/// seconds. `last` is the time of the latest pop; bucket 0 holds items at
/// `last`, and bucket `b > 0` those whose time first differs from `last`
/// in bit `b - 1`. No item is pushed earlier than `last`: after a pop the
/// arm's next device handler runs at the popped time, and a re-failure is
/// never due before the replacement that schedules it. So items only
/// move down, each bucket emptied in one sequential pass when its turn
/// comes. (A binary heap of the same items made the 1M-device, 50-year
/// run over a second slower: each pop sifts through tens of thousands of
/// entries per arm, mostly cache misses.)
#[derive(Debug, Default)]
struct RadixHeap {
    last: u64,
    /// 65 buckets once the first item arrives.
    buckets: Vec<Vec<Item>>,
    /// The earliest `(time, seq)` held, kept current for [`peek`](Self::peek).
    min: Option<(SimTime, u64)>,
    len: usize,
}

impl RadixHeap {
    fn bucket(last: u64, at: SimTime) -> usize {
        (u64::BITS - (at.as_secs() ^ last).leading_zeros()) as usize
    }

    fn len(&self) -> usize {
        self.len
    }

    fn push(&mut self, item: Item) {
        debug_assert!(item.0.as_secs() >= self.last, "a re-failure before the latest pop");
        if self.buckets.is_empty() {
            self.buckets = vec![Vec::new(); u64::BITS as usize + 1];
        }
        self.buckets[Self::bucket(self.last, item.0)].push(item);
        self.len += 1;
        let key = (item.0, item.1);
        self.min = Some(self.min.map_or(key, |min| min.min(key)));
    }

    fn peek(&self) -> Option<(SimTime, u64)> {
        self.min
    }

    fn pop(&mut self) -> Option<Item> {
        let (at, seq) = self.min?;
        if self.buckets[0].is_empty() {
            // The earliest item sits in the lowest non-empty bucket: move
            // `last` to it and drop that bucket's items a level or more.
            let b = self.buckets.iter().position(|items| !items.is_empty())?;
            self.last = at.as_secs();
            let mut items = std::mem::take(&mut self.buckets[b]);
            for item in items.drain(..) {
                self.buckets[Self::bucket(self.last, item.0)].push(item);
            }
            // Keep the emptied bucket's allocation for its next fill.
            self.buckets[b] = items;
        }
        let ties = &mut self.buckets[0];
        let i = ties.iter().position(|item| item.1 == seq)?;
        let item = ties.swap_remove(i);
        self.len -= 1;
        let lowest = self.buckets.iter().find(|items| !items.is_empty());
        self.min = lowest.and_then(|items| items.iter().map(|&(at, seq, _)| (at, seq)).min());
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use net::packet::RadioTech;
    use simcore::rng::Rng;
    use simcore::time::SimDuration;

    /// Drives a due list the way an arm does — pop the earliest, then
    /// schedule a replacement a fixed delay later and a re-failure at or
    /// after the popped second, under fresh seqs — against a naive model
    /// (a `Vec` scanned for its `(time, seq)` minimum). Times come from a
    /// narrow range, so the three sources often tie on the second.
    #[test]
    fn pops_in_time_then_seq_order_like_a_naive_model() {
        let delay = SimDuration::from_secs(40);
        for seed in 1..=8 {
            let mut rng = Rng::seed_from(seed);
            let mut deaths: Vec<SimTime> =
                (0..300).map(|_| SimTime::from_secs(rng.next_below(600))).collect();
            deaths.sort_unstable();
            let primed = 250;
            let spec = DeviceSpec::paper_sensor(RadioTech::Ieee802154);
            let store = DeviceStore::build(spec, deaths.clone(), vec![0; 300], vec![Vec::new()]);
            let mut due = DueList::primed(primed, 7);
            let mut model: Vec<(SimTime, u64, Ev)> =
                (0..primed).map(|d| (deaths[d], 7 + d as u64, Ev::DeviceFail(3, d))).collect();
            let mut next_seq = 7 + primed as u64;
            for step in 0.. {
                assert_eq!(due.len(), model.len(), "seed {seed}");
                if step % 16 == 0 {
                    let mut held: Vec<_> = due.events(3, &store).collect();
                    let mut expected = model.clone();
                    held.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
                    expected.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
                    assert_eq!(held, expected, "seed {seed}: held events");
                }
                let Some(i) = (0..model.len()).min_by_key(|&i| (model[i].0, model[i].1)) else {
                    break;
                };
                let (at, seq, ev) = model.remove(i);
                assert_eq!(due.pop(3, &store), Some((at, seq, ev)), "seed {seed} step {step}");
                let next = match ev {
                    Ev::DeviceFail(_, di) if rng.chance(0.8) => {
                        Some((at.saturating_add(delay), Ev::DeviceReplace(3, di)))
                    }
                    Ev::DeviceReplace(_, di) if rng.chance(0.7) => {
                        let life = SimDuration::from_secs(rng.next_below(60));
                        Some((at.saturating_add(life), Ev::DeviceFail(3, di)))
                    }
                    _ => None,
                };
                if let Some((t, ev)) = next {
                    assert!(due.push(t, next_seq, ev));
                    model.push((t, next_seq, ev));
                    next_seq += 1;
                }
            }
            assert_eq!(due.pop(3, &store), None);
            assert!(!due.push(SimTime::ZERO, next_seq, Ev::WeeklyCheck));
        }
    }
}
