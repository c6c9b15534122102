//! Time-ordered event queue: an append-only hierarchical timing wheel.
//!
//! Run digests hang off one property: events pop earliest time first, and
//! equal timestamps pop in schedule (FIFO) order, enforced by a
//! monotonically increasing sequence number. A scheduled event always fires.
//!
//! Entries live in a slab with an intrusive free list of `u32` indices.
//! Pending events hang off [`LEVELS`] levels of [`SLOTS`] buckets, each a
//! singly-linked list with head and tail indices. Level `l` buckets are
//! `64^l` seconds wide (level 0: one timestamp per bucket; the top level
//! reaches `SimTime::MAX`). An event hangs at the highest 6-bit digit in
//! which its time differs from the cursor (`drained_until`). Popping
//! drains the earliest occupied bucket, found per level with one
//! `trailing_zeros` on an occupancy bitmap, and cascades coarse buckets
//! down until a level-0 bucket empties into the `ready` staging vector.
//!
//! Two rules keep same-second events in FIFO order. When bucket starts
//! tie, the higher level drains first, so every event at a second reaches
//! level 0 before that second drains. A cascade can still append an older
//! event behind a direct insert, so each level-0 bucket enters `ready`
//! sorted by seq. Events scheduled behind the cursor insert into `ready`
//! by binary search on `(time, seq)`. `tests/queue_model.rs` pins the
//! resulting order against a reference binary heap.

use crate::time::SimTime;

/// Number of wheel levels; `LEVELS * SLOT_BITS >= 64` covers all of `u64`.
const LEVELS: usize = 11;
/// Bits of the timestamp consumed per level.
const SLOT_BITS: u32 = 6;
/// Buckets per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Sentinel slab index ("null pointer") for list links and the free list.
const NONE: u32 = u32::MAX;

struct Slot<E> {
    at: SimTime,
    seq: u64,
    /// Bucket successor while linked (`NONE` at the tail); free-list
    /// successor while free.
    next: u32,
    payload: Option<E>,
}

#[derive(Clone, Copy)]
struct Level {
    /// Head and tail slab index per bucket, valid where `occupied` is set.
    heads: [u32; SLOTS],
    tails: [u32; SLOTS],
    /// Bit `b` set iff bucket `b` holds events.
    occupied: u64,
}

/// Level an event at `at` hangs from while the cursor sits at `current`:
/// the highest 6-bit digit in which the two times differ (`| 1` maps equal
/// times to level 0 without moving any higher bit).
#[inline]
fn level_for(current: u64, at: u64) -> usize {
    ((63 - ((current ^ at) | 1).leading_zeros()) / SLOT_BITS) as usize
}

/// Bucket index of `at` within `level`.
#[inline]
fn slot_of(at: u64, level: usize) -> usize {
    ((at >> (SLOT_BITS as usize * level)) & (SLOTS as u64 - 1)) as usize
}

/// Earliest timestamp covered by `(level, slot)` given the cursor `d`.
/// Well-defined because every occupied bucket sits inside the cursor's
/// current window at the parent level (see `advance_wheel`).
#[inline]
fn bucket_start(d: u64, level: usize, slot: usize) -> u64 {
    let low = SLOT_BITS as usize * level;
    let high = low + SLOT_BITS as usize;
    let base = if high >= 64 { 0 } else { (d >> high) << high };
    base | ((slot as u64) << low)
}

/// A priority queue of `(SimTime, payload)` events.
///
/// # Examples
///
/// ```
/// use simcore::event::EventQueue;
/// use simcore::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(10), "late");
/// q.schedule(SimTime::from_secs(5), "early");
/// let (t, e) = q.pop().expect("two events pending");
/// assert_eq!((t.as_secs(), e), (5, "early"));
/// ```
pub struct EventQueue<E> {
    slab: Vec<Slot<E>>,
    /// Head of the intrusive free list threaded through `Slot::next`.
    free_head: u32,
    levels: Box<[Level; LEVELS]>,
    /// The drained level-0 bucket plus behind-the-cursor arrivals, in pop
    /// order. Indices before `ready_pos` have already been popped.
    ready: Vec<u32>,
    ready_pos: usize,
    /// Wheel cursor: every event in the wheel has `at >= drained_until`.
    drained_until: u64,
    len: usize,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slab: Vec::new(),
            free_head: NONE,
            levels: Box::new([Level { heads: [0; SLOTS], tails: [0; SLOTS], occupied: 0 }; LEVELS]),
            ready: Vec::new(),
            ready_pos: 0,
            drained_until: 0,
            len: 0,
            next_seq: 0,
        }
    }

    /// Clears the queue for reuse, keeping allocated capacity. Sequence
    /// numbers and the wheel cursor restart from zero, so a reset queue is
    /// indistinguishable from a fresh one — replicate workers lean on this
    /// to reuse allocations across seeds.
    pub fn reset(&mut self) {
        self.slab.clear();
        self.free_head = NONE;
        for level in self.levels.iter_mut() {
            level.occupied = 0;
        }
        self.ready.clear();
        self.ready_pos = 0;
        self.drained_until = 0;
        self.len = 0;
        self.next_seq = 0;
    }

    /// Schedules `payload` to fire at `at`.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let slot = Slot { at, seq: self.next_seq, next: NONE, payload: Some(payload) };
        self.next_seq += 1;
        let index = if self.free_head == NONE {
            let index = self.slab.len();
            assert!(index < NONE as usize, "event queue slab exhausted u32 index space");
            self.slab.push(slot);
            index as u32
        } else {
            let index = self.free_head;
            self.free_head = std::mem::replace(&mut self.slab[index as usize], slot).next;
            index
        };
        self.len += 1;
        self.place(index);
    }

    /// Schedules a batch in iteration order, reserving slab space for the
    /// iterator's lower size bound up front.
    pub fn schedule_many<I: IntoIterator<Item = (SimTime, E)>>(&mut self, events: I) {
        let events = events.into_iter();
        self.slab.reserve(events.size_hint().0);
        for (at, payload) in events {
            self.schedule(at, payload);
        }
    }

    /// Removes and returns the earliest event. Ties on time pop in
    /// schedule (FIFO) order.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if !self.fill_ready() {
            return None;
        }
        let index = self.ready[self.ready_pos];
        self.ready_pos += 1;
        self.len -= 1;
        let slot = &mut self.slab[index as usize];
        slot.next = self.free_head;
        self.free_head = index;
        slot.payload.take().map(|payload| (slot.at, payload))
    }

    /// Returns the timestamp of the earliest event without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.fill_ready().then(|| self.slab[self.ready[self.ready_pos] as usize].at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns true if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slab capacity in events, for tests asserting allocation reuse.
    pub fn capacity(&self) -> usize {
        self.slab.capacity()
    }

    /// Appends a slot to its wheel bucket, or inserts it into `ready` by
    /// `(time, seq)` when it lands behind the cursor.
    fn place(&mut self, index: u32) {
        let slot = &mut self.slab[index as usize];
        slot.next = NONE;
        let (at, seq, t) = (slot.at, slot.seq, slot.at.as_secs());
        if t < self.drained_until {
            let slab = &self.slab;
            let pos = self.ready[self.ready_pos..].partition_point(|&i| {
                let s = &slab[i as usize];
                (s.at, s.seq) < (at, seq)
            });
            self.ready.insert(self.ready_pos + pos, index);
            return;
        }
        let level = level_for(self.drained_until, t);
        let bucket = slot_of(t, level);
        let lv = &mut self.levels[level];
        if lv.occupied & (1 << bucket) == 0 {
            lv.occupied |= 1 << bucket;
            lv.heads[bucket] = index;
        } else {
            self.slab[lv.tails[bucket] as usize].next = index;
        }
        lv.tails[bucket] = index;
    }

    /// Advances the wheel until `ready[ready_pos]` is pending. Returns
    /// false when the queue is empty.
    fn fill_ready(&mut self) -> bool {
        while self.ready_pos == self.ready.len() {
            self.ready.clear();
            self.ready_pos = 0;
            if !self.advance_wheel() {
                return false;
            }
        }
        true
    }

    /// Drains the earliest occupied bucket, returning false when the wheel
    /// is empty. A level-0 bucket empties into `ready` in seq order; a
    /// higher one cascades each entry to a strictly lower level.
    ///
    /// Invariant: every occupied bucket lies at or after the cursor, inside
    /// its window at the parent level, because the cursor only advances to
    /// the earliest bucket and a level-0 drain takes every event at its
    /// second. So `trailing_zeros` needs no wrap-around and `bucket_start`
    /// can rebuild the high bits from the cursor.
    fn advance_wheel(&mut self) -> bool {
        let cursor = self.drained_until;
        // The scan runs from the top level down and `min_by_key` keeps the
        // first of equal starts: on a tie the higher level's events at that
        // second cascade into level 0 before the second drains.
        let levels = self.levels.iter().enumerate().rev();
        let best = levels
            .filter(|(_, lv)| lv.occupied != 0)
            .map(|(level, lv)| {
                let slot = lv.occupied.trailing_zeros() as usize;
                (bucket_start(cursor, level, slot), level, slot)
            })
            .min_by_key(|&(start, _, _)| start);
        let Some((start, level, slot)) = best else {
            return false;
        };
        debug_assert!(start >= cursor, "wheel invariant violated: bucket behind the cursor");
        let lv = &mut self.levels[level];
        lv.occupied &= !(1 << slot);
        let mut cur = lv.heads[slot];
        if level == 0 {
            self.drained_until = start.saturating_add(1);
            while cur != NONE {
                self.ready.push(cur);
                cur = self.slab[cur as usize].next;
            }
            // A cascade may have appended older events behind direct
            // inserts at this second; seq order restores FIFO.
            let slab = &self.slab;
            self.ready.sort_unstable_by_key(|&i| slab[i as usize].seq);
        } else {
            self.drained_until = start;
            while cur != NONE {
                let next = self.slab[cur as usize].next;
                self.place(cur);
                cur = next;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), 3);
        q.schedule(t(10), 1);
        q.schedule(t(20), 2);
        assert_eq!(q.pop(), Some((t(10), 1)));
        assert_eq!(q.pop(), Some((t(20), 2)));
        assert_eq!(q.pop(), Some((t(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(t(2)));
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 1);
        assert_eq!(q.pop(), Some((t(10), 1)));
        q.schedule(t(5), 2);
        q.schedule(t(7), 3);
        assert_eq!(q.pop(), Some((t(5), 2)));
        q.schedule(t(6), 4);
        assert_eq!(q.pop(), Some((t(6), 4)));
        assert_eq!(q.pop(), Some((t(7), 3)));
    }

    #[test]
    fn far_future_events_cascade_correctly() {
        let mut q = EventQueue::new();
        let century = SimTime::from_secs(100 * 31_536_000);
        q.schedule(SimTime::from_secs(u64::MAX), "eon");
        q.schedule(t(1), "soon");
        q.schedule(century, "century");
        assert_eq!(q.pop(), Some((t(1), "soon")));
        assert_eq!(q.pop(), Some((century, "century")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(u64::MAX), "eon")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_preserved_across_cascade() {
        let mut q = EventQueue::new();
        // Both land in the same level-1 bucket while the cursor is at 0.
        q.schedule(t(100), 1);
        q.schedule(t(64), 0);
        assert_eq!(q.pop(), Some((t(64), 0)));
        // t=100 has cascaded down to level 0; a same-time arrival must
        // append after it despite taking the direct insertion path.
        q.schedule(t(100), 2);
        assert_eq!(q.pop(), Some((t(100), 1)));
        assert_eq!(q.pop(), Some((t(100), 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn schedule_many_matches_serial_schedules() {
        let mut q = EventQueue::new();
        q.schedule_many([(t(3), "c"), (t(1), "a"), (t(3), "d"), (t(2), "b")]);
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert_eq!(q.pop(), Some((t(3), "c")));
        assert_eq!(q.pop(), Some((t(3), "d")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn reset_keeps_capacity_and_restarts_clean() {
        let mut q = EventQueue::new();
        for i in 0..50 {
            q.schedule(t(i), i);
        }
        let cap = q.capacity();
        for _ in 0..20 {
            q.pop();
        }
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.capacity(), cap);
        // Behaves exactly like a fresh queue.
        q.schedule(t(2), 20);
        q.schedule(t(1), 10);
        assert_eq!(q.pop(), Some((t(1), 10)));
        assert_eq!(q.pop(), Some((t(2), 20)));
        assert_eq!(q.pop(), None);
    }
}
