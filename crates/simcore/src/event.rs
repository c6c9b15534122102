//! Time-ordered event queue: a binary heap on `(time, seq)`.
//!
//! Events pop earliest time first, equal times in sequence order: run
//! digests hang off that order. [`EventQueue::schedule`] draws the next
//! number from one counter, so plain scheduling is FIFO on ties. A caller
//! may [`reserve`](EventQueue::reserve) numbers and schedule under them
//! later: the event pops exactly where it would have, scheduled at
//! reservation time. The fleet keeps its per-arm device events outside the
//! queue this way (DESIGN.md §7, §13). `tests/queue_model.rs` pins the pop
//! order against a naive sorted-`Vec` model.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

// Reversed: `BinaryHeap` is a max-heap. The payload never takes part.
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<E> Eq for Entry<E> {}

/// A priority queue of `(SimTime, payload)` events, popped in
/// `(time, seq)` order.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
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
        EventQueue { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Schedules `payload` to fire at `at`, behind every event already
    /// scheduled or reserved for the same second.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let seq = self.reserve(1);
        self.heap.push(Entry { at, seq, payload });
    }

    /// Reserves `n` consecutive sequence numbers and returns the first.
    pub fn reserve(&mut self, n: u64) -> u64 {
        let first = self.next_seq;
        self.next_seq += n;
        first
    }

    /// Schedules `payload` at `at` under `seq`, a number from
    /// [`reserve`](Self::reserve), used at most once.
    pub fn schedule_reserved(&mut self, at: SimTime, seq: u64, payload: E) {
        debug_assert!(seq < self.next_seq, "sequence number {seq} was never reserved");
        self.heap.push(Entry { at, seq, payload });
    }

    /// Removes and returns the earliest event; ties pop in sequence order.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.at, e.payload))
    }

    /// Returns the timestamp of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns true if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The next sequence number [`schedule`](Self::schedule) would draw:
    /// every number issued so far is below it.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Every pending event with its sequence number, in pop order.
    pub fn pending(&self) -> Vec<(SimTime, u64, &E)> {
        let mut out: Vec<_> = self.heap.iter().map(|e| (e.at, e.seq, &e.payload)).collect();
        out.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        out
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
    fn far_future_events_pop_last() {
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
    fn reserved_seqs_pop_where_they_were_reserved() {
        let mut q = EventQueue::new();
        let block = q.reserve(2);
        q.schedule(t(4), "fresh");
        assert_eq!(q.next_seq(), block + 3);
        // Scheduled last, but reserved before "fresh": ties go to them.
        q.schedule_reserved(t(4), block + 1, "second");
        q.schedule_reserved(t(4), block, "first");
        let pending: Vec<_> = q.pending().into_iter().map(|(_, seq, &e)| (seq, e)).collect();
        assert_eq!(pending, vec![(0, "first"), (1, "second"), (2, "fresh")]);
        assert_eq!(q.pop(), Some((t(4), "first")));
        assert_eq!(q.pop(), Some((t(4), "second")));
        assert_eq!(q.pop(), Some((t(4), "fresh")));
        assert_eq!(q.pop(), None);
    }
}
