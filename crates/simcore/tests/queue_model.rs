//! Differential tests: the timing-wheel [`EventQueue`] against a
//! reference binary-heap model.
//!
//! The wheel replaced a `BinaryHeap` queue for throughput; its one
//! non-negotiable obligation is producing the **exact same pop
//! sequence** — earliest time first, FIFO on ties — under every
//! interleaving of schedule/pop, because run digests (and therefore the
//! golden suite) hang off that order. The reference model here is the old
//! heap, and randomized interleavings (equal-timestamp bursts, far-future
//! times, behind-the-cursor schedules) must agree operation by operation.
//!
//! Always on — no proptest feature gate — seeded through `simcore::rng`
//! so failures reproduce exactly.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use simcore::event::EventQueue;
use simcore::rng::Rng;
use simcore::time::SimTime;

/// The pre-wheel queue: a max-heap inverted on `(at, seq)`.
struct RefEntry {
    at: SimTime,
    seq: u64,
    payload: u64,
}

impl Ord for RefEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for RefEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for RefEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for RefEntry {}

#[derive(Default)]
struct RefQueue {
    heap: BinaryHeap<RefEntry>,
    next_seq: u64,
}

impl RefQueue {
    fn schedule(&mut self, at: SimTime, payload: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(RefEntry { at, seq, payload });
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.heap.pop().map(|entry| (entry.at, entry.payload))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|entry| entry.at)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Drives both queues through `ops` random operations and asserts they
/// agree on every observable: pop results, peeked times, and pending
/// counts.
fn differential_run(seed: u64, ops: usize) {
    let mut rng = Rng::seed_from(seed);
    let mut wheel = EventQueue::new();
    let mut model = RefQueue::default();
    let mut now = 0u64; // Time of the last popped event.
    let mut last_scheduled = 0u64;
    let mut payload = 0u64;

    for step in 0..ops {
        match rng.next_below(10) {
            // Schedule (6/10), across four time profiles.
            0..=5 => {
                let at = match rng.next_below(10) {
                    // Near future: dense, lots of FIFO collisions.
                    0..=4 => now.saturating_add(rng.next_below(64)),
                    // Equal-timestamp burst: repeat the previous time.
                    5 | 6 => last_scheduled,
                    // Behind the cursor (allowed on the raw queue).
                    7 => now.saturating_sub(rng.next_below(100)),
                    // Far future: decades out, up to the top wheel level.
                    _ => now.saturating_add(1 + rng.next_below(u64::MAX / 2)),
                };
                last_scheduled = at;
                payload += 1;
                wheel.schedule(SimTime::from_secs(at), payload);
                model.schedule(SimTime::from_secs(at), payload);
            }
            // Pop (4/10).
            6..=9 => {
                let got = wheel.pop();
                let want = model.pop();
                assert_eq!(got, want, "pop divergence at step {step} (seed {seed})");
                if let Some((at, _)) = got {
                    now = at.as_secs();
                }
            }
            _ => unreachable!("next_below(10)"),
        }
        if step % 64 == 0 {
            assert_eq!(wheel.peek_time(), model.peek_time(), "peek divergence at step {step}");
        }
        assert_eq!(wheel.len(), model.len(), "len divergence at step {step} (seed {seed})");
    }

    // Drain both to the end: the full residual sequence must match.
    loop {
        let got = wheel.pop();
        let want = model.pop();
        assert_eq!(got, want, "drain divergence (seed {seed})");
        if got.is_none() {
            break;
        }
    }
}

#[test]
fn wheel_matches_heap_model_across_seeds() {
    for seed in 1..=64 {
        differential_run(seed, 20_000);
    }
}

/// A level-0 drain at second 63 moves the cursor to 64, where the level-1
/// bucket holding A starts, so B at the same second goes straight into
/// level 0. A then cascades in behind B; the drain must restore seq order.
#[test]
fn cascade_behind_a_direct_insert_keeps_fifo_ties() {
    let mut q = EventQueue::new();
    q.schedule(SimTime::from_secs(100), "A");
    q.schedule(SimTime::from_secs(63), "x");
    assert_eq!(q.pop(), Some((SimTime::from_secs(63), "x")));
    q.schedule(SimTime::from_secs(100), "B");
    assert_eq!(q.pop(), Some((SimTime::from_secs(100), "A")));
    assert_eq!(q.pop(), Some((SimTime::from_secs(100), "B")));
    assert_eq!(q.pop(), None);
}

/// Two buckets starting at the same second: A waits in the level-1 bucket
/// that starts at 64, B in the level-0 bucket for 64. The higher level
/// must drain first, or B pops before A cascades down.
#[test]
fn equal_bucket_starts_drain_the_higher_level_first() {
    let mut q = EventQueue::new();
    q.schedule(SimTime::from_secs(64), "A");
    q.schedule(SimTime::from_secs(63), "x");
    assert_eq!(q.pop(), Some((SimTime::from_secs(63), "x")));
    q.schedule(SimTime::from_secs(64), "B");
    assert_eq!(q.pop(), Some((SimTime::from_secs(64), "A")));
    assert_eq!(q.pop(), Some((SimTime::from_secs(64), "B")));
    assert_eq!(q.pop(), None);
}
