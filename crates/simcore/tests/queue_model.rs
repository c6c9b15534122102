//! Differential test: the binary-heap [`EventQueue`] against a
//! deliberately naive model, a `Vec` kept sorted by `(time, seq)`.
//!
//! The queue's one non-negotiable obligation is the pop sequence —
//! earliest time first, then sequence order — because run digests (and
//! therefore the golden suite) hang off it. The model shares no code or
//! data structure with the queue. Randomized interleavings must agree
//! operation by operation: equal-timestamp bursts, schedules at the
//! current second, behind-the-cursor and far-future times, and sequence
//! numbers reserved in blocks and scheduled later, out of order. The mix
//! schedules more often than it pops, so each run's queue grows to
//! thousands of entries.
//!
//! Always on — no proptest feature gate — seeded through `simcore::rng`
//! so failures reproduce exactly.

use simcore::event::EventQueue;
use simcore::rng::Rng;
use simcore::time::SimTime;

/// The naive model: entries sorted by descending `(time, seq)`, so the
/// earliest sits at the end. Inserts find their place with a binary
/// search; pops take the last entry.
#[derive(Default)]
struct SortedVecQueue {
    entries: Vec<(SimTime, u64, u64)>,
    next_seq: u64,
}

impl SortedVecQueue {
    fn reserve(&mut self, n: u64) -> u64 {
        let first = self.next_seq;
        self.next_seq += n;
        first
    }

    fn schedule(&mut self, at: SimTime, payload: u64) {
        let seq = self.reserve(1);
        self.schedule_reserved(at, seq, payload);
    }

    fn schedule_reserved(&mut self, at: SimTime, seq: u64, payload: u64) {
        let i = self.entries.partition_point(|&(t, s, _)| (t, s) > (at, seq));
        self.entries.insert(i, (at, seq, payload));
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.entries.pop().map(|(at, _, payload)| (at, payload))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.entries.last().map(|&(at, _, _)| at)
    }

    fn pending(&self) -> Vec<(SimTime, u64, u64)> {
        self.entries.iter().rev().copied().collect()
    }
}

/// Drives both queues through `ops` random operations and asserts they
/// agree on every observable: pop results, peeked times, pending counts,
/// the pending set with its seqs and the sequence counter. Returns the
/// deepest the queue got.
fn differential_run(seed: u64, ops: usize) -> usize {
    let mut rng = Rng::seed_from(seed);
    let mut heap = EventQueue::new();
    let mut model = SortedVecQueue::default();
    let mut now = 0u64; // Time of the last popped event.
    let mut last_scheduled = 0u64;
    let mut payload = 0u64;
    let mut deepest = 0;
    // Seqs reserved but not yet scheduled.
    let mut reserved: Vec<u64> = Vec::new();

    for step in 0..ops {
        match rng.next_below(20) {
            // Schedule (10/20), across five time profiles.
            0..=9 => {
                let at = match rng.next_below(10) {
                    // Near future: dense, lots of sequence-order ties.
                    0..=3 => now.saturating_add(rng.next_below(64)),
                    // Equal-timestamp burst: repeat the previous time.
                    4 | 5 => last_scheduled,
                    // At the current second.
                    6 => now,
                    // Behind the cursor (allowed on the raw queue).
                    7 => now.saturating_sub(rng.next_below(100)),
                    // Far future: decades out, up to the end of time.
                    _ => now.saturating_add(1 + rng.next_below(u64::MAX / 2)),
                };
                last_scheduled = at;
                payload += 1;
                heap.schedule(SimTime::from_secs(at), payload);
                model.schedule(SimTime::from_secs(at), payload);
            }
            // Reserve a block of one to four seqs (1/20).
            10 => {
                let n = 1 + rng.next_below(4);
                let first = heap.reserve(n);
                assert_eq!(first, model.reserve(n), "reserve divergence at step {step}");
                reserved.extend(first..first + n);
            }
            // Schedule a random reserved seq, out of order (up to 2/20).
            11 | 12 if !reserved.is_empty() => {
                let seq = reserved.swap_remove(rng.next_below(reserved.len() as u64) as usize);
                let at = match rng.next_below(3) {
                    0 => now,
                    1 => last_scheduled.max(now),
                    _ => now.saturating_add(rng.next_below(64)),
                };
                payload += 1;
                heap.schedule_reserved(SimTime::from_secs(at), seq, payload);
                model.schedule_reserved(SimTime::from_secs(at), seq, payload);
            }
            // Pop (7/20, plus reserved-schedule draws with nothing reserved).
            _ => {
                let got = heap.pop();
                let want = model.pop();
                assert_eq!(got, want, "pop divergence at step {step} (seed {seed})");
                if let Some((at, _)) = got {
                    now = at.as_secs();
                }
            }
        }
        deepest = deepest.max(heap.len());
        assert_eq!(heap.peek_time(), model.peek_time(), "peek divergence at step {step}");
        assert_eq!(heap.len(), model.entries.len(), "len divergence at step {step} (seed {seed})");
        assert_eq!(heap.next_seq(), model.next_seq, "counter divergence at step {step}");
        if step % 1024 == 0 {
            let pending: Vec<_> = heap.pending().into_iter().map(|(t, s, &p)| (t, s, p)).collect();
            assert_eq!(pending, model.pending(), "pending divergence at step {step} (seed {seed})");
        }
    }

    // Drain both to the end: the full residual sequence must match.
    loop {
        let got = heap.pop();
        let want = model.pop();
        assert_eq!(got, want, "drain divergence (seed {seed})");
        if got.is_none() {
            break;
        }
    }
    deepest
}

#[test]
fn heap_matches_naive_model_across_seeds() {
    for seed in 1..=64 {
        let deepest = differential_run(seed, 20_000);
        assert!(deepest >= 4_000, "seed {seed} only reached {deepest} pending events");
    }
}
