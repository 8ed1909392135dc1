//! The engine's timed-event queue: a binary min-heap keyed on
//! `(time, seq)`, where `time` is integer-nanosecond virtual time and
//! `seq` the global schedule sequence number.
//!
//! Events leave in ascending `(time, seq)` order, so same-time wake-ups
//! fire in the order they were scheduled and runs are bit-for-bit
//! deterministic. Push and pop are O(log n); the heap keeps its capacity,
//! so a steady-state simulation allocates nothing here. (The module is
//! named for the hierarchical timing wheel it held before; DESIGN.md §4
//! compares the two.)

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::engine::TaskId;
use crate::time::SimTime;

/// A scheduled wake-up: poll `task` once virtual time reaches `time`.
/// `seq` is the global schedule sequence number and breaks same-time ties.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WakeEvent {
    pub(crate) time: SimTime,
    pub(crate) seq: u64,
    pub(crate) task: TaskId,
}

/// Heap entry: the greatest entry is the earliest `(time, seq)`.
struct Entry(WakeEvent);

impl Entry {
    fn key(&self) -> (SimTime, u64) {
        (self.0.time, self.0.seq)
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Entry>,
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    pub(crate) fn push(&mut self, ev: WakeEvent) {
        self.heap.push(Entry(ev));
    }

    /// Remove and return the earliest event by `(time, seq)`.
    pub(crate) fn pop(&mut self) -> Option<WakeEvent> {
        self.heap.pop().map(|e| e.0)
    }

    /// Remove the *entire burst* of events sharing the minimal timestamp,
    /// appending them to `out` in `seq` order. This is the policy-mode
    /// engine's view (see [`crate::policy`]): every same-tick wake-up is a
    /// reordering candidate, so it must see them all at once. Unchosen
    /// candidates are pushed back with their original `seq` and come out
    /// again ahead of any later timestamp.
    pub(crate) fn pop_batch(&mut self, out: &mut Vec<WakeEvent>) {
        let Some(first) = self.pop() else { return };
        out.push(first);
        while self.heap.peek().is_some_and(|e| e.0.time == first.time) {
            out.push(self.pop().expect("peeked"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ev(time: u64, seq: u64) -> WakeEvent {
        WakeEvent {
            time: SimTime::from_nanos(time),
            seq,
            task: TaskId::from_parts(seq as u32, 0),
        }
    }

    /// The reference order: a vector kept sorted by `(time, seq)`,
    /// popped from the front.
    #[derive(Default)]
    struct SortedRef(Vec<WakeEvent>);

    impl SortedRef {
        fn new() -> Self {
            Self::default()
        }

        fn push(&mut self, e: WakeEvent) {
            let at = self
                .0
                .partition_point(|x| (x.time, x.seq) < (e.time, e.seq));
            self.0.insert(at, e);
        }

        fn pop(&mut self) -> Option<WakeEvent> {
            (!self.0.is_empty()).then(|| self.0.remove(0))
        }
    }

    /// Drive the queue and the sorted reference through the same schedule
    /// and require identical pop sequences. `deltas[i]` schedules an event
    /// at `now + delta` (like the engine, never in the past); every
    /// `pop_every`-th step pops one event from both and advances `now`.
    fn lockstep(deltas: &[u64], pop_every: usize) {
        let mut queue = EventQueue::new();
        let mut reference = SortedRef::new();
        let mut now = 0u64;
        let mut pushed = 0usize;
        let mut popped = 0usize;
        for (i, &d) in deltas.iter().enumerate() {
            let e = ev(now.saturating_add(d), i as u64);
            queue.push(e);
            reference.push(e);
            pushed += 1;
            if pop_every != 0 && i % pop_every == 0 {
                let (q, r) = (queue.pop(), reference.pop());
                assert_eq!(q, r, "queue diverged from the reference at step {i}");
                if let Some(e) = q {
                    assert!(e.time.as_nanos() >= now, "time went backwards");
                    now = e.time.as_nanos();
                    popped += 1;
                }
            }
        }
        // Drain the rest.
        loop {
            let (q, r) = (queue.pop(), reference.pop());
            assert_eq!(q, r, "queue diverged from the reference in final drain");
            match q {
                Some(e) => {
                    assert!(e.time.as_nanos() >= now);
                    now = e.time.as_nanos();
                    popped += 1;
                }
                None => break,
            }
        }
        assert_eq!(popped, pushed);
        assert_eq!(queue.len(), 0);
    }

    proptest! {
        /// A randomized event schedule pops in the reference's wake order
        /// and virtual timestamps.
        #[test]
        fn queue_matches_sorted_reference_on_random_schedules(
            deltas in prop::collection::vec(0u64..5000, 1..200),
            pop_every in 1usize..8,
        ) {
            lockstep(&deltas, pop_every);
        }

        /// Same, with deltas spanning nanoseconds to the far-future range
        /// where `SimTime::MAX`-like sentinels live. Each raw pair picks a
        /// magnitude band and an offset within it.
        #[test]
        fn queue_matches_sorted_reference_across_magnitudes(
            raw in prop::collection::vec((0u64..6, 0u64..u64::MAX), 1..120),
            pop_every in 1usize..6,
        ) {
            let deltas: Vec<u64> = raw
                .iter()
                .map(|&(band, off)| match band {
                    0 => 0,
                    1 => 1 + off % 63,
                    2 => 64 + off % (4096 - 64),
                    3 => 4096 + off % ((1 << 18) - 4096),
                    4 => (1 << 30) + off % ((1u64 << 40) - (1 << 30)),
                    _ => u64::MAX,
                })
                .collect();
            lockstep(&deltas, pop_every);
        }
    }

    /// Same-tick tiebreak: an event scheduled far in advance and one
    /// scheduled just before the deadline collide on the same nanosecond;
    /// the earlier-scheduled (lower seq) event must pop first.
    #[test]
    fn same_tick_far_and_near_schedules_pop_in_seq_order() {
        let mut queue = EventQueue::new();
        let mut reference = SortedRef::new();
        // seq 0: scheduled at t=0 for t=1000.
        // seq 1: fires at 990 to advance the clock close to the deadline.
        // seq 2: scheduled (after the 990 pop) for t=1000.
        for e in [ev(1000, 0), ev(990, 1)] {
            queue.push(e);
            reference.push(e);
        }
        assert_eq!(queue.pop(), reference.pop()); // 990 fires
        queue.push(ev(1000, 2));
        reference.push(ev(1000, 2));
        assert_eq!(
            queue.pop(),
            Some(ev(1000, 0)),
            "far schedule must win the tie"
        );
        assert_eq!(reference.pop(), Some(ev(1000, 0)));
        assert_eq!(queue.pop(), Some(ev(1000, 2)));
        assert_eq!(reference.pop(), Some(ev(1000, 2)));
        assert_eq!(queue.pop(), None);
    }

    /// Zero-delay events pushed while their timestamp is being drained
    /// must come out after everything already queued at that time, in
    /// push order — the "schedule at now during the tick" case.
    #[test]
    fn zero_delay_pushes_during_drain_keep_schedule_order() {
        let mut queue = EventQueue::new();
        for s in 0..3 {
            queue.push(ev(7, s));
        }
        assert_eq!(queue.pop(), Some(ev(7, 0)));
        // Mid-drain, two more events land on the same tick.
        queue.push(ev(7, 3));
        queue.push(ev(7, 4));
        for s in 1..5 {
            assert_eq!(queue.pop(), Some(ev(7, s)), "seq {s} out of order");
        }
        assert_eq!(queue.pop(), None);
        assert_eq!(queue.len(), 0);
    }

    /// `pop_batch` must hand out exactly the same-time burst — in seq
    /// order — and accept same-time push-backs afterwards.
    #[test]
    fn pop_batch_returns_whole_burst_and_allows_same_time_pushback() {
        let mut queue = EventQueue::new();
        for e in [ev(50, 0), ev(10, 1), ev(50, 2), ev(10, 3), ev(1000, 4)] {
            queue.push(e);
        }
        let mut out = Vec::new();
        queue.pop_batch(&mut out);
        assert_eq!(out, vec![ev(10, 1), ev(10, 3)]);
        // A push at the batch time (e.g. the policy returning an unchosen
        // candidate) must come back out before later timestamps.
        queue.push(ev(10, 5));
        out.clear();
        queue.pop_batch(&mut out);
        assert_eq!(out, vec![ev(10, 5)]);
        out.clear();
        queue.pop_batch(&mut out);
        assert_eq!(out, vec![ev(50, 0), ev(50, 2)]);
        out.clear();
        queue.pop_batch(&mut out);
        assert_eq!(out, vec![ev(1000, 4)]);
        out.clear();
        queue.pop_batch(&mut out);
        assert!(out.is_empty());
        assert_eq!(queue.len(), 0);
    }

    proptest! {
        /// Batched pops agree with the reference popped burst-wise: each
        /// batch is one timestamp, internally seq-sorted, and the
        /// concatenation of batches is the reference's total order.
        #[test]
        fn pop_batch_matches_sorted_reference_on_random_schedules(
            deltas in prop::collection::vec(0u64..500, 1..150),
        ) {
            let mut queue = EventQueue::new();
            let mut reference = SortedRef::new();
            let mut now = 0u64;
            let mut out = Vec::new();
            for (i, &d) in deltas.iter().enumerate() {
                let e = ev(now.saturating_add(d), i as u64);
                queue.push(e);
                reference.push(e);
                if i % 3 == 0 {
                    out.clear();
                    queue.pop_batch(&mut out);
                    for e in &out {
                        prop_assert_eq!(reference.pop(), Some(*e));
                        prop_assert_eq!(e.time, out[0].time);
                    }
                    if let Some(last) = out.last() {
                        now = last.time.as_nanos();
                    }
                }
            }
            loop {
                out.clear();
                queue.pop_batch(&mut out);
                if out.is_empty() {
                    break;
                }
                for e in &out {
                    prop_assert_eq!(reference.pop(), Some(*e));
                    prop_assert_eq!(e.time, out[0].time);
                }
            }
            prop_assert_eq!(reference.pop(), None);
            prop_assert_eq!(queue.len(), 0);
        }
    }

    #[test]
    fn empty_wheel_pops_none() {
        let mut queue = EventQueue::new();
        assert_eq!(queue.pop(), None);
        assert_eq!(queue.len(), 0);
    }

    #[test]
    fn max_sentinel_coexists_with_near_events() {
        let mut queue = EventQueue::new();
        queue.push(ev(u64::MAX, 0)); // "never" sentinel
        queue.push(ev(5, 1));
        assert_eq!(queue.pop(), Some(ev(5, 1)));
        assert_eq!(queue.pop(), Some(ev(u64::MAX, 0)));
        assert_eq!(queue.pop(), None);
    }
}
