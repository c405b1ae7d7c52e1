//! Deterministic future-event list.
//!
//! A binary-heap priority queue keyed by `(time, rank, sequence)`:
//! * `time` — virtual instant at which the event fires;
//! * `rank` — caller-supplied small integer used to order simultaneous
//!   events of different kinds deterministically (e.g. availability
//!   boundaries before releases, so that a decision taken at a window's
//!   edge already sees the new availability);
//! * `sequence` — monotonically increasing insertion counter that breaks
//!   the remaining ties, making the pop order a pure function of the push
//!   order.

use crate::time::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled at a virtual instant.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Entry<E> {
    time: Time,
    rank: u8,
    seq: u64,
    payload: E,
}

impl<E: Eq> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to get earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.rank.cmp(&self.rank))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E: Eq> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic min-priority queue of timed events.
#[derive(Clone, Debug)]
pub struct EventQueue<E: Eq> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    popped_until: Time,
}

impl<E: Eq> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Eq> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            popped_until: Time::new(f64::MIN),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `payload` at `time` with tie-break `rank` (lower fires
    /// first among simultaneous events).
    ///
    /// Panics (debug builds) if the event is scheduled strictly before an
    /// already-popped instant: the simulation must never travel back in
    /// time.
    pub fn push(&mut self, time: Time, rank: u8, payload: E) {
        debug_assert!(
            time.approx_ge(self.popped_until),
            "event at {time:?} scheduled before current time {:?}",
            self.popped_until
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time,
            rank,
            seq,
            payload,
        });
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.time)
    }

    /// Removes and returns the next event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.pop_ranked().map(|(t, _, payload)| (t, payload))
    }

    /// Removes and returns the next event as `(time, rank, payload)`.
    ///
    /// Exposing the rank lets callers classify the event without matching
    /// on the payload — e.g. the simulation engine tags which rank classes
    /// are decision-relevant (can change a scheduling decision) when
    /// maintaining its decision epoch.
    pub fn pop_ranked(&mut self) -> Option<(Time, u8, E)> {
        let e = self.heap.pop()?;
        self.popped_until = e.time;
        Some((e.time, e.rank, e.payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::new(3.0), 0, "c");
        q.push(Time::new(1.0), 0, "a");
        q.push(Time::new(2.0), 0, "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((Time::new(1.0), "a")));
        assert_eq!(q.pop(), Some((Time::new(2.0), "b")));
        assert_eq!(q.pop(), Some((Time::new(3.0), "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn rank_breaks_simultaneous_ties() {
        let mut q = EventQueue::new();
        q.push(Time::new(1.0), 2, "release");
        q.push(Time::new(1.0), 0, "completion");
        q.push(Time::new(1.0), 1, "comm");
        assert_eq!(q.pop().unwrap().1, "completion");
        assert_eq!(q.pop().unwrap().1, "comm");
        assert_eq!(q.pop().unwrap().1, "release");
    }

    #[test]
    fn sequence_breaks_remaining_ties() {
        let mut q = EventQueue::new();
        q.push(Time::new(1.0), 0, "first");
        q.push(Time::new(1.0), 0, "second");
        q.push(Time::new(1.0), 0, "third");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "third");
    }

    #[test]
    fn pop_ranked_exposes_the_rank() {
        let mut q = EventQueue::new();
        q.push(Time::new(1.0), 2, "release");
        q.push(Time::new(1.0), 0, "boundary");
        assert_eq!(q.pop_ranked(), Some((Time::new(1.0), 0, "boundary")));
        assert_eq!(q.pop_ranked(), Some((Time::new(1.0), 2, "release")));
        assert_eq!(q.pop_ranked(), None);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(Time::new(5.0), 0, 42u32);
        assert_eq!(q.peek_time(), Some(Time::new(5.0)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((Time::new(5.0), 42)));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn drained_queue_accepts_late_pushes() {
        // Drain completely, then push later events (a `Session::submit`
        // while blocked does exactly this) and pop them in order.
        let mut q = EventQueue::new();
        q.push(Time::new(1.0), 0, "a");
        q.push(Time::new(2.0), 0, "b");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.is_empty());
        q.push(Time::new(10.0), 1, "late");
        q.push(Time::new(10.0), 0, "later-but-ranked-first");
        q.push(Time::new(5.0), 3, "soon");
        assert_eq!(q.peek_time(), Some(Time::new(5.0)));
        assert_eq!(q.pop().unwrap().1, "soon");
        assert_eq!(q.pop().unwrap().1, "later-but-ranked-first");
        assert_eq!(q.pop().unwrap().1, "late");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn all_events_at_one_instant_pop_by_rank_then_push_order() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.push(Time::new(7.0), (i % 3) as u8, i);
        }
        let mut prev: Option<(u8, u32)> = None;
        let mut n = 0;
        while let Some((t, rank, v)) = q.pop_ranked() {
            assert_eq!(t, Time::new(7.0));
            if let Some((pr, pv)) = prev {
                assert!(rank > pr || (rank == pr && v > pv));
            }
            prev = Some((rank, v));
            n += 1;
        }
        assert_eq!(n, 100);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduled before")]
    fn rejects_time_travel() {
        let mut q = EventQueue::new();
        q.push(Time::new(2.0), 0, ());
        q.pop();
        q.push(Time::new(1.0), 0, ());
    }
}
