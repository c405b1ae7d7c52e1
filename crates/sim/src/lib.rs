//! `mmsec-sim` — virtual-time substrate for the max-stretch edge-cloud
//! scheduling simulator.
//!
//! This crate holds the domain-agnostic pieces every other crate builds on:
//!
//! * [`time::Time`] — finite, totally ordered virtual time;
//! * [`interval::Interval`] / [`interval::IntervalSet`] — the disjoint
//!   interval families a schedule is made of (paper §III-B);
//! * [`event_queue::EventQueue`] — the deterministic future-event list of
//!   the event-based algorithms of paper §V, the engine's event queue;
//! * [`seed`] — deterministic seed derivation for reproducible experiments.

#![warn(missing_docs)]

pub mod event_queue;
pub mod interval;
pub mod seed;
pub mod time;

pub use event_queue::EventQueue;
pub use interval::{Interval, IntervalSet};
pub use time::{Time, TIME_EPS};

#[cfg(test)]
mod calendar {
    //! The calendar queue's regression cases, kept for the queue that
    //! replaced it.
    //!
    //! The engine ran on a calendar (bucket) queue with the same
    //! `(time, rank, seq)` key until [`EventQueue`] took its place. These
    //! are the cases that queue was held to, on the inputs it found hard (a
    //! dense cluster beside a far-future tail, many events at one instant,
    //! a long interleaving of pushes and pops), now run against
    //! [`EventQueue`] so the engine's event order keeps every guarantee it
    //! had.

    mod tests {
        use crate::{EventQueue, Time};
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        /// A dense cluster pushed latest-first plus a tail millennia ahead.
        fn cluster_and_tail() -> EventQueue<u32> {
            let mut q = EventQueue::new();
            for i in (0..64u32).rev() {
                q.push(Time::new(f64::from(i) * 0.5), 0, i);
            }
            for i in 0..16u32 {
                q.push(Time::new(1.0e9 + f64::from(i)), 0, 1000 + i);
            }
            q
        }

        #[test]
        fn pops_in_time_order() {
            let mut q = cluster_and_tail();
            assert_eq!(q.len(), 80);
            let mut got = Vec::new();
            while let Some((t, v)) = q.pop() {
                got.push((t, v));
            }
            assert_eq!(got.len(), 80);
            assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
            assert_eq!(got[0], (Time::new(0.0), 0));
            assert_eq!(got[63], (Time::new(31.5), 63));
            assert_eq!(got[79], (Time::new(1.0e9 + 15.0), 1015));
            assert!(q.is_empty());
        }

        #[test]
        fn rank_breaks_simultaneous_ties() {
            // Three kinds at each of several instants, pushed worst rank
            // first: every instant drains lowest rank first.
            let mut q = EventQueue::new();
            for t in [4.0, 1.0, 1.0e9, 2.0] {
                for rank in [2u8, 0, 1] {
                    q.push(Time::new(t), rank, (t.to_bits(), rank));
                }
            }
            for t in [1.0, 2.0, 4.0, 1.0e9] {
                for rank in [0u8, 1, 2] {
                    assert_eq!(
                        q.pop_ranked(),
                        Some((Time::new(t), rank, (t.to_bits(), rank)))
                    );
                }
            }
            assert_eq!(q.pop_ranked(), None);
        }

        #[test]
        fn sequence_breaks_remaining_ties() {
            // Equal time and rank: push order decides, even when other
            // instants and ranks are pushed in between.
            let mut q = EventQueue::new();
            for i in 0..100u32 {
                q.push(Time::new(7.0), 1, i);
                q.push(Time::new(9.0), 0, 1000 + i);
            }
            for i in 0..100u32 {
                assert_eq!(q.pop(), Some((Time::new(7.0), i)));
            }
            for i in 0..100u32 {
                assert_eq!(q.pop(), Some((Time::new(9.0), 1000 + i)));
            }
        }

        #[test]
        fn pop_ranked_exposes_the_rank() {
            // Each payload comes back with the rank it was pushed with.
            let mut q = EventQueue::new();
            for i in 0..40u32 {
                q.push(Time::new(f64::from(i % 5)), (i % 4) as u8, i);
            }
            let mut n = 0;
            while let Some((_, rank, i)) = q.pop_ranked() {
                assert_eq!(rank, (i % 4) as u8);
                n += 1;
            }
            assert_eq!(n, 40);
        }

        #[test]
        fn peek_does_not_remove() {
            // Across a whole drain, peeking reports the next pop's time
            // and leaves the queue as it was.
            let mut q = cluster_and_tail();
            while let Some(t) = q.peek_time() {
                let len = q.len();
                assert_eq!(q.peek_time(), Some(t));
                assert_eq!(q.len(), len);
                assert_eq!(q.pop().map(|(popped, _)| popped), Some(t));
                assert_eq!(q.len(), len - 1);
            }
            assert_eq!(q.pop(), None);
        }

        #[test]
        #[cfg(debug_assertions)]
        #[should_panic(expected = "scheduled before")]
        fn rejects_time_travel() {
            // The far-future tail still pending does not make an instant
            // before the popped one schedulable.
            let mut q = EventQueue::new();
            q.push(Time::new(2.0), 0, ());
            q.push(Time::new(1.0e9), 0, ());
            q.pop();
            q.push(Time::new(1.0), 0, ());
        }

        #[test]
        fn interleaved_push_pop_matches_reference_heap() {
            // Deterministic pseudo-random interleaving of pushes and pops,
            // mirrored into a std heap of the bare `(time, rank, seq)` key;
            // the two must agree on every peek, pop and length.
            let mut q = EventQueue::new();
            let mut heap = BinaryHeap::new();
            let mut state = 0x9e37_79b9_7f4a_7c15u64;
            let mut next_time = 0.0f64;
            let mut seq = 0u64;
            for _ in 0..4000 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let r = (state >> 33) as u32;
                if r % 3 < 2 {
                    // Push at the popped frontier plus a varied offset:
                    // some simultaneous, some far-future.
                    let offset = match r % 5 {
                        0 => 0.0,
                        1 => 1.0e7,
                        _ => f64::from(r % 97) * 0.125,
                    };
                    let t = Time::new(next_time + offset);
                    let rank = (r % 4) as u8;
                    q.push(t, rank, seq);
                    heap.push(Reverse((t, rank, seq)));
                    seq += 1;
                } else {
                    assert_eq!(q.peek_time(), heap.peek().map(|k| k.0 .0));
                    let popped = q.pop_ranked();
                    assert_eq!(popped, heap.pop().map(|k| k.0));
                    if let Some((t, _, _)) = popped {
                        next_time = t.seconds();
                    }
                }
                assert_eq!(q.len(), heap.len());
            }
            while let Some(Reverse(expected)) = heap.pop() {
                assert_eq!(q.pop_ranked(), Some(expected));
            }
            assert_eq!(q.pop_ranked(), None);
        }
    }
}
