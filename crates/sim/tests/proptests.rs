//! Property-based tests for the simulation substrate.

use mmsec_sim::interval::{Interval, IntervalSet};
use mmsec_sim::time::Time;
use mmsec_sim::EventQueue;
use proptest::prelude::*;

/// Strategy: a well-formed interval with endpoints in [0, 1000].
fn interval_strategy() -> impl Strategy<Value = Interval> {
    (0.0f64..1000.0, 0.0f64..50.0).prop_map(|(start, len)| Interval::from_secs(start, start + len))
}

proptest! {
    /// Inserting intervals one by one never yields overlapping members,
    /// and the total length equals the sum of successfully inserted ones.
    #[test]
    fn interval_set_stays_disjoint(ivs in prop::collection::vec(interval_strategy(), 0..40)) {
        let mut set = IntervalSet::new();
        let mut accepted_len = 0.0f64;
        for iv in ivs {
            if set.insert(iv).is_ok() {
                accepted_len += iv.length().seconds();
            }
        }
        // Members are sorted and pairwise non-overlapping.
        let members: Vec<_> = set.iter().copied().collect();
        for w in members.windows(2) {
            prop_assert!(!w[0].overlaps(&w[1]));
            prop_assert!(w[0].start() <= w[1].start());
        }
        // Total measure is preserved by insertion/merging.
        let total = set.total_length().seconds();
        prop_assert!((total - accepted_len).abs() <= 1e-6 * accepted_len.max(1.0));
    }

    /// `overlaps` on a set agrees with the naive any-member check.
    #[test]
    fn set_overlap_matches_naive(
        ivs in prop::collection::vec(interval_strategy(), 0..25),
        probe in interval_strategy(),
    ) {
        let mut set = IntervalSet::new();
        let mut members = Vec::new();
        for iv in ivs {
            if set.insert(iv).is_ok() {
                members.push(iv);
            }
        }
        // Merging may have coalesced touching members, but measure-overlap
        // with the probe is invariant under coalescing.
        let naive = members.iter().any(|m| m.overlaps(&probe));
        prop_assert_eq!(set.overlaps(&probe), naive);
    }

    /// Event queue pops in non-decreasing time order regardless of the push
    /// order, and returns exactly the pushed payloads.
    #[test]
    fn event_queue_sorts(times in prop::collection::vec(0.0f64..1e6, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Time::new(t), 0, i);
        }
        let mut last = f64::MIN;
        let mut seen = vec![false; times.len()];
        while let Some((t, i)) = q.pop() {
            prop_assert!(t.seconds() >= last);
            last = t.seconds();
            prop_assert!(!seen[i]);
            seen[i] = true;
        }
        prop_assert!(seen.into_iter().all(|s| s));
    }

    /// The queue pops exactly what a sorted-`Vec` model of its
    /// `(time, rank, seq)` key pops, under an arbitrary interleaving of
    /// pushes (including simultaneous instants, rank ties, and far-future
    /// outliers) and peeks and pops. The model is the contract itself:
    /// the earliest time first, then the lowest rank, then the earliest
    /// push. Every engine schedule rests on this order.
    #[test]
    fn event_queue_matches_sorted_model(
        ops in prop::collection::vec(
            // (is_push, time offset kind, rank) — offsets picked so pushes
            // never precede the popped frontier.
            (any::<bool>(), 0u8..6, 0u8..4, 0.0f64..32.0),
            1..300,
        ),
    ) {
        let mut queue = EventQueue::new();
        // Pending `(time, rank, seq)` keys, sorted descending: the next
        // event to fire is the last one.
        let mut model: Vec<(Time, u8, u64)> = Vec::new();
        let mut frontier = 0.0f64;
        let mut seq = 0u64;
        for (is_push, kind, rank, jitter) in ops {
            if is_push {
                let offset = match kind {
                    0 => 0.0,            // exactly simultaneous
                    1 => 1.0e8,          // far-future outlier
                    2 => jitter * 1e-4,  // near-simultaneous spacing
                    _ => jitter,
                };
                let t = Time::new(frontier + offset);
                queue.push(t, rank, seq);
                let key = (t, rank, seq);
                let at = model.partition_point(|k| *k > key);
                model.insert(at, key);
                seq += 1;
            } else {
                prop_assert_eq!(queue.peek_time(), model.last().map(|k| k.0));
                let popped = queue.pop_ranked();
                prop_assert_eq!(popped, model.pop());
                if let Some((t, _, _)) = popped {
                    frontier = t.seconds();
                }
            }
            prop_assert_eq!(queue.len(), model.len());
        }
        while let Some(expected) = model.pop() {
            prop_assert_eq!(queue.pop_ranked(), Some(expected));
        }
        prop_assert_eq!(queue.pop_ranked(), None);
    }

    /// Derived seeds are collision-free over a sizeable index range.
    #[test]
    fn seed_derive_no_trivial_collisions(root in any::<u64>()) {
        let mut seen = std::collections::HashSet::new();
        for i in 0..512u64 {
            prop_assert!(seen.insert(mmsec_sim::seed::derive(root, "instance", i)));
        }
    }
}
