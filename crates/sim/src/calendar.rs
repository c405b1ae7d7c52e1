//! Calendar (bucket) future-event queue.
//!
//! A drop-in replacement for [`EventQueue`](crate::EventQueue) keyed by the
//! same `(time, rank, sequence)` total order, so the pop stream is
//! **bit-identical** to the binary heap's (the `calendar_queue_matches_heap`
//! proptest pins this); the engine runs on this queue alone. The win is the
//! access pattern: simulation event times advance almost monotonically, so
//! a calendar queue turns the heap's `O(log n)` pointer-chasing sift into
//! an `O(1)` amortized append/pop on a short, contiguous, mostly-sorted
//! day bucket.
//!
//! # Layout
//!
//! * Virtual time is cut into *days* of `width` seconds starting at
//!   `origin`; day `d` covers `[origin + d·width, origin + (d+1)·width)`.
//! * `nb` (a power of two) day buckets form a ring: day `d` lands in
//!   bucket `d & (nb − 1)`. Each bucket is kept sorted **descending** by
//!   `(time, rank, seq)`, so the next event of a day is always the
//!   bucket's tail — pops are `Vec::pop`.
//! * Events more than `nb` days ahead of the rebuild point go to an
//!   unsorted *overflow* calendar (with its running minimum cached for
//!   `O(1)` peeks); when the bucketed window drains, the overflow is
//!   redistributed into a fresh window.
//!
//! # Bucket sizing
//!
//! `width` is the *observed mean event spacing* — `(t_max − t_min)/(N−1)`
//! over the events present at rebuild time — and `nb` the event count
//! rounded up to a power of two. That targets one event per bucket on
//! average regardless of the workload's time scale. When occupancy drifts
//! (`bucketed > 2·nb` after growth), the whole calendar is rebuilt with
//! re-observed spacing. None of these heuristics affect the pop order —
//! only how much memory is touched to find it.

use crate::time::Time;

/// An event scheduled at a virtual instant, tagged with its day index.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Entry<E> {
    time: Time,
    rank: u8,
    seq: u64,
    day: i64,
    payload: E,
}

impl<E> Entry<E> {
    /// The total-order key shared with the reference heap queue.
    #[inline]
    fn key(&self) -> (Time, u8, u64) {
        (self.time, self.rank, self.seq)
    }
}

/// Largest permitted bucket count (bounds rebuild allocation).
const MAX_BUCKETS: usize = 1 << 22;

/// Most events whose spacing scratch a queue keeps between rebuilds. A
/// batch run's primed queue (thousands of releases) rebuilds a handful
/// of times and should not hold the scratch for its life.
const KEEP_SPACING: usize = 1 << 12;

/// Day indices are clamped into this range so ring arithmetic can never
/// overflow, whatever `width` the sizing heuristic picked.
const MAX_DAY: i64 = i64::MAX / 4;

/// A deterministic min-priority calendar queue of timed events.
///
/// Same contract as [`EventQueue`](crate::EventQueue): pops come in
/// `(time, rank, seq)` order, where `seq` is the insertion counter — the
/// pop order is a pure function of the push order, and identical to the
/// heap's for any push sequence.
#[derive(Clone, Debug)]
pub struct CalendarQueue<E: Eq> {
    /// Ring of day buckets, each sorted descending by key (pop the tail).
    buckets: Vec<Vec<Entry<E>>>,
    /// Bucket count; always a power of two (0 until the first rebuild).
    nb: usize,
    /// Seconds per day bucket.
    width: f64,
    /// Virtual time of day 0.
    origin: f64,
    /// Lower bound on the day of every bucketed entry (the pop cursor).
    cur_day: i64,
    /// Entries with `day >= overflow_day` live in `overflow`.
    overflow_day: i64,
    /// Far-future events, unsorted.
    overflow: Vec<Entry<E>>,
    /// Cached minimum key in `overflow` (for O(1) peeks while drained).
    overflow_min: Option<(Time, u8, u64)>,
    /// Number of entries currently in `buckets`.
    bucketed: usize,
    next_seq: u64,
    popped_until: Time,
    /// Scratch for `rebuild`'s spacing estimate. A queue that drains
    /// between sparse pushes rebuilds at nearly every pop, so the storage
    /// is kept, and such a rebuild allocates nothing; storage for more
    /// than [`KEEP_SPACING`] events is released after use instead.
    spacing: Vec<f64>,
}

impl<E: Eq> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Eq> CalendarQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: Vec::new(),
            nb: 0,
            width: 1.0,
            origin: 0.0,
            cur_day: 0,
            overflow_day: 0,
            overflow: Vec::new(),
            overflow_min: None,
            bucketed: 0,
            next_seq: 0,
            popped_until: Time::new(f64::MIN),
            spacing: Vec::new(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.bucketed + self.overflow.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Day index of `time` under the current calendar parameters.
    #[inline]
    fn day_of(&self, time: Time) -> i64 {
        let d = ((time.seconds() - self.origin) / self.width).floor();
        // `as` saturates; clamp keeps ring/window arithmetic overflow-free.
        (d as i64).clamp(-MAX_DAY, MAX_DAY)
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
        let entry = Entry {
            time,
            rank,
            seq,
            day: 0,
            payload,
        };
        self.insert(entry);
        if self.nb > 0 && self.bucketed > 2 * self.nb {
            self.rebuild();
        }
    }

    /// Places an entry in its bucket or the overflow calendar.
    fn insert(&mut self, mut entry: Entry<E>) {
        if self.nb == 0 {
            // No calendar yet: stage everything in overflow; the first pop
            // builds the window.
            Self::note_overflow_min(&mut self.overflow_min, &entry);
            self.overflow.push(entry);
            return;
        }
        // Clamp the day up to the pop cursor: an event within tolerance of
        // the current instant must stay reachable by the forward scan. Its
        // key still sorts it to the bucket tail, so pop order is unharmed.
        let day = self.day_of(entry.time).max(self.cur_day);
        if day >= self.overflow_day {
            Self::note_overflow_min(&mut self.overflow_min, &entry);
            self.overflow.push(entry);
            return;
        }
        entry.day = day;
        let slot = (day as usize) & (self.nb - 1);
        let bucket = &mut self.buckets[slot];
        // Keep the bucket sorted descending by key; keys are unique (seq).
        let key = entry.key();
        let pos = bucket
            .binary_search_by(|probe| key.cmp(&probe.key()))
            .unwrap_err();
        bucket.insert(pos, entry);
        self.bucketed += 1;
    }

    #[inline]
    fn note_overflow_min(min: &mut Option<(Time, u8, u64)>, entry: &Entry<E>) {
        let key = entry.key();
        if min.map_or(true, |m| key < m) {
            *min = Some(key);
        }
    }

    /// Rebuilds the calendar window from every pending entry, re-observing
    /// the event spacing. Pop order is unaffected (it is defined by the
    /// entry keys alone).
    fn rebuild(&mut self) {
        for bucket in &mut self.buckets {
            self.overflow.append(bucket);
        }
        self.bucketed = 0;
        let count = self.overflow.len();
        if count == 0 {
            self.overflow_min = None;
            return;
        }
        // Observed event spacing: the *median* positive gap between sorted
        // event times. The median (unlike the mean) is robust to a few
        // far-future outliers, which would otherwise stretch the window so
        // wide that the near cluster collapses into a single bucket.
        let gaps = &mut self.spacing;
        gaps.clear();
        gaps.extend(self.overflow.iter().map(|e| e.time.seconds()));
        gaps.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite by Time invariant"));
        let t_min = gaps[0];
        // The sorted times become the gaps between neighbours, in place:
        // entry `i - 1` is overwritten only after its last read.
        for i in 1..count {
            gaps[i - 1] = gaps[i] - gaps[i - 1];
        }
        gaps.pop();
        gaps.retain(|&g| g > 0.0);
        self.width = if gaps.is_empty() {
            // Degenerate span (all simultaneous): one bucket-day per second.
            1.0
        } else {
            let mid = gaps.len() / 2;
            let (_, median, _) =
                gaps.select_nth_unstable_by(mid, |a, b| a.partial_cmp(b).expect("finite"));
            *median
        };
        if gaps.capacity() > KEEP_SPACING {
            *gaps = Vec::new();
        }
        self.origin = t_min;
        let nb = count.next_power_of_two().clamp(4, MAX_BUCKETS);
        // Every bucket is empty here, so re-sizing the ring keeps the
        // storage of the buckets that stay.
        self.nb = nb;
        self.buckets.resize_with(nb, Vec::new);
        self.cur_day = 0;
        self.overflow_day = nb as i64;
        self.overflow_min = None;
        let mut staged = std::mem::take(&mut self.overflow);
        for mut entry in staged.drain(..) {
            let day = self.day_of(entry.time).max(self.cur_day);
            if day >= self.overflow_day {
                Self::note_overflow_min(&mut self.overflow_min, &entry);
                self.overflow.push(entry);
            } else {
                entry.day = day;
                self.buckets[(day as usize) & (self.nb - 1)].push(entry);
                self.bucketed += 1;
            }
        }
        // Reuse the drained staging vector's allocation if the overflow
        // ended up empty (cheap; both are usually small here).
        if self.overflow.capacity() < staged.capacity() && self.overflow.is_empty() {
            self.overflow = staged;
        }
        for bucket in &mut self.buckets {
            bucket.sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
        }
    }

    /// Finds the day whose bucket tail is the global minimum, or `None`
    /// when the window is drained. Only scans empty ring slots, so the
    /// cost is bounded by the window span and amortized by pops advancing
    /// `cur_day`.
    #[inline]
    fn find_day(&self) -> Option<i64> {
        if self.bucketed == 0 {
            return None;
        }
        let mask = self.nb - 1;
        let mut d = self.cur_day;
        while d < self.overflow_day {
            if let Some(last) = self.buckets[(d as usize) & mask].last() {
                if last.day == d {
                    return Some(d);
                }
            }
            d += 1;
        }
        // Unreachable by the window invariant (every bucketed entry has
        // `cur_day <= day < overflow_day`); kept total for safety.
        debug_assert!(false, "bucketed entry outside the calendar window");
        None
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        match self.find_day() {
            Some(d) => self.buckets[(d as usize) & (self.nb - 1)]
                .last()
                .map(|e| e.time),
            // Window drained: the minimum (if any) is in overflow. Day
            // monotonicity in time guarantees overflow keys exceed every
            // bucketed key, so this branch is only correct — and only
            // taken — when the window is empty.
            None => self.overflow_min.map(|(t, _, _)| t),
        }
    }

    /// Removes and returns the next event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.pop_ranked().map(|(t, _, payload)| (t, payload))
    }

    /// Removes and returns the next event as `(time, rank, payload)`.
    pub fn pop_ranked(&mut self) -> Option<(Time, u8, E)> {
        if self.bucketed == 0 {
            if self.overflow.is_empty() {
                return None;
            }
            self.rebuild();
        }
        let d = match self.find_day() {
            Some(d) => d,
            None => {
                // Defensive: re-window and retry once.
                self.rebuild();
                self.find_day()?
            }
        };
        self.cur_day = d;
        let entry = self.buckets[(d as usize) & (self.nb - 1)]
            .pop()
            .expect("find_day returned a non-empty bucket");
        self.bucketed -= 1;
        self.popped_until = entry.time;
        Some((entry.time, entry.rank, entry.payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = CalendarQueue::new();
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
        let mut q = CalendarQueue::new();
        q.push(Time::new(1.0), 2, "release");
        q.push(Time::new(1.0), 0, "completion");
        q.push(Time::new(1.0), 1, "comm");
        assert_eq!(q.pop().unwrap().1, "completion");
        assert_eq!(q.pop().unwrap().1, "comm");
        assert_eq!(q.pop().unwrap().1, "release");
    }

    #[test]
    fn sequence_breaks_remaining_ties() {
        let mut q = CalendarQueue::new();
        q.push(Time::new(1.0), 0, "first");
        q.push(Time::new(1.0), 0, "second");
        q.push(Time::new(1.0), 0, "third");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "third");
    }

    #[test]
    fn pop_ranked_exposes_the_rank() {
        let mut q = CalendarQueue::new();
        q.push(Time::new(1.0), 2, "release");
        q.push(Time::new(1.0), 0, "boundary");
        assert_eq!(q.pop_ranked(), Some((Time::new(1.0), 0, "boundary")));
        assert_eq!(q.pop_ranked(), Some((Time::new(1.0), 2, "release")));
        assert_eq!(q.pop_ranked(), None);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = CalendarQueue::new();
        q.push(Time::new(5.0), 0, 42u32);
        assert_eq!(q.peek_time(), Some(Time::new(5.0)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((Time::new(5.0), 42)));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduled before")]
    fn rejects_time_travel() {
        let mut q = CalendarQueue::new();
        q.push(Time::new(2.0), 0, ());
        q.pop();
        q.push(Time::new(1.0), 0, ());
    }

    #[test]
    fn far_future_events_spill_to_overflow_and_refill() {
        // A dense near cluster plus events millennia ahead: the cluster
        // defines the bucket width, the tail overflows, and draining the
        // window rebuilds a new one from the overflow.
        let mut q = CalendarQueue::new();
        for i in 0..64u32 {
            q.push(Time::new(f64::from(i) * 0.5), 0, i);
        }
        for i in 0..16u32 {
            q.push(Time::new(1.0e9 + f64::from(i)), 0, 1000 + i);
        }
        // Force the initial window build, then verify the far tail is in
        // overflow rather than the window.
        assert_eq!(q.peek_time(), Some(Time::new(0.0)));
        assert_eq!(q.pop().unwrap().1, 0);
        assert!(!q.overflow.is_empty(), "far-future tail should overflow");
        let mut got = Vec::new();
        while let Some((t, v)) = q.pop() {
            got.push((t, v));
        }
        assert_eq!(got.len(), 79);
        assert!(got.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(got.last().unwrap().1, 1015);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn drained_queue_accepts_late_pushes() {
        // Drain completely, then push later events (a `Session::submit`
        // while blocked does exactly this) and pop them in order.
        let mut q = CalendarQueue::new();
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
    fn interleaved_push_pop_matches_reference_heap() {
        // Deterministic pseudo-random interleaving of pushes and pops,
        // mirrored into the reference heap queue; streams must agree
        // exactly (times, ranks, and payload identity).
        let mut cal = CalendarQueue::new();
        let mut heap = crate::EventQueue::new();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next_time = 0.0f64;
        let mut id = 0u32;
        for _ in 0..4000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = (state >> 33) as u32;
            if r % 3 < 2 {
                // Push at the current frontier plus a varied offset; every
                // fourth push is far-future, every fifth simultaneous.
                let offset = match r % 5 {
                    0 => 0.0,
                    1 => 1.0e7,
                    _ => f64::from(r % 97) * 0.125,
                };
                let t = Time::new(next_time + offset);
                let rank = (r % 4) as u8;
                cal.push(t, rank, id);
                heap.push(t, rank, id);
                id += 1;
            } else {
                assert_eq!(cal.peek_time(), heap.peek_time());
                let a = cal.pop_ranked();
                let b = heap.pop_ranked();
                assert_eq!(a, b);
                if let Some((t, _, _)) = a {
                    next_time = t.seconds();
                }
            }
            assert_eq!(cal.len(), heap.len());
        }
        loop {
            let a = cal.pop_ranked();
            let b = heap.pop_ranked();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn all_simultaneous_degenerate_span() {
        // Zero time span: the width heuristic has no spacing to observe;
        // ordering must still hold by (rank, seq).
        let mut q = CalendarQueue::new();
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
    fn growth_triggers_rebuild_without_reordering() {
        // Push far more events than the initial window was sized for, in a
        // pattern that forces occupancy past the rebuild threshold.
        let mut q = CalendarQueue::new();
        q.push(Time::new(0.0), 0, 0u32);
        assert_eq!(q.pop().unwrap().1, 0); // builds a tiny window
        let mut expect = Vec::new();
        for i in 0..500u32 {
            let t = Time::new(1.0 + f64::from(i % 50) * 0.01);
            q.push(t, 0, i + 1);
            expect.push((t, i + 1));
        }
        expect.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut got = Vec::new();
        while let Some((t, v)) = q.pop() {
            got.push((t, v));
        }
        assert_eq!(got, expect);
    }
}
