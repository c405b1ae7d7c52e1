//! Half-open time intervals and disjoint interval sets.
//!
//! A schedule in the paper's model (§III-B) is a family of *disjoint
//! execution intervals* per job plus disjoint uplink/downlink communication
//! intervals; the validity checker reasons entirely in terms of these sets.
//! Intervals are half-open `[start, end)` so that back-to-back activities
//! (one ending exactly when the next begins) do not overlap.

use crate::time::{approx, Time};
use std::fmt;

/// A half-open interval `[start, end)` of virtual time with `start ≤ end`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Interval {
    start: Time,
    end: Time,
}

impl Interval {
    /// Creates an interval; panics if `end < start` (beyond tolerance).
    pub fn new(start: Time, end: Time) -> Self {
        assert!(
            end.approx_ge(start),
            "interval end {end:?} precedes start {start:?}"
        );
        Interval {
            start,
            end: end.max(start),
        }
    }

    /// Convenience constructor from raw seconds.
    pub fn from_secs(start: f64, end: f64) -> Self {
        Interval::new(Time::new(start), Time::new(end))
    }

    /// Left endpoint (inclusive).
    #[inline]
    pub fn start(&self) -> Time {
        self.start
    }

    /// Right endpoint (exclusive).
    #[inline]
    pub fn end(&self) -> Time {
        self.end
    }

    /// Interval length `end − start` (always ≥ 0).
    #[inline]
    pub fn length(&self) -> Time {
        (self.end - self.start).clamp_non_negative()
    }

    /// True when the interval has (approximately) zero length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.length().is_zero_or_negative()
    }

    /// True when `t ∈ [start, end)`.
    pub fn contains(&self, t: Time) -> bool {
        t >= self.start && t < self.end
    }

    /// True when the two intervals overlap on a set of positive measure
    /// (touching endpoints do NOT count as overlap, up to tolerance).
    pub fn overlaps(&self, other: &Interval) -> bool {
        let lo = self.start.max(other.start);
        let hi = self.end.min(other.end);
        approx::gt(hi.seconds(), lo.seconds())
    }

    /// Intersection, if of positive measure.
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let lo = self.start.max(other.start);
        let hi = self.end.min(other.end);
        if approx::gt(hi.seconds(), lo.seconds()) {
            Some(Interval::new(lo, hi))
        } else {
            None
        }
    }
}

impl fmt::Debug for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:.6}, {:.6})",
            self.start.seconds(),
            self.end.seconds()
        )
    }
}

/// Total measure of `intervals` (overlaps counted twice).
pub fn total_length(intervals: &[Interval]) -> Time {
    intervals
        .iter()
        .fold(Time::ZERO, |acc, iv| acc + iv.length())
}

/// A set of pairwise-disjoint intervals, kept sorted by start time.
///
/// Inserting an interval that overlaps an existing member is an error at
/// the call site that the structure reports (the engine never produces
/// overlapping activity intervals on one resource; the validity checker
/// uses this to detect violations).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IntervalSet {
    /// Sorted by start; pairwise disjoint (positive-measure sense).
    items: Vec<Interval>,
}

impl IntervalSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of member intervals.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the set has no member intervals.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Member intervals, sorted by start time.
    pub fn iter(&self) -> impl Iterator<Item = &Interval> {
        self.items.iter()
    }

    /// Inserts an interval, merging with adjacent members when they touch.
    ///
    /// Returns `Err(conflicting)` if the new interval overlaps an existing
    /// member on positive measure.
    pub fn insert(&mut self, iv: Interval) -> Result<(), Interval> {
        if iv.is_empty() {
            return Ok(());
        }
        // Find insertion position by start time.
        let pos = self.items.partition_point(|m| m.start() < iv.start());
        // Overlap may only involve the predecessor or the successor run.
        if pos > 0 && self.items[pos - 1].overlaps(&iv) {
            return Err(self.items[pos - 1]);
        }
        if pos < self.items.len() && self.items[pos].overlaps(&iv) {
            return Err(self.items[pos]);
        }
        // Merge with touching neighbours to keep the representation
        // small. Touching must be EXACT equality: the engine reuses the
        // same float for adjacent window boundaries, whereas two windows
        // separated by a genuine (if tiny) gap may enclose another job's
        // sliver of activity on the same resource — merging across such a
        // gap with a tolerance would fabricate a resource overlap.
        let mut start = iv.start();
        let mut end = iv.end();
        let mut lo = pos;
        let mut hi = pos;
        if pos > 0 && self.items[pos - 1].end() == iv.start() {
            lo = pos - 1;
            start = self.items[pos - 1].start();
        }
        if pos < self.items.len() && self.items[pos].start() == iv.end() {
            hi = pos + 1;
            end = self.items[pos].end();
        }
        self.items.splice(lo..hi, [Interval::new(start, end)]);
        Ok(())
    }

    /// Total measure of the set.
    pub fn total_length(&self) -> Time {
        total_length(&self.items)
    }

    /// Earliest start over all members (`min(E)` in the paper).
    pub fn min_start(&self) -> Option<Time> {
        self.items.first().map(|iv| iv.start())
    }

    /// Latest end over all members (`max(E)` in the paper).
    pub fn max_end(&self) -> Option<Time> {
        self.items.last().map(|iv| iv.end())
    }

    /// True when some member interval overlaps `iv` on positive measure.
    pub fn overlaps(&self, iv: &Interval) -> bool {
        let pos = self.items.partition_point(|m| m.end() <= iv.start());
        self.items[pos..]
            .iter()
            .take_while(|m| m.start() < iv.end())
            .any(|m| m.overlaps(iv))
    }

    /// True when the two sets overlap on positive measure.
    pub fn intersects(&self, other: &IntervalSet) -> bool {
        // Linear merge scan.
        let (mut i, mut j) = (0, 0);
        while i < self.items.len() && j < other.items.len() {
            let a = &self.items[i];
            let b = &other.items[j];
            if a.overlaps(b) {
                return true;
            }
            if a.end() <= b.end() {
                i += 1;
            } else {
                j += 1;
            }
        }
        false
    }
}

impl FromIterator<Interval> for IntervalSet {
    /// Builds a set from intervals, panicking on overlap (test helper).
    fn from_iter<I: IntoIterator<Item = Interval>>(iter: I) -> Self {
        let mut set = IntervalSet::new();
        for iv in iter {
            set.insert(iv).expect("overlapping intervals in from_iter");
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(a: f64, b: f64) -> Interval {
        Interval::from_secs(a, b)
    }

    #[test]
    fn interval_basics() {
        let i = iv(1.0, 3.0);
        assert_eq!(i.start(), Time::new(1.0));
        assert_eq!(i.end(), Time::new(3.0));
        assert_eq!(i.length(), Time::new(2.0));
        assert!(!i.is_empty());
        assert!(iv(2.0, 2.0).is_empty());
        assert!(i.contains(Time::new(1.0)));
        assert!(i.contains(Time::new(2.9)));
        assert!(!i.contains(Time::new(3.0)));
    }

    #[test]
    #[should_panic(expected = "precedes start")]
    fn interval_rejects_reversed() {
        let _ = iv(3.0, 1.0);
    }

    #[test]
    fn overlap_semantics_half_open() {
        assert!(iv(0.0, 2.0).overlaps(&iv(1.0, 3.0)));
        // Touching endpoints: no overlap.
        assert!(!iv(0.0, 2.0).overlaps(&iv(2.0, 3.0)));
        assert!(!iv(2.0, 3.0).overlaps(&iv(0.0, 2.0)));
        // Nested.
        assert!(iv(0.0, 10.0).overlaps(&iv(4.0, 5.0)));
    }

    #[test]
    fn intersection() {
        assert_eq!(iv(0.0, 2.0).intersect(&iv(1.0, 3.0)), Some(iv(1.0, 2.0)));
        assert_eq!(iv(0.0, 1.0).intersect(&iv(2.0, 3.0)), None);
        assert_eq!(iv(0.0, 1.0).intersect(&iv(1.0, 3.0)), None);
    }

    #[test]
    fn set_insert_disjoint() {
        let mut s = IntervalSet::new();
        s.insert(iv(5.0, 6.0)).unwrap();
        s.insert(iv(1.0, 2.0)).unwrap();
        s.insert(iv(3.0, 4.0)).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.total_length(), Time::new(3.0));
        assert_eq!(s.min_start(), Some(Time::new(1.0)));
        assert_eq!(s.max_end(), Some(Time::new(6.0)));
    }

    #[test]
    fn set_insert_rejects_overlap() {
        let mut s = IntervalSet::new();
        s.insert(iv(1.0, 3.0)).unwrap();
        assert_eq!(s.insert(iv(2.0, 4.0)), Err(iv(1.0, 3.0)));
        assert_eq!(s.insert(iv(0.0, 1.5)), Err(iv(1.0, 3.0)));
        assert_eq!(s.insert(iv(0.0, 5.0)), Err(iv(1.0, 3.0)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn set_insert_merges_adjacent() {
        let mut s = IntervalSet::new();
        s.insert(iv(1.0, 2.0)).unwrap();
        s.insert(iv(2.0, 3.0)).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.total_length(), Time::new(2.0));
        // Merge on both sides at once.
        s.insert(iv(4.0, 5.0)).unwrap();
        s.insert(iv(3.0, 4.0)).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.max_end(), Some(Time::new(5.0)));
    }

    #[test]
    fn set_ignores_empty_intervals() {
        let mut s = IntervalSet::new();
        s.insert(iv(2.0, 2.0)).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn set_overlap_queries() {
        let s: IntervalSet = [iv(0.0, 1.0), iv(2.0, 3.0), iv(5.0, 8.0)]
            .into_iter()
            .collect();
        assert!(s.overlaps(&iv(0.5, 0.6)));
        assert!(s.overlaps(&iv(2.5, 6.0)));
        assert!(!s.overlaps(&iv(1.0, 2.0)));
        assert!(!s.overlaps(&iv(8.0, 9.0)));

        let t: IntervalSet = [iv(1.0, 2.0), iv(3.0, 5.0)].into_iter().collect();
        assert!(!s.intersects(&t));
        let u: IntervalSet = [iv(0.5, 0.7)].into_iter().collect();
        assert!(s.intersects(&u));
        assert!(u.intersects(&s));
    }

    #[test]
    fn min_max_on_empty() {
        let s = IntervalSet::new();
        assert_eq!(s.min_start(), None);
        assert_eq!(s.max_end(), None);
        assert_eq!(s.total_length(), Time::ZERO);
    }
}
