//! Flight recorder: a fixed-size ring buffer of recent engine events.
//!
//! [`FlightRecorder`] is an [`Observer`] that keeps the last K events in a
//! preallocated ring of plain-data [`FlightEntry`] records — no per-event
//! allocation, no formatting — so it can ride along on every run at
//! negligible cost. When a run dies (the engine stalls, a serve session
//! hits an error), the ring is dumped as a readable JSON artifact into the
//! failure-dump directory (see [`failure_dir`]), giving the last-K-events
//! forensics needed to reconstruct what the engine was doing when it
//! wedged.

use crate::json::Json;
use crate::{Event, Observer, Unit};
use std::path::PathBuf;

/// Default ring capacity when using [`FlightRecorder::new`].
pub const DEFAULT_CAPACITY: usize = 256;

/// One recorded event, flattened to plain data.
///
/// Every entry carries the event tag, the virtual time, and up to three
/// payload slots whose meaning depends on the tag (a job index, a unit,
/// and a numeric value — e.g. a `completed` entry stores the job and its
/// stretch; a `decide-end` entry stores the wall-clock seconds in `value`
/// and the directive count in `n`). Unused slots hold sentinels and are
/// omitted from the JSON dump.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlightEntry {
    /// Monotone sequence number (0-based, counts every event seen).
    pub seq: u64,
    /// The event's stable kebab-case tag ([`Event::tag`]).
    pub tag: &'static str,
    /// Virtual time in seconds (0 for timeless events like `run-start`).
    pub t: f64,
    /// Job index, or -1 when the event has none.
    pub job: i64,
    /// Resource the event concerns, when it has one.
    pub unit: Option<Unit>,
    /// Tag-dependent numeric payload (stretch, wall seconds, capacity
    /// factor, …); NaN when the event has none.
    pub value: f64,
    /// Tag-dependent count payload (pending depth, directive count,
    /// feasibility flag, …); -1 when the event has none.
    pub n: i64,
}

impl FlightEntry {
    fn from_event(seq: u64, event: &Event) -> FlightEntry {
        let mut e = FlightEntry {
            seq,
            tag: event.tag(),
            t: 0.0,
            job: -1,
            unit: None,
            value: f64::NAN,
            n: -1,
        };
        match event {
            Event::RunStart { jobs, .. } => e.n = *jobs as i64,
            Event::JobReleased { t, job } | Event::JobSubmitted { t, job } => {
                e.t = t.seconds();
                e.job = *job as i64;
            }
            Event::DecideStart { t, pending } | Event::DecideSkipped { t, pending } => {
                e.t = t.seconds();
                e.n = *pending as i64;
            }
            Event::DecideEnd {
                t,
                wall,
                directives,
            } => {
                e.t = t.seconds();
                e.value = wall.as_secs_f64();
                e.n = *directives as i64;
            }
            Event::Placed {
                job,
                target,
                interval,
                volume,
                ..
            } => {
                e.t = interval.start().seconds();
                e.job = *job as i64;
                e.unit = Some(*target);
                e.value = *volume;
            }
            Event::Restarted { t, job, to, .. } => {
                e.t = t.seconds();
                e.job = *job as i64;
                e.unit = Some(*to);
            }
            Event::Completed {
                t, job, stretch, ..
            } => {
                e.t = t.seconds();
                e.job = *job as i64;
                e.value = *stretch;
            }
            Event::UnitDown { t, unit } | Event::UnitUp { t, unit } => {
                e.t = t.seconds();
                e.unit = Some(*unit);
            }
            Event::LinkDegraded { t, edge, factor } => {
                e.t = t.seconds();
                e.unit = Some(Unit::Edge(*edge));
                e.value = *factor;
            }
            Event::JobKilled { t, job, unit } => {
                e.t = t.seconds();
                e.job = *job as i64;
                e.unit = Some(*unit);
            }
            Event::BinarySearchProbe {
                t,
                stretch,
                feasible,
            } => {
                e.t = t.seconds();
                e.value = *stretch;
                e.n = *feasible as i64;
            }
            Event::PlatformChanged {
                t, version, unit, ..
            } => {
                e.t = t.seconds();
                e.unit = Some(*unit);
                e.n = *version as i64;
            }
            Event::RunEnd { makespan } => e.t = makespan.seconds(),
        }
        e
    }

    fn to_json(self) -> Json {
        let mut fields = vec![
            ("seq", Json::Num(self.seq as f64)),
            ("tag", Json::str(self.tag)),
            ("t", Json::Num(self.t)),
        ];
        if self.job >= 0 {
            fields.push(("job", Json::Num(self.job as f64)));
        }
        if let Some(unit) = self.unit {
            fields.push(("unit", Json::str(unit.to_string())));
        }
        if !self.value.is_nan() {
            fields.push(("value", Json::Num(self.value)));
        }
        if self.n >= 0 {
            fields.push(("n", Json::Num(self.n as f64)));
        }
        Json::obj(fields)
    }
}

/// Ring buffer of the last K engine events (see the module docs).
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    entries: Vec<FlightEntry>,
    capacity: usize,
    /// Index the next entry will be written to once the ring is full.
    head: usize,
    seen: u64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::with_capacity(DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder holding the last [`DEFAULT_CAPACITY`] events.
    pub fn new() -> Self {
        FlightRecorder::default()
    }

    /// A recorder holding the last `capacity` events (min 1). The ring is
    /// preallocated here; recording never allocates.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            entries: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            seen: 0,
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of entries currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total events seen over the recorder's lifetime (including ones the
    /// ring has already overwritten).
    pub fn total_seen(&self) -> u64 {
        self.seen
    }

    /// Events seen but no longer held.
    pub fn dropped(&self) -> u64 {
        self.seen - self.len() as u64
    }

    /// The held entries, oldest first.
    pub fn entries(&self) -> Vec<FlightEntry> {
        let mut out = Vec::with_capacity(self.entries.len());
        out.extend_from_slice(&self.entries[self.head..]);
        out.extend_from_slice(&self.entries[..self.head]);
        out
    }

    /// Serializes the ring (`schema: "mmsec-flight/1"`), oldest event
    /// first.
    pub fn to_json(&self) -> Json {
        let events: Vec<Json> = self
            .entries()
            .into_iter()
            .map(FlightEntry::to_json)
            .collect();
        Json::obj(vec![
            ("schema", Json::str("mmsec-flight/1")),
            ("capacity", Json::int(self.capacity)),
            ("recorded", Json::int(self.len())),
            ("total_seen", Json::Num(self.seen as f64)),
            ("dropped", Json::Num(self.dropped() as f64)),
            ("events", Json::Arr(events)),
        ])
    }

    /// Pretty-printed JSON document (see [`FlightRecorder::to_json`]).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Writes the ring as `<label>-flight.json` under [`failure_dir`] and
    /// returns the path. Returns `None` when nothing was recorded or the
    /// write fails (forensics must never turn a failure into a panic).
    pub fn dump(&self, label: &str) -> Option<PathBuf> {
        if self.is_empty() {
            return None;
        }
        let dir = failure_dir();
        std::fs::create_dir_all(&dir).ok()?;
        let path = dir.join(format!("{label}-flight.json"));
        std::fs::write(&path, self.to_json_string()).ok()?;
        Some(path)
    }
}

impl Observer for FlightRecorder {
    #[inline]
    fn on_event(&mut self, event: &Event) {
        let entry = FlightEntry::from_event(self.seen, event);
        self.seen += 1;
        if self.entries.len() < self.capacity {
            self.entries.push(entry);
        } else {
            self.entries[self.head] = entry;
            self.head = (self.head + 1) % self.capacity;
        }
    }
}

/// The failure-artifact directory: `$MMSEC_FAILURE_DIR`, defaulting to
/// `target/failures`. Shared by the bench harness's `TrialError` dumps and
/// the flight-recorder dumps so all forensics land in one place.
pub fn failure_dir() -> PathBuf {
    std::env::var_os("MMSEC_FAILURE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target").join("failures"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmsec_sim::Time;

    fn released(job: usize, t: f64) -> Event {
        Event::JobReleased {
            t: Time::new(t),
            job,
        }
    }

    #[test]
    fn ring_wraps_and_keeps_the_newest_entries() {
        let mut fr = FlightRecorder::with_capacity(4);
        for i in 0..10 {
            fr.on_event(&released(i, i as f64));
        }
        assert_eq!(fr.len(), 4);
        assert_eq!(fr.capacity(), 4);
        assert_eq!(fr.total_seen(), 10);
        assert_eq!(fr.dropped(), 6);
        let entries = fr.entries();
        // Oldest-first: the surviving window is events 6..10.
        let seqs: Vec<u64> = entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        let jobs: Vec<i64> = entries.iter().map(|e| e.job).collect();
        assert_eq!(jobs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn partial_ring_preserves_order() {
        let mut fr = FlightRecorder::with_capacity(8);
        for i in 0..3 {
            fr.on_event(&released(i, i as f64));
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.dropped(), 0);
        let seqs: Vec<u64> = fr.entries().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn dump_json_is_parseable_and_complete() {
        let mut fr = FlightRecorder::with_capacity(3);
        fr.on_event(&Event::DecideStart {
            t: Time::new(1.0),
            pending: 5,
        });
        fr.on_event(&Event::DecideEnd {
            t: Time::new(1.0),
            wall: std::time::Duration::from_micros(7),
            directives: 2,
        });
        fr.on_event(&Event::Completed {
            t: Time::new(2.0),
            job: 1,
            release: Time::new(0.5),
            cloud: None,
            response: 1.5,
            stretch: 3.0,
        });
        let text = fr.to_json_string();
        let doc = crate::json::parse(&text).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("mmsec-flight/1")
        );
        assert_eq!(doc.get("total_seen").and_then(Json::as_f64), Some(3.0));
        let events = doc.get("events").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[0].get("tag").and_then(Json::as_str),
            Some("decide-start")
        );
        assert_eq!(events[0].get("n").and_then(Json::as_f64), Some(5.0));
        // decide-start has no job/unit/value → the slots are omitted.
        assert!(events[0].get("job").is_none());
        assert!(events[0].get("unit").is_none());
        assert!(events[0].get("value").is_none());
        assert_eq!(events[2].get("job").and_then(Json::as_f64), Some(1.0));
        assert_eq!(events[2].get("value").and_then(Json::as_f64), Some(3.0));
    }

    #[test]
    fn empty_recorder_refuses_to_dump() {
        let fr = FlightRecorder::new();
        assert!(fr.dump("nothing").is_none());
    }
}
