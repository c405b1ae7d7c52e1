//! Chrome trace-event JSON export.
//!
//! [`ChromeTraceWriter`] turns the event stream into the JSON Array
//! Format understood by Perfetto (<https://ui.perfetto.dev>) and the
//! legacy `chrome://tracing` viewer:
//!
//! * one thread track per resource (`edge-j cpu`, `edge-j uplink`,
//!   `edge-j downlink`, `cloud-k cpu`) carrying `B`/`E` duration pairs
//!   for every committed activity interval;
//! * a `policy` track with `X` (complete) events for each `decide` call;
//! * `i` (instant) events for releases, completions, restarts, and
//!   binary-search probes;
//! * a `C` (counter) track for the ready-queue depth;
//! * `M` (metadata) records naming the process and every thread track.
//!
//! Virtual seconds are mapped to trace microseconds (`ts = t * 1e6`).
//! Tracks carry mutually disjoint intervals under the one-port model, so
//! `B`/`E` pairs on a track never overlap and viewers render them
//! without inventing nesting.

use crate::json::Json;
use crate::{Event, Observer, PhaseKind, Unit};

const PID: usize = 1;
/// Thread id of the policy track; resource tracks start above it.
const POLICY_TID: usize = 2;
const QUEUE_TID: usize = 3;
const UNIT_TID_BASE: usize = 10;

/// Observer that accumulates Chrome trace events; call
/// [`ChromeTraceWriter::to_json_string`] once the run finished.
#[derive(Clone, Debug, Default)]
pub struct ChromeTraceWriter {
    events: Vec<Json>,
    tracks: Vec<(usize, String)>,   // (tid, name), insertion-ordered
    pending_decide_ts: Option<f64>, // ts_us of the open DecideStart
}

impl ChromeTraceWriter {
    /// A fresh writer.
    pub fn new() -> Self {
        ChromeTraceWriter::default()
    }

    /// Number of trace records accumulated so far (excluding metadata).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn tid_for(&mut self, unit: Unit, phase: PhaseKind) -> usize {
        let name = unit.track(phase);
        if let Some((tid, _)) = self.tracks.iter().find(|(_, n)| *n == name) {
            return *tid;
        }
        let tid = UNIT_TID_BASE + self.tracks.len();
        self.tracks.push((tid, name));
        tid
    }

    fn push(&mut self, mut fields: Vec<(&str, Json)>) {
        fields.insert(0, ("pid", Json::int(PID)));
        self.events.push(Json::obj(fields));
    }

    fn instant(&mut self, name: &str, ts_us: f64, tid: usize, args: Vec<(&str, Json)>) {
        self.push(vec![
            ("tid", Json::int(tid)),
            ("ts", Json::Num(ts_us)),
            ("ph", Json::str("i")),
            ("s", Json::str("t")),
            ("name", Json::str(name)),
            ("args", Json::obj(args)),
        ]);
    }

    /// Serializes the accumulated trace, sorted by timestamp, wrapped in
    /// the `{"traceEvents": …}` envelope.
    pub fn to_json(&self) -> Json {
        let mut records = Vec::with_capacity(self.events.len() + self.tracks.len() + 3);
        records.push(metadata(
            "process_name",
            0,
            vec![("name", Json::str("mmsec simulation"))],
        ));
        records.push(metadata(
            "thread_name",
            POLICY_TID,
            vec![("name", Json::str("policy"))],
        ));
        records.push(metadata(
            "thread_name",
            QUEUE_TID,
            vec![("name", Json::str("ready queue"))],
        ));
        for (tid, name) in &self.tracks {
            records.push(metadata(
                "thread_name",
                *tid,
                vec![("name", Json::str(name.clone()))],
            ));
        }
        let mut timed = self.events.clone();
        // Stable sort: records at equal ts keep emission order, so an E at
        // time t precedes the next B at the same t on the same track only
        // if it was emitted first — which the engine guarantees.
        timed.sort_by(|a, b| {
            let ta = a.get("ts").and_then(Json::as_f64).unwrap_or(0.0);
            let tb = b.get("ts").and_then(Json::as_f64).unwrap_or(0.0);
            ta.partial_cmp(&tb).expect("trace timestamps are finite")
        });
        records.extend(timed);
        Json::obj(vec![
            ("traceEvents", Json::Arr(records)),
            ("displayTimeUnit", Json::str("ms")),
        ])
    }

    /// Pretty-printed trace document (see [`ChromeTraceWriter::to_json`]).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }
}

fn metadata(name: &str, tid: usize, args: Vec<(&str, Json)>) -> Json {
    Json::obj(vec![
        ("pid", Json::int(PID)),
        ("tid", Json::int(tid)),
        ("ts", Json::int(0)),
        ("ph", Json::str("M")),
        ("name", Json::str(name)),
        ("args", Json::obj(args)),
    ])
}

fn us(t: mmsec_sim::Time) -> f64 {
    t.seconds() * 1e6
}

impl Observer for ChromeTraceWriter {
    fn on_event(&mut self, event: &Event) {
        match event {
            Event::RunStart {
                policy,
                jobs,
                edges,
                clouds,
            } => {
                self.instant(
                    "run-start",
                    0.0,
                    POLICY_TID,
                    vec![
                        ("policy", Json::str(policy.clone())),
                        ("jobs", Json::int(*jobs)),
                        ("edges", Json::int(*edges)),
                        ("clouds", Json::int(*clouds)),
                    ],
                );
            }
            Event::JobSubmitted { t, job } => {
                self.instant("submit", us(*t), POLICY_TID, vec![("job", Json::int(*job))]);
            }
            Event::JobReleased { t, job } => {
                self.instant(
                    "release",
                    us(*t),
                    POLICY_TID,
                    vec![("job", Json::int(*job))],
                );
            }
            Event::DecideStart { t, pending } => {
                self.pending_decide_ts = Some(us(*t));
                // Counter sample of the ready-queue depth at each decision.
                self.push(vec![
                    ("tid", Json::int(QUEUE_TID)),
                    ("ts", Json::Num(us(*t))),
                    ("ph", Json::str("C")),
                    ("name", Json::str("ready-queue")),
                    ("args", Json::obj(vec![("depth", Json::int(*pending))])),
                ]);
            }
            Event::DecideSkipped { t, pending } => {
                // Keep the ready-queue counter track continuous even at
                // skipped decisions so its samples match the event grid.
                self.push(vec![
                    ("tid", Json::int(QUEUE_TID)),
                    ("ts", Json::Num(us(*t))),
                    ("ph", Json::str("C")),
                    ("name", Json::str("ready-queue")),
                    ("args", Json::obj(vec![("depth", Json::int(*pending))])),
                ]);
            }
            Event::DecideEnd {
                t,
                wall,
                directives,
            } => {
                let ts = self.pending_decide_ts.take().unwrap_or_else(|| us(*t));
                // `dur` is the real decide latency; it is usually tiny
                // relative to virtual time, so the slice stays readable.
                self.push(vec![
                    ("tid", Json::int(POLICY_TID)),
                    ("ts", Json::Num(ts)),
                    ("ph", Json::str("X")),
                    ("dur", Json::Num(wall.as_secs_f64() * 1e6)),
                    ("name", Json::str("decide")),
                    (
                        "args",
                        Json::obj(vec![("directives", Json::int(*directives))]),
                    ),
                ]);
            }
            Event::Placed {
                job,
                origin,
                target,
                phase,
                interval,
                volume,
                ..
            } => {
                let tid = self.tid_for(*target, *phase);
                let name = format!("job-{job} {}", phase.label());
                let args = vec![
                    ("job", Json::int(*job)),
                    ("origin", Json::int(*origin)),
                    ("phase", Json::str(phase.label())),
                    ("volume", Json::Num(*volume)),
                ];
                self.push(vec![
                    ("tid", Json::int(tid)),
                    ("ts", Json::Num(us(interval.start()))),
                    ("ph", Json::str("B")),
                    ("name", Json::str(name.clone())),
                    ("args", Json::obj(args)),
                ]);
                self.push(vec![
                    ("tid", Json::int(tid)),
                    ("ts", Json::Num(us(interval.end()))),
                    ("ph", Json::str("E")),
                    ("name", Json::str(name)),
                ]);
            }
            Event::Restarted { t, job, from, to } => {
                self.instant(
                    "restart",
                    us(*t),
                    POLICY_TID,
                    vec![
                        ("job", Json::int(*job)),
                        ("from", Json::str(from.to_string())),
                        ("to", Json::str(to.to_string())),
                    ],
                );
            }
            Event::Completed {
                t,
                job,
                response,
                stretch,
                ..
            } => {
                self.instant(
                    "complete",
                    us(*t),
                    POLICY_TID,
                    vec![
                        ("job", Json::int(*job)),
                        ("response", Json::Num(*response)),
                        ("stretch", Json::Num(*stretch)),
                    ],
                );
            }
            Event::BinarySearchProbe {
                t,
                stretch,
                feasible,
            } => {
                self.instant(
                    "probe",
                    us(*t),
                    POLICY_TID,
                    vec![
                        ("stretch", Json::Num(*stretch)),
                        ("feasible", Json::Bool(*feasible)),
                    ],
                );
            }
            Event::UnitDown { t, unit } => {
                self.instant(
                    "unit-down",
                    us(*t),
                    POLICY_TID,
                    vec![("unit", Json::str(unit.to_string()))],
                );
            }
            Event::UnitUp { t, unit } => {
                self.instant(
                    "unit-up",
                    us(*t),
                    POLICY_TID,
                    vec![("unit", Json::str(unit.to_string()))],
                );
            }
            Event::LinkDegraded { t, edge, factor } => {
                self.instant(
                    "link-degraded",
                    us(*t),
                    POLICY_TID,
                    vec![("edge", Json::int(*edge)), ("factor", Json::Num(*factor))],
                );
            }
            Event::JobKilled { t, job, unit } => {
                self.instant(
                    "job-killed",
                    us(*t),
                    POLICY_TID,
                    vec![
                        ("job", Json::int(*job)),
                        ("unit", Json::str(unit.to_string())),
                    ],
                );
            }
            Event::PlatformChanged {
                t,
                version,
                op,
                unit,
            } => {
                self.instant(
                    "platform-changed",
                    us(*t),
                    POLICY_TID,
                    vec![
                        ("op", Json::str(*op)),
                        ("version", Json::int(*version as usize)),
                        ("unit", Json::str(unit.to_string())),
                    ],
                );
            }
            Event::RunEnd { makespan } => {
                self.instant(
                    "run-end",
                    us(*makespan),
                    POLICY_TID,
                    vec![("makespan", Json::Num(makespan.seconds()))],
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use mmsec_sim::{Interval, Time};
    use std::time::Duration;

    fn feed(writer: &mut ChromeTraceWriter) {
        writer.on_event(&Event::RunStart {
            policy: "test".into(),
            jobs: 1,
            edges: 1,
            clouds: 1,
        });
        writer.on_event(&Event::DecideStart {
            t: Time::ZERO,
            pending: 1,
        });
        writer.on_event(&Event::DecideEnd {
            t: Time::ZERO,
            wall: Duration::from_micros(3),
            directives: 1,
        });
        writer.on_event(&Event::Placed {
            job: 0,
            origin: 0,
            target: Unit::Edge(0),
            cloud: None,
            phase: PhaseKind::Compute,
            interval: Interval::from_secs(0.0, 1.5),
            volume: 0.0,
        });
        writer.on_event(&Event::Placed {
            job: 0,
            origin: 0,
            target: Unit::Cloud(0),
            cloud: Some(0),
            phase: PhaseKind::Compute,
            interval: Interval::from_secs(1.5, 2.0),
            volume: 0.0,
        });
        writer.on_event(&Event::Completed {
            t: Time::new(2.0),
            job: 0,
            release: Time::ZERO,
            cloud: Some(0),
            response: 2.0,
            stretch: 1.0,
        });
        writer.on_event(&Event::RunEnd {
            makespan: Time::new(2.0),
        });
    }

    #[test]
    fn output_is_valid_sorted_chrome_json() {
        let mut writer = ChromeTraceWriter::new();
        feed(&mut writer);
        let doc = json::parse(&writer.to_json_string()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert!(!events.is_empty());
        // Timestamps are monotone over the non-metadata records.
        let mut last = f64::NEG_INFINITY;
        for e in events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) != Some("M"))
        {
            let ts = e.get("ts").and_then(Json::as_f64).unwrap();
            assert!(ts >= last, "ts went backwards: {ts} < {last}");
            last = ts;
        }
    }

    #[test]
    fn duration_pairs_balance_per_track() {
        let mut writer = ChromeTraceWriter::new();
        feed(&mut writer);
        let doc = writer.to_json();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let mut open: std::collections::BTreeMap<i64, i64> = Default::default();
        for e in events {
            let ph = e.get("ph").and_then(Json::as_str).unwrap();
            let tid = e.get("tid").and_then(Json::as_f64).unwrap() as i64;
            match ph {
                "B" => *open.entry(tid).or_insert(0) += 1,
                "E" => {
                    let n = open.entry(tid).or_insert(0);
                    *n -= 1;
                    assert!(*n >= 0, "E without matching B on track {tid}");
                }
                _ => {}
            }
        }
        assert!(open.values().all(|&n| n == 0), "unbalanced B/E: {open:?}");
    }

    #[test]
    fn tracks_get_metadata_names() {
        let mut writer = ChromeTraceWriter::new();
        feed(&mut writer);
        let doc = writer.to_json();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert!(names.contains(&"policy"));
        assert!(names.contains(&"edge-0 cpu"));
        assert!(names.contains(&"cloud-0 cpu"));
    }
}
