//! Run-level metrics aggregated from the event stream.
//!
//! [`MetricsRecorder`] is an [`Observer`] that folds events into compact
//! aggregates as they arrive — counters, decide-latency and stretch
//! histograms (both on the shared [`Log2Histogram`] type), per-unit busy
//! time (→ utilization), communication volume, ready-queue depth samples,
//! and binary-search probe counts — and serializes the result with
//! [`MetricsRecorder::to_json`]. Memory use is bounded: the only
//! per-event growth is the decimated queue-depth sample buffer, capped at
//! [`MAX_QUEUE_SAMPLES`].

use std::collections::BTreeMap;

use crate::hist::Log2Histogram;
use crate::json::Json;
use crate::{Event, Observer, PhaseKind};

/// Hard cap on stored queue-depth samples; past it the recorder doubles
/// its sampling stride and keeps every other retained sample.
pub const MAX_QUEUE_SAMPLES: usize = 4096;

#[derive(Clone, Debug, Default)]
struct UnitStats {
    busy_seconds: f64,
    intervals: u64,
    comm_volume: f64,
}

/// Aggregating observer; see the module docs.
#[derive(Clone, Debug, Default)]
pub struct MetricsRecorder {
    policy: String,
    jobs: usize,
    events: u64,
    releases: u64,
    completions: u64,
    restarts: u64,
    restarts_per_job: BTreeMap<usize, u64>,
    decides: u64,
    decide_skips: u64,
    directives: u64,
    decide_latency: Log2Histogram,
    stretch: Log2Histogram,
    response_sum: f64,
    response_max: f64,
    probes: u64,
    probes_feasible: u64,
    unit_downs: u64,
    unit_ups: u64,
    job_kills: u64,
    link_changes: u64,
    platform_changes: u64,
    platform_version: u64,
    /// Accumulated down-seconds per unit display name.
    downtime: BTreeMap<String, f64>,
    /// Units currently down, with the time the outage began.
    down_since: BTreeMap<String, f64>,
    units: BTreeMap<String, UnitStats>,
    uplink_volume: f64,
    downlink_volume: f64,
    queue_samples: Vec<(f64, usize)>,
    queue_stride: usize,
    queue_seen: usize,
    queue_max: usize,
    makespan: f64,
}

impl MetricsRecorder {
    /// A fresh recorder.
    pub fn new() -> Self {
        MetricsRecorder {
            queue_stride: 1,
            ..MetricsRecorder::default()
        }
    }

    /// Number of events folded so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Total restarts observed (policy retargets plus fault kills).
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Jobs whose in-flight work was wiped by a unit crash.
    pub fn job_kills(&self) -> u64 {
        self.job_kills
    }

    /// Unit crash events observed.
    pub fn unit_downs(&self) -> u64 {
        self.unit_downs
    }

    /// The decide-latency histogram (values are wall-clock seconds).
    pub fn decide_latency(&self) -> &Log2Histogram {
        &self.decide_latency
    }

    /// The per-job stretch histogram (dimensionless ratios, one sample
    /// per completion).
    pub fn stretch(&self) -> &Log2Histogram {
        &self.stretch
    }

    fn sample_queue(&mut self, t: f64, depth: usize) {
        self.queue_max = self.queue_max.max(depth);
        self.queue_seen += 1;
        if (self.queue_seen - 1) % self.queue_stride != 0 {
            return;
        }
        self.queue_samples.push((t, depth));
        if self.queue_samples.len() >= MAX_QUEUE_SAMPLES {
            // Keep every other sample and double the stride: the buffer
            // stays bounded while coverage stays uniform over the run.
            let mut keep = 0;
            for i in (0..self.queue_samples.len()).step_by(2) {
                self.queue_samples[keep] = self.queue_samples[i];
                keep += 1;
            }
            self.queue_samples.truncate(keep);
            self.queue_stride *= 2;
        }
    }

    /// Serializes the aggregates. Utilization is busy time divided by the
    /// final makespan (0 when the makespan is 0).
    pub fn to_json(&self) -> Json {
        let denom = if self.makespan > 0.0 {
            self.makespan
        } else {
            f64::INFINITY
        };
        let units: Vec<Json> = self
            .units
            .iter()
            .map(|(track, st)| {
                Json::obj(vec![
                    ("unit", Json::str(track.clone())),
                    ("busy_seconds", Json::Num(st.busy_seconds)),
                    ("intervals", Json::Num(st.intervals as f64)),
                    ("utilization", Json::Num(st.busy_seconds / denom)),
                    ("comm_volume", Json::Num(st.comm_volume)),
                ])
            })
            .collect();
        let restarts_per_job: Vec<Json> = self
            .restarts_per_job
            .iter()
            .map(|(job, n)| {
                Json::obj(vec![
                    ("job", Json::int(*job)),
                    ("restarts", Json::Num(*n as f64)),
                ])
            })
            .collect();
        let queue: Vec<Json> = self
            .queue_samples
            .iter()
            .map(|&(t, d)| Json::Arr(vec![Json::Num(t), Json::int(d)]))
            .collect();
        let mut fields = vec![
            ("schema", Json::str("mmsec-metrics/2")),
            ("policy", Json::str(self.policy.clone())),
            ("jobs", Json::int(self.jobs)),
            ("makespan_seconds", Json::Num(self.makespan)),
            (
                "counters",
                Json::obj(vec![
                    ("events", Json::Num(self.events as f64)),
                    ("releases", Json::Num(self.releases as f64)),
                    ("completions", Json::Num(self.completions as f64)),
                    ("restarts", Json::Num(self.restarts as f64)),
                    ("decides", Json::Num(self.decides as f64)),
                    ("decide_skips", Json::Num(self.decide_skips as f64)),
                    (
                        "engine_events",
                        Json::Num((self.decides + self.decide_skips) as f64),
                    ),
                    ("directives", Json::Num(self.directives as f64)),
                    ("binary_search_probes", Json::Num(self.probes as f64)),
                    (
                        "binary_search_probes_feasible",
                        Json::Num(self.probes_feasible as f64),
                    ),
                ]),
            ),
            ("decide_latency", self.decide_latency.to_json()),
            ("stretch", self.stretch.to_json()),
            (
                "responses",
                Json::obj(vec![
                    (
                        "mean_seconds",
                        Json::Num(if self.completions == 0 {
                            0.0
                        } else {
                            self.response_sum / self.completions as f64
                        }),
                    ),
                    ("max_seconds", Json::Num(self.response_max)),
                ]),
            ),
            ("units", Json::Arr(units)),
            (
                "communication",
                Json::obj(vec![
                    ("uplink_volume", Json::Num(self.uplink_volume)),
                    ("downlink_volume", Json::Num(self.downlink_volume)),
                ]),
            ),
            ("restarts_per_job", Json::Arr(restarts_per_job)),
            (
                "ready_queue",
                Json::obj(vec![
                    ("max_depth", Json::int(self.queue_max)),
                    ("sample_stride", Json::int(self.queue_stride)),
                    ("samples", Json::Arr(queue)),
                ]),
            ),
        ];
        // Fault section only when fault injection was active, so fault-free
        // runs serialize exactly as before this section existed.
        if self.unit_downs + self.unit_ups + self.job_kills + self.link_changes > 0 {
            let downtime: Vec<Json> = self
                .downtime
                .iter()
                .map(|(unit, secs)| {
                    Json::obj(vec![
                        ("unit", Json::str(unit.clone())),
                        ("down_seconds", Json::Num(*secs)),
                    ])
                })
                .collect();
            fields.push((
                "faults",
                Json::obj(vec![
                    ("unit_downs", Json::Num(self.unit_downs as f64)),
                    ("unit_ups", Json::Num(self.unit_ups as f64)),
                    ("job_kills", Json::Num(self.job_kills as f64)),
                    ("link_changes", Json::Num(self.link_changes as f64)),
                    ("downtime", Json::Arr(downtime)),
                ]),
            ));
        }
        // Platform section only when the platform actually mutated, so
        // static-platform runs serialize exactly as before.
        if self.platform_changes > 0 {
            fields.push((
                "platform",
                Json::obj(vec![
                    ("changes", Json::Num(self.platform_changes as f64)),
                    ("version", Json::Num(self.platform_version as f64)),
                ]),
            ));
        }
        Json::obj(fields)
    }

    /// Pretty-printed JSON document (see [`MetricsRecorder::to_json`]).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }
}

impl Observer for MetricsRecorder {
    fn on_event(&mut self, event: &Event) {
        self.events += 1;
        match event {
            Event::RunStart { policy, jobs, .. } => {
                self.policy = policy.clone();
                self.jobs = *jobs;
            }
            Event::JobReleased { .. } => self.releases += 1,
            // Submission is bookkeeping, not simulation activity; the
            // release that follows is what the metrics track.
            Event::JobSubmitted { .. } => {}
            Event::DecideStart { t, pending } => {
                self.sample_queue(t.seconds(), *pending);
            }
            Event::DecideSkipped { t, pending } => {
                self.decide_skips += 1;
                self.sample_queue(t.seconds(), *pending);
            }
            Event::DecideEnd {
                wall, directives, ..
            } => {
                self.decides += 1;
                self.directives += *directives as u64;
                self.decide_latency.record_duration(*wall);
            }
            Event::Placed {
                target,
                phase,
                interval,
                volume,
                ..
            } => {
                let st = self.units.entry(target.track(*phase)).or_default();
                st.busy_seconds += interval.length().seconds();
                st.intervals += 1;
                st.comm_volume += volume;
                match phase {
                    PhaseKind::Uplink => self.uplink_volume += volume,
                    PhaseKind::Downlink => self.downlink_volume += volume,
                    PhaseKind::Compute => {}
                }
            }
            Event::Restarted { job, .. } => {
                self.restarts += 1;
                *self.restarts_per_job.entry(*job).or_insert(0) += 1;
            }
            Event::Completed {
                response, stretch, ..
            } => {
                self.completions += 1;
                self.response_sum += response;
                self.response_max = self.response_max.max(*response);
                self.stretch.record(*stretch);
            }
            Event::BinarySearchProbe { feasible, .. } => {
                self.probes += 1;
                if *feasible {
                    self.probes_feasible += 1;
                }
            }
            Event::UnitDown { t, unit } => {
                self.unit_downs += 1;
                self.down_since
                    .entry(unit.to_string())
                    .or_insert(t.seconds());
            }
            Event::UnitUp { t, unit } => {
                self.unit_ups += 1;
                if let Some(since) = self.down_since.remove(&unit.to_string()) {
                    *self.downtime.entry(unit.to_string()).or_insert(0.0) +=
                        (t.seconds() - since).max(0.0);
                }
            }
            Event::LinkDegraded { .. } => self.link_changes += 1,
            Event::PlatformChanged { version, .. } => {
                self.platform_changes += 1;
                self.platform_version = (*version).max(self.platform_version);
            }
            Event::JobKilled { job, .. } => {
                // A kill is a forced restart: fold it into the restart
                // aggregates so the recorder matches the engine's
                // `stats.restarts`, and count it separately as well.
                self.job_kills += 1;
                self.restarts += 1;
                *self.restarts_per_job.entry(*job).or_insert(0) += 1;
            }
            Event::RunEnd { makespan } => {
                self.makespan = makespan.seconds();
                // Close outages still open at the end of the run (e.g.
                // fail-stopped units have no recovery event).
                for (unit, since) in std::mem::take(&mut self.down_since) {
                    *self.downtime.entry(unit).or_insert(0.0) += (self.makespan - since).max(0.0);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Unit;
    use mmsec_sim::{Interval, Time};
    use std::time::Duration;

    #[test]
    fn recorder_folds_a_small_run() {
        let mut rec = MetricsRecorder::new();
        rec.on_event(&Event::RunStart {
            policy: "test".into(),
            jobs: 2,
            edges: 1,
            clouds: 1,
        });
        rec.on_event(&Event::JobReleased {
            t: Time::ZERO,
            job: 0,
        });
        rec.on_event(&Event::DecideStart {
            t: Time::ZERO,
            pending: 1,
        });
        rec.on_event(&Event::DecideEnd {
            t: Time::ZERO,
            wall: Duration::from_micros(5),
            directives: 1,
        });
        rec.on_event(&Event::Placed {
            job: 0,
            origin: 0,
            target: Unit::Edge(0),
            cloud: None,
            phase: PhaseKind::Compute,
            interval: Interval::from_secs(0.0, 2.0),
            volume: 0.0,
        });
        rec.on_event(&Event::Placed {
            job: 1,
            origin: 0,
            target: Unit::Cloud(0),
            cloud: Some(0),
            phase: PhaseKind::Uplink,
            interval: Interval::from_secs(0.0, 1.0),
            volume: 3.5,
        });
        rec.on_event(&Event::Restarted {
            t: Time::new(1.0),
            job: 0,
            from: Unit::Edge(0),
            to: Unit::Cloud(0),
        });
        rec.on_event(&Event::Completed {
            t: Time::new(2.0),
            job: 0,
            release: Time::ZERO,
            cloud: Some(0),
            response: 2.0,
            stretch: 4.0,
        });
        rec.on_event(&Event::RunEnd {
            makespan: Time::new(4.0),
        });

        assert_eq!(rec.events(), 9);
        assert_eq!(rec.restarts(), 1);
        assert_eq!(rec.stretch().count(), 1);
        assert_eq!(rec.stretch().max(), 4.0);
        let json = rec.to_json();
        assert_eq!(
            json.get("stretch")
                .and_then(|s| s.get("max"))
                .and_then(Json::as_f64),
            Some(4.0)
        );
        let counters = json.get("counters").unwrap();
        assert_eq!(counters.get("releases").and_then(Json::as_f64), Some(1.0));
        assert_eq!(counters.get("restarts").and_then(Json::as_f64), Some(1.0));
        let units = json.get("units").and_then(Json::as_arr).unwrap();
        assert_eq!(units.len(), 2);
        // edge-0 cpu busy 2 s over makespan 4 s → utilization 0.5.
        let edge = units
            .iter()
            .find(|u| u.get("unit").and_then(Json::as_str) == Some("edge-0 cpu"))
            .expect("edge cpu track present");
        assert_eq!(edge.get("utilization").and_then(Json::as_f64), Some(0.5));
        let comm = json.get("communication").unwrap();
        assert_eq!(comm.get("uplink_volume").and_then(Json::as_f64), Some(3.5));
    }

    #[test]
    fn recorder_folds_fault_events() {
        let mut rec = MetricsRecorder::new();
        rec.on_event(&Event::UnitDown {
            t: Time::new(1.0),
            unit: Unit::Edge(0),
        });
        rec.on_event(&Event::JobKilled {
            t: Time::new(1.0),
            job: 3,
            unit: Unit::Edge(0),
        });
        rec.on_event(&Event::UnitUp {
            t: Time::new(3.5),
            unit: Unit::Edge(0),
        });
        rec.on_event(&Event::UnitDown {
            t: Time::new(5.0),
            unit: Unit::Cloud(1),
        });
        rec.on_event(&Event::LinkDegraded {
            t: Time::new(6.0),
            edge: 0,
            factor: 0.5,
        });
        rec.on_event(&Event::RunEnd {
            makespan: Time::new(7.0),
        });
        assert_eq!(rec.job_kills(), 1);
        assert_eq!(rec.unit_downs(), 2);
        assert_eq!(rec.restarts(), 1, "kills count as restarts");
        let json = rec.to_json();
        let faults = json.get("faults").expect("faults section present");
        assert_eq!(faults.get("unit_downs").and_then(Json::as_f64), Some(2.0));
        assert_eq!(faults.get("job_kills").and_then(Json::as_f64), Some(1.0));
        let downtime = faults.get("downtime").and_then(Json::as_arr).unwrap();
        // edge-0 down 2.5 s; cloud-1 still down at run end → 2 s.
        assert_eq!(downtime.len(), 2);
        let cloud = downtime
            .iter()
            .find(|d| d.get("unit").and_then(Json::as_str) == Some("cloud-1"))
            .unwrap();
        assert_eq!(cloud.get("down_seconds").and_then(Json::as_f64), Some(2.0));
    }

    #[test]
    fn recorder_counts_decide_skips() {
        let mut rec = MetricsRecorder::new();
        rec.on_event(&Event::DecideStart {
            t: Time::ZERO,
            pending: 1,
        });
        rec.on_event(&Event::DecideEnd {
            t: Time::ZERO,
            wall: Duration::from_micros(2),
            directives: 1,
        });
        rec.on_event(&Event::DecideSkipped {
            t: Time::new(1.0),
            pending: 2,
        });
        rec.on_event(&Event::DecideSkipped {
            t: Time::new(2.0),
            pending: 1,
        });
        rec.on_event(&Event::RunEnd {
            makespan: Time::new(3.0),
        });
        let json = rec.to_json();
        let counters = json.get("counters").unwrap();
        assert_eq!(counters.get("decides").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            counters.get("decide_skips").and_then(Json::as_f64),
            Some(2.0)
        );
        // Engine-side event count: decides + skips.
        assert_eq!(
            counters.get("engine_events").and_then(Json::as_f64),
            Some(3.0)
        );
        // Skipped decisions still sample the ready queue.
        assert_eq!(rec.queue_samples.len(), 3);
    }

    #[test]
    fn fault_free_json_has_no_fault_section() {
        let mut rec = MetricsRecorder::new();
        rec.on_event(&Event::RunEnd {
            makespan: Time::new(1.0),
        });
        assert!(rec.to_json().get("faults").is_none());
    }

    #[test]
    fn queue_sampling_stays_bounded() {
        let mut rec = MetricsRecorder::new();
        for i in 0..(MAX_QUEUE_SAMPLES * 10) {
            rec.sample_queue(i as f64, i % 17);
        }
        assert!(rec.queue_samples.len() < MAX_QUEUE_SAMPLES);
        assert!(rec.queue_stride > 1);
        assert_eq!(rec.queue_max, 16);
        // Samples remain in time order after decimation.
        for pair in rec.queue_samples.windows(2) {
            assert!(pair[0].0 < pair[1].0);
        }
    }
}
